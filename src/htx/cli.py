"""Command-line entry points.

The five run commands share one path, `cmd_run`: load the config, run the
command's driver from RUN_DRIVERS, save its record. The driver is looked up
by name on `htx.experiments` when the command runs, so a replaced module
attribute (a test's stub, a profiler's wrapper) is what runs. The argument
parser is built once per process, by `_parser`.

Exit status: 0 on success, 1 if any verification check fails, 2 on a
configuration error or on a run that the given input drove to a non-finite
state (a diverged sampler, a non-finite training loss, a singular step) or
to a degenerate conjugate posterior.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, verify
from .config import ExperimentConfig, read_document
from .errors import (ConfigError, DegeneratePosteriorError, DivergenceError, SingularityError,
                     TrainingError)
from .scorenet import MlpNet, TrainConfig, save_weights, train
from .oracle import gm_sample

# the most Adam steps `htx train --steps` takes: at about 1.3 ms a step on the 2-d
# toy that is some 20 minutes; the longest training in the package, the DSM check
# of `htx verify`, takes 15,000
MAX_TRAIN_STEPS = 1_000_000
# each run command and the name of its driver on htx.experiments
RUN_DRIVERS = {"restore": "run_restore", "ablate-exponent": "run_ablate_exponent",
               "ablate-weightfn": "run_ablate_weight_family",
               "baseline-sdedit": "run_baseline_sdedit", "sample": "run_sample_unguided"}


def _check_out(out, name: str) -> None:
    """Raise ConfigError naming `name` unless `out` is, or can be made, a writable
    directory; checked before a run, so that a bad path does not end it afterwards."""
    if out == "":
        raise ConfigError(f"{name} must be a non-empty path, got ''")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"{name} must be a writable directory, got {str(out)!r} "
                          f"({existing} is not a writable directory)")


def _load_config(args) -> ExperimentConfig:
    """The config document with --seed, --trials and --out applied, parsed and built once."""
    doc = read_document(args.config) if args.config else {}
    flags = {key: value for key, value in (("seed", args.seed), ("trials", args.trials),
                                           ("out", args.out)) if value is not None}
    if flags and isinstance(doc, dict) and isinstance(doc.get("experiment", {}), dict):
        doc["experiment"] = {**doc.get("experiment", {}), **flags}
    cfg = ExperimentConfig.from_dict(doc)
    _check_out(cfg.experiment["out"], "experiment.out" if args.out is None else "--out")
    return cfg


def cmd_verify(args) -> int:
    out = "runs" if args.out is None else args.out
    _check_out(out, "--out")
    record = verify.run_verify()
    record.save(out)
    return 0 if record.extras["all_passed"] else 1


def cmd_run(args) -> int:
    cfg = _load_config(args)
    record = getattr(experiments, RUN_DRIVERS[args.command])(cfg)
    out = record.save(cfg.experiment["out"])
    print(f"wrote {out}/record.json")
    for path in record.artifacts:
        print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    if not 1 <= args.steps <= MAX_TRAIN_STEPS:
        raise ConfigError(f"train --steps must lie in [1, {MAX_TRAIN_STEPS}], got {args.steps}")
    cfg = _load_config(args)
    gm, _, schedule, _ = cfg.built
    seed = cfg.experiment["seed"]
    rng = np.random.default_rng(seed)
    data = gm_sample(gm, max(8192, 4 * 256), rng)
    net = MlpNet.init(gm.dim, rng=rng)
    trained, curve = train(net, data, TrainConfig(steps=args.steps, seed=seed), schedule)
    out = Path(cfg.experiment["out"])
    out.mkdir(parents=True, exist_ok=True)
    weights_path = out / "scorenet.htx"
    save_weights(trained, weights_path)
    print(f"wrote {weights_path}")
    print(f"loss: first {curve[0, 1]:.4f} last {curve[-1, 1]:.4f}")
    return 0


def cmd_report(args) -> int:
    given = args.out is not None
    out = args.out if given else Path(args.record).parent
    _check_out(out, "--out" if given else "--out (by default the record's directory)")
    record = experiments.RunRecord.from_json(args.record)
    written = experiments.emit_report(record, args.format, out)
    for path in [written] if args.format == "csv" else written:
        print(f"wrote {path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The htx argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="htx",
                                     description="Guided diffusion sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("verify", help="run all verification checks")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    for name in RUN_DRIVERS:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=cmd_run)

    p = sub.add_parser("train", help="train the score net on the configured density")
    common(p)
    p.add_argument("--steps", type=int, default=5000)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="re-emit reports from a saved record")
    p.add_argument("--record", required=True, help="path to record.json")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a non-finite value ends as one of the errors below or as null in the
        # record; numpy's overflow warnings on the way would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegeneratePosteriorError, DivergenceError, SingularityError, TrainingError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
