"""Experiment drivers: restoration, ablations, the start-guided baseline.

Every driver returns a RunRecord holding the full per-trial metric table, one
column per metric, the aggregate rows (mean and standard error), and enough
configuration to rerun bitwise.  Each run draws its trials once and every arm
shares them: trial i of every arm sees the same (fine sample, degradation
noise, start noise), which removes between-arm Monte Carlo variance from
ordering comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import oracle, report
from ._version import __version__
from .config import ExperimentConfig, _is_integer, _is_number, build_weights
from .errors import ConfigError
from .guidance import (GuidanceSpec, approximation_error, guided_score_drift,
                       region_exponents, sdedit_start, unguided_drift)
from .schedules import CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME, NoiseSchedule, WeightSchedule
from .scorenet import mixture_score_model
from .solvers import SamplerConfig, ode_ensemble, sample_ode, trial_rngs

ERROR_CURVE_POINTS = 9
# keys emit_report reads from every row of a record's aggregates and checks
AGGREGATE_KEYS = ("series", "x", "n")
CHECK_KEYS = ("name", "passed", "value", "threshold", "detail")
# what emit_report needs of an aggregate row's values: (test, what it must be),
# by key, and for every "*_mean" (null is a metric that was not finite)
AGGREGATE_TYPES = {"series": (lambda v: isinstance(v, str), "a string"),
                   "x": (_is_number, "a number"), "n": (_is_integer, "an integer")}
MEAN_TYPE = (lambda v: v is None or _is_number(v), "a number or null")


class Trials(NamedTuple):
    """Per-trial draws that every arm of a run shares."""

    fine: np.ndarray         # (n, d) clean samples y
    coarse: np.ndarray       # (n, d) degraded references y~ in data space
    measurement: np.ndarray  # (n, m) noisy measurements
    z: np.ndarray            # (n, d) standard-normal start noise


@dataclass
class RunRecord:
    """Persisted outcome of one experiment run.

    `per_trial` holds each arm's per-trial metrics as columns, {arm: {metric:
    [trial 0, trial 1, ...]}}, each as long as the arm's aggregate `n`;
    record.json writes a non-finite value as null.
    """

    kind: str
    digest: str
    config: dict
    seed: int
    per_trial: dict[str, dict[str, list]]
    aggregates: list[dict]
    version: str = __version__
    artifacts: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @classmethod
    def of(cls, cfg: ExperimentConfig, kind: str, per_trial: dict[str, dict[str, list]],
           aggregates: list[dict], **fields) -> "RunRecord":
        """The record of a run of cfg, carrying cfg's digest, config and seed."""
        return cls(kind=kind, digest=cfg.digest(), config=cfg.to_dict(),
                   seed=cfg.experiment["seed"], per_trial=per_trial, aggregates=aggregates,
                   **fields)

    def to_dict(self) -> dict:
        """The record's fields by name, in the order the dataclass declares them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, path) -> "RunRecord":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read run record {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} is not a run record: not a JSON object")
        known = {f.name: f for f in fields(cls)}
        missing = [name for name, f in known.items() if name not in doc
                   and f.default is MISSING and f.default_factory is MISSING]
        unknown = sorted(set(doc) - set(known))
        if missing or unknown:
            raise ConfigError(f"{path} is not a run record: missing keys {missing}, "
                              f"unknown keys {unknown}")
        for name, keys in (("aggregates", AGGREGATE_KEYS), ("checks", CHECK_KEYS)):
            rows = doc.get(name, [])
            if not isinstance(rows, list):
                raise ConfigError(f"{path}: {name} must be a list")
            for i, row in enumerate(rows):
                absent = [key for key in keys if not isinstance(row, dict) or key not in row]
                if absent:
                    raise ConfigError(f"{path}: {name}[{i}] lacks keys {absent}")
        for i, row in enumerate(doc.get("aggregates", [])):
            for key, value in row.items():
                typed, kind = AGGREGATE_TYPES.get(key, MEAN_TYPE if key.endswith("_mean")
                                                  else (None, None))
                if typed and not typed(value):
                    raise ConfigError(f"{path}: aggregates[{i}].{key} must be {kind}, "
                                      f"got {value!r}")
        return cls(**doc)

    def save(self, out_root) -> Path:
        """Write record.json, metrics.csv, and SVG charts under <out>/<digest>/.

        record.json is strict JSON with no indentation: a non-finite value is
        written as null.  Its text is `json.dumps(_jsonable(record),
        allow_nan=False)` byte for byte, written by json's C encoder.
        `python -m json.tool record.json` prints it indented.
        """
        out = Path(out_root) / self.digest
        out.mkdir(parents=True, exist_ok=True)
        csv_path = emit_report(self, "csv", out)
        self.artifacts = [csv_path]
        if len(self.aggregates) > 1:
            self.artifacts.extend(emit_report(self, "svg", out))
        record_path = out / "record.json"
        record_path.write_text(_compact(self.to_dict()))
        return out


def _jsonable(value):
    """value with numpy scalars and arrays as Python values and every non-finite
    float as None, so the record is valid JSON (null where a metric is undefined)."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _compact(value) -> str:
    """value as compact strict JSON, through _jsonable only when it holds what
    JSON cannot write as it is (numpy values, non-finite floats)."""
    try:
        return json.dumps(value, allow_nan=False)
    except (TypeError, ValueError):
        return json.dumps(_jsonable(value), allow_nan=False)


def mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate_row(columns: dict[str, np.ndarray], series: str, x: float) -> dict:
    """One arm's aggregate row: the mean and SE of each per-trial metric column."""
    row = {"series": series, "x": x, "n": len(next(iter(columns.values())))}
    for key, column in columns.items():
        row[f"{key}_mean"], row[f"{key}_se"] = mean_se(column)
    return row


# ---------------------------------------------------------------------------
# Trial engines
# ---------------------------------------------------------------------------


def draw_trials(gm: oracle.GaussianMixture, op: oracle.DegradationOperator,
                n: int, seed: int) -> Trials:
    """Trial i draws y, its degradation, then z from its private stream (seed, i).

    The streams are trial_rng(seed, i), all made by one trial_rngs call.  Each
    holds, in order: one uniform that picks y's component, d normals for y,
    m normals for the measurement noise (only when noise_std > 0), then d
    normals for z.  That is bitwise what
    `gm_sample(gm, 1, rng)`, `degrade(op, y, rng)` and `rng.standard_normal(d)`
    draw in turn, so each stream is read in two calls and everything after
    runs over all trials at once.  The products with the operator's matrix
    and lift are taken row by row, as `degrade` takes them: one matmul over
    the batch sums in another order.
    """
    d, m = gm.dim, op.measurement_dim
    uniforms = np.empty(n)
    normals = np.empty((n, 2 * d + (m if op.noise_std > 0 else 0)))
    for i, rng in enumerate(trial_rngs(seed, 0, n)):
        uniforms[i] = rng.random()
        rng.standard_normal(out=normals[i])
    fine = oracle.gm_place(gm, uniforms, normals[:, :d])
    measurement = _rowwise(fine, op.matrix)
    if op.noise_std > 0:
        measurement += op.noise_std * normals[:, d:d + m]
    return Trials(fine, _rowwise(measurement, op.lift_matrix), measurement,
                  np.ascontiguousarray(normals[:, -d:]))


def _rowwise(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each row times matrix.T as its own product, bitwise `row @ matrix.T`."""
    return np.matmul(rows[:, None, :], matrix.T)[:, 0]


def posterior_mse(gm: oracle.GaussianMixture, op: oracle.DegradationOperator,
                  trials: Trials) -> np.ndarray | None:
    """Per-trial squared error of the conjugate posterior mean; None if noiseless.

    The means of all trials come from one `oracle.posterior_mean` call, which
    factors each component once for the whole batch of measurements.
    """
    if op.noise_std == 0:
        return None
    return np.mean((oracle.posterior_mean(gm, op, trials.measurement) - trials.fine) ** 2,
                   axis=1)


def _metrics(gm: oracle.GaussianMixture, trials: Trials,
             endpoints: np.ndarray) -> dict[str, np.ndarray]:
    """Each metric's per-trial column; squared errors are per-coordinate means, and a
    mean over axis 1 sums each row as np.mean of the row does."""
    return {"mse_to_y": np.mean((endpoints - trials.fine) ** 2, axis=1),
            "mse_to_coarse": np.mean((endpoints - trials.coarse) ** 2, axis=1),
            "loglik_p0": oracle.gm_logpdf(gm, endpoints)}


def restore_trials(gm: oracle.GaussianMixture, schedule: NoiseSchedule,
                   scfg: SamplerConfig, trials: Trials, weights: WeightSchedule | None,
                   exponent_map: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """One restoration arm from starts z; weights=None runs the unguided reference.

    All trials integrate as a single batch: the guided drift broadcasts over a
    matrix of per-trial coarse references.
    """
    model = mixture_score_model(gm, schedule)
    if weights is None:
        drift = unguided_drift(model, schedule)
    else:
        spec = GuidanceSpec(coarse=trials.coarse, weights=weights, exponent_map=exponent_map)
        drift = guided_score_drift(model, spec, schedule)
    return _metrics(gm, trials, sample_ode(drift, scfg, x_start=trials.z).endpoint)


def sdedit_trials(gm: oracle.GaussianMixture, schedule: NoiseSchedule,
                  scfg: SamplerConfig, trials: Trials,
                  t0: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Start-guided baseline arm: start at alpha(t0) y~ + sigma(t0) z, sample unguided."""
    starts, _ = sdedit_start(trials.coarse, t0, schedule, trials.z)
    drift = unguided_drift(mixture_score_model(gm, schedule), schedule)
    endpoints = sample_ode(drift, replace(scfg, start=t0), x_start=starts).endpoint
    return _metrics(gm, trials, endpoints), endpoints


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _setup(cfg: ExperimentConfig):
    """The run's built objects, with its trials drawn once for every arm."""
    gm, op, schedule, scfg = cfg.built
    trials = draw_trials(gm, op, cfg.experiment["trials"], cfg.experiment["seed"])
    return gm, op, schedule, scfg, trials


def _exponent_map_from_config(cfg: ExperimentConfig, op: oracle.DegradationOperator):
    g = cfg.guidance
    if g["valid_exponent"] is None and g["invalid_exponent"] is None:
        return None
    if g["family"] == CONSTANT:
        key = "valid_exponent" if g["valid_exponent"] is not None else "invalid_exponent"
        raise ConfigError(f"guidance.{key} needs a power-family guidance.family, "
                          f"got {CONSTANT!r}")
    valid_e = g["valid_exponent"] if g["valid_exponent"] is not None else g["exponent"]
    invalid_e = g["invalid_exponent"] if g["invalid_exponent"] is not None else g["exponent"]
    return region_exponents(op.valid, valid_e, invalid_e)


def _sweep(cfg: ExperimentConfig, kind: str, arms, setup=None, posterior: bool = True,
           **fields) -> RunRecord:
    """Run arms (name, series, x, run) on the run's shared trials into one record.

    `run(gm, schedule, scfg, trials)` returns an arm's metric columns.  With
    `posterior`, every arm also carries the trials' posterior-mean errors: a
    property of the trials, so the column is computed once for every arm.
    """
    gm, op, schedule, scfg, trials = setup or _setup(cfg)
    post = posterior_mse(gm, op, trials) if posterior else None
    per_trial = {}
    aggregates = []
    for name, series, x, run in arms:
        columns = run(gm, schedule, scfg, trials)
        if post is not None:
            columns["posterior_mse"] = post
        per_trial[name] = {key: column.tolist() for key, column in columns.items()}
        aggregates.append(aggregate_row(columns, series, x))
    return RunRecord.of(cfg, kind, per_trial, aggregates, **fields)


def _restoration(weights: WeightSchedule | None, exponent_map: np.ndarray | None = None):
    """A restoration arm's run: guided by weights, or unguided when weights is None."""
    return lambda *setup: restore_trials(*setup, weights, exponent_map)


def _start_guided(t0: float):
    """A start-guided baseline arm's run, noising the coarse reference to t0."""
    return lambda *setup: sdedit_trials(*setup, t0)[0]


def run_restore(cfg: ExperimentConfig) -> RunRecord:
    """Guided restoration with an unguided arm and the posterior-mean reference."""
    exponent_map = _exponent_map_from_config(cfg, cfg.built[1])  # checked before any draw
    setup = _setup(cfg)
    _, _, schedule, scfg, trials = setup
    x = cfg.guidance["exponent"]
    # surrogate-error magnitude (alpha/sigma^2) ||y~ - y|| of every trial on a time grid
    times = np.linspace(scfg.start, scfg.end, ERROR_CURVE_POINTS)
    curves = approximation_error(times, trials.fine[:, None], trials.coarse[:, None], schedule)
    return _sweep(cfg, "restore", [
        ("guided", "guided", x,
         _restoration(build_weights(cfg), exponent_map)),
        ("unguided", "unguided", x, _restoration(None)),
    ], setup, extras={"error_curve_times": times.tolist(),
                      "guided_error_curves_mean": curves.mean(axis=0).tolist()})


def run_ablate_exponent(cfg: ExperimentConfig) -> RunRecord:
    """One guided arm per exponent in experiment.exponents, with common random numbers."""
    return _sweep(cfg, "ablate_exponent", [
        (f"a={a:g}", cfg.guidance["family"], float(a), _restoration(build_weights(cfg, exponent=a)))
        for a in cfg.experiment["exponents"]])


def run_ablate_weight_family(cfg: ExperimentConfig) -> RunRecord:
    """One arm per (weight family, exponent): sigma^a and t^a for a in {3, 5, 7}."""
    return _sweep(cfg, "ablate_weight_family", [
        (f"{family}:a={a:g}", family, a,
         _restoration(WeightSchedule(family, exponent=a, constant=cfg.guidance["constant"])))
        for family in (POWER_OF_SIGMA, POWER_OF_TIME) for a in (3.0, 5.0, 7.0)])


def run_baseline_sdedit(cfg: ExperimentConfig) -> RunRecord:
    """Start-guided baseline swept over the noising times experiment.t0_fractions.

    Every time must lie in (sampler.end, schedule.t_max]; it is checked here,
    before any arm runs, since no other command reads it.
    """
    _, _, schedule, scfg = cfg.built
    for i, t0 in enumerate(cfg.experiment["t0_fractions"]):
        if not scfg.end < t0 <= schedule.t_max:
            raise ConfigError(f"experiment.t0_fractions[{i}] must lie in (sampler.end, "
                              f"schedule.t_max] = ({scfg.end!r}, {schedule.t_max!r}], "
                              f"got {t0!r}")
    return _sweep(cfg, "baseline_sdedit", [
        (f"t0={t0:g}", "sdedit", float(t0), _start_guided(float(t0)))
        for t0 in cfg.experiment["t0_fractions"]], posterior=False)


def run_sample_unguided(cfg: ExperimentConfig) -> RunRecord:
    """Unguided endpoint draws from the oracle density, with moment diagnostics."""
    gm, _, schedule, scfg = cfg.built
    trials = cfg.experiment["trials"]
    drift = unguided_drift(mixture_score_model(gm, schedule), schedule)
    paths = ode_ensemble(drift, scfg, trials)
    endpoints = np.stack([p.endpoint for p in paths])
    loglik = oracle.gm_logpdf(gm, endpoints)
    agg = aggregate_row({"loglik_p0": loglik}, "unguided", 0.0)
    agg["moment_distances"] = {
        "mean_gap": float(np.linalg.norm(endpoints.mean(axis=0) - gm.mean())),
        # a sample covariance needs two endpoints; with one it is undefined (null)
        "cov_gap": float(np.linalg.norm(np.cov(endpoints.T) - gm.covariance()))
        if trials > 1 else math.nan,
    }
    return RunRecord.of(cfg, "sample_unguided", {"unguided": {"loglik_p0": loglik.tolist()}},
                        [agg], extras={"endpoints": endpoints.tolist()})


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def emit_report(record: RunRecord, fmt: str, out_dir):
    """Write the aggregate table as CSV, or per-metric SVG line charts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        if record.checks and not record.aggregates:
            rows = [[c[key] for key in CHECK_KEYS] for c in record.checks]
            return report.write_csv(out_dir / "metrics.csv", list(CHECK_KEYS), rows)
        skip = {*AGGREGATE_KEYS, "moment_distances"}
        keys = sorted({k for row in record.aggregates for k in row if k not in skip})
        rows = [[*(row[k] for k in AGGREGATE_KEYS), *(row.get(k, "") for k in keys)]
                for row in record.aggregates]
        return report.write_csv(out_dir / "metrics.csv", [*AGGREGATE_KEYS, *keys], rows)
    if fmt == "svg":
        paths = []
        for metric in ("mse_to_y", "mse_to_coarse", "loglik_p0"):
            col = f"{metric}_mean"
            rows = [row for row in record.aggregates if col in row]
            # a metric that was not finite on some arm (null in record.json) gets no chart
            if any(row[col] is None or not math.isfinite(row[col]) for row in rows):
                continue
            by_series: dict[str, tuple[list, list]] = {}
            for row in rows:
                xs, ys = by_series.setdefault(row["series"], ([], []))
                xs.append(row["x"])
                ys.append(row[col])
            if not by_series or all(len(xs) < 2 for xs, _ in by_series.values()):
                continue
            xs0 = next(iter(by_series.values()))[0]
            path = report.svg_line_chart(
                out_dir / f"{metric}.svg", xs0,
                {name: ys for name, (xs, ys) in by_series.items()},
                xlabel="configuration", ylabel=metric,
                title=f"{record.kind}: {metric}")
            paths.append(path)
        return paths
    raise ValueError(f"unknown report format {fmt!r}")
