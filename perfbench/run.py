"""Benchmark for htx: four seeded workloads, each operation checked against a
closed-form reference.

    python3 perfbench/run.py --workload bridge-exact --seed 0 --seconds 20 --trace 0

With --trace 0 it times the workload untraced and reports the end-to-end
metrics.  With --trace 1 it runs the fixed case set four times, untraced and
with spans around every public htx layer in turn, checks that the traced
outputs are bitwise equal to the untraced ones and that both traced passes
count the same calls, and reports the per-layer metrics; its length is set
by the case set, not by --seconds.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# BLAS pinned to one thread before numpy loads, here and in every probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 0
HOLDOUT_SEED = 7919  # not used while writing the benchmark; re-check claims on it
SETUP_PROBES = 5

END_TO_END_UNITS = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ref_err": "ratio"}


def load_program():
    """Import htx from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import htx
    if Path(htx.__file__).resolve().parent != src / "htx":
        raise ImportError(f"htx imported from {htx.__file__}, not from {src}")
    import speed
    import tracing
    import workloads
    return htx, speed, tracing, workloads


def steal_ticks():
    """Machine-wide CPU steal ticks from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def environment(htx, seed):
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "htx").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "htx": htx.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(workload, seed, workdir, kernel):
    """Seconds from launching a fresh interpreter to a built workload, raw and
    divided by the machine's speed factor around each launch."""
    samples, normalised = [], []
    before = kernel()
    for k in range(SETUP_PROBES):
        probe_dir = Path(tempfile.mkdtemp(dir=workdir))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                                 workload, str(seed), str(probe_dir)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
        after = kernel()
        samples.append(ready - start)
        normalised.append(samples[-1] * 2 * kernel.nominal_s / (before + after))
        before = after
    return samples, normalised


class Pass:
    """Runs a workload's cases, timing and checking each operation."""

    def __init__(self, workload, reference=None, check=True, on_case=None, kernel=None):
        self.workload = workload
        self.reference = reference  # case -> fingerprint the output must reproduce
        self.check = check
        self.on_case = on_case
        self.kernel = kernel  # speed reference timed around every operation
        self.kernel_seconds = [kernel()] if kernel else []
        self.speed: list[float] = []  # per operation: kernel seconds / nominal
        self.seconds: list[float] = []
        self.fingerprints: dict[int, str] = {}
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def run_case(self, k, keep=False):
        wl = self.workload
        self.attempted += 1
        if self.on_case:
            self.on_case(k)
        start = time.perf_counter()
        try:
            out = wl.run(wl.cases[k])
        except Exception:
            self.failed += 1
            print(f"FAIL {wl.name} case {k}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        if self.kernel:
            self.kernel_seconds.append(self.kernel())
            around = (self.kernel_seconds[-2] + self.kernel_seconds[-1]) / 2
            self.speed.append(around / self.kernel.nominal_s)
        if self.check:
            try:
                ok, detail = wl.check(wl.cases[k], out)
            except Exception as exc:  # a malformed output is a failed operation
                ok, detail = False, f"check raised {exc!r}"
            if not ok:
                self.failed += 1
                print(f"FAIL {wl.name} case {k}: {detail}", file=sys.stderr)
                if self.kernel:
                    self.speed.pop()
                return
        fingerprint = wl.fingerprint(out)
        if self.reference is not None and fingerprint != self.reference.get(k):
            self.mismatched += 1
            print(f"FAIL {wl.name} case {k}: output differs from the first pass",
                  file=sys.stderr)
        self.seconds.append(elapsed)
        self.fingerprints[k] = fingerprint
        if keep:
            self.outputs.append(out)

    def run_all(self, keep=False):
        for k in range(len(self.workload.cases)):
            self.run_case(k, keep)
        return self


def rate(workload, seconds, factors=None):
    """Median work per second; with `factors`, each operation's time is divided
    by the machine's speed factor around it (see speed.py)."""
    factors = factors or [1.0] * len(seconds)
    return statistics.median(workload.work_per_op * f / s for s, f in zip(seconds, factors))


def tail_note(seconds):
    """The highest percentile of op time with at least ten ops beyond it."""
    n = len(seconds)
    if n < 20:
        return f"median of {n} ops"
    pct = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(seconds, n=100)[pct - 1]
    return f"median of {n} ops; p{pct} op time {cut:.4g} s"


def run_timed(wl, seconds):
    """One full pass (kept for ref_err), then repeats, each of which must
    reproduce the first pass bit for bit, until `seconds` are up."""
    cpu0, wall0, steal0 = time.process_time(), time.perf_counter(), steal_ticks()
    timed = Pass(wl, kernel=wl.reference).run_all(keep=True)
    first_pass_ok = timed.failed == 0
    timed.reference = dict(timed.fingerprints)
    k, last = 0, 0.0
    # stop where the next operation would end closer to `seconds` than not
    while time.perf_counter() - wall0 + last / 2 < seconds:
        start = time.perf_counter()
        timed.run_case(k % len(wl.cases))
        last = time.perf_counter() - start
        k += 1
    wall = time.perf_counter() - wall0
    steal1 = steal_ticks()
    run_env = {"cpu_to_wall": (time.process_time() - cpu0) / wall,
               "steal_ticks": None if steal0 is None else steal1 - steal0,
               "measured_s": wall}
    return timed, first_pass_ok, run_env


def end_to_end(args, wl_cls, speed):
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        setup, setup_normalised = measure_setup(args.workload, args.seed, workdir,
                                                speed.SETUP)
        wl = wl_cls(args.seed, workdir)
        timed, first_pass_ok, run_env = run_timed(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seconds, factors = timed.seconds, timed.speed
    correct = timed.failed == 0 and timed.mismatched == 0
    metrics, notes = {}, {}
    if seconds:
        metrics["steps_per_s"] = rate(wl, seconds, factors)
        notes["steps_per_s"] = "speed-normalised, " + tail_note(
            [s / f for s, f in zip(seconds, factors)])
    metrics["setup_s"] = statistics.median(setup_normalised)
    notes["setup_s"] = f"speed-normalised, median of {len(setup)} fresh interpreters"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "getrusage maxrss of this process"
    if first_pass_ok:
        metrics["ref_err"] = wl.ref_err(timed.outputs)
        notes["ref_err"] = f"over the {len(wl.cases)} cases of the first pass"
    extra = {"fail_frac": timed.failed / timed.attempted,
             "repeat_mismatches": timed.mismatched,
             "raw_steps_per_s": rate(wl, seconds) if seconds else None,
             "raw_setup_s": statistics.median(setup),
             "reference_kernel_s": statistics.median(timed.kernel_seconds),
             "reference_nominal_s": wl.reference.nominal_s, **run_env}
    return correct, timed.attempted, timed.failed, metrics, notes, extra


def per_layer(args, wl_cls, tracing):
    """Untraced and traced passes, alternating; set-up is inside the trace."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    kernel = wl_cls.reference
    try:
        base = Pass(wl_cls(args.seed, workdir), kernel=kernel).run_all()
        untraced, traced = [base], []
        for p in (1, 2):
            if p == 2:
                untraced.append(Pass(wl_cls(args.seed, workdir), reference=base.fingerprints,
                                     kernel=kernel).run_all())
            tracer.run = f"p{p}:setup"
            tracer.install()
            try:
                wl = wl_cls(args.seed, workdir)

                def label(k, p=p):
                    tracer.run = f"p{p}:{k}"
                traced.append(Pass(wl, reference=base.fingerprints, check=False,
                                   on_case=label, kernel=kernel).run_all())
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path, origin)

    runs = untraced + traced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    same_outputs = all(r.mismatched == 0 for r in runs)
    same_counts = pass_counts(tracer, 1) == pass_counts(tracer, 2)
    correct = failed == 0 and same_outputs and same_counts
    metrics = layer_metrics(tracer, tracing, wl_cls, len(base.workload.cases))

    def pooled_rate(passes):
        seconds = [s for r in passes for s in r.seconds]
        return rate(wl_cls, seconds, [f for r in passes for f in r.speed]) if seconds else 0.0
    untraced_rate, traced_rate = pooled_rate(untraced), pooled_rate(traced)
    metrics["trace.steps_per_s"] = traced_rate
    metrics["trace.overhead_steps_per_s"] = traced_rate - untraced_rate
    extra = {"traced_outputs_bitwise_equal": same_outputs,
             "traced_counts_equal": same_counts,
             "untraced_steps_per_s": untraced_rate,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return correct, attempted, failed, metrics, extra


def pass_counts(tracer, p):
    """Exact call counts of traced pass p, per (case, function)."""
    prefix = f"p{p}:"
    spans = Counter((run[len(prefix):], name) for name, _, _, _, run in tracer.spans
                    if run.startswith(prefix))
    counted = {(run[len(prefix):], name): n for (run, name), n in tracer.counts.items()
               if run.startswith(prefix)}
    return spans, counted


PER_LAYER_UNITS = {
    "schedules.coef.self_s": "s", "schedules.coef.calls_per_step": "count",
    "oracle.score.self_s": "s", "oracle.score.calls_per_step": "count",
    "oracle.pushforward.self_s": "s", "oracle.mixture_builds_per_step": "count",
    "oracle.exact_h.self_s": "s", "oracle.logpdf.self_s": "s", "oracle.draw.self_s": "s",
    "oracle.posterior.self_s": "s", "oracle.posterior.calls_per_trial": "count",
    "guidance.drift.self_s": "s", "guidance.drift.us_per_call": "us",
    "solvers.step.us": "us", "solvers.trial_rng.self_s": "s", "solvers.noise_bytes": "bytes",
    "scorenet.forward.self_s": "s", "scorenet.loss_grad.self_s": "s",
    "scorenet.adam.self_s": "s", "experiments.restore.self_s": "s",
    "experiments.save.self_s": "s", "config.build.self_s": "s", "cli.self_s": "s",
    "trace.steps_per_s": "1/s", "trace.overhead_steps_per_s": "1/s",
}


def layer_metrics(tracer, tracing, wl_cls, n_cases):
    """Per-layer metrics of the two traced passes.

    Self seconds cover a whole pass, set-up included (median of the passes);
    per-step and per-trial figures cover the operations only.
    """
    steps = wl_cls.steps_per_op * n_cases
    trials = wl_cls.trials_per_op * n_cases
    whole, ops = [], []
    for p in (1, 2):
        runs = {f"p{p}:{k}" for k in range(n_cases)}
        ops.append(tracing.layer_totals(tracer.spans, runs))
        whole.append(tracing.layer_totals(tracer.spans, runs | {f"p{p}:setup"}))

    def median(fn, totals):
        return statistics.median(fn(t) for t in totals)

    def per_call_us(t):
        drift = t["guidance.drift"]
        return 1e6 * drift["inclusive_s"] / drift["calls"] if drift["calls"] else 0.0

    calls = ops[0]  # counts are equal in both passes, or the run is not correct
    builds = sum(n for (run, name), n in tracer.counts.items()
                 if run.startswith("p1:") and run != "p1:setup"
                 and name == "oracle.mixture_builds")
    metrics = {f"{layer}.self_s": median(lambda t: t[layer]["self_s"], whole)
               for layer in tracing.LAYERS}
    metrics.update({
        "schedules.coef.calls_per_step": calls["schedules.coef"]["calls"] / steps,
        "oracle.score.calls_per_step": calls["oracle.score"]["calls"] / steps,
        "oracle.mixture_builds_per_step": builds / steps,
        "oracle.posterior.calls_per_trial":
            calls["oracle.posterior"]["calls"] / trials if trials else 0.0,
        "guidance.drift.us_per_call": median(per_call_us, ops),
        "solvers.step.us": 1e6 * median(lambda t: t["solvers.step"]["self_s"], ops) / steps,
        "solvers.noise_bytes": wl_cls.noise_bytes,
    })
    return {name: metrics[name] for name in PER_LAYER_UNITS if name in metrics}


def report(args, correct, attempted, failed, metrics, units, notes, extra, env):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:<14.6g} {units[name]:6s} {notes.get(name, '')}".rstrip())
    print(f"  {'fail_frac':34s} {failed / attempted:<14.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations")
    print(f"{'PASS' if correct else 'FAIL'} {args.workload}")
    print("run " + json.dumps(extra, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        htx, speed, tracing, workloads = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import htx from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(htx, args.seed)
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics, extra = per_layer(args, wl_cls, tracing)
        units, notes = PER_LAYER_UNITS, {}
    else:
        correct, attempted, failed, metrics, notes, extra = end_to_end(args, wl_cls, speed)
        units = END_TO_END_UNITS
        correct = correct and set(metrics) == set(END_TO_END_UNITS)
    report(args, correct, attempted, failed, metrics, units, notes, extra, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
