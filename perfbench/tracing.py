"""Spans around the public htx functions, installed from outside the package.

`Tracer.install` replaces each function listed in LAYERS with a wrapper that
records a span (name, start, end, parent, run id) in memory.  A module-level
function is replaced in every htx module that bound it (`from .x import f`
copies the binding), a method on its class.  `uninstall` puts the originals
back.  COUNTED functions only count calls, so their time stays with the
caller: a mixture built by `gm_pushforward` is pushforward time, one built by
the posterior is posterior time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# layer -> (module, attribute path) of every function whose spans it owns
LAYERS = {
    "schedules.coef": [("htx.schedules", f"NoiseSchedule.{m}") for m in (
        "alpha_sigma", "log_alpha_dot", "sigma_dot", "drift_f", "diffusion_g2")],
    "oracle.score": [("htx.oracle", "gm_score")],
    "oracle.pushforward": [("htx.oracle", "gm_pushforward")],
    "oracle.exact_h": [("htx.oracle", "exact_h")],
    "oracle.logpdf": [("htx.oracle", "gm_logpdf")],
    "oracle.draw": [("htx.oracle", "gm_sample"), ("htx.oracle", "degrade")],
    "oracle.posterior": [("htx.oracle", "linear_gaussian_posterior")],
    "guidance.drift": [("htx.guidance", "GuidedDrift.__call__")],
    "solvers.step": [("htx.solvers", f) for f in ("sample_ode", "sde_ensemble", "ode_ensemble")],
    "solvers.trial_rng": [("htx.solvers", "trial_rng")],
    "scorenet.forward": [("htx.scorenet", "MlpNet.forward")],
    "scorenet.loss_grad": [("htx.scorenet", "dsm_loss_grad"), ("htx.scorenet", "dsm_loss_grad_at")],
    "scorenet.adam": [("htx.scorenet", "train")],
    "experiments.restore": [("htx.experiments", "run_restore"),
                            ("htx.experiments", "restore_trials")],
    "experiments.save": [("htx.experiments", "RunRecord.save"),
                         ("htx.experiments", "emit_report"),
                         ("htx.report", "write_csv"), ("htx.report", "svg_line_chart")],
    "config.build": [("htx.config", "ExperimentConfig.from_dict"),
                     ("htx.config", "ExperimentConfig.from_json")]
                    + [("htx.config", f"build_{part}") for part in (
                        "schedule", "density", "operator", "weights", "sampler")],
    "cli": [("htx.cli", "main")],
}

COUNTED = {"oracle.mixture_builds": ("htx.oracle", "GaussianMixture.__post_init__")}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()  # (run id, name) -> calls
        self.run = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self.run, name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module_name, path, name, make):
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__, name))
            else:
                new = make(raw, name)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(module, path)
        new = make(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "htx" and not mod_name.startswith("htx."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, new)

    def install(self):
        try:
            for layer, targets in LAYERS.items():
                for module_name, path in targets:
                    self._patch(module_name, path, f"{module_name}.{path}", self._span)
            for name, (module_name, path) in COUNTED.items():
                self._patch(module_name, path, name, self._count)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path, origin: float):
        """Write one JSON list per span: [name, start, end, parent, run id],
        times in seconds from `origin`, parent as a line index (-1: none)."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9),
                                     round(end - origin, 9), parent, run]) + "\n")


SPAN_LAYER = {f"{module}.{path}": layer
              for layer, targets in LAYERS.items() for module, path in targets}


def layer_totals(spans, runs=None):
    """Per layer: self seconds, inclusive seconds and calls, over spans whose
    run id is in `runs` (all spans when None).

    A span's self time is its duration minus the durations of its direct
    children, so nested calls are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {layer: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0} for layer in LAYERS}
    for (name, start, end, parent, run), inner in zip(spans, child):
        if runs is not None and run not in runs:
            continue
        entry = totals[SPAN_LAYER[name]]
        entry["self_s"] += (end - start) - inner
        entry["inclusive_s"] += end - start
        entry["calls"] += 1
    return totals
