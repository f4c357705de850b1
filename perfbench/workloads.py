"""The four benchmark workloads, each checked against a closed-form reference.

A workload is built from a seed in its constructor (the set-up that `setup_s`
times: config, mixture, operator, schedule, model and drifts) and then offers
a fixed list of `cases`.  One operation runs one case through the public htx
API; `check` compares its output with the reference the benchmark computes on
its own, and `ref_err` condenses a whole pass over the cases into one number.

Inputs are drawn with numpy from the benchmark seed; htx only ever receives
the drawn arrays, never the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from htx import cli, config, guidance, oracle, scorenet, solvers

import speed


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _stream_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _mixture_draws(density: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from the config's isotropic mixture, made without calling htx."""
    means = np.asarray(density["means"], dtype=float)
    comp = rng.choice(len(means), size=n, p=np.asarray(density["weights"], dtype=float))
    return means[comp] + np.sqrt(density["variance"]) * rng.standard_normal((n, means.shape[1]))


def _vp_alpha_sigma(schedule: dict, t):
    """Closed-form vp pair, written out here so the reference does not use htx."""
    span = schedule["beta_max"] - schedule["beta_min"]
    a = np.exp(-0.25 * t * t * span - 0.5 * t * schedule["beta_min"])
    return a, np.sqrt(1.0 - a * a)


def _fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _transport_split(y, z, x, a, s) -> float:
    """Euler error of the exact-h flow, per unit of target and per unit of noise.

    The exact flow carries a start alpha_1 y + sigma_1 z to x* = a y + s z at a
    later time.  Its Euler error is linear in (y, z), so a least-squares fit of
    x - x* = c_y (a y) + c_z (s z) over many trajectories recovers two
    coefficients that depend on the time grid, not on the random draws;
    |c_y| + |c_z| is the relative error reported as `ref_err`.
    """
    y = np.broadcast_to(y, z.shape)
    err = (x - (a * y + s * z)).ravel()
    design = np.stack([(a * y).ravel(), (s * z).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(design, err, rcond=None)
    return float(np.abs(coef).sum())


def _exact_h(gm, schedule, y):
    """The exact correction toward endpoint y, as the h(x, t) closure drifts take."""
    def h(x, t):
        return oracle.exact_h(x, y, gm, schedule, t)
    return h


class BridgeExact:
    """One 2-d exact-h trajectory per operation (n = 1): per-call overhead."""

    name = "bridge-exact"
    steps = 250
    cases_per_pass = 16
    trials_per_op = 1
    steps_per_op = steps
    work_per_op = steps
    noise_bytes = 0
    reference = speed.SolveKernel(2, 1, 600, nominal_s=0.017)
    tolerance = 0.01  # endpoint error, relative to the target's scale

    def __init__(self, seed: int, workdir: Path):
        cfg = config.ExperimentConfig.from_dict({"sampler": {"steps": self.steps}})
        self.sched = cfg.schedule
        self.schedule = config.build_schedule(cfg)
        self.gm = config.build_density(cfg)
        self.model = scorenet.mixture_score_model(self.gm, self.schedule)
        self.sampler = config.build_sampler(cfg, self.schedule)
        rng = _rng(seed, self.name)
        self.targets = _mixture_draws(cfg.density, self.cases_per_pass, rng)
        self.starts = rng.standard_normal(self.targets.shape)
        self.drifts = [guidance.h_guided_drift(self.model, _exact_h(self.gm, self.schedule, y),
                                               self.schedule) for y in self.targets]
        self.cases = list(range(self.cases_per_pass))

    def run(self, i):
        return solvers.sample_ode(self.drifts[i], self.sampler, x_start=self.starts[i]).endpoint

    def _noise(self, i):
        a1, s1 = _vp_alpha_sigma(self.sched, self.sampler.start)
        return (self.starts[i] - a1 * self.targets[i]) / s1

    def check(self, i, out):
        a, s = _vp_alpha_sigma(self.sched, self.sampler.end)
        y, z = self.targets[i], self._noise(i)
        err = float(np.linalg.norm(out - (a * y + s * z)))
        scale = a * np.linalg.norm(y) + s * np.linalg.norm(z)
        return bool(np.isfinite(err) and err <= self.tolerance * scale), f"endpoint error {err:.3g}"

    def fingerprint(self, out):
        return _fingerprint(out)

    def ref_err(self, outs):
        a, s = _vp_alpha_sigma(self.sched, self.sampler.end)
        z = np.stack([self._noise(i) for i in self.cases])
        return _transport_split(self.targets, z, np.stack(outs), a, s)


class EnsembleSde:
    """Exact-h reverse ODE and SDE ensembles of 2000 trajectories: arithmetic.

    One operation is one ensemble, so the two are timed apart; case (i, "ode")
    always runs right before (i, "sde"), whose check compares the two.
    """

    name = "ensemble-sde"
    n = 2000
    steps = 750
    start, end, record_every = 1.0, 0.25, 250
    targets_per_pass = 2
    trials_per_op = n
    steps_per_op = steps
    work_per_op = steps * n
    noise_bytes = steps * n * 2 * 8  # the SDE's pre-drawn block, float64, d = 2
    reference = speed.SolveKernel(2, n, 800, nominal_s=0.065)
    tolerance = 0.01    # ODE transport error, relative to the target's scale
    max_sigma_dev = 5.0  # SDE vs ODE marginal moments, in standard errors

    def __init__(self, seed: int, workdir: Path):
        cfg = config.ExperimentConfig.from_dict({"sampler": {
            "steps": self.steps, "start": self.start, "end": self.end,
            "record_every": self.record_every}})
        self.sched = cfg.schedule
        self.schedule = config.build_schedule(cfg)
        self.gm = config.build_density(cfg)
        self.model = scorenet.mixture_score_model(self.gm, self.schedule)
        self.ode_cfg = config.build_sampler(cfg, self.schedule)
        self.sde_cfg = config.build_sampler(cfg, self.schedule, solver=solvers.EULER_MARUYAMA)
        rng = _rng(seed, self.name)
        self.targets = _mixture_draws(cfg.density, self.targets_per_pass, rng)
        self.seeds = [_stream_seed(rng) for _ in range(self.targets_per_pass)]
        self.h = [_exact_h(self.gm, self.schedule, y) for y in self.targets]
        self.drifts = [guidance.h_guided_drift(self.model, h, self.schedule) for h in self.h]
        self.cases = [(i, kind) for i in range(self.targets_per_pass) for kind in ("ode", "sde")]
        self.last_ode = {}

    def _start_fn(self, y):
        a1, s1 = _vp_alpha_sigma(self.sched, self.start)

        def start_fn(stream):
            return a1 * y + s1 * stream.standard_normal(2)
        return start_fn

    def run(self, case):
        # both ensembles of a target use the same stream seed, so trajectory j
        # starts at the same point in each
        i, kind = case
        start_fn = self._start_fn(self.targets[i])
        if kind == "ode":
            cfg = dataclasses.replace(self.ode_cfg, seed=self.seeds[i])
            paths = solvers.ode_ensemble(self.drifts[i], cfg, self.n, start_fn=start_fn)
        else:
            cfg = dataclasses.replace(self.sde_cfg, seed=self.seeds[i])
            paths = solvers.sde_ensemble(self.model, self.h[i], self.schedule, cfg, self.n,
                                         start_fn=start_fn)
        out = paths[0].times, np.stack([p.states for p in paths])
        if kind == "ode":
            self.last_ode[i] = out[1]
        return out

    def _transport(self, i, times, ode):
        """(y, z, a, s) per recorded time after the start, for the exact flow."""
        a1, s1 = _vp_alpha_sigma(self.sched, self.start)
        y = self.targets[i]
        z = (ode[:, 0, :] - a1 * y) / s1
        for k in range(1, len(times)):
            a, s = _vp_alpha_sigma(self.sched, times[k])
            yield k, y, z, a, s

    def check(self, case, out):
        (i, kind), (times, states) = case, out
        expected = np.linspace(self.start, self.end, self.steps // self.record_every + 1)
        if times.shape != expected.shape or not np.allclose(times, expected, atol=1e-9):
            return False, f"recorded times {times}"
        if not np.all(np.isfinite(states)):
            return False, "non-finite state"
        if kind == "sde":
            ode = self.last_ode.get(i)
            if ode is None:
                return False, "no ODE ensemble of this target to compare with"
            worst = max(_moment_deviation(ode[:, k, :], states[:, k, :])
                        for k in range(1, len(times)))
            return worst < self.max_sigma_dev, f"SDE-ODE deviation {worst:.2f} sigma"
        worst = 0.0
        for k, y, z, a, s in self._transport(i, times, states):
            err = np.linalg.norm(states[:, k, :] - (a * y + s * z), axis=1)
            scale = a * np.linalg.norm(y) + s * np.linalg.norm(z, axis=1)
            worst = max(worst, float(np.max(err / scale)))
        return worst <= self.tolerance, f"ODE transport error {worst:.3g}"

    def fingerprint(self, out):
        return _fingerprint(*out)

    def ref_err(self, outs):
        splits = [_transport_split(y, z, ode[:, k, :], a, s)
                  for (i, kind), (times, ode) in zip(self.cases, outs) if kind == "ode"
                  for k, y, z, a, s in self._transport(i, times, ode)]
        return float(np.mean(splits))


def _moment_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Worst per-coordinate gap in mean and variance, in standard errors."""
    n = a.shape[0]
    var_a, var_b = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    mean_dev = np.abs(a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(var_a / n + var_b / n)
    var_dev = np.abs(var_a - var_b) / np.sqrt(2.0 * (var_a ** 2 + var_b ** 2) / (n - 1))
    return float(max(mean_dev.max(), var_dev.max()))


class RestoreField:
    """`htx restore` through cli.main on the 16-cell blurred RBF field."""

    name = "restore-field"
    trials = 200
    steps = 1000
    cases_per_pass = 5
    trials_per_op = trials
    steps_per_op = 2 * steps  # guided and unguided arm
    work_per_op = 2 * steps * trials
    noise_bytes = 0
    reference = speed.SolveKernel(16, trials, 1200, nominal_s=0.085)
    document = {
        "experiment": {"kind": "restore", "trials": trials},
        "density": {"kind": "gaussian_field", "cells": 16, "length_scale": 3.0},
        "operator": {"kind": "blur", "kernel_std": 2.0, "noise_std": 0.25},
        "sampler": {"steps": steps},
    }

    def __init__(self, seed: int, workdir: Path):
        self.out = Path(workdir)
        self.config_path = self.out / "restore.json"
        self.config_path.write_text(json.dumps(self.document))
        # the objects run_restore builds again per call, built once here so
        # that setup_s covers their cost
        cfg = config.ExperimentConfig.from_json(self.config_path)
        schedule = config.build_schedule(cfg)
        gm = config.build_density(cfg)
        config.build_operator(cfg, gm.dim)
        config.build_sampler(cfg, schedule)
        guidance.unguided_drift(scorenet.mixture_score_model(gm, schedule), schedule)
        rng = _rng(seed, self.name)
        self.cases = [_stream_seed(rng) for _ in range(self.cases_per_pass)]

    def run(self, seed):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["restore", "--config", str(self.config_path),
                             "--trials", str(self.trials), "--seed", str(seed),
                             "--out", str(self.out)])
        record = None
        for line in printed.getvalue().splitlines():
            if line.startswith("wrote ") and line.endswith("record.json"):
                record = Path(line[len("wrote "):]).read_bytes()
        return code, record

    @staticmethod
    def _arms(record: bytes):
        guided, unguided = json.loads(record)["aggregates"]
        return guided, unguided

    def check(self, seed, out):
        code, record = out
        if code != 0 or record is None:
            return False, f"exit code {code}, record {'missing' if record is None else 'ok'}"
        guided, unguided = self._arms(record)
        g, u, floor = (guided["mse_to_y_mean"], unguided["mse_to_y_mean"],
                       guided["posterior_mse_mean"])
        ok = floor <= g < u
        return ok, f"guided {g:.4f}, unguided {u:.4f}, mmse floor {floor:.4f}"

    def fingerprint(self, out):
        code, record = out
        return hashlib.sha256(repr(code).encode() + (record or b"")).hexdigest()

    def ref_err(self, outs):
        ratios = []
        for _, record in outs:
            guided, _ = self._arms(record)
            ratios.append(guided["mse_to_y_mean"] / guided["posterior_mse_mean"])
        return float(np.mean(ratios))


class TrainDsm:
    """Adam on the denoising loss of the 2-d MLP; no oracle, guidance or solver."""

    name = "train-dsm"
    steps = 1500
    batch = 256
    data_size = 8192
    cases_per_pass = 16
    trials_per_op = 0
    steps_per_op = steps
    work_per_op = steps
    noise_bytes = 0
    reference = speed.TrainStepKernel(100, nominal_s=0.065)
    max_rmse = 0.35  # an untrained net scores 1.2 to 2
    eval_times = np.linspace(0.1, 0.9, 9)

    def __init__(self, seed: int, workdir: Path):
        # the evaluation window [0.1, 0.9] is also the training window
        cfg = config.ExperimentConfig.from_dict({"schedule": {"t_min": 0.1}})
        self.schedule = config.build_schedule(cfg)
        rng = _rng(seed, self.name)
        self.data = [rng.standard_normal((self.data_size, 2))
                     for _ in range(self.cases_per_pass)]
        seeds = [_stream_seed(rng) for _ in range(self.cases_per_pass)]
        self.nets = [scorenet.MlpNet.init(2, rng=np.random.default_rng(s)) for s in seeds]
        self.train_cfgs = [scorenet.TrainConfig(steps=self.steps, batch=self.batch, seed=s)
                           for s in seeds]
        axis = np.linspace(-2.0, 2.0, 7)
        self.grid = np.array([[u, v] for u in axis for v in axis])
        self.cases = list(range(self.cases_per_pass))

    def run(self, i):
        trained, curve = scorenet.train(self.nets[i], self.data[i], self.train_cfgs[i],
                                        self.schedule)
        model = scorenet.net_score_model(trained, self.schedule)
        scores = np.stack([model.score(self.grid, t) for t in self.eval_times])
        return curve, scores

    def _rmse(self, scores) -> float:
        return float(np.sqrt(np.mean((scores + self.grid) ** 2)))  # exact score is -x

    def check(self, i, out):
        curve, scores = out
        rmse = self._rmse(scores)
        ok = bool(np.all(np.isfinite(curve))) and rmse < self.max_rmse
        return ok, f"score rmse {rmse:.4f}"

    def fingerprint(self, out):
        return _fingerprint(*out)

    def ref_err(self, outs):
        return float(np.mean([self._rmse(scores) for _, scores in outs]))


WORKLOADS = {cls.name: cls for cls in (BridgeExact, EnsembleSde, RestoreField, TrainDsm)}
