"""Named verification checks covering the package's mathematical guarantees.

Each check is a standalone function returning a CheckResult; it takes no
parameters, because its seeds and sample sizes are part of its bound.
run_verify executes the whole battery, prints one pass/fail line per check
with the seconds it took, and reports success only if every check passes.
The checks are deterministic: fixed seeds drive every random draw; the
seconds appear only in the printed lines, never in the record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .config import ExperimentConfig
from .errors import DivergenceError
from .experiments import (RunRecord, draw_trials, mean_se, run_ablate_exponent,
                          run_restore, sdedit_trials)
from .guidance import (GuidanceSpec, guided_epsilon_drift, guided_score_drift,
                       guided_velocity_drift, h_guided_drift, unguided_drift)
from .schedules import CONSTANT, NoiseSchedule, WeightSchedule
from .scorenet import (MlpNet, TrainConfig, dsm_loss_grad_at, mixture_score_model,
                       net_score_model, train)
from .solvers import (EULER_MARUYAMA, SamplerConfig, marginal_stats, ode_ensemble,
                      sample_ode, sde_ensemble)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; keep the record JSON-clean
        self.passed = bool(self.passed)
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: value={self.value:.6g} "
                f"threshold={self.threshold:.6g} {self.detail}".rstrip())


def _two_mode_mixture() -> oracle.GaussianMixture:
    means = np.array([[-3.0, 0.0], [3.0, 0.0]])
    covs = np.stack([np.eye(2), np.eye(2)])
    return oracle.GaussianMixture(np.array([0.5, 0.5]), means, covs)


def check_identity_gap() -> CheckResult:
    """|| kernel-score difference || equals (alpha/sigma^2) ||coarse - fine|| exactly.

    Times are drawn away from the amplification regime near t_min, where the
    1/sigma^2 factor would magnify float roundoff past the stated tolerance.
    """
    schedule = NoiseSchedule.vp()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        t = rng.uniform(0.05, schedule.t_max)
        x, y, coarse = rng.normal(scale=2.0, size=(3, 2))
        lhs = np.linalg.norm(oracle.conditional_score(x, coarse, schedule, t)
                             - oracle.conditional_score(x, y, schedule, t))
        a, s = schedule.alpha_sigma(t)
        rhs = a / (s * s) * np.linalg.norm(coarse - y)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("identity_gap", worst < 1e-12, worst, 1e-12)


def check_endpoint_guarantee() -> CheckResult:
    """With the exact correction, every trajectory lands on its target.

    The guarantee is the t -> 0 limit; at the default clamp t_min = 1e-3 the
    endpoint still carries the conditional spread sigma ~ 0.01, which sits on
    the tolerance itself, so this check integrates down to t_min = 1e-4
    (stable at 2000 Euler steps) where the spread is ~ 0.003.
    """
    seed, n = 7, 100
    schedule = NoiseSchedule.vp(t_min=1e-4)
    gm = _two_mode_mixture()
    model = mixture_score_model(gm, schedule)
    trials = draw_trials(gm, oracle.identity_operator(2), n, seed)
    targets = trials.fine

    def h_fn(x, t):
        return oracle.exact_h(x, targets, gm, schedule, t)

    drift = h_guided_drift(model, h_fn, schedule)
    cfg = SamplerConfig(steps=2000, start=schedule.t_max, end=schedule.t_min)
    name = "endpoint_guarantee"
    try:
        traj = sample_ode(drift, cfg, x_start=trials.z)
    except DivergenceError as exc:
        return CheckResult(name, False, math.inf, 1e-2,
                           f"diverged at step {exc.step}")
    rel = (np.linalg.norm(traj.endpoint - targets, axis=1)
           / (1.0 + np.linalg.norm(targets, axis=1)))
    worst = float(rel.max())
    return CheckResult(name, worst < 1e-2, worst, 1e-2,
                       f"over {n} random (start, target) pairs")


def check_lambda_boundaries() -> CheckResult:
    """lambda = 0 reduces to the unguided drift; lambda = 1 pins the endpoint.

    The pinning run integrates to t_min = 1e-4 for the same reason as the
    endpoint-guarantee check: the conditional spread at 1e-3 equals the
    tolerance itself.
    """
    n_points = 1000
    schedule = NoiseSchedule.vp(t_min=1e-4)
    gm = _two_mode_mixture()
    model = mixture_score_model(gm, schedule)
    rng = np.random.default_rng(5)
    coarse = oracle.gm_sample(gm, 1, rng)[0]

    spec0 = GuidanceSpec(coarse=coarse, weights=WeightSchedule(CONSTANT, constant=0.0))
    drift0 = guided_score_drift(model, spec0, schedule)
    plain = unguided_drift(model, schedule)
    xs = rng.normal(scale=2.0, size=(n_points, 2))
    ts = rng.uniform(schedule.t_min, schedule.t_max, size=n_points)
    worst0 = 0.0
    for i in range(n_points):
        worst0 = max(worst0, float(np.max(np.abs(drift0(xs[i], ts[i])
                                                 - plain(xs[i], ts[i])))))

    spec1 = GuidanceSpec(coarse=coarse, weights=WeightSchedule(CONSTANT, constant=1.0))
    drift1 = guided_score_drift(model, spec1, schedule)
    starts = rng.standard_normal((20, 2))
    cfg = SamplerConfig(steps=2000, start=schedule.t_max, end=schedule.t_min)
    traj = sample_ode(drift1, cfg, x_start=starts)
    rel = (np.linalg.norm(traj.endpoint - coarse, axis=1)
           / (1.0 + np.linalg.norm(coarse)))
    worst1 = float(rel.max())

    passed = worst0 <= 1e-15 and worst1 < 1e-2
    return CheckResult("lambda_boundaries", passed, max(worst0, worst1), 1e-2,
                       f"lambda0 gap {worst0:.3g} (<=1e-15), "
                       f"lambda1 endpoint {worst1:.3g} (<1e-2)")


def check_parameterization_equivalence() -> CheckResult:
    """Score-, noise-, and velocity-form guided drifts are the same function.

    Times are kept off the extreme clamp boundaries so the comparison is not
    dominated by the 1/sigma^2 float amplification.
    """
    rng = np.random.default_rng(3)
    gm = _two_mode_mixture()
    n_lams, n_ts, n_xs = 10, 10, 10  # 1000 (x, t, lambda) triples
    worst = 0.0

    vp = NoiseSchedule.vp()
    otfm = NoiseSchedule.otfm()
    model_vp = mixture_score_model(gm, vp)
    model_ot = mixture_score_model(gm, otfm)
    coarse = oracle.gm_sample(gm, 1, rng)[0]
    for _ in range(n_lams):
        spec = GuidanceSpec(coarse, WeightSchedule(CONSTANT,
                                                   constant=float(rng.uniform(0.0, 1.0))))
        d_score = guided_score_drift(model_vp, spec, vp)
        d_eps = guided_epsilon_drift(model_vp, spec, vp)
        d_score_ot = guided_score_drift(model_ot, spec, otfm)
        d_vel = guided_velocity_drift(model_ot, spec, otfm)
        for t in rng.uniform(0.01, 0.99, size=n_ts):
            xs = rng.normal(scale=2.0, size=(n_xs, 2))
            worst = max(worst, float(np.max(np.abs(d_score(xs, t) - d_eps(xs, t)))),
                        float(np.max(np.abs(d_score_ot(xs, t) - d_vel(xs, t)))))
    return CheckResult("parameterization_equivalence", worst < 1e-10, worst, 1e-10,
                       "score vs noise form (vp) and score vs velocity form (otfm)")


def check_sde_ode_marginals() -> CheckResult:
    """Exact-correction reverse SDE and deterministic flow share their marginals.

    Both ensembles start from the conditional law at the start time, under
    which the correction is exactly the conditioned process's score shift; the
    per-coordinate means and variances are then compared at three interior
    times.  The grid (start 1.0, end 0.25, 750 steps) hits those times exactly.
    """
    seed, n = 13, 10_000
    schedule = NoiseSchedule.vp()
    gm = _two_mode_mixture()
    model = mixture_score_model(gm, schedule)
    rng = np.random.default_rng(seed)
    target = oracle.gm_sample(gm, 1, rng)[0]

    def h_fn(x, t):
        return oracle.exact_h(x, target, gm, schedule, t)

    a0, s0 = schedule.alpha_sigma(1.0)

    def start_fn(trial_stream):
        return a0 * target + s0 * trial_stream.standard_normal(2)

    drift = h_guided_drift(model, h_fn, schedule)
    ode_cfg = SamplerConfig(steps=750, start=1.0, end=0.25, record_every=250, seed=seed)
    sde_cfg = SamplerConfig(steps=750, start=1.0, end=0.25, record_every=250,
                            solver=EULER_MARUYAMA, seed=seed + 1)
    ode_paths = ode_ensemble(drift, ode_cfg, n, start_fn=start_fn)
    sde_paths = sde_ensemble(model, h_fn, schedule, sde_cfg, n, start_fn=start_fn)

    worst = 0.0
    details = []
    for t in (0.75, 0.5, 0.25):
        mean_o, cov_o = marginal_stats(ode_paths, t)
        mean_s, cov_s = marginal_stats(sde_paths, t)
        var_o, var_s = np.diag(cov_o), np.diag(cov_s)
        mean_sigma = np.sqrt(var_o / n + var_s / n)
        mean_dev = np.abs(mean_o - mean_s) / mean_sigma
        var_sigma = np.sqrt(2.0 * var_o ** 2 / (n - 1) + 2.0 * var_s ** 2 / (n - 1))
        var_dev = np.abs(var_o - var_s) / var_sigma
        worst = max(worst, float(mean_dev.max()), float(var_dev.max()))
        details.append(f"t={t}: mean {mean_dev.max():.2f} var {var_dev.max():.2f}")
    return CheckResult("sde_ode_marginals", worst < 3.0, worst, 3.0,
                       "; ".join(details))


def check_euler_convergence() -> CheckResult:
    """Endpoint error against the exact bridge endpoint halves with the step size."""
    schedule = NoiseSchedule.vp()
    gm = _two_mode_mixture()
    model = mixture_score_model(gm, schedule)
    rng = np.random.default_rng(17)
    target = oracle.gm_sample(gm, 1, rng)[0]
    start = rng.standard_normal(2)

    def h_fn(x, t):
        return oracle.exact_h(x, target, gm, schedule, t)

    drift = h_guided_drift(model, h_fn, schedule)

    def endpoint(steps):
        cfg = SamplerConfig(steps=steps, start=schedule.t_max, end=schedule.t_min)
        return sample_ode(drift, cfg, x_start=start).endpoint

    reference = oracle.bridge_flow(start, target, schedule, schedule.t_max, schedule.t_min)
    errors = [float(np.linalg.norm(endpoint(m) - reference)) for m in (250, 500, 1000)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    passed = all(1.7 <= r <= 2.3 for r in ratios)
    value = max(ratios, key=lambda r: abs(r - 2.0))
    return CheckResult("euler_convergence_order", passed, value, 2.3,
                       f"ratios {ratios[0]:.3f}, {ratios[1]:.3f} must lie in [1.7, 2.3]")


def _blur_field_config() -> ExperimentConfig:
    # noise_std is deliberately heavy: with a clean reference, maximal adherence
    # plus the smooth prior acts as near-optimal denoising and the small-exponent
    # arm never rises, so no interior minimum can appear
    return ExperimentConfig.from_dict({
        "experiment": {"kind": "ablate_exponent", "trials": 200, "seed": 19,
                       "exponents": [1.0, 3.0, 5.0, 7.0, 9.0]},
        "density": {"kind": "gaussian_field", "cells": 16, "length_scale": 3.0},
        "operator": {"kind": "blur", "kernel_std": 2.0, "noise_std": 1.75},
        "sampler": {"steps": 1000},
    })


def check_exponent_tradeoff() -> CheckResult:
    """The exponent sweep shows the guidance/quality tradeoff.

    mse_to_coarse must not decrease with the exponent (one inversion inside a
    standard error is tolerated); mse_to_y must attain a strict interior
    minimum: too much adherence keeps the degradation, too little loses the
    reference entirely.
    """
    record = run_ablate_exponent(_blur_field_config())
    coarse_means = [row["mse_to_coarse_mean"] for row in record.aggregates]
    coarse_ses = [row["mse_to_coarse_se"] for row in record.aggregates]
    y_means = [row["mse_to_y_mean"] for row in record.aggregates]

    inversions = [(i, coarse_means[i] - coarse_means[i + 1])
                  for i in range(len(coarse_means) - 1)
                  if coarse_means[i + 1] < coarse_means[i]]
    mono_ok = len(inversions) == 0 or (
        len(inversions) == 1
        and inversions[0][1] <= math.hypot(coarse_ses[inversions[0][0]],
                                           coarse_ses[inversions[0][0] + 1]))
    best = int(np.argmin(y_means))
    interior_ok = (0 < best < len(y_means) - 1
                   and y_means[best] < y_means[0] and y_means[best] < y_means[-1])
    passed = mono_ok and interior_ok
    detail = (f"mse_to_y by exponent {[f'{m:.3f}' for m in y_means]}, "
              f"interior minimum at index {best}; "
              f"coarse inversions {len(inversions)}")
    return CheckResult("exponent_tradeoff", passed, float(y_means[best]), math.inf,
                       detail)


def check_sdedit_limits() -> CheckResult:
    """More start noise weakens guidance; at full noise the baseline is unguided."""
    seed, trials = 23, 500
    schedule = NoiseSchedule.vp()
    gm = _two_mode_mixture()
    op = oracle.shrink(0.5, 2, noise_std=0.1)
    scfg = SamplerConfig(steps=1000, start=schedule.t_max, end=schedule.t_min, seed=seed)

    drawn = draw_trials(gm, op, trials, seed)
    coarse_means = []
    for t0 in (0.2, 0.5, 0.8):
        columns, _ = sdedit_trials(gm, schedule, scfg, drawn, t0)
        mean, _ = mean_se(columns["mse_to_coarse"])
        coarse_means.append(mean)
    monotone = all(coarse_means[i] <= coarse_means[i + 1]
                   for i in range(len(coarse_means) - 1))

    _, end_full = sdedit_trials(gm, schedule, scfg, drawn, schedule.t_max)
    unguided = ode_ensemble(unguided_drift(mixture_score_model(gm, schedule), schedule),
                            replace(scfg, seed=seed + 1), trials)
    end_unguided = np.stack([p.endpoint for p in unguided])
    dev = 0.0
    for k in range(2):
        a, b = end_full[:, k], end_unguided[:, k]
        mean_sigma = math.hypot(a.std(ddof=1) / math.sqrt(trials),
                                b.std(ddof=1) / math.sqrt(trials))
        dev = max(dev, abs(a.mean() - b.mean()) / mean_sigma)
        var_sigma = math.sqrt(2 * a.var(ddof=1) ** 2 / (trials - 1)
                              + 2 * b.var(ddof=1) ** 2 / (trials - 1))
        dev = max(dev, abs(a.var(ddof=1) - b.var(ddof=1)) / var_sigma)

    passed = monotone and dev < 3.0
    detail = (f"mse_to_coarse over t0: {[f'{m:.3f}' for m in coarse_means]}, "
              f"full-noise moment deviation {dev:.2f} sigma")
    return CheckResult("sdedit_limits", passed, dev, 3.0, detail)


def check_dsm_training() -> CheckResult:
    """The trained net recovers the unit-Gaussian score; gradients are exact.

    Training runs the score-residual (sigma-weighted) objective on a schedule
    clamped at t_min = 0.1, matching the evaluation window: with t down at
    1e-3 the 1/sigma^2 weighting spans four orders of magnitude and the
    moderate-noise region the evaluation probes never trains to tolerance.
    """
    seed = 29
    schedule = NoiseSchedule.vp()
    rng = np.random.default_rng(seed)

    small = MlpNet.init(2, hidden=(8, 8), rng=rng)
    x0 = rng.standard_normal((16, 2))
    ts = rng.uniform(0.1, 0.9, size=16)
    eps = rng.standard_normal((16, 2))
    _, grads = dsm_loss_grad_at(small, x0, ts, eps, schedule)
    worst_rel = 0.0
    for _ in range(50):
        layer = int(rng.integers(0, len(small.params)))
        flat_idx = int(rng.integers(0, small.params[layer].size))
        worst_rel = max(worst_rel, _grad_rel_error(small, layer, flat_idx, x0, ts,
                                                   eps, schedule, grads))
    grad_ok = worst_rel < 1e-5

    train_schedule = NoiseSchedule.vp(t_min=0.1)
    data = np.random.default_rng(seed).standard_normal((8192, 2))
    net = MlpNet.init(2, rng=np.random.default_rng(seed + 1))
    trained, _ = train(net, data, TrainConfig(steps=15_000, seed=seed), train_schedule)
    model = net_score_model(trained, train_schedule)
    grid = np.linspace(-2.0, 2.0, 7)
    points = np.array([[a, b] for a in grid for b in grid])
    sq_err = []
    for t in np.linspace(0.1, 0.9, 9):
        pred = model.score(points, t)
        sq_err.append((pred - (-points)) ** 2)
    rmse = float(np.sqrt(np.mean(sq_err)))
    passed = grad_ok and rmse < 0.1
    return CheckResult("dsm_training", passed, rmse, 0.1,
                       f"score rmse {rmse:.4f} (<0.1), gradcheck rel {worst_rel:.2e} (<1e-5)")


def _grad_rel_error(net, layer, flat_idx, x0, ts, eps, schedule, grads) -> float:
    step = 1e-6
    params = [p.copy() for p in net.params]
    base = params[layer].flat[flat_idx]
    params[layer].flat[flat_idx] = base + step
    up, _ = dsm_loss_grad_at(MlpNet(tuple(params), net.dim), x0, ts, eps, schedule)
    params[layer].flat[flat_idx] = base - step
    down, _ = dsm_loss_grad_at(MlpNet(tuple(params), net.dim), x0, ts, eps, schedule)
    params[layer].flat[flat_idx] = base
    fd = (up - down) / (2 * step)
    an = grads[layer].flat[flat_idx]
    return abs(fd - an) / max(abs(fd), abs(an), 1e-6)


def check_restoration_beats_ignorance() -> CheckResult:
    """Guided restoration beats unguided sampling and respects the MMSE floor."""
    toys = {
        "shrink": ({"kind": "mixture"}, {"kind": "shrink", "factor": 0.5, "noise_std": 0.1}),
        "blur": ({"kind": "gaussian_field", "cells": 16, "length_scale": 3.0},
                 {"kind": "blur", "kernel_std": 2.0, "noise_std": 0.25}),
    }
    worst_sep = math.inf
    details = []
    passed = True
    for name, (density, operator) in toys.items():
        cfg = ExperimentConfig.from_dict({"experiment": {"trials": 200, "seed": 31},
                                          "density": density, "operator": operator})
        guided, unguided = run_restore(cfg).aggregates
        g_mean, u_mean = guided["mse_to_y_mean"], unguided["mse_to_y_mean"]
        p_mean = guided["posterior_mse_mean"]
        sep = (u_mean - g_mean) / math.hypot(guided["mse_to_y_se"], unguided["mse_to_y_se"])
        worst_sep = min(worst_sep, sep)
        ok = sep > 3.0 and g_mean >= p_mean
        passed = passed and ok
        details.append(f"{name}: guided {g_mean:.3f} vs unguided {u_mean:.3f} "
                       f"({sep:.1f} sigma), mmse floor {p_mean:.3f}")
    return CheckResult("restoration_beats_ignorance", passed, worst_sep, 3.0,
                       "; ".join(details))


ALL_CHECKS = (
    check_identity_gap,
    check_endpoint_guarantee,
    check_lambda_boundaries,
    check_parameterization_equivalence,
    check_sde_ode_marginals,
    check_euler_convergence,
    check_exponent_tradeoff,
    check_sdedit_limits,
    check_dsm_training,
    check_restoration_beats_ignorance,
)


def run_verify() -> RunRecord:
    """Run every check in ALL_CHECKS, printing one line per check."""
    results = []
    for fn in ALL_CHECKS:
        started = time.perf_counter()
        result = fn()
        results.append(result)
        print(f"{result.line()} ({time.perf_counter() - started:.2f} s)")
    cfg = ExperimentConfig.from_dict({"experiment": {"kind": "verify"}})
    return RunRecord.of(cfg, "verify", {}, [], checks=[vars(r) for r in results],
                        extras={"all_passed": all(r.passed for r in results)})
