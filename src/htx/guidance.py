"""Assembly of the guided sampling drift in all three parameterizations.

The guided deterministic drift blends the model score s with the tractable
surrogate correction toward a coarse reference y~,

  drift(x, t) = f(x, t) - g^2(t) / 2 * [ s + lambda * ((alpha y~ - x) / sigma^2 - s) ],

where lambda in [0, 1] follows a noise-level-aware schedule: near full noise
the surrogate is nearly exact so lambda ~ 1; as sigma shrinks the surrogate
error grows like alpha / sigma^2 and lambda decays toward 0.  lambda may be a
per-coordinate vector so observed and filled-in regions can use different
exponents.

A solver walks a drift over the rows of a `TimePlan` (`GuidedDrift.stepper`).
Only the source of the score s differs between drifts: a score-form drift
reads it from the model's plan rows, the drift on a correction closure h(x, t)
from model.score(x, t), so that an exact h can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SingularityError
from .oracle import conditional_score
from .schedules import CONSTANT, OTFM, VP, NoiseSchedule, TimePlan, WeightSchedule
from .scorenet import ScoreModel


@dataclass(frozen=True)
class GuidanceSpec:
    """Coarse reference plus the weight schedule that tempers it.

    `coarse` is a data-space vector (d,); a batch (n, d) of references is
    accepted so independent trials can share one drift closure.  When
    `exponent_map` is given it must cover every coordinate and overrides the
    schedule's scalar exponent.
    """

    coarse: np.ndarray
    weights: WeightSchedule
    exponent_map: np.ndarray | None = None

    def __post_init__(self):
        coarse = np.asarray(self.coarse, dtype=float)
        if coarse.ndim not in (1, 2):
            raise ConfigError("coarse must be (d,) or (n, d)")
        object.__setattr__(self, "coarse", coarse)
        if self.exponent_map is not None:
            emap = np.asarray(self.exponent_map, dtype=float)
            if emap.shape != (self.dim,):
                raise ConfigError("exponent_map must cover every coordinate exactly once")
            if np.any(emap < 0):
                raise ConfigError("exponents must be >= 0")
            if self.weights.family == CONSTANT:
                raise ConfigError("exponent_map requires a power-family weight schedule")
            object.__setattr__(self, "exponent_map", emap)

    @property
    def dim(self) -> int:
        return self.coarse.shape[-1]


@dataclass(frozen=True)
class GuidedDrift:
    """Deterministic drift closure; evaluates on (d,) or (n, d) states.

    stepper(start, end, steps) gives a solver its `TimePlan` and step(x, k),
    the drift at the plan's k-th time; a drift built by hand steps as fn(x, t_k)
    over a plan of the grid alone.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int

    def __call__(self, x, t):
        return self.fn(x, t)

    def stepper(self, start: float, end: float, steps: int):
        times = np.linspace(start, end, steps + 1)
        plan = TimePlan(None, times, times[:-1] - times[1:])
        return plan, plan.per_time(self.fn)


@dataclass(frozen=True)
class _PlannedDrift(GuidedDrift):
    """A score-form drift: planned(plan) is its step(x, k) over the plan's rows."""

    schedule: NoiseSchedule
    planned: Callable[[TimePlan], Callable]

    def stepper(self, start: float, end: float, steps: int):
        plan = self.schedule.plan(start, end, steps)
        return plan, self.planned(plan)


def _planned_drift(planned, schedule: NoiseSchedule, dim: int) -> GuidedDrift:
    """At one time t the drift steps the one-time plan of t."""
    return _PlannedDrift(lambda x, t: planned(schedule.plan(t, t, 1))(
        np.asarray(x, dtype=float), 0), dim, schedule, planned)


def lambda_weights(spec: GuidanceSpec, schedule: NoiseSchedule, t):
    """Guidance weight at time t: scalar, or (d,) under an exponent map."""
    _, s = schedule.alpha_sigma(t)
    return spec.weights.weight(s, t, spec.exponent_map)


def region_exponents(valid: np.ndarray, valid_exponent: float,
                     invalid_exponent: float) -> np.ndarray:
    """Per-coordinate exponents from a validity mask (observed vs filled-in)."""
    if valid_exponent < 0 or invalid_exponent < 0:
        raise ConfigError("exponents must be >= 0")
    return np.where(np.asarray(valid, dtype=bool), valid_exponent, invalid_exponent)


def approx_h(x, t, coarse, score_at_x, schedule: NoiseSchedule):
    """Tractable surrogate correction (alpha coarse - x) / sigma^2 - score."""
    return conditional_score(x, coarse, schedule, t) - np.asarray(score_at_x, dtype=float)


def score_drift(plan: TimePlan, c: float, score: Callable,
                correction: Callable | None = None):
    """The one score-form drift law f - c g^2 (s + correction), step(x, k) over plan rows.

    c = 1/2 gives the deterministic flow, c = 1 the reverse SDE.  score(x, k)
    gives s at plan.times[k]; correction(x, k, s), when given, sees that s.
    """
    lad, g2 = plan.row("lad"), plan.row("g2")

    def step(x, k):
        s = score(x, k)
        if correction is not None:
            s = s + correction(x, k, s)
        return lad[k] * x - c * g2[k] * s

    return step


def unguided_drift(model: ScoreModel, schedule: NoiseSchedule) -> GuidedDrift:
    """Plain deterministic sampling drift f - g^2 s / 2."""
    return _planned_drift(lambda plan: score_drift(plan, 0.5, model.planned_score(plan)),
                          schedule, model.dim)


def h_guided_drift(model: ScoreModel, h_fn: Callable, schedule: NoiseSchedule) -> GuidedDrift:
    """Drift f - g^2 (s + h) / 2 for an arbitrary correction closure h(x, t)."""
    return _planned_drift(lambda plan: score_drift(
        plan, 0.5, plan.per_time(model.score), plan.per_time(lambda x, t, s: h_fn(x, t))),
        schedule, model.dim)


def _surrogate_correction(spec: GuidanceSpec, plan: TimePlan):
    """correction(x, k, s) = lambda (kernel score - s) at plan.times[k].

    lambda is the weight of each step's scalar sigma, as lambda_weights gives
    it: an array power can round differently from the scalar one.
    """
    if np.any(plan.sigma == 0.0):
        raise SingularityError("conditional score undefined at sigma = 0")
    lam = [spec.weights.weight(s, t, spec.exponent_map)
           for s, t in zip(plan.row("sigma"), plan.row("times"))]
    alpha, sigma2 = plan.row("alpha"), (plan.sigma * plan.sigma).tolist()
    return lambda x, k, s: lam[k] * ((alpha[k] * spec.coarse - x) / sigma2[k] - s)


def guided_score_drift(model: ScoreModel, spec: GuidanceSpec,
                       schedule: NoiseSchedule) -> GuidedDrift:
    """Score-form guided drift; the weight interpolates toward the kernel score."""
    return _planned_drift(lambda plan: score_drift(
        plan, 0.5, model.planned_score(plan), _surrogate_correction(spec, plan)),
        schedule, spec.dim)


def guided_velocity_drift(model: ScoreModel, spec: GuidanceSpec,
                          schedule: NoiseSchedule) -> GuidedDrift:
    """Velocity-form guided drift v + lambda ((x - y~) / sigma - v); otfm only."""
    if schedule.kind != OTFM:
        raise ConfigError("velocity-form guidance requires the otfm schedule")

    def fn(x, t):
        _, s = schedule.alpha_sigma(t)
        if np.any(s == 0.0):
            raise SingularityError("velocity guidance undefined at sigma = 0")
        v = model.velocity(x, t)
        lam = lambda_weights(spec, schedule, t)
        return v + lam * ((np.asarray(x, dtype=float) - spec.coarse) / s - v)

    return GuidedDrift(fn, spec.dim)


def guided_eps(eps_pred, x, coarse, t, schedule: NoiseSchedule, lam):
    """Effective guided noise eps + lambda (eps~ - eps), eps~ = (x - alpha y~) / sigma."""
    a, s = schedule.alpha_sigma(t)
    if np.any(s == 0.0):
        raise SingularityError("pseudo-target noise undefined at sigma = 0")
    eps_pred = np.asarray(eps_pred, dtype=float)
    pseudo = (np.asarray(x, dtype=float) - a * np.asarray(coarse, dtype=float)) / s
    return eps_pred + lam * (pseudo - eps_pred)


def guided_epsilon_drift(model: ScoreModel, spec: GuidanceSpec,
                         schedule: NoiseSchedule) -> GuidedDrift:
    """Noise-form guided drift: the unguided vp drift driven by the blended noise."""
    if schedule.kind != VP:
        raise ConfigError("noise-form guidance requires the vp schedule")

    def fn(x, t):
        _, s = schedule.alpha_sigma(t)
        lam = lambda_weights(spec, schedule, t)
        blended = guided_eps(model.epsilon(x, t), x, spec.coarse, t, schedule, lam)
        return schedule.log_alpha_dot(t) * (np.asarray(x, dtype=float) - blended / s)

    return GuidedDrift(fn, spec.dim)


def approximation_error(t, y, coarse, schedule: NoiseSchedule) -> float:
    """Distance between exact and surrogate corrections: (alpha / sigma^2) ||y~ - y||.

    The x dependence cancels exactly, so this is a function of time and the
    degradation gap alone; it decreases in sigma and blows up as sigma -> 0.
    """
    a, s = schedule.alpha_sigma(t)
    if np.any(s == 0.0):
        raise SingularityError("approximation error undefined at sigma = 0")
    gap = np.asarray(coarse, dtype=float) - np.asarray(y, dtype=float)
    return float(a / (s * s) * np.linalg.norm(gap))


def sdedit_start(coarse, t0: float, schedule: NoiseSchedule, z):
    """Noise the coarse sample to time t0: x = alpha_t0 y~ + sigma_t0 z.

    z is standard-normal noise shaped like coarse ((d,) or (n, d)).  The
    start-guided baseline then samples unguided from (x, t0).
    """
    if not schedule.t_min < t0 <= schedule.t_max:
        raise ConfigError(f"t0 must lie in ({schedule.t_min}, {schedule.t_max}]")
    a, s = schedule.alpha_sigma(t0)
    return a * np.asarray(coarse, dtype=float) + s * np.asarray(z, dtype=float), t0
