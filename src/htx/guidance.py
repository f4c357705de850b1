"""Assembly of the guided sampling drift in all three parameterizations.

The guided deterministic drift blends the model score s with the tractable
surrogate correction toward a coarse reference y~,

  drift(x, t) = f(x, t) - g^2(t) / 2 * [ s + lambda * ((alpha y~ - x) / sigma^2 - s) ],

where lambda in [0, 1] follows a noise-level-aware schedule: near full noise
the surrogate is nearly exact so lambda ~ 1; as sigma shrinks the surrogate
error grows like alpha / sigma^2 and lambda decays toward 0.  lambda may be a
per-coordinate vector so observed and filled-in regions can use different
exponents.

The drift is linear in x, in s and in y~, with coefficients that depend on t
alone.  Written as drift = p x - q s - r y~ (`drift_rows`),

  p = f-rate + c g^2 lambda / sigma^2,  q = c g^2 (1 - lambda),  r = c g^2 lambda alpha / sigma^2,

with c = 1/2 for the flow and c = 1 for the reverse SDE, and lambda = 0 (no
r) unguided.  A drift hands a solver its grid and its Euler step
(`GuidedDrift.stepper`): every step's rows a = 1 - dt p, b = dt q and
c_y = dt r are formed once per `TimePlan`, in array passes, and the step is
the three-term update x <- a x + b s + c_y y~ (`score_drift`).  The update
allocates its result and its one temporary, and writes into nothing else:
not the state it was given, the score, the reference or a closure's return.
Only the source of the score s differs between drifts: the model's plan
rows, or, for a correction closure h(x, t), model.score(x, t) + h(x, t) with
lambda = 0, since s + h is one score (the model is scored first, on the same
x, so that an exact h can reuse its score).

The exact score of a one-component prior is affine and diagonal in the
prior's eigenbasis, so with scalar lambda any run of steps composes
in closed form there (`_eigen_jump`), to rounding, not bit for bit.  A jump
declines, and the solver walks, wherever a bound from the rows cannot rule
out that the walk overflows, so a divergence is still named at its step.
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

    stepper(start, end, steps) gives a solver the grid, linspace(start, end,
    steps + 1), and advance(x, k), the Euler step from its k-th time; a drift
    built by hand advances as x - fn(x, t_k) dt_k.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int

    def __call__(self, x, t):
        return self.fn(x, t)

    def stepper(self, start: float, end: float, steps: int):
        times = np.linspace(start, end, steps + 1)
        grid, dts, fn = times.tolist(), (times[:-1] - times[1:]).tolist(), self.fn
        return times, lambda x, k: x - fn(x, grid[k]) * dts[k]


@dataclass(frozen=True)
class _PlannedDrift(GuidedDrift):
    """A score-form drift: scores(plan) gives the score(x, k) that `score_drift` takes."""

    schedule: NoiseSchedule
    scores: Callable[[TimePlan], Callable]
    spec: GuidanceSpec | None

    def stepper(self, start: float, end: float, steps: int):
        plan = self.schedule.plan(start, end, steps)
        return plan.times, score_drift(plan, 0.5, self.scores(plan), self.spec)


def _planned_drift(scores, spec, schedule: NoiseSchedule, dim: int) -> GuidedDrift:
    """At one time t the drift p x - q s - r y~ from the rows of the one-time plan of t."""

    def fn(x, t):
        plan = schedule.plan(t, t, 1)
        p, q, r = drift_rows(plan, 0.5, spec)
        x = np.asarray(x, dtype=float)
        drift = p[0] * x - q[0] * scores(plan)(x, 0)
        return drift if r is None else drift - r[0] * spec.coarse

    return _PlannedDrift(fn, dim, schedule, scores, spec)


def lambda_weights(spec: GuidanceSpec, schedule: NoiseSchedule, t):
    """Guidance weight at time t: scalar, or (d,) under an exponent map."""
    _, s = schedule.alpha_sigma(t)
    return spec.weights.weight(s, t, spec.exponent_map)


def region_exponents(valid: np.ndarray, valid_exponent: float,
                     invalid_exponent: float) -> np.ndarray:
    """Per-coordinate float exponents from a validity mask (observed vs filled-in)."""
    if valid_exponent < 0 or invalid_exponent < 0:
        raise ConfigError("exponents must be >= 0")
    return np.where(np.asarray(valid, dtype=bool), float(valid_exponent), float(invalid_exponent))


def approx_h(x, t, coarse, score_at_x, schedule: NoiseSchedule):
    """Tractable surrogate correction (alpha coarse - x) / sigma^2 - score."""
    return conditional_score(x, coarse, schedule, t) - np.asarray(score_at_x, dtype=float)


def drift_rows(plan: TimePlan, c: float, spec: GuidanceSpec | None = None):
    """Rows (p, q, r) of drift = p x - q s - r y~ at each step's time (module docstring).

    Each is (steps,), or (steps, d) under an exponent map; without a spec, lambda
    is 0 and r is None.  lambda is the weight of each step's scalar sigma and
    time, as lambda_weights gives it: an array power can round differently from
    the scalar one.
    """
    if spec is None:
        return plan.lad, c * plan.g2, None
    if np.any(plan.sigma == 0.0):
        raise SingularityError("conditional score undefined at sigma = 0")
    lam = np.array(spec.weights.weight_row(plan.sigma, plan.times[:-1], spec.exponent_map))
    col = (slice(None),) + (None,) * (lam.ndim - 1)
    lad, alpha, sigma = plan.lad[col], plan.alpha[col], plan.sigma[col]
    cg2 = c * plan.g2[col]
    w = cg2 * lam / (sigma * sigma)
    return lad + w, cg2 * (1.0 - lam), w * alpha


def _per_step(row: np.ndarray) -> list:
    """A row as one entry per step: a float, or a (d,) array under an exponent map."""
    return row.tolist() if row.ndim == 1 else list(row)


def score_drift(plan: TimePlan, c: float, score: Callable, spec: GuidanceSpec | None = None):
    """advance(x, k): the Euler step x - drift dt_k of the one score-form drift law.

    With a = 1 - dt p, b = dt q and c_y = dt r from `drift_rows`, the step is
    x <- a x + b s + c_y y~.  c = 1/2 gives the deterministic flow, c = 1 the
    reverse SDE.  score(x, k) gives s at plan.times[k], a correction h already
    added to it (s + h is one score); spec, when given, the guidance toward
    spec.coarse.  The step returns a new array and writes only into arrays it
    allocated.  When the score is affine with eigen-rows (`oracle.planned_score`)
    and lambda is scalar, advance.jump(x, k0, k1) offers steps k0 to k1 in one
    pass (`_eigen_jump`).
    """
    p, q, r = drift_rows(plan, c, spec)
    dt = plan.dt[(slice(None),) + (None,) * (p.ndim - 1)]
    rows = (1.0 - dt * p, dt * q, None if r is None else dt * r)
    a, b, cy = (None if row is None else _per_step(row) for row in rows)
    coarse = None if r is None else spec.coarse

    def advance(x, k):
        out = score(x, k) * b[k]
        term = x * a[k]
        out += term
        if coarse is not None:
            out += np.multiply(coarse, cy[k], out=term)
        return out

    eigen_rows = getattr(score, "eigen_rows", None)
    if eigen_rows is not None and p.ndim == 1:
        advance.jump = _eigen_jump(*eigen_rows, *rows, coarse)
    return advance


# a jump's bound keeps every state and score the walk would form this far below the
# float maximum (about 1.8e308), so no jump skips a step where the walk would raise
# DivergenceError
_JUMP_LIMIT = 1e300


def _eigen_jump(basis, basis_means, evals, a, b, cy, coarse):
    """jump(x, k0, k1): steps k0 to k1 of x <- a x + b s + c_y y~ in one pass, for a
    score diagonal in the basis V, s V = (m_k - x V) / e_k; None where it declines.

    In u = x V the step is u <- A_k u + B_k + c_k u~, with A = a - b / e,
    B = b m / e and u~ = y~ V, so the stretch is u <- P u + H + G u~ with
    R_k = prod_{i > k} A_i, P = prod A_k, H = sum R_k B_k and G = sum R_k c_k.
    It is applied as the change x + ((P - 1) u + H + G u~) V^T, so that V's
    rounding is not compounded from one stretch to the next.  Every |u| the
    walk forms is at most the largest window product of |A| times
    (max |u| + sum |B| + sum |c| max |u~|), and its score at most that plus
    max |m|, over min e; the jump declines unless both stay below _JUMP_LIMIT
    with room for the walk's d-term sums and coefficients, or if its result is
    not finite.  It writes into neither x nor y~.
    """
    dim = basis.shape[0]
    with np.errstate(all="ignore"):
        a, b = a[:, None], b[:, None]
        step_a, step_b = a - b / evals, b * basis_means / evals
        log_a = np.log(np.maximum(np.abs(step_a), np.finfo(float).tiny))
        scale = max(1.0, np.abs(a).max(), np.abs(b).max(), 0.0 if cy is None else np.abs(cy).max())
    limit = _JUMP_LIMIT / (dim * dim * scale)

    def colmax(v):
        return np.abs(v).reshape(-1, dim).max(axis=0)

    def jump(x, k0, k1):
        with np.errstate(all="ignore"):
            u = x @ basis
            u_ref = None if coarse is None else coarse @ basis
            logs = np.zeros((k1 - k0 + 1, dim))
            np.cumsum(log_a[k0:k1], axis=0, out=logs[1:])
            growth = np.exp((logs - np.minimum.accumulate(logs, axis=0)).max(axis=0))
            reach = colmax(u) + np.abs(step_b[k0:k1]).sum(axis=0)
            if coarse is not None:
                reach += np.abs(cy[k0:k1]).sum() * colmax(u_ref)
            bound = growth * reach
            s_bound = (bound + np.abs(basis_means[k0:k1]).max(axis=0)) / evals[k0:k1].min(axis=0)
            if not (np.all(bound < limit) and np.all(s_bound < limit)):
                return None
            suffix = np.cumprod(step_a[k0:k1][::-1], axis=0)[::-1]
            after = np.ones_like(suffix)
            after[:-1] = suffix[1:]
            u *= suffix[0] - 1.0
            u += np.einsum("kd,kd->d", after, step_b[k0:k1])
            if coarse is not None:
                u += (cy[k0:k1] @ after) * u_ref
            out = u @ basis.T
            out += x
        return out if np.isfinite(out).all() else None

    return jump


def unguided_drift(model: ScoreModel, schedule: NoiseSchedule) -> GuidedDrift:
    """Plain deterministic sampling drift f - g^2 s / 2."""
    return _planned_drift(model.planned_score, None, schedule, model.dim)


def h_guided_drift(model: ScoreModel, h_fn: Callable, schedule: NoiseSchedule) -> GuidedDrift:
    """Drift f - g^2 (s + h) / 2 for an arbitrary correction closure h(x, t)."""
    # the model is scored first, on the same x, so that an exact h reuses its score
    return _planned_drift(
        lambda plan: plan.per_time(lambda x, t: model.score(x, t) + h_fn(x, t)),
        None, schedule, model.dim)


def guided_score_drift(model: ScoreModel, spec: GuidanceSpec,
                       schedule: NoiseSchedule) -> GuidedDrift:
    """Score-form guided drift; the weight interpolates toward the kernel score."""
    return _planned_drift(model.planned_score, spec, schedule, spec.dim)


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


def approximation_error(t, y, coarse, schedule: NoiseSchedule):
    """Distance between exact and surrogate corrections: (alpha / sigma^2) ||y~ - y||.

    The x dependence cancels exactly, so this is a function of time and the
    degradation gap alone; it decreases in sigma and blows up as sigma -> 0.
    t, y and coarse broadcast, the norm running over the last axis of y and
    coarse; a scalar result is returned as a float.
    """
    a, s = schedule.alpha_sigma(t)
    if np.any(s == 0.0):
        raise SingularityError("approximation error undefined at sigma = 0")
    gap = np.asarray(coarse, dtype=float) - np.asarray(y, dtype=float)
    error = a / (s * s) * np.linalg.norm(gap, axis=-1)
    return float(error) if np.ndim(error) == 0 else error


def sdedit_start(coarse, t0: float, schedule: NoiseSchedule, z):
    """Noise the coarse sample to time t0: x = alpha_t0 y~ + sigma_t0 z.

    z is standard-normal noise shaped like coarse ((d,) or (n, d)).  The
    start-guided baseline then samples unguided from (x, t0).
    """
    if not schedule.t_min < t0 <= schedule.t_max:
        raise ConfigError(f"t0 must lie in ({schedule.t_min}, {schedule.t_max}]")
    a, s = schedule.alpha_sigma(t0)
    return a * np.asarray(coarse, dtype=float) + s * np.asarray(z, dtype=float), t0
