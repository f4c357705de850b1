"""Euler integrators for the guided dynamics, with trajectory recording.

Time runs backwards from `start` (near full noise) to `end` (near data) on a
uniform grid.  The deterministic update is

  x_{t - dt} = x_t - drift(x_t, t) dt,

and the stochastic one adds g(t) sqrt(dt) z with z standard normal.  The loop
walks the grid by step index: a score-form drift reads every per-time factor
from the rows of the schedule's `TimePlan`, computed once before the first
step, and the reverse SDE takes its noise scales from the same plan.
`sample_ode` runs from a start the caller gives.  The ensembles integrate
many trajectories as one batched state and draw trajectory i's start and,
for the SDE, its noise block from its private stream trial_rng(seed, i), so
their result does not depend on the batch size, up to rounding in the
batched arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .guidance import GuidedDrift, score_drift
from .schedules import NoiseSchedule
from .scorenet import ScoreModel

EULER_ODE = "euler_ode"
EULER_MARUYAMA = "euler_maruyama"
# trajectories per sde_ensemble batch; bounds its pre-drawn (steps, batch, d) noise
SDE_CHUNK = 2000


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    start: float = 1.0
    end: float = 1e-3
    solver: str = EULER_ODE
    seed: int = 0
    record_every: int = 0  # 0 records endpoints only

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not self.start > self.end:
            raise ConfigError("start time must exceed end time")
        if self.solver not in (EULER_ODE, EULER_MARUYAMA):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.record_every < 0:
            raise ConfigError("record_every must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Recorded sampling path; times strictly decrease and end at the endpoint."""

    times: np.ndarray
    states: np.ndarray  # (n_recorded, d)
    endpoint: np.ndarray


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Private stream for trajectory/trial `index`, split from the base seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _record_indices(cfg: SamplerConfig) -> np.ndarray:
    if cfg.record_every == 0:
        return np.array([0, cfg.steps])
    idx = list(range(0, cfg.steps + 1, cfg.record_every))
    if idx[-1] != cfg.steps:
        idx.append(cfg.steps)
    return np.asarray(idx)


def _integrate(step, times: np.ndarray, cfg: SamplerConfig, x0: np.ndarray,
               noise_scale=None, noise_block: np.ndarray | None = None):
    """Shared Euler loop over `times`: x <- x - step(x, k) dt_k, plus
    noise_scale[k] noise_block[k] for the SDE; x0 is (d,) or (n, d), noise_block
    is (steps, *x0.shape).

    A non-finite state raises DivergenceError naming the step, its grid time
    and the first row of x that is not finite.
    """
    rec_idx = _record_indices(cfg)
    rec_states = np.empty((len(rec_idx),) + x0.shape)
    rec_pos = {int(k): i for i, k in enumerate(rec_idx)}

    x = np.array(x0, dtype=float)
    if 0 in rec_pos:
        rec_states[rec_pos[0]] = x
    grid, dts = times.tolist(), (times[:-1] - times[1:]).tolist()
    for k in range(cfg.steps):
        x = x - step(x, k) * dts[k]
        if noise_block is not None:
            x = x + noise_scale[k] * noise_block[k]
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(np.atleast_2d(x)).all(axis=1))
            raise DivergenceError(k, t=grid[k], trajectory=int(bad[0]))
        if (k + 1) in rec_pos:
            rec_states[rec_pos[k + 1]] = x
    return times[rec_idx], rec_states, x


def sample_ode(drift: GuidedDrift, cfg: SamplerConfig, x_start) -> Trajectory:
    """Deterministic reverse-time Euler run from x_start, (d,) or (n, d)."""
    if cfg.solver != EULER_ODE:
        raise ConfigError("sample_ode requires the euler_ode solver")
    times, step = drift.stepper(cfg.start, cfg.end, cfg.steps)
    times, states, endpoint = _integrate(step, times, cfg,
                                         np.asarray(x_start, dtype=float))
    return Trajectory(times=times, states=states, endpoint=endpoint)


def _ensemble(step, times: np.ndarray, cfg: SamplerConfig, n: int, dim: int, start_fn,
              chunk: int, noise_scale=None) -> list[Trajectory]:
    """n trajectories in batches of `chunk`; trajectory i draws from trial_rng(seed, i).

    Its stream gives the start (start_fn(rng), else standard normal) and then,
    for the SDE, its (steps, dim) noise block.
    """
    out: list[Trajectory] = []
    for lo in range(0, n, chunk):
        m = min(lo + chunk, n) - lo
        starts = np.empty((m, dim))
        noise = None if noise_scale is None else np.empty((cfg.steps, m, dim))
        for i in range(m):
            rng = trial_rng(cfg.seed, lo + i)
            starts[i] = rng.standard_normal(dim) if start_fn is None else start_fn(rng)
            if noise is not None:
                noise[:, i, :] = rng.standard_normal((cfg.steps, dim))
        try:
            rec_times, states, _ = _integrate(step, times, cfg, starts,
                                              noise_scale=noise_scale, noise_block=noise)
        except DivergenceError as exc:
            raise DivergenceError(exc.step, t=exc.t, trajectory=lo + exc.trajectory) from None
        out.extend(Trajectory(times=rec_times, states=states[:, i, :],
                              endpoint=states[-1, i, :]) for i in range(m))
    return out


def ode_ensemble(drift: GuidedDrift, cfg: SamplerConfig, n: int,
                 start_fn=None) -> list[Trajectory]:
    """n deterministic trajectories integrated as one batch.

    Starts come from per-trajectory streams: start_fn(rng) when given, else
    standard normal draws.
    """
    times, step = drift.stepper(cfg.start, cfg.end, cfg.steps)
    return _ensemble(step, times, cfg, n, drift.dim, start_fn, chunk=max(n, 1))


def sde_ensemble(model: ScoreModel, h_term, schedule: NoiseSchedule,
                 cfg: SamplerConfig, n: int, start_fn=None) -> list[Trajectory]:
    """n Euler-Maruyama runs of the reverse SDE, optionally with a correction h.

    Update: x_{t-dt} = x_t - [f - g^2 (s + h)] dt + g sqrt(dt) z; h_term may be
    None.  Without h the score reads the plan's rows; with h it comes from
    model.score(x, t), which the exact h rescores.  Trajectories run in
    batches of SDE_CHUNK to bound the pre-drawn noise.
    """
    plan = schedule.plan(cfg.start, cfg.end, cfg.steps)
    if h_term is None:
        step = score_drift(plan, 1.0, model.planned_score(plan))
    else:
        step = score_drift(plan, 1.0, plan.per_time(model.score),
                           plan.per_time(lambda x, t, s: h_term(x, t)))
    noise_scale = (np.sqrt(plan.g2) * np.sqrt(plan.dt)).tolist()
    return _ensemble(step, plan.times, cfg, n, model.dim, start_fn, SDE_CHUNK, noise_scale)


def marginal_stats(trajectories: list[Trajectory], t: float):
    """Sample mean and covariance of the recorded states at time t."""
    times = trajectories[0].times
    hits = np.flatnonzero(np.isclose(times, t, rtol=0.0, atol=1e-9))
    if hits.size == 0:
        raise KeyError(f"time {t} was not recorded")
    k = int(hits[0])
    states = np.stack([traj.states[k] for traj in trajectories])
    mean = states.mean(axis=0)
    if states.shape[0] == 1:
        cov = np.zeros((states.shape[1], states.shape[1]))
    else:
        centered = states - mean
        cov = centered.T @ centered / (states.shape[0] - 1)
    return mean, cov
