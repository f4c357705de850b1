"""Euler integrators for the guided dynamics, with trajectory recording.

Time runs backwards from `start` (near full noise) to `end` (near data) on a
uniform grid.  The deterministic update is

  x_{t - dt} = x_t - drift(x_t, t) dt,

and the stochastic one adds g(t) sqrt(dt) z with z standard normal.  The loop
walks the grid by step index and asks the drift's advance(x, k) for each new
state: a score-form drift runs it as the three-term update
x <- a x + b s + c_y y~, whose coefficient rows it formed from the schedule's
`TimePlan` before the first step (`guidance.score_drift`), and the reverse SDE
takes its noise scales from the same plan and adds each step's noise in place
to the new state.  No step writes into the start it was given.  A
deterministic run whose drift offers advance.jump (`guidance.score_drift`)
crosses the steps between two records in one closed-form jump instead.
`sample_ode` runs from a start the caller gives.  The ensembles integrate
many trajectories as one batched state and draw trajectory i's start and,
for the SDE, its noise from its private stream trial_rng(seed, i), so their
result does not depend on the batch size, up to rounding in the batched
arithmetic.  A batch's streams come from one trial_rngs call, which hashes
the seed sequences of all of them in one numpy pass and gives the states
trial_rng gives, bit for bit.  The SDE draws each trajectory's noise NOISE_STEPS steps at a
time as it integrates; standard_normal fills row-major from the stream, so
the blocks equal one whole-path (steps, d) draw bit for bit.  Each draw fills
its stream's own contiguous row of a staging buffer that holds NOISE_GROUP
streams, and one transposing copy per group moves them into the step-major
(steps, n, d) block that the steps read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, DivergenceError
from .guidance import GuidedDrift, h_guided_drift, score_drift, unguided_drift
from .schedules import NoiseSchedule, TimePlan
from .scorenet import ScoreModel

EULER_ODE = "euler_ode"
EULER_MARUYAMA = "euler_maruyama"
# trajectories per sde_ensemble batch; bounds its live generators (about 1.3 KB
# each) and its (NOISE_STEPS, batch, d) noise buffer
SDE_CHUNK = 2000
# steps of noise per refill of that buffer (8 MB for 2,000 trajectories at d = 2).
# A refill makes one draw call per trajectory, so shorter blocks cost time: a
# 2,000-trajectory, 750-step SDE ensemble took 2% more CPU time than with one
# whole-path draw at 250 steps, 8% at 125 and 12% at 64 (2-vCPU machine), while
# its process peaked at 72, 68 and 66 MB against 86
NOISE_STEPS = 250
# streams whose NOISE_STEPS draws are staged side by side before one transposing
# copy moves them into the step-major buffer (0.5 MB at d = 2)
NOISE_GROUP = 128
# the largest Euler grid a sampler takes: a plan keeps a few float rows per step,
# and the longest grid in the package, two of htx verify's checks, has 2,000
MAX_STEPS = 100_000
# numpy's SeedSequence hash: its constants and its pool of 4 uint32 words
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    start: float = 1.0
    end: float = 1e-3
    solver: str = EULER_ODE
    seed: int = 0
    record_every: int = 0  # 0 records endpoints only

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"sampler.steps must lie in [1, {MAX_STEPS}], got {self.steps!r}")
        if not self.start > self.end:
            raise ConfigError(f"sampler.start must exceed sampler.end, "
                              f"got {self.start!r} and {self.end!r}")
        if self.solver not in (EULER_ODE, EULER_MARUYAMA):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.record_every < 0:
            raise ConfigError(f"sampler.record_every must be >= 0, got {self.record_every!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded sampling path; times strictly decrease and end at the endpoint."""

    times: np.ndarray
    states: np.ndarray  # (n_recorded, d)
    endpoint: np.ndarray


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Private stream for trajectory/trial `index`, split from the base seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def trial_rngs(seed: int, lo: int, n: int) -> list[np.random.Generator]:
    """[trial_rng(seed, i) for i in range(lo, lo + n)], bitwise, hashed in one pass.

    Each SeedSequence((seed, i)) is hashed for all i at once by _pcg_states, and
    each generator's PCG64 is seeded from its row of that hash.  The states equal
    trial_rng's, so every draw does too; only `bit_generator.seed_seq` differs:
    it is a _PcgSeed, which can give that one state and cannot spawn.  A seed or
    `lo` that SeedSequence rejects raises what it raises; an index must lie
    below 2**64.
    """
    np.random.SeedSequence((seed, lo))  # raises what trial_rng(seed, lo) would
    if n < 0:
        raise ValueError(f"trial_rngs needs n >= 0, got {n}")
    if lo + n > 2**64:
        raise ValueError(f"trial indices must lie below 2**64, got up to {lo + n - 1}")
    seed = operator.index(seed)
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    rngs = []
    # an index below 2**32 is one entropy word, one above it two, low word first
    for a, b in ((lo, min(lo + n, 2**32)), (max(lo, 2**32), lo + n)):
        if a >= b:
            continue
        index = np.arange(a, b, dtype=np.uint64)
        words = np.empty((len(seed_words) + (1 if b <= 2**32 else 2), b - a), np.uint32)
        words[:len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
        words[len(seed_words)] = index & _MASK32
        if b > 2**32:
            words[-1] = index >> 32
        rngs.extend(np.random.Generator(np.random.PCG64(_PcgSeed(row)))
                    for row in _pcg_states(words))
    return rngs


class _PcgSeed(ISeedSequence):
    """The seed sequence of a trial_rngs stream: the PCG64 state it was hashed to."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial_rngs stream holds only its PCG64 state, "
                             "generate_state(4, np.uint64)")
        return self.state


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(w).generate_state(4, np.uint64) for each column w of words.

    words is (L, n) uint32, one entropy word per row; the result is (n, 4) uint64
    and read-only.  This is numpy's SeedSequence hash (its `mix_entropy` into a
    pool of 4 words, then `generate_state`), with each step taken for all n
    columns at once: the hash constants advance the same way for every column.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value *= np.uint32(const)
        value ^= value >> 16
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_L)
        out -= y * np.uint32(_MIX_R)
        out ^= out >> 16
        return out

    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0]))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(words)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    state = np.empty((words.shape[1], 2 * _POOL), np.uint32)
    const = _INIT_B
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value *= np.uint32(const)
        state[:, k] = value ^ (value >> 16)
    # generate_state reads pairs of words as little-endian uint64
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    state.flags.writeable = False
    return state


def _record_indices(cfg: SamplerConfig) -> np.ndarray:
    if cfg.record_every == 0:
        return np.array([0, cfg.steps])
    idx = list(range(0, cfg.steps + 1, cfg.record_every))
    if idx[-1] != cfg.steps:
        idx.append(cfg.steps)
    return np.asarray(idx)


def _integrate(advance, plan: TimePlan, cfg: SamplerConfig, x0: np.ndarray, noise=None):
    """Shared Euler loop over the plan's grid: x <- advance(x, k), a new array, plus,
    for the SDE, next(noise), step k's increment shaped like x0, (d,) or (n, d).

    Without noise, each stretch between two records is one advance.jump(x, k0, k1)
    where the drift offers it and the jump does not decline (returns None).  A
    non-finite state raises DivergenceError naming the step, its grid time and
    the first row of x that is not finite.
    """
    rec_idx = _record_indices(cfg)
    rec_states = np.empty((len(rec_idx),) + x0.shape)
    x = np.asarray(x0, dtype=float)
    rec_states[0] = x
    jump = getattr(advance, "jump", None) if noise is None else None
    grid = plan.row("times")
    for i, (k0, k1) in enumerate(zip(rec_idx[:-1].tolist(), rec_idx[1:].tolist()), 1):
        moved = None if jump is None else jump(x, k0, k1)
        if moved is not None:
            x = moved
        else:
            for k in range(k0, k1):
                x = advance(x, k)
                if noise is not None:
                    x += next(noise)
                # ndarray.all's ufunc, without the method's Python wrapper
                if not np.logical_and.reduce(np.isfinite(x), axis=None):
                    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(x)).all(axis=1))
                    raise DivergenceError(k, t=grid[k], trajectory=int(bad[0]))
        rec_states[i] = x
    return plan.times[rec_idx], rec_states, x


def sample_ode(drift: GuidedDrift, cfg: SamplerConfig, x_start) -> Trajectory:
    """Deterministic reverse-time Euler run from x_start, (d,) or (n, d)."""
    if cfg.solver != EULER_ODE:
        raise ConfigError("sample_ode requires the euler_ode solver")
    plan, advance = drift.stepper(cfg.start, cfg.end, cfg.steps)
    times, states, endpoint = _integrate(advance, plan, cfg, np.asarray(x_start, dtype=float))
    return Trajectory(times=times, states=states, endpoint=endpoint)


def _noise(streams: list, scale: list, dim: int):
    """Each step's increment scale[k] z_k, (len(streams), dim), in step order.

    Row i of z is drawn from streams[i], NOISE_STEPS steps at a time, into one
    reused step-major block; step k's increment is scaled in place there.  Each
    stream's draw fills its own contiguous row of a staging buffer of NOISE_GROUP
    streams (standard_normal(out=)), and one copy per group moves the rows into
    the block, transposed, with each step's d floats as one void cell.
    """
    steps = len(scale)
    width = min(NOISE_STEPS, steps)
    block = np.empty((width, len(streams), dim))
    stage = np.empty((min(NOISE_GROUP, len(streams)), width * dim))
    cell = np.dtype((np.void, block.itemsize * dim))
    block_cells, stage_cells = block.view(cell)[..., 0], stage.view(cell)
    for lo in range(0, steps, NOISE_STEPS):
        b = min(NOISE_STEPS, steps - lo)
        for g in range(0, len(streams), NOISE_GROUP):
            group = streams[g:g + NOISE_GROUP]
            for row, rng in zip(stage, group):
                rng.standard_normal(out=row[:b * dim])
            block_cells[:b, g:g + len(group)] = stage_cells[:len(group), :b].T
        for j in range(b):
            row = block[j]
            row *= scale[lo + j]
            yield row


def _ensemble(advance, plan: TimePlan, cfg: SamplerConfig, n: int, dim: int, start_fn,
              chunk: int, noise_scale=None) -> list[Trajectory]:
    """n trajectories in batches of `chunk`; trajectory i draws from trial_rng(seed, i).

    Its stream gives the start (start_fn(rng), else standard normal) and then,
    for the SDE, its noise, step after step.  A batch's streams come from one
    trial_rngs call: their states and draws are trial_rng's, but their
    `bit_generator.seed_seq` is not a SeedSequence and cannot spawn.
    """
    out: list[Trajectory] = []
    for lo in range(0, n, chunk):
        m = min(lo + chunk, n) - lo
        starts = np.empty((m, dim))
        streams = trial_rngs(cfg.seed, lo, m)
        for i, rng in enumerate(streams):
            starts[i] = rng.standard_normal(dim) if start_fn is None else start_fn(rng)
        noise = None if noise_scale is None else _noise(streams, noise_scale, dim)
        del streams  # an ODE batch is done with them; an SDE batch's noise holds them
        try:
            rec_times, states, _ = _integrate(advance, plan, cfg, starts, noise)
        except DivergenceError as exc:
            raise DivergenceError(exc.step, t=exc.t, trajectory=lo + exc.trajectory) from None
        out.extend(Trajectory(times=rec_times, states=states[:, i, :],
                              endpoint=states[-1, i, :]) for i in range(m))
    return out


def ode_ensemble(drift: GuidedDrift, cfg: SamplerConfig, n: int,
                 start_fn=None) -> list[Trajectory]:
    """n deterministic trajectories integrated as one batch.

    Starts come from per-trajectory streams: start_fn(rng) when given, else
    standard normal draws.  start_fn's rng has trial_rng(seed, i)'s state, but
    its `bit_generator.seed_seq` is not a SeedSequence (see trial_rngs).
    """
    plan, advance = drift.stepper(cfg.start, cfg.end, cfg.steps)
    return _ensemble(advance, plan, cfg, n, drift.dim, start_fn, chunk=max(n, 1))


def sde_ensemble(model: ScoreModel, h_term, schedule: NoiseSchedule,
                 cfg: SamplerConfig, n: int, start_fn=None) -> list[Trajectory]:
    """n Euler-Maruyama runs of the reverse SDE, optionally with a correction h.

    Update: x_{t-dt} = x_t - [f - g^2 (s + h)] dt + g sqrt(dt) z; h_term may be
    None.  The drift part is the law of guidance.unguided_drift, or of
    h_guided_drift with h, run as guidance.score_drift's update
    x <- a x + b (s + h) with c = 1 and a new array each step, to which the
    step's noise is added in place.  Without h the score reads the plan's
    rows; with h it comes from model.score(x, t), which the exact h rescores.
    start_fn(rng), when given, draws each start, as in ode_ensemble.
    Trajectories run in batches of SDE_CHUNK.  Each draws its noise from its
    own stream NOISE_STEPS steps at a time, bitwise equal to one whole-path
    draw, so no batch holds more than NOISE_STEPS steps of noise.
    """
    plan = schedule.plan(cfg.start, cfg.end, cfg.steps)
    drift = (unguided_drift(model, schedule) if h_term is None
             else h_guided_drift(model, h_term, schedule))
    advance = score_drift(plan, 1.0, *drift.law(plan))
    noise_scale = (np.sqrt(plan.g2) * np.sqrt(plan.dt)).tolist()
    return _ensemble(advance, plan, cfg, n, model.dim, start_fn, SDE_CHUNK, noise_scale)


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
