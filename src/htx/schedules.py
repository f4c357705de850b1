"""Diffusion-time geometry: noise schedules and guidance weight schedules.

A noise schedule fixes the forward marginal x_t = alpha_t x_0 + sigma_t eps
through the coefficient pair (alpha_t, sigma_t).  Diffusion time runs over
(0, 1], and every schedule is clamped to an interval [t_min, t_max] inside it:

  vp:    alpha_t = exp(-t^2 (beta_max - beta_min) / 4 - t beta_min / 2),
         sigma_t = sqrt(1 - alpha_t^2),  with beta(t) = beta_min + t (beta_max - beta_min)
  otfm:  alpha_t = 1 - t,  sigma_t = t

Both families satisfy alpha decreasing, sigma increasing, alpha -> 1 and
sigma -> 0 as t -> 0.  The SDE coefficients follow from the pair:

  f(x, t) = (alpha'_t / alpha_t) x
  g^2(t)  = 2 sigma_t sigma'_t - 2 (alpha'_t / alpha_t) sigma_t^2

which reduces to g^2 = beta(t) for vp and g^2 = 2t / (1 - t) for otfm.

A sampler walks a `TimePlan` (`NoiseSchedule.plan`): every step's
coefficients, from one range check and one array evaluation of the grid,
bitwise equal to the float path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TimeRangeError

VP = "vp"
OTFM = "otfm"

POWER_OF_SIGMA = "power_of_sigma"
POWER_OF_TIME = "power_of_time"
CONSTANT = "constant"

_RANGE_SLACK = 1e-12  # absorbs float drift on time grids


@dataclass(frozen=True)
class TimePlan:
    """Coefficients of every step of a uniform Euler grid (`NoiseSchedule.plan`).

    Step k runs from times[k] to times[k + 1], dt[k] = times[k] - times[k + 1];
    the rows alpha, sigma, lad (alpha'/alpha) and g2 hold the schedule at times[k].
    The plan of a drift built by hand has no schedule and only the grid rows.
    """

    schedule: NoiseSchedule | None
    times: np.ndarray  # (steps + 1,), start to end
    dt: np.ndarray     # (steps,)
    alpha: np.ndarray | None = None
    sigma: np.ndarray | None = None
    lad: np.ndarray | None = None
    g2: np.ndarray | None = None
    _lists: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def row(self, name: str) -> list:
        """Row `name` as a list of floats, made on first use: steppers index it per step."""
        if name not in self._lists:
            self._lists[name] = getattr(self, name).tolist()
        return self._lists[name]

    def per_time(self, fn):
        """fn(x, t) as a function of (x, k) with t = times[k]."""
        times = self.row("times")
        return lambda x, k: fn(x, times[k])


@dataclass(frozen=True)
class NoiseSchedule:
    """Coefficient pair (alpha_t, sigma_t) with its drift and diffusion."""

    kind: str
    beta_min: float = 0.1
    beta_max: float = 20.0
    t_min: float = 1e-3
    t_max: float = 1.0

    def __post_init__(self):
        if self.kind not in (VP, OTFM):
            raise ConfigError(f"schedule.kind must be one of {[VP, OTFM]}, got {self.kind!r}")
        if self.kind == VP and not 0.0 < self.beta_min < self.beta_max:
            raise ConfigError(f"schedule.beta_min and schedule.beta_max need 0 < beta_min "
                              f"< beta_max for vp, got {self.beta_min!r} and {self.beta_max!r}")
        if not 0.0 < self.t_min < self.t_max <= 1.0:
            raise ConfigError(f"schedule.t_min and schedule.t_max need "
                              f"0 < t_min < t_max <= 1, got {self.t_min!r} and {self.t_max!r}")
        if self.kind == OTFM and self.t_max >= 1.0:
            raise ConfigError(f"schedule.t_max must be < 1 for otfm (alpha vanishes at "
                              f"t = 1), got {self.t_max!r}")
        if not self._alpha_sigma(self.t_min)[1] > 0.0:
            raise ConfigError(f"schedule.t_min = {self.t_min!r} is too small: "
                              f"sigma(t_min) rounds to 0")

    @classmethod
    def vp(cls, beta_min: float = 0.1, beta_max: float = 20.0,
           t_min: float = 1e-3, t_max: float = 1.0) -> "NoiseSchedule":
        return cls(VP, beta_min=beta_min, beta_max=beta_max, t_min=t_min, t_max=t_max)

    @classmethod
    def otfm(cls, t_min: float = 1e-3, t_max: float = 1.0 - 1e-3) -> "NoiseSchedule":
        return cls(OTFM, t_min=t_min, t_max=t_max)

    def _check_t(self, t):
        """Validate t against [t_min, t_max]; nan and +-inf fall outside it.

        A float (the solvers' grid times) is tested as a Python scalar; any
        other t goes through numpy.  A 0-d result comes back as a float.
        """
        lo, hi = self.t_min - _RANGE_SLACK, self.t_max + _RANGE_SLACK
        if isinstance(t, float):
            inside = lo <= t <= hi
        else:
            t = np.asarray(t, dtype=float)
            inside = bool(np.all(t >= lo)) and bool(np.all(t <= hi))
        if not inside:
            raise TimeRangeError(
                f"t outside [{self.t_min}, {self.t_max}] for {self.kind} schedule"
            )
        return t if isinstance(t, np.ndarray) and t.ndim else float(t)

    def plan(self, start: float, end: float, steps: int) -> TimePlan:
        """The TimePlan of linspace(start, end, steps + 1), the whole grid range-checked."""
        times = np.linspace(start, end, steps + 1)
        self._check_t(times)
        a, s, lad, _, g2 = self._evaluate(times[:-1])
        return TimePlan(self, times, times[:-1] - times[1:], a, s, lad, g2)

    def beta(self, t):
        """Instantaneous vp rate beta(t); linear in t."""
        if self.kind != VP:
            raise ConfigError("beta(t) is defined for the vp schedule only")
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def _evaluate(self, t) -> tuple:
        a, s = self._alpha_sigma(t)
        lad = self._log_alpha_dot(t)
        # at sigma = 0 the rows keep their inf and nan quietly: the guided drift
        # raises SingularityError there
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == VP:
                # sigma^2 = 1 - alpha^2  =>  sigma' = -alpha alpha' / sigma
                sd = -a * (a * lad) / s
            else:
                sd = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
            return a, s, lad, sd, 2.0 * s * sd - 2.0 * lad * s * s

    def _alpha_sigma(self, t):
        if self.kind == VP:
            a = np.exp(-0.25 * t * t * (self.beta_max - self.beta_min)
                       - 0.5 * t * self.beta_min)
            return a, np.sqrt(1.0 - a * a)
        return 1.0 - t, t

    def _log_alpha_dot(self, t):
        if self.kind == VP:
            return -0.5 * self.beta(t)
        return -1.0 / (1.0 - t)

    def alpha_sigma(self, t):
        """Return (alpha_t, sigma_t); accepts scalar or array t."""
        return self._alpha_sigma(self._check_t(t))

    def log_alpha_dot(self, t):
        """d(log alpha_t)/dt, the per-coordinate drift rate."""
        return self._log_alpha_dot(self._check_t(t))

    def sigma_dot(self, t):
        """d(sigma_t)/dt."""
        return self._evaluate(self._check_t(t))[3]

    def drift_f(self, x, t):
        """Forward drift f(x, t) = (alpha'_t / alpha_t) x."""
        return self.log_alpha_dot(t) * np.asarray(x, dtype=float)

    def diffusion_g2(self, t):
        """Squared diffusion g^2(t) = 2 sigma sigma' - 2 (alpha'/alpha) sigma^2."""
        return self._evaluate(self._check_t(t))[4]


@dataclass(frozen=True)
class WeightSchedule:
    """Guidance weight lambda in [0, 1] as a function of noise level or time.

    Families:
      power_of_sigma: lambda = sigma^a      (default; decays as sampling denoises)
      power_of_time:  lambda = t^a          (diffusion time runs over [0, 1])
      constant:       lambda = c            (c = 0 unguided, c = 1 fully pinned)
    """

    family: str
    exponent: float = 5.0
    constant: float = 1.0

    def __post_init__(self):
        if self.family not in (POWER_OF_SIGMA, POWER_OF_TIME, CONSTANT):
            raise ConfigError(f"guidance.family must be one of "
                              f"{[POWER_OF_SIGMA, POWER_OF_TIME, CONSTANT]}, got {self.family!r}")
        if self.exponent < 0:
            raise ConfigError(f"guidance.exponent must be >= 0, got {self.exponent!r}")
        if not 0.0 <= self.constant <= 1.0:
            raise ConfigError(f"guidance.constant must lie in [0, 1], got {self.constant!r}")

    def weight(self, sigma, t, exponent=None):
        """Evaluate lambda; power_of_sigma ignores t, power_of_time ignores sigma.

        `exponent` overrides the schedule's own and may be per-coordinate.
        """
        exponent = self._exponent(exponent)
        if self.family == CONSTANT:
            return self.constant
        lam = self._base(sigma, t) ** exponent
        if isinstance(lam, float):
            # np.clip costs more than the rest of the call on a scalar; this
            # clamp gives the same bits, keeping -0.0 and letting nan through
            return 0.0 if lam < 0.0 else 1.0 if lam > 1.0 else lam
        return np.clip(lam, 0.0, 1.0)

    def weight_row(self, sigmas: np.ndarray, times: np.ndarray, exponent=None) -> list:
        """[weight(s, t, exponent) for each step's s, t], bit for bit, as one pass.

        With a scalar exponent the row is range-checked once and each lambda is
        one Python-float power under weight's clamp (an array power rounds
        differently); an exponent map is weighed step by step.
        """
        exponent = self._exponent(exponent)
        if np.ndim(exponent):
            return [self.weight(s, t, exponent)
                    for s, t in zip(sigmas.tolist(), times.tolist())]
        if self.family == CONSTANT:
            return [self.constant] * len(sigmas)
        lams = [b ** exponent for b in self._base(sigmas, times).tolist()]
        return [0.0 if lam < 0.0 else 1.0 if lam > 1.0 else lam for lam in lams]

    def _exponent(self, exponent):
        """The exponent in force, the schedule's own unless overridden, once it is >= 0."""
        exponent = self.exponent if exponent is None else exponent
        if (exponent < 0 if isinstance(exponent, float)
                else np.any(np.asarray(exponent) < 0)):
            raise ConfigError("weight exponent must be >= 0")
        return exponent

    def _base(self, sigma, t):
        """The power's base, sigma or t by family, once it lies in [0, 1]."""
        if self.family == POWER_OF_SIGMA:
            if _outside_unit(sigma):
                raise ValueError("sigma outside [0, 1]")
            return sigma
        if _outside_unit(t):
            raise ValueError("t outside [0, 1]")
        return t


def _outside_unit(v) -> bool:
    """True if any of v lies below 0 or above 1 (+ slack); nan lies in neither.

    A float is compared as a Python scalar, anything else through numpy.
    """
    if isinstance(v, float):
        return v < 0 or v > 1 + _RANGE_SLACK
    return bool(np.any(v < 0) or np.any(v > 1 + _RANGE_SLACK))
