"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter or configuration value is outside its legal range."""


class TimeRangeError(ValueError):
    """A diffusion time fell outside the schedule's clamped [t_min, t_max]."""


class SingularityError(ArithmeticError):
    """An operation hit a vanishing denominator (sigma_t = 0 or g^2 = 0)."""


class DivergenceError(RuntimeError):
    """A sampler state became non-finite at `step`, grid time `t`, in row `trajectory`."""

    def __init__(self, step: int, *, t: float | None = None, trajectory: int = 0):
        self.step = step
        self.t = t
        self.trajectory = trajectory
        where = "" if t is None else f" (t={t:g}, trajectory {trajectory})"
        super().__init__(f"non-finite state at step {step}{where}")


class TrainingError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite loss at step {step}")


class DegeneratePosteriorError(ValueError):
    """The conjugate posterior is not a proper Gaussian mixture."""
