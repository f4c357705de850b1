"""A small trainable noise-prediction MLP and the parameterization algebra.

The network predicts the forward noise eps from (x_t, alpha_t, sigma_t); the
three standard views of a diffusion model are interchangeable:

  score    s = -eps / sigma_t
  velocity v = f(x, t) - g^2(t) s / 2     (the deterministic sampling drift)

Training minimizes the denoising objective in score-residual form,

  E || -eps_hat / sigma_t  -  (-eps / sigma_t) ||^2,

with x_t = alpha_t x_0 + sigma_t eps and t uniform on [t_min, t_max].

A training run (`train`) holds the parameters, their gradients and Adam's
two moments as vectors in weight-file order, each layer's array a view
(`_layer_views`), and one workspace: the two hidden activations, their
back-propagated gradients and their 1 - h^2 factors, each (batch, width).
Every step writes into them in the order of operations of fresh arrays, so
the curve and the parameters are bitwise those of a run that allocates per
step, and no step maps new pages.  A standalone `dsm_loss_grad_at` returns
fresh gradients, never views of a workspace.

Weight file layout (little endian):
  bytes 0..6    magic b"HTXNET1"
  byte  7       uint8 L = 4, the number of layer sizes
  next 4L bytes uint32 layer sizes [dim + 2, h1, h2, dim]
  rest          float64 parameters, alternating row-major W then b per layer,
                and nothing after them
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle
from .errors import ConfigError, SingularityError, TrainingError
from .schedules import NoiseSchedule, TimePlan

_MAGIC = b"HTXNET1"
# Adam: step size, moment decay rates, denominator floor
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpNet:
    """Two-hidden-layer tanh MLP mapping (x, alpha, sigma) -> predicted noise."""

    params: tuple  # (W1, b1, W2, b2, W3, b3)
    dim: int

    @classmethod
    def init(cls, dim: int, hidden: tuple[int, int] = (64, 64), *,
             rng: np.random.Generator) -> "MlpNet":
        sizes = [dim + 2, *hidden, dim]
        params = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            params.append(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in))
            params.append(np.zeros(fan_out))
        return cls(params=tuple(params), dim=dim)

    @property
    def sizes(self) -> list[int]:
        return [self.params[0].shape[1], *(w.shape[0] for w in self.params[::2])]

    def _features(self, x, t, schedule: NoiseSchedule):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a, s = schedule.alpha_sigma(t)
        cond = np.broadcast_to([a, s], (x.shape[0], 2))
        return np.concatenate([x, cond], axis=1)

    def forward(self, x, t, schedule: NoiseSchedule):
        """Predicted noise at (x, t); x may be (d,) or (n, d)."""
        single = np.asarray(x).ndim == 1
        *_, out = _layers(self.params, self._features(x, t, schedule))
        return out[0] if single else out


def _layers(params, h0, h1=None, h2=None):
    """Both tanh hidden activations and the output for input features h0.

    Each activation is formed in place in one array: h1 and h2 when given,
    else a fresh one.
    """
    w1, b1, w2, b2, w3, b3 = params
    h1 = np.matmul(h0, w1.T, out=h1)
    np.tanh(np.add(h1, b1, out=h1), out=h1)
    h2 = np.matmul(h1, w2.T, out=h2)
    np.tanh(np.add(h2, b2, out=h2), out=h2)
    return h1, h2, h2 @ w3.T + b3


def eps_to_score(eps, sigma):
    """s = -eps / sigma."""
    if np.any(np.asarray(sigma) == 0.0):
        raise SingularityError("score undefined at sigma = 0")
    return -np.asarray(eps, dtype=float) / sigma


def score_to_eps(score, sigma):
    """eps = -sigma * s."""
    return -np.asarray(score, dtype=float) * sigma


def score_to_velocity(score, x, t, schedule: NoiseSchedule):
    """Deterministic sampling drift v = f(x, t) - g^2(t) s / 2."""
    return schedule.drift_f(x, t) - 0.5 * schedule.diffusion_g2(t) * np.asarray(score, dtype=float)


def velocity_to_score(v, x, t, schedule: NoiseSchedule):
    """Inverse of score_to_velocity: s = 2 (f - v) / g^2."""
    g2 = schedule.diffusion_g2(t)
    if np.any(np.asarray(g2) == 0.0):
        raise SingularityError("score undefined where g^2 = 0")
    return 2.0 * (schedule.drift_f(x, t) - np.asarray(v, dtype=float)) / g2


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch: int = 256
    seed: int = 0

    def __post_init__(self):
        # steps = 0 is permitted as the degenerate no-op run
        if self.steps < 0 or self.batch < 1:
            raise ConfigError("need steps >= 0, batch >= 1")


def dsm_loss_grad_at(net: MlpNet, x0: np.ndarray, t: np.ndarray, eps: np.ndarray,
                     schedule: NoiseSchedule, *, _work=None):
    """Loss and exact parameter gradients for fixed draws (t, eps).

    Separating the stochastic draws from the differentiable computation lets
    finite differences check the gradients on identical inputs.  `_work`, from
    `_workspace`, receives the hidden activations, their back-propagated
    gradients and their 1 - h^2 factors, and a seventh entry, when given, the
    six parameter gradients; by default each is a fresh array.
    """
    h1, h2, g_h1, g_h2, d1, d2, *out = _work or (None,) * 6
    gw1, gb1, gw2, gb2, gw3, gb3 = out[0] if out else (None,) * 6
    a, s = schedule.alpha_sigma(t)
    a = a[:, None]
    s = s[:, None]
    xt = a * x0 + s * eps
    cond = np.concatenate([a, s], axis=1)
    h0 = np.concatenate([xt, cond], axis=1)
    h1, h2, pred = _layers(net.params, h0, h1, h2)
    _, _, w2, _, w3, _ = net.params

    n = x0.shape[0]
    resid = (pred - eps) / s
    loss = float(np.sum(resid * resid) / n)

    g_out = 2.0 * resid / (s * n)
    g_h2 = _backprop(g_out, w3, h2, g_h2, d2)
    g_h1 = _backprop(g_h2, w2, h1, g_h1, d1)
    return loss, (np.matmul(g_h1.T, h0, out=gw1), np.sum(g_h1, axis=0, out=gb1),
                  np.matmul(g_h2.T, h1, out=gw2), np.sum(g_h2, axis=0, out=gb2),
                  np.matmul(g_out.T, h2, out=gw3), np.sum(g_out, axis=0, out=gb3))


def _backprop(g_next, w_next, h, g_h=None, d=None):
    """(g_next @ w_next) * (1 - h * h), into g_h, with the factor formed in d."""
    g_h = np.matmul(g_next, w_next, out=g_h)
    d = np.multiply(h, h, out=d)
    np.subtract(1.0, d, out=d)
    return np.multiply(g_h, d, out=g_h)


def _workspace(net: MlpNet, batch: int) -> tuple:
    """dsm_loss_grad_at's six (batch, width) arrays for one training run."""
    widths = net.sizes[1:3] * 3  # h1, h2, g_h1, g_h2, d1, d2
    return tuple(np.empty((batch, w)) for w in widths)


def _layer_views(flat: np.ndarray, sizes) -> tuple:
    """(W1, b1, W2, b2, W3, b3) as reshaped views of `flat`, in weight-file order."""
    views, off = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = off + fan_out * fan_in
        views += [flat[off:end].reshape(fan_out, fan_in), flat[end:end + fan_out]]
        off = end + fan_out
    return tuple(views)


def dsm_loss_grad(net: MlpNet, batch: np.ndarray, schedule: NoiseSchedule,
                  rng: np.random.Generator, *, _work=None):
    """Draw (t, eps) for the batch, then evaluate loss and gradients."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[0] < 1:
        raise ValueError("batch must be non-empty")
    t = rng.uniform(schedule.t_min, schedule.t_max, size=batch.shape[0])
    eps = rng.standard_normal(batch.shape)
    return dsm_loss_grad_at(net, batch, t, eps, schedule, _work=_work)


def train(net: MlpNet, data: np.ndarray, cfg: TrainConfig, schedule: NoiseSchedule):
    """Adam on the denoising objective; returns (trained net, loss curve).

    The curve has one (step, loss) row every 100 steps and one for the
    trained net.  Identical (seed, config, data) reproduces it bitwise.  The
    steps write into vectors and a workspace made for this call (module
    docstring), bit for bit as fresh arrays would hold them.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < cfg.batch:
        raise ValueError("data size must be >= batch size")
    rng = np.random.default_rng(cfg.seed)
    theta = np.concatenate([np.ravel(p) for p in net.params])
    grad, moment1, moment2, tmp = (np.zeros_like(theta) for _ in range(4))
    trained = MlpNet(params=_layer_views(theta, net.sizes), dim=net.dim)
    work = (*_workspace(net, cfg.batch), _layer_views(grad, net.sizes))
    curve = []
    for step in range(cfg.steps):
        idx = rng.integers(0, data.shape[0], size=cfg.batch)
        loss, _ = dsm_loss_grad(trained, data[idx], schedule, rng, _work=work)
        if not np.isfinite(loss):
            raise TrainingError(step)
        if step % 100 == 0:
            curve.append([float(step), loss])
        scale1, scale2 = 1.0 - BETA1 ** (step + 1), 1.0 - BETA2 ** (step + 1)
        # Adam in whole-vector passes, each in the order of operations of m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g g and theta -= lr (m / scale1) / (sqrt(v / scale2) + eps)
        moment1 *= BETA1
        moment1 += np.multiply(grad, 1.0 - BETA1, out=tmp)
        moment2 *= BETA2
        moment2 += np.multiply(np.multiply(grad, 1.0 - BETA2, out=tmp), grad, out=tmp)
        np.sqrt(np.divide(moment2, scale2, out=tmp), out=tmp)
        np.divide(np.divide(moment1, scale1, out=grad), np.add(tmp, ADAM_EPS, out=tmp), out=grad)
        theta -= np.multiply(grad, LEARNING_RATE, out=grad)

    if cfg.steps > 0:
        final_rng = np.random.default_rng(cfg.seed + 1)
        loss, _ = dsm_loss_grad(trained, data[: cfg.batch], schedule, final_rng, _work=work)
        curve.append([float(cfg.steps), loss])
    return trained, np.asarray(curve)


def save_weights(net: MlpNet, path):
    """Persist the network in the flat little-endian format described above."""
    sizes = net.sizes
    body = np.concatenate([np.ravel(p) for p in net.params]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack(f"<B{len(sizes)}I", len(sizes), *sizes) + body.tobytes())


def load_weights(path) -> MlpNet:
    """Read a weight file, rejecting any blob that is not exactly one saved net."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read weight file {path}: {exc}") from exc
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ConfigError(f"not a weight file: bad magic in {path}")
    off = len(_MAGIC) + 1 + 4 * 4  # magic, L = 4, four uint32 sizes
    if len(blob) < off:
        raise ConfigError(f"{path}: truncated header")
    if blob[len(_MAGIC)] != 4:
        raise ConfigError(f"{path}: header must list 4 layer sizes [input, h1, h2, output]")
    sizes = struct.unpack_from("<4I", blob, len(_MAGIC) + 1)
    if min(sizes) < 1 or sizes[0] != sizes[-1] + 2:
        raise ConfigError(f"{path}: layer sizes {list(sizes)} need positive widths "
                          f"and input width dim + 2")
    expected = off + 8 * sum(out * (inp + 1) for inp, out in zip(sizes[:-1], sizes[1:]))
    if len(blob) != expected:
        problem = "truncated parameters" if len(blob) < expected else "trailing bytes"
        raise ConfigError(f"{path}: {problem}: {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=off).astype(float)
    return MlpNet(params=_layer_views(flat, sizes), dim=sizes[-1])


class ScoreModel:
    """Marginal-score evaluator exposing all three parameterizations."""

    def __init__(self, score_fn: Callable, schedule: NoiseSchedule, dim: int):
        self._score_fn = score_fn
        self.schedule = schedule
        self.dim = dim

    def score(self, x, t):
        return self._score_fn(x, t)

    def planned_score(self, plan: TimePlan):
        """score(x, k), the score at plan.times[k]."""
        return plan.per_time(self.score)

    def epsilon(self, x, t):
        _, s = self.schedule.alpha_sigma(t)
        return score_to_eps(self.score(x, t), s)

    def velocity(self, x, t):
        return score_to_velocity(self.score(x, t), x, t, self.schedule)


class _MixtureScoreModel(ScoreModel):
    """On a plan of its own schedule, the score reads the mixture's plan rows."""

    def __init__(self, gm: oracle.GaussianMixture, schedule: NoiseSchedule):
        def score_fn(x, t):
            return oracle.gm_score(oracle.gm_pushforward(gm, schedule, t), x)

        super().__init__(score_fn, schedule, gm.dim)
        self._gm = gm

    def planned_score(self, plan: TimePlan):
        if plan.schedule != self.schedule:
            return super().planned_score(plan)
        return oracle.planned_score(self._gm, plan)


def mixture_score_model(gm: oracle.GaussianMixture, schedule: NoiseSchedule) -> ScoreModel:
    """Exact score of the diffused mixture, as a drop-in model."""
    return _MixtureScoreModel(gm, schedule)


def net_score_model(net: MlpNet, schedule: NoiseSchedule) -> ScoreModel:
    """Trained-network score: s = -eps_hat / sigma."""

    def score_fn(x, t):
        _, s = schedule.alpha_sigma(t)
        return eps_to_score(net.forward(x, t, schedule), s)

    return ScoreModel(score_fn, schedule, net.dim)
