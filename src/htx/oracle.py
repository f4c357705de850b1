"""Closed-form ground truth used to test the sampler without any trained model.

Gaussian mixtures are closed under the forward diffusion x_t = alpha x_0 + sigma eps,
so the diffused density, its score, the endpoint-conditioned drift correction,
and the restoration posterior under a linear-Gaussian degradation are all exact.

Each component covariance is factored once, at construction, as
Sigma_k = V_k Lambda_k V_k^T; where the K covariances are bitwise equal (every
mixture `config.build_density` makes, verify's two-mode mixture, and any
one-component prior) one factorization serves them all.  The diffused
covariance alpha^2 Sigma_k + sigma^2 I is diagonal in the same basis, with
eigenvalues alpha^2 Lambda_k + sigma^2, so `gm_pushforward` only rescales and
the score and log density of any diffused mixture need no factorization.  The
Cholesky factor serves as the SPD check and for sampling, so draws do not
depend on the basis.

`_score` has two kernels, both feature-major: a batch x (n, d) is projected
as V^T x^T, so every row a kernel subtracts or divides by broadcasts down the
columns, every elementwise pass runs over rows of n contiguous entries, and
the score comes back C-ordered as u^T V^T.

- Shared covariance, one basis V.  With m_k = alpha V^T mu_k,
  e = alpha^2 Lambda + sigma^2, g_k = m_k / e and c_k = log w_k - m_k . g_k / 2,
  the log responsibility of component k at u0 = V^T x is g_k . u0 + c_k plus
  terms every component shares (the quadratic form in u0 and the
  log-determinant), which cancel in the softmax.  The kernel forms the (K, n)
  logits g u0 + c, their softmax r and u = (m^T r - u0) / e.  One component
  has r = 1 and skips the softmax: u = (m - u0) / e.
- Distinct covariances.  x is projected onto every V_k at once,
  z = [V_1 ... V_K]^T x^T (K d, n); the log terms log w_k N(x; mu_k, Sigma_k)
  are summed within each component by blocks (K, K d), and their softmax
  weights u_k = Lambda_k^-1 (V_k^T mu_k - z_k), spread with blocks^T r.

A product with one output row or column is a BLAS gemv, whose summation order
follows its operand's layout, so the kernels give those products (the log
density's sum within its one component, and m^T r and the map back for d = 1)
their operands row-wise; every result is then bitwise what a row-wise kernel
gives (the tests keep one per kernel as the reference).  With K >= 2 distinct
covariances at d >= 4, BLAS may pick another gemm kernel by layout and size,
and such a mixture's score can differ from the row-wise one in its last bits.

All mixture evaluations run in log space (max-shifted log-sum-exp) so
responsibilities never underflow for finite inputs.  The log density, and the
score of K >= 2 distinct covariances, square the Mahalanobis distance and
evaluate to nan at a point so far out that it overflows (|x| beyond about
1e150).  The shared kernel's logits are linear in x, so a K >= 2 shared score
stays finite until g_k . u0 overflows (|x| near 1e308 / |g|), or, for a mean
beyond about 1e154, where c_k is already -inf, at a point near that mean.  A
one-component score is linear in x and stays finite.

The kernel's rows of one time (`_score_rows`) are formed once: `gm_score`
reads a mixture's own, made with it (by `gm_pushforward` for a diffused one),
and `planned_score` those of each step of a `TimePlan`, formed by `plan_rows`
as whole arrays, bitwise the rows of each time, and split into per-step rows
on its first call; for K = 1, where the score is affine and diagonal in the
basis, it also hands the arrays to the solver's jump (`guidance.score_drift`),
so an arm that jumps every step never splits them.
`gm_pushforward`'s memo and the score slot thus serve only float-time
callers: `exact_h` and the drifts built on it.  A diffused mixture keeps the
(alpha, sigma) it was made from, and `exact_h` forms its kernel score from
them, so a time the memo holds computes no schedule coefficient.

`gm_score` keeps its last result in a one-entry slot, so a drift that scores
the same state twice in one evaluation (the model score s, then the exact
correction h = kernel score - s) computes it once.  A mixture and every
mixture pushed from it share one slot.  The slot holds the scored mixture
weakly (so it forms no reference cycle) and the state it scored strongly (so
no other array can take over its identity), and it hits only on the same
mixture and the same ndarray object whose shape, dtype and bytes are
unchanged since; a hit returns a copy of what the fresh evaluation returned,
so no caller can tell the slot is there.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import ConfigError, DegeneratePosteriorError, SingularityError
from .schedules import NoiseSchedule, TimePlan

_LOG_2PI = float(np.log(2.0 * np.pi))
# diffused mixtures kept per parent by gm_pushforward's memo (float-time callers
# only), above the longest grid in the package (2,000 steps)
MEMO_CAP = 4096


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted sum of Gaussians; weights sum to 1, covariances SPD.

    Besides the three fields, a mixture carries its eigenbasis with the K
    components side by side, so one matmul projects onto all of them:
    `_basis` (d, K d) is [V_1 ... V_K], `_evals` (K d,) is [Lambda_1 ...
    Lambda_K] and `_basis_means` (K d,) is [V_1^T mu_1 ... V_K^T mu_K].
    `_blocks` (K, K d) marks which of the K d columns belong to component k,
    so `_blocks @ v` sums v within each component, and `_log_norms` (K,)
    holds log w_k - (d log 2 pi + log det Sigma_k) / 2, made on first use.
    `_basis_t` and `_blocks_t` are the kernel's transposed views of the two,
    made once.  Where the covariances are bitwise equal, `_shared_basis_t` is
    the one V^T (d, d), else None.  `_score_rows` holds what the function of
    that name forms from the mixture's own eigen-rows.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray    # (K, d)
    covs: np.ndarray     # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        c = np.asarray(self.covs, dtype=float)
        if c.ndim == 2:
            c = c[None]
        if w.ndim != 1 or m.shape[0] != w.shape[0] or c.shape[:2] != (w.shape[0], m.shape[1]):
            raise ValueError("inconsistent mixture shapes")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        chols = _check_covariances(c)
        bits = np.ascontiguousarray(c).view(np.uint64)
        shared = bool(np.all(bits == bits[0]))
        evals, basis = np.linalg.eigh(c[:1] if shared else c)
        if np.any(evals <= 0):
            raise ValueError("covariances must be positive definite")
        k, d = m.shape
        if shared:
            evals, basis = np.repeat(evals, k, axis=0), np.repeat(basis, k, axis=0)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_log_weights", np.log(w))
        object.__setattr__(self, "_basis", basis.transpose(1, 0, 2).reshape(d, k * d))
        object.__setattr__(self, "_blocks", np.kron(np.eye(k), np.ones(d)))
        object.__setattr__(self, "_basis_t", self._basis.T)
        object.__setattr__(self, "_blocks_t", self._blocks.T)
        object.__setattr__(self, "_shared_basis_t", basis[0].T if shared else None)
        _set_eigenvalues(self, evals.ravel(), np.matmul(m[:, None, :], basis).ravel())

    @cached_property
    def _chols(self) -> np.ndarray:
        """Cholesky factors; made on first use for a mixture built by gm_pushforward."""
        return np.linalg.cholesky(self.covs)

    @cached_property
    def _log_norms(self) -> np.ndarray:
        """gm_logpdf's log-normalisers (K,), read-only; made on first use."""
        norms = _log_norm_row(self, self._evals)
        norms.flags.writeable = False
        return norms

    @cached_property
    def _pushforwards(self) -> dict:
        """gm_pushforward's memo: (schedule, float t) -> diffused mixture."""
        return {}

    @cached_property
    def _score_slot(self) -> list:
        """gm_score's last result, shared with every mixture pushed from this one."""
        return [None]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        mu = self.mean()
        second = np.einsum("k,kij->ij", self.weights, self.covs)
        second += np.einsum("k,ki,kj->ij", self.weights, self.means, self.means)
        return second - np.outer(mu, mu)


def _check_covariances(covs: np.ndarray, error=ValueError) -> np.ndarray:
    """Cholesky factors of covariances (K, d, d); `error` unless each is SPD."""
    if not np.allclose(covs, np.swapaxes(covs, 1, 2), atol=1e-12):
        raise error("covariances must be symmetric")
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise error("covariances must be positive definite") from exc


def _set_eigenvalues(gm: GaussianMixture, evals, basis_means) -> None:
    object.__setattr__(gm, "_evals", evals)
    object.__setattr__(gm, "_basis_means", basis_means)
    object.__setattr__(gm, "_score_rows", _score_rows(gm, basis_means, evals))


def _log_norm_row(gm: GaussianMixture, evals) -> np.ndarray:
    """log w_k - (d log 2 pi + log det) / 2 for one row of eigenvalues (K d,)."""
    return gm._log_weights - 0.5 * (gm.dim * _LOG_2PI + gm._blocks @ np.log(evals))


def _score_rows(gm: GaussianMixture, basis_means, evals):
    """The score kernel's rows for the eigen-rows basis_means and evals of gm
    diffused to one time, (K d,), or to each step of a plan, (steps, K d).

    With distinct covariances they are (basis_means, evals, log_norms), the
    log-normalisers taken row by row (a batched matmul sums in another order).
    With one shared covariance they are (m, e, g, c): the means m (..., K, d),
    the eigenvalues e (..., d) they share, the gains g = m / e and the logit
    offsets c_k = log w_k - m_k . g_k / 2 (..., K), with g and c None for K = 1.
    """
    k, d = gm.means.shape
    if gm._shared_basis_t is None:
        norms = (_log_norm_row(gm, evals) if evals.ndim == 1
                 else np.stack([_log_norm_row(gm, row) for row in evals]))
        return basis_means, evals, norms
    means, evals = basis_means.reshape(basis_means.shape[:-1] + (k, d)), evals[..., :d]
    if k == 1:
        return means, evals, None, None
    gains = means / evals[..., None, :]
    return means, evals, gains, gm._log_weights - 0.5 * np.add.reduce(means * gains, axis=-1)


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"expected trailing dimension {dim}, got {x.shape}")
    if x.ndim == 1:
        return x[None], True
    return x, False


def _log_terms(gm: GaussianMixture, xs: np.ndarray, basis_means, evals, log_norms):
    """log w_k N(x; mu_k, Sigma_k) for xs (n, d) as (K, n), and u = [u_1; ...; u_K]
    as (K d, n) with u_k = Lambda_k^-1 V_k^T (mu_k - x), in gm's eigenbasis with
    the eigen-rows of gm or of a mixture diffused from it.

    Feature-major, so each row-wise pass runs over n contiguous entries
    (module docstring)."""
    z = gm._basis_t @ xs.T
    np.subtract(basis_means[:, None], z, out=z)
    u = z / evals[:, None]
    z *= u
    if gm.n_components == 1:  # the sum is then a gemv, whose order follows z's layout
        z = np.asfortranarray(z)
    return log_norms[:, None] - 0.5 * (gm._blocks @ z), u


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Normalise logits (K, n) in place to responsibilities down each column, max-shifted.
    The reductions call their ufuncs, not the ndarray methods' Python wrappers."""
    logits -= np.maximum.reduce(logits, axis=0)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=0)
    return logits


def _score(gm: GaussianMixture, xs: np.ndarray, rows):
    """The mixture score at xs (n, d), C-ordered (n, d), from the kernel rows
    `_score_rows` of one time: in the shared basis V as V (m^T r - V^T x) / e,
    one component forming no responsibility, else as sum_k r_k V_k u_k
    (module docstring)."""
    # for d = 1, m^T r and the map back have one output row: gemvs, whose sums
    # follow their operand's layout, so they take it row-wise
    gemv = xs.shape[1] == 1
    basis_t = gm._shared_basis_t
    if basis_t is None:
        resp, u = _log_terms(gm, xs, *rows)
        u *= gm._blocks_t @ _softmax(resp)
        basis_t = gm._basis_t
    else:
        means, evals, gains, consts = rows
        u = basis_t @ xs.T
        if gains is None:
            centre = means.T
        else:
            logits = gains @ u
            logits += consts[:, None]
            resp = _softmax(logits)
            centre = (np.ascontiguousarray(resp.T) @ means).T if gemv else means.T @ resp
        np.subtract(centre, u, out=u)
        u /= evals[:, None]
    if gemv:
        return np.ascontiguousarray(u.T) @ basis_t
    return u.T @ basis_t


def gm_sample(gm: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. points: n uniforms pick components by weight, then n rows of
    normals are placed by `gm_place`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return gm_place(gm, rng.random(n), rng.standard_normal((n, gm.dim)))


def gm_place(gm: GaussianMixture, uniforms, normals) -> np.ndarray:
    """The points mu_k + L_k z that uniforms (n,) and normals z (n, d) pick and place.

    A uniform picks its component as `Generator.choice(p=w)` picks one from its
    one `random()`: `searchsorted(cumsum(w) / sum(w), side="right")`.  Each
    component's factor is broadcast to its rows, not gathered, so no (n, d, d)
    array is formed.
    """
    cdf = gm.weights.cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(uniforms, side="right")
    points = np.empty(normals.shape)
    for k in range(gm.n_components):
        rows = idx == k
        chol = np.broadcast_to(gm._chols[k], (np.count_nonzero(rows), gm.dim, gm.dim))
        points[rows] = gm.means[k] + np.einsum("nij,nj->ni", chol, normals[rows])
    return points


def gm_pushforward(gm: GaussianMixture, schedule: NoiseSchedule, t) -> GaussianMixture:
    """Mixture of x_t = alpha x_0 + sigma eps: means alpha mu_k, covs alpha^2 Sigma_k + sigma^2 I.

    The result keeps the parent's eigenbasis with eigenvalues alpha^2 Lambda_k + sigma^2,
    so nothing is refactored or revalidated: the invariants hold by construction.
    Its covariances are formed on first use.  For a float t the result is made
    once per (schedule, t) and kept on the parent, at most MEMO_CAP of them
    (the memo is cleared when full); its arrays are read-only because every
    later caller at that time shares them.
    """
    if not isinstance(t, float):
        return _pushforward(gm, schedule, t)
    memo = gm._pushforwards
    key = (schedule, t)
    pushed = memo.get(key)
    if pushed is None:
        pushed = _pushforward(gm, schedule, t)
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[key] = pushed
    return pushed


def _pushforward(gm: GaussianMixture, schedule: NoiseSchedule, t) -> GaussianMixture:
    a, s = schedule.alpha_sigma(t)
    pushed = object.__new__(_DiffusedMixture)
    object.__setattr__(pushed, "weights", gm.weights)
    object.__setattr__(pushed, "means", a * gm.means)
    object.__setattr__(pushed, "_parent_covs", gm.covs)
    object.__setattr__(pushed, "_alpha_sigma", (a, s))
    for name in ("_log_weights", "_basis", "_basis_t", "_blocks", "_blocks_t",
                 "_shared_basis_t", "_score_slot"):
        object.__setattr__(pushed, name, getattr(gm, name))
    _set_eigenvalues(pushed, (a * a) * gm._evals + s * s, a * gm._basis_means)
    for arr in (pushed.means, pushed._evals, pushed._basis_means, *pushed._score_rows):
        if arr is not None:  # a one-component mixture has no gains and offsets
            arr.flags.writeable = False
    return pushed


class _DiffusedMixture(GaussianMixture):
    """A mixture made by gm_pushforward; its covariances are formed on first use.

    It holds the parent's covariance array, never the parent, so a parent's
    memo of its pushforwards forms no reference cycle.
    """

    @cached_property
    def covs(self) -> np.ndarray:
        a, s = self._alpha_sigma
        covs = (a * a) * self._parent_covs + (s * s) * np.eye(self.dim)
        covs.flags.writeable = False
        return covs


def gm_logpdf(gm: GaussianMixture, x):
    """Exact mixture log density at x; x may be (d,) or (n, d)."""
    xs, single = _as_batch(x, gm.dim)
    logs, _ = _log_terms(gm, xs, gm._basis_means, gm._evals, gm._log_norms)
    top = np.maximum.reduce(logs, axis=0)
    lp = top + np.log(np.add.reduce(np.exp(logs - top), axis=0))
    return float(lp[0]) if single else lp


def gm_score(gm: GaussianMixture, x):
    """Gradient of gm_logpdf: sum_k r_k(x) Sigma_k^{-1} (mu_k - x) = sum_k r_k V_k u_k.

    An ndarray x goes through the mixture's score slot.
    """
    slot = gm._score_slot
    last = slot[0]
    if (last is not None and last[1] is x and last[0]() is gm and x.shape == last[2]
            and x.dtype == last[3] and x.tobytes() == last[4]):
        return last[5].copy()
    xs, single = _as_batch(x, gm.dim)
    score = _score(gm, xs, gm._score_rows)
    score = score[0] if single else score
    if isinstance(x, np.ndarray):
        slot[0] = (weakref.ref(gm), x, x.shape, x.dtype, x.tobytes(), score.copy())
    return score


def plan_rows(gm: GaussianMixture, plan: TimePlan):
    """The score kernel's rows (`_score_rows`) of gm pushed to each step, as
    gm_pushforward forms them, with one leading axis of steps."""
    a, s = plan.alpha[:, None], plan.sigma[:, None]
    return _score_rows(gm, a * gm._basis_means, (a * a) * gm._evals + s * s)


def planned_score(gm: GaussianMixture, plan: TimePlan):
    """score(x, k): the score of gm diffused to plan.times[k], read from plan_rows.

    For K = 1 the score is affine in x and diagonal in the eigenbasis V,
    s V = (alpha V^T mu - x V) / e_k, and score.eigen_rows holds (V, the
    (steps, d) rows alpha V^T mu, the (steps, d) rows e_k) for a solver to use.
    The per-step row tuples are formed on the first call, so a solver that
    jumps over every step never builds them.
    """
    steps = plan_rows(gm, plan)
    rows = []

    def score(x, k):
        if not rows:
            rows.extend(zip(*(repeat(None) if row is None else row for row in steps)))
        xs, single = _as_batch(x, gm.dim)
        out = _score(gm, xs, rows[k])
        return out[0] if single else out

    if gm.n_components == 1:
        score.eigen_rows = (gm._basis, steps[0][:, 0], steps[1])
    return score


def conditional_score(x, x0, schedule: NoiseSchedule, t):
    """Score of the forward kernel N(x; alpha x0, sigma^2 I): (alpha x0 - x) / sigma^2.

    One reference row x0 (d,) against a batch x (n, d) is tiled to (n, d) first,
    so the subtraction runs over whole contiguous operands, not over n short
    rows; the difference and the quotient are then formed in that array.
    """
    return _kernel_score(x, x0, *schedule.alpha_sigma(t))


def _kernel_score(x, x0, a, s):
    """conditional_score with the time's (alpha, sigma) given."""
    if (s == 0.0) if isinstance(s, float) else np.any(s == 0.0):
        raise SingularityError("conditional score undefined at sigma = 0")
    ax0, x = a * np.asarray(x0, dtype=float), np.asarray(x, dtype=float)
    if x.ndim != 2 or ax0.shape != x.shape[1:]:
        return (ax0 - x) / (s * s)
    diff = np.tile(ax0, (len(x), 1))
    np.subtract(diff, x, out=diff)
    diff /= s * s
    return diff


def exact_h(x, y, gm: GaussianMixture, schedule: NoiseSchedule, t):
    """Endpoint-conditioned drift correction grad log p(x_0 = y | x_t).

    By Bayes' rule this is the kernel score minus the marginal score; it is
    tractable here because the diffused mixture density is analytic.  The kernel
    score takes (alpha, sigma) from the diffused mixture of t (module docstring).
    """
    pushed = gm_pushforward(gm, schedule, t)
    return _kernel_score(x, y, *pushed._alpha_sigma) - gm_score(pushed, x)


def bridge_flow(x, y, schedule: NoiseSchedule, s, t):
    """The exact flow toward endpoint y from time s to time t, per coordinate:
    x_t = alpha_t y + (sigma_t / sigma_s) (x_s - alpha_s y).

    With the exact h (or lambda = 1 toward y) the drift is
    f - c g^2 (alpha y - x) / sigma^2, whatever the mixture: the prior drops out.
    This is its solution for the flow, c = 1/2.
    """
    a_s, sig_s = schedule.alpha_sigma(s)
    a_t, sig_t = schedule.alpha_sigma(t)
    y = np.asarray(y, dtype=float)
    return a_t * y + (sig_t / sig_s) * (np.asarray(x, dtype=float) - a_s * y)


def bridge_marginal(y, schedule: NoiseSchedule, t):
    """Mean alpha_t y and per-coordinate variance sigma_t^2 of the bridge toward y
    at time t: started from N(alpha_s y, sigma_s^2 I), the flow (`bridge_flow`)
    and the reverse SDE (c = 1) both have this law at every later t."""
    a, s = schedule.alpha_sigma(t)
    return a * np.asarray(y, dtype=float), s * s


# ---------------------------------------------------------------------------
# Linear degradations and their conjugate posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationOperator:
    """Linear forward map ym = A y + noise, with a lift back to data space.

    `lift` maps the m-dimensional measurement to d dimensions so the coarse
    sample can drive guidance; `valid` flags coordinates that carry measured
    information (False marks fill-in produced by the lift).
    """

    matrix: np.ndarray     # (m, d)
    noise_std: float
    lift_matrix: np.ndarray  # (d, m)
    valid: np.ndarray      # (d,) bool

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        lift = np.atleast_2d(np.asarray(self.lift_matrix, dtype=float))
        valid = np.asarray(self.valid, dtype=bool)
        m, d = a.shape
        if lift.shape != (d, m) or valid.shape != (d,):
            raise ValueError("inconsistent operator shapes")
        if self.noise_std < 0:
            raise ConfigError(f"operator.noise_std must be >= 0, got {self.noise_std!r}")
        zero_rows = ~np.any(a != 0.0, axis=1)
        if np.any(zero_rows):
            # all-zero output rows are only legal when they are flagged masked-out
            if m != d or np.any(valid[zero_rows]):
                raise ValueError("all-zero operator row without a masked flag")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "lift_matrix", lift)
        object.__setattr__(self, "valid", valid)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def measurement_dim(self) -> int:
        return self.matrix.shape[0]

    def measure(self, y, rng: np.random.Generator | None = None):
        """Apply A y + noise_std * z; y may be (d,) or (n, d)."""
        y = np.asarray(y, dtype=float)
        meas = y @ self.matrix.T
        if self.noise_std > 0:
            if rng is None:
                raise ValueError("rng required when noise_std > 0")
            meas = meas + self.noise_std * rng.standard_normal(meas.shape)
        return meas

    def lift(self, measurement):
        """Map a measurement back to data space."""
        return np.asarray(measurement, dtype=float) @ self.lift_matrix.T


@dataclass(frozen=True)
class PairedSample:
    """A fine sample with its lifted coarse counterpart.

    `measurement` keeps the raw m-dimensional observation so the conjugate
    posterior can condition on exactly what was measured.
    """

    fine: np.ndarray
    coarse: np.ndarray
    valid: np.ndarray
    measurement: np.ndarray


def degrade(op: DegradationOperator, y, rng: np.random.Generator) -> PairedSample:
    """Produce the coarse sample lift(A y + noise) with its validity mask."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != op.dim:
        raise ValueError(f"expected trailing dimension {op.dim}, got {y.shape}")
    meas = op.measure(y, rng)
    return PairedSample(fine=y, coarse=op.lift(meas), valid=op.valid.copy(), measurement=meas)


def identity_operator(dim: int, noise_std: float = 0.0) -> DegradationOperator:
    eye = np.eye(dim)
    return DegradationOperator(eye, noise_std, eye, np.ones(dim, dtype=bool))


def shrink(factor: float, dim: int, noise_std: float = 0.0) -> DegradationOperator:
    if factor <= 0:
        raise ConfigError(f"operator.factor must be positive for shrink, got {factor!r}")
    return DegradationOperator(factor * np.eye(dim), noise_std,
                               np.eye(dim), np.ones(dim, dtype=bool))


def blur_1d(kernel_std: float, grid_size: int, noise_std: float = 0.0) -> DegradationOperator:
    """Circular-free Gaussian blur on a 1-d grid; rows renormalized to sum 1."""
    if kernel_std <= 0 or grid_size < 1:
        raise ConfigError(f"blur needs operator.kernel_std > 0 and a grid of at least one "
                          f"cell, got {kernel_std!r} and {grid_size}")
    idx = np.arange(grid_size)
    a = np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / kernel_std) ** 2)
    a /= a.sum(axis=1, keepdims=True)
    return DegradationOperator(a, noise_std, np.eye(grid_size),
                               np.ones(grid_size, dtype=bool))


def downsample(factor: int, grid_size: int, noise_std: float = 0.0) -> DegradationOperator:
    """Average `factor` adjacent cells; lift replicates each cell back out."""
    if factor < 1 or grid_size < 1 or grid_size % factor != 0:
        raise ConfigError(f"operator.factor must be >= 1 and divide the grid size for "
                          f"downsample, got {factor!r} on {grid_size}")
    m = grid_size // factor
    a = np.zeros((m, grid_size))
    lift = np.zeros((grid_size, m))
    for i in range(m):
        a[i, i * factor:(i + 1) * factor] = 1.0 / factor
        lift[i * factor:(i + 1) * factor, i] = 1.0
    return DegradationOperator(a, noise_std, lift, np.ones(grid_size, dtype=bool))


def mask(indices, dim: int, noise_std: float = 0.0) -> DegradationOperator:
    """Erase the given coordinates; the lift fills each with its nearest kept one."""
    erased = np.zeros(dim, dtype=bool)
    erased[np.asarray(list(indices), dtype=int)] = True
    if erased.all():
        raise ConfigError("operator.indices cannot erase every coordinate")
    a = np.eye(dim)
    a[erased] = 0.0
    kept = np.flatnonzero(~erased)
    lift = np.zeros((dim, dim))
    for j in range(dim):
        src = j if not erased[j] else kept[np.argmin(np.abs(kept - j))]
        lift[j, src] = 1.0
    return DegradationOperator(a, noise_std, lift, ~erased)


def _kalman(gm: GaussianMixture, op: DegradationOperator, measurements):
    """Conjugate (Kalman) update of every component for a batch of measurements.

    measurements is (n, m).  Nothing but the residual depends on the
    measurement, so each component's innovation covariance, its Cholesky
    factor, the gain and the Joseph-form covariance are made once; one
    triangular solve against all n residuals gives the log marginal
    likelihoods and one matmul the n posterior means.  Returns the posterior
    weights (n, K), each row normalised by a max-shifted log-sum-exp, the
    means (n, K, d) and the covariances (K, d, d) that every row shares.
    """
    # the package's only scipy use: importing it here keeps `import htx`, and the
    # commands that form no posterior (train, sample, report), free of scipy
    from scipy.linalg import solve_triangular

    if op.noise_std <= 0:
        raise DegeneratePosteriorError("posterior needs noise_std > 0")
    a = op.matrix
    m = op.measurement_dim
    try:
        s2 = op.noise_std ** 2
    except OverflowError as exc:
        raise DegeneratePosteriorError(f"noise variance overflows at noise_std = "
                                       f"{op.noise_std!r}") from exc
    n, k_count = measurements.shape[0], gm.n_components
    log_w = np.empty((n, k_count))
    means = np.empty((n, k_count, gm.dim))
    covs = np.empty_like(gm.covs)
    for k in range(k_count):
        cross = a @ gm.covs[k]  # (m, d)
        try:
            chol = np.linalg.cholesky(cross @ a.T + s2 * np.eye(m))
        except np.linalg.LinAlgError as exc:
            raise DegeneratePosteriorError(f"innovation covariance of component {k} "
                                           f"is not positive definite") from exc
        resid = measurements - a @ gm.means[k]  # (n, m)
        z = solve_triangular(chol, resid.T, lower=True)
        log_w[:, k] = (gm._log_weights[k] - 0.5 * m * _LOG_2PI
                       - np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(z * z, axis=0))
        gain_t = solve_triangular(chol.T, solve_triangular(chol, cross, lower=True),
                                  lower=False)  # (m, d), the gain transposed
        means[:, k] = gm.means[k] + resid @ gain_t
        shrinkage = np.eye(gm.dim) - gain_t.T @ a
        cov = shrinkage @ gm.covs[k] @ shrinkage.T + s2 * (gain_t.T @ gain_t)
        covs[k] = 0.5 * (cov + cov.T)
    weights = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, means, covs


def linear_gaussian_posterior(gm: GaussianMixture, op: DegradationOperator,
                              measurement) -> GaussianMixture:
    """Exact posterior p(y | measurement) for a mixture prior and Gaussian noise.

    Each component gets the conjugate (Kalman) update; weights are reweighted
    by the component marginal likelihood of the measurement.  The covariance
    update uses the Joseph form to stay positive definite.  A component whose
    posterior weight underflows to exactly 0 is dropped from the result.  A
    failed factorization, or a kept covariance that fails the mixture's check,
    raises DegeneratePosteriorError, as in posterior_mean.
    """
    ym = np.asarray(measurement, dtype=float)
    if ym.shape != (op.measurement_dim,):
        raise ValueError(f"expected a measurement of width {op.measurement_dim}, "
                         f"got shape {ym.shape}")
    weights, means, covs = _kalman(gm, op, ym[None])
    keep = weights[0] > 0
    _check_covariances(covs[keep], DegeneratePosteriorError)
    return GaussianMixture(weights[0, keep], means[0, keep], covs[keep])


def posterior_mean(gm: GaussianMixture, op: DegradationOperator, measurements):
    """Conjugate posterior mean sum_k w_k m_k for one measurement (m,) or a batch (n, m).

    Every row is conditioned on the same per-component factorization, and
    the shared posterior covariances pass the check a GaussianMixture runs,
    once for the whole batch; a failed factorization or check raises
    DegeneratePosteriorError.
    """
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim not in (1, 2) or ys.shape[-1] != op.measurement_dim:
        raise ValueError(f"expected measurements of width {op.measurement_dim} as (m,) "
                         f"or (n, m), got shape {ys.shape}")
    weights, means, covs = _kalman(gm, op, np.atleast_2d(ys))
    _check_covariances(covs, DegeneratePosteriorError)
    mean = np.einsum("nk,nkd->nd", weights, means)
    return mean[0] if ys.ndim == 1 else mean
