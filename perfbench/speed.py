"""Reference kernels that take the machine's speed out of the timings.

On a shared machine the same htx operation runs up to 1.6 times faster or
slower from one minute to the next, so raw times from separate runs do not
compare.  Each workload therefore names a kernel: a fixed amount of numpy and
scipy work shaped like the workload's own arithmetic that calls no htx code.
The benchmark times it before the first operation and after every operation.
A slow phase of the machine lengthens the operation and the kernels around it
alike; a change to htx lengthens only the operation.  Dividing each
operation's time by the kernels' speed factor, kernel seconds over the
kernel's nominal seconds, keeps the second and removes the first.

`nominal_s` is roughly each kernel's median time on the machine the benchmark
was written on (2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17).  It fixes the
scale only: there, normalised figures come out near the raw ones, and only
ratios between normalised figures carry meaning.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular


class SolveKernel:
    """`reps` solves of a d x d triangular factor against d x n right-hand
    sides, each followed by an exp and a sum: the shape of one mixture score."""

    def __init__(self, d: int, n: int, reps: int, nominal_s: float):
        rng = np.random.default_rng(0)
        self.factor = np.tril(rng.uniform(0.5, 1.0, (d, d))) + d * np.eye(d)
        self.rhs = rng.standard_normal((d, n))
        self.reps = reps
        self.nominal_s = nominal_s

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(self.reps):
            z = solve_triangular(self.factor, self.rhs, lower=True)
            np.sum(np.exp(-0.5 * z * z))
        return time.perf_counter() - start


class TrainStepKernel:
    """`reps` Adam steps on the denoising loss of a fixed 2-64-64-2 tanh MLP at
    batch 256: draws, vp coefficients, forward, backward and the moment
    updates.  The weights are never updated, so every call does the same
    work."""

    def __init__(self, reps: int, nominal_s: float):
        self.rng = np.random.default_rng(0)
        self.data = self.rng.standard_normal((8192, 2))
        sizes = [4, 64, 64, 2]
        self.params = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.params += [self.rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in),
                            np.zeros(fan_out)]
        self.reps = reps
        self.nominal_s = nominal_s

    def __call__(self) -> float:
        rng, (w1, b1, w2, b2, w3, b3) = self.rng, self.params
        m1 = [np.zeros_like(p) for p in self.params]
        m2 = [np.zeros_like(p) for p in self.params]
        start = time.perf_counter()
        for step in range(self.reps):
            x0 = self.data[rng.integers(0, len(self.data), size=256)]
            t = rng.uniform(0.1, 1.0, size=256)
            eps = rng.standard_normal(x0.shape)
            a = np.exp(-0.25 * t * t * 19.9 - 0.05 * t)[:, None]
            s = np.sqrt(1.0 - a * a)
            h0 = np.concatenate([a * x0 + s * eps, np.concatenate([a, s], axis=1)], axis=1)
            h1 = np.tanh(h0 @ w1.T + b1)
            h2 = np.tanh(h1 @ w2.T + b2)
            resid = (h2 @ w3.T + b3 - eps) / s
            g3 = 2.0 * resid / (s * 256)
            g2 = (g3 @ w3) * (1.0 - h2 * h2)
            g1 = (g2 @ w2) * (1.0 - h1 * h1)
            grads = (g1.T @ h0, g1.sum(axis=0), g2.T @ h1, g2.sum(axis=0),
                     g3.T @ h2, g3.sum(axis=0))
            for i, g in enumerate(grads):
                m1[i] = 0.9 * m1[i] + 0.1 * g
                m2[i] = 0.999 * m2[i] + 0.001 * g * g
                (m1[i] / 0.5) / (np.sqrt(m2[i] / 0.5) + 1e-8)
        return time.perf_counter() - start


# fresh interpreters spend their set-up in Python calls on small objects
SETUP = SolveKernel(2, 1, 600, nominal_s=0.017)
