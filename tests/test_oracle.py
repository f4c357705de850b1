"""Gaussian-mixture oracle: densities, scores, degradations, posteriors."""

import gc
import weakref

import numpy as np
import pytest

from htx import oracle, solvers
from htx.config import (ExperimentConfig, build_density, build_operator, build_sampler,
                        build_schedule, build_weights, rbf_field_prior)
from htx.errors import ConfigError, DegeneratePosteriorError, TimeRangeError
from htx.oracle import (MEMO_CAP, DegradationOperator, GaussianMixture,
                        blur_1d, conditional_score, degrade, downsample, exact_h,
                        gm_logpdf, gm_pushforward, gm_sample, gm_score,
                        identity_operator, linear_gaussian_posterior, mask,
                        posterior_mean, shrink)
from htx.experiments import draw_trials, restore_trials, run_restore
from htx.guidance import h_guided_drift
from htx.schedules import NoiseSchedule
from htx.scorenet import mixture_score_model
from htx.solvers import EULER_MARUYAMA, SamplerConfig, sample_ode, sde_ensemble

# Frozen from a 50-digit mpmath evaluation of log(0.5 * 2 * phi(3)).
LOG_MIX_AT_ZERO = -5.4189385332046727
# t at which the default vp schedule reaches alpha = 0.6 (sigma = 0.8 exactly),
# found by brentq on the closed form.
T_ALPHA_06 = 0.31544916230690756


def standard_normal_2d():
    return GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])


def two_mode():
    return GaussianMixture(np.array([0.5, 0.5]),
                           np.array([[-3.0, 0.0], [3.0, 0.0]]),
                           np.stack([np.eye(2), np.eye(2)]))


class TestMixtureInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([0.5, 0.4]), np.zeros((2, 1)),
                            np.stack([np.eye(1), np.eye(1)]))

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)),
                            np.zeros((1, 2, 2)))

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov)

    def test_mixture_moments(self):
        gm = two_mode()
        np.testing.assert_allclose(gm.mean(), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(gm.covariance(), np.diag([10.0, 1.0]))


class TestSampling:
    def test_single_component_mean(self):
        rng = np.random.default_rng(42)
        xs = gm_sample(standard_normal_2d(), 10_000, rng)
        assert np.all(np.abs(xs.mean(axis=0)) < 3.0 / np.sqrt(10_000))

    def test_two_component_mean(self):
        rng = np.random.default_rng(7)
        xs = gm_sample(two_mode(), 100_000, rng)
        se = np.sqrt(np.diag(two_mode().covariance()) / 100_000)
        assert np.all(np.abs(xs.mean(axis=0)) < 3.0 * se)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            gm_sample(standard_normal_2d(), 0, np.random.default_rng(0))

    @staticmethod
    def three_in_four():
        rng = np.random.default_rng(12)
        roots = rng.standard_normal((3, 4, 4))
        covs = roots @ roots.transpose(0, 2, 1) + 0.5 * np.eye(4)
        return GaussianMixture(np.array([0.2, 0.5, 0.3]), 3.0 * rng.standard_normal((3, 4)),
                               covs)

    @pytest.mark.parametrize("which", ["default", "field", "three_in_four"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_draws_equal_the_gathered_reference(self, which, seed):
        # the reference is gm_sample's body before it drew through gm_place:
        # Generator.choice, then one gathered einsum over every row's factor
        gm = {"default": lambda: build_density(ExperimentConfig.from_dict({})),
              "field": lambda: rbf_field_prior(16, 3.0),
              "three_in_four": self.three_in_four}[which]()
        for n in (1, 7, 64, 8192, 20000):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = ref_rng.choice(gm.n_components, size=n, p=gm.weights)
            z = ref_rng.standard_normal((n, gm.dim))
            reference = gm.means[idx] + np.einsum("nij,nj->ni", gm._chols[idx], z)
            np.testing.assert_array_equal(gm_sample(gm, n, rng), reference)
            # htx train draws its net's initial weights from the same generator next
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPushforward:
    def test_unit_gaussian_is_vp_fixed_point(self):
        sch = NoiseSchedule.vp()
        for t in (0.1, 0.5, 1.0):
            pushed = gm_pushforward(standard_normal_2d(), sch, t)
            np.testing.assert_allclose(pushed.covs[0], np.eye(2), atol=1e-12)
            np.testing.assert_allclose(pushed.means[0], 0.0, atol=1e-15)

    def test_otfm_halfway(self):
        gm = GaussianMixture(np.array([1.0]), np.array([[2.0, -2.0]]), np.eye(2)[None])
        pushed = gm_pushforward(gm, NoiseSchedule.otfm(), 0.5)
        np.testing.assert_allclose(pushed.means[0], [1.0, -1.0])
        np.testing.assert_allclose(pushed.covs[0], 0.5 * np.eye(2))

    def test_weights_unchanged(self):
        pushed = gm_pushforward(two_mode(), NoiseSchedule.vp(), 0.7)
        np.testing.assert_array_equal(pushed.weights, two_mode().weights)

    def test_near_identity_at_t_min(self):
        sch = NoiseSchedule.vp()
        pushed = gm_pushforward(two_mode(), sch, sch.t_min)
        assert np.max(np.abs(pushed.means - two_mode().means)) < 10 * sch.t_min
        assert np.max(np.abs(pushed.covs - two_mode().covs)) < 200 * sch.t_min


class TestDensityAndScore:
    def test_standard_normal_logpdf(self):
        gm = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.eye(1)[None])
        np.testing.assert_allclose(gm_logpdf(gm, np.array([0.0])),
                                   -0.5 * np.log(2 * np.pi))
        np.testing.assert_allclose(gm_logpdf(gm, np.array([1.0])),
                                   -0.5 - 0.5 * np.log(2 * np.pi))

    def test_mixture_logpdf_frozen_value(self):
        gm = GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]),
                             np.stack([np.eye(1), np.eye(1)]))
        np.testing.assert_allclose(gm_logpdf(gm, np.array([0.0])),
                                   LOG_MIX_AT_ZERO, rtol=1e-14)

    def test_score_of_standard_normal(self):
        np.testing.assert_allclose(gm_score(standard_normal_2d(), np.array([2.0, -1.0])),
                                   [-2.0, 1.0])

    def test_score_vanishes_at_single_mode(self):
        gm = GaussianMixture(np.array([1.0]), np.array([[1.5, -0.5]]),
                             (0.7 * np.eye(2))[None])
        np.testing.assert_allclose(gm_score(gm, np.array([1.5, -0.5])), 0.0, atol=1e-15)

    def test_score_matches_finite_difference(self):
        # 200 random (x, t) pairs against central differences of the log density
        sch = NoiseSchedule.vp()
        rng = np.random.default_rng(3)
        gm = two_mode()
        h = 1e-5
        for _ in range(200):
            t = rng.uniform(sch.t_min, sch.t_max)
            x = rng.normal(scale=2.0, size=2)
            pushed = gm_pushforward(gm, sch, t)
            analytic = gm_score(pushed, x)
            fd = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (gm_logpdf(pushed, x + e) - gm_logpdf(pushed, x - e)) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_score_no_underflow_far_out(self):
        x = np.array([80.0, -75.0])
        s = gm_score(two_mode(), x)
        assert np.all(np.isfinite(s))

    def test_symmetry_axis_cancellation(self):
        gm = two_mode()
        s = gm_score(gm, np.array([0.0, 1.0]))
        np.testing.assert_allclose(s[0], 0.0, atol=1e-12)


def field_prior():
    return rbf_field_prior(16, 3.0, jitter=1e-6)


def direct_logpdf_and_score(gm, x):
    """Mixture log density and score at one point, each component solved directly."""
    logs, grads = [], []
    for w, mu, cov in zip(gm.weights, gm.means, gm.covs):
        diff = x - mu
        sol = np.linalg.solve(cov, diff)
        _, log_det = np.linalg.slogdet(cov)
        logs.append(np.log(w) - 0.5 * (gm.dim * np.log(2 * np.pi) + log_det + diff @ sol))
        grads.append(-sol)
    logs = np.array(logs)
    top = logs.max()
    resp = np.exp(logs - top)
    return top + np.log(resp.sum()), (resp / resp.sum()) @ np.array(grads)


def freshly_diffused(gm, sch, t):
    """The diffused mixture built and validated from its closed form."""
    a, s = sch.alpha_sigma(t)
    return GaussianMixture(gm.weights, a * gm.means, a * a * gm.covs + s * s * np.eye(gm.dim))


def one_component_2d():
    return GaussianMixture(np.array([1.0]), np.array([[1.5, -0.5]]),
                           np.array([[[2.0, 0.6], [0.6, 0.5]]]))


class TestSingleComponentScore:
    """A one-component score skips the responsibilities, which are all exactly 1."""

    @pytest.mark.parametrize("prior", [field_prior, one_component_2d])
    @pytest.mark.parametrize("kind, t", [("vp", 1.0), ("vp", 0.3), ("vp", 1e-3),
                                         ("otfm", 0.9), ("otfm", 0.3), ("otfm", 1e-3)])
    @pytest.mark.parametrize("n", [None, 7])
    def test_equals_responsibility_weighted_formula(self, prior, kind, t, n):
        gm = prior()
        pushed = gm_pushforward(gm, getattr(NoiseSchedule, kind)(), t)
        rng = np.random.default_rng(5)
        x = 2.0 * rng.standard_normal(gm.dim if n is None else (n, gm.dim))
        logs, u = oracle._log_terms(pushed, np.atleast_2d(x), pushed._basis_means,
                                    pushed._evals, pushed._log_norms)
        resp = np.exp(logs - logs.max(axis=0))
        resp /= resp.sum(axis=0)
        expected = (pushed._blocks.T @ resp * u).T @ pushed._basis.T
        np.testing.assert_array_equal(gm_score(pushed, x), expected[0] if n is None else expected)

    def test_far_out_point_scores_finite(self):
        # the squared Mahalanobis distance overflows here; the linear score does not
        gm, sch, t = one_component_2d(), NoiseSchedule.vp(), 0.3
        a, s = sch.alpha_sigma(t)
        x = 1e200 * np.array([0.6, -0.8])
        cov_t = a * a * gm.covs[0] + s * s * np.eye(2)
        score = gm_score(gm_pushforward(gm, sch, t), x)
        assert np.all(np.isfinite(score))
        np.testing.assert_allclose(score, -np.linalg.solve(cov_t, x - a * gm.means[0]),
                                   rtol=1e-12)


def _rowwise_log_terms(gm, xs, basis_means, evals, log_norms):
    """The score kernel's log terms in the row-wise (n, K d) layout: the reference
    the feature-major kernel must match bit for bit."""
    z = xs @ gm._basis
    np.subtract(basis_means, z, out=z)
    u = z / evals
    z *= u
    return log_norms[:, None] - 0.5 * (gm._blocks @ z.T), u


def _rowwise_score(gm, xs, basis_means, evals, log_norms):
    if gm.n_components == 1:
        u = xs @ gm._basis
        np.subtract(basis_means, u, out=u)
        u /= evals
        return u @ gm._basis.T
    resp, u = _rowwise_log_terms(gm, xs, basis_means, evals, log_norms)
    resp -= resp.max(axis=0)
    np.exp(resp, out=resp)
    resp /= resp.sum(axis=0)
    u *= resp.T @ gm._blocks
    return u @ gm._basis.T


def random_mixture(k, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, k)
    root = rng.standard_normal((k, d, d))
    return GaussianMixture(w / w.sum(), 2.0 * rng.standard_normal((k, d)),
                           root @ root.transpose(0, 2, 1) + 0.5 * np.eye(d))


class TestFeatureMajorKernel:
    """The feature-major (K d, n) score kernel gives the bits of a row-wise one."""

    @staticmethod
    def _check(gm, n):
        x = 3.0 * np.random.default_rng(n).standard_normal((n, gm.dim))
        own = (gm._basis_means, gm._evals, gm._log_norms)
        got = gm_score(gm, x)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, _rowwise_score(gm, x, *own))
        np.testing.assert_array_equal(gm_score(gm, x[0]), _rowwise_score(gm, x[:1], *own)[0])
        plan = NoiseSchedule.vp().plan(1.0, 0.25, 20)
        rows = oracle.plan_rows(gm, plan)
        score = oracle.planned_score(gm, plan)
        for k in (0, 9, 19):
            log_norms = None if rows[2] is None else rows[2][k]
            np.testing.assert_array_equal(
                score(x, k), _rowwise_score(gm, x, rows[0][k], rows[1][k], log_norms))

    @pytest.mark.parametrize("n", [1, 7, 2000, 10_000])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scores_equal_rowwise_kernel(self, d, k, n):
        self._check(random_mixture(k, d, seed=10 * d + k), n)

    @pytest.mark.parametrize("n", [1, 7, 2000, 10_000])
    def test_field_scores_equal_rowwise_kernel(self, n):
        self._check(field_prior(), n)

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_field_logpdf_matches_rowwise_kernel(self, n):
        gm = field_prior()
        x = np.random.default_rng(3).standard_normal((n, gm.dim))
        logs, _ = _rowwise_log_terms(gm, x, gm._basis_means, gm._evals, gm._log_norms)
        top = logs.max(axis=0)
        want = top + np.log(np.exp(logs - top).sum(axis=0))
        np.testing.assert_allclose(gm_logpdf(gm, x), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("x_shape", [(2,), (7, 2)])
    @pytest.mark.parametrize("x0_shape", [(2,), (7, 2)])
    def test_conditional_score_equals_broadcast_formula(self, x0_shape, x_shape):
        rng = np.random.default_rng(4)
        x, x0 = rng.standard_normal(x_shape), rng.standard_normal(x0_shape)
        sch = NoiseSchedule.vp()
        a, s = sch.alpha_sigma(0.4)
        got = conditional_score(x, x0, sch, 0.4)
        np.testing.assert_array_equal(got, (a * x0 - x) / (s * s))
        assert got.shape == np.broadcast_shapes(x0_shape, x_shape)


class TestEigenbasisOracle:
    @pytest.mark.parametrize("prior", [two_mode, field_prior])
    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 1e-2, 1e-3])
    def test_pushed_matches_direct_solve(self, prior, t):
        sch = NoiseSchedule.vp()
        gm = prior()
        pushed = gm_pushforward(gm, sch, t)
        ref = freshly_diffused(gm, sch, t)
        rng = np.random.default_rng(11)
        xs = np.vstack([gm_sample(ref, 20, rng), 2.0 * rng.standard_normal((5, gm.dim))])
        batch = zip(gm_logpdf(pushed, xs), gm_score(pushed, xs))
        for x, batched in zip(xs, batch):
            ref_lp, ref_score = direct_logpdf_and_score(ref, x)
            for lp, score in (batched, (gm_logpdf(pushed, x), gm_score(pushed, x))):
                assert abs(lp - ref_lp) <= 1e-10 * max(1.0, abs(ref_lp))
                assert np.linalg.norm(score - ref_score) <= 1e-10 * np.linalg.norm(ref_score)

    @pytest.mark.parametrize("prior", [two_mode, field_prior])
    def test_pushed_is_a_complete_mixture(self, prior):
        sch = NoiseSchedule.vp()
        gm = prior()
        pushed = gm_pushforward(gm, sch, 0.3)
        ref = freshly_diffused(gm, sch, 0.3)
        np.testing.assert_array_equal(pushed.weights, ref.weights)
        np.testing.assert_array_equal(pushed.means, ref.means)
        np.testing.assert_array_equal(pushed.covs, ref.covs)
        np.testing.assert_array_equal(pushed.mean(), ref.mean())
        np.testing.assert_array_equal(pushed.covariance(), ref.covariance())
        np.testing.assert_array_equal(gm_sample(pushed, 64, np.random.default_rng(4)),
                                      gm_sample(ref, 64, np.random.default_rng(4)))

    def test_pushforward_composes(self):
        # pushing a pushed mixture reuses the basis it inherited
        sch = NoiseSchedule.otfm()
        gm = field_prior()
        twice = gm_pushforward(gm_pushforward(gm, sch, 0.4), sch, 0.2)
        direct = freshly_diffused(freshly_diffused(gm, sch, 0.4), sch, 0.2)
        np.testing.assert_array_equal(twice.covs, direct.covs)
        x = np.linspace(-1.0, 1.0, gm.dim)
        ref_lp, ref_score = direct_logpdf_and_score(direct, x)
        assert abs(gm_logpdf(twice, x) - ref_lp) <= 1e-10 * abs(ref_lp)
        assert np.linalg.norm(gm_score(twice, x) - ref_score) <= 1e-10 * np.linalg.norm(ref_score)


def _exact_h_runs(gm, sch):
    """Endpoints of an exact-h sample_ode run and an sde_ensemble on (gm, sch)."""
    model = mixture_score_model(gm, sch)
    y = np.array([2.5, -0.5])

    def h(x, t):
        return exact_h(x, y, gm, sch, t)
    ode = sample_ode(h_guided_drift(model, h, sch), SamplerConfig(steps=120),
                     x_start=np.array([0.3, -1.2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "SDE_CHUNK", 4)
        paths = sde_ensemble(model, h, sch, SamplerConfig(steps=120, solver=EULER_MARUYAMA,
                                                          seed=4, record_every=40), 6)
    return [ode.endpoint, *(p.states for p in paths)]


class TestPushforwardMemo:
    @pytest.mark.parametrize("prior", [two_mode, field_prior])
    @pytest.mark.parametrize("kind", ["vp", "otfm"])
    def test_memoised_equals_unmemoised(self, prior, kind):
        # a 0-d array t bypasses both memos and runs the construction afresh
        sch = NoiseSchedule.vp() if kind == "vp" else NoiseSchedule.otfm()
        gm = prior()
        for visit in range(2):
            for t in np.linspace(sch.t_max, sch.t_min, 50).tolist():
                pushed, fresh = gm_pushforward(gm, sch, t), gm_pushforward(gm, sch, np.array(t))
                for name in ("weights", "means", "covs", "_evals", "_basis_means", "_log_norms"):
                    np.testing.assert_array_equal(getattr(pushed, name), getattr(fresh, name))
        assert len(gm._pushforwards) == 50
        a, s = sch.alpha_sigma(0.5)
        np.testing.assert_array_equal(gm_pushforward(gm, sch, 0.5).covs,
                                      a * a * gm.covs + s * s * np.eye(gm.dim))

    def test_warm_objects_reproduce_fresh_runs(self):
        sch, gm = NoiseSchedule.vp(), two_mode()
        first = _exact_h_runs(gm, sch)
        assert gm._pushforwards
        for warm, fresh in zip(_exact_h_runs(gm, sch),
                               _exact_h_runs(two_mode(), NoiseSchedule.vp())):
            np.testing.assert_array_equal(warm, fresh)
        for again, fresh in zip(_exact_h_runs(gm, sch), first):
            np.testing.assert_array_equal(again, fresh)

    def test_restore_arms_on_warm_objects_match_fresh_ones(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": {"trials": 6, "seed": 2},
            "density": {"kind": "gaussian_field", "cells": 8},
            "sampler": {"steps": 80}})

        def arm(gm, sch, weights):
            op = build_operator(cfg, gm.dim)
            trials = draw_trials(gm, op, 6, 2)
            columns = restore_trials(gm, sch, build_sampler(cfg, sch), trials, weights)
            return {key: column.tolist() for key, column in columns.items()}
        # run_restore runs both arms on one mixture and schedule; a planned arm
        # reads the plan's rows and leaves no memo behind for the next arm
        record = run_restore(cfg)
        gm, sch = build_density(cfg), build_schedule(cfg)
        warm_guided = arm(gm, sch, build_weights(cfg))
        assert not gm._pushforwards
        warm_unguided = arm(gm, sch, None)
        fresh_guided = arm(build_density(cfg), build_schedule(cfg), build_weights(cfg))
        fresh_unguided = arm(build_density(cfg), build_schedule(cfg), None)
        assert warm_guided == fresh_guided and warm_unguided == fresh_unguided
        for columns, ref in ((record.per_trial["guided"], fresh_guided),
                             (record.per_trial["unguided"], fresh_unguided)):
            assert {k: columns[k] for k in ref} == ref

    def test_memo_is_bounded(self):
        sch, gm = NoiseSchedule.vp(), standard_normal_2d()
        for t in np.linspace(sch.t_min, sch.t_max, MEMO_CAP + 10).tolist():
            gm_pushforward(gm, sch, t)
            assert len(gm._pushforwards) <= MEMO_CAP
        assert gm_pushforward(gm, sch, sch.t_max) is gm_pushforward(gm, sch, sch.t_max)

    def test_memoised_arrays_are_read_only(self):
        pushed = gm_pushforward(two_mode(), NoiseSchedule.vp(), 0.4)
        for arr in (pushed.means, pushed.covs, pushed._evals, pushed._basis_means,
                    pushed._log_norms):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_used_mixture_is_freed_without_gc(self):
        # nothing links a diffused mixture back to its parent, so no cycle keeps
        # the parent, its memo or its pushforwards alive once the caller lets go
        gc.disable()
        try:
            sch, gm = NoiseSchedule.vp(), two_mode()
            _exact_h_runs(gm, sch)
            pushed = gm_pushforward(gm, sch, 0.5)
            pushed.covs, pushed._chols  # noqa: B018 -- form the lazy arrays too
            refs = [weakref.ref(gm), weakref.ref(pushed)]
            del gm, pushed
            assert [ref() for ref in refs] == [None, None]
            # the score slot, filled last by the pushed mixture, holds it weakly
            gm = two_mode()
            pushed = gm_pushforward(gm, sch, 0.5)
            gm_score(gm, np.array([0.3, -1.2]))
            gm_score(pushed, np.array([[0.3, -1.2], [1.0, 2.0]]))
            assert gm._score_slot[0] is not None
            refs = [weakref.ref(gm), weakref.ref(pushed)]
            del gm, pushed
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestScoreSlot:
    """gm_score's one-entry slot returns what a slot-free evaluation returns."""

    @staticmethod
    def _fresh(make, x, sch=None, t=None):
        # a new parent has an empty slot of its own; the copy of x is never scored again
        gm = make() if sch is None else gm_pushforward(make(), sch, t)
        return gm_score(gm, np.array(x, copy=True))

    @pytest.mark.parametrize("x", [np.array([0.3, -1.2]),
                                   np.array([[0.3, -1.2], [2.0, 0.5], [-4.0, 1.0]])])
    def test_repeat_call_and_mutated_result(self, x):
        gm = two_mode()
        first = gm_score(gm, x)
        again = gm_score(gm, x)
        np.testing.assert_array_equal(again, self._fresh(two_mode, x))
        np.testing.assert_array_equal(first, again)
        again[...] = 99.0
        first[...] = -99.0
        np.testing.assert_array_equal(gm_score(gm, x), self._fresh(two_mode, x))

    def test_state_mutated_in_place(self):
        gm, x = two_mode(), np.array([0.3, -1.2])
        gm_score(gm, x)
        x[0] += 0.5
        np.testing.assert_array_equal(gm_score(gm, x), self._fresh(two_mode, x))

    def test_shape_reassigned_in_place(self):
        gm, x = two_mode(), np.array([0.3, -1.2])
        assert gm_score(gm, x).shape == (2,)
        x.shape = (1, 2)
        out = gm_score(gm, x)
        assert out.shape == (1, 2)
        np.testing.assert_array_equal(out, self._fresh(two_mode, x))

    def test_equal_copy_and_list_input(self):
        gm, x = two_mode(), np.array([0.3, -1.2])
        copy = x.copy()
        gm_score(gm, x)
        np.testing.assert_array_equal(gm_score(gm, copy), self._fresh(two_mode, x))
        np.testing.assert_array_equal(gm_score(gm, x.tolist()), self._fresh(two_mode, x))
        assert gm._score_slot[0][1] is copy  # a list bypasses the slot

    def test_grid_times_and_pushforwards_of_one_parent(self):
        gm, vp, otfm = field_prior(), NoiseSchedule.vp(), NoiseSchedule.otfm()
        x = np.random.default_rng(1).standard_normal((4, gm.dim))
        at = [(vp, 0.3), (vp, 0.7), (otfm, 0.3), (None, None)]
        pushed = [gm if sch is None else gm_pushforward(gm, sch, t) for sch, t in at]
        fresh = [self._fresh(field_prior, x, sch, t) for sch, t in at]
        assert all(p._score_slot is gm._score_slot for p in pushed)
        for _ in range(2):
            for p, ref in zip(pushed, fresh):
                np.testing.assert_array_equal(gm_score(p, x), ref)
                np.testing.assert_array_equal(gm_score(p, x), ref)

    def test_unrelated_mixtures_alternate(self):
        a, b, x = two_mode(), standard_normal_2d(), np.array([0.3, -1.2])
        for _ in range(3):
            np.testing.assert_array_equal(gm_score(a, x), self._fresh(two_mode, x))
            np.testing.assert_array_equal(gm_score(b, x), self._fresh(standard_normal_2d, x))


class TestConditionalScoreAndExactH:
    def test_conditional_score_example(self):
        sch = NoiseSchedule.vp()
        out = conditional_score(np.zeros(2), np.array([1.0, 0.0]), sch, T_ALPHA_06)
        np.testing.assert_allclose(out, [0.9375, 0.0], rtol=1e-9)

    def test_conditional_score_vanishes_at_kernel_mean(self):
        sch = NoiseSchedule.vp()
        a, _ = sch.alpha_sigma(0.4)
        x0 = np.array([2.0, -1.0])
        np.testing.assert_allclose(conditional_score(a * x0, x0, sch, 0.4), 0.0,
                                   atol=1e-12)

    def test_exact_h_unit_gaussian_example(self):
        # pushforward of N(0, I) is N(0, I), so h = (alpha y - x)/sigma^2 + x
        sch = NoiseSchedule.vp()
        h = exact_h(np.array([0.5, 0.0]), np.array([1.0, 0.0]),
                    standard_normal_2d(), sch, T_ALPHA_06)
        np.testing.assert_allclose(h, [0.65625, 0.0], rtol=1e-9)

    def test_exact_h_matches_finite_difference(self):
        # d/dx log p(x0 = y | x_t) assembled from closed-form Gaussians
        sch = NoiseSchedule.vp()
        gm = two_mode()
        rng = np.random.default_rng(5)
        y = gm_sample(gm, 1, rng)[0]
        t = 0.6
        x = rng.normal(size=2)
        pushed = gm_pushforward(gm, sch, t)
        step = 1e-6

        def log_posterior(xx):
            return (gm_logpdf(GaussianMixture(np.array([1.0]), (sch.alpha_sigma(t)[0] * y)[None],
                                              (sch.alpha_sigma(t)[1] ** 2 * np.eye(2))[None]), xx)
                    - gm_logpdf(pushed, xx))

        fd = np.empty(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd[k] = (log_posterior(x + e) - log_posterior(x - e)) / (2 * step)
        np.testing.assert_allclose(exact_h(x, y, gm, sch, t), fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", ["vp", "otfm"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x_shape, y_shape", [((2,), (2,)), ((5, 2), (2,)),
                                                  ((5, 2), (5, 2))])
    def test_exact_h_is_kernel_score_minus_score(self, kind, k, x_shape, y_shape):
        """Bit for bit conditional_score - gm_score of the diffused mixture, on a
        memoised float time, a repeat of it and a 0-d array time, which no memo
        holds; a time outside the schedule's range raises TimeRangeError."""
        sch = getattr(NoiseSchedule, kind)()
        gm = random_mixture(k, 2, seed=k)
        rng = np.random.default_rng(len(x_shape) + 3 * len(y_shape))
        x, y = rng.standard_normal(x_shape), 2.0 * rng.standard_normal(y_shape)
        for t in (sch.t_min, 0.37, 0.37, np.array(0.61), sch.t_max):
            # a copy of x, so that the score slot cannot serve the reference
            expected = (conditional_score(x, y, sch, t)
                        - gm_score(gm_pushforward(gm, sch, t), x.copy()))
            got = exact_h(x, y, gm, sch, t)
            assert got.shape == np.broadcast_shapes(x_shape, y_shape)
            np.testing.assert_array_equal(got, expected)
        for t in (sch.t_max + 0.5, -0.5, float("nan")):
            with pytest.raises(TimeRangeError):
                exact_h(x, y, gm, sch, t)

    def test_bayes_identity_exact(self):
        sch = NoiseSchedule.vp()
        gm = two_mode()
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = rng.uniform(0.05, sch.t_max)
            x = rng.normal(scale=2.0, size=2)
            y = rng.normal(scale=2.0, size=2)
            lhs = exact_h(x, y, gm, sch, t) + gm_score(gm_pushforward(gm, sch, t), x)
            rhs = conditional_score(x, y, sch, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDegradations:
    def test_identity_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        y = np.array([1.0, -2.0, 3.0])
        pair = degrade(identity_operator(3), y, rng)
        np.testing.assert_array_equal(pair.coarse, y)
        assert pair.valid.all()

    def test_mask_semantics(self):
        rng = np.random.default_rng(0)
        pair = degrade(mask([1], 2), np.array([5.0, 7.0]), rng)
        np.testing.assert_array_equal(pair.coarse, [5.0, 5.0])
        np.testing.assert_array_equal(pair.valid, [True, False])

    def test_mask_first_coordinate(self):
        rng = np.random.default_rng(0)
        pair = degrade(mask({0}, 3), np.array([9.0, 1.0, 1.0]), rng)
        assert not pair.valid[0] and pair.valid[1] and pair.valid[2]
        np.testing.assert_array_equal(pair.coarse, [1.0, 1.0, 1.0])

    def test_shrink(self):
        rng = np.random.default_rng(0)
        pair = degrade(shrink(0.5, 2), np.array([2.0, 2.0]), rng)
        np.testing.assert_array_equal(pair.coarse, [1.0, 1.0])

    def test_blur_delta_kernel_limit(self):
        op = blur_1d(1e-9, 5)
        np.testing.assert_allclose(op.matrix, np.eye(5), atol=1e-15)

    def test_blur_rows_sum_to_one(self):
        op = blur_1d(2.0, 16)
        np.testing.assert_allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_downsample_example(self):
        op = downsample(2, 4)
        meas = op.measure(np.array([1.0, 3.0, 5.0, 7.0]))
        np.testing.assert_array_equal(meas, [2.0, 6.0])
        np.testing.assert_array_equal(op.lift(meas), [2.0, 2.0, 6.0, 6.0])

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            blur_1d(0.0, 8)
        with pytest.raises(ConfigError):
            downsample(3, 8)
        with pytest.raises(ConfigError):
            shrink(-1.0, 2)
        with pytest.raises(ConfigError):
            mask([0, 1], 2)

    def test_zero_row_requires_flag(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            DegradationOperator(bad, 0.0, np.eye(2), np.array([True, True]))

    def test_batched_degrade(self):
        rng = np.random.default_rng(1)
        ys = rng.normal(size=(6, 4))
        pair = degrade(downsample(2, 4), ys, rng)
        assert pair.coarse.shape == (6, 4)


class TestConjugatePosterior:
    def test_scalar_update(self):
        prior = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.eye(1)[None])
        post = linear_gaussian_posterior(prior, identity_operator(1, noise_std=1.0),
                                         np.array([2.0]))
        np.testing.assert_allclose(post.means[0], [1.0], atol=1e-12)
        np.testing.assert_allclose(post.covs[0], [[0.5]], atol=1e-12)

    def test_uninformative_limit(self):
        prior = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.eye(1)[None])
        post = linear_gaussian_posterior(prior, identity_operator(1, noise_std=1e6),
                                         np.array([2.0]))
        np.testing.assert_allclose(post.means[0], [0.0], atol=1e-9)
        np.testing.assert_allclose(post.covs[0], [[1.0]], atol=1e-9)

    def test_far_measurement_selects_component(self):
        prior = GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]),
                                np.stack([np.eye(1), np.eye(1)]))
        post = linear_gaussian_posterior(prior, identity_operator(1, noise_std=0.5),
                                         np.array([3.2]))
        # independent oracle: weight ratio = exp(logN(3.2; 3, 1.25) - logN(3.2; -3, 1.25))
        var = 1.0 + 0.25
        logratio = (-0.5 * (3.2 - 3.0) ** 2 / var) - (-0.5 * (3.2 + 3.0) ** 2 / var)
        expected = 1.0 / (1.0 + np.exp(-logratio))
        np.testing.assert_allclose(post.weights[1], expected, rtol=1e-10)
        assert post.weights[1] > 1.0 - 1e-6

    def test_kalman_mean_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        prior = GaussianMixture(np.array([1.0]), np.array([[0.5, -0.5]]), cov[None])
        op = shrink(0.7, 2, noise_std=0.3)
        meas = rng.normal(size=2)
        post = linear_gaussian_posterior(prior, op, meas)
        a = op.matrix
        gain = cov @ a.T @ np.linalg.inv(a @ cov @ a.T + 0.09 * np.eye(2))
        expected = prior.means[0] + gain @ (meas - a @ prior.means[0])
        np.testing.assert_allclose(post.means[0], expected, atol=1e-10)

    def test_importance_sampling_cross_check(self):
        rng = np.random.default_rng(13)
        prior = GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0, 0.0], [3.0, 0.0]]),
                                np.stack([np.eye(2), np.eye(2)]))
        op = blur_1d(1.0, 2, noise_std=0.5)
        y_true = gm_sample(prior, 1, rng)[0]
        meas = op.measure(y_true, rng)
        post = linear_gaussian_posterior(prior, op, meas)

        draws = gm_sample(prior, 100_000, rng)
        resid = meas - draws @ op.matrix.T
        logw = -0.5 * np.sum(resid ** 2, axis=1) / 0.25
        w = np.exp(logw - logw.max())
        w /= w.sum()
        is_mean = w @ draws
        ess = 1.0 / np.sum(w ** 2)
        se = np.sqrt(np.diag(post.covariance()) / ess)
        assert np.all(np.abs(is_mean - post.mean()) < 3 * se)

    def test_zero_noise_rejected(self):
        prior = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(DegeneratePosteriorError):
            linear_gaussian_posterior(prior, mask([0], 2), np.zeros(2))

    def test_underflowed_component_dropped(self):
        # the far mode's posterior weight is about exp(-1.6e4), exactly 0 in float64
        prior = GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]),
                                np.stack([1e-3 * np.eye(1)] * 2))
        post = linear_gaussian_posterior(prior, identity_operator(1, noise_std=0.01),
                                         np.array([3.0]))
        assert post.n_components == 1
        np.testing.assert_array_equal(post.weights, [1.0])
        np.testing.assert_allclose(post.means[0], [3.0], rtol=1e-12)


def _field():
    return rbf_field_prior(16, 3.0)


class TestBatchedPosterior:
    """posterior_mean over a batch against one linear_gaussian_posterior per row.

    Batching changes the order of floating-point operations, so rows agree to
    a relative 1e-12 (measured differences are about 1e-14), not bitwise.
    """

    @pytest.mark.parametrize("prior, op", [
        (two_mode, lambda: shrink(0.5, 2, noise_std=0.1)),
        (two_mode, lambda: blur_1d(0.5, 2, noise_std=0.3)),
        (_field, lambda: blur_1d(2.0, 16, noise_std=0.25)),
        (_field, lambda: downsample(2, 16, noise_std=0.25)),  # m < d
    ], ids=["two_mode-shrink", "two_mode-blur", "field-blur", "field-downsample"])
    def test_matches_per_row_posterior(self, prior, op):
        gm, op = prior(), op()
        rng = np.random.default_rng(5)
        meas = op.measure(gm_sample(gm, 40, rng), rng)
        batch = posterior_mean(gm, op, meas)
        reference = np.array([linear_gaussian_posterior(gm, op, ym).mean() for ym in meas])
        assert batch.shape == (40, gm.dim)
        # atol covers coordinates of a mean that sit near 0
        tol = dict(rtol=1e-12, atol=1e-12 * np.abs(reference).max())
        np.testing.assert_allclose(batch, reference, **tol)
        np.testing.assert_allclose(posterior_mean(gm, op, meas[0]), batch[0], **tol)

    def test_zero_noise_rejected(self):
        with pytest.raises(DegeneratePosteriorError):
            posterior_mean(standard_normal_2d(), mask([0], 2), np.zeros((3, 2)))

    @pytest.mark.parametrize("doc, match", [
        ({"operator": {"noise_std": 1e160}}, "noise variance overflows"),
        ({"density": {"kind": "gaussian_field", "variance": 2 ** 64, "jitter": 5.0}},
         "innovation covariance"),
        ({"density": {"kind": "gaussian_field", "jitter": 4.1973848737427287e+223}},
         "covariances must be positive definite")])
    def test_failed_factorisation_is_degenerate(self, doc, match):
        gm, op, _, _ = ExperimentConfig.from_dict(doc).built
        with pytest.raises(DegeneratePosteriorError, match=match):
            posterior_mean(gm, op, np.zeros((2, op.measurement_dim)))
        with pytest.raises(DegeneratePosteriorError, match=match):
            linear_gaussian_posterior(gm, op, np.zeros(op.measurement_dim))

    @pytest.mark.parametrize("meas", [np.zeros(3), np.zeros((4, 1)), np.zeros((2, 4, 2))])
    def test_wrong_measurement_shape_rejected(self, meas):
        op = shrink(0.5, 2, noise_std=0.1)
        with pytest.raises(ValueError, match="width 2"):
            posterior_mean(two_mode(), op, meas)
        with pytest.raises(ValueError, match="width 2"):
            linear_gaussian_posterior(two_mode(), op, meas)
