"""Guided drift assembly, weight boundaries, and the surrogate-error identity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from htx.errors import ConfigError
from htx.guidance import (GuidanceSpec, approx_h, approximation_error, guided_eps,
                          guided_epsilon_drift, guided_score_drift,
                          guided_velocity_drift, h_guided_drift, lambda_weights,
                          region_exponents, sdedit_start, unguided_drift)
from htx.oracle import (GaussianMixture, conditional_score, exact_h, gm_pushforward,
                        gm_sample, gm_score)
from htx.schedules import (CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME, NoiseSchedule,
                           TimePlan, WeightSchedule)
from htx.scorenet import ScoreModel, mixture_score_model
from htx.solvers import EULER_MARUYAMA, SamplerConfig, sde_ensemble, trial_rng

VP = NoiseSchedule.vp()
OTFM = NoiseSchedule.otfm()
T_ALPHA_06 = 0.31544916230690756  # vp time with alpha = 0.6, sigma = 0.8


def two_mode():
    return GaussianMixture(np.array([0.5, 0.5]),
                           np.array([[-3.0, 0.0], [3.0, 0.0]]),
                           np.stack([np.eye(2), np.eye(2)]))


class TestApproxH:
    def test_reduces_to_conditional_score_at_zero_score(self):
        out = approx_h(np.zeros(2), T_ALPHA_06, np.array([1.0, 0.0]),
                       np.zeros(2), VP)
        np.testing.assert_allclose(out, [0.9375, 0.0], rtol=1e-9)

    def test_vanishes_when_score_is_conditional(self):
        coarse = np.array([0.4, -0.2])
        t = 0.55
        x = np.array([1.0, 0.3])
        cond = conditional_score(x, coarse, VP, t)
        np.testing.assert_allclose(approx_h(x, t, coarse, cond, VP), 0.0, atol=1e-12)

    def test_exact_when_coarse_equals_fine(self):
        # with the oracle marginal score and coarse = fine, the surrogate is exact
        gm = two_mode()
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = rng.uniform(0.05, VP.t_max)
            x = rng.normal(scale=2.0, size=2)
            y = rng.normal(scale=2.0, size=2)
            score = gm_score(gm_pushforward(gm, VP, t), x)
            np.testing.assert_allclose(approx_h(x, t, y, score, VP),
                                       exact_h(x, y, gm, VP, t), atol=1e-12)


class TestErrorIdentity:
    def test_x_dependence_cancels_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = rng.uniform(0.05, VP.t_max)
            x, y, coarse = rng.normal(scale=2.0, size=(3, 2))
            lhs = np.linalg.norm(conditional_score(x, coarse, VP, t)
                                 - conditional_score(x, y, VP, t))
            rhs = approximation_error(t, y, coarse, VP)
            assert abs(lhs - rhs) < 1e-12

    def test_arithmetic_example(self):
        # alpha = 0.6, sigma = 0.8, gap norm 2 -> 0.6 / 0.64 * 2
        y = np.array([0.0, 0.0])
        coarse = np.array([2.0, 0.0])
        np.testing.assert_allclose(approximation_error(T_ALPHA_06, y, coarse, VP),
                                   1.875, rtol=1e-9)

    def test_zero_gap_for_all_t(self):
        y = np.array([1.0, -1.0])
        for t in (0.1, 0.5, 0.9):
            assert approximation_error(t, y, y, VP) == 0.0

    def test_strictly_decreasing_in_sigma(self):
        y = np.array([0.0, 0.0])
        coarse = np.array([1.0, 0.0])
        ts = np.linspace(0.05, VP.t_max, 60)
        vals = [approximation_error(t, y, coarse, VP) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_vanishes_at_full_noise(self):
        # vp at the horizon has sigma ~ 1 so the error is ~ alpha ~ 6.6e-3
        val = approximation_error(1.0, np.zeros(2), np.array([1.0, 0.0]), VP)
        assert val < 1e-2


class TestGuidedScoreDrift:
    def test_lambda_zero_is_unguided(self):
        gm = two_mode()
        model = mixture_score_model(gm, VP)
        spec = GuidanceSpec(np.array([1.0, 1.0]), WeightSchedule(CONSTANT, constant=0.0))
        guided = guided_score_drift(model, spec, VP)
        plain = unguided_drift(model, VP)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(scale=2.0, size=2)
            t = rng.uniform(VP.t_min, VP.t_max)
            np.testing.assert_array_equal(guided(x, t), plain(x, t))

    def test_lambda_one_model_independent(self):
        gm = two_mode()
        other = GaussianMixture(np.array([1.0]), np.array([[0.5, 0.5]]),
                                (2.0 * np.eye(2))[None])
        spec = GuidanceSpec(np.array([1.0, -1.0]), WeightSchedule(CONSTANT, constant=1.0))
        d1 = guided_score_drift(mixture_score_model(gm, VP), spec, VP)
        d2 = guided_score_drift(mixture_score_model(other, VP), spec, VP)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(scale=2.0, size=2)
            t = rng.uniform(0.1, 0.95)
            a, b = d1(x, t), d2(x, t)
            assert np.max(np.abs(a - b)) <= 1e-15 * (1.0 + np.max(np.abs(a)))

    def test_arithmetic_example(self):
        # alpha=0.6 sigma=0.8 g2=1 f=0 s=(1,0) coarse=(1,0) x=0 lam=0.5 -> (-0.484375, 0)
        class Stub:
            dim = 2

            def score(self, x, t):
                return np.array([1.0, 0.0])

            def planned_score(self, plan):
                return plan.per_time(self.score)

        class StubSchedule:
            def alpha_sigma(self, t):
                return 0.6, 0.8

            def drift_f(self, x, t):
                return np.zeros_like(x)

            def diffusion_g2(self, t):
                return 1.0

            def plan(self, start, end, steps):
                times = np.linspace(start, end, steps + 1)
                # alpha = 0.6, sigma = 0.8, alpha'/alpha = 0 (f = 0), g2 = 1
                rows = [np.full(steps, v) for v in (0.6, 0.8, 0.0, 1.0)]
                return TimePlan(self, times, times[:-1] - times[1:], *rows)

        spec = GuidanceSpec(np.array([1.0, 0.0]), WeightSchedule(CONSTANT, constant=0.5))
        drift = guided_score_drift(Stub(), spec, StubSchedule())
        np.testing.assert_allclose(drift(np.zeros(2), 0.5), [-0.484375, 0.0])


class TestDriftLaw:
    """Every score-form drift is p x - q s - r y~ and steps as x <- a x + b s + c_y y~.

    The formulas are written out here from the float-time coefficients, in
    the order of operations the sampler uses, so any rewrite of the drift
    assembly must keep every last bit.
    """

    @staticmethod
    def _setup(schedule, batched):
        gm = two_mode()
        rng = np.random.default_rng(12)
        shape = (7, 2) if batched else (2,)
        x = rng.normal(scale=2.0, size=shape)
        target = rng.normal(scale=2.0, size=shape)
        coarse = rng.normal(scale=2.0, size=shape)
        return gm, mixture_score_model(gm, schedule), x, target, coarse

    @pytest.mark.parametrize("schedule", [VP, OTFM], ids=["vp", "otfm"])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_ode_drifts(self, schedule, batched):
        gm, model, x, target, coarse = self._setup(schedule, batched)
        emap = np.array([1.0, 6.0])

        def h_fn(x, t):
            return exact_h(x, target, gm, schedule, t)

        drifts = {
            "unguided": unguided_drift(model, schedule),
            "h": h_guided_drift(model, h_fn, schedule),
            "scalar": guided_score_drift(
                model, GuidanceSpec(coarse, WeightSchedule(POWER_OF_SIGMA, exponent=4.0)),
                schedule),
            "map": guided_score_drift(
                model, GuidanceSpec(coarse, WeightSchedule(POWER_OF_TIME, exponent=4.0),
                                    exponent_map=emap), schedule),
        }
        for t in (schedule.t_max, 0.6, 0.2, 0.01):
            f = schedule.drift_f(x, t)
            g2 = schedule.diffusion_g2(t)
            s = model.score(x, t)
            a, sig = schedule.alpha_sigma(t)

            def guided(lam):
                # p = f-rate + w, q = c g2 (1 - lam), r = w alpha, w = c g2 lam / sigma^2
                w = 0.5 * g2 * lam / (sig * sig)
                p, q, r = schedule.log_alpha_dot(t) + w, 0.5 * g2 * (1.0 - lam), w * a
                return p * x - q * s - r * coarse

            expected = {
                "unguided": f - 0.5 * g2 * s,
                "h": f - 0.5 * g2 * (s + h_fn(x, t)),
                "scalar": guided(np.clip(sig ** 4.0, 0.0, 1.0)),
                "map": guided(np.clip(t ** emap, 0.0, 1.0)),
            }
            for name, drift in drifts.items():
                np.testing.assert_array_equal(drift(x, t), expected[name], err_msg=name)

    @pytest.mark.parametrize("schedule", [VP, OTFM], ids=["vp", "otfm"])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("with_h", [False, True], ids=["plain", "h"])
    def test_reverse_sde_step(self, schedule, batched, with_h):
        gm, model, x, target, _ = self._setup(schedule, batched)

        def h_fn(x, t):
            return exact_h(x, target, gm, schedule, t)

        t, end = 0.7, 0.6
        cfg = SamplerConfig(steps=1, start=t, end=end, solver=EULER_MARUYAMA, seed=3)
        starts = np.atleast_2d(x)
        rows = iter(starts)
        paths = sde_ensemble(model, h_fn if with_h else None, schedule, cfg, len(starts),
                             start_fn=lambda rng: next(rows))
        got = np.stack([p.endpoint for p in paths]).reshape(x.shape)
        # trajectory i's one noise row is the first draw of its stream
        z = np.stack([trial_rng(cfg.seed, i).standard_normal((1, 2))[0]
                      for i in range(len(starts))]).reshape(x.shape)
        dt = t - end
        g2 = schedule.diffusion_g2(t)
        s = model.score(x, t)
        if with_h:
            s = s + h_fn(x, t)
        # c = 1, lambda = 0: a = 1 - dt f-rate, b = dt g2
        a, b = 1.0 - dt * schedule.log_alpha_dot(t), dt * g2
        expected = a * x + b * s + np.sqrt(g2) * np.sqrt(dt) * z
        np.testing.assert_array_equal(got, expected)


class TestVelocityAndEpsilonForms:
    def test_velocity_boundaries(self):
        model = mixture_score_model(two_mode(), OTFM)
        x = np.array([1.0, 0.0])
        coarse = np.zeros(2)
        t = 0.5
        v = model.velocity(x, t)
        spec0 = GuidanceSpec(coarse, WeightSchedule(CONSTANT, constant=0.0))
        np.testing.assert_allclose(guided_velocity_drift(model, spec0, OTFM)(x, t), v)
        spec1 = GuidanceSpec(coarse, WeightSchedule(CONSTANT, constant=1.0))
        np.testing.assert_allclose(guided_velocity_drift(model, spec1, OTFM)(x, t),
                                   (x - coarse) / 0.5)

    def test_velocity_arithmetic(self):
        # v=1, lam=0.5, sigma=0.5, x=1, coarse=0 -> 1.5
        class Stub:
            dim = 1

            def velocity(self, x, t):
                return np.array([1.0])

        spec = GuidanceSpec(np.array([0.0]), WeightSchedule(CONSTANT, constant=0.5))
        drift = guided_velocity_drift(Stub(), spec, OTFM)
        np.testing.assert_allclose(drift(np.array([1.0]), 0.5), [1.5])

    def test_velocity_requires_otfm(self):
        spec = GuidanceSpec(np.zeros(2), WeightSchedule(POWER_OF_SIGMA))
        with pytest.raises(ConfigError):
            guided_velocity_drift(mixture_score_model(two_mode(), VP), spec, VP)

    def test_guided_eps_pseudo_target(self):
        # x=0, alpha=0.6, coarse=1, sigma=0.8 -> pseudo target -0.75
        out = guided_eps(np.zeros(1), np.zeros(1), np.array([1.0]), T_ALPHA_06, VP, 1.0)
        np.testing.assert_allclose(out, [-0.75], rtol=1e-9)

    def test_guided_eps_interpolation(self):
        np.testing.assert_allclose(
            guided_eps(np.array([1.0]), np.zeros(1), np.zeros(1), T_ALPHA_06, VP, 0.25),
            [0.75])

    def test_three_way_equivalence(self):
        gm = two_mode()
        rng = np.random.default_rng(6)
        coarse = gm_sample(gm, 1, rng)[0]
        model_vp = mixture_score_model(gm, VP)
        model_ot = mixture_score_model(gm, OTFM)
        for _ in range(10):
            lam = float(rng.uniform(0, 1))
            ws = WeightSchedule(CONSTANT, constant=lam)
            ds = guided_score_drift(model_vp, GuidanceSpec(coarse, ws), VP)
            de = guided_epsilon_drift(
                model_vp, GuidanceSpec(coarse, ws), VP)
            dso = guided_score_drift(model_ot, GuidanceSpec(coarse, ws), OTFM)
            dv = guided_velocity_drift(
                model_ot, GuidanceSpec(coarse, ws), OTFM)
            for _ in range(10):
                x = rng.normal(scale=2.0, size=2)
                t = rng.uniform(0.01, 0.99)
                np.testing.assert_allclose(ds(x, t), de(x, t), atol=1e-10)
                np.testing.assert_allclose(dso(x, t), dv(x, t), atol=1e-10)


class TestPerCoordinateWeights:
    def test_region_exponents(self):
        valid = np.array([True, False, True])
        np.testing.assert_array_equal(region_exponents(valid, 4.0, 8.0),
                                      [4.0, 8.0, 4.0])
        # integers, even beyond int64, come back as float exponents
        got = region_exponents(valid, 3, 2 ** 64)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [3.0, 2.0 ** 64, 3.0])

    def test_exponent_map_weights(self):
        spec = GuidanceSpec(np.zeros(3), WeightSchedule(POWER_OF_SIGMA),
                            exponent_map=np.array([1.0, 2.0, 3.0]))
        _, s = VP.alpha_sigma(0.5)
        lam = lambda_weights(spec, VP, 0.5)
        np.testing.assert_allclose(lam, [s, s ** 2, s ** 3])

    def test_exponent_map_shape_enforced(self):
        with pytest.raises(ConfigError):
            GuidanceSpec(np.zeros(3), WeightSchedule(POWER_OF_SIGMA),
                         exponent_map=np.array([1.0, 2.0]))

    def test_exponent_map_rejects_constant_family(self):
        with pytest.raises(ConfigError):
            GuidanceSpec(np.zeros(2), WeightSchedule(CONSTANT),
                         exponent_map=np.array([1.0, 2.0]))

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_scalar_weight_matches_uniform_map(self, t):
        spec_scalar = GuidanceSpec(np.zeros(2), WeightSchedule(POWER_OF_SIGMA, exponent=5.0))
        spec_map = GuidanceSpec(np.zeros(2), WeightSchedule(POWER_OF_SIGMA, exponent=5.0),
                                exponent_map=np.array([5.0, 5.0]))
        lam_s = lambda_weights(spec_scalar, VP, t)
        lam_m = lambda_weights(spec_map, VP, t)
        np.testing.assert_allclose(lam_m, [lam_s, lam_s])


class TestSdeditStart:
    def test_zero_noise_gives_kernel_mean(self):
        coarse = np.array([1.0, 0.0])
        x, t0 = sdedit_start(coarse, T_ALPHA_06, VP, np.zeros(2))
        np.testing.assert_allclose(x, [0.6, 0.0], rtol=1e-9)
        assert t0 == T_ALPHA_06

    def test_full_noise_limit_shrinks_signal(self):
        coarse = np.array([10.0, 0.0])
        x, _ = sdedit_start(coarse, VP.t_max, VP, np.zeros(2))
        assert np.linalg.norm(x) < 0.1  # alpha(1) ~ 6.6e-3 scales the coarse away

    def test_low_noise_limit_keeps_signal(self):
        coarse = np.array([1.0, 2.0])
        x, _ = sdedit_start(coarse, VP.t_min + 1e-6, VP, np.zeros(2))
        np.testing.assert_allclose(x, coarse, atol=1e-3)

    def test_t0_range_enforced(self):
        with pytest.raises(ConfigError):
            sdedit_start(np.zeros(2), VP.t_min, VP, np.zeros(2))
        with pytest.raises(ConfigError):
            sdedit_start(np.zeros(2), 1.5, VP, np.zeros(2))
