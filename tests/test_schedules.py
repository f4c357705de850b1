"""Schedule coefficients, their calculus consistency, and weight schedules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from htx.errors import ConfigError, TimeRangeError
from htx.schedules import (CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME, NoiseSchedule,
                           WeightSchedule)

# Independent oracle: alpha(1) = exp(-quad(beta)/2) with beta linear 0.1 -> 20,
# evaluated by scipy.integrate.quad (integral 10.05); frozen here.
VP_ALPHA_AT_1 = 0.006571586494929619
VP_SIGMA_AT_1 = 0.9999784068923386


class TestVpSchedule:
    def test_alpha_sigma_at_horizon_matches_quadrature(self):
        a, s = NoiseSchedule.vp().alpha_sigma(1.0)
        np.testing.assert_allclose(a, VP_ALPHA_AT_1, rtol=1e-12)
        np.testing.assert_allclose(s, VP_SIGMA_AT_1, rtol=1e-12)

    def test_identity_on_grid(self):
        sch = NoiseSchedule.vp()
        t = np.linspace(sch.t_min, sch.t_max, 1000)
        a, s = sch.alpha_sigma(t)
        np.testing.assert_allclose(a * a + s * s, 1.0, atol=1e-12)

    def test_monotone_endpoints(self):
        sch = NoiseSchedule.vp()
        t = np.linspace(sch.t_min, sch.t_max, 500)
        a, s = sch.alpha_sigma(t)
        assert np.all(np.diff(a) < 0)
        assert np.all(np.diff(s) > 0)
        a0, s0 = sch.alpha_sigma(sch.t_min)
        assert a0 > 0.999 and s0 < 0.05

    def test_g2_equals_beta(self):
        sch = NoiseSchedule.vp()
        for t in (0.05, 0.3, 0.7, 1.0):
            np.testing.assert_allclose(sch.diffusion_g2(t), sch.beta(t), rtol=1e-12)

    def test_drift_is_half_beta(self):
        sch = NoiseSchedule.vp()
        t = 0.4
        np.testing.assert_allclose(sch.drift_f(2.0, t), -0.5 * sch.beta(t) * 2.0)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    def test_identity_property(self, t):
        a, s = NoiseSchedule.vp().alpha_sigma(t)
        assert abs(a * a + s * s - 1.0) < 1e-12


class TestOtfmSchedule:
    def test_linear_pair(self):
        a, s = NoiseSchedule.otfm().alpha_sigma(0.25)
        assert (a, s) == (0.75, 0.25)

    def test_drift(self):
        np.testing.assert_allclose(NoiseSchedule.otfm().drift_f(1.0, 0.5), -2.0)

    def test_g2(self):
        sch = NoiseSchedule.otfm()
        np.testing.assert_allclose(sch.diffusion_g2(0.5), 2.0)
        np.testing.assert_allclose(sch.diffusion_g2(sch.t_min),
                                   2 * sch.t_min / (1 - sch.t_min))

    def test_drift_zero_state(self):
        assert np.all(NoiseSchedule.otfm().drift_f(np.zeros(3), 0.5) == 0.0)

    def test_t_max_guard(self):
        with pytest.raises(ConfigError):
            NoiseSchedule.otfm(t_max=1.0)


class TestCalculusConsistency:
    @pytest.mark.parametrize("sch", [NoiseSchedule.vp(), NoiseSchedule.otfm()])
    def test_drift_matches_alpha_derivative(self, sch):
        # finite-difference d(alpha)/dt must equal alpha * f(x, t) / x for x != 0
        ts = np.linspace(sch.t_min + 1e-4, sch.t_max - 1e-4, 50)
        h = 1e-6
        for t in ts:
            a_p, _ = sch.alpha_sigma(t + h)
            a_m, _ = sch.alpha_sigma(t - h)
            fd = (a_p - a_m) / (2 * h)
            a, _ = sch.alpha_sigma(t)
            np.testing.assert_allclose(fd, a * sch.drift_f(1.0, t), rtol=1e-5)

    @pytest.mark.parametrize("sch", [NoiseSchedule.vp(), NoiseSchedule.otfm()])
    def test_sigma_dot_matches_finite_difference(self, sch):
        ts = np.linspace(sch.t_min + 1e-4, sch.t_max - 1e-4, 50)
        h = 1e-6
        for t in ts:
            _, s_p = sch.alpha_sigma(t + h)
            _, s_m = sch.alpha_sigma(t - h)
            np.testing.assert_allclose((s_p - s_m) / (2 * h), sch.sigma_dot(t),
                                       rtol=1e-4)

    def test_range_errors(self):
        sch = NoiseSchedule.vp()
        with pytest.raises(TimeRangeError):
            sch.alpha_sigma(0.0)
        with pytest.raises(TimeRangeError):
            sch.alpha_sigma(1.5)
        with pytest.raises(TimeRangeError):
            sch.drift_f(np.ones(2), -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_times_rejected(self, bad):
        sch = NoiseSchedule.vp()
        for t in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad])):
            with pytest.raises(TimeRangeError):
                sch.alpha_sigma(t)

    def test_scalar_and_array_paths_agree(self):
        sch = NoiseSchedule.vp()
        grid = np.linspace(sch.t_max, sch.t_min, 7)
        a_arr, s_arr = sch.alpha_sigma(grid)
        for k, t in enumerate(grid):
            assert sch.alpha_sigma(t) == (a_arr[k], s_arr[k])
            assert sch.alpha_sigma(np.array(t)) == sch.alpha_sigma(float(t))
        assert type(sch._check_t(np.float64(0.5))) is float


class TestFloatTimeCoefficients:
    @pytest.mark.parametrize("make", [NoiseSchedule.vp, NoiseSchedule.otfm], ids=["vp", "otfm"])
    def test_floats_equal_array_path(self, make):
        sch = make()
        grid = np.linspace(sch.t_max, sch.t_min, 50)
        a, s = sch.alpha_sigma(grid)
        by_array = (a, s, sch.log_alpha_dot(grid), sch.sigma_dot(grid),
                    sch.diffusion_g2(grid))
        x = np.array([0.7, -1.3])
        for visit in range(2):  # a revisited time gives the same bits
            for k, t in enumerate(grid.tolist()):
                got = (*sch.alpha_sigma(t), sch.log_alpha_dot(t), sch.sigma_dot(t),
                       sch.diffusion_g2(t))
                for value, ref in zip(got, by_array):
                    np.testing.assert_array_equal(value, ref[k])
                np.testing.assert_array_equal(sch.drift_f(x, t), by_array[2][k] * x)


class TestWeightSchedule:
    def test_power_of_sigma_values(self):
        ws = WeightSchedule(POWER_OF_SIGMA, exponent=5.0)
        np.testing.assert_allclose(ws.weight(0.5, 0.0), 0.03125)
        np.testing.assert_allclose(ws.weight(1.0, 0.0), 1.0)
        np.testing.assert_allclose(ws.weight(0.0, 0.0), 0.0)

    def test_power_of_time_values(self):
        ws = WeightSchedule(POWER_OF_TIME, exponent=3.0)
        np.testing.assert_allclose(ws.weight(0.3, 0.5), 0.125)
        np.testing.assert_allclose(ws.weight(0.3, 1.0), 1.0)
        np.testing.assert_allclose(ws.weight(0.3, 0.0), 0.0)

    def test_constant_boundaries(self):
        assert WeightSchedule(CONSTANT, constant=0.0).weight(0.3, 0.3) == 0.0
        assert WeightSchedule(CONSTANT, constant=1.0).weight(0.3, 0.3) == 1.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigError):
            WeightSchedule(POWER_OF_SIGMA, exponent=-1.0)

    @pytest.mark.parametrize("family", [POWER_OF_SIGMA, POWER_OF_TIME])
    def test_float_and_array_checks_agree(self, family):
        # a float is range-checked with Python comparisons, an array with numpy;
        # both accept and reject the same values (nan is accepted) and give equal lambda
        ws = WeightSchedule(family, exponent=3.0)
        for v in (-0.1, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 2.0, float("nan"),
                  float("inf"), -float("inf")):
            results = []
            for arg in (v, np.array(v), np.array([v])):
                try:
                    results.append(ws.weight(arg, arg))
                except ValueError:
                    results.append("rejected")
            scalar, zero_d, batch = results
            assert (scalar == "rejected") == (zero_d == "rejected") == (batch == "rejected")
            if scalar != "rejected":
                np.testing.assert_array_equal(scalar, zero_d)
                np.testing.assert_array_equal([scalar], batch)
                # the float clamp gives np.clip's bits, sign of zero and nan included
                assert (np.float64(scalar).tobytes()
                        == np.clip(v ** 3.0, 0.0, 1.0).tobytes()), v
        for exponent in (-1.0, np.array(-1.0), np.array([1.0, -1.0])):
            with pytest.raises(ConfigError):
                ws.weight(0.5, 0.5, exponent)
        np.testing.assert_array_equal(ws.weight(0.5, 0.5, float("nan")), float("nan"))

    @pytest.mark.parametrize("schedule", [NoiseSchedule.vp(), NoiseSchedule.otfm()],
                             ids=["vp", "otfm"])
    @pytest.mark.parametrize("family", [POWER_OF_SIGMA, POWER_OF_TIME, CONSTANT])
    def test_weight_row_is_the_per_step_weights_bitwise(self, schedule, family):
        plan = schedule.plan(schedule.t_max, schedule.t_min, 1000)
        sigmas, times = plan.sigma, plan.times[:-1]
        for exponent in (0, 0.0, 0.3, 1, 1.0, 2, 2.0, 2.5, 3, 3.0, 5, 5.0, 7.0, 9, 9.0):
            ws = WeightSchedule(family, exponent=exponent, constant=0.25)
            row = ws.weight_row(sigmas, times)
            per_step = [ws.weight(s, t) for s, t in zip(plan.sigma.tolist(), plan.times.tolist())]
            assert len(row) == len(per_step) == 1000
            assert np.array(row).tobytes() == np.array(per_step).tobytes(), exponent
        exponents = np.linspace(0.0, 9.0, 3)  # a map is weighed step by step
        ws = WeightSchedule(family)
        np.testing.assert_array_equal(ws.weight_row(sigmas, times, exponents),
                                      [ws.weight(s, t, exponents)
                                       for s, t in zip(sigmas.tolist(), times.tolist())])

    def test_weight_row_rejects_as_the_per_step_weights(self):
        sigmas = np.array([0.9, 0.5, 1.5, 0.1])
        times = np.array([0.9, 0.5, 0.3, 0.1])
        ws = WeightSchedule(POWER_OF_SIGMA, exponent=3.0)
        for weigh in (lambda: ws.weight_row(sigmas, times),
                      lambda: [ws.weight(s, t) for s, t in zip(sigmas.tolist(), times.tolist())]):
            with pytest.raises(ValueError, match=r"^sigma outside \[0, 1\]$"):
                weigh()
        # power_of_time reads t only, so the same sigma row passes
        row = WeightSchedule(POWER_OF_TIME, exponent=3.0).weight_row(sigmas, times)
        assert row == [t ** 3.0 for t in times.tolist()]
        with pytest.raises(ValueError, match=r"^t outside \[0, 1\]$"):
            WeightSchedule(POWER_OF_TIME).weight_row(times, sigmas)
        with pytest.raises(ConfigError):
            ws.weight_row(times, times, -1.0)
        # nan passes the range check and the clamp, as in weight
        assert np.isnan(ws.weight_row(np.array([np.nan]), np.array([0.5]))[0])

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            WeightSchedule(CONSTANT, constant=1.5)

    @given(st.floats(min_value=0.0, max_value=12.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_sigma_and_bounded(self, exponent, s1, s2):
        ws = WeightSchedule(POWER_OF_SIGMA, exponent=exponent)
        lo, hi = sorted((s1, s2))
        w_lo, w_hi = ws.weight(lo, 0.0), ws.weight(hi, 0.0)
        assert 0.0 <= w_lo <= 1.0 and 0.0 <= w_hi <= 1.0
        assert w_lo <= w_hi + 1e-12
