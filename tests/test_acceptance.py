"""Acceptance battery: every exit criterion at its stated tolerance.

Each test runs one named verification check and prints its pass/fail line
(visible with `pytest -s` or on failure).  The same battery backs the
`htx verify` command, whose process exit status reflects the outcome.
Each check's value must also equal, bit for bit, its pin in fingerprints.json.
"""

import numpy as np
import pytest

from htx import verify
from make_fingerprints import check_pin


def _run(check_fn):
    """Run one check, assert it passed, then hold its value to its pin."""
    result = check_fn()
    print(result.line())
    assert result.passed, result.line()
    check_pin("verify", result.name, repr(result.value))
    return result


class TestAcceptance:
    def test_01_surrogate_error_identity(self):
        # max over 500 random (x, y, coarse, t) of the identity gap < 1e-12
        result = _run(verify.check_identity_gap)
        assert result.passed, result.line()
        assert result.value < 1e-12

    def test_02_exact_correction_endpoint_guarantee(self):
        # 2-d two-mode mixture, exact correction, 2000 Euler steps, 100 pairs:
        # ||endpoint - target|| < 1e-2 (1 + ||target||)
        result = _run(verify.check_endpoint_guarantee)
        assert result.passed, result.line()
        assert result.value < 1e-2

    def test_03_weight_boundary_reductions(self):
        # lambda = 0 equals the unguided drift to 1e-15 at 1000 points;
        # lambda = 1 endpoint lands on the coarse reference within 1e-2 (1 + ||.||)
        result = _run(verify.check_lambda_boundaries)
        assert result.passed, result.line()

    def test_04_three_parameterizations_agree(self):
        # score, noise, velocity forms agree to 1e-10 at 1000 (x, t, lambda)
        result = _run(verify.check_parameterization_equivalence)
        assert result.passed, result.line()
        assert result.value < 1e-10

    def test_05_sde_ode_marginal_equivalence(self):
        # guided SDE vs deterministic flow: per-coordinate means and variances
        # at t in {0.25, 0.5, 0.75} within 3 standard errors over 1e4 paths
        result = _run(verify.check_sde_ode_marginals)
        assert result.passed, result.line()
        assert result.value < 3.0

    def test_06_euler_first_order_convergence(self):
        # endpoint error vs the 20000-step reference halves with the step:
        # ratios within [1.7, 2.3] across M in {250, 500, 1000}
        result = _run(verify.check_euler_convergence)
        assert result.passed, result.line()

    def test_07_exponent_tradeoff_shape(self):
        # blur toy, a in {1,3,5,7,9}, 200 trials per point: mse_to_coarse
        # non-decreasing (<= 1 inversion within 1 SE), mse_to_y interior minimum
        result = _run(verify.check_exponent_tradeoff)
        assert result.passed, result.line()

    def test_08_start_guided_baseline_limits(self):
        # mse_to_coarse non-decreasing over t0 in {0.2, 0.5, 0.8} T; at t0 = T
        # endpoint moments match unguided sampling within 3 SE
        result = _run(verify.check_sdedit_limits)
        assert result.passed, result.line()
        assert result.value < 3.0

    def test_09_dsm_training_sanity(self):
        # trained score RMSE < 0.1 on the evaluation grid; backprop gradients
        # match central finite differences to relative 1e-5
        result = _run(verify.check_dsm_training)
        assert result.passed, result.line()
        assert result.value < 0.1

    def test_10_restoration_beats_ignorance(self):
        # shrink and blur toys at a = 5: guided mean mse_to_y below unguided by
        # more than 3 SE, and at or above the analytic posterior-mean floor
        result = _run(verify.check_restoration_beats_ignorance)
        assert result.passed, result.line()
        assert result.value > 3.0
