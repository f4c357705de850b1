"""The time plan: a planned Euler run is bitwise the run that evaluates each time.

The reference below is the per-time drift law written out in the order of
operations the sampler has always used: the model score through
`gm_pushforward` and `gm_score`, and the schedule's coefficients and the
weight asked for one float time at a time.
"""

import json

import numpy as np
import pytest

from htx import oracle
from htx.cli import main
from htx.config import ExperimentConfig, build_density, build_schedule, rbf_field_prior
from htx.errors import DivergenceError, SingularityError, TimeRangeError
from htx import experiments
from htx.experiments import draw_trials, restore_trials, run_restore
from htx.guidance import (GuidanceSpec, GuidedDrift, _surrogate_correction,
                          guided_score_drift, sdedit_start, unguided_drift)
from htx.oracle import GaussianMixture, identity_operator
from htx.schedules import (CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME, NoiseSchedule,
                           WeightSchedule)
from htx.scorenet import mixture_score_model
from htx.solvers import SamplerConfig, sample_ode

VP = NoiseSchedule.vp()
OTFM = NoiseSchedule.otfm()


def tilted_two_mode():
    rot = np.array([[0.8, -0.6], [0.6, 0.8]])
    return GaussianMixture(np.array([0.3, 0.7]), np.array([[-2.0, 1.0], [1.5, -0.5]]),
                           np.stack([rot @ np.diag([1.3, 0.4]) @ rot.T, 0.7 * np.eye(2)]))


def small_field():
    return rbf_field_prior(6, 2.0, jitter=1e-6)


def per_time_drift(model, schedule, spec=None) -> GuidedDrift:
    """f - g^2 (s + lambda (kernel score - s)) / 2, asked of each float time."""

    def fn(x, t):
        s = model.score(x, t)
        if spec is not None:
            a, sig = schedule.alpha_sigma(t)
            lam = spec.weights.weight(sig, t, spec.exponent_map)
            s = s + lam * ((a * spec.coarse - x) / (sig * sig) - s)
        return schedule.drift_f(x, t) - 0.5 * schedule.diffusion_g2(t) * s

    return GuidedDrift(fn, model.dim)


WEIGHTS = {
    "unguided": None,
    "sigma": (WeightSchedule(POWER_OF_SIGMA, exponent=5.0), False),
    "time": (WeightSchedule(POWER_OF_TIME, exponent=3.0), False),
    "constant": (WeightSchedule(CONSTANT, constant=0.4), False),
    "map": (WeightSchedule(POWER_OF_SIGMA, exponent=5.0), True),
}


class TestPlannedRunsEqualPerTimeRuns:
    @pytest.mark.parametrize("prior", [small_field, tilted_two_mode], ids=["K=1", "K=2"])
    @pytest.mark.parametrize("schedule", [VP, OTFM], ids=["vp", "otfm"])
    @pytest.mark.parametrize("arm", [*WEIGHTS, "sdedit"])
    @pytest.mark.parametrize("n", [None, 5], ids=["single", "batch"])
    def test_every_recorded_state(self, prior, schedule, arm, n):
        gm = prior()
        model = mixture_score_model(gm, schedule)
        rng = np.random.default_rng(3)
        shape = gm.dim if n is None else (n, gm.dim)
        coarse, z = rng.normal(scale=1.5, size=shape), rng.standard_normal(shape)
        cfg = SamplerConfig(steps=40, start=schedule.t_max, end=schedule.t_min,
                            record_every=1)
        spec = None
        if arm == "sdedit":
            start, t0 = sdedit_start(coarse, 0.6, schedule, z)
            cfg = SamplerConfig(steps=40, start=t0, end=schedule.t_min, record_every=1)
            planned = unguided_drift(model, schedule)
        elif WEIGHTS[arm] is None:
            start, planned = z, unguided_drift(model, schedule)
        else:
            weights, with_map = WEIGHTS[arm]
            emap = np.linspace(1.0, 7.0, gm.dim) if with_map else None
            spec = GuidanceSpec(coarse, weights, exponent_map=emap)
            start, planned = z, guided_score_drift(model, spec, schedule)
        reference = per_time_drift(model, schedule, spec)
        got = sample_ode(planned, cfg, x_start=start)
        want = sample_ode(reference, cfg, x_start=start)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.states, want.states)
        # and the one-time drift at every grid time
        for x, t in zip(want.states[:-1], want.times[:-1]):
            np.testing.assert_array_equal(planned(x, t), reference(x, t))

    def test_lambda_is_the_scalar_weight_of_each_step(self):
        # an array power sigma ** a differs from the scalar one on some 5% of
        # these sigmas, so lambda must come from WeightSchedule.weight per step
        weights = WeightSchedule(POWER_OF_SIGMA, exponent=5.0)
        plan = VP.plan(VP.t_max, VP.t_min, 20000)
        correction = _surrogate_correction(GuidanceSpec(np.zeros(1), weights), plan)
        # kernel score 0 and s = -1 leave lambda * (0 - (-1)) = lambda exactly
        lam = np.array([correction(np.zeros(1), k, -np.ones(1))[0] for k in range(20000)])
        scalar = np.array([weights.weight(s, t) for s, t in
                           zip(VP.alpha_sigma(plan.times[:-1])[1].tolist(),
                               plan.times[:-1].tolist())])
        np.testing.assert_array_equal(lam, scalar)

    def test_log_normalisers_are_taken_row_by_row(self):
        # at K = 2, d = 16 the batched log(E) @ blocks.T sums in another order
        rng = np.random.default_rng(8)
        d = 16
        covs = []
        for _ in range(2):
            a = rng.standard_normal((d, d))
            covs.append(a @ a.T / d + 0.1 * np.eye(d))
        gm = GaussianMixture(np.array([0.4, 0.6]), rng.standard_normal((2, d)), np.stack(covs))
        plan = VP.plan(VP.t_max, VP.t_min, 1000)
        basis_means, evals, log_norms = oracle.plan_rows(gm, plan)
        for k, t in enumerate(plan.times[:-1]):
            pushed = oracle.gm_pushforward(gm, VP, np.array(t))  # a 0-d time skips the memo
            np.testing.assert_array_equal(basis_means[k], pushed._basis_means)
            np.testing.assert_array_equal(evals[k], pushed._evals)
            np.testing.assert_array_equal(log_norms[k], pushed._log_norms)
        assert oracle.plan_rows(small_field(), plan)[2] is None


class TestPlannedArmTouchesNoMemo:
    @pytest.mark.parametrize("density", [{"kind": "mixture"},
                                         {"kind": "gaussian_field", "cells": 8}])
    def test_restore_arms(self, density, monkeypatch):
        calls = []
        for name in ("gm_pushforward", "gm_score"):
            original = getattr(oracle, name)
            monkeypatch.setattr(oracle, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        cfg = ExperimentConfig.from_dict({"experiment": {"trials": 4, "seed": 2},
                                          "density": density, "sampler": {"steps": 30}})
        gm, schedule = build_density(cfg), build_schedule(cfg)
        trials = draw_trials(gm, identity_operator(gm.dim, 0.1), 4, 2)
        scfg = SamplerConfig(steps=30)
        for weights, emap in ((WeightSchedule(POWER_OF_SIGMA), None), (None, None),
                              (WeightSchedule(POWER_OF_TIME), np.full(gm.dim, 2.0))):
            restore_trials(gm, schedule, scfg, trials, weights, emap)
        assert calls == []
        assert schedule._memo == {}
        assert not gm.__dict__.get("_pushforwards") and "_score_slot" not in gm.__dict__


class TestPlannedErrors:
    def test_grid_outside_the_schedule_fails_before_step_zero(self, monkeypatch):
        calls = []
        score = oracle._score
        monkeypatch.setattr(oracle, "_score", lambda *a: calls.append(1) or score(*a))
        model = mixture_score_model(tilted_two_mode(), VP)
        spec = GuidanceSpec(np.ones(2), WeightSchedule(POWER_OF_SIGMA))
        for drift in (unguided_drift(model, VP), guided_score_drift(model, spec, VP)):
            for start, end in ((1.0, 1e-4), (1.5, 0.5)):
                with pytest.raises(TimeRangeError):
                    sample_ode(drift, SamplerConfig(steps=10, start=start, end=end),
                               x_start=np.zeros(2))
        assert calls == []

    def test_zero_sigma_is_singular(self):
        # with t_min = 1e-12 the range check admits t = 1e-16, where alpha
        # rounds to 1 and sigma to 0
        sch = NoiseSchedule.vp(t_min=1e-12)
        model = mixture_score_model(tilted_two_mode(), sch)
        drift = guided_score_drift(model, GuidanceSpec(np.ones(2),
                                                       WeightSchedule(POWER_OF_SIGMA)), sch)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert sch.alpha_sigma(np.array([1e-16]))[1][0] == 0.0
            with pytest.raises(SingularityError):
                sample_ode(drift, SamplerConfig(steps=1, start=1e-16, end=0.0),
                           x_start=np.zeros(2))
            with pytest.raises(SingularityError):
                drift(np.zeros(2), 1e-16)

    def test_divergence_names_the_per_time_step(self):
        gm = tilted_two_mode()
        model = mixture_score_model(gm, VP)
        coarse = np.zeros((4, 2))
        coarse[2] = 1e200  # row 2's correction overflows its state within two steps
        spec = GuidanceSpec(coarse, WeightSchedule(CONSTANT, constant=1.0))
        cfg = SamplerConfig(steps=20, start=0.7)
        errors = []
        for drift in (guided_score_drift(model, spec, VP), per_time_drift(model, VP, spec)):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                sample_ode(drift, cfg, x_start=np.zeros((4, 2)))
            errors.append((err.value.step, err.value.t, err.value.trajectory))
        assert errors[0] == errors[1]
        assert errors[0][2] == 2 and errors[0][0] >= 1

    @pytest.mark.parametrize("prior", [small_field, tilted_two_mode], ids=["K=1", "K=2"])
    def test_wrong_trailing_dimension(self, prior):
        gm = prior()
        model = mixture_score_model(gm, VP)
        spec = GuidanceSpec(np.zeros(gm.dim), WeightSchedule(POWER_OF_SIGMA))
        for drift in (unguided_drift(model, VP), guided_score_drift(model, spec, VP)):
            with pytest.raises(ValueError):
                sample_ode(drift, SamplerConfig(steps=5), x_start=np.zeros((3, gm.dim + 1)))

    def test_stiff_three_step_restore(self, tmp_path, monkeypatch):
        # beta_max = 2000 on three steps: the CLI still exits 0, and the record
        # equals one whose arms ask the drift law for each time
        doc = {"experiment": {"trials": 5, "out": str(tmp_path / "runs")},
               "schedule": {"beta_max": 2000}, "sampler": {"steps": 3}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["restore", "--config", str(tmp_path / "cfg.json")]) == 0
        [path] = (tmp_path / "runs").rglob("record.json")
        planned = json.loads(path.read_text())
        monkeypatch.setattr(experiments, "unguided_drift",
                            lambda model, sch: per_time_drift(model, sch))
        monkeypatch.setattr(experiments, "guided_score_drift",
                            lambda model, spec, sch: per_time_drift(model, sch, spec))
        reference = run_restore(ExperimentConfig.from_dict(doc))
        assert planned["per_trial"] == reference.per_trial
