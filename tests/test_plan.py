"""The time plan: a planned Euler run is bitwise the run that evaluates each time.

The reference below is the fused drift law p x - q s - r y~ and its Euler step
x <- a x + b s + c_y y~ written out in the sampler's order of operations, from
the coefficients asked of one float time at a time: the model score through
`gm_pushforward` and `gm_score`, the schedule's coefficients and the weight.
A run of a one-component prior with scalar lambda jumps from one recorded step
to the next; its reference takes each step in the order of a one-step jump, in
the prior's eigenbasis.  A second reference, the law in the order
f - c g^2 (s + correction) that the sampler used before the step was fused,
must agree to 1e-12, and a jump must agree with the step-by-step walk to 1e-13
of the largest entry.
"""

import json
from dataclasses import dataclass, replace

import numpy as np
import pytest

from htx import oracle
from htx.cli import main
from htx.config import ExperimentConfig, build_density, build_schedule, rbf_field_prior
from htx.errors import DivergenceError, SingularityError, TimeRangeError
from htx import experiments
from htx.experiments import draw_trials, restore_trials, run_restore
from htx.guidance import (GuidanceSpec, GuidedDrift, drift_rows, guided_score_drift,
                          h_guided_drift, sdedit_start, unguided_drift)
from htx.oracle import GaussianMixture, exact_h, identity_operator
from htx.schedules import (CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME, NoiseSchedule,
                           WeightSchedule)
from htx.scorenet import ScoreModel, mixture_score_model
from htx.solvers import SamplerConfig, sample_ode, sde_ensemble, trial_rng

VP = NoiseSchedule.vp()
OTFM = NoiseSchedule.otfm()


def tilted_two_mode():
    rot = np.array([[0.8, -0.6], [0.6, 0.8]])
    return GaussianMixture(np.array([0.3, 0.7]), np.array([[-2.0, 1.0], [1.5, -0.5]]),
                           np.stack([rot @ np.diag([1.3, 0.4]) @ rot.T, 0.7 * np.eye(2)]))


def small_field():
    return rbf_field_prior(6, 2.0, jitter=1e-6)


def law_at(schedule, t, c, spec=None):
    """(p, q, r) of drift = p x - q s - r y~ at float time t; r is None unguided."""
    lad, cg2 = schedule.log_alpha_dot(t), c * schedule.diffusion_g2(t)
    if spec is None:
        return lad, cg2, None
    a, sig = schedule.alpha_sigma(t)
    lam = spec.weights.weight(sig, t, spec.exponent_map)
    w = cg2 * lam / (sig * sig)
    return lad + w, cg2 * (1.0 - lam), w * a


@dataclass(frozen=True)
class PerTimeDrift(GuidedDrift):
    """The fused law asked of each float time; it steps as x <- a x + b s + c_y y~."""

    model: ScoreModel
    schedule: NoiseSchedule
    spec: GuidanceSpec | None

    def stepper(self, start, end, steps):
        times = np.linspace(start, end, steps + 1)

        def advance(x, k):
            t, dt = float(times[k]), float(times[k] - times[k + 1])
            p, q, r = law_at(self.schedule, t, 0.5, self.spec)
            out = (1.0 - dt * p) * x + (dt * q) * self.model.score(x, t)
            return out if r is None else out + (dt * r) * self.spec.coarse

        return times, advance


@dataclass(frozen=True)
class PerTimeJumpDrift(PerTimeDrift):
    """The law of a one-component prior with scalar lambda, stepped in the order in
    which sample_ode jumps a one-step stretch: x <- x + ((A - 1) u + B + c_y u~) V^T
    with u = x V, u~ = y~ V, A = a - b / e, B = b m / e, and (m, e) the eigen-rows
    of the mixture pushed to t."""

    gm: GaussianMixture

    def stepper(self, start, end, steps):
        times = np.linspace(start, end, steps + 1)
        basis = self.gm._basis

        def advance(x, k):
            t, dt = float(times[k]), float(times[k] - times[k + 1])
            p, q, r = law_at(self.schedule, t, 0.5, self.spec)
            a, b = 1.0 - dt * p, dt * q
            pushed = oracle.gm_pushforward(self.gm, self.schedule, t)
            evals, means = pushed._evals, pushed._basis_means
            u = (x @ basis) * ((a - b / evals) - 1.0) + b * means / evals
            if r is not None:
                u = u + (dt * r) * (self.spec.coarse @ basis)
            return u @ basis.T + x

        return times, advance


def per_time_drift(model, schedule, spec=None, gm=None) -> GuidedDrift:
    """The per-time reference; given the one-component prior gm of a scalar-lambda
    drift, it steps in the order of a jump (PerTimeJumpDrift)."""
    def fn(x, t):
        p, q, r = law_at(schedule, t, 0.5, spec)
        drift = p * x - q * model.score(x, t)
        return drift if r is None else drift - r * spec.coarse

    if gm is not None and gm.n_components == 1 and (spec is None or spec.exponent_map is None):
        return PerTimeJumpDrift(fn, model.dim, model, schedule, spec, gm)
    return PerTimeDrift(fn, model.dim, model, schedule, spec)


def old_order_law(model, schedule, c, spec=None, h=None):
    """f - c g^2 (s + correction) at float time t, in the order of the unfused step."""

    def fn(x, t):
        s = model.score(x, t)
        if h is not None:
            s = s + h(x, t)
        if spec is not None:
            a, sig = schedule.alpha_sigma(t)
            lam = spec.weights.weight(sig, t, spec.exponent_map)
            s = s + lam * ((a * spec.coarse - x) / (sig * sig) - s)
        return schedule.drift_f(x, t) - c * schedule.diffusion_g2(t) * s

    return fn


WEIGHTS = {
    "unguided": None,
    "sigma": (WeightSchedule(POWER_OF_SIGMA, exponent=5.0), False),
    "time": (WeightSchedule(POWER_OF_TIME, exponent=3.0), False),
    "constant": (WeightSchedule(CONSTANT, constant=0.4), False),
    "map": (WeightSchedule(POWER_OF_SIGMA, exponent=5.0), True),
}


def planned_arm(gm, schedule, arm, n, steps, record_every=1):
    """(model, drift, spec, start, cfg) of one arm over the schedule's whole range:
    a WEIGHTS entry, or sdedit, which starts unguided from the noised reference at 0.6."""
    model = mixture_score_model(gm, schedule)
    rng = np.random.default_rng(3)
    shape = gm.dim if n is None else (n, gm.dim)
    coarse, z = rng.normal(scale=1.5, size=shape), rng.standard_normal(shape)
    cfg = SamplerConfig(steps=steps, start=schedule.t_max, end=schedule.t_min,
                        record_every=record_every)
    if arm == "sdedit":
        start, t0 = sdedit_start(coarse, 0.6, schedule, z)
        return model, unguided_drift(model, schedule), None, start, replace(cfg, start=t0)
    if WEIGHTS[arm] is None:
        return model, unguided_drift(model, schedule), None, z, cfg
    weights, with_map = WEIGHTS[arm]
    emap = np.linspace(1.0, 7.0, gm.dim) if with_map else None
    spec = GuidanceSpec(coarse, weights, exponent_map=emap)
    return model, guided_score_drift(model, spec, schedule), spec, z, cfg


class TestPlannedRunsEqualPerTimeRuns:
    @pytest.mark.parametrize("prior", [small_field, tilted_two_mode], ids=["K=1", "K=2"])
    @pytest.mark.parametrize("schedule", [VP, OTFM], ids=["vp", "otfm"])
    @pytest.mark.parametrize("arm", [*WEIGHTS, "sdedit"])
    @pytest.mark.parametrize("n", [None, 5], ids=["single", "batch"])
    def test_every_recorded_state(self, prior, schedule, arm, n):
        gm = prior()
        model, planned, spec, start, cfg = planned_arm(gm, schedule, arm, n, 40)
        reference = per_time_drift(model, schedule, spec, gm)
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
        p, q, r = drift_rows(plan, 0.5, GuidanceSpec(np.zeros(1), weights))
        cg2, sigma2 = 0.5 * plan.g2, plan.sigma * plan.sigma

        def rows(lam):
            w = cg2 * lam / sigma2
            return plan.lad + w, cg2 * (1.0 - lam), w * plan.alpha

        scalar = np.array([weights.weight(s, t) for s, t in
                           zip(VP.alpha_sigma(plan.times[:-1])[1].tolist(),
                               plan.times[:-1].tolist())])
        for got, want in zip((p, q, r), rows(scalar)):
            np.testing.assert_array_equal(got, want)
        # the array power would move r: the check can tell the two apart
        assert not np.array_equal(r, rows(np.clip(plan.sigma ** 5.0, 0.0, 1.0))[2])

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

    @pytest.mark.parametrize("components", [1, 3])
    def test_rows_formed_on_first_call_at_any_step(self, components):
        # the per-step rows are split on the first score call; a fresh score
        # first asked for the last step, then step 0, gives both exactly
        rng = np.random.default_rng(components)
        d = 4
        covs = []
        for _ in range(components):
            a = rng.standard_normal((d, d))
            covs.append(a @ a.T / d + 0.1 * np.eye(d))
        weights = np.full(components, 1.0 / components)
        gm = GaussianMixture(weights, rng.standard_normal((components, d)), np.stack(covs))
        plan = VP.plan(VP.t_max, VP.t_min, 50)
        x = rng.standard_normal((5, d))
        score = oracle.planned_score(gm, plan)
        for k in (len(plan.times) - 2, 0):
            want = oracle.gm_score(oracle.gm_pushforward(gm, VP, float(plan.times[k])), x)
            np.testing.assert_array_equal(score(x, k), want)


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

    @pytest.mark.filterwarnings("error")
    def test_zero_sigma_is_singular(self):
        # with t_min = 1e-12 the range check admits t = 1e-16, where alpha
        # rounds to 1 and sigma to 0; no numpy warning comes before the error
        sch = NoiseSchedule.vp(t_min=1e-12)
        model = mixture_score_model(tilted_two_mode(), sch)
        drift = guided_score_drift(model, GuidanceSpec(np.ones(2),
                                                       WeightSchedule(POWER_OF_SIGMA)), sch)
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


@dataclass(frozen=True)
class StepByStep(GuidedDrift):
    """A planned drift walked one step at a time: its advance without the jump."""

    planned: GuidedDrift

    def stepper(self, start, end, steps):
        times, advance = self.planned.stepper(start, end, steps)
        return times, lambda x, k: advance(x, k)


def walked(drift) -> GuidedDrift:
    return StepByStep(drift.fn, drift.dim, drift)


class TestEigenJump:
    """A one-component prior with scalar lambda crosses each stretch between records
    in one jump; K = 2, an exponent map and the SDE walk every step."""

    @pytest.mark.parametrize("schedule", [VP, OTFM], ids=["vp", "otfm"])
    @pytest.mark.parametrize("arm", ["unguided", "sigma", "time", "constant", "sdedit"])
    @pytest.mark.parametrize("n", [None, 5], ids=["single", "batch"])
    @pytest.mark.parametrize("record_every", [0, 7])
    def test_jump_agrees_with_the_walk(self, schedule, arm, n, record_every):
        gm = rbf_field_prior(16, 3.0)
        _, drift, _, start, cfg = planned_arm(gm, schedule, arm, n, 1000, record_every)
        got = sample_ode(drift, cfg, x_start=start)
        want = sample_ode(walked(drift), cfg, x_start=start)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_allclose(got.states, want.states, rtol=0,
                                   atol=1e-13 * np.abs(want.states).max())

    @pytest.mark.parametrize("prior", [small_field, tilted_two_mode], ids=["K=1", "K=2"])
    @pytest.mark.parametrize("arm", [*WEIGHTS, "sdedit"])
    def test_score_calls(self, prior, arm, monkeypatch):
        calls = []
        score = oracle._score
        monkeypatch.setattr(oracle, "_score", lambda *a: calls.append(1) or score(*a))
        gm = prior()
        _, drift, spec, start, cfg = planned_arm(gm, VP, arm, 5, 50)
        sample_ode(drift, cfg, x_start=start)
        jumps = gm.n_components == 1 and (spec is None or spec.exponent_map is None)
        assert len(calls) == (0 if jumps else cfg.steps)

    def test_sde_walks_every_step(self, monkeypatch):
        calls = []
        score = oracle._score
        monkeypatch.setattr(oracle, "_score", lambda *a: calls.append(1) or score(*a))
        sde_ensemble(mixture_score_model(small_field(), VP), None, VP, SamplerConfig(steps=50), 5)
        assert len(calls) == 50

    def test_divergence_is_the_walks(self):
        # y~ = 1.7e308 on row 2: the bound declines every jump, and the walk
        # raises where the per-time law does
        gm = rbf_field_prior(8, 2.0)
        model = mixture_score_model(gm, VP)
        coarse = np.zeros((4, 8))
        coarse[2] = 1.7e308
        spec = GuidanceSpec(coarse, WeightSchedule(POWER_OF_SIGMA, exponent=5.0))
        errors = []
        for drift in (guided_score_drift(model, spec, VP), per_time_drift(model, VP, spec)):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                sample_ode(drift, SamplerConfig(steps=20), x_start=np.zeros((4, 8)))
            errors.append((err.value.step, err.value.t, err.value.trajectory))
        assert errors[0] == errors[1]
        assert errors[0] == (13, pytest.approx(0.35065, rel=1e-12), 2)

    def test_overflow_inside_a_stretch_is_the_walks(self):
        # a rough start of 1e307 overflows the walk at step 969, though the end
        # of the stretch would be finite: only the bound can decline this jump
        gm = small_field()
        model = mixture_score_model(gm, VP)
        start = np.zeros((3, gm.dim))
        start[1] = 1e307 * (-1.0) ** np.arange(gm.dim)
        errors = []
        for drift in (unguided_drift(model, VP), per_time_drift(model, VP)):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                sample_ode(drift, SamplerConfig(steps=1000), x_start=start)
            errors.append((err.value.step, err.value.t, err.value.trajectory))
        assert errors[0] == errors[1]
        assert errors[0][0] == 969 and errors[0][2] == 1

    @pytest.mark.parametrize("guided", [False, True], ids=["unguided", "guided"])
    def test_declined_jump_walks_bitwise(self, guided):
        # a start or reference of 1e299 fails the bound, though the walk stays finite
        gm = small_field()
        model = mixture_score_model(gm, VP)
        big = np.array([[1.0], [-1.0], [0.5]]) * np.full((3, gm.dim), 1e299)
        if guided:
            spec = GuidanceSpec(big, WeightSchedule(POWER_OF_SIGMA))
            drift, start = guided_score_drift(model, spec, VP), np.ones((3, gm.dim))
        else:
            drift, start = unguided_drift(model, VP), big
        cfg = SamplerConfig(steps=1000)
        _, advance = drift.stepper(cfg.start, cfg.end, cfg.steps)
        assert advance.jump(start, 0, cfg.steps) is None
        got = sample_ode(drift, cfg, x_start=start)
        want = sample_ode(walked(drift), cfg, x_start=start)
        assert np.isfinite(want.states).all()
        np.testing.assert_array_equal(got.states, want.states)


def old_order_sde(model, h, schedule, cfg, n):
    """Endpoints of sde_ensemble's trajectories stepped in the unfused order,
    x - (f - g^2 (s + h)) dt + g sqrt(dt) z, with the same starts and noise."""
    fn = old_order_law(model, schedule, 1.0, h=h)
    times = np.linspace(cfg.start, cfg.end, cfg.steps + 1).tolist()
    x, z = np.empty((n, model.dim)), np.empty((cfg.steps, n, model.dim))
    for i in range(n):
        rng = trial_rng(cfg.seed, i)
        x[i] = rng.standard_normal(model.dim)
        z[:, i] = rng.standard_normal((cfg.steps, model.dim))
    for k in range(cfg.steps):
        dt = times[k] - times[k + 1]
        x = x - fn(x, times[k]) * dt
        x = x + np.sqrt(schedule.diffusion_g2(times[k])) * np.sqrt(dt) * z[k]
    return x


class TestFusedStepFollowsTheLaw:
    """A 1,000-step fused run matches the unfused law f - c g^2 (s + correction)."""

    @pytest.mark.parametrize("prior", [small_field, tilted_two_mode], ids=["K=1", "K=2"])
    @pytest.mark.parametrize("arm", [*WEIGHTS, "exact_h"])
    def test_ode_arms(self, prior, arm):
        gm = prior()
        model = mixture_score_model(gm, VP)
        rng = np.random.default_rng(17)
        coarse, z = rng.normal(scale=1.5, size=(2, 5, gm.dim))
        spec = h = None
        if arm == "exact_h":
            target = coarse[0]
            h = lambda x, t: exact_h(x, target, gm, VP, t)
            fused = h_guided_drift(model, h, VP)
        elif WEIGHTS[arm] is None:
            fused = unguided_drift(model, VP)
        else:
            weights, with_map = WEIGHTS[arm]
            emap = np.linspace(1.0, 7.0, gm.dim) if with_map else None
            spec = GuidanceSpec(coarse, weights, exponent_map=emap)
            fused = guided_score_drift(model, spec, VP)
        cfg = SamplerConfig(steps=1000)
        got = sample_ode(fused, cfg, x_start=z).endpoint
        want = sample_ode(GuidedDrift(old_order_law(model, VP, 0.5, spec, h), gm.dim), cfg,
                          x_start=z).endpoint
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("with_h", [False, True], ids=["plain", "h"])
    def test_sde_arms(self, with_h):
        gm = tilted_two_mode()
        model = mixture_score_model(gm, VP)
        target = np.array([1.0, -0.5])
        h = (lambda x, t: exact_h(x, target, gm, VP, t)) if with_h else None
        cfg = SamplerConfig(steps=1000, start=1.0, end=0.25, seed=4)
        got = np.stack([p.endpoint for p in sde_ensemble(model, h, VP, cfg, 6)])
        np.testing.assert_allclose(got, old_order_sde(model, h, VP, cfg, 6),
                                   rtol=1e-12, atol=0)


class TestStepsWriteOnlyTheirOwnArrays:
    """No step writes into the start, the reference, a score or a closure's return."""

    @staticmethod
    def frozen(arr):
        arr = np.array(arr, dtype=float)
        arr.flags.writeable = False  # a write into it raises
        return arr

    def test_score_model_with_one_cached_array(self):
        cached = self.frozen([[0.3, -0.2]] * 4)
        model = ScoreModel(lambda x, t: cached, VP, 2)
        x_start, coarse = self.frozen(np.ones((4, 2))), self.frozen(np.full((4, 2), 2.0))
        spec = GuidanceSpec(coarse, WeightSchedule(POWER_OF_SIGMA))
        h = lambda x, t: cached
        cfg = SamplerConfig(steps=25)
        for drift in (unguided_drift(model, VP), guided_score_drift(model, spec, VP),
                      h_guided_drift(model, h, VP)):
            sample_ode(drift, cfg, x_start=x_start)
        assert spec.coarse is coarse
        sde_ensemble(model, h, VP, cfg, 4)
        np.testing.assert_array_equal(cached, [[0.3, -0.2]] * 4)
        np.testing.assert_array_equal(x_start, np.ones((4, 2)))
        np.testing.assert_array_equal(coarse, np.full((4, 2), 2.0))

    def test_jumped_runs(self):
        model = mixture_score_model(small_field(), VP)
        x_start, coarse = self.frozen(np.ones((4, 6))), self.frozen(np.full((4, 6), 2.0))
        spec = GuidanceSpec(coarse, WeightSchedule(POWER_OF_SIGMA))
        for drift in (unguided_drift(model, VP), guided_score_drift(model, spec, VP)):
            sample_ode(drift, SamplerConfig(steps=25, record_every=10), x_start=x_start)
        assert spec.coarse is coarse
        np.testing.assert_array_equal(x_start, np.ones((4, 6)))
        np.testing.assert_array_equal(coarse, np.full((4, 6), 2.0))

    def test_hand_built_drift_returning_its_input(self):
        x_start = self.frozen([1.0, -2.0])
        got = sample_ode(GuidedDrift(lambda x, t: x, 2), SamplerConfig(steps=3, end=0.4),
                         x_start=x_start)
        np.testing.assert_array_equal(x_start, [1.0, -2.0])
        want = x_start
        for dt in (0.2, 0.2, 0.2):
            want = want - want * dt
        np.testing.assert_allclose(got.endpoint, want, rtol=1e-15)
