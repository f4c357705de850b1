"""Euler integrators: determinism, recording, divergence, ensembles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from htx import oracle, solvers
from htx.errors import ConfigError, DivergenceError
from htx.guidance import (GuidanceSpec, GuidedDrift, guided_score_drift, h_guided_drift,
                          score_drift, unguided_drift)
from htx.oracle import GaussianMixture, exact_h, gm_sample
from htx.schedules import POWER_OF_SIGMA, NoiseSchedule, WeightSchedule
from htx.scorenet import mixture_score_model
from htx.solvers import (EULER_MARUYAMA, SamplerConfig, Trajectory, marginal_stats,
                         ode_ensemble, sample_ode, sde_ensemble, trial_rng)

VP = NoiseSchedule.vp()


def two_mode():
    return GaussianMixture(np.array([0.5, 0.5]),
                           np.array([[-3.0, 0.0], [3.0, 0.0]]),
                           np.stack([np.eye(2), np.eye(2)]))


class TestSamplerConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            SamplerConfig(steps=0)
        with pytest.raises(ConfigError):
            SamplerConfig(steps=10, start=0.1, end=0.5)
        with pytest.raises(ConfigError):
            SamplerConfig(steps=10, solver="rk4")


class TestOde:
    def test_frozen_dynamics(self):
        drift = GuidedDrift(lambda x, t: np.zeros_like(x), dim=2)
        cfg = SamplerConfig(steps=50)
        start = np.array([1.5, -2.5])
        traj = sample_ode(drift, cfg, x_start=start)
        np.testing.assert_array_equal(traj.endpoint, start)

    def test_times_strictly_decrease_and_bracket(self):
        drift = GuidedDrift(lambda x, t: -x, dim=1)
        cfg = SamplerConfig(steps=40, record_every=7)
        traj = sample_ode(drift, cfg, x_start=np.array([1.0]))
        assert np.all(np.diff(traj.times) < 0)
        assert traj.times[0] == cfg.start
        assert traj.times[-1] == cfg.end
        np.testing.assert_array_equal(traj.states[-1], traj.endpoint)

    def test_determinism_without_start(self):
        model = mixture_score_model(two_mode(), VP)
        drift = unguided_drift(model, VP)
        cfg = SamplerConfig(steps=100, seed=42)
        start = np.random.default_rng(42).standard_normal(2)
        a = sample_ode(drift, cfg, x_start=start)
        b = sample_ode(drift, cfg, x_start=start)
        np.testing.assert_array_equal(a.endpoint, b.endpoint)

    def test_divergence_reports_step(self):
        drift = GuidedDrift(lambda x, t: x * 1e6, dim=1)
        cfg = SamplerConfig(steps=400)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            sample_ode(drift, cfg, x_start=np.array([1.0]))
        assert 0 <= err.value.step < 400
        # a batch names its first non-finite row and the grid time of the step
        grid = np.linspace(cfg.start, cfg.end, cfg.steps + 1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as batched:
            sample_ode(drift, cfg, x_start=np.array([[0.0], [0.0], [1.0], [-1.0]]))
        exc = batched.value
        assert (exc.step, exc.t, exc.trajectory) == (err.value.step, grid[exc.step], 2)
        assert str(exc) == f"non-finite state at step {exc.step} (t={exc.t:g}, trajectory 2)"

    def test_ensemble_divergence_names_the_trajectory(self, monkeypatch):
        # trajectory 3 starts out of range; with chunk=2 it is row 1 of the second chunk
        monkeypatch.setattr(solvers, "SDE_CHUNK", 2)
        model = mixture_score_model(two_mode(), VP)
        starts = iter([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6], [1e200, 0.0], [0.7, 0.8]])
        cfg = SamplerConfig(steps=20, solver=EULER_MARUYAMA)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            sde_ensemble(model, None, VP, cfg, 5, start_fn=lambda rng: next(starts))
        assert (err.value.step, err.value.t, err.value.trajectory) == (0, cfg.start, 3)

    def test_batched_start(self):
        drift = GuidedDrift(lambda x, t: np.zeros_like(x), dim=2)
        starts = np.arange(6.0).reshape(3, 2)
        traj = sample_ode(drift, SamplerConfig(steps=10), x_start=starts)
        np.testing.assert_array_equal(traj.endpoint, starts)


class TestScoreCount:
    """Each drift evaluation scores the state once (oracle._log_terms, one call per step)."""

    STEPS = 30

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        log_terms = oracle._log_terms

        def counted(*args):
            count[0] += 1
            return log_terms(*args)
        monkeypatch.setattr(oracle, "_log_terms", counted)
        return count

    def _setup(self):
        gm = two_mode()
        target = np.array([2.5, -0.5])
        return mixture_score_model(gm, VP), lambda x, t: exact_h(x, target, gm, VP, t)

    def test_ode_drifts(self, calls):
        model, h = self._setup()
        spec = GuidanceSpec(np.array([2.5, -0.5]), WeightSchedule(POWER_OF_SIGMA))
        starts = np.array([[0.3, -1.2], [1.0, 0.4]])
        for drift in (h_guided_drift(model, h, VP), unguided_drift(model, VP),
                      guided_score_drift(model, spec, VP)):
            calls[0] = 0
            sample_ode(drift, SamplerConfig(steps=self.STEPS), x_start=starts)
            assert calls[0] == self.STEPS

    def test_single_component_forms_no_responsibilities(self, calls):
        # the log terms serve only the responsibilities, which one component skips
        gm = GaussianMixture(np.array([1.0]), np.array([[1.5, -0.5]]), (0.7 * np.eye(2))[None])
        spec = GuidanceSpec(np.array([2.5, -0.5]), WeightSchedule(POWER_OF_SIGMA))
        drift = guided_score_drift(mixture_score_model(gm, VP), spec, VP)
        sample_ode(drift, SamplerConfig(steps=self.STEPS), x_start=np.array([[0.3, -1.2]]))
        assert calls[0] == 0

    def test_sde_ensemble_with_h(self, calls):
        model, h = self._setup()
        cfg = SamplerConfig(steps=self.STEPS, solver=EULER_MARUYAMA, seed=3)
        sde_ensemble(model, h, VP, cfg, 4)
        assert calls[0] == self.STEPS


class TestSde:
    def test_seed_reproducibility(self):
        model = mixture_score_model(two_mode(), VP)
        cfg = SamplerConfig(steps=200, solver=EULER_MARUYAMA, seed=9)
        for a, b in zip(sde_ensemble(model, None, VP, cfg, 3),
                        sde_ensemble(model, None, VP, cfg, 3)):
            np.testing.assert_array_equal(a.endpoint, b.endpoint)
            np.testing.assert_array_equal(a.states, b.states)

    def test_zero_noise_schedule_reduces_to_ode(self):
        # duck-typed schedule with g^2 = 0: the SDE becomes dx = f dt
        class ZeroNoise:
            t_min, t_max, kind = VP.t_min, VP.t_max, VP.kind

            def alpha_sigma(self, t):
                return VP.alpha_sigma(t)

            def drift_f(self, x, t):
                return VP.drift_f(x, t)

            def diffusion_g2(self, t):
                return 0.0

            def plan(self, start, end, steps):
                return dataclasses.replace(VP.plan(start, end, steps), g2=np.zeros(steps))

        sch = ZeroNoise()
        model = mixture_score_model(two_mode(), VP)
        cfg_sde = SamplerConfig(steps=80, solver=EULER_MARUYAMA, seed=1)
        start = np.array([0.7, -0.3])
        [sde] = sde_ensemble(model, None, sch, cfg_sde, 1, start_fn=lambda rng: start)
        drift = GuidedDrift(lambda x, t: sch.drift_f(x, t), dim=2)
        ode = sample_ode(drift, SamplerConfig(steps=80), x_start=start)
        np.testing.assert_allclose(sde.endpoint, ode.endpoint, atol=1e-12)

    def test_unguided_endpoint_moments(self):
        # unit-Gaussian oracle: endpoints must match p_0 = N(0, I) moments
        gm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        model = mixture_score_model(gm, VP)
        cfg = SamplerConfig(steps=300, solver=EULER_MARUYAMA, seed=3)
        paths = sde_ensemble(model, None, VP, cfg, 4000)
        ends = np.stack([p.endpoint for p in paths])
        se_mean = ends.std(axis=0, ddof=1) / np.sqrt(len(paths))
        assert np.all(np.abs(ends.mean(axis=0)) < 3 * se_mean)
        var = ends.var(axis=0, ddof=1)
        se_var = var * np.sqrt(2.0 / (len(paths) - 1))
        assert np.all(np.abs(var - 1.0) < 4 * se_var)


class TestEnsembles:
    def test_ode_ensemble_matches_single_runs(self):
        model = mixture_score_model(two_mode(), VP)
        drift = unguided_drift(model, VP)
        cfg = SamplerConfig(steps=60, seed=11)
        paths = ode_ensemble(drift, cfg, 5)
        for i in range(5):
            rng = trial_rng(cfg.seed, i)
            solo = sample_ode(drift, cfg, x_start=rng.standard_normal(2))
            np.testing.assert_allclose(paths[i].endpoint, solo.endpoint,
                                       rtol=0, atol=1e-12)

    def test_sde_ensemble_matches_single_runs(self, monkeypatch):
        model = mixture_score_model(two_mode(), VP)
        cfg = SamplerConfig(steps=60, solver=EULER_MARUYAMA, seed=11, record_every=20)
        monkeypatch.setattr(solvers, "SDE_CHUNK", 2)
        paths = sde_ensemble(model, None, VP, cfg, 5)
        monkeypatch.setattr(solvers, "SDE_CHUNK", 1)
        solos = sde_ensemble(model, None, VP, cfg, 5)  # each integrated alone
        for path, solo in zip(paths, solos):
            # batched score arithmetic may differ from a lone run in the last bit
            np.testing.assert_allclose(path.states, solo.states, rtol=0, atol=1e-12)

    def test_sde_ensemble_chunking_invariant(self, monkeypatch):
        model = mixture_score_model(two_mode(), VP)
        cfg = SamplerConfig(steps=50, solver=EULER_MARUYAMA, seed=13)
        monkeypatch.setattr(solvers, "SDE_CHUNK", 100)
        big = sde_ensemble(model, None, VP, cfg, 7)
        monkeypatch.setattr(solvers, "SDE_CHUNK", 3)
        small = sde_ensemble(model, None, VP, cfg, 7)
        for a, b in zip(big, small):
            np.testing.assert_allclose(a.endpoint, b.endpoint, rtol=0, atol=1e-12)


def predrawn_sde(model, h, schedule, cfg, n):
    """The whole-path reference: every batch of SDE_CHUNK trajectories draws each
    one's (steps, d) noise before step 0, then runs the Euler-Maruyama loop.

    Returns the recorded times and, per trajectory, (recorded states, endpoint).
    """
    plan = schedule.plan(cfg.start, cfg.end, cfg.steps)
    if h is None:
        step = score_drift(plan, 1.0, model.planned_score(plan))
    else:
        step = score_drift(plan, 1.0, plan.per_time(model.score),
                           plan.per_time(lambda x, t, s: h(x, t)))
    scale = (np.sqrt(plan.g2) * np.sqrt(plan.dt)).tolist()
    dts = (plan.times[:-1] - plan.times[1:]).tolist()
    rec = solvers._record_indices(cfg)
    paths = []
    for lo in range(0, n, solvers.SDE_CHUNK):
        m = min(lo + solvers.SDE_CHUNK, n) - lo
        x, noise = np.empty((m, model.dim)), np.empty((cfg.steps, m, model.dim))
        for i in range(m):
            rng = trial_rng(cfg.seed, lo + i)
            x[i] = rng.standard_normal(model.dim)
            noise[:, i, :] = rng.standard_normal((cfg.steps, model.dim))
        states = [x]
        for k in range(cfg.steps):
            x = x - step(x, k) * dts[k]
            x = x + scale[k] * noise[k]
            states.append(x)
        recorded = np.stack(states)[rec]
        paths.extend((recorded[:, i], x[i]) for i in range(m))
    return plan.times[rec], paths


class TestStreamedNoise:
    """Noise drawn NOISE_STEPS steps at a time is bitwise the whole-path draw."""

    @pytest.mark.parametrize("block, steps", [(8, 5), (8, 8), (8, 19),
                                              (None, solvers.NOISE_STEPS + 10)])
    @pytest.mark.parametrize("with_h", [False, True])
    @pytest.mark.parametrize("record_every", [0, 3])
    def test_equals_predrawn(self, monkeypatch, block, steps, with_h, record_every):
        if block is not None:
            monkeypatch.setattr(solvers, "NOISE_STEPS", block)
        monkeypatch.setattr(solvers, "SDE_CHUNK", 3)  # 7 trajectories in three chunks
        gm = two_mode()
        model = mixture_score_model(gm, VP)
        target = np.array([2.5, -0.5])
        h = (lambda x, t: exact_h(x, target, gm, VP, t)) if with_h else None
        cfg = SamplerConfig(steps=steps, solver=EULER_MARUYAMA, seed=5,
                            record_every=record_every)
        times, want = predrawn_sde(model, h, VP, cfg, 7)
        got = sde_ensemble(model, h, VP, cfg, 7)
        assert len(got) == len(want)
        for path, (states, endpoint) in zip(got, want):
            np.testing.assert_array_equal(path.times, times)
            np.testing.assert_array_equal(path.states, states)
            np.testing.assert_array_equal(path.endpoint, endpoint)

    def test_traced_peak_does_not_grow_with_steps(self):
        # from NOISE_STEPS steps to four times as many, a whole-path draw grows
        # the peak by three whole buffers; streamed, the buffer stays one block
        model = mixture_score_model(
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None]), VP)
        n, d = 2000, 2

        def traced_peak(steps):
            cfg = SamplerConfig(steps=steps, solver=EULER_MARUYAMA, seed=1)
            tracemalloc.start()
            try:
                sde_ensemble(model, None, VP, cfg, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(4)  # warm-up: one-time allocations stay out of the comparison
        block = solvers.NOISE_STEPS
        slack = 512 * 1024  # plan rows, their lists and the score rows grow with steps
        assert traced_peak(4 * block) - traced_peak(block) < block * n * d * 8 + slack


class TestMarginalStats:
    def test_single_trajectory_zero_covariance(self):
        traj = Trajectory(times=np.array([1.0, 0.5]),
                          states=np.array([[1.0, 2.0], [0.5, 1.0]]),
                          endpoint=np.array([0.5, 1.0]))
        mean, cov = marginal_stats([traj], 0.5)
        np.testing.assert_array_equal(mean, [0.5, 1.0])
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_lookup_error(self):
        traj = Trajectory(times=np.array([1.0, 0.5]),
                          states=np.zeros((2, 2)),
                          endpoint=np.zeros(2))
        with pytest.raises(KeyError):
            marginal_stats([traj], 0.3)

    def test_prior_moments_at_start(self):
        drift = GuidedDrift(lambda x, t: np.zeros_like(x), dim=2)
        cfg = SamplerConfig(steps=10, record_every=10, seed=21)
        paths = ode_ensemble(drift, cfg, 4000)
        mean, cov = marginal_stats(paths, cfg.start)
        assert np.all(np.abs(mean) < 3 / np.sqrt(4000))
        assert np.all(np.abs(np.diag(cov) - 1.0) < 4 * np.sqrt(2.0 / 3999))


class TestConvergenceOrder:
    def test_first_order_on_exact_bridge(self):
        gm = two_mode()
        model = mixture_score_model(gm, VP)
        rng = np.random.default_rng(17)
        target = gm_sample(gm, 1, rng)[0]
        start = rng.standard_normal(2)

        def h_fn(x, t):
            return exact_h(x, target, gm, VP, t)

        drift = h_guided_drift(model, h_fn, VP)

        def endpoint(steps):
            cfg = SamplerConfig(steps=steps)
            return sample_ode(drift, cfg, x_start=start).endpoint

        ref = endpoint(20_000)
        errs = [np.linalg.norm(endpoint(m) - ref) for m in (250, 500, 1000)]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(1.7 <= r <= 2.3 for r in ratios), ratios
