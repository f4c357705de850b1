"""Score net: forward pass, gradients, training, conversions, persistence."""

import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from htx import cli
from htx.errors import ConfigError, SingularityError, TrainingError
from htx.oracle import GaussianMixture
from htx.schedules import NoiseSchedule
from htx.scorenet import (ADAM_EPS, BETA1, BETA2, LEARNING_RATE, MlpNet, TrainConfig,
                          _workspace, dsm_loss_grad, dsm_loss_grad_at, eps_to_score,
                          load_weights, mixture_score_model, save_weights, score_to_eps,
                          score_to_velocity, train, velocity_to_score)

SCHEDULE = NoiseSchedule.vp()


class TestForward:
    def test_zero_output_layer_maps_to_zero(self):
        net = MlpNet.init(2, rng=np.random.default_rng(0))
        params = list(net.params)
        params[4] = np.zeros_like(params[4])
        params[5] = np.zeros_like(params[5])
        zeroed = MlpNet(tuple(params), dim=2)
        out = zeroed.forward(np.array([1.0, -2.0]), 0.5, SCHEDULE)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_deterministic_repeat(self):
        net = MlpNet.init(3, rng=np.random.default_rng(1))
        x = np.array([0.3, -0.1, 2.0])
        a = net.forward(x, 0.7, SCHEDULE)
        b = net.forward(x, 0.7, SCHEDULE)
        np.testing.assert_array_equal(a, b)

    def test_locally_lipschitz(self):
        net = MlpNet.init(2, rng=np.random.default_rng(2))
        x = np.array([0.5, 0.5])
        base = net.forward(x, 0.5, SCHEDULE)
        bumped = net.forward(x + np.array([1e-6, 0.0]), 0.5, SCHEDULE)
        # finite-difference Jacobian column stays O(1), so the output moves O(1e-6)
        assert np.linalg.norm(bumped - base) < 1e-4

    def test_batched_matches_single(self):
        net = MlpNet.init(2, rng=np.random.default_rng(3))
        xs = np.random.default_rng(4).normal(size=(5, 2))
        batched = net.forward(xs, 0.4, SCHEDULE)
        for i in range(5):
            # BLAS batches and single rows may differ in the last ulp
            np.testing.assert_allclose(batched[i], net.forward(xs[i], 0.4, SCHEDULE),
                                       rtol=0, atol=1e-14)


class TestConversions:
    def test_eps_to_score_example(self):
        np.testing.assert_allclose(eps_to_score(np.array([0.8, 0.0]), 0.8), [-1.0, 0.0])

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(eps_to_score(np.zeros(3), 0.5), np.zeros(3))

    def test_round_trip(self):
        eps = np.array([0.3, -1.2])
        back = score_to_eps(eps_to_score(eps, 0.37), 0.37)
        np.testing.assert_allclose(back, eps, atol=1e-15)

    def test_sigma_zero_guard(self):
        with pytest.raises(SingularityError):
            eps_to_score(np.ones(2), 0.0)

    def test_velocity_examples(self):
        otfm = NoiseSchedule.otfm()
        # score = 0 gives pure drift
        np.testing.assert_allclose(score_to_velocity(0.0, 1.0, 0.5, otfm), -2.0)
        # otfm t=0.5, x=1, score=-1: v = -2 - 0.5*2*(-1) = -1
        np.testing.assert_allclose(score_to_velocity(-1.0, 1.0, 0.5, otfm), -1.0)

    def test_velocity_round_trip(self):
        rng = np.random.default_rng(5)
        for sch in (SCHEDULE, NoiseSchedule.otfm()):
            for _ in range(20):
                t = rng.uniform(0.05, 0.95)
                x = rng.normal(size=2)
                s = rng.normal(size=2)
                v = score_to_velocity(s, x, t, sch)
                np.testing.assert_allclose(velocity_to_score(v, x, t, sch), s,
                                           atol=1e-12)


class TestLossAndGradients:
    def test_perfect_predictor_zero_loss(self):
        # feed the drawn noise back as the prediction by zeroing the net and
        # adding it through the residual identity: build x0 = 0 so eps target
        # equals the perfect constant prediction of a bias-only net
        rng = np.random.default_rng(6)
        net = MlpNet.init(1, hidden=(4, 4), rng=rng)
        x0 = rng.normal(size=(8, 1))
        t = rng.uniform(SCHEDULE.t_min, SCHEDULE.t_max, size=8)
        eps = rng.standard_normal((8, 1))
        loss, _ = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        # oracle: recompute the weighted residual directly from the forward pass
        a, s = SCHEDULE.alpha_sigma(t)
        pred = net.forward(a[:, None] * x0 + s[:, None] * eps, 0.5, SCHEDULE)
        assert loss > 0.0  # a random net cannot be a perfect predictor
        exact = MlpNet(tuple([np.zeros_like(p) for p in net.params]), dim=1)
        loss0, _ = dsm_loss_grad_at(exact, x0, t, np.zeros((8, 1)), SCHEDULE)
        assert loss0 == 0.0  # zero net on zero noise: residual vanishes

    def test_zero_predictor_expected_loss(self):
        # a zero net predicts no noise, so the loss is the mean of ||eps||^2 / sigma^2
        rng = np.random.default_rng(7)
        net = MlpNet(tuple(np.zeros_like(p) for p in MlpNet.init(2, rng=np.random.default_rng(0)).params), dim=2)
        x0 = rng.standard_normal((20_000, 2))
        t = rng.uniform(SCHEDULE.t_min, SCHEDULE.t_max, size=20_000)
        eps = rng.standard_normal((20_000, 2))
        _, sigma = SCHEDULE.alpha_sigma(t)
        expected = np.mean(np.sum(eps * eps, axis=1) / sigma ** 2)
        loss, _ = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        assert abs(loss - expected) <= 1e-12 * expected

    def test_gradcheck_every_weight_of_tiny_net(self):
        rng = np.random.default_rng(8)
        net = MlpNet.init(1, hidden=(1, 1), rng=rng)
        x0 = rng.standard_normal((6, 1))
        t = rng.uniform(0.1, 0.9, size=6)
        eps = rng.standard_normal((6, 1))
        _, grads = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        step = 1e-6
        for layer in range(len(net.params)):
            for idx in range(net.params[layer].size):
                params = [p.copy() for p in net.params]
                params[layer].flat[idx] += step
                up, _ = dsm_loss_grad_at(MlpNet(tuple(params), 1), x0, t, eps, SCHEDULE)
                params[layer].flat[idx] -= 2 * step
                down, _ = dsm_loss_grad_at(MlpNet(tuple(params), 1), x0, t, eps, SCHEDULE)
                fd = (up - down) / (2 * step)
                np.testing.assert_allclose(grads[layer].flat[idx], fd,
                                           rtol=1e-5, atol=1e-6)

    def test_gradcheck_wider_net_random_coords(self):
        rng = np.random.default_rng(9)
        net = MlpNet.init(2, hidden=(8, 8), rng=rng)
        x0 = rng.standard_normal((16, 2))
        t = rng.uniform(0.1, 0.9, size=16)
        eps = rng.standard_normal((16, 2))
        _, grads = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        step = 1e-6
        for _ in range(50):
            layer = int(rng.integers(0, len(net.params)))
            idx = int(rng.integers(0, net.params[layer].size))
            params = [p.copy() for p in net.params]
            params[layer].flat[idx] += step
            up, _ = dsm_loss_grad_at(MlpNet(tuple(params), 2), x0, t, eps, SCHEDULE)
            params[layer].flat[idx] -= 2 * step
            down, _ = dsm_loss_grad_at(MlpNet(tuple(params), 2), x0, t, eps, SCHEDULE)
            fd = (up - down) / (2 * step)
            an = grads[layer].flat[idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-5


def _allocating_loss_grad(net, x0, t, eps, schedule):
    """The loss and gradients with fresh arrays for every intermediate."""
    a, s = schedule.alpha_sigma(t)
    a = a[:, None]
    s = s[:, None]
    xt = a * x0 + s * eps
    h0 = np.concatenate([xt, np.concatenate([a, s], axis=1)], axis=1)
    w1, b1, w2, b2, w3, b3 = net.params
    h1 = np.tanh(h0 @ w1.T + b1)
    h2 = np.tanh(h1 @ w2.T + b2)
    pred = h2 @ w3.T + b3
    n = x0.shape[0]
    resid = (pred - eps) / s
    loss = float(np.sum(resid * resid) / n)
    g_out = 2.0 * resid / (s * n)
    g_h2 = (g_out @ w3) * (1.0 - h2 * h2)
    g_h1 = (g_h2 @ w2) * (1.0 - h1 * h1)
    return loss, (g_h1.T @ h0, g_h1.sum(axis=0), g_h2.T @ h1, g_h2.sum(axis=0),
                  g_out.T @ h2, g_out.sum(axis=0))


def _allocating_train(net, data, cfg, schedule):
    """train's Adam loop with fresh arrays at every step, the reference for its workspace."""
    rng = np.random.default_rng(cfg.seed)
    params = [p.copy() for p in net.params]
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    curve = []
    for step in range(cfg.steps):
        idx = rng.integers(0, data.shape[0], size=cfg.batch)
        batch = data[idx]
        t = rng.uniform(schedule.t_min, schedule.t_max, size=cfg.batch)
        eps = rng.standard_normal(batch.shape)
        loss, grads = _allocating_loss_grad(MlpNet(tuple(params), net.dim), batch, t, eps,
                                            schedule)
        if step % 100 == 0:
            curve.append([float(step), loss])
        scale1 = 1.0 - BETA1 ** (step + 1)
        scale2 = 1.0 - BETA2 ** (step + 1)
        for i, g in enumerate(grads):
            moment1[i] = BETA1 * moment1[i] + (1.0 - BETA1) * g
            moment2[i] = BETA2 * moment2[i] + (1.0 - BETA2) * g * g
            step_dir = (moment1[i] / scale1) / (np.sqrt(moment2[i] / scale2) + ADAM_EPS)
            params[i] = params[i] - LEARNING_RATE * step_dir
    final_rng = np.random.default_rng(cfg.seed + 1)
    batch = data[: cfg.batch]
    t = final_rng.uniform(schedule.t_min, schedule.t_max, size=cfg.batch)
    eps = final_rng.standard_normal(batch.shape)
    loss, _ = _allocating_loss_grad(MlpNet(tuple(params), net.dim), batch, t, eps, schedule)
    curve.append([float(cfg.steps), loss])
    return params, np.asarray(curve)


class TestWorkspace:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("batch", [256, 7])
    def test_train_equals_the_allocating_loop_bitwise(self, dim, batch):
        data = np.random.default_rng(30 + dim).standard_normal((512, dim))
        net = MlpNet.init(dim, rng=np.random.default_rng(40 + batch))
        cfg = TrainConfig(steps=300, batch=batch, seed=dim * batch)
        trained, curve = train(net, data, cfg, SCHEDULE)
        params, ref_curve = _allocating_train(net, data, cfg, SCHEDULE)
        assert np.array_equal(curve, ref_curve)
        for got, want in zip(trained.params, params, strict=True):
            assert np.array_equal(got, want)

    def test_non_square_net_equals_the_allocating_loop_bitwise(self):
        # every block of dim 3 and hidden (5, 3) has its own shape: (5, 5), (5,),
        # (3, 5), (3,), (3, 3), (3,), so a view cut at a wrong offset shows
        data = np.random.default_rng(33).standard_normal((512, 3))
        net = MlpNet.init(3, hidden=(5, 3), rng=np.random.default_rng(43))
        cfg = TrainConfig(steps=300, batch=32, seed=3)
        trained, curve = train(net, data, cfg, SCHEDULE)
        params, ref_curve = _allocating_train(net, data, cfg, SCHEDULE)
        assert np.array_equal(curve, ref_curve)
        for got, want in zip(trained.params, params, strict=True):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_standalone_calls_are_equal_and_share_no_memory(self):
        rng = np.random.default_rng(41)
        net = MlpNet.init(2, rng=rng)
        x0 = rng.standard_normal((256, 2))
        t = rng.uniform(SCHEDULE.t_min, SCHEDULE.t_max, size=256)
        eps = rng.standard_normal((256, 2))
        first = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        second = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE)
        assert first[0] == second[0]
        for a, b in zip(first[1], second[1], strict=True):
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, b)
        # a workspace receives the intermediates, never a returned gradient
        work = _workspace(net, 256)
        loss, grads = dsm_loss_grad_at(net, x0, t, eps, SCHEDULE, _work=work)
        assert loss == first[0]
        for g, want in zip(grads, first[1], strict=True):
            assert np.array_equal(g, want)
            assert not any(np.shares_memory(g, w) for w in work)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    def test_training_steps_take_no_page_faults(self):
        # a fresh interpreter, so the allocator's state is that of a new run.  At
        # batch 256 and width 64 a fresh array per intermediate took about 160
        # faults a step: each 128 KiB array came from pages the allocator had just
        # handed back to the kernel.  Whether it does depends on the heap's layout;
        # 8,192 data rows, the size every shipped caller trains on, showed it.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from htx.schedules import NoiseSchedule
            from htx.scorenet import MlpNet, TrainConfig, train
            data = np.random.default_rng(0).standard_normal((8192, 2))
            net = MlpNet.init(2, hidden=(64, 64), rng=np.random.default_rng(1))
            cfg = TrainConfig(steps=500, batch=256)
            schedule = NoiseSchedule.vp(t_min=0.1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(net, data, cfg, schedule)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        root = Path(__file__).resolve().parents[1]
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout.split()[-1])
        assert faults / 500 < 5, f"{faults} minor page faults in 500 steps"


class TestTraining:
    def test_zero_steps_is_noop(self):
        net = MlpNet.init(2, rng=np.random.default_rng(10))
        data = np.random.default_rng(11).standard_normal((512, 2))
        trained, curve = train(net, data, TrainConfig(steps=0, batch=256), SCHEDULE)
        for a, b in zip(trained.params, net.params):
            np.testing.assert_array_equal(a, b)
        assert curve.size == 0

    def test_seed_determinism(self):
        data = np.random.default_rng(12).standard_normal((512, 2))
        runs = []
        for _ in range(2):
            net = MlpNet.init(2, rng=np.random.default_rng(10))
            trained, curve = train(net, data, TrainConfig(steps=300, seed=5), SCHEDULE)
            runs.append((trained, curve))
        for a, b in zip(runs[0][0].params, runs[1][0].params):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_loss_improves(self):
        # compare the objective on a fixed probe batch before and after training;
        # the running batch loss is too noisy under the 1/sigma^2 weighting
        sch = NoiseSchedule.vp(t_min=0.1)
        data = np.random.default_rng(13).standard_normal((2048, 2))
        net = MlpNet.init(2, rng=np.random.default_rng(14))
        trained, curve = train(net, data, TrainConfig(steps=1500, seed=1), sch)
        probe_rng = np.random.default_rng(99)
        px = probe_rng.standard_normal((2048, 2))
        pt = probe_rng.uniform(sch.t_min, sch.t_max, size=2048)
        pe = probe_rng.standard_normal((2048, 2))
        before, _ = dsm_loss_grad_at(net, px, pt, pe, sch)
        after, _ = dsm_loss_grad_at(trained, px, pt, pe, sch)
        assert after < before
        # smoothed curve: last window at or below the first
        first = curve[:5, 1].mean()
        last = curve[-5:, 1].mean()
        assert last <= first

    def test_caller_net_unchanged_and_results_share_no_memory(self):
        net = MlpNet.init(2, hidden=(6, 4), rng=np.random.default_rng(17))
        before = [p.tobytes() for p in net.params]
        data = np.random.default_rng(18).standard_normal((256, 2))
        cfg = TrainConfig(steps=50, batch=64)
        first, _ = train(net, data, cfg, SCHEDULE)
        second, _ = train(net, data, cfg, SCHEDULE)
        assert [p.tobytes() for p in net.params] == before
        for p in first.params:
            assert not any(np.shares_memory(p, q) for q in net.params + second.params)

    def test_cli_train_saves_the_trained_net_bitwise(self, tmp_path, monkeypatch):
        runs = []

        def recording(*args):
            runs.append(train(*args))
            return runs[-1]
        monkeypatch.setattr(cli, "train", recording)
        assert cli.main(["train", "--steps", "200", "--out", str(tmp_path)]) == 0
        ((trained, _),) = runs
        loaded = load_weights(tmp_path / "scorenet.htx")
        assert loaded.dim == trained.dim
        for got, want in zip(loaded.params, trained.params, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_divergence_raises_training_error(self):
        net = MlpNet.init(1, rng=np.random.default_rng(15))
        params = list(net.params)
        params[0] = params[0] * np.inf
        broken = MlpNet(tuple(params), dim=1)
        data = np.random.default_rng(16).standard_normal((64, 1))
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
            train(broken, data, TrainConfig(steps=10, batch=32), SCHEDULE)


class TestPersistence:
    def test_weight_file_round_trip(self, tmp_path):
        net = MlpNet.init(2, rng=np.random.default_rng(19))
        path = tmp_path / "net.htx"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.dim == net.dim
        for a, b in zip(loaded.params, net.params):
            np.testing.assert_array_equal(a, b)

    def test_magic_header(self, tmp_path):
        net = MlpNet.init(1, hidden=(4, 4), rng=np.random.default_rng(20))
        path = tmp_path / "net.htx"
        save_weights(net, path)
        blob = path.read_bytes()
        assert blob[:7] == b"HTXNET1"
        assert blob[7] == 4  # [input, h1, h2, output]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.htx"
        path.write_bytes(b"NOTANET" + b"\x00" * 32)
        with pytest.raises(Exception):
            load_weights(path)

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:9],                     # header cut inside the sizes
        lambda blob: blob[:-8],                    # last bias missing
        lambda blob: blob[:30],                    # body cut short
        lambda blob: blob + b"\x00" * 8,           # trailing bytes
        lambda blob: blob[:7] + b"\x03" + blob[8:],  # wrong number of layer sizes
        lambda blob: blob[:8] + struct.pack("<I", 5) + blob[12:],  # input width != dim + 2
        lambda blob: blob[:7],                     # magic only
    ])
    def test_corrupt_weight_file_is_config_error(self, tmp_path, corrupt):
        net = MlpNet.init(2, hidden=(3, 3), rng=np.random.default_rng(21))
        path = tmp_path / "net.htx"
        save_weights(net, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ConfigError):
            load_weights(path)


class TestScoreModel:
    def test_mixture_model_matches_direct_score(self):
        gm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        model = mixture_score_model(gm, SCHEDULE)
        x = np.array([0.7, -0.2])
        np.testing.assert_allclose(model.score(x, 0.5), -x, atol=1e-12)

    def test_parameterization_views_consistent(self):
        gm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        model = mixture_score_model(gm, SCHEDULE)
        x = np.array([0.7, -0.2])
        t = 0.5
        a, s = SCHEDULE.alpha_sigma(t)
        np.testing.assert_allclose(model.epsilon(x, t), -s * model.score(x, t))
        np.testing.assert_allclose(
            model.velocity(x, t),
            SCHEDULE.drift_f(x, t) - 0.5 * SCHEDULE.diffusion_g2(t) * model.score(x, t))
