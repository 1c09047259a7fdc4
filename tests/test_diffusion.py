import numpy as np
import pytest

from flowprune import engine
from flowprune.datasets import DatasetSpec, generate
from flowprune.diffusion import (
    Adam,
    NoisePredictor,
    OptimizerConfig,
    TrainBatch,
    ddim_timesteps,
    draw_batch,
    loss,
    loss_and_grads,
    make_schedule,
    noisy_sample,
    sample_ddim,
    sample_ddpm,
    time_embedding,
    train,
)
from flowprune.metrics import frechet_distance
from flowprune.seeding import make_rng


def tiny_model(seed=0):
    return NoisePredictor(dim=1, hidden=3, depth=1, temb_dim=2, seed=seed)


class TestSchedule:
    def test_hand_product(self):
        s = make_schedule(2, 0.5, 0.5)
        np.testing.assert_allclose(s.beta, [0.5, 0.5])
        np.testing.assert_allclose(s.alpha_bar, [0.5, 0.25])

    def test_default_endpoint(self):
        s = make_schedule(1000, 1e-4, 0.02)
        assert s.alpha_bar[999] < 1e-4
        assert np.all(np.diff(s.beta) >= 0)
        np.testing.assert_allclose(
            s.alpha_bar, np.cumprod(1.0 - s.beta), rtol=1e-12
        )
        assert np.all(np.diff(s.alpha_bar) < 0)

    @pytest.mark.parametrize(
        "args", [(1, 0.1, 0.2), (10, 0.0, 0.2), (10, 0.3, 0.2), (10, 0.1, 1.0)]
    )
    def test_bounds_rejected(self, args):
        with pytest.raises(ValueError):
            make_schedule(*args)


class TestNoisySample:
    def test_zero_noise_limit(self):
        s = make_schedule(1000, 1e-4, 0.02)
        x0 = np.array([[1.0, -2.0]])
        out = noisy_sample(s, x0, np.array([0]), np.zeros((1, 2)))
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[0]) * x0)
        assert abs(out[0, 0] - 1.0) < 1e-3

    def test_plug_in(self):
        s = make_schedule(2, 0.5, 0.5)  # alpha_bar[1] = 0.25
        out = noisy_sample(
            s, np.array([[1.0, 0.0]]), np.array([1]), np.array([[0.0, 1.0]])
        )
        np.testing.assert_allclose(out, [[0.5, np.sqrt(0.75)]])

    def test_batch_matches_scalar_loop(self):
        s = make_schedule(100, 1e-3, 0.1)
        rng = make_rng(0, "t")
        x0 = rng.normal(size=(64, 2))
        t = rng.integers(0, 100, size=64)
        eps = rng.normal(size=(64, 2))
        out = noisy_sample(s, x0, t, eps)
        for i in range(64):
            row = np.sqrt(s.alpha_bar[t[i]]) * x0[i] + np.sqrt(
                1 - s.alpha_bar[t[i]]
            ) * eps[i]
            np.testing.assert_array_equal(out[i], row)

    def test_out_of_range(self):
        s = make_schedule(10, 0.1, 0.2)
        with pytest.raises(ValueError):
            noisy_sample(s, np.zeros((1, 2)), np.array([10]), np.zeros((1, 2)))

    def test_variance(self):
        s = make_schedule(1000, 1e-4, 0.02)
        rng = make_rng(1, "var")
        t = 400
        eps = rng.normal(size=(20_000, 2))
        out = noisy_sample(s, np.zeros((20_000, 2)), np.full(20_000, t), eps)
        target = 1.0 - s.alpha_bar[t]
        assert np.all(np.abs(out.var(axis=0) / target - 1.0) < 0.05)


class TestLoss:
    def test_perfect_predictor_stub(self):
        # A stub whose prediction is exactly eps drives the objective to zero.
        rec = engine.Record()
        eps = rec.input("eps", (4, 2))
        eps_hat = rec.affine(eps, 1.0)
        diff = rec.add(eps, rec.affine(eps_hat, -1.0))
        rec.set_output(rec.affine(rec.sum_sq(diff), 1.0 / 8.0))
        rng = make_rng(0, "stub")
        assert engine.forward(rec, {"eps": rng.normal(size=(4, 2))}) == 0.0

    def test_zero_predictor_unit_rows(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        model.params["out.w"][:] = 0.0
        model.params["out.b"][:] = 0.0
        sched = make_schedule(100, 1e-3, 0.1)
        rng = make_rng(2, "loss")
        eps = rng.normal(size=(16, 2))
        eps /= np.linalg.norm(eps, axis=1, keepdims=True)
        batch = TrainBatch(
            x0=rng.normal(size=(16, 2)), t=rng.integers(0, 100, 16), eps=eps
        )
        ctx = loss(model, sched, batch)
        np.testing.assert_allclose(ctx.value, 1.0 / 2.0, rtol=1e-12)

    def test_gradient_matches_fd(self):
        model = tiny_model()
        sched = make_schedule(50, 1e-3, 0.1)
        rng = make_rng(3, "fd")
        batch = TrainBatch(
            x0=rng.normal(size=(8, 1)),
            t=rng.integers(0, 50, 8),
            eps=rng.normal(size=(8, 1)),
        )
        ctx = loss(model, sched, batch)
        names = list(model.params)
        grads = engine.gradient(ctx.record, ctx.inputs, names)
        step = 1e-5
        for name in names:
            base = ctx.inputs[name]
            fd = np.zeros_like(base)
            flat = base.ravel()
            fdf = fd.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + step
                fp = float(engine.forward(ctx.record, ctx.inputs))
                flat[i] = old - step
                fm = float(engine.forward(ctx.record, ctx.inputs))
                flat[i] = old
                fdf[i] = (fp - fm) / (2 * step)
            denom = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(grads[name] - fd)) / denom < 1e-5, name

    def test_row_permutation_invariance(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=1)
        sched = make_schedule(100, 1e-3, 0.1)
        rng = make_rng(4, "perm")
        batch = TrainBatch(
            x0=rng.normal(size=(32, 2)),
            t=rng.integers(0, 100, 32),
            eps=rng.normal(size=(32, 2)),
        )
        perm = rng.permutation(32)
        shuffled = TrainBatch(x0=batch.x0[perm], t=batch.t[perm], eps=batch.eps[perm])
        a = loss(model, sched, batch).value
        b = loss(model, sched, shuffled).value
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


class TestTraining:
    def test_loss_halves_on_ring_mixture(self):
        data = generate(DatasetSpec("ring-mixture", 4096, seed=0))
        model = NoisePredictor(dim=2, seed=0)
        sched = make_schedule(1000, 1e-4, 0.02)
        opt = Adam(model.params, OptimizerConfig())
        trace = train(model, sched, data, steps=5000, opt=opt, seed=0,
                      stage="pretrain", batch_size=128)
        first = trace[0][1]
        last = np.median([v for _, v in trace[-10:]])
        assert last < 0.5 * first

    def test_seeded_determinism(self):
        data = generate(DatasetSpec("ring-mixture", 256, seed=0))
        sched = make_schedule(50, 1e-3, 0.1)
        outs = []
        for _ in range(2):
            model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=5)
            opt = Adam(model.params, OptimizerConfig())
            train(model, sched, data, steps=20, opt=opt, seed=9, stage="s",
                  batch_size=16)
            outs.append(np.concatenate([p.ravel() for p in model.params.values()]))
        assert outs[0].tobytes() == outs[1].tobytes()


class TestSamplers:
    def test_ddim_timesteps_degenerate(self):
        ts = ddim_timesteps(100, 100)
        np.testing.assert_array_equal(ts, np.arange(100))
        ts = ddim_timesteps(1000, 100)
        assert ts[0] == 0 and ts[-1] == 999 and len(ts) == 100

    def test_ddim_bit_determinism(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(100, 1e-3, 0.1)
        a = sample_ddim(model, sched, 16, 10, noise_seed=7)
        b = sample_ddim(model, sched, 16, 10, noise_seed=7)
        assert a.tobytes() == b.tobytes()
        c = sample_ddim(model, sched, 16, 10, noise_seed=8)
        assert not np.array_equal(a, c)

    def test_ddpm_runs_and_is_seeded(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(50, 1e-3, 0.1)
        a = sample_ddpm(model, sched, 8, noise_seed=1)
        b = sample_ddpm(model, sched, 8, noise_seed=1)
        assert a.shape == (8, 2)
        assert a.tobytes() == b.tobytes()

    def test_training_improves_frechet(self):
        data = generate(DatasetSpec("ring-mixture", 4096, seed=0))
        sched = make_schedule(200, 1e-4, 0.05)
        model = NoisePredictor(dim=2, hidden=32, depth=2, temb_dim=16, seed=0)
        before = sample_ddim(model, sched, 2000, 50, noise_seed=3)
        opt = Adam(model.params, OptimizerConfig(lr=1e-3))
        train(model, sched, data, steps=1500, opt=opt, seed=0, stage="t",
              batch_size=128)
        after = sample_ddim(model, sched, 2000, 50, noise_seed=3)
        ref = data[:2000]
        assert frechet_distance(after, ref) < frechet_distance(before, ref)


def test_draw_batch_shapes():
    data = np.zeros((100, 2))
    sched = make_schedule(10, 0.01, 0.02)
    b = draw_batch(data, sched, 17, make_rng(0, "d"))
    assert b.x0.shape == (17, 2) and b.t.shape == (17,) and b.eps.shape == (17, 2)
    assert np.all((b.t >= 0) & (b.t < 10))


def test_loss_and_grads_applies_mask_chain_rule():
    model = tiny_model()
    sched = make_schedule(20, 0.01, 0.05)
    rng = make_rng(0, "m")
    batch = TrainBatch(
        x0=rng.normal(size=(4, 1)), t=rng.integers(0, 20, 4),
        eps=rng.normal(size=(4, 1)),
    )
    model.masked["layer0.w"].mask = np.zeros_like(model.params["layer0.w"])
    _, grads = loss_and_grads(model, sched, batch)
    np.testing.assert_array_equal(grads["layer0.w"], 0.0)


def test_loss_and_grads_matches_fresh_replay_at_default_width():
    model = NoisePredictor(dim=2, hidden=128, depth=4, temb_dim=64, seed=3)
    rng = make_rng(1, "reuse")
    for p in model.masked_params():
        p.mask = rng.uniform(size=p.mask.shape)
    sched = make_schedule(1000, 1e-4, 0.02)
    data = generate(DatasetSpec("ring-mixture", 512, seed=0))
    batch = draw_batch(data, sched, 128, rng)
    value, grads = loss_and_grads(model, sched, batch)

    ctx = loss(model, sched, batch)
    fresh_value = float(engine.forward(ctx.record, ctx.inputs))
    fresh = engine.gradient(ctx.record, ctx.inputs, list(model.params))
    assert value == fresh_value
    assert grads.keys() == fresh.keys()
    for name, g in fresh.items():
        if name in model.masked:
            g = g * model.masked[name].mask
        assert grads[name].tobytes() == g.tobytes()


def direct_time_embedding(t, dim):
    half = dim // 2
    if half == 1:
        freqs = np.ones(1)
    else:
        freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    args = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class TestTimeEmbedding:
    @pytest.mark.parametrize("dim", [2, 6, 64])
    def test_table_rows_match_direct_formula_across_growth(self, dim,
                                                           monkeypatch):
        from flowprune import diffusion

        monkeypatch.setattr(diffusion, "_TEMB_TABLES", {})
        rng = make_rng(2, "temb")
        small = rng.integers(0, 10, 37)
        first = time_embedding(small, dim)
        assert len(diffusion._TEMB_TABLES[dim]) == small.max() + 1
        large = np.concatenate([rng.integers(0, 1000, 200), [999]])
        grown = time_embedding(large, dim)
        assert len(diffusion._TEMB_TABLES[dim]) == 1000
        again = time_embedding(small, dim)
        for t, got in ((small, first), (large, grown), (small, again)):
            want = direct_time_embedding(t, dim)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [np.array([1, -1]), np.array([0.5]),
                                   np.zeros((2, 2), dtype=np.int64)])
    def test_bad_timesteps_rejected(self, t):
        with pytest.raises(ValueError):
            time_embedding(t, 4)
