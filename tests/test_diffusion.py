import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowprune import criteria, diffusion, engine, pipeline
from flowprune.criteria import compute_scores, gradient_flow_delta
from flowprune.datasets import generate
from flowprune.diffusion import (
    Adam,
    NoisePredictor,
    TrainBatch,
    ddim_timesteps,
    draw_batch,
    loss,
    loss_and_grads,
    make_schedule,
    noisy_sample,
    sample_ddim,
    time_embedding,
    train,
)
from flowprune.masking import apply_mask_update
from flowprune.metrics import frechet_distance
from flowprune.seeding import make_rng


def tiny_model(seed=0):
    return NoisePredictor(dim=1, hidden=3, depth=1, temb_dim=2, seed=seed)


def predict64(model, x, t):
    """``model.predict`` fed the float64 copy's effective weights."""
    return model.predict(x, t, model.float64().param_inputs())


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
        rec.set_output(rec.affine(rec.sum_axes(rec.mul(diff, diff)), 0.125))
        rng = make_rng(0, "stub")
        assert engine.forward(rec, {"eps": rng.normal(size=(4, 2))}) == 0.0

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([1, 7, 32, 128, 256]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_loss_is_the_scaled_sum_of_squares_bit_for_bit(self, seed, size,
                                                           dtype):
        """The default loss record's value, from a freeing replay and from
        a replay that keeps its values, is numpy's sum of d * d over the
        whole batch, d = eps - eps_hat, times 1 / (size * dim) + 0.0."""
        model = NoisePredictor(dim=2, seed=0)
        if dtype is np.float64:
            model = model.float64()
        rng = make_rng(seed, "sum-sq")
        batch = TrainBatch(x0=rng.normal(size=(size, 2)),
                           t=rng.integers(0, 1000, size),
                           eps=rng.normal(size=(size, 2)))
        rec, feed = diffusion.loss_inputs(
            model, make_schedule(1000, 1e-4, 0.02), batch)
        total = rec.nodes[rec.nodes[rec.output].args[0]]
        square = rec.nodes[total.args[0]]
        assert total.op == "sum_axes" and square.op == "mul"
        d_id = square.args[0]
        assert square.args == (d_id, d_id)
        d = rec.evaluate((d_id,), feed)[d_id]
        scale = 1.0 / (size * 2)
        want = np.add(np.multiply(np.sum(d * d), scale), 0.0)
        got = engine.forward(rec, feed)
        assert d.dtype == got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert engine.forward(rec, feed, {}).tobytes() == want.tobytes()

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
        ctx = loss(model.float64(), sched, batch)
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
        data = generate(4096, 0)
        model = NoisePredictor(dim=2, seed=0)
        sched = make_schedule(1000, 1e-4, 0.02)
        opt = Adam(model.params, 2e-4)
        trace = train(model, sched, data, steps=5000, opt=opt, seed=0,
                      stage="pretrain", batch_size=128)
        first = trace[0][1]
        last = np.median([v for _, v in trace[-10:]])
        assert last < 0.5 * first

    def test_seeded_determinism(self):
        data = generate(256, 0)
        sched = make_schedule(50, 1e-3, 0.1)
        outs = []
        for _ in range(2):
            model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=5)
            opt = Adam(model.params, 2e-4)
            train(model, sched, data, steps=20, opt=opt, seed=9, stage="s",
                  batch_size=16)
            outs.append(np.concatenate([p.ravel() for p in model.params.values()]))
        assert outs[0].tobytes() == outs[1].tobytes()


class LoopAdam:
    """Adam as a loop over the parameter arrays, each updated by its own
    ufuncs: the bits the flat optimizer must reproduce."""

    def __init__(self, params, lr):
        self.params = {n: p.copy() for n, p in params.items()}
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}
        self.lr = lr
        self.step_count = 0

    def step(self, grads):
        b1, b2 = Adam.BETA1, Adam.BETA2
        self.step_count += 1
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, g in grads.items():
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            self.params[name] -= (self.lr * (m / bc1)
                                  / (np.sqrt(v / bc2) + Adam.EPS))


def soft_masked(seed=0):
    """A float32 model whose masks hold zeros and soft values."""
    model = NoisePredictor(dim=2, hidden=32, depth=3, temb_dim=8, seed=seed)
    rng = make_rng(seed, "soft-masks")
    for name, mask in model.masks.items():
        mask[...] = rng.uniform(size=mask.shape) * (rng.uniform(
            size=mask.shape) > 0.3)
    return model


def compacted(seed=0):
    """The compacted copy of a float32 model under a row-group hard prune
    at s = 0.5."""
    model = NoisePredictor(dim=2, hidden=32, depth=3, temb_dim=8, seed=seed)
    scores = {n: make_rng(seed, "rows").uniform(size=model.params[n].shape)
              for n in model.masks}
    apply_mask_update(model.masks, scores, 0.5, 0.0, granularity="row-group",
                      exclude=model.output_weights)
    small = model.compact()
    assert small is not model
    return small


class TestFlatAdam:
    @pytest.mark.parametrize("make, grad_mode", [
        (soft_masked, "masked"), (soft_masked, "dense"), (compacted, "masked")])
    def test_matches_the_per_array_loop(self, make, grad_mode):
        model = make()
        sched = make_schedule(100, 1e-3, 0.05)
        data = generate(512, 0)
        ref = LoopAdam(model.params, 1e-2)
        opt = Adam(model.params, 1e-2)
        for k in range(20):
            batch = draw_batch(data, sched, 32, make_rng(0, "flat-adam", k))
            _, grads = loss_and_grads(model, sched, batch, grad_mode)
            opt.step(grads)
            ref.step(grads)
        for mine, theirs in ((model.params, ref.params), (opt.m, ref.m),
                             (opt.v, ref.v)):
            assert mine.keys() == theirs.keys()
            for name, arr in theirs.items():
                assert mine[name].dtype == arr.dtype == np.float32
                assert mine[name].tobytes() == arr.tobytes(), name

    def test_params_become_views_of_one_vector(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=1)
        before = {n: p.copy() for n, p in model.params.items()}
        held = pipeline.model_tensors(model)
        opt = Adam(model.params, 1e-2)
        flat = model.params["layer0.w"].base
        assert flat.ndim == 1 and flat.size == sum(
            p.size for p in before.values())
        for name, arr in model.params.items():
            assert arr.base is flat and arr is not held[name]
            assert arr.tobytes() == before[name].tobytes()
        tensors = pipeline.model_tensors(model, opt)
        sched = make_schedule(50, 1e-3, 0.05)
        batch = draw_batch(generate(64, 0), sched, 16, make_rng(1, "views"))
        opt.step(loss_and_grads(model, sched, batch)[1])
        for name in model.params:
            assert tensors[name].tobytes() != before[name].tobytes()
            assert np.any(tensors[f"adam.m.{name}"])
        assert tensors["adam.m.layer0.w"] is opt.m["layer0.w"]

    def test_rejects_what_a_flat_step_would_get_wrong(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=1)
        grads = {n: np.ones_like(p) for n, p in model.params.items()}
        mixed = dict(model.params, **{"out.b": model.params["out.b"].astype(
            np.float64)})
        with pytest.raises(ValueError, match="one dtype"):
            Adam(mixed, 1e-2)
        opt = Adam(model.params, 1e-2)
        with pytest.raises(KeyError, match="out.b"):
            opt.step({n: g for n, g in grads.items() if n != "out.b"})
        model.params["out.b"] = model.params["out.b"].copy()
        with pytest.raises(ValueError):
            opt.step(grads)
        assert opt.step_count == 0

    def test_step_allocates_no_temporaries_at_default_width(self):
        import tracemalloc

        model = NoisePredictor(dim=2, seed=0)
        sched = make_schedule(1000, 1e-4, 0.02)
        batch = draw_batch(generate(256, 0), sched, 128, make_rng(0, "alloc"))
        _, grads = loss_and_grads(model, sched, batch)
        opt = Adam(model.params, 2e-4)
        opt.step(grads)
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 128 x 128 float32 temporary is 64 KiB
        assert peak < 16 * 1024


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

    def test_training_improves_frechet(self):
        data = generate(4096, 0)
        sched = make_schedule(200, 1e-4, 0.05)
        model = NoisePredictor(dim=2, hidden=32, depth=2, temb_dim=16, seed=0)
        before = sample_ddim(model, sched, 2000, 50, noise_seed=3)
        opt = Adam(model.params, 1e-3)
        train(model, sched, data, steps=1500, opt=opt, seed=0, stage="t",
              batch_size=128)
        after = sample_ddim(model, sched, 2000, 50, noise_seed=3)
        ref = data[:2000]
        assert frechet_distance(after, ref) < frechet_distance(before, ref)


EPS32 = float(np.finfo(np.float32).eps)


def float32_sampling_bound(substeps, want):
    """Largest deviation of the float32 sampler from a float64 reference.

    One float32 forward rounds its input, its weights and each layer's
    output, each to eps32 / 2 of its scale: a few eps32 of the output's
    scale for these 2-4 layer nets, of which 4 are allowed. The DDIM steps
    add their errors, so the samples may move by at most
    ``substeps * 4 * eps32`` of their largest magnitude. (Measured: 0.3-0.6
    of ``substeps * eps32`` on the block test's nets, under 0.05 on the
    compaction test's.)
    """
    return substeps * 4 * EPS32 * np.max(np.abs(want))


def one_block_ddim(model, sched, n, substeps, noise_seed):
    """Float64 DDIM with every row in one block and one timestep per row."""
    model = model.compact()
    ts = ddim_timesteps(sched.T, substeps)[::-1]
    x = make_rng(noise_seed, "ddim-init").standard_normal((n, model.dim))
    for i, t in enumerate(ts):
        eps_hat = predict64(model, x, np.full(n, t))
        ab = sched.alpha_bar[t]
        x0_hat = (x - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        ab_prev = sched.alpha_bar[ts[i + 1]] if i + 1 < len(ts) else 1.0
        x = np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps_hat
    return x


def test_block_sampler_matches_one_block_loop(monkeypatch):
    from flowprune import diffusion

    hidden = 512
    model = NoisePredictor(dim=2, hidden=hidden, depth=2, temb_dim=8, seed=0)
    rng = make_rng(0, "blocks")
    for name in model.bias_names:
        bias = model.params[name]
        bias[...] = rng.normal(scale=0.5, size=bias.shape)
    sched = make_schedule(100, 1e-3, 0.1)
    rows = diffusion._BLOCK_BYTES // (4 * hidden)  # float32 rows
    n = 3 * rows + rows // 2  # three full blocks and a ragged one
    want = one_block_ddim(model, sched, n, 10, noise_seed=4)

    sizes = []
    predict = NoisePredictor.predict

    def counting(self, x, t, weights=None):
        sizes.append(x.shape[0])
        return predict(self, x, t, weights)

    monkeypatch.setattr(NoisePredictor, "predict", counting)
    got = sample_ddim(model, sched, n, 10, noise_seed=4)
    assert sizes == [rows] * 30 + [rows // 2] * 10
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=float32_sampling_bound(10, want))


def test_sampler_builds_its_weight_feed_once(monkeypatch):
    calls = []
    param_inputs = NoisePredictor.param_inputs

    def counting(self, *args, **kwargs):
        calls.append(self)
        return param_inputs(self, *args, **kwargs)

    monkeypatch.setattr(NoisePredictor, "param_inputs", counting)
    sched = make_schedule(100, 1e-3, 0.1)
    dense = NoisePredictor(dim=2, hidden=512, depth=2, temb_dim=8, seed=0)
    sample_ddim(dense, sched, 600, 10, noise_seed=0)  # 3 blocks, 10 steps
    assert calls == [dense]
    calls.clear()
    sample_ddim(row_pruned(0.5), sched, 64, 20, noise_seed=0)
    assert len(calls) == 1 and calls[0].params["layer1.w"].shape[0] < 16


def test_scores_and_the_gradient_norm_replay_in_the_model_dtype(
        monkeypatch):
    """A default-width training step replays only float32 node values and
    keeps Adam's moments float32. Taylor and gradient-flow scores and the
    gradient norm replay in the dtype of the model they are given, float32
    for a trained model and float64 for its ``float64()`` copy; the scores
    are float64 either way, and the float32 gradient norm lies within 1e-5
    relative of the float64 one. The model keeps the same float32
    parameter and mask arrays with the same bits."""
    model = NoisePredictor(dim=2, seed=1)
    sched = make_schedule(1000, 1e-4, 0.02)
    data = make_rng(1, "guard").standard_normal((256, 2))
    contexts, computed, grads = [], [], []
    real_loss, real_allocating = diffusion.loss, engine._allocating
    real_gradient = engine.gradient

    def keeping(*args, **kwargs):
        contexts.append(real_loss(*args, **kwargs))
        return contexts[-1]

    def allocating(*args):
        value = real_allocating(*args)
        computed.append(value.dtype)
        return value

    def differentiating(*args, **kwargs):
        grads.append(dict(real_gradient(*args, **kwargs)))
        return grads[-1]

    monkeypatch.setattr(diffusion, "loss", keeping)
    monkeypatch.setattr(engine, "_allocating", allocating)
    monkeypatch.setattr(engine, "gradient", differentiating)
    opt = Adam(model.params, 1e-3)
    train(model, sched, data, steps=1, opt=opt, seed=1, stage="guard")
    monkeypatch.setattr(engine, "gradient", real_gradient)
    (ctx,) = contexts
    assert {a.dtype for a in ctx.inputs.values()} == {np.dtype(np.float32)}
    # the step's allocating forward and backward nodes
    assert len(computed) > 50
    assert set(computed) == {np.dtype(np.float32)}
    # every parameter's gradient, biases' sum_axes outputs included: Adam's
    # copy into its float32 vector would hide a float64 one
    (step_grads,) = grads
    assert step_grads.keys() == model.params.keys()
    assert {g.dtype for g in step_grads.values()} == {np.dtype(np.float32)}
    for state in (model.params, model.masks, opt.m, opt.v):
        assert {a.dtype for a in state.values()} == {np.dtype(np.float32)}

    held = [(state, dict(state), {n: a.copy() for n, a in state.items()})
            for state in (model.params, model.masks)]
    feeds = []
    real_inputs = criteria.loss_inputs

    def feeding(*args, **kwargs):
        rec, feed = real_inputs(*args, **kwargs)
        feeds.append(feed)
        return rec, feed

    def replayed(call):
        """``call()`` and the dtypes of its one replay's feed and of the
        values that replay computes."""
        feeds.clear()
        computed.clear()
        out = call()
        (feed,) = feeds
        assert len(computed) > 50  # forward and backward
        return out, {a.dtype for a in feed.values()}, set(computed)

    monkeypatch.setattr(criteria, "loss_inputs", feeding)
    batch = draw_batch(data, sched, 32, make_rng(1, "guard-batch"))
    f32, f64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
    wide = model.float64()
    for criterion in ("gradient-flow", "taylor"):
        scores, fed, nodes = replayed(
            lambda: compute_scores(criterion, model, sched, [batch]))
        assert fed == nodes == f32
        assert {a.dtype for a in scores.values()} == f64
        scores, fed, nodes = replayed(
            lambda: compute_scores(criterion, wide, sched, [batch]))
        assert fed == nodes == f64
        assert {a.dtype for a in scores.values()} == f64
    delta, fed, nodes = replayed(
        lambda: gradient_flow_delta(model, sched, batch))
    assert fed == nodes == f32
    oracle, fed, nodes = replayed(
        lambda: gradient_flow_delta(wide, sched, batch))
    assert fed == nodes == f64
    assert abs(delta - oracle) <= 1e-5 * abs(oracle)
    assert sample_ddim(model, sched, 64, 10, noise_seed=2).dtype == np.float64
    for state, arrays, bits in held:
        assert state.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert state[name] is arr and arr.dtype == np.float32
            assert arr.tobytes() == bits[name].tobytes()


@pytest.mark.parametrize("t", [0, 517, np.int64(999)])
def test_scalar_timestep_matches_one_per_row(t):
    model = NoisePredictor(dim=2, hidden=128, depth=4, temb_dim=64, seed=1)
    x = make_rng(1, "scalar-t").standard_normal((300, 2))
    got = predict64(model, x, t)
    want = predict64(model, x, np.full(300, t))
    # rounding differs in the last bits, so an output near zero gets an
    # absolute allowance on the scale of the largest
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


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
    model.masks["layer0.w"] = np.zeros_like(model.params["layer0.w"])
    _, grads = loss_and_grads(model, sched, batch)
    np.testing.assert_array_equal(grads["layer0.w"], 0.0)


def test_loss_and_grads_matches_fresh_replay_at_default_width():
    model = NoisePredictor(dim=2, hidden=128, depth=4, temb_dim=64, seed=3)
    rng = make_rng(1, "reuse")
    for n, m in model.masks.items():
        model.masks[n] = rng.uniform(size=m.shape)
    sched = make_schedule(1000, 1e-4, 0.02)
    data = generate(512, 0)
    batch = draw_batch(data, sched, 128, rng)
    value, grads = loss_and_grads(model, sched, batch)

    ctx = loss(model, sched, batch)
    fresh_value = float(engine.forward(ctx.record, ctx.inputs))
    fresh = engine.gradient(ctx.record, ctx.inputs, list(model.params))
    assert value == fresh_value
    assert grads.keys() == fresh.keys()
    for name, g in fresh.items():
        if name in model.masks:
            g = g * model.masks[name]
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


def test_predict_peak_memory_is_a_few_activations():
    import tracemalloc

    model = NoisePredictor(dim=2, hidden=128, depth=4, temb_dim=64, seed=0)
    rng = make_rng(0, "peak")
    x = rng.standard_normal((512, 2))
    t = rng.integers(0, 1000, 512)
    # build the record, plan and embedding rows first
    predict64(model, x, t)
    tracemalloc.start()
    try:
        predict64(model, x, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a replay that kept every intermediate peaks at about 17 activations
    assert peak <= 8 * (512 * 128 * 8)


def row_pruned(s, seed=0):
    """A model with random biases and a per-layer row-group hard prune at
    sparsity ``s`` on every weight but the output projection, in float64."""
    model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8,
                           seed=seed).float64()
    rng = make_rng(seed, "compact")
    for name in model.bias_names:
        model.params[name][...] = rng.normal(scale=0.5, size=model.params[name].shape)
    scores = {n: rng.uniform(size=model.params[n].shape) for n in model.masks}
    apply_mask_update(model.masks, scores, s, 0.0, granularity="row-group",
                      exclude=model.output_weights)
    return model


def assert_same_predictions(model, small, seed=1):
    rng = make_rng(seed, "compact-probe")
    x = rng.standard_normal((64, model.dim)) * 2.0
    t = rng.integers(0, 1000, 64)
    np.testing.assert_allclose(predict64(small, x, t), predict64(model, x, t),
                               rtol=0, atol=1e-10)


class TestCompaction:
    # ``activation`` is the network's one activation, named in the test ids
    @pytest.mark.parametrize("activation", ["silu"])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_row_pruned_model_predicts_the_same(self, s, activation):
        model = row_pruned(s)
        small = model.compact()
        assert small is not model
        dropped = int(np.floor(s * 16))
        for k in (1, 2):
            assert small.params[f"layer{k}.b"].shape == (16 - dropped,)
        # a layer-0 unit goes only when its temb.w row is pruned too
        gone0 = ((model.masks["layer0.w"] == 0).all(axis=1)
                 & (model.masks["temb.w"] == 0).all(axis=1))
        assert small.params["layer0.w"].shape == (16 - gone0.sum(), 2)
        assert small.params["out.w"].shape == (2, 16 - dropped)
        assert_same_predictions(model, small)
        assert small.compact() is small

    @pytest.mark.parametrize("activation", ["silu"])
    def test_layer0_unit_kept_through_its_temb_row(self, activation):
        model = NoisePredictor(dim=2, hidden=6, depth=2, temb_dim=4,
                               seed=3).float64()
        rng = make_rng(3, "temb-row")
        for name in model.bias_names:
            model.params[name][...] = rng.normal(size=model.params[name].shape)
        model.masks["layer0.w"][[1, 4]] = 0.0
        model.masks["temb.w"][4] = 0.0  # unit 1 keeps its temb row
        small = model.compact()
        assert small.params["layer0.w"].shape == (5, 2)
        assert small.params["temb.w"].shape == (5, 4)
        # the copy carries the raw row under its zero mask
        np.testing.assert_array_equal(small.masks["layer0.w"][1], 0.0)
        np.testing.assert_array_equal(small.param_inputs()["layer0.w"][1], 0.0)
        assert_same_predictions(model, small)

    def test_unpruned_or_no_zero_row_returns_self(self):
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8, seed=0)
        assert model.compact() is model
        rng = make_rng(0, "elements")
        for n, m in model.masks.items():
            model.masks[n] = (rng.uniform(size=m.shape) < 0.5).astype(np.float64)
            model.masks[n][:, 0] = 1.0
        assert model.compact() is model

    @pytest.mark.parametrize("activation", ["silu"])
    def test_ddim_samples_match_masked_dense(self, activation, monkeypatch):
        model = row_pruned(0.5, seed=4)
        sched = make_schedule(100, 1e-3, 0.1)
        got = sample_ddim(model, sched, 256, 20, noise_seed=5)
        # the reference: the masked dense net, uncompacted, in float64
        monkeypatch.setattr(NoisePredictor, "compact", lambda self: self)
        want = one_block_ddim(model, sched, 256, 20, noise_seed=5)
        assert (np.max(np.abs(got - want))
                <= float32_sampling_bound(20, want))


def test_rebound_weight_is_what_predict_loss_and_compact_use():
    """A weight replaced in ``model.params`` by a new array, not written in
    place, is what the forward, the loss and compaction read."""
    rebound = row_pruned(0.5, seed=2)
    in_place = row_pruned(0.5, seed=2)
    rebound.params["layer1.w"] = rebound.params["layer1.w"] * 2.0
    in_place.params["layer1.w"] *= 2.0
    rng = make_rng(2, "rebind")
    x = rng.standard_normal((8, 2))
    t = rng.integers(0, 1000, 8)
    assert (predict64(rebound, x, t).tobytes()
            == predict64(in_place, x, t).tobytes())
    sched = make_schedule(1000, 1e-4, 0.02)
    batch = TrainBatch(x0=rng.standard_normal((8, 2)), t=t,
                       eps=rng.standard_normal((8, 2)))
    assert loss(rebound, sched, batch).value == loss(in_place, sched, batch).value
    small_r, small_i = rebound.compact(), in_place.compact()
    assert small_i is not in_place
    for name, arr in small_i.params.items():
        assert small_r.params[name].tobytes() == arr.tobytes()
    assert (predict64(small_r, x, t).tobytes()
            == predict64(small_i, x, t).tobytes())


def free_list_bytes(model):
    """Bytes of every buffer waiting on the free lists of ``model``'s
    records."""
    return sum(buf.nbytes for rec in model._records.values()
               for bufs in rec._free.values() for buf in bufs)


class TestFreeListIsBounded:
    """A record's free list holds what one replay released; later replays
    reuse those buffers instead of adding to them."""

    def test_gradient_flow_scoring(self):
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8, seed=0)
        sched = make_schedule(50, 0.001, 0.05)
        batches = criteria.score_batches(sched, generate(256, 0), seed=1,
                                         n_batches=2, batch_size=32)
        after = []
        for _ in range(3):
            compute_scores("gradient-flow", model, sched, batches)
            after.append(free_list_bytes(model))
        assert after[0] > 0
        assert after == [after[0]] * 3

    def test_ddim_sampling(self):
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8, seed=0)
        sched = make_schedule(50, 0.001, 0.05)
        after = []
        for seed in range(3):
            sample_ddim(model, sched, 200, 5, noise_seed=seed)
            after.append(free_list_bytes(model))
        assert after[0] > 0
        assert after == [after[0]] * 3

    def test_training(self):
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8, seed=0)
        sched = make_schedule(50, 0.001, 0.05)
        data = generate(256, 0)
        opt = Adam(model.params, 1e-3)
        after = []
        for step in range(3):
            train(model, sched, data, steps=1, opt=opt, seed=0,
                  batch_size=32, start_step=step)
            after.append(free_list_bytes(model))
        assert after[0] > 0
        assert after == [after[0]] * 3


@pytest.fixture
def engine_calls(monkeypatch):
    """The shape and dtype of each buffer a replay takes fresh rather than
    from a free list or a dying argument, and the arrays that
    ``engine.gradient`` and ``engine.hessian_vector_product`` return, each
    appended call by call. Holding the fresh buffers would keep them off
    the free list."""
    fresh, returned = [], []
    real_take = engine.Record._take

    def take(self, node, vals, drop):
        waiting = sum(map(len, self._free.values()))
        buf = real_take(self, node, vals, drop)
        if (sum(map(len, self._free.values())) == waiting
                and not any(buf is vals[arg] for arg in node.args)):
            fresh.append((buf.shape, buf.dtype.str))
        return buf

    def returning(real):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            returned.append(dict(out))  # a caller may rebind its entries
            return out
        return call

    monkeypatch.setattr(engine.Record, "_take", take)
    for name in ("gradient", "hessian_vector_product"):
        monkeypatch.setattr(engine, name, returning(getattr(engine, name)))
    return fresh, returned


def owners(arrays):
    """Shape and dtype of the array that owns each of ``arrays``' memory,
    sorted: a weight gradient is the transpose of a matmul's output."""
    return sorted(((a if a.base is None else a.base).shape, a.dtype.str)
                  for a in arrays)


def test_training_takes_fresh_buffers_only_for_weight_gradients(
        engine_calls):
    """From the second step on, a default-width training step writes every
    activation into a recycled buffer: it takes as many fresh ones, of the
    same shapes, as the weight gradients it returns."""
    fresh, returned = engine_calls
    model = NoisePredictor(dim=2, seed=0)
    sched = make_schedule(1000, 1e-4, 0.02)
    data = generate(512, 0)
    opt = Adam(model.params, 1e-3)
    train(model, sched, data, steps=1, opt=opt, seed=0)
    for step in range(1, 4):
        fresh.clear()
        returned.clear()
        train(model, sched, data, steps=1, opt=opt, seed=0, start_step=step)
        (grads,) = returned
        # temb.w included; a bias gradient is a sum, not a taken buffer
        weights = [g for n, g in grads.items() if n not in model.bias_names]
        assert sorted(fresh) == owners(weights)


@pytest.mark.parametrize("criterion", ["gradient-flow", "taylor"])
def test_repeated_scoring_takes_fresh_buffers_only_for_what_it_returns(
        engine_calls, criterion):
    """A repeated ``compute_scores`` recycles every value its replays drop,
    the activations that weight-gradient transposes view included."""
    fresh, returned = engine_calls
    model = NoisePredictor(dim=2, seed=0)
    sched = make_schedule(1000, 1e-4, 0.02)
    batches = criteria.score_batches(sched, generate(512, 0), seed=1,
                                     n_batches=2, batch_size=64)
    compute_scores(criterion, model, sched, batches)
    fresh.clear()
    returned.clear()
    compute_scores(criterion, model, sched, batches)
    assert len(returned) == len(batches)
    assert sorted(fresh) == owners(
        [arr for per in returned for arr in per.values()])
