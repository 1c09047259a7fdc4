import numpy as np
import pytest

from flowprune import engine
from flowprune.criteria import (
    compute_scores,
    gradient_flow_delta,
    gradient_flow_delta_from_record,
    gradient_flow_scores_from_record,
    score_batches,
    taylor_scores_from_record,
)
from flowprune.datasets import generate
from flowprune.diffusion import (Adam, NoisePredictor, loss, loss_inputs,
                                 make_schedule, time_embedding, train)
from flowprune.masking import apply_mask_update
from flowprune.seeding import make_rng


def quadratic_record(theta=(1.0, 1.0), scale=1.0):
    """L = scale * 0.5 theta^T diag(2,4) theta with theta as input."""
    rec = engine.Record()
    th = rec.input("theta", (2,))
    half_a = rec.const([1.0, 2.0])
    out = rec.sum_axes(rec.mul(rec.mul(th, th), half_a))
    rec.set_output(rec.affine(out, scale))
    return rec, {"theta": np.asarray(theta, dtype=np.float64)}


class TestMagnitude:
    def test_absolute_value(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        model.params["layer0.w"][:] = np.array(
            [[-3.0, 1.0], [2.0, 0.5], [1.5, -2.5], [0.1, 0.2]]
        )
        s = compute_scores("magnitude", model, None, [])
        np.testing.assert_array_equal(
            s["layer0.w"], np.abs(model.params["layer0.w"])
        )

    def test_mask_zeroes_score(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        mask = np.ones_like(model.params["layer0.w"])
        mask[0, :] = 0.0
        model.masks["layer0.w"] = mask
        s = compute_scores("magnitude", model, None, [])
        np.testing.assert_array_equal(s["layer0.w"][0], 0.0)

    def test_scale_preserves_rank_order(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=3)
        def pooled():
            return np.concatenate([s.ravel() for s in
                                   compute_scores("magnitude", model, None,
                                                  []).values()])

        before = np.argsort(pooled())
        for p in model.params.values():
            p *= 3.7
        after = np.argsort(pooled())
        np.testing.assert_array_equal(before, after)


class TestTaylorQuadratic:
    def test_closed_form(self):
        rec, feed = quadratic_record()
        scores = taylor_scores_from_record(rec, feed, ["theta"])
        np.testing.assert_allclose(scores["theta"], [2.0, 4.0], atol=1e-12)

    def test_zero_gradient_zero_score(self):
        rec, feed = quadratic_record(theta=(0.0, 0.0))
        scores = taylor_scores_from_record(rec, feed, ["theta"])
        np.testing.assert_array_equal(scores["theta"], [0.0, 0.0])

    def test_two_batch_average(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=1)
        sched = make_schedule(20, 0.01, 0.05)
        data = generate(128, 0)
        batches = score_batches(sched, data, seed=5, n_batches=2,
                                batch_size=16)
        both = compute_scores("taylor", model, sched, batches)
        one = compute_scores("taylor", model, sched, batches[:1])
        two = compute_scores("taylor", model, sched, batches[1:])
        for n in both:
            np.testing.assert_allclose(both[n], (one[n] + two[n]) / 2.0,
                                       rtol=1e-12)


class TestGradientFlowQuadratic:
    def test_closed_form_and_prune_order(self):
        rec, feed = quadratic_record()
        scores = gradient_flow_scores_from_record(rec, feed, ["theta"])
        np.testing.assert_allclose(scores["theta"], [4.0, 16.0], atol=1e-12)
        # ascending rank prunes unit 0 first at s = 0.5
        masks = {"theta": np.ones((1, 2))}
        apply_mask_update(masks, {"theta": scores["theta"].reshape(1, 2)},
                          0.5, 0.0)
        np.testing.assert_array_equal(masks["theta"], [[0.0, 1.0]])

    def test_removal_sign_on_quadratic(self):
        # removing unit 0 drops ||grad L||^2 from 20 to 16
        rec, feed = quadratic_record()
        before = gradient_flow_delta_from_record(rec, feed, ["theta"])
        assert before == 20.0
        after = gradient_flow_delta_from_record(
            rec, {"theta": np.array([0.0, 1.0])}, ["theta"]
        )
        assert after == 16.0
        scores = gradient_flow_scores_from_record(rec, feed, ["theta"])
        assert after - before == pytest.approx(-2.0 * scores["theta"][0], rel=0.5)

    def test_soft_mask_halves_score(self):
        # a mask value of 0.5 on unit 1 halves that unit's score vs p = 1:
        # the effective weight is the prefactor, H g stays at the dense point
        rec, feed = quadratic_record()
        dense = gradient_flow_scores_from_record(rec, feed, ["theta"])
        eff = {"theta": np.array([1.0, 0.5])}  # p = 0.5 on unit 1
        masked = gradient_flow_scores_from_record(rec, feed, ["theta"],
                                                  prefactor=eff)
        np.testing.assert_allclose(masked["theta"][1],
                                   0.5 * dense["theta"][1], rtol=1e-12)
        np.testing.assert_allclose(masked["theta"][0], dense["theta"][0],
                                   rtol=1e-12)

    def test_fd_method_agrees(self):
        model = NoisePredictor(dim=2, hidden=6, depth=2, temb_dim=4, seed=2)
        sched = make_schedule(20, 0.01, 0.05)
        data = generate(128, 0)
        batches = score_batches(sched, data, seed=6, n_batches=1,
                                batch_size=16)
        exact = compute_scores("gradient-flow", model, sched, batches)
        # model-level oracle: finite-difference H g on the same record,
        # times the effective weights
        names = list(model.masks)
        rec, feed = loss_inputs(model.float64(), sched, batches[0],
                                masked=False)
        hg = engine.hessian_vector_product(rec, feed, names, method="fd")
        for n in names:
            a, b = exact[n], model.params[n] * model.masks[n] * hg[n]
            denom = max(float(np.max(np.abs(a))), 1e-10)
            assert float(np.max(np.abs(a - b))) / denom < 1e-4


class TestDelta:
    def test_quadratic_value(self):
        rec, feed = quadratic_record()
        assert gradient_flow_delta_from_record(rec, feed, ["theta"]) == 20.0

    def test_zero_at_optimum(self):
        rec, feed = quadratic_record(theta=(0.0, 0.0))
        assert gradient_flow_delta_from_record(rec, feed, ["theta"]) == 0.0

    def test_difference_quotient_definition(self):
        # (L(theta + eps*grad) - L(theta)) / eps -> grad^T grad
        model = NoisePredictor(dim=1, hidden=3, depth=1, temb_dim=2, seed=4)
        rng = make_rng(50, "quotient")
        for p in model.params.values():
            p[:] = rng.normal(size=p.shape) * 0.6
        sched = make_schedule(20, 0.01, 0.05)
        data = generate(128, 0)[:, :1]
        batch = score_batches(sched, data, seed=7, n_batches=1,
                              batch_size=32)[0]
        from flowprune.diffusion import loss

        ctx = loss(model.float64(), sched, batch)
        names = list(model.params)
        grads = engine.gradient(ctx.record, ctx.inputs, names)
        delta = gradient_flow_delta(model, sched, batch)
        eps = 1e-5
        moved = dict(ctx.inputs)
        for n in names:
            moved[n] = ctx.inputs[n] + eps * grads[n]
        quotient = (float(engine.forward(ctx.record, moved)) - ctx.value) / eps
        assert abs(quotient - delta) / max(abs(delta), 1e-12) < 1e-4


class TestScaleInvariance:
    def test_positive_scaling(self):
        rng = make_rng(0, "scale")
        theta = rng.normal(size=2)
        c = 3.0
        rec1, feed = quadratic_record(theta=theta, scale=1.0)
        rec2, _ = quadratic_record(theta=theta, scale=c)
        t1 = taylor_scores_from_record(rec1, feed, ["theta"])["theta"]
        t2 = taylor_scores_from_record(rec2, feed, ["theta"])["theta"]
        np.testing.assert_allclose(t2, c * t1, rtol=1e-12)
        g1 = gradient_flow_scores_from_record(rec1, feed, ["theta"])["theta"]
        g2 = gradient_flow_scores_from_record(rec2, feed, ["theta"])["theta"]
        np.testing.assert_allclose(g2, c * c * g1, rtol=1e-12)
        np.testing.assert_array_equal(np.argsort(t1), np.argsort(t2))
        np.testing.assert_array_equal(np.argsort(g1), np.argsort(g2))


class TestDeterminismAndMasks:
    def test_fixed_seed_identical_scores(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(50, 0.001, 0.05)
        data = generate(256, 0)
        a = compute_scores("gradient-flow", model, sched,
                           score_batches(sched, data, seed=11, n_batches=2,
                                         batch_size=32))
        b = compute_scores("gradient-flow", model, sched,
                           score_batches(sched, data, seed=11, n_batches=2,
                                         batch_size=32))
        for n in a:
            assert a[n].tobytes() == b[n].tobytes()

    def test_masked_out_units_score_zero(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(50, 0.001, 0.05)
        data = generate(256, 0)
        mask = np.ones_like(model.params["layer1.w"])
        mask[:4] = 0.0
        model.masks["layer1.w"] = mask
        for crit in ("magnitude", "taylor", "gradient-flow"):
            s = compute_scores(crit, model, sched,
                               score_batches(sched, data, seed=12,
                                             n_batches=1, batch_size=16))
            np.testing.assert_array_equal(s["layer1.w"][:4], 0.0)

    def test_gradient_flow_matches_fresh_replays(self):
        """The scores are the bits of one H g replay per batch on a fresh
        record, times the effective weights, averaged."""
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8,
                               seed=4).float64()
        model.masks["layer1.w"] = make_rng(5, "m").uniform(
            size=model.params["layer1.w"].shape)
        sched = make_schedule(50, 0.001, 0.05)
        data = generate(256, 0)
        batches = score_batches(sched, data, seed=3, n_batches=3,
                                batch_size=32)
        got = compute_scores("gradient-flow", model, sched, batches)

        names = list(model.masks)
        model._records = {}  # build the loss record and its H g anew
        want = {n: np.zeros_like(model.params[n]) for n in names}
        for batch in batches:
            rec, feed = loss_inputs(model, sched, batch, masked=False)
            hg = engine.hessian_vector_product(rec, feed, names)
            for n in names:
                want[n] += model.params[n] * model.masks[n] * hg[n]
        for n in names:
            want[n] /= len(batches)
            assert got[n].tobytes() == want[n].tobytes()

    def test_unknown_criterion_rejected(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        sched = make_schedule(20, 0.01, 0.05)
        with pytest.raises(ValueError):
            compute_scores("fisher", model, sched,
                           score_batches(sched, np.zeros((10, 2)), seed=0))

    @pytest.mark.parametrize("criterion", ["taylor", "gradient-flow"])
    def test_empty_batch_list_rejected(self, criterion):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        sched = make_schedule(20, 0.01, 0.05)
        with pytest.raises(ValueError, match="at least one batch"):
            compute_scores(criterion, model, sched, [])

    def test_all_zero_scores_rejected(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        for w in model.masks:
            model.params[w][...] = 0.0
        sched = make_schedule(20, 0.01, 0.05)
        with pytest.raises(ValueError, match="all zero"):
            compute_scores("magnitude", model, sched,
                           score_batches(sched, np.zeros((10, 2)), seed=0))

    def test_non_finite_scores_rejected(self):
        model = NoisePredictor(dim=2, hidden=4, depth=1, temb_dim=4, seed=0)
        model.params["layer0.w"][1, 0] = np.nan
        sched = make_schedule(20, 0.01, 0.05)
        with pytest.raises(FloatingPointError, match="layer0.w"):
            compute_scores("magnitude", model, sched,
                           score_batches(sched, np.zeros((10, 2)), seed=0))


@pytest.fixture(scope="module")
def trained():
    """A default-width model trained 200 steps, and 4 x 256 score rows."""
    model = NoisePredictor(dim=2, seed=0)
    sched = make_schedule(1000, 1e-4, 0.02)
    data = generate(2048, 0)
    train(model, sched, data, steps=200, opt=Adam(model.params, 1e-3),
          seed=0)
    return model, sched, score_batches(sched, data, seed=0)


@pytest.mark.parametrize("criterion", ["taylor", "gradient-flow"])
def test_float32_replays_rank_as_float64_replays(trained, criterion):
    """Scores a trained float32 model replays in float32 lie within 1e-4 of
    the largest score (at most 4e-7 measured) of those its ``float64()`` copy
    replays in float64, and a mask update at s = 0.5 keeps the same
    elements and the same row groups from either."""
    model, sched, batches = trained
    assert model.params["out.w"].dtype == np.float32
    narrow = compute_scores(criterion, model, sched, batches)
    wide = compute_scores(criterion, model.float64(), sched, batches)
    top = max(float(np.abs(a).max()) for a in wide.values())
    for n, a in wide.items():
        assert float(np.abs(narrow[n] - a).max()) <= 1e-4 * top
    for granularity, exclude in (("element", ()),
                                 ("row-group", model.output_weights)):
        kept = []
        for scores in (narrow, wide):
            masks = {n: np.ones_like(m) for n, m in model.masks.items()}
            apply_mask_update(masks, scores, 0.5, 0.0, granularity, exclude)
            kept.append(masks)
        for n, mask in kept[1].items():
            np.testing.assert_array_equal(kept[0][n], mask)


# one float32 hidden activation of a default-width, 256-row score batch
ACTIVATION = 256 * 128 * 4


@pytest.mark.parametrize("score, first, later", [
    pytest.param(lambda *a: compute_scores("gradient-flow", *a), 59, 15.5,
                 id="gradient-flow"),
    pytest.param(lambda *a: compute_scores("taylor", *a), 29, 17.5,
                 id="taylor"),
    pytest.param(lambda m, s, b: gradient_flow_delta(m, s, b[0]), 17.5, 6.2,
                 id="delta"),
])
def test_scoring_peak_memory(score, first, later):
    """Scoring keeps no chain of node values: each batch is one replay that
    frees every node after its last use, and a result may take the buffer
    of an argument that dies at its node. Taylor, gradient-flow and the
    gradient norm replay a float32 model in float32. A first call, graph
    building included, peaks at about 53.3 float32 activations for
    gradient-flow, 26.0 for Taylor and 15.9 for the gradient norm; a later
    call, which replays on recycled buffers as every later mask update
    does, at 14.0, 15.7 and 5.6. Each bound is about 10 % above its peak.
    Without in-place results the first calls peaked at 54.8, 27.0 and
    16.9; replaying the scores in float64 peaked at 112 and 49, and the
    gradient norm's float64 replay at 35.6."""
    import tracemalloc

    model = NoisePredictor(dim=2, seed=0)
    sched = make_schedule(1000, 1e-4, 0.02)
    batches = score_batches(sched, generate(1024, 0), seed=0)
    # the embedding table is shared by the process; built here, it is not
    # counted in a peak whatever ran before
    time_embedding(np.arange(sched.T), model.temb_dim)
    for activations in (first, later):
        tracemalloc.start()
        try:
            score(model, sched, batches)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= activations * ACTIVATION
