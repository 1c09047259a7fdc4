"""Engine tests: forward replay, gradients vs finite differences, HVPs."""

import tracemalloc
import warnings

import numpy as np
import pytest

from flowprune.engine import (
    Record,
    Ref,
    forward,
    gradient,
    hessian_vector_product,
)
from flowprune.diffusion import NoisePredictor


def fd_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function of one flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = fn(x)
        flat[i] = old - step
        fm = fn(x)
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-8)
    return float(np.max(np.abs(a - b))) / denom if a.size else 0.0


def quadratic_record():
    """f(theta) = 0.5 * theta^T diag(2,4) theta built from primitives."""
    rec = Record()
    theta = rec.input("theta", (2,))
    half_a = rec.const([1.0, 2.0])
    rec.set_output(rec.sum_axes(rec.mul(rec.mul(theta, theta), half_a)))
    return rec


class TestForward:
    def test_square_scalar(self):
        rec = Record()
        x = rec.input("x", ())
        rec.set_output(rec.mul(x, x))
        assert forward(rec, {"x": 3.0}) == 9.0

    def test_sum(self):
        rec = Record()
        x = rec.input("x", (3,))
        rec.set_output(rec.sum_axes(x))
        assert forward(rec, {"x": [1.0, 2.0, 3.0]}) == 6.0

    def test_deterministic_bits(self):
        rng = np.random.default_rng(0)
        rec = Record()
        x = rec.input("x", (5, 4))
        w = rec.input("w", (3, 4))
        rec.set_output(rec.sum_sq(rec.silu(rec.linear(x, w))))
        feed = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(3, 4))}
        a = forward(rec, feed)
        b = forward(rec, feed)
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_rejected(self):
        rec = Record()
        x = rec.input("x", (3,))
        rec.set_output(rec.sum_axes(x))
        with pytest.raises(ValueError):
            forward(rec, {"x": np.zeros((4,))})

    def test_missing_input_rejected(self):
        rec = Record()
        x = rec.input("x", (3,))
        rec.set_output(rec.sum_axes(x))
        with pytest.raises(KeyError):
            forward(rec, {})

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_rejected(self):
        rec = Record()
        x = rec.input("x", (2,))
        rec.set_output(rec.sum_axes(rec.mul(x, x)))
        with pytest.raises(FloatingPointError):
            forward(rec, {"x": [1e200, 1e200]})


def test_silu_saturates_quietly():
    """exp(-x) overflows below x = -709 in float64 and below -88.7 in
    float32; SiLU and the sigmoids of its derivatives still give their
    exact limits, with no warning."""
    rec = Record()
    x = rec.input("x", (2,))
    act = rec.silu(x)
    loss = rec.sum_axes(act)
    for dtype, low in ((np.float64, -1000.0), (np.float32, -100.0)):
        feed = {"x": np.array([low, 2.0], dtype=dtype)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec.set_output(act)
            y = forward(rec, feed)
            rec.set_output(loss)
            grad = gradient(rec, feed, ["x"])["x"]
            hv = hessian_vector_product(rec, feed, ["x"],
                                        {"x": np.ones(2)})["x"]
        assert y.dtype == dtype
        assert y[0] == 0.0 and np.signbit(y[0])  # low / inf
        two = dtype(2.0)
        assert y[1] == two / (1 + np.exp(-two))
        assert grad[0] == 0.0 and hv[0] == 0.0


class TestGradient:
    def test_square(self):
        rec = Record()
        x = rec.input("x", ())
        rec.set_output(rec.mul(x, x))
        g = gradient(rec, {"x": 3.0}, ["x"])
        assert g["x"] == 6.0

    def test_quadratic_closed_form(self):
        rec = quadratic_record()
        g = gradient(rec, {"theta": [1.0, 1.0]}, ["theta"])
        np.testing.assert_allclose(g["theta"], [2.0, 4.0], rtol=0, atol=0)

    def test_non_scalar_output_rejected(self):
        rec = Record()
        x = rec.input("x", (3,))
        rec.set_output(rec.mul(x, x))
        with pytest.raises(ValueError):
            gradient(rec, {"x": [1.0, 2.0, 3.0]}, ["x"])

    def test_unknown_name_rejected(self):
        rec = quadratic_record()
        with pytest.raises(KeyError):
            gradient(rec, {"theta": [1.0, 1.0]}, ["nope"])

    def test_disconnected_param_gets_zeros(self):
        rec = Record()
        x = rec.input("x", (2,))
        rec.input("unused", (3,))
        rec.set_output(rec.sum_sq(x))
        g = gradient(
            rec, {"x": [1.0, 2.0], "unused": np.ones(3)}, ["x", "unused"]
        )
        np.testing.assert_array_equal(g["unused"], np.zeros(3))


def build_single_op(name):
    """Record wrapping one primitive into a scalar, plus the numpy version."""
    rng = np.random.default_rng(42)

    def wrap(body, shapes):
        rec = Record()
        xs = [rec.input(f"x{i}", s) for i, s in enumerate(shapes)]
        rec.set_output(rec.sum_sq(body(rec, *xs)))
        feed = {
            f"x{i}": rng.uniform(-2.0, 2.0, size=s) for i, s in enumerate(shapes)
        }
        return rec, feed

    table = {
        "matmul": (lambda r, a, b: r.matmul(a, b), [(3, 4), (4, 2)]),
        "transpose": (lambda r, a: r.transpose(a), [(3, 4)]),
        "broadcast": (lambda r, a: r.broadcast(a, (5, 4)), [(4,)]),
        "add": (lambda r, a, b: r.add(a, b), [(3, 4), (3, 4)]),
        "mul": (lambda r, a, b: r.mul(a, b), [(3, 4), (3, 4)]),
        "affine": (lambda r, a: r.affine(a, 1.7, -0.3), [(3, 4)]),
        "sigmoid": (lambda r, a: r.sigmoid(a), [(3, 4)]),
        "silu": (lambda r, a: r.silu(a), [(3, 4)]),
        "sum_axes": (lambda r, a: r.sum_axes(a, 1), [(3, 4)]),
        "sum_sq": (lambda r, a: r.sum_sq(a), [(3, 4)]),
    }
    body, shapes = table[name]
    return wrap(body, shapes)


ALL_OPS = [
    "matmul", "transpose", "broadcast", "add", "mul", "affine", "sigmoid",
    "silu", "sum_axes", "sum_sq",
]


def test_all_ops_are_the_record_builders():
    """Every primitive a Record builds is in ALL_OPS, so none skips the
    finite-difference check, but ``stop``: it passes its value on and by
    design carries no gradient back, so differences of its value disagree
    with its zero gradient (test_stop_passes_its_value_and_no_gradient
    checks it instead). The rest build nothing of their own."""
    public = {name for name, attr in vars(Record).items()
              if callable(attr) and not name.startswith("_")}
    composite = {"input", "const", "linear", "set_output", "evaluate"}
    assert set(ALL_OPS) == public - composite - {"stop"}


def test_stop_passes_its_value_and_no_gradient():
    rec = Record()
    x = rec.input("x", (3,))
    stopped = rec.stop(x)
    feed = {"x": np.array([1.0, -2.0, 3.0])}
    assert rec.evaluate((stopped.nid,), feed)[stopped.nid] is feed["x"]
    # d/dx sum(x * stop(x)) is stop(x), not 2x
    rec.set_output(rec.sum_axes(rec.mul(x, stopped)))
    assert gradient(rec, feed, ["x"])["x"].tobytes() == feed["x"].tobytes()
    rec.set_output(rec.sum_axes(stopped))
    np.testing.assert_array_equal(gradient(rec, feed, ["x"])["x"], 0.0)


@pytest.mark.parametrize("src, shape", [
    pytest.param((1, 4), (5, 4), id="stretch"),
    pytest.param((3, 4), (3, 4, 2), id="not-suffix"),
    pytest.param((3, 4), (4,), id="fewer-axes"),
])
def test_broadcast_only_adds_leading_axes(src, shape):
    rec = Record()
    with pytest.raises(ValueError, match="only leading axes"):
        rec.broadcast(rec.input("a", src), shape)


@pytest.mark.parametrize("lead", [-1, 3])
def test_sum_axes_lead_within_rank(lead):
    rec = Record()
    with pytest.raises(ValueError, match="cannot sum the first"):
        rec.sum_axes(rec.input("a", (3, 4)), lead)


@pytest.mark.parametrize("lead, shape", [(0, (3, 4)), (1, (4,)), (2, ())])
def test_sum_axes_sums_leading_axes(lead, shape):
    rec = Record()
    out = rec.sum_axes(rec.input("a", (3, 4)), lead)
    rec.set_output(out)
    a = np.arange(12.0).reshape(3, 4)
    assert out.shape == shape
    np.testing.assert_array_equal(forward(rec, {"a": a}),
                                  a.sum(axis=tuple(range(lead))))


# A float32 replay of these records rounds at most a 4-term dot product and
# then a sum of 20 squares, with no cancellation: under 32 roundings of
# eps32 / 2 each, relative to the output.
FLOAT32_RTOL = 16 * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("op", ALL_OPS)
def test_float32_feed_replays_in_float32(op):
    rec, feed = build_single_op(op)
    feed32 = {n: a.astype(np.float32) for n, a in feed.items()}
    got = forward(rec, feed32)
    want = forward(rec, {n: a.astype(np.float64) for n, a in feed32.items()})
    assert got.dtype == np.float32 and want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=FLOAT32_RTOL)


@pytest.mark.parametrize("op", ALL_OPS)
def test_float32_feed_differentiates_in_float32(op):
    """The gradient seed takes the output's dtype, so a float32 feed
    replays every forward and backward node in float32."""
    rec, feed = build_single_op(op)
    feed32 = {n: a.astype(np.float32) for n, a in feed.items()}
    values = {}
    grads = gradient(rec, feed32, sorted(feed32), values)
    assert {np.asarray(v).dtype for v in values.values()} == {
        np.dtype(np.float32)}
    assert all(g.dtype == np.float32 for g in grads.values())


def test_float64_gradient_keeps_python_scales_in_float64():
    """A float64 output scaled by 1/3 has a float64 gradient seed: every
    node is float64 and the gradient has the bits of the float64 chain
    rule, not those of 1/3 rounded to float32."""
    rec = Record()
    x = rec.input("x", (3,))
    rec.set_output(rec.affine(rec.sum_sq(x), 1.0 / 3.0))
    feed = {"x": np.array([0.1, -2.5, 7.0])}
    values = {}
    got = gradient(rec, feed, ["x"], values)["x"]
    assert {np.asarray(v).dtype for v in values.values()} == {
        np.dtype(np.float64)}
    # backward of affine(sum_sq(x), 1/3): (1.0 * 1/3) * x * 2
    want = np.full(3, 1.0 / 3.0) * feed["x"] * 2.0
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    rounded = np.full(3, np.float32(1.0 / 3.0), np.float64) * feed["x"] * 2.0
    assert got.tobytes() != rounded.tobytes()


@pytest.mark.parametrize("op", ALL_OPS)
def test_primitive_gradients_match_fd(op):
    rec, feed = build_single_op(op)
    names = sorted(feed)
    grads = gradient(rec, feed, names)
    for name in names:
        def f(x, _name=name):
            probe = dict(feed)
            probe[_name] = x
            return float(forward(rec, probe))

        fd = fd_gradient(f, feed[name].copy(), step=1e-5)
        assert rel_err(grads[name], fd) < 1e-4, f"{op}/{name}"


class TestHVP:
    def test_quadratic_hv_ones(self):
        rec = quadratic_record()
        hv = hessian_vector_product(
            rec, {"theta": [1.0, 1.0]}, ["theta"], {"theta": [1.0, 1.0]}
        )
        np.testing.assert_allclose(hv["theta"], [2.0, 4.0], atol=1e-12)

    def test_quadratic_hg(self):
        rec = quadratic_record()
        hv = hessian_vector_product(
            rec, {"theta": [1.0, 1.0]}, ["theta"], {"theta": [2.0, 4.0]}
        )
        np.testing.assert_allclose(hv["theta"], [4.0, 16.0], atol=1e-12)

    def test_zero_v_gives_zeros(self):
        rec = quadratic_record()
        for method in ("exact", "fd"):
            hv = hessian_vector_product(
                rec,
                {"theta": [1.0, 1.0]},
                ["theta"],
                {"theta": [0.0, 0.0]},
                method=method,
            )
            np.testing.assert_array_equal(hv["theta"], [0.0, 0.0])

    def test_methods_agree_on_mlp(self):
        rng = np.random.default_rng(7)
        rec = Record()
        x = rec.input("x", (6, 3))
        w1 = rec.input("w1", (4, 3))
        b1 = rec.input("b1", (4,))
        w2 = rec.input("w2", (1, 4))
        h = rec.silu(rec.linear(x, w1, b1))
        rec.set_output(rec.affine(rec.sum_sq(rec.linear(h, w2)), 1 / 6.0))
        feed = {
            "x": rng.normal(size=(6, 3)),
            "w1": rng.normal(size=(4, 3)) * 0.5,
            "b1": rng.normal(size=(4,)) * 0.1,
            "w2": rng.normal(size=(1, 4)) * 0.5,
        }
        wrt = ["w1", "b1", "w2"]
        v = {k: rng.normal(size=feed[k].shape) for k in wrt}
        exact = hessian_vector_product(rec, feed, wrt, v, method="exact")
        approx = hessian_vector_product(rec, feed, wrt, v, method="fd")
        for k in wrt:
            assert rel_err(exact[k], approx[k]) < 1e-6

    def test_linearity_in_v(self):
        rng = np.random.default_rng(11)
        rec = Record()
        t = rec.input("t", (4,))
        rec.set_output(rec.sum_sq(rec.silu(t)))
        feed = {"t": rng.normal(size=4)}
        v = rng.normal(size=4)
        w = rng.normal(size=4)
        a, b = 0.3, -1.7

        def hv(vec):
            return hessian_vector_product(rec, feed, ["t"], {"t": vec})["t"]

        lhs = hv(a * v + b * w)
        rhs = a * hv(v) + b * hv(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        rec = Record()
        t = rec.input("t", (5,))
        c = rec.const(rng.normal(size=5))
        rec.set_output(rec.sum_sq(rec.sigmoid(rec.mul(t, c))))
        feed = {"t": rng.normal(size=5)}
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        hu = hessian_vector_product(rec, feed, ["t"], {"t": u})["t"]
        hv = hessian_vector_product(rec, feed, ["t"], {"t": v})["t"]
        assert abs(float(u @ hv) - float(v @ hu)) < 1e-6

    def test_without_v_is_h_times_the_gradient(self):
        rec, feed = mlp_record_and_feed()
        wrt = ["w1", "b1", "w2"]
        g = gradient(rec, feed, wrt)
        chain = hessian_vector_product(rec, feed, wrt, g)
        hg = hessian_vector_product(rec, feed, wrt)
        approx = hessian_vector_product(rec, feed, wrt, method="fd")
        for k in wrt:
            assert hg[k].tobytes() == chain[k].tobytes()
            assert rel_err(hg[k], approx[k]) < 1e-6

    def test_bad_v_shape_rejected(self):
        rec = quadratic_record()
        with pytest.raises(ValueError):
            hessian_vector_product(
                rec, {"theta": [1.0, 1.0]}, ["theta"], {"theta": [1.0, 1.0, 1.0]}
            )


class TestGraphExtension:
    def test_forward_unchanged_after_grad_and_hvp(self):
        rec = quadratic_record()
        feed = {"theta": np.array([1.0, 1.0])}
        before = forward(rec, feed)
        gradient(rec, feed, ["theta"])
        hessian_vector_product(rec, feed, ["theta"], {"theta": [1.0, 2.0]})
        after = forward(rec, feed)
        assert before.tobytes() == after.tobytes()


class TestInterning:
    def test_same_op_on_same_args_is_one_node(self):
        rec = Record()
        a, b = rec.input("a", (3,)), rec.input("b", (3,))
        assert rec.add(a, b).nid == rec.add(a, b).nid
        assert rec.add(a, b).nid != rec.add(b, a).nid
        assert rec.affine(a, 2.0).nid == rec.affine(a, 2.0, 0.0).nid
        assert rec.affine(a, 0.0).nid != rec.affine(a, -0.0).nid

    def test_consts_are_never_shared(self):
        rec = Record()
        assert rec.const(0.0).nid != rec.const(0.0).nid

    def test_hvp_reuses_the_first_passes_sigmoids(self):
        """The default loss record's HVP plan evaluates no node that the
        gradient plan holds under another id: every SiLU derivative's
        sigmoid comes from the first reverse pass."""
        model = NoisePredictor(dim=2, seed=0)
        rec = model.loss_record(256)
        names = model.weight_names
        wrt_ids, _ = rec._wrt_ids(names)
        grads = rec._build_grad(rec.output, wrt_ids)
        grad_plan = set(rec._schedule(tuple(grads[w] for w in wrt_ids))[0])
        hv = rec._ensure_hvp(names)
        hvp_only = [nid for nid in rec._schedule(tuple(hv[n] for n in names))[0]
                    if nid not in grad_plan]
        ops = [rec.nodes[nid].op for nid in hvp_only]
        assert "sigmoid" not in ops
        assert ops.count("matmul") == 28 and len(ops) == 178


def mlp_record_and_feed(seed=7):
    rng = np.random.default_rng(seed)
    rec = Record()
    x = rec.input("x", (6, 3))
    w1 = rec.input("w1", (4, 3))
    b1 = rec.input("b1", (4,))
    w2 = rec.input("w2", (1, 4))
    h = rec.silu(rec.linear(x, w1, b1))
    rec.set_output(rec.affine(rec.sum_sq(rec.linear(h, w2)), 1 / 6.0))
    feed = {
        "x": rng.normal(size=(6, 3)),
        "w1": rng.normal(size=(4, 3)) * 0.5,
        "b1": rng.normal(size=(4,)) * 0.1,
        "w2": rng.normal(size=(1, 4)) * 0.5,
    }
    return rec, feed


class TestValueReuse:
    WRT = ["w1", "b1", "w2"]

    def test_gradient_evaluates_no_forward_node_again(self):
        rec, feed = mlp_record_and_feed()
        values = {}
        out = forward(rec, feed, values)
        fwd = dict(values)
        grads = gradient(rec, feed, self.WRT, values)
        # every forward value is the very array the forward pass produced
        assert all(values[nid] is arr for nid, arr in fwd.items())
        assert set(values) > set(fwd)
        fresh = gradient(rec, feed, self.WRT)
        for k in self.WRT:
            assert grads[k].tobytes() == fresh[k].tobytes()
        assert forward(rec, feed).tobytes() == out.tobytes()

    def test_values_from_a_different_feed_rejected(self):
        rec, feed = mlp_record_and_feed()
        values = {}
        forward(rec, feed, values)
        other = dict(feed, x=feed["x"] + 1.0)
        with pytest.raises(ValueError, match="different 'x'"):
            gradient(rec, other, self.WRT, values)

    def test_equal_copy_of_feed_accepted(self):
        rec, feed = mlp_record_and_feed()
        values = {}
        forward(rec, feed, values)
        copy = {k: np.array(a) for k, a in feed.items()}
        got = gradient(rec, copy, self.WRT, values)
        fresh = gradient(rec, feed, self.WRT)
        for k in self.WRT:
            assert got[k].tobytes() == fresh[k].tobytes()


class TestRelease:
    def test_evaluate_without_values_returns_every_target(self):
        rec, feed = mlp_record_and_feed()
        out = rec.output
        # an intermediate read by a later target, the output, and an input
        pre = rec.nodes[out].args[0]
        targets = (pre, out, rec.inputs["b1"])
        got = rec.evaluate(targets, feed)
        assert set(got) == set(targets)
        kept = rec.evaluate(targets, feed, {})
        assert set(kept) > set(targets)
        for nid in targets:
            assert got[nid].tobytes() == kept[nid].tobytes()


def wide_record_and_feed(dtype, batch=512, width=64):
    """A three-layer net whose hidden activations are [batch, width] and
    whose output is [batch, 2]; every allocating op is on the path."""
    rng = np.random.default_rng(11)
    rec = Record()
    x = rec.input("x", (batch, 4))
    w1 = rec.input("w1", (width, 4))
    b1 = rec.input("b1", (width,))
    w2 = rec.input("w2", (width, width))
    b2 = rec.input("b2", (width,))
    w3 = rec.input("w3", (2, width))
    h = rec.silu(rec.linear(x, w1, b1))
    h = rec.sigmoid(rec.linear(h, w2, b2))
    h = rec.affine(rec.mul(h, h), 2.0, -0.5)
    rec.set_output(rec.linear(h, w3))
    feed = {
        "x": rng.normal(size=(batch, 4)),
        "w1": rng.normal(size=(width, 4)),
        "b1": rng.normal(size=(width,)) * 0.1,
        "w2": rng.normal(size=(width, width)) * 0.2,
        "b2": rng.normal(size=(width,)) * 0.1,
        "w3": rng.normal(size=(2, width)) * 0.2,
    }
    return rec, {k: a.astype(dtype) for k, a in feed.items()}


def traced_peak(fn):
    """fn's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFreeList:
    """A replay that keeps nothing writes into buffers its record's earlier
    replays released."""

    def test_second_forward_allocates_no_activation(self, dtype):
        rec, feed = wide_record_and_feed(dtype)
        activation = 512 * 64 * np.dtype(dtype).itemsize
        first, first_peak = traced_peak(lambda: forward(rec, feed))
        second, second_peak = traced_peak(lambda: forward(rec, feed))
        assert second.dtype == dtype
        assert second.tobytes() == first.tobytes()
        # the first replay allocates its activations, the second reuses them
        assert first_peak >= activation
        assert second_peak < activation

    def test_hvp_of_the_gradient_keeps_the_chains_bits(self, dtype):
        """H g without ``v`` is one freeing replay, and every repeat of it,
        on recycled buffers, has the bits of H v with v the gradient."""
        rec, feed = wide_record_and_feed(dtype, batch=32, width=8)
        rec.set_output(rec.sum_sq(Ref(rec, rec.output)))
        wrt = ["w1", "b1", "w2", "w3"]
        chain = hessian_vector_product(rec, feed, wrt, gradient(rec, feed, wrt))
        for _ in range(3):
            hg = hessian_vector_product(rec, feed, wrt)
            for k in wrt:
                assert hg[k].dtype == dtype
                assert hg[k].tobytes() == chain[k].tobytes()

    def test_transposed_target_keeps_its_values(self, dtype):
        rec = Record()
        x = rec.input("x", (5, 3))
        t = rec.transpose(rec.mul(x, x))
        y = rec.add(x, x)  # same shape as mul's buffer, evaluated after it
        rec.set_output(t)
        rng = np.random.default_rng(3)
        feeds = [rng.normal(size=(5, 3)).astype(dtype) for _ in range(4)]
        outs = [forward(rec, {"x": f}) for f in feeds]
        both = [rec.evaluate((t.nid, y.nid), {"x": f}) for f in feeds]
        for f, out, vals in zip(feeds, outs, both):
            assert out.tobytes() == (f * f).T.tobytes()
            assert vals[t.nid].tobytes() == (f * f).T.tobytes()
            assert vals[y.nid].tobytes() == (f + f).tobytes()
