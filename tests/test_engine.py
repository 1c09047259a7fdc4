"""Engine tests: forward replay, gradients vs finite differences, HVPs."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowprune import engine
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

    @pytest.mark.parametrize("shape", [(3,), (4,)])
    def test_input_declared_once(self, shape):
        rec = Record()
        rec.input("x", (3,))
        with pytest.raises(ValueError, match="'x' is already declared"):
            rec.input("x", shape)
        assert list(rec.inputs) == ["x"] and len(rec.nodes) == 1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_rejected(self):
        rec = Record()
        x = rec.input("x", (2,))
        rec.set_output(rec.sum_axes(rec.mul(x, x)))
        with pytest.raises(FloatingPointError):
            forward(rec, {"x": [1e200, 1e200]})


def test_silu_saturates_quietly():
    """tanh(x/2) saturates to -1 at these inputs without overflowing; SiLU
    and the sigmoids of its derivatives give their exact limits, with no
    warning."""
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
            hv = hessian_vector_product(rec, feed, ["x"])["x"]
        assert y.dtype == dtype
        assert y[0] == 0.0 and np.signbit(y[0])  # low * 0
        two = dtype(2.0)
        assert y[1] == two * (np.tanh(two / 2) / 2 + dtype(0.5))
        assert grad[0] == 0.0 and hv[0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_is_x_times_sigmoid_byte_for_byte(dtype):
    """Halving is exact on normal floats, so the record's silu, x times its
    sigmoid and x/2 * (1 + tanh(x/2)) agree in every bit, saturated tails
    included."""
    rng = np.random.default_rng(11)
    tiny = np.finfo(dtype).tiny
    x = np.concatenate([
        rng.normal(size=4000) * 10.0 ** rng.integers(-3, 4, size=4000),
        [-1000.0, -40.0, -1.0, -tiny, tiny, 1.0, 40.0, 1000.0]]).astype(dtype)
    rec = Record()
    xr = rec.input("x", x.shape)
    act, sig = rec.silu(xr), rec.sigmoid(xr)
    prod = rec.mul(xr, sig)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rec.evaluate((act.nid, sig.nid, prod.nid), {"x": x})
    half = np.multiply(x, 0.5)
    formula = np.multiply(half, np.add(1.0, np.tanh(half)))
    assert got[act.nid].dtype == dtype
    assert got[act.nid].tobytes() == got[prod.nid].tobytes()
    assert got[act.nid].tobytes() == formula.tobytes()
    assert got[sig.nid][-8] == 0.0 and got[sig.nid][-1] == 1.0
    assert np.signbit(got[act.nid][-8])


# Largest error of both kernels from the float64 exp reference, in units of
# eps * max(1, |x|), over 1.6e8 inputs per dtype at scales 1e-3 to 1e4:
# sigmoid 0.43 and SiLU 0.98 in float32, 0.91 and 2.0 in float64, where the
# reference rounds as often as the kernel. SiLU's error is absolute near its
# floor: x times a sigmoid that the tanh form holds to eps/2 where it is
# near 0. Twice the largest, rounded up.
KERNEL_ERROR_K = 4


def exact_exp_sigmoid(x):
    """float64 1 / (1 + exp(-x)), from exp(-|x|) so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@settings(deadline=None)
@given(data=st.data(), width=st.sampled_from([32, 64]))
def test_kernels_stay_near_the_exp_reference(data, width):
    dtype = np.float32 if width == 32 else np.float64
    x = data.draw(arrays(dtype, st.integers(1, 64), elements=st.floats(
        allow_nan=False, allow_infinity=False, width=width)))
    ref_sig = exact_exp_sigmoid(x)
    bound = (KERNEL_ERROR_K * np.finfo(dtype).eps
             * np.maximum(1.0, np.abs(x.astype(np.float64))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig, act = engine.sigmoid(x), engine.silu(x)
    assert sig.dtype == act.dtype == dtype
    assert np.all(np.abs(sig - ref_sig) <= bound)
    assert np.all(np.abs(act - x.astype(np.float64) * ref_sig) <= bound)


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


def gradient_plan_values(rec, feed, wrt):
    """Every node value of ``gradient(rec, feed, wrt)``'s plan, from the
    same replay with each node a target, so none is dropped; and the
    gradient's node id per name."""
    wrt_ids, names = rec._wrt_ids(wrt)
    grads = rec._build_grad(rec.output, wrt_ids)
    plan = rec._schedule(tuple(grads[w] for w in wrt_ids))[0]
    values = rec.evaluate(tuple(plan), feed)
    assert set(values) == set(plan)
    return values, {name: grads[w] for name, w in zip(names, wrt_ids)}


@pytest.mark.parametrize("op", ALL_OPS)
def test_float32_feed_differentiates_in_float32(op):
    """The gradient seed takes the output's dtype, so a float32 feed
    replays every forward and backward node in float32."""
    rec, feed = build_single_op(op)
    feed32 = {n: a.astype(np.float32) for n, a in feed.items()}
    values, grad_ids = gradient_plan_values(rec, feed32, sorted(feed32))
    assert {np.asarray(v).dtype for v in values.values()} == {
        np.dtype(np.float32)}
    grads = gradient(rec, feed32, sorted(feed32))
    for name, g in grads.items():
        assert g.dtype == np.float32
        assert g.tobytes() == values[grad_ids[name]].tobytes()


def test_float64_gradient_keeps_python_scales_in_float64():
    """A float64 output scaled by 1/3 has a float64 gradient seed: every
    node is float64 and the gradient has the bits of the float64 chain
    rule, not those of 1/3 rounded to float32."""
    rec = Record()
    x = rec.input("x", (3,))
    rec.set_output(rec.affine(rec.sum_sq(x), 1.0 / 3.0))
    feed = {"x": np.array([0.1, -2.5, 7.0])}
    values, grad_ids = gradient_plan_values(rec, feed, ["x"])
    assert {np.asarray(v).dtype for v in values.values()} == {
        np.dtype(np.float64)}
    got = gradient(rec, feed, ["x"])["x"]
    assert got.tobytes() == values[grad_ids["x"]].tobytes()
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


def explicit_hessian(rec, feed, wrt, step=1e-5):
    """The Hessian over the flattened ``wrt`` inputs, column by column from
    central differences of the float64 gradient."""
    feed = {k: np.asarray(a, dtype=np.float64) for k, a in feed.items()}

    def flat_grad(probe):
        g = gradient(rec, probe, wrt)
        return np.concatenate([g[k].ravel() for k in wrt])

    cols = []
    for k in wrt:
        for i in range(feed[k].size):
            plus, minus = dict(feed), dict(feed)
            for probe, sign in ((plus, 1.0), (minus, -1.0)):
                probe[k] = feed[k].copy()
                probe[k].flat[i] += sign * step
            cols.append((flat_grad(plus) - flat_grad(minus)) / (2 * step))
    return np.stack(cols, axis=1)


class TestHVP:
    def test_quadratic_hv_ones(self):
        # the gradient at theta = (1/2, 1/4) is (1, 1)
        rec = quadratic_record()
        hv = hessian_vector_product(rec, {"theta": [0.5, 0.25]}, ["theta"])
        np.testing.assert_allclose(hv["theta"], [2.0, 4.0], atol=1e-12)

    def test_quadratic_hg(self):
        rec = quadratic_record()
        hv = hessian_vector_product(rec, {"theta": [1.0, 1.0]}, ["theta"])
        np.testing.assert_allclose(hv["theta"], [4.0, 16.0], atol=1e-12)

    def test_zero_v_gives_zeros(self):
        # at the minimum the gradient, the vector H multiplies, is zero
        rec = quadratic_record()
        for method in ("exact", "fd"):
            hv = hessian_vector_product(rec, {"theta": [0.0, 0.0]}, ["theta"],
                                        method=method)
            np.testing.assert_array_equal(hv["theta"], [0.0, 0.0])

    def test_methods_agree_on_mlp(self):
        """Exact H g, replayed in float32 and in float64, agrees with
        central differences of the gradient along g."""
        rec, feed = mlp_record_and_feed()
        wrt = ["w1", "b1", "w2"]
        approx = hessian_vector_product(rec, feed, wrt, method="fd")
        for dtype, tol in ((np.float64, 1e-6), (np.float32, 1e-5)):
            exact = hessian_vector_product(
                rec, {k: a.astype(dtype) for k, a in feed.items()}, wrt)
            for k in wrt:
                assert exact[k].dtype == dtype
                assert rel_err(exact[k], approx[k]) < tol

    def test_without_v_is_h_times_the_gradient(self):
        """The product, taken with no vector given, is the explicit Hessian
        times the gradient at the same inputs."""
        rec, feed = mlp_record_and_feed()
        wrt = ["w1", "b1", "w2"]
        g = gradient(rec, feed, wrt)
        flat = explicit_hessian(rec, feed, wrt) @ np.concatenate(
            [g[k].ravel() for k in wrt])
        sizes = np.cumsum([feed[k].size for k in wrt])[:-1]
        want = {k: part.reshape(feed[k].shape)
                for k, part in zip(wrt, np.split(flat, sizes))}
        for dtype, tol in ((np.float64, 1e-6), (np.float32, 1e-5)):
            hg = hessian_vector_product(
                rec, {k: a.astype(dtype) for k, a in feed.items()}, wrt)
            for k in wrt:
                assert rel_err(hg[k], want[k]) < tol


class TestGraphExtension:
    def test_forward_unchanged_after_grad_and_hvp(self):
        rec = quadratic_record()
        feed = {"theta": np.array([1.0, 1.0])}
        before = forward(rec, feed)
        gradient(rec, feed, ["theta"])
        hessian_vector_product(rec, feed, ["theta"])
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
        names = list(model.masks)
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

    def test_gradient_evaluates_no_forward_node_again(self, monkeypatch):
        rec, feed = mlp_record_and_feed()
        values = {}
        out = forward(rec, feed, values)
        # the forward keeps every node of its plan
        fwd = set(rec._schedule((rec.output,))[0])
        assert set(values) == fwd
        computed = []
        real_allocating = engine._allocating

        def allocating(node, vals, out):
            computed.append(node.nid)
            return real_allocating(node, vals, out)

        monkeypatch.setattr(engine, "_allocating", allocating)
        grads = gradient(rec, feed, self.WRT, values)
        monkeypatch.undo()
        # the gradient computes only backward nodes and consumes the
        # forward's values
        assert computed and not fwd & set(computed)
        assert not fwd & set(values)
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
        # a caller's dict follows the same rule: it ends with the targets
        values = {}
        kept = rec.evaluate(targets, feed, values)
        assert kept is values and set(kept) == set(targets)
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

    def test_repeated_hvp_adds_no_node_and_keeps_its_bits(self, dtype):
        """The first H g call builds the record's one H g graph; every
        repeat, a freeing replay on recycled buffers, adds no node and
        returns the first call's bits."""
        rec, feed = wide_record_and_feed(dtype, batch=32, width=8)
        rec.set_output(rec.sum_sq(Ref(rec, rec.output)))
        wrt = ["w1", "b1", "w2", "w3"]
        first = hessian_vector_product(rec, feed, wrt)
        size = len(rec.nodes)
        for _ in range(3):
            hg = hessian_vector_product(rec, feed, wrt)
            assert len(rec.nodes) == size
            for k in wrt:
                assert hg[k].dtype == dtype
                assert hg[k].tobytes() == first[k].tobytes()

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


def np_affine(x, scale, shift):
    return np.add(np.multiply(x, scale), shift)


def np_sigmoid(x):
    return np.add(np.multiply(np.tanh(np.multiply(x, 0.5)), 0.5), 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestInPlace:
    """add, mul, affine and sigmoid may write into the buffer of an
    argument that dies at their node; no array that anything else still
    reads is overwritten. Each case compares bytes with numpy run on fresh
    arrays."""

    def test_values_the_caller_holds_survive_the_gradient(self, dtype):
        rec, feed = wide_record_and_feed(dtype, batch=16, width=8)
        rec.set_output(rec.sum_sq(Ref(rec, rec.output)))
        values = {}
        forward(rec, feed, values)
        held = {nid: values[nid] for nid in values
                if rec.nodes[nid].op in ("add", "mul", "affine", "sigmoid")}
        assert len(held) == 5
        gradient(rec, feed, ["w1", "b1", "w2"], values)
        pre1 = np.matmul(feed["x"], feed["w1"].T) + feed["b1"]
        pre2 = np.matmul(engine.silu(pre1), feed["w2"].T) + feed["b2"]
        h = np_sigmoid(pre2)
        want = [pre1, pre2, h, h * h, np_affine(h * h, 2.0, -0.5)]
        for nid, expected in zip(sorted(held), want):
            assert held[nid].tobytes() == expected.tobytes()

    def test_mul_of_a_dying_value_by_itself(self, dtype):
        rec = Record()
        a = rec.affine(rec.input("x", (64, 8)), 2.0, 1.0)
        rec.set_output(rec.mul(a, a))
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.normal(size=(64, 8)).astype(dtype)
            expected = np_affine(x, 2.0, 1.0) * np_affine(x, 2.0, 1.0)
            assert forward(rec, {"x": x}).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("view", ["transpose", "broadcast"])
    def test_an_argument_a_later_view_reads_is_kept(self, dtype, view):
        rec = Record()

        def on_record(ref):
            return (rec.transpose(ref) if view == "transpose"
                    else rec.broadcast(ref, (3, 8, 8)))

        def on_array(arr):
            return (arr.T if view == "transpose"
                    else np.broadcast_to(arr, (3, 8, 8)))

        a = rec.affine(rec.input("x", (8, 8)), 2.0, 1.0)
        v = on_record(a)  # a view of a, built before a's last direct reader
        rec.set_output(rec.mul(v, on_record(rec.sigmoid(a))))
        x = np.random.default_rng(6).normal(size=(8, 8)).astype(dtype)
        ax = np_affine(x, 2.0, 1.0)
        expected = on_array(ax) * on_array(np_sigmoid(ax))
        for _ in range(2):
            assert forward(rec, {"x": x}).tobytes() == expected.tobytes()

    def test_a_target_is_never_donated(self, dtype):
        rec = Record()
        a = rec.affine(rec.input("x", (32, 4)), 3.0, -1.0)
        s = rec.sigmoid(a)
        y = rec.add(s, s)
        x = np.random.default_rng(7).normal(size=(32, 4)).astype(dtype)
        ax = np_affine(x, 3.0, -1.0)
        for _ in range(2):
            got = rec.evaluate((a.nid, s.nid, y.nid), {"x": x})
            assert got[a.nid].tobytes() == ax.tobytes()
            assert got[s.nid].tobytes() == np_sigmoid(ax).tobytes()
            assert got[y.nid].tobytes() == (np_sigmoid(ax) * 2).tobytes()

    def test_a_narrower_argument_does_not_take_a_wider_result(self, dtype):
        rec = Record()
        a = rec.affine(rec.input("x", (16, 4)), 0.5, 0.25)
        c = np.random.default_rng(8).normal(size=(16, 4))
        rec.set_output(rec.add(a, rec.const(c)))
        x = np.random.default_rng(9).normal(size=(16, 4)).astype(dtype)
        expected = np_affine(x, 0.5, 0.25) + c
        for _ in range(2):
            got = forward(rec, {"x": x})
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()

    def test_the_bias_add_writes_into_the_matmul(self, dtype):
        """The matmul's buffer dies at the bias add, which writes into it,
        so no replay of ``linear`` leaves a buffer on the free list, and
        the output of each replay is a buffer no later replay reuses."""
        rec = Record()
        rec.set_output(rec.linear(rec.input("x", (32, 6)),
                                  rec.input("w", (5, 6)),
                                  rec.input("b", (5,))))
        rng = np.random.default_rng(10)
        feed = {"x": rng.normal(size=(32, 6)), "w": rng.normal(size=(5, 6)),
                "b": rng.normal(size=(5,))}
        feed = {k: a.astype(dtype) for k, a in feed.items()}
        expected = (np.matmul(feed["x"], feed["w"].T) + feed["b"]).tobytes()
        outs = []
        for _ in range(3):
            outs.append(forward(rec, feed))
            assert not any(rec._free.values())
            assert all(out.tobytes() == expected for out in outs)
