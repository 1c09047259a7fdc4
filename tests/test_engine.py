"""Engine tests: forward replay, gradients vs finite differences, HVPs."""

import warnings

import numpy as np
import pytest

from flowprune.engine import (
    Record,
    forward,
    gradient,
    hessian_vector_product,
)


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
    """exp(-x) overflows below x = -709; SiLU and the sigmoids of its
    derivatives still give their exact limits, with no warning."""
    rec = Record()
    x = rec.input("x", (2,))
    act = rec.silu(x)
    loss = rec.sum_axes(act)
    feed = {"x": np.array([-1000.0, 2.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec.set_output(act)
        y = forward(rec, feed)
        rec.set_output(loss)
        grad = gradient(rec, feed, ["x"])["x"]
        hv = hessian_vector_product(rec, feed, ["x"], {"x": np.ones(2)})["x"]
    assert y[0] == 0.0 and np.signbit(y[0])  # -1000 / inf
    assert y[1] == 2.0 / (1.0 + np.exp(-2.0))
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
        "reshape": (lambda r, a: r.reshape(a, (2, 6)), [(3, 4)]),
        "broadcast": (lambda r, a: r.broadcast(a, (5, 4)), [(1, 4)]),
        "add": (lambda r, a, b: r.add(a, b), [(3, 4), (3, 4)]),
        "mul": (lambda r, a, b: r.mul(a, b), [(3, 4), (3, 4)]),
        "affine": (lambda r, a: r.affine(a, 1.7, -0.3), [(3, 4)]),
        "sigmoid": (lambda r, a: r.sigmoid(a), [(3, 4)]),
        "silu": (lambda r, a: r.silu(a), [(3, 4)]),
        "sum_axes": (lambda r, a: r.sum_axes(a, (0,)), [(3, 4)]),
        "sum_sq": (lambda r, a: r.sum_sq(a), [(3, 4)]),
    }
    body, shapes = table[name]
    return wrap(body, shapes)


ALL_OPS = [
    "matmul", "transpose", "reshape", "broadcast", "add", "mul", "affine",
    "sigmoid", "silu", "sum_axes", "sum_sq",
]


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

    def test_hvp_reuse_is_bit_identical_and_leaves_values(self):
        rec, feed = mlp_record_and_feed()
        values = {}
        forward(rec, feed, values)
        g = gradient(rec, feed, self.WRT, values)
        kept = dict(values)
        hv = hessian_vector_product(rec, feed, self.WRT, g, values=values)
        fresh = hessian_vector_product(rec, feed, self.WRT, gradient(
            rec, feed, self.WRT))
        for k in self.WRT:
            assert hv[k].tobytes() == fresh[k].tobytes()
        assert values.keys() == kept.keys()

    def test_values_from_a_different_feed_rejected(self):
        rec, feed = mlp_record_and_feed()
        values = {}
        forward(rec, feed, values)
        other = dict(feed, x=feed["x"] + 1.0)
        with pytest.raises(ValueError, match="different 'x'"):
            gradient(rec, other, self.WRT, values)
        v = {k: np.ones_like(feed[k]) for k in self.WRT}
        with pytest.raises(ValueError, match="different 'x'"):
            hessian_vector_product(rec, other, self.WRT, v, values=values)

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
