import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowprune.diffusion import NoisePredictor, TrainBatch, loss, make_schedule
from flowprune.masking import (
    MaskedParam,
    apply_mask_update,
    dense_params,
    nonzero_params,
    soft_sparsity,
)
from flowprune.seeding import make_rng


def flat_param(values, name="w"):
    w = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return MaskedParam(name=name, weights=w, mask=np.ones_like(w))


class TestSoftSparsity:
    def test_all_ones_vs_half(self):
        par = flat_param([1.0, 2.0, 3.0, 4.0])
        assert soft_sparsity([par], 0.5) == 0.0

    def test_all_equal_p(self):
        par = flat_param([1.0, 2.0])
        par.mask = np.full_like(par.weights, 0.3)
        assert soft_sparsity([par], 0.3) == 1.0

    def test_half(self):
        par = flat_param([1.0, 2.0, 3.0, 4.0])
        par.mask = np.array([[0.3, 0.3, 1.0, 1.0]])
        assert soft_sparsity([par], 0.3) == 0.5

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            soft_sparsity([flat_param([1.0])], 1.5)


class TestApplyMaskUpdate:
    def test_s_zero_keeps_everything(self):
        par = flat_param([5.0, -1.0, 2.0])
        scores = {"w": np.array([[3.0, 1.0, 2.0]])}
        apply_mask_update([par], scores, 0.0, 0.5)
        np.testing.assert_array_equal(par.mask, 1.0)

    def test_sort_and_threshold_by_hand(self):
        par = flat_param([1.0, 1.0, 1.0, 1.0])
        scores = {"w": np.array([[4.0, 16.0, 1.0, 9.0]])}
        apply_mask_update([par], scores, 0.5, 0.5)
        np.testing.assert_array_equal(par.mask, [[0.5, 1.0, 0.5, 1.0]])

    def test_hard_prune_equals_removal(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(20, 0.01, 0.05)
        rng = make_rng(0, "hp")
        x = rng.normal(size=(4, 2))
        t = np.array([3, 7, 11, 15])
        scores = {
            p.name: make_rng(1, p.name).normal(size=p.weights.shape)
            for p in model.masked_params()
        }
        apply_mask_update(model.masked_params(), scores, 0.5, 0.0)
        masked_out = model.predict(x, t)
        # physically zero the weights instead of masking
        for p in model.masked_params():
            p.weights *= np.abs(p.mask) > 0.5
            p.mask = np.ones_like(p.mask)
        removed_out = model.predict(x, t)
        np.testing.assert_array_equal(masked_out, removed_out)

    def test_mask_closure_invariant(self):
        rng = make_rng(2, "closure")
        pars = [
            MaskedParam(f"p{i}", rng.normal(size=(6, 7)),
                        np.ones((6, 7)))
            for i in range(3)
        ]
        scores = {p.name: rng.normal(size=p.weights.shape) for p in pars}
        total = sum(p.weights.size for p in pars)
        for s_t, p_t in [(0.25, 0.75), (0.5, 0.5), (0.9, 0.1), (0.37, 0.0)]:
            apply_mask_update(pars, scores, s_t, p_t)
            got = soft_sparsity(pars, p_t)
            assert abs(got - s_t) <= 1.0 / total + 1e-12

    def test_idempotent(self):
        rng = make_rng(3, "idem")
        par = MaskedParam("w", rng.normal(size=(5, 5)), np.ones((5, 5)))
        scores = {"w": rng.normal(size=(5, 5))}
        apply_mask_update([par], scores, 0.4, 0.2)
        first = par.mask.copy()
        apply_mask_update([par], scores, 0.4, 0.2)
        np.testing.assert_array_equal(par.mask, first)

    @settings(max_examples=25, deadline=None)
    @given(
        s_small=st.floats(0.0, 1.0),
        s_big=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
    )
    def test_monotone_containment(self, s_small, s_big, seed):
        s_small, s_big = sorted((s_small, s_big))
        rng = make_rng(seed, "mono")
        par = MaskedParam("w", rng.normal(size=(4, 8)), np.ones((4, 8)))
        scores = {"w": rng.normal(size=(4, 8))}
        apply_mask_update([par], scores, s_small, 0.5)
        pruned_small = set(np.flatnonzero(par.mask.ravel() != 1.0))
        apply_mask_update([par], scores, s_big, 0.5)
        pruned_big = set(np.flatnonzero(par.mask.ravel() != 1.0))
        assert pruned_small <= pruned_big

    def test_recovery_of_improved_units(self):
        par = flat_param([1.0, 1.0, 1.0, 1.0])
        apply_mask_update([par], {"w": np.array([[1.0, 2.0, 3.0, 4.0]])}, 0.25, 0.5)
        np.testing.assert_array_equal(par.mask, [[0.5, 1.0, 1.0, 1.0]])
        # unit 0's score recovers; unit 1 becomes the weakest
        apply_mask_update([par], {"w": np.array([[5.0, 2.0, 3.0, 4.0]])}, 0.25, 0.4)
        np.testing.assert_array_equal(par.mask, [[1.0, 0.4, 1.0, 1.0]])

    def test_soft_pruned_units_can_recover(self):
        par = flat_param([1.0, 1.0, 1.0, 1.0])
        apply_mask_update([par], {"w": np.array([[-1.0, 2.0, 3.0, 4.0]])},
                          0.25, 0.3)
        np.testing.assert_array_equal(par.mask, [[0.3, 1.0, 1.0, 1.0]])
        apply_mask_update([par], {"w": np.array([[9.0, -5.0, -4.0, 6.0]])},
                          0.25, 0.3)
        np.testing.assert_array_equal(par.mask, [[1.0, 0.3, 1.0, 1.0]])

    def test_row_group_no_partial_rows(self):
        rng = make_rng(4, "rows")
        par = MaskedParam("w", rng.normal(size=(128, 128)), np.ones((128, 128)))
        scores = {"w": rng.normal(size=(128, 128))}
        apply_mask_update([par], scores, 0.5, 0.0, granularity="row-group")
        row_vals = [np.unique(par.mask[r]) for r in range(128)]
        assert all(len(v) == 1 for v in row_vals)
        assert sum(int(v[0] == 0.0) for v in row_vals) == 64

    def test_ties_break_by_name_then_index(self):
        a = flat_param([1.0, 1.0], name="a")
        b = flat_param([1.0, 1.0], name="b")
        scores = {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))}
        apply_mask_update([a, b], scores, 0.5, 0.0)
        np.testing.assert_array_equal(a.mask, [[0.0, 0.0]])
        np.testing.assert_array_equal(b.mask, [[1.0, 1.0]])

    def test_score_shape_mismatch_rejected(self):
        par = flat_param([1.0, 2.0])
        with pytest.raises(ValueError):
            apply_mask_update([par], {"w": np.zeros((2, 2))}, 0.5, 0.5)
        with pytest.raises(KeyError):
            apply_mask_update([par], {}, 0.5, 0.5)

    def test_all_ones_mask_is_bit_identical_forward(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=1)
        sched = make_schedule(20, 0.01, 0.05)
        rng = make_rng(5, "bits")
        batch = TrainBatch(
            x0=rng.normal(size=(6, 2)), t=rng.integers(0, 20, 6),
            eps=rng.normal(size=(6, 2)),
        )
        dense = loss(model, sched, batch).value
        scores = {
            p.name: make_rng(6, p.name).normal(size=p.weights.shape)
            for p in model.masked_params()
        }
        apply_mask_update(model.masked_params(), scores, 0.0, 0.7)
        masked = loss(model, sched, batch).value
        assert np.float64(dense).tobytes() == np.float64(masked).tobytes()


def oracle_kept(scores, s_t, granularity, per_layer, exclude):
    """Brute-force tie rule: sort (score, name, index) tuples per pool and
    drop the first floor(s_t * len) of each; returns the kept (name, index)."""
    pools = {}
    for name, score in scores.items():
        if name in exclude:
            continue
        if granularity == "element":
            units = score.ravel()
        else:
            units = score.sum(axis=1 if granularity == "row-group" else 0)
        pools[name] = [(float(v), name, i) for i, v in enumerate(units)]
    groups = list(pools.values()) if per_layer else [sum(pools.values(), [])]
    kept = set()
    for pool in groups:
        ranked = sorted(pool)
        kept |= {(n, i) for _, n, i in ranked[int(np.floor(s_t * len(ranked))):]}
    return kept


class TestRankingOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_keep_masks_match_sorted_tuples(self, data):
        names = data.draw(st.lists(
            st.sampled_from(["a", "b", "layer0.w", "layer1.w", "out.w"]),
            min_size=1, max_size=4, unique=True))
        # integer values force ties, within a layer, across layers and
        # between 0.0 and -0.0
        values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
        scores = {
            n: data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)),
                                             data.draw(st.integers(1, 4))),
                                elements=values))
            for n in names
        }
        granularity = data.draw(st.sampled_from(
            ["element", "row-group", "column-group"]))
        per_layer = data.draw(st.booleans())
        exclude = tuple(data.draw(st.lists(st.sampled_from(names),
                                           unique=True)))
        s_t = data.draw(st.floats(0.0, 1.0))
        pars = [MaskedParam(n, np.ones_like(scores[n]), np.ones_like(scores[n]))
                for n in names]
        state = apply_mask_update(pars, scores, s_t, 0.5,
                                  granularity=granularity,
                                  per_layer=per_layer, exclude=exclude)
        want = oracle_kept(scores, s_t, granularity, per_layer, exclude)
        got = set()
        for par in pars:
            if par.name in exclude:
                np.testing.assert_array_equal(par.mask, 1.0)
                continue
            unit_mask = {"element": par.mask.ravel(), "row-group": par.mask[:, 0],
                         "column-group": par.mask[0, :]}[granularity]
            got |= {(par.name, int(i)) for i in np.flatnonzero(unit_mask == 1.0)}
            np.testing.assert_array_equal(
                state.kept[par.name], unit_mask == 1.0)
        assert got == want
        assert state.total_units - state.pruned_units == len(want)


class TestCounts:
    def test_untouched(self):
        par = flat_param([1.0, 2.0, 3.0])
        assert nonzero_params([par]) == 3
        assert dense_params([par]) == 3

    def test_half_hard(self):
        rng = make_rng(7, "half")
        par = MaskedParam("w", rng.normal(size=(10, 10)), np.ones((10, 10)))
        apply_mask_update([par], {"w": rng.normal(size=(10, 10))}, 0.5, 0.0)
        assert nonzero_params([par]) == 50
        assert dense_params([par]) == 100

    def test_row_group_128(self):
        rng = make_rng(8, "rg")
        par = MaskedParam("w", rng.normal(size=(128, 128)), np.ones((128, 128)))
        apply_mask_update([par], {"w": rng.normal(size=(128, 128))}, 0.5, 0.0,
                          granularity="row-group")
        assert nonzero_params([par]) == 64 * 128
        zero_rows = int(np.sum(np.all(par.mask == 0.0, axis=1)))
        assert zero_rows == 64

    def test_always_dense_extra(self):
        par = flat_param([1.0, 2.0])
        assert nonzero_params([par], always_dense=5) == 7
        assert dense_params([par], always_dense=5) == 7
