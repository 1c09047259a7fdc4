import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowprune.diffusion import NoisePredictor, TrainBatch, loss, make_schedule
from flowprune.masking import apply_mask_update, soft_sparsity
from flowprune.metrics import count_macs
from flowprune.seeding import make_rng


def flat_masks(n):
    """An all-ones mask set over one [1, n] weight named ``w``."""
    return {"w": np.ones((1, n))}


class TestSoftSparsity:
    def test_all_ones_vs_half(self):
        assert soft_sparsity(flat_masks(4), 0.5) == 0.0

    def test_all_equal_p(self):
        assert soft_sparsity({"w": np.full((1, 2), 0.3)}, 0.3) == 1.0

    def test_half(self):
        masks = {"w": np.array([[0.3, 0.3, 1.0, 1.0]])}
        assert soft_sparsity(masks, 0.3) == 0.5

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            soft_sparsity(flat_masks(1), 1.5)


class TestApplyMaskUpdate:
    @pytest.mark.parametrize("granularity", ["element", "row-group"])
    def test_float32_masks_stay_float32(self, granularity):
        """A float32 mask set stays float32, and ``soft_sparsity`` at p finds
        exactly the pruned entries, whether p is a Python float or not."""
        rng = make_rng(3, "float32-masks")
        masks = {"a": np.ones((4, 3), np.float32),
                 "b": np.ones((6, 3), np.float32)}
        scores = {n: rng.uniform(size=m.shape) for n, m in masks.items()}
        state = apply_mask_update(masks, scores, 0.5, 0.7,
                                  granularity=granularity)
        assert {m.dtype for m in masks.values()} == {np.dtype(np.float32)}
        pruned = sum(int(np.count_nonzero(m != 1.0)) for m in masks.values())
        per_unit = 1 if granularity == "element" else 3
        assert pruned == state.pruned_units * per_unit > 0
        for p in (0.7, np.float64(0.7)):
            assert soft_sparsity(masks, p) == pruned / 30

    def test_s_zero_keeps_everything(self):
        masks = flat_masks(3)
        scores = {"w": np.array([[3.0, 1.0, 2.0]])}
        apply_mask_update(masks, scores, 0.0, 0.5)
        np.testing.assert_array_equal(masks["w"], 1.0)

    def test_sort_and_threshold_by_hand(self):
        masks = flat_masks(4)
        scores = {"w": np.array([[4.0, 16.0, 1.0, 9.0]])}
        apply_mask_update(masks, scores, 0.5, 0.5)
        np.testing.assert_array_equal(masks["w"], [[0.5, 1.0, 0.5, 1.0]])

    def test_hard_prune_equals_removal(self):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        sched = make_schedule(20, 0.01, 0.05)
        rng = make_rng(0, "hp")
        x = rng.normal(size=(4, 2))
        t = np.array([3, 7, 11, 15])
        scores = {
            n: make_rng(1, n).normal(size=m.shape) for n, m in model.masks.items()
        }
        apply_mask_update(model.masks, scores, 0.5, 0.0)
        masked_out = model.predict(x, t, model.float64().param_inputs())
        # physically zero the weights instead of masking
        for n, m in model.masks.items():
            model.params[n] *= np.abs(m) > 0.5
            model.masks[n] = np.ones_like(m)
        removed_out = model.predict(x, t, model.float64().param_inputs())
        np.testing.assert_array_equal(masked_out, removed_out)

    def test_mask_closure_invariant(self):
        rng = make_rng(2, "closure")
        masks = {f"p{i}": np.ones((6, 7)) for i in range(3)}
        scores = {n: rng.normal(size=m.shape) for n, m in masks.items()}
        total = sum(m.size for m in masks.values())
        for s_t, p_t in [(0.25, 0.75), (0.5, 0.5), (0.9, 0.1), (0.37, 0.0)]:
            apply_mask_update(masks, scores, s_t, p_t)
            got = soft_sparsity(masks, p_t)
            assert abs(got - s_t) <= 1.0 / total + 1e-12

    def test_idempotent(self):
        rng = make_rng(3, "idem")
        masks = {"w": np.ones((5, 5))}
        scores = {"w": rng.normal(size=(5, 5))}
        apply_mask_update(masks, scores, 0.4, 0.2)
        first = masks["w"].copy()
        apply_mask_update(masks, scores, 0.4, 0.2)
        np.testing.assert_array_equal(masks["w"], first)

    @settings(max_examples=25, deadline=None)
    @given(
        s_small=st.floats(0.0, 1.0),
        s_big=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
    )
    def test_monotone_containment(self, s_small, s_big, seed):
        s_small, s_big = sorted((s_small, s_big))
        rng = make_rng(seed, "mono")
        masks = {"w": np.ones((4, 8))}
        scores = {"w": rng.normal(size=(4, 8))}
        apply_mask_update(masks, scores, s_small, 0.5)
        pruned_small = set(np.flatnonzero(masks["w"].ravel() != 1.0))
        apply_mask_update(masks, scores, s_big, 0.5)
        pruned_big = set(np.flatnonzero(masks["w"].ravel() != 1.0))
        assert pruned_small <= pruned_big

    def test_recovery_of_improved_units(self):
        masks = flat_masks(4)
        apply_mask_update(masks, {"w": np.array([[1.0, 2.0, 3.0, 4.0]])}, 0.25, 0.5)
        np.testing.assert_array_equal(masks["w"], [[0.5, 1.0, 1.0, 1.0]])
        # unit 0's score recovers; unit 1 becomes the weakest
        apply_mask_update(masks, {"w": np.array([[5.0, 2.0, 3.0, 4.0]])}, 0.25, 0.4)
        np.testing.assert_array_equal(masks["w"], [[1.0, 0.4, 1.0, 1.0]])

    def test_soft_pruned_units_can_recover(self):
        masks = flat_masks(4)
        apply_mask_update(masks, {"w": np.array([[-1.0, 2.0, 3.0, 4.0]])},
                          0.25, 0.3)
        np.testing.assert_array_equal(masks["w"], [[0.3, 1.0, 1.0, 1.0]])
        apply_mask_update(masks, {"w": np.array([[9.0, -5.0, -4.0, 6.0]])},
                          0.25, 0.3)
        np.testing.assert_array_equal(masks["w"], [[1.0, 0.3, 1.0, 1.0]])

    def test_row_group_no_partial_rows(self):
        rng = make_rng(4, "rows")
        masks = {"w": np.ones((128, 128))}
        scores = {"w": rng.normal(size=(128, 128))}
        apply_mask_update(masks, scores, 0.5, 0.0, granularity="row-group")
        row_vals = [np.unique(masks["w"][r]) for r in range(128)]
        assert all(len(v) == 1 for v in row_vals)
        assert sum(int(v[0] == 0.0) for v in row_vals) == 64

    def test_ties_break_by_name_then_index(self):
        masks = {"b": np.ones((1, 2)), "a": np.ones((1, 2))}
        scores = {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))}
        apply_mask_update(masks, scores, 0.5, 0.0)
        np.testing.assert_array_equal(masks["a"], [[0.0, 0.0]])
        np.testing.assert_array_equal(masks["b"], [[1.0, 1.0]])

    def test_score_shape_mismatch_rejected(self):
        masks = flat_masks(2)
        with pytest.raises(ValueError):
            apply_mask_update(masks, {"w": np.zeros((2, 2))}, 0.5, 0.5)
        with pytest.raises(KeyError):
            apply_mask_update(masks, {}, 0.5, 0.5)

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
            n: make_rng(6, n).normal(size=m.shape) for n, m in model.masks.items()
        }
        apply_mask_update(model.masks, scores, 0.0, 0.7)
        masked = loss(model, sched, batch).value
        assert np.float64(dense).tobytes() == np.float64(masked).tobytes()


def oracle_kept(scores, s_t, granularity, exclude):
    """Brute-force tie rule: sort (score, name, index) tuples per pool and
    drop the first floor(s_t * len) of each; elements pool globally, rows per
    parameter. Returns the kept (name, index)."""
    pools = {}
    for name, score in scores.items():
        if name in exclude:
            continue
        if granularity == "element":
            units = score.ravel()
        else:
            units = score.sum(axis=1)
        pools[name] = [(float(v), name, i) for i, v in enumerate(units)]
    if granularity == "element":
        groups = [sum(pools.values(), [])]
    else:
        groups = list(pools.values())
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
        granularity = data.draw(st.sampled_from(["element", "row-group"]))
        exclude = tuple(data.draw(st.lists(st.sampled_from(names),
                                           unique=True)))
        s_t = data.draw(st.floats(0.0, 1.0))
        masks = {n: np.ones_like(scores[n]) for n in names}
        state = apply_mask_update(masks, scores, s_t, 0.5,
                                  granularity=granularity, exclude=exclude)
        want = oracle_kept(scores, s_t, granularity, exclude)
        got = set()
        for n, mask in masks.items():
            if n in exclude:
                np.testing.assert_array_equal(mask, 1.0)
                continue
            unit_mask = {"element": mask.ravel(),
                         "row-group": mask[:, 0]}[granularity]
            got |= {(n, int(i)) for i in np.flatnonzero(unit_mask == 1.0)}
            np.testing.assert_array_equal(state.kept[n], unit_mask == 1.0)
        assert got == want
        assert state.total_units - state.pruned_units == len(want)


class TestCounts:
    def test_untouched(self):
        assert count_macs(flat_masks(3)) == (3, 3)

    def test_half_hard(self):
        rng = make_rng(7, "half")
        masks = {"w": np.ones((10, 10))}
        apply_mask_update(masks, {"w": rng.normal(size=(10, 10))}, 0.5, 0.0)
        assert count_macs(masks) == (100, 50)

    def test_row_group_128(self):
        rng = make_rng(8, "rg")
        masks = {"w": np.ones((128, 128))}
        apply_mask_update(masks, {"w": rng.normal(size=(128, 128))}, 0.5, 0.0,
                          granularity="row-group")
        assert count_macs(masks)[1] == 64 * 128
        zero_rows = int(np.sum(np.all(masks["w"] == 0.0, axis=1)))
        assert zero_rows == 64
