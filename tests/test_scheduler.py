import numpy as np
import pytest

from flowprune.criteria import ImportanceScores
from flowprune.datasets import DatasetSpec, generate
from flowprune.diffusion import (
    NoisePredictor,
    OptimizerConfig,
    loss,
    make_schedule,
)
from flowprune import scheduler
from flowprune.masking import apply_mask_update, soft_sparsity
from flowprune.scheduler import (
    PrunePlan,
    energy_flow,
    final_hard_prune,
    finetune,
    run_progressive_soft,
    schedule_at,
)
from flowprune.seeding import make_rng


def plan_ps(s=0.5, m=12, n=10, interval=5, total=120, **kw):
    return PrunePlan(s=s, total_steps=total, m_iters=m, n_iters=n,
                     interval=interval, **kw)


class TestScheduleAt:
    def test_algorithm_formulas(self):
        plan = plan_ps()
        for t in range(13):
            step = schedule_at(plan, t)
            if t < 10:
                assert abs(step.s_t - t * 0.5 / 10) <= 1e-12
                assert abs(step.p_t - (1 - t / 10)) <= 1e-12
            else:
                assert step.s_t == 0.5 and step.p_t == 0.0

    def test_endpoints(self):
        plan = plan_ps()
        s0 = schedule_at(plan, 0)
        assert (s0.s_t, s0.p_t) == (0.0, 1.0)
        sN = schedule_at(plan, 10)
        assert (sN.s_t, sN.p_t) == (0.5, 0.0)

    def test_midpoint(self):
        step = schedule_at(plan_ps(), 5)
        assert step.s_t == pytest.approx(0.25, abs=1e-15)
        assert step.p_t == pytest.approx(0.5, abs=1e-15)

    def test_monotonicity(self):
        for mode in ("progressive-soft", "iterative", "iterative+soft",
                     "iterative+progressive"):
            plan = plan_ps(mode=mode)
            steps = [schedule_at(plan, t) for t in range(13)]
            s = [x.s_t for x in steps]
            p = [x.p_t for x in steps]
            assert all(a <= b + 1e-15 for a, b in zip(s, s[1:]))
            assert all(a >= b - 1e-15 for a, b in zip(p, p[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_at(plan_ps(), 13)
        with pytest.raises(ValueError):
            schedule_at(plan_ps(), -1)

    def test_ablation_modes(self):
        it = plan_ps(mode="iterative")
        assert schedule_at(it, 1) == schedule_at(it, 1).__class__(1, 0.5, 0.0)
        soft = plan_ps(mode="iterative+soft")
        step = schedule_at(soft, 5)
        assert step.s_t == 0.5 and step.p_t == 0.5
        prog = plan_ps(mode="iterative+progressive")
        step = schedule_at(prog, 5)
        assert step.s_t == 0.25 and step.p_t == 0.0
        one = PrunePlan(s=0.5, total_steps=100, m_iters=0, n_iters=0,
                        interval=5, mode="one-shot")
        step = schedule_at(one, 0)
        assert step.s_t == 0.5 and step.p_t == 0.0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            PrunePlan(s=1.0, total_steps=10, m_iters=1, n_iters=1)
        with pytest.raises(ValueError):
            PrunePlan(s=0.5, total_steps=10, m_iters=2, n_iters=3, interval=1)
        with pytest.raises(ValueError):
            PrunePlan(s=0.5, total_steps=10, m_iters=20, n_iters=2, interval=1)
        with pytest.raises(ValueError):
            PrunePlan(s=0.5, total_steps=10, m_iters=1, n_iters=1,
                      mode="one-shot")


def scores_vec(values):
    return ImportanceScores(
        criterion="magnitude",
        per_param={"w": np.asarray(values, dtype=np.float64)},
    )


class TestEnergyFlow:
    def test_d4_example(self):
        val = energy_flow(scores_vec([4.0, 16.0, 1.0, 9.0]), 0.5, 0.5)
        assert val == pytest.approx(np.sqrt(2.5), abs=1e-12)

    def test_p_zero_gives_sqrt_d(self):
        val = energy_flow(scores_vec([3.0, -1.0, 2.0, 0.5]), 0.5, 0.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_s_zero_gives_sqrt_d(self):
        val = energy_flow(scores_vec([3.0, -1.0, 2.0, 0.5]), 0.0, 0.9)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_randomized(self):
        rng = make_rng(0, "ef")
        for _ in range(100):
            d = int(rng.integers(2, 50))
            scores = rng.normal(size=d)
            if np.all(scores == 0):
                continue
            s_t = float(rng.uniform(0, 1))
            p_t = float(rng.uniform(0, 1))
            pruned = int(np.floor(s_t * d))
            kept = d - pruned
            want = np.sqrt(kept + pruned * (1 - p_t) ** 2)
            got = energy_flow(scores_vec(scores), s_t, p_t)
            assert got == pytest.approx(want, abs=1e-12)

    def test_all_zero_scores_rejected(self):
        with pytest.raises(ValueError):
            energy_flow(scores_vec([0.0, 0.0]), 0.5, 0.5)

    def test_matches_realized_mask(self):
        rng = make_rng(1, "efm")
        from flowprune.masking import MaskedParam

        par = MaskedParam("w", rng.normal(size=(4, 5)), np.ones((4, 5)))
        scores = {"w": rng.normal(size=(4, 5))}
        s_t, p_t = 0.3, 0.4
        state = apply_mask_update([par], scores, s_t, p_t)
        kept = par.mask.size - state.pruned_units
        want = np.sqrt(kept + state.pruned_units * (1 - p_t) ** 2)
        got = energy_flow(
            ImportanceScores(criterion="magnitude", per_param=scores), s_t, p_t
        )
        assert got == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def small_setup():
    data = generate(DatasetSpec("ring-mixture", 512, seed=0))
    sched = make_schedule(50, 1e-3, 0.05)
    return data, sched


def small_model(seed=0):
    return NoisePredictor(dim=2, hidden=12, depth=2, temb_dim=8, seed=seed)


class TestDriver:
    def test_progressive_soft_loop(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=60, m_iters=6, n_iters=4,
                         interval=5, criterion="magnitude",
                         score_batch_size=32)
        diags, state = run_progressive_soft(model, sched, data, plan, seed=0)
        assert len(diags.records) == 6
        assert all(r.delta_e >= 0 for r in diags.records)
        s_vals = [r.s_t for r in diags.records]
        p_vals = [r.p_t for r in diags.records]
        assert s_vals == sorted(s_vals)
        assert p_vals == sorted(p_vals, reverse=True)
        # final iteration is past n_iters: hard masks at target sparsity
        assert state.p_current == 0.0
        assert abs(soft_sparsity(model.masked_params(), 0.0) - 0.5) < 1e-2

    def test_churn_is_symmetric_difference_of_kept_sets(self, small_setup,
                                                         monkeypatch):
        data, sched = small_setup
        kept_sets, pruned = [], []

        def recording_update(*args, **kwargs):
            state = apply_mask_update(*args, **kwargs)
            kept_sets.append({(n, int(i)) for n, k in state.kept.items()
                              for i in np.flatnonzero(k)})
            pruned.append(state.pruned_units)
            return state

        monkeypatch.setattr(scheduler, "apply_mask_update", recording_update)
        plan = PrunePlan(s=0.5, total_steps=40, m_iters=4, n_iters=3,
                         interval=5, criterion="magnitude",
                         score_batch_size=32)
        diags, _ = run_progressive_soft(small_model(), sched, data, plan,
                                        seed=0)
        churn = [r.churn for r in diags.records]
        assert churn[0] == pruned[0]
        want = [len(a ^ b) for a, b in zip(kept_sets, kept_sets[1:])]
        assert churn[1:] == want
        assert any(want)

    def test_weight_recoverability(self, small_setup):
        # a soft-pruned unit whose score recovers is restored to mask 1
        data, sched = small_setup
        model = small_model()
        pars = model.masked_params()
        scores1 = {p.name: np.abs(make_rng(2, p.name).normal(
            size=p.weights.shape)) for p in pars}
        apply_mask_update(pars, scores1, 0.4, 0.5)
        weak = next(
            (p.name, i)
            for p in pars
            for i in np.flatnonzero(p.mask.ravel() != 1.0)[:1]
        )
        scores2 = {k: v.copy() for k, v in scores1.items()}
        arr = scores2[weak[0]].ravel()
        arr[weak[1]] = 1e9
        apply_mask_update(pars, scores2, 0.4, 0.3)
        par = next(p for p in pars if p.name == weak[0])
        assert par.mask.ravel()[weak[1]] == 1.0

    def test_final_hard_prune_row_group(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=10, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        state, diag = final_hard_prune(model, sched, data, plan, seed=0)
        assert soft_sparsity(
            [p for p in model.masked_params()
             if p.name not in model.output_weight_names], 0.0
        ) == pytest.approx(0.5, abs=0.1)
        # row purity
        for p in model.masked_params():
            if p.name in model.output_weight_names:
                np.testing.assert_array_equal(p.mask, 1.0)
                continue
            for row in p.mask:
                assert len(np.unique(row)) == 1
        assert 0.0 <= diag["kept_overlap_with_prior_mask"] <= 1.0

    def test_finetune_freezes_pruned_units(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=30, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        final_hard_prune(model, sched, data, plan, seed=0)
        pruned_before = {
            p.name: p.weights[np.abs(p.mask) < 0.5].copy()
            for p in model.masked_params()
        }
        masks_before = {p.name: p.mask.copy() for p in model.masked_params()}
        finetune(model, sched, data, plan, seed=0, steps=30)
        for p in model.masked_params():
            np.testing.assert_array_equal(p.mask, masks_before[p.name])
            after = p.weights[np.abs(p.mask) < 0.5]
            assert after.tobytes() == pruned_before[p.name].tobytes()

    def test_hard_masked_forward_ignores_pruned(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=10, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        final_hard_prune(model, sched, data, plan, seed=0)
        rng = make_rng(3, "fwd")
        x = rng.normal(size=(5, 2))
        t = rng.integers(0, 50, 5)
        out1 = model.predict(x, t)
        for p in model.masked_params():
            p.weights[np.abs(p.mask) < 0.5] = 123.456
        out2 = model.predict(x, t)
        np.testing.assert_array_equal(out1, out2)
