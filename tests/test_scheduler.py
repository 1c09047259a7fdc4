import copy
import functools

import numpy as np
import pytest

from flowprune.criteria import score_batches
from flowprune.datasets import generate
from flowprune.diffusion import (
    Adam,
    NoisePredictor,
    draw_batch,
    loss,
    loss_and_grads,
    make_schedule,
)
from flowprune import diffusion, scheduler
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
        assert schedule_at(it, 1) == schedule_at(it, 1).__class__(0.5, 0.0)
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

    @pytest.mark.parametrize("field, value", [
        ("granularity", "column-group"),
        ("criterion", "bogus"),
        ("mode", "bogus"),
    ])
    def test_plan_rejects_unknown_names(self, field, value):
        with pytest.raises(ValueError, match=field):
            PrunePlan(s=0.5, total_steps=10, m_iters=1, n_iters=1,
                      **{field: value})

    @pytest.mark.parametrize("field", ["interval", "score_n_batches",
                                       "score_batch_size", "train_batch"])
    def test_plan_rejects_sizes_below_one(self, field):
        with pytest.raises(ValueError, match=field):
            PrunePlan(s=0.5, total_steps=10, m_iters=1, n_iters=1,
                      **{field: 0})


def element_update(values, s_t, p_t):
    """The state of an element mask update over one score vector."""
    vec = np.asarray(values, dtype=np.float64)
    return apply_mask_update({"w": np.ones(vec.shape)}, {"w": vec}, s_t, p_t)


class TestEnergyFlow:
    def test_d4_example(self):
        val = energy_flow(element_update([4.0, 16.0, 1.0, 9.0], 0.5, 0.5))
        assert val == pytest.approx(np.sqrt(2.5), abs=1e-12)

    def test_p_zero_gives_sqrt_d(self):
        val = energy_flow(element_update([3.0, -1.0, 2.0, 0.5], 0.5, 0.0))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_s_zero_gives_sqrt_d(self):
        val = energy_flow(element_update([3.0, -1.0, 2.0, 0.5], 0.0, 0.9))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_randomized(self):
        rng = make_rng(0, "ef")
        for _ in range(100):
            d = int(rng.integers(2, 50))
            scores = rng.normal(size=d)
            s_t = float(rng.uniform(0, 1))
            p_t = float(rng.uniform(0, 1))
            pruned = int(np.floor(s_t * d))
            kept = d - pruned
            want = np.sqrt(kept + pruned * (1 - p_t) ** 2)
            got = energy_flow(element_update(scores, s_t, p_t))
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_realized_mask(self):
        # row groups: the units are the rows of the ranked parameters, the
        # excluded one left out
        rng = make_rng(1, "efm")
        masks = {"a": np.ones((4, 5)), "b": np.ones((6, 3)),
                 "out": np.ones((2, 4))}
        scores = {n: rng.normal(size=m.shape) for n, m in masks.items()}
        s_t, p_t = 0.3, 0.4
        state = apply_mask_update(masks, scores, s_t, p_t,
                                  granularity="row-group", exclude=("out",))
        pruned = sum(int(np.all(masks[n] == p_t, axis=1).sum())
                     for n in ("a", "b"))
        assert pruned == 2
        want = np.sqrt((10 - pruned) + pruned * (1 - p_t) ** 2)
        assert energy_flow(state) == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def small_setup():
    data = generate(512, 0)
    sched = make_schedule(50, 1e-3, 0.05)
    return data, sched


def small_model(seed=0):
    return NoisePredictor(dim=2, hidden=12, depth=2, temb_dim=8, seed=seed)


def score_inputs(sched, data, plan):
    """The score set and the diagnostic batch ``prune_run`` draws for seed
    0, from streams 0 and 1."""
    batches = score_batches(sched, data, 0, plan.score_n_batches,
                            plan.score_batch_size)
    diag_batch, = score_batches(sched, data, 1, 1, plan.score_batch_size)
    return {"batches": batches, "diag_batch": diag_batch}


class TestDriver:
    def test_progressive_soft_loop(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=60, m_iters=6, n_iters=4,
                         interval=5, criterion="magnitude",
                         score_batch_size=32)
        rows, state = run_progressive_soft(
            model, sched, data, plan, seed=0, lr=2e-4,
            **score_inputs(sched, data, plan))
        assert len(rows) == 6
        assert all(r["delta_e"] >= 0 for r in rows)
        s_vals = [r["s_t"] for r in rows]
        p_vals = [r["p_t"] for r in rows]
        assert s_vals == sorted(s_vals)
        assert p_vals == sorted(p_vals, reverse=True)
        # final iteration is past n_iters: hard masks at target sparsity
        assert state.p_current == 0.0
        assert abs(soft_sparsity(model.masks, 0.0) - 0.5) < 1e-2

    def test_row_group_delta_e_counts_ranked_rows(self, small_setup):
        # delta_e is the closed form over the rows each update ranks:
        # floor(s_t * rows) per weight, the output projection excluded
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=40, m_iters=4, n_iters=3,
                         interval=5, criterion="magnitude",
                         granularity="row-group", score_batch_size=32)
        rows, _ = run_progressive_soft(model, sched, data, plan, seed=0,
                                       lr=2e-4,
                                       **score_inputs(sched, data, plan))
        ranked = [model.params[n].shape[0] for n in model.masks
                  if n not in model.output_weights]
        assert len(ranked) == 3
        for row in rows:
            pruned = sum(int(np.floor(row["s_t"] * r)) for r in ranked)
            want = np.sqrt((sum(ranked) - pruned)
                           + pruned * (1.0 - row["p_t"]) ** 2)
            assert row["delta_e"] == pytest.approx(want, abs=1e-12)
        # some update soft-prunes, so the (1 - p_t) term counts
        assert any(r["s_t"] > 0 and 0 < r["p_t"] < 1 for r in rows)

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
        rows, _ = run_progressive_soft(small_model(), sched, data, plan,
                                       seed=0, lr=2e-4,
                                       **score_inputs(sched, data, plan))
        churn = [r["churn"] for r in rows]
        assert churn[0] == pruned[0]
        want = [len(a ^ b) for a, b in zip(kept_sets, kept_sets[1:])]
        assert churn[1:] == want
        assert any(want)

    def test_weight_recoverability(self, small_setup):
        # a soft-pruned unit whose score recovers is restored to mask 1
        data, sched = small_setup
        model = small_model()
        masks = model.masks
        scores1 = {n: np.abs(make_rng(2, n).normal(size=m.shape))
                   for n, m in masks.items()}
        apply_mask_update(masks, scores1, 0.4, 0.5)
        weak = next(
            (n, i)
            for n, m in masks.items()
            for i in np.flatnonzero(m.ravel() != 1.0)[:1]
        )
        scores2 = {k: v.copy() for k, v in scores1.items()}
        arr = scores2[weak[0]].ravel()
        arr[weak[1]] = 1e9
        apply_mask_update(masks, scores2, 0.4, 0.3)
        assert masks[weak[0]].ravel()[weak[1]] == 1.0

    def test_final_hard_prune_row_group(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=10, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        batches = score_inputs(sched, data, plan)["batches"]
        state, diag = final_hard_prune(model, sched, plan, batches)
        assert soft_sparsity(
            {n: m for n, m in model.masks.items()
             if n not in model.output_weights}, 0.0
        ) == pytest.approx(0.5, abs=0.1)
        # row purity
        for n, m in model.masks.items():
            if n in model.output_weights:
                np.testing.assert_array_equal(m, 1.0)
                continue
            for row in m:
                assert len(np.unique(row)) == 1
        assert 0.0 <= diag["kept_overlap_with_prior_mask"] <= 1.0

    def test_finetune_freezes_pruned_units(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=30, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        batches = score_inputs(sched, data, plan)["batches"]
        final_hard_prune(model, sched, plan, batches)
        pruned_before = {
            n: model.params[n][np.abs(m) < 0.5].copy()
            for n, m in model.masks.items()
        }
        masks_before = {n: m.copy() for n, m in model.masks.items()}
        finetune(model, sched, data, plan, seed=0, lr=2e-4)
        for n, m in model.masks.items():
            np.testing.assert_array_equal(m, masks_before[n])
            after = model.params[n][np.abs(m) < 0.5]
            assert after.tobytes() == pruned_before[n].tobytes()

    def test_hard_masked_forward_ignores_pruned(self, small_setup):
        data, sched = small_setup
        model = small_model()
        plan = PrunePlan(s=0.5, total_steps=10, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=32)
        batches = score_inputs(sched, data, plan)["batches"]
        final_hard_prune(model, sched, plan, batches)
        rng = make_rng(3, "fwd")
        x = rng.normal(size=(5, 2))
        t = rng.integers(0, 50, 5)
        out1 = model.predict(x, t, model.float64().param_inputs())
        for n, m in model.masks.items():
            model.params[n][np.abs(m) < 0.5] = 123.456
        out2 = model.predict(x, t, model.float64().param_inputs())
        np.testing.assert_array_equal(out1, out2)


def pruned_for_finetune(s, seed=0):
    """A hard-pruned model with random biases: per-layer row groups at
    sparsity ``s`` on every weight but the output projection, with one
    layer-0 unit kept only by its temb.w row; float64, so both sides of
    the oracle train in float64."""
    model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8,
                           seed=seed).float64()
    rng = make_rng(seed, "ft-oracle")
    for name in model.bias_names:
        model.params[name][...] = rng.normal(scale=0.5,
                                             size=model.params[name].shape)
    scores = {n: rng.uniform(size=model.params[n].shape)
              for n in model.masks}
    apply_mask_update(model.masks, scores, s, 0.0, granularity="row-group",
                      exclude=model.output_weights)
    temb_kept = np.flatnonzero(model.masks["temb.w"][:, 0] == 1.0)
    model.masks["layer0.w"][temb_kept[0]] = 0.0
    return model


def dead_units(model):
    """Per layer tag, the units whose output is a constant (test-local)."""
    eff = {n: model.params[n] * m for n, m in model.masks.items()}
    dead = {"layer0": ~eff["layer0.w"].any(axis=1) & ~eff["temb.w"].any(axis=1)}
    for k in range(1, model.depth):
        dead[f"layer{k}"] = ~eff[f"layer{k}.w"].any(axis=1)
    return dead


def masked_dense_finetune(model, sched, data, plan, seed, steps):
    """Masked training of the full network in which the dead units' biases
    and the columns reading them are frozen; one loss per step."""
    dead = dead_units(model)
    nxt = {f"layer{k}": f"layer{k + 1}.w" for k in range(model.depth - 1)}
    nxt[f"layer{model.depth - 1}"] = "out.w"
    opt = Adam(model.params, 2e-4)
    losses = []
    for k in range(steps):
        batch = draw_batch(data, sched, plan.train_batch,
                           make_rng(seed, "finetune", k))
        value, grads = loss_and_grads(model, sched, batch)
        for tag, d in dead.items():
            grads[f"{tag}.b"][d] = 0.0
            grads[nxt[tag]][:, d] = 0.0
        grads["temb.b"][dead["layer0"]] = 0.0
        opt.step(grads)
        losses.append(value)
    return losses


def frozen_entries(model):
    """The hard-prune values the compact finetune must not move."""
    dead = dead_units(model)
    out = {n: model.params[n][m == 0] for n, m in model.masks.items()}
    out["temb.b"] = model.params["temb.b"][dead["layer0"]]
    for k, (tag, d) in enumerate(dead.items()):
        out[f"{tag}.b"] = model.params[f"{tag}.b"][d]
        read = f"layer{k + 1}.w" if k + 1 < model.depth else "out.w"
        out[f"{read}[:, dead]"] = model.params[read][:, d]
    return {n: a.copy() for n, a in out.items()}


FT_PLAN = dict(total_steps=25, m_iters=0, n_iters=0, interval=1,
               mode="one-shot", train_batch=32)


class TestCompactFinetune:
    """Finetune trains ``model.compact()`` and writes it back; the oracle is
    masked training of the full network with the dead units' biases and
    the columns reading them frozen. Losses agree to 1e-12 relative and
    weights to 1e-12 absolute (the summation order differs). ``activation``
    is the network's one activation, named in the test ids."""

    @pytest.mark.parametrize("activation", ["silu"])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_masked_dense_reference(self, small_setup, monkeypatch,
                                            s, activation):
        data, sched = small_setup
        model = pruned_for_finetune(s)
        plan = PrunePlan(s=s, **FT_PLAN)
        assert model.compact() is not model
        layer0_only_temb = ((model.masks["layer0.w"] == 0).all(axis=1)
                            & (model.masks["temb.w"] == 1).all(axis=1))
        assert layer0_only_temb.any()
        ref = copy.deepcopy(model)
        frozen = frozen_entries(model)
        monkeypatch.setattr(scheduler, "train",
                            functools.partial(diffusion.train, log_interval=1))
        trace = finetune(model, sched, data, plan, seed=3, lr=2e-4)
        want = masked_dense_finetune(ref, sched, data, plan, seed=3,
                                     steps=plan.finetune_steps)
        assert [k for k, _ in trace] == list(range(plan.finetune_steps))
        np.testing.assert_allclose([v for _, v in trace], want, rtol=1e-12,
                                   atol=0)
        for name, arr in ref.params.items():
            np.testing.assert_allclose(model.params[name], arr, rtol=0,
                                       atol=1e-12, err_msg=name)
        for name, arr in frozen_entries(model).items():
            assert arr.tobytes() == frozen[name].tobytes(), name

    @pytest.mark.parametrize("activation", ["silu"])
    def test_zero_steps_write_back_every_bit(self, small_setup, activation):
        data, sched = small_setup
        model = pruned_for_finetune(0.5, seed=1)
        before = {n: a.copy() for n, a in model.params.items()}
        finetune(model, sched, data,
                 PrunePlan(s=0.5, **dict(FT_PLAN, total_steps=0)), seed=0,
                 lr=2e-4)
        for name, arr in before.items():
            assert model.params[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("activation", ["silu"])
    def test_element_masks_train_as_before(self, small_setup, activation):
        # nothing compacts, so finetune is masked training of the model
        # itself, bit for bit
        data, sched = small_setup
        model = NoisePredictor(dim=2, hidden=16, depth=3, temb_dim=8, seed=2)
        rng = make_rng(2, "ft-element")
        apply_mask_update(model.masks,
                          {n: rng.uniform(size=model.params[n].shape)
                           for n in model.masks}, 0.5, 0.0)
        assert model.compact() is model
        ref = copy.deepcopy(model)
        plan = PrunePlan(s=0.5, **FT_PLAN)
        got = finetune(model, sched, data, plan, seed=5, lr=2e-4)
        opt = Adam(ref.params, 2e-4)
        want = diffusion.train(ref, sched, data, steps=plan.finetune_steps,
                               opt=opt, seed=5, stage="finetune",
                               batch_size=plan.train_batch)
        assert got == want
        for name, arr in ref.params.items():
            assert model.params[name].tobytes() == arr.tobytes(), name
