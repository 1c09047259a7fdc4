"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 1-6, 10 and 11 are deterministic oracles and run in seconds.
Criteria 7-9 (the Table 1, Table 2 and Fig 2 comparisons on a shared
experiment grid) are pending: no test for them exists yet (ROADMAP
direction 1).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from flowprune import engine
from flowprune.checkpoint import load_checkpoint, save_checkpoint
from flowprune.config import RunConfig
from flowprune.criteria import (
    gradient_flow_delta_from_record,
    gradient_flow_scores_from_record,
    score_batches,
)
from flowprune.datasets import generate
from flowprune.diffusion import (
    Adam,
    NoisePredictor,
    loss,
    make_schedule,
    train,
)
from flowprune.masking import apply_mask_update, soft_sparsity
from flowprune.metrics import efficiency
from flowprune.pipeline import (
    Arm,
    model_tensors,
    restore_model,
    run_grid,
)
from flowprune.scheduler import (
    PrunePlan,
    energy_flow,
    final_hard_prune,
    schedule_at,
)
from flowprune.seeding import make_rng


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"\n[acceptance {criterion}] {tag} {detail}")
    assert passed, f"acceptance {criterion}: {detail}"


def tiny_trained_denoiser(seed=0, steps=300):
    """<= 20-parameter denoiser trained enough to have structure."""
    model = NoisePredictor(dim=1, hidden=3, depth=1, temb_dim=2, seed=seed)
    sched = make_schedule(20, 0.01, 0.05)
    data = generate(512, 1)[:, :1]
    opt = Adam(model.params, 1e-3)
    train(model, sched, data, steps=steps, opt=opt, seed=seed, stage="tiny",
          batch_size=32)
    n_params = sum(p.size for p in model.params.values())
    assert n_params <= 20
    return model, sched, data


class TestAcceptance1HVPOracle:
    def test_hvp_against_fd_and_explicit_hessian(self):
        t_start = time.time()
        model, sched, data = tiny_trained_denoiser()
        batch = score_batches(sched, data, seed=3, n_batches=1,
                              batch_size=64)[0]
        ctx = loss(model.float64(), sched, batch)
        names = sorted(model.params)
        g = engine.gradient(ctx.record, ctx.inputs, names)
        # H g as scoring computes it: one replay, without v
        hg = engine.hessian_vector_product(ctx.record, ctx.inputs, names)
        hg_fd = engine.hessian_vector_product(ctx.record, ctx.inputs, names, g,
                                              method="fd")

        # explicit Hessian, column by column via gradient central differences
        sizes = [(n, model.params[n].size) for n in names]
        total = sum(s for _, s in sizes)

        def flat_grad(feed):
            gg = engine.gradient(ctx.record, feed, names)
            return np.concatenate([gg[n].ravel() for n in names])

        h = np.zeros((total, total))
        step = 1e-5
        col = 0
        for name, size in sizes:
            base = ctx.inputs[name]
            for i in range(size):
                plus = dict(ctx.inputs)
                minus = dict(ctx.inputs)
                dp = base.copy().ravel()
                dp[i] += step
                plus[name] = dp.reshape(base.shape)
                dm = base.copy().ravel()
                dm[i] -= step
                minus[name] = dm.reshape(base.shape)
                h[:, col] = (flat_grad(plus) - flat_grad(minus)) / (2 * step)
                col += 1
        g_flat = np.concatenate([g[n].ravel() for n in names])
        hg_explicit = h @ g_flat
        hg_flat = np.concatenate([hg[n].ravel() for n in names])
        hg_fd_flat = np.concatenate([hg_fd[n].ravel() for n in names])

        denom = max(np.max(np.abs(hg_flat)), 1e-12)
        err_fd = np.max(np.abs(hg_flat - hg_fd_flat)) / denom
        err_explicit = np.max(np.abs(hg_flat - hg_explicit)) / denom
        elapsed = time.time() - t_start
        report(
            "1 (HVP oracle)",
            err_fd < 1e-3 and err_explicit < 1e-3 and elapsed < 10.0,
            f"rel err fd={err_fd:.2e} explicit={err_explicit:.2e} "
            f"runtime={elapsed:.1f}s",
        )


class TestAcceptance2GradientFlowDelta:
    def test_difference_quotient_ten_settings(self):
        sched = make_schedule(20, 0.01, 0.05)
        data = generate(512, 1)[:, :1]
        worst = 0.0
        for k in range(10):
            model = NoisePredictor(dim=1, hidden=3, depth=1, temb_dim=2,
                                   seed=100 + k)
            rng = make_rng(55, "setting", k)
            for p in model.params.values():
                p[:] = rng.normal(size=p.shape) * 0.6
            batch = score_batches(sched, data, seed=7 + k, n_batches=1,
                                  batch_size=32)[0]
            ctx = loss(model.float64(), sched, batch)
            names = sorted(model.params)
            grads = engine.gradient(ctx.record, ctx.inputs, names)
            delta = gradient_flow_delta_from_record(ctx.record, ctx.inputs,
                                                    names)
            eps = 1e-5
            moved = dict(ctx.inputs)
            for n in names:
                moved[n] = ctx.inputs[n] + eps * grads[n]
            quotient = (float(engine.forward(ctx.record, moved)) - ctx.value) / eps
            worst = max(worst, abs(quotient - delta) / max(abs(delta), 1e-12))
        report("2 (Eq-5 oracle)", worst < 1e-4, f"worst rel err {worst:.2e}")


class TestAcceptance3SignTest:
    def test_brute_force_removal_direction(self):
        model, sched, data = tiny_trained_denoiser(seed=2, steps=400)
        batch = score_batches(sched, data, seed=9, n_batches=1,
                              batch_size=128)[0]
        ctx = loss(model.float64(), sched, batch)
        names = sorted(model.params)
        scores = gradient_flow_scores_from_record(ctx.record, ctx.inputs,
                                                  names)
        flat = np.concatenate([scores[n].ravel() for n in names])
        delta_before = gradient_flow_delta_from_record(ctx.record, ctx.inputs,
                                                       names)
        order = np.argsort(flat)
        checked = 0
        violations = []
        for idx in order[:5]:
            score = flat[idx]
            if abs(score) <= 1e-6:
                continue
            checked += 1
            feed = dict(ctx.inputs)
            pos = idx
            for n in names:
                size = feed[n].size
                if pos < size:
                    removed = feed[n].copy().ravel()
                    removed[pos] = 0.0
                    feed[n] = removed.reshape(feed[n].shape)
                    break
                pos -= size
            delta_after = gradient_flow_delta_from_record(ctx.record, feed,
                                                          names)
            change = delta_after - delta_before
            # first order: removal shifts ||grad L||^2 by about -2 I
            if np.sign(change) != -np.sign(score):
                violations.append((int(idx), float(score), float(change)))
        report(
            "3 (Eq-6 sign test)",
            checked > 0 and not violations,
            f"checked={checked} violations={violations}",
        )


class TestAcceptance4ScheduleExactness:
    def test_trajectory(self):
        plan = PrunePlan(s=0.5, total_steps=120, m_iters=12, n_iters=10,
                         interval=5)
        worst = 0.0
        for t in range(13):
            step = schedule_at(plan, t)
            if t < 10:
                want = (t * 0.5 / 10, 1.0 - t / 10)
            else:
                want = (0.5, 0.0)
            worst = max(worst, abs(step.s_t - want[0]), abs(step.p_t - want[1]))
        endpoints = (schedule_at(plan, 0), schedule_at(plan, 10))
        ok = (
            worst <= 1e-12
            and (endpoints[0].s_t, endpoints[0].p_t) == (0.0, 1.0)
            and (endpoints[1].s_t, endpoints[1].p_t) == (0.5, 0.0)
        )
        report("4 (schedule exactness)", ok, f"max deviation {worst:.2e}")


class TestAcceptance5MaskAlgebra:
    def test_closure_and_identity(self):
        rng = make_rng(0, "acc5")
        rng.normal(size=(3, 9, 11))  # unused weights; fixes the draws below
        masks = {f"p{i}": np.ones((9, 11)) for i in range(3)}
        total = sum(m.size for m in masks.values())
        scores = {n: rng.normal(size=m.shape) for n, m in masks.items()}
        plan = PrunePlan(s=0.5, total_steps=120, m_iters=12, n_iters=10,
                         interval=5)
        worst = 0.0
        # every non-degenerate schedule point (p_t < 1), plus random updates
        cases = [
            (schedule_at(plan, t).s_t, schedule_at(plan, t).p_t)
            for t in range(1, 13)
        ]
        cases += [
            (float(rng.uniform(0, 1)), float(rng.uniform(0, 0.999)))
            for _ in range(20)
        ]
        for s_t, p_t in cases:
            apply_mask_update(masks, scores, s_t, p_t)
            got = soft_sparsity(masks, p_t)
            worst = max(worst, abs(got - s_t) - 1.0 / total)

        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        x = rng.normal(size=(5, 2))
        t_arr = rng.integers(0, 40, 5)
        sched = make_schedule(40, 0.01, 0.05)
        dense_out = model.predict(x, t_arr, model.float64().param_inputs())
        mscores = {
            n: make_rng(1, n).normal(size=m.shape) for n, m in model.masks.items()
        }
        apply_mask_update(model.masks, mscores, 0.0, 1.0)
        identity_out = model.predict(x, t_arr,
                                     model.float64().param_inputs())
        bit_identical = dense_out.tobytes() == identity_out.tobytes()
        report(
            "5 (mask algebra)",
            worst <= 1e-12 and bit_identical,
            f"worst closure excess {worst:.2e}, s=0 bit-identical: "
            f"{bit_identical}",
        )


class TestAcceptance6EnergyClosedForm:
    def test_randomized_and_d4(self):
        rng = make_rng(0, "acc6")
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 64))
            vec = rng.normal(size=d)
            s_t = float(rng.uniform(0, 1))
            p_t = float(rng.uniform(0, 1))
            state = apply_mask_update({"w": np.ones(d)}, {"w": vec}, s_t, p_t)
            pruned = int(np.floor(s_t * d))
            want = np.sqrt((d - pruned) + pruned * (1.0 - p_t) ** 2)
            worst = max(worst, abs(energy_flow(state) - want))
        d4 = energy_flow(apply_mask_update(
            {"w": np.ones(4)}, {"w": np.array([4.0, 16.0, 1.0, 9.0])}, 0.5, 0.5,
        ))
        ok = worst <= 1e-12 and abs(d4 - np.sqrt(2.5)) <= 1e-12
        report("6 (Eq-8 closed form)", ok,
               f"worst abs err {worst:.2e}, d4={d4:.6f}")


class TestAcceptance10Efficiency:
    def test_row_group_half(self):
        model = NoisePredictor(dim=2, seed=0)
        sched = make_schedule(100, 1e-3, 0.05)
        data = generate(2048, 0)
        plan = PrunePlan(s=0.5, total_steps=10, m_iters=0, n_iters=0,
                         interval=1, mode="one-shot", score_batch_size=64,
                         score_n_batches=1)
        final_hard_prune(model, sched, plan,
                         score_batches(sched, data, 0, n_batches=1,
                                       batch_size=64))
        got = efficiency(model)
        # the compact network from the kept-row sets: a layer-0 unit lives
        # if its layer0.w or its temb.w row is kept, and layer k+1 reads
        # only the units layer k keeps
        kept = {n: (m != 0).any(axis=1) for n, m in model.masks.items()}
        units = [int((kept["layer0.w"] | kept["temb.w"]).sum())]
        units += [int(kept[f"layer{k}.w"].sum()) for k in range(1, 4)]
        hidden = sum(a * b for a, b in zip(units, units[1:])) + 2 * units[-1]
        macs = units[0] * (2 + 64) + hidden
        nonzero = (2 * int(kept["layer0.w"].sum())
                   + 64 * int(kept["temb.w"].sum()) + hidden)
        nonzero += 2 * units[0] + sum(units[1:]) + 2  # biases
        dense_macs = 2 * 128 + 64 * 128 + 3 * 128 * 128 + 128 * 2
        want = {"nonzero_params": nonzero,
                "dense_params": dense_macs + 5 * 128 + 2,
                "macs_dense": dense_macs, "macs_sparse": macs}
        ok = got == want
        report(
            "10 (efficiency accounting)", ok,
            f"params {got['nonzero_params']}/{got['dense_params']}="
            f"{got['nonzero_params'] / got['dense_params']:.3f}, "
            f"macs {got['macs_sparse']}/{got['macs_dense']}="
            f"{got['macs_sparse'] / got['macs_dense']:.3f}, layer widths "
            f"{units}; independent count {want}",
        )


class TestAcceptance11Determinism:
    def test_identical_configs_reproduce_and_resume(self, tmp_path):
        cfg = RunConfig(
            dataset_size=512, model_hidden=12, model_depth=2, model_temb_dim=8,
            diffusion_t=50, diffusion_beta_start=1e-3,
            diffusion_beta_end=0.05, train_batch=32, pretrain_steps=80,
            plan_s=0.5, plan_total_steps=60, plan_m_iters=4, plan_n_iters=2,
            plan_interval=5, plan_criterion="gradient-flow",
            plan_score_batches=1, plan_score_batch_size=16, eval_samples=64,
            eval_substeps=10, seeds=[0, 1], out_dir=str(tmp_path),
        )
        reports = []
        for rep_dir in ("a", "b"):
            out = run_grid(
                cfg, [Arm("det", "gf", "gradient-flow", "progressive-soft")],
                tmp_path / rep_dir,
            )
            reports.append(
                [
                    {k: row[k] for k in ("method", "seed", "frechet", "ssim",
                                         "nonzero_params", "macs_sparse")}
                    for row in out["rows"]
                ]
            )
        identical = reports[0] == reports[1]

        # checkpoint save -> load -> three more steps reproduce the loss,
        # parameter and Adam moment bits; the first loss comes before the
        # restored Adam state acts
        data = generate(512, 0)
        sched = make_schedule(50, 1e-3, 0.05)
        model = NoisePredictor(dim=2, hidden=12, depth=2, temb_dim=8, seed=0)
        opt = Adam(model.params, 2e-4)
        train(model, sched, data, steps=9, opt=opt, seed=4, stage="acc11",
              batch_size=32)
        ck = tmp_path / "resume.ckpt"
        save_checkpoint(ck, model_tensors(model, opt), {"step": 9})
        ref = train(model, sched, data, steps=3, opt=opt, seed=4,
                    stage="acc11", start_step=9, batch_size=32, log_interval=1)
        model2 = NoisePredictor(dim=2, hidden=12, depth=2, temb_dim=8, seed=0)
        opt2 = Adam(model2.params, 2e-4)
        tensors, _ = load_checkpoint(ck)
        restore_model(model2, tensors)
        opt2.load_state(tensors)
        got = train(model2, sched, data, steps=3, opt=opt2, seed=4,
                    stage="acc11", start_step=9, batch_size=32, log_interval=1)

        def losses(trace):
            return [np.float64(loss).tobytes() for _, loss in trace]

        def state(m, o):
            return [a.tobytes() for d in (m.params, o.m, o.v)
                    for a in d.values()]

        resume_ok = (len(got) == 3 and losses(ref) == losses(got)
                     and state(model, opt) == state(model2, opt2))
        report(
            "11 (determinism & persistence)",
            identical and resume_ok,
            f"report replicas identical: {identical}, "
            f"resume losses and state bit-identical: {resume_ok}",
        )
