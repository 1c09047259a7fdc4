"""Projected wall time of ``flowprune table1`` plus ``flowprune table2``.

A projection from measured per-layer rates, not a measurement and not a
gated metric. It walks the experiment grid exactly as ``run_experiment``
would at the default ``RunConfig`` (every seed, every arm of both tables,
including arms whose plans coincide) and prices each step with the traced
runs' medians:

- a training step at batch 128: train-dense ``diffusion.train`` busy time per
  step;
- a DDIM point-step: sample-eval ``diffusion.sample_ddim`` busy time per
  point per substep;
- scoring, mask update, the per-iteration diagnostics and checkpoint IO:
  prune-gradflow medians. Magnitude scoring is taken as free. Mask updates
  are priced at the element-granularity median, an upper bound for the
  row-group updates the table arms use.

table1 and table2 each pretrain every seed into their own directory, so the
pretraining cost is counted once per table.
"""

from __future__ import annotations

from flowprune.config import RunConfig
from flowprune.diffusion import ddim_timesteps
from flowprune.pipeline import TABLE1_ARMS, TABLE2_ARMS, build_plan


def _rates(traced: dict) -> dict:
    def layer(workload, name):
        return traced[workload]["layers"].get(name, {})

    train = layer("train-dense", "diffusion.train")
    steps = layer("train-dense", "diffusion.loss_and_grads")["calls"]
    ddim = layer("sample-eval", "diffusion.sample_ddim")
    point_steps = traced["sample-eval"]["work"]["ddim_point_steps"]
    m_iters = layer("prune-gradflow", "criteria.compute_scores.gradient-flow")["calls"]
    loop_other = sum(layer("prune-gradflow", name).get(stat, 0.0) for name, stat in (
        ("scheduler.run_progressive_soft", "self_s"),
        ("criteria.gradient_flow_delta", "busy_s"),
        ("scheduler.energy_flow", "busy_s")))

    def p50(workload, name):
        return layer(workload, name).get("p50_ms", 0.0) / 1e3

    return {
        "step": train["busy_s"] / steps,
        "point_step": ddim["busy_s"] / point_steps,
        "score": {"magnitude": 0.0,
                  "taylor": p50("prune-gradflow", "criteria.compute_scores.taylor"),
                  "gradient-flow": p50("prune-gradflow",
                                       "criteria.compute_scores.gradient-flow")},
        "mask": p50("prune-gradflow", "masking.apply_mask_update"),
        "iter_other": loop_other / m_iters,
        "save_stage": p50("prune-gradflow", "checkpoint.save_checkpoint"),
        "save_pretrain": p50("train-dense", "checkpoint.save_checkpoint"),
        "load": p50("sample-eval", "checkpoint.load_checkpoint"),
        "metrics": p50("sample-eval", "metrics.frechet_distance")
        + p50("sample-eval", "metrics.consistency_ssim"),
    }


def project(traced: dict) -> dict:
    """Seconds per cost component for table1 + table2 at RunConfig()."""
    cfg = RunConfig()
    r = _rates(traced)
    eval_ps = cfg.eval_samples * len(ddim_timesteps(cfg.diffusion_t, cfg.eval_substeps))
    cost = dict.fromkeys(("training", "ddim", "scoring", "masking+loop",
                          "checkpoints", "metrics"), 0.0)
    arms = 0
    for table_arms in (TABLE1_ARMS, TABLE2_ARMS):
        for _ in cfg.seeds:
            cost["training"] += cfg.pretrain_steps * r["step"]
            cost["checkpoints"] += r["save_pretrain"] + r["load"]
            cost["ddim"] += 2 * eval_ps * r["point_step"]   # dense cache + dense row
            cost["metrics"] += r["metrics"]
            for arm in table_arms:
                arms += 1
                plan = build_plan(cfg, arm)
                cost["training"] += (plan.m_iters * plan.interval
                                     + plan.finetune_steps) * r["step"]
                cost["scoring"] += (plan.m_iters * r["score"][plan.criterion]
                                    + r["score"][plan.final_criterion])
                cost["masking+loop"] += (plan.m_iters * (r["mask"] + r["iter_other"])
                                         + r["mask"])
                cost["checkpoints"] += r["load"] + 3 * r["save_stage"]
                cost["ddim"] += eval_ps * r["point_step"]
                cost["metrics"] += r["metrics"]
    return {"components_s": cost, "total_s": sum(cost.values()), "arm_runs": arms,
            "rates": r}


def print_projection(traced: dict) -> None:
    cfg = RunConfig()
    got = project(traced)
    plans = [build_plan(cfg, arm) for arm in TABLE1_ARMS]
    dupes = [a.method for i, a in enumerate(TABLE1_ARMS)
             if plans[i] in plans[:i]]
    print(f"PROJECTION (not measured, not gated): table1 + table2 at RunConfig() "
          f"defaults, {len(cfg.seeds)} seeds, {cfg.pretrain_steps} pretrain steps, "
          f"{got['arm_runs']} arm runs, one process")
    for name, seconds in got["components_s"].items():
        print(f"  {name:14} {seconds:10.0f} s")
    print(f"  {'total':14} {got['total_s']:10.0f} s = {got['total_s'] / 3600:.2f} h")
    if dupes:
        print(f"  includes table1 arms whose plan equals an earlier arm's: "
              f"{', '.join(dupes)}")
    rates = got["rates"]
    print(f"  rates: train step {1e3 * rates['step']:.3f} ms, DDIM point-step "
          f"{1e6 * rates['point_step']:.3f} us, gradient-flow scores "
          f"{1e3 * rates['score']['gradient-flow']:.1f} ms, mask update "
          f"{1e3 * rates['mask']:.1f} ms")
