"""Stage orchestration: pretrain -> soft prune -> hard prune -> finetune ->
evaluate, with a checkpoint at every stage boundary.

Each run owns an output directory containing stage checkpoints, a
diagnostics CSV (one row per mask iteration) and a JSON report. Experiment
drivers (criterion comparison, schedule ablation, convergence traces) share
one pretrained checkpoint per seed so arms differ only in the pruning stage.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .criteria import CRITERIA
from .datasets import DatasetSpec, generate
from .diffusion import (
    Adam,
    DiffusionSchedule,
    NoisePredictor,
    OptimizerConfig,
    make_schedule,
    sample_ddim,
    train,
)
from .masking import dense_params, nonzero_params
from .metrics import QualityReport, consistency_ssim, count_macs, frechet_distance
from .scheduler import (
    PrunePlan,
    final_hard_prune,
    finetune,
    run_progressive_soft,
)

DIAG_FIELDS = ["iteration", "loss", "grad_flow_delta", "delta_e", "s_t", "p_t",
               "churn"]
RESULT_FIELDS = ["experiment", "method", "criterion", "mode", "seed", "frechet",
                 "ssim", "nonzero_params", "dense_params", "macs_dense",
                 "macs_sparse", "wall_clock_s"]


def build_dataset(cfg: RunConfig) -> np.ndarray:
    return generate(DatasetSpec(cfg.dataset_kind, cfg.dataset_size,
                                cfg.dataset_seed))


def eval_reference(cfg: RunConfig) -> np.ndarray:
    """Held-out draw from the same source, for Frechet comparisons."""
    spec = DatasetSpec(cfg.dataset_kind, max(cfg.eval_samples, 1000),
                       cfg.dataset_seed + 1_000_003)
    return generate(spec)


def build_schedule(cfg: RunConfig) -> DiffusionSchedule:
    return make_schedule(cfg.diffusion_t, cfg.diffusion_beta_start,
                         cfg.diffusion_beta_end)


def build_model(cfg: RunConfig, seed: int) -> NoisePredictor:
    spec = DatasetSpec(cfg.dataset_kind, 1, 0)
    return NoisePredictor(dim=spec.dim, hidden=cfg.model_hidden,
                          depth=cfg.model_depth, temb_dim=cfg.model_temb_dim,
                          activation=cfg.model_activation, seed=seed)


@dataclass(frozen=True)
class Arm:
    """One experiment arm: a method label plus plan overrides."""

    method: str
    criterion: str
    mode: str
    granularity: str | None = None
    final_criterion: str | None = None
    final_granularity: str | None = None


def build_plan(cfg: RunConfig, arm: Arm | None = None) -> PrunePlan:
    arm = arm or Arm("default", cfg.plan_criterion, cfg.plan_mode)
    mode = arm.mode or cfg.plan_mode
    m_iters = 0 if mode == "one-shot" else cfg.plan_m_iters
    n_iters = 0 if mode == "one-shot" else cfg.plan_n_iters
    return PrunePlan(
        s=cfg.plan_s,
        total_steps=cfg.plan_total_steps,
        m_iters=m_iters,
        n_iters=n_iters,
        interval=cfg.plan_interval,
        criterion=arm.criterion or cfg.plan_criterion,
        mode=mode,
        granularity=arm.granularity or cfg.plan_granularity,
        final_criterion=arm.final_criterion or cfg.plan_final_criterion,
        final_granularity=arm.final_granularity or cfg.plan_final_granularity,
        hvp_method=cfg.plan_hvp_method,
        score_n_batches=cfg.plan_score_batches,
        score_batch_size=cfg.plan_score_batch_size,
    )


def opt_config(cfg: RunConfig) -> OptimizerConfig:
    return OptimizerConfig(lr=cfg.train_lr, beta1=cfg.train_beta1,
                           beta2=cfg.train_beta2)


def model_tensors(model: NoisePredictor, opt: Adam | None = None) -> dict:
    tensors = {name: arr for name, arr in model.params.items()}
    tensors.update(
        {f"{p.name}.mask": p.mask for p in model.masked_params()}
    )
    if opt is not None:
        tensors.update(opt.state_tensors())
    return tensors


def restore_model(model: NoisePredictor, tensors: dict) -> None:
    for name, arr in model.params.items():
        arr[...] = tensors[name]
    for p in model.masked_params():
        p.mask = np.array(tensors[f"{p.name}.mask"])


def save_stage(path, model: NoisePredictor, cfg: RunConfig, stage: str,
               iteration: int, opt: Adam | None = None,
               extra_meta: dict | None = None) -> str:
    meta = {"stage": stage, "iteration": iteration, "config_hash": cfg.digest()}
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, model_tensors(model, opt), meta)
    return str(path)


def pretrain(cfg: RunConfig, seed: int, out_dir) -> str:
    """Train a dense model from scratch; returns the checkpoint path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"pretrain_seed{seed}.ckpt"
    if path.exists():
        _, meta = load_checkpoint(path)
        if meta.get("pretrain_hash") == cfg.pretrain_digest():
            return str(path)
    data = build_dataset(cfg)
    sched = build_schedule(cfg)
    model = build_model(cfg, seed)
    opt = Adam(model.params, opt_config(cfg))
    train(model, sched, data, steps=cfg.pretrain_steps, opt=opt, seed=seed,
          stage="pretrain", batch_size=cfg.train_batch)
    return save_stage(path, model, cfg, "pretrain", cfg.pretrain_steps, opt,
                      extra_meta={"pretrain_hash": cfg.pretrain_digest()})


def load_stage_model(cfg: RunConfig, seed: int, path) -> NoisePredictor:
    tensors, _ = load_checkpoint(path)
    model = build_model(cfg, seed)
    restore_model(model, tensors)
    return model


def dense_sample_cache(cfg: RunConfig, model: NoisePredictor) -> np.ndarray:
    return sample_ddim(model, build_schedule(cfg), cfg.eval_samples,
                       cfg.eval_substeps, noise_seed=cfg.eval_seed)


def evaluate_model(cfg: RunConfig, model: NoisePredictor,
                   dense_samples: np.ndarray | None,
                   seed: int) -> QualityReport:
    """QualityReport for one model; SSIM pairs against the dense samples
    generated from the identical noise seed."""
    sched = build_schedule(cfg)
    samples = sample_ddim(model, sched, cfg.eval_samples, cfg.eval_substeps,
                          noise_seed=cfg.eval_seed)
    ref = eval_reference(cfg)[: cfg.eval_samples]
    fd = frechet_distance(samples, ref)
    if dense_samples is None:
        ssim_val = 1.0
    else:
        ssim_val = consistency_ssim(dense_samples, samples)
    masked = model.masked_params()
    extra = model.bias_param_count()
    dense_macs, sparse_macs = count_macs(masked)
    return QualityReport(
        frechet=fd,
        ssim=ssim_val,
        nonzero_params=nonzero_params(masked, always_dense=extra),
        dense_params=dense_params(masked, always_dense=extra),
        macs_dense=dense_macs,
        macs_sparse=sparse_macs,
        seeds=(seed, cfg.eval_seed),
    )


def write_diagnostics(path, rows: list[dict]) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DIAG_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def prune_run(
    cfg: RunConfig,
    seed: int,
    pretrain_path,
    out_dir,
    arm: Arm | None = None,
    dense_samples: np.ndarray | None = None,
    quality_trace: bool = False,
) -> dict:
    """Full Algorithm-1 pipeline from a pretrained checkpoint.

    Returns a JSON-ready report with stage checkpoints, metrics, diagnostics
    and the per-iteration quality trace when requested.
    """
    t_start = time.time()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = build_dataset(cfg)
    sched = build_schedule(cfg)
    plan = build_plan(cfg, arm)
    model = load_stage_model(cfg, seed, pretrain_path)
    report: dict = {
        "seed": seed,
        "criterion": plan.criterion,
        "mode": plan.mode,
        "config_hash": cfg.digest(),
        "stages": {},
        "checkpoints": {"pretrain": str(pretrain_path)},
    }

    if plan.s == 0.0:
        # identity run: nothing to prune, nothing to recover
        report["stages"]["identity"] = 0.0
        quality = evaluate_model(cfg, model, dense_samples, seed)
        report["metrics"] = quality.as_dict()
        report["wall_clock_s"] = time.time() - t_start
        _write_report(out_dir, report)
        return report

    trace_eval = None
    if quality_trace:
        ref = eval_reference(cfg)[: cfg.trace_samples]

        def trace_eval(m):
            got = sample_ddim(m, sched, cfg.trace_samples, cfg.trace_substeps,
                              noise_seed=cfg.eval_seed + 1)
            return frechet_distance(got, ref)

    t0 = time.time()
    diags, _ = run_progressive_soft(
        model, sched, data, plan, seed=seed, opt_config=opt_config(cfg),
        quality_eval=trace_eval,
    )
    report["stages"]["soft_prune"] = time.time() - t0
    report["checkpoints"]["soft_prune"] = save_stage(
        out_dir / "soft_prune.ckpt", model, cfg, "soft_prune",
        plan.m_iters * plan.interval,
    )
    report["diagnostics_csv"] = write_diagnostics(
        out_dir / "diagnostics.csv", diags.rows()
    )
    if quality_trace:
        report["quality_trace"] = diags.quality_trace

    t0 = time.time()
    _, hard_diag = final_hard_prune(model, sched, data, plan, seed=seed)
    report["stages"]["hard_prune"] = time.time() - t0
    report["hard_prune"] = hard_diag
    report["checkpoints"]["hard_prune"] = save_stage(
        out_dir / "hard_prune.ckpt", model, cfg, "hard_prune",
        plan.m_iters * plan.interval,
    )

    t0 = time.time()
    finetune(model, sched, data, plan, seed=seed, opt_config=opt_config(cfg))
    report["stages"]["finetune"] = time.time() - t0
    report["checkpoints"]["finetune"] = save_stage(
        out_dir / "finetune.ckpt", model, cfg, "finetune", plan.total_steps
    )

    quality = evaluate_model(cfg, model, dense_samples, seed)
    report["metrics"] = quality.as_dict()
    report["wall_clock_s"] = time.time() - t_start
    _write_report(out_dir, report)
    return report


def _write_report(out_dir: Path, report: dict) -> None:
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)


def write_results_csv(path, rows: list[dict]) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def result_row(experiment: str, method: str, criterion: str, mode: str,
               seed: int, metrics: dict, wall: float) -> dict:
    return {
        "experiment": experiment,
        "method": method,
        "criterion": criterion,
        "mode": mode,
        "seed": seed,
        "frechet": metrics["frechet"],
        "ssim": metrics["ssim"],
        "nonzero_params": metrics["nonzero_params"],
        "dense_params": metrics["dense_params"],
        "macs_dense": metrics["macs_dense"],
        "macs_sparse": metrics["macs_sparse"],
        "wall_clock_s": wall,
    }


# Experiment arms. The comparisons run in the structural (row-group) regime,
# where one-shot pruning carries a real information-loss cost: baselines are
# one-shot row-group prunes with their criterion (magnitude / taylor), "ours"
# is the full progressive-soft loop with its criterion driving both the soft
# steps and the final prune.
TABLE1_ARMS = [
    Arm("magnitude", "magnitude", "one-shot",
        final_criterion="magnitude", final_granularity="row-group"),
    Arm("taylor", "taylor", "one-shot",
        final_criterion="taylor", final_granularity="row-group"),
    Arm("gradient-flow", "gradient-flow", "progressive-soft",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
]

TABLE2_ARMS = [
    Arm("iterative/magnitude", "magnitude", "iterative",
        granularity="row-group", final_criterion="magnitude",
        final_granularity="row-group"),
    Arm("iterative/taylor", "taylor", "iterative",
        granularity="row-group", final_criterion="taylor",
        final_granularity="row-group"),
    Arm("iterative/gradient-flow", "gradient-flow", "iterative",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
    Arm("+soft", "gradient-flow", "iterative+soft",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
    Arm("+progressive", "gradient-flow", "iterative+progressive",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
    Arm("+progressive-soft", "gradient-flow", "progressive-soft",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
]

ONE_SHOT_GF_ARM = Arm("one-shot", "gradient-flow", "one-shot",
                      final_criterion="gradient-flow",
                      final_granularity="row-group")

FIG2_ARMS = [
    Arm("gradient-flow", "gradient-flow", "progressive-soft",
        granularity="row-group", final_criterion="gradient-flow",
        final_granularity="row-group"),
    Arm("taylor", "taylor", "progressive-soft",
        granularity="row-group", final_criterion="taylor",
        final_granularity="row-group"),
]


def run_experiment(cfg: RunConfig, experiment: str,
                   arms: list[Arm], out_root,
                   trace: bool = False,
                   include_dense_row: bool = True) -> dict:
    """Run arms x seeds from shared pretrained checkpoints.

    Returns {"rows": [...], "reports": {(method, seed): report}, ...} and
    writes results.csv (plus trace.csv when tracing is on).
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    reports: dict = {}
    trace_rows: list[dict] = []
    for seed in cfg.seeds:
        t0 = time.time()
        pre_path = pretrain(cfg, seed, out_root / "pretrain")
        pre_wall = time.time() - t0
        dense_model = load_stage_model(cfg, seed, pre_path)
        dense_samples = dense_sample_cache(cfg, dense_model)
        if include_dense_row:
            dense_quality = evaluate_model(cfg, dense_model, None, seed)
            rows.append(result_row(experiment, "dense", "-", "-", seed,
                                   dense_quality.as_dict(), pre_wall))
        for arm in arms:
            arm_dir = out_root / arm.method.replace("/", "_") / f"seed{seed}"
            report = prune_run(
                cfg, seed, pre_path, arm_dir, arm=arm,
                dense_samples=dense_samples, quality_trace=trace,
            )
            reports[(arm.method, seed)] = report
            rows.append(result_row(experiment, arm.method, arm.criterion,
                                   arm.mode, seed, report["metrics"],
                                   report["wall_clock_s"]))
            for t, q in report.get("quality_trace", []):
                trace_rows.append({
                    "experiment": experiment, "method": arm.method,
                    "criterion": arm.criterion, "seed": seed,
                    "iteration": t, "frechet": q,
                })
    out = {"rows": rows, "reports": reports,
           "results_csv": write_results_csv(out_root / "results.csv", rows)}
    if trace_rows:
        path = out_root / "trace.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["experiment", "method", "criterion", "seed",
                                "iteration", "frechet"])
            writer.writeheader()
            writer.writerows(trace_rows)
        out["trace_csv"] = str(path)
        out["trace_rows"] = trace_rows
    return out


def median_by_method(rows: list[dict], field: str = "frechet") -> dict:
    """Per-method medians over seeds."""
    values: dict[str, list[float]] = {}
    for row in rows:
        values.setdefault(row["method"], []).append(float(row[field]))
    return {m: float(np.median(v)) for m, v in values.items()}
