"""Stage orchestration: pretrain -> soft prune -> hard prune -> finetune ->
evaluate, with a checkpoint at every stage boundary.

Each run owns an output directory containing stage checkpoints, a
diagnostics CSV (the soft loop's rows, one per mask iteration) and a JSON
report. Experiment drivers (criterion comparison, schedule ablation,
convergence traces) share one pretrained checkpoint per seed, in
``<out_dir>/pretrain``, so arms differ only in the pruning stage. An arm is
a method label, a criterion and a schedule mode; ``build_plan`` alone
decides the structural regime every arm shares.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .datasets import DatasetSpec, generate
from .diffusion import (
    Adam,
    DiffusionSchedule,
    NoisePredictor,
    make_schedule,
    sample_ddim,
    train,
)
from .metrics import QualityReport, consistency_ssim, efficiency, frechet_distance
from .scheduler import (
    DIAG_FIELDS,
    PrunePlan,
    final_hard_prune,
    finetune,
    run_progressive_soft,
)

RESULT_FIELDS = ["experiment", "method", "criterion", "mode", "seed", "frechet",
                 "ssim", "nonzero_params", "dense_params", "macs_dense",
                 "macs_sparse", "wall_clock_s"]
TRACE_FIELDS = ["experiment", "method", "criterion", "seed", "iteration",
                "frechet"]


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
                          seed=seed)


@dataclass(frozen=True)
class Arm:
    """One experiment arm: a method label, its criterion and its schedule
    mode."""

    method: str
    criterion: str
    mode: str


def build_plan(cfg: RunConfig, arm: Arm | None = None) -> PrunePlan:
    """The plan of one prune run: the config's ``plan_*`` values, or an
    experiment arm's.

    The config's plan ranks elements and prunes by Taylor at the end. Every
    arm runs the structural regime of Tables 1 and 2, where one-shot pruning
    carries a real information-loss cost: row groups in the soft loop as in
    the final prune, with the arm's criterion driving both.
    """
    if arm is None:
        criterion, mode = cfg.plan_criterion, cfg.plan_mode
        granularity = "element"
    else:
        criterion, mode = arm.criterion, arm.mode
        granularity = "row-group"
    m_iters = 0 if mode == "one-shot" else cfg.plan_m_iters
    n_iters = 0 if mode == "one-shot" else cfg.plan_n_iters
    return PrunePlan(
        s=cfg.plan_s,
        total_steps=cfg.plan_total_steps,
        m_iters=m_iters,
        n_iters=n_iters,
        interval=cfg.plan_interval,
        criterion=criterion,
        mode=mode,
        granularity=granularity,
        score_n_batches=cfg.plan_score_batches,
        score_batch_size=cfg.plan_score_batch_size,
        train_batch=cfg.train_batch,
    )


def model_tensors(model: NoisePredictor, opt: Adam | None = None) -> dict:
    tensors = dict(model.params)
    tensors.update({f"{n}.mask": m for n, m in model.masks.items()})
    if opt is not None:
        tensors.update(opt.state_tensors())
    return tensors


def restore_model(model: NoisePredictor, tensors: dict) -> None:
    """Load the model's parameters and masks from checkpoint tensors; a
    tensor that is missing or shaped unlike the model's raises
    ``CheckpointError``."""

    def take(name: str, shape: tuple) -> np.ndarray:
        if name not in tensors:
            raise CheckpointError(f"missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape "
                                  f"{tensors[name].shape}, model has {shape}")
        return tensors[name]

    for name, arr in model.params.items():
        arr[...] = take(name, arr.shape)
    for name, mask in model.masks.items():
        model.masks[name] = np.array(take(f"{name}.mask", mask.shape))


def stage_path(cfg: RunConfig, stage: str, seed: int, run_dir=None) -> Path:
    """Where ``stage``'s checkpoint for ``seed`` is written: in ``run_dir``,
    the directory a ``pretrain`` or ``prune_run`` call writes to, or by
    default where the commands keep it. Pretrains go to
    ``<out_dir>/pretrain``, which every command and experiment shares; the
    ``prune`` command's stages go to ``<out_dir>/prune/seed<seed>``."""
    if stage == "pretrain":
        default, name = ("pretrain",), f"pretrain_seed{seed}.ckpt"
    else:
        default, name = ("prune", f"seed{seed}"), f"{stage}.ckpt"
    if run_dir is None:
        run_dir = Path(cfg.out_dir).joinpath(*default)
    return Path(run_dir) / name


def save_stage(run_dir, model: NoisePredictor, cfg: RunConfig, stage: str,
               seed: int, iteration: int, opt: Adam | None = None,
               extra_meta: dict | None = None) -> str:
    """Write ``stage``'s checkpoint for ``seed`` in ``run_dir``; returns its
    path."""
    meta = {"stage": stage, "iteration": iteration, "config_hash": cfg.digest()}
    if extra_meta:
        meta.update(extra_meta)
    path = stage_path(cfg, stage, seed, run_dir)
    save_checkpoint(path, model_tensors(model, opt), meta)
    return str(path)


def pretrain(cfg: RunConfig, seed: int, out_dir=None) -> str:
    """Train a dense model from scratch into ``out_dir`` (by default
    ``<cfg.out_dir>/pretrain``, which the commands share); returns the
    checkpoint path. A checkpoint there whose ``pretrain_hash`` matches the
    config is reused, and any other is overwritten."""
    path = stage_path(cfg, "pretrain", seed, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        _, meta = load_checkpoint(path)
        if meta.get("pretrain_hash") == cfg.pretrain_digest():
            return str(path)
    data = build_dataset(cfg)
    sched = build_schedule(cfg)
    model = build_model(cfg, seed)
    opt = Adam(model.params, cfg.train_lr)
    train(model, sched, data, steps=cfg.pretrain_steps, opt=opt, seed=seed,
          stage="pretrain", batch_size=cfg.train_batch)
    return save_stage(out_dir, model, cfg, "pretrain", seed,
                      cfg.pretrain_steps, opt,
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
    samples = sample_ddim(model, build_schedule(cfg), cfg.eval_samples,
                          cfg.eval_substeps, noise_seed=cfg.eval_seed)
    return _quality(cfg, model, samples, dense_samples, seed)


def _quality(cfg: RunConfig, model: NoisePredictor, samples: np.ndarray,
             dense_samples: np.ndarray | None, seed: int) -> QualityReport:
    """QualityReport for ``model`` from its evaluation samples; without
    ``dense_samples`` the model is its own SSIM reference."""
    ref = eval_reference(cfg)[: cfg.eval_samples]
    fd = frechet_distance(samples, ref)
    if dense_samples is None:
        ssim_val = 1.0
    else:
        ssim_val = consistency_ssim(dense_samples, samples)
    return QualityReport(
        frechet=fd,
        ssim=ssim_val,
        **efficiency(model),
        seeds=(seed, cfg.eval_seed),
    )


def _write_csv(path, fields: list[str], rows: list[dict]) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
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
    t_start = time.perf_counter()
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

    trace_eval = None
    if quality_trace:
        ref = eval_reference(cfg)[: cfg.trace_samples]

        def trace_eval(m):
            got = sample_ddim(m, sched, cfg.trace_samples, cfg.trace_substeps,
                              noise_seed=cfg.eval_seed + 1)
            return frechet_distance(got, ref)

    t0 = time.perf_counter()
    diag_rows, trace, _ = run_progressive_soft(
        model, sched, data, plan, seed=seed, lr=cfg.train_lr,
        quality_eval=trace_eval,
    )
    report["stages"]["soft_prune"] = time.perf_counter() - t0
    report["checkpoints"]["soft_prune"] = save_stage(
        out_dir, model, cfg, "soft_prune", seed, plan.m_iters * plan.interval)
    report["diagnostics_csv"] = _write_csv(
        out_dir / "diagnostics.csv", DIAG_FIELDS, diag_rows
    )
    if quality_trace:
        report["quality_trace"] = trace

    t0 = time.perf_counter()
    _, hard_diag = final_hard_prune(model, sched, data, plan, seed=seed)
    report["stages"]["hard_prune"] = time.perf_counter() - t0
    report["hard_prune"] = hard_diag
    report["checkpoints"]["hard_prune"] = save_stage(
        out_dir, model, cfg, "hard_prune", seed, plan.m_iters * plan.interval)

    t0 = time.perf_counter()
    finetune(model, sched, data, plan, seed=seed, lr=cfg.train_lr)
    report["stages"]["finetune"] = time.perf_counter() - t0
    report["checkpoints"]["finetune"] = save_stage(
        out_dir, model, cfg, "finetune", seed, plan.total_steps)

    quality = evaluate_model(cfg, model, dense_samples, seed)
    report["metrics"] = quality.as_dict()
    report["wall_clock_s"] = time.perf_counter() - t_start
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
    return report


def result_row(experiment: str, method: str, criterion: str, mode: str,
               seed: int, metrics: dict, wall: float) -> dict:
    row = {"experiment": experiment, "method": method, "criterion": criterion,
           "mode": mode, "seed": seed, "wall_clock_s": wall}
    return {f: row[f] if f in row else metrics[f] for f in RESULT_FIELDS}


# Experiment arms; build_plan sets the regime they share. Baselines are
# one-shot prunes with their criterion; "ours" is the full progressive-soft
# loop.
TABLE1_ARMS = [
    Arm("magnitude", "magnitude", "one-shot"),
    Arm("taylor", "taylor", "one-shot"),
    Arm("gradient-flow", "gradient-flow", "progressive-soft"),
]

TABLE2_ARMS = [
    Arm("iterative/magnitude", "magnitude", "iterative"),
    Arm("iterative/taylor", "taylor", "iterative"),
    Arm("iterative/gradient-flow", "gradient-flow", "iterative"),
    Arm("+soft", "gradient-flow", "iterative+soft"),
    Arm("+progressive", "gradient-flow", "iterative+progressive"),
    Arm("+progressive-soft", "gradient-flow", "progressive-soft"),
]

FIG2_ARMS = [
    Arm("gradient-flow", "gradient-flow", "progressive-soft"),
    Arm("taylor", "taylor", "progressive-soft"),
]


def run_experiment(cfg: RunConfig, experiment: str,
                   arms: list[Arm], out_root,
                   trace: bool = False) -> dict:
    """Run arms x seeds from the pretrained checkpoints in
    ``cfg.out_dir/pretrain``, which every experiment and the ``pretrain``
    and ``prune`` commands share, with one dense row per seed.

    Writes results.csv (plus trace.csv when tracing is on) and returns
    {"rows": [...], "results_csv": path} (plus "trace_csv").
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    trace_rows: list[dict] = []
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        pre_path = pretrain(cfg, seed)
        pre_wall = time.perf_counter() - t0
        dense_model = load_stage_model(cfg, seed, pre_path)
        dense_samples = dense_sample_cache(cfg, dense_model)
        dense_quality = _quality(cfg, dense_model, dense_samples, None, seed)
        rows.append(result_row(experiment, "dense", "-", "-", seed,
                               dense_quality.as_dict(), pre_wall))
        for arm in arms:
            arm_dir = out_root / arm.method.replace("/", "_") / f"seed{seed}"
            report = prune_run(
                cfg, seed, pre_path, arm_dir, arm=arm,
                dense_samples=dense_samples, quality_trace=trace,
            )
            rows.append(result_row(experiment, arm.method, arm.criterion,
                                   arm.mode, seed, report["metrics"],
                                   report["wall_clock_s"]))
            for t, q in report.get("quality_trace", []):
                trace_rows.append({
                    "experiment": experiment, "method": arm.method,
                    "criterion": arm.criterion, "seed": seed,
                    "iteration": t, "frechet": q,
                })
    out = {"rows": rows,
           "results_csv": _write_csv(out_root / "results.csv", RESULT_FIELDS,
                                     rows)}
    if trace_rows:
        out["trace_csv"] = _write_csv(out_root / "trace.csv", TRACE_FIELDS,
                                      trace_rows)
    return out


def median_by_method(rows: list[dict], field: str = "frechet") -> dict:
    """Per-method medians over seeds."""
    values: dict[str, list[float]] = {}
    for row in rows:
        values.setdefault(row["method"], []).append(float(row[field]))
    return {m: float(np.median(v)) for m, v in values.items()}
