"""Stage orchestration: pretrain -> soft prune -> hard prune -> finetune ->
evaluate, with a checkpoint at every stage boundary.

Each run owns an output directory containing stage checkpoints, a
diagnostics CSV (the soft loop's rows, one per mask iteration) and a JSON
report. ``run_grid`` runs ``GRID``, whose rows are Table 1's criteria, Table
2's schedule ablation and Fig 2's traces, once per distinct criterion and
mode per seed, all from the seed's one pretrained checkpoint in
``<out_dir>/pretrain``. An arm is a result row: experiment, method label,
criterion and schedule mode; ``build_plan`` alone decides the structural
regime every arm shares. One ``measure`` call is one quality read: the dense
row and each arm's row read ``eval_samples`` points over ``eval_substeps``
from ``eval_seed``, and a Fig 2 trace point ``trace_samples`` points over
``trace_substeps`` from ``eval_seed + 1``.
"""

from __future__ import annotations

import csv
import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .criteria import score_batches
from .datasets import DIM, generate
from .diffusion import (
    Adam,
    DiffusionSchedule,
    NoisePredictor,
    make_schedule,
    sample_ddim,
    train,
)
from .metrics import (
    QualityReport,
    consistency_ssim,
    efficiency,
    frechet_distance,
    mode_quality,
)
from .scheduler import (
    DIAG_FIELDS,
    PrunePlan,
    final_hard_prune,
    finetune,
    run_progressive_soft,
)

RESULT_FIELDS = ["experiment", "method", "criterion", "mode", "seed", "frechet",
                 "ssim", "mode_precision", "modes", "nonzero_params",
                 "dense_params", "macs_dense", "macs_sparse", "wall_clock_s"]
TRACE_FIELDS = ["experiment", "method", "criterion", "seed", "iteration",
                "frechet", "mode_precision"]


def build_dataset(cfg: RunConfig) -> np.ndarray:
    return generate(cfg.dataset_size, cfg.dataset_seed)


def eval_reference(cfg: RunConfig, n: int) -> np.ndarray:
    """The first ``n`` rows of a held-out draw for Frechet comparisons. The
    draw has at least ``eval_samples`` rows, so the evaluation's reference
    does not depend on the trace's ``n``: ``generate`` is not prefix-stable."""
    return generate(max(n, cfg.eval_samples, 1000),
                    cfg.dataset_seed + 1_000_003)[:n]


def build_schedule(cfg: RunConfig) -> DiffusionSchedule:
    return make_schedule(cfg.diffusion_t, cfg.diffusion_beta_start,
                         cfg.diffusion_beta_end)


def build_model(cfg: RunConfig, seed: int) -> NoisePredictor:
    return NoisePredictor(dim=DIM, hidden=cfg.model_hidden,
                          depth=cfg.model_depth, temb_dim=cfg.model_temb_dim,
                          seed=seed)


@dataclass(frozen=True)
class Arm:
    """One result row of the experiment grid: the experiment it belongs to
    (``table1``, ``table2`` or ``fig2``), a method label, its criterion and
    its schedule mode. Arms with the same criterion and mode share one
    prune run."""

    experiment: str
    method: str
    criterion: str
    mode: str


def build_plan(cfg: RunConfig, arm: Arm | None = None) -> PrunePlan:
    """The plan of one prune run: the config's ``plan_*`` values, or a grid
    arm's, which reads only the arm's criterion and mode.

    The config's plan ranks elements and prunes by Taylor at the end. Every
    arm runs the structural regime of the grid, where one-shot pruning
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


def stage_path(cfg: RunConfig, stage: str, seed: int, run_dir=None) -> Path:
    """Where ``stage``'s checkpoint for ``seed`` is written: in ``run_dir``,
    the directory a ``pretrain`` or ``prune_run`` call writes to, or by
    default where the commands keep it. Pretrains go to
    ``<out_dir>/pretrain``, which every command shares; the
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
    config is reused, and any other, readable or not, is overwritten."""
    path = stage_path(cfg, "pretrain", seed, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        try:
            _, meta = load_checkpoint(path, into={})
        except CheckpointError:
            meta = {}
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
    model = build_model(cfg, seed)
    load_checkpoint(path, into=model_tensors(model))
    return model


def measure(cfg: RunConfig, model: NoisePredictor, n: int, substeps: int,
            noise_seed: int, dense: np.ndarray | None = None
            ) -> tuple[np.ndarray, dict]:
    """``n`` DDIM samples of ``model`` over ``substeps`` from ``noise_seed``
    and their quality columns; ``ssim`` is 1.0 without ``dense``."""
    samples = sample_ddim(model, build_schedule(cfg), n, substeps,
                          noise_seed=noise_seed)
    frechet = frechet_distance(samples, eval_reference(cfg, n))
    ssim = 1.0 if dense is None else consistency_ssim(dense, samples)
    mode_precision, modes = mode_quality(samples)
    return samples, {"frechet": frechet, "ssim": ssim,
                     "mode_precision": mode_precision, "modes": modes}


def dense_sample_cache(cfg: RunConfig, model: NoisePredictor) -> np.ndarray:
    return measure(cfg, model, cfg.eval_samples, cfg.eval_substeps,
                   cfg.eval_seed)[0]


def evaluate_model(cfg: RunConfig, model: NoisePredictor,
                   dense_samples: np.ndarray | None,
                   seed: int) -> QualityReport:
    """QualityReport of one read at the evaluation settings."""
    _, columns = measure(cfg, model, cfg.eval_samples, cfg.eval_substeps,
                         cfg.eval_seed, dense_samples)
    return QualityReport(**columns, **efficiency(model),
                         seeds=(seed, cfg.eval_seed))


def _write_csv(path, fields: list[str], rows: list[dict]) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def _score_seed(seed: int, stream: int) -> int:
    return (int(seed) * 1_000_003 + stream) & 0x7FFFFFFF


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

    Draws the run's two score inputs once, for every criterion and mode:
    the score set (stream 0) every mask update and the hard prune rank on,
    and the diagnostic batch (stream 1) every ``grad_flow_delta`` reads.
    Returns a JSON-ready report with stage checkpoints, metrics,
    diagnostics and the per-iteration quality trace when requested.
    """
    t_start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = build_dataset(cfg)
    sched = build_schedule(cfg)
    plan = build_plan(cfg, arm)
    batches = score_batches(sched, data, _score_seed(seed, 0),
                            n_batches=plan.score_n_batches,
                            batch_size=plan.score_batch_size)
    diag_batch, = score_batches(sched, data, _score_seed(seed, 1),
                                n_batches=1, batch_size=plan.score_batch_size)
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
        def trace_eval(m):
            # the trace keeps only the columns trace.csv names
            _, columns = measure(cfg, m, cfg.trace_samples,
                                 cfg.trace_substeps, cfg.eval_seed + 1)
            return {f: columns[f] for f in TRACE_FIELDS if f in columns}

    t0 = time.perf_counter()
    diag_rows, trace, _ = run_progressive_soft(
        model, sched, data, plan, seed=seed, lr=cfg.train_lr,
        batches=batches, diag_batch=diag_batch, quality_eval=trace_eval,
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
    _, hard_diag = final_hard_prune(model, sched, plan, batches)
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


# The experiment grid, one arm per result row; build_plan sets the regime
# they share. Baselines are one-shot prunes with their criterion; "ours" is
# the full progressive-soft loop.
GRID = [
    Arm("table1", "magnitude", "magnitude", "one-shot"),
    Arm("table1", "taylor", "taylor", "one-shot"),
    Arm("table1", "gradient-flow", "gradient-flow", "progressive-soft"),
    Arm("table2", "iterative/magnitude", "magnitude", "iterative"),
    Arm("table2", "iterative/taylor", "taylor", "iterative"),
    Arm("table2", "iterative/gradient-flow", "gradient-flow", "iterative"),
    Arm("table2", "+soft", "gradient-flow", "iterative+soft"),
    Arm("table2", "+progressive", "gradient-flow", "iterative+progressive"),
    Arm("table2", "+progressive-soft", "gradient-flow", "progressive-soft"),
    Arm("fig2", "gradient-flow", "gradient-flow", "progressive-soft"),
    Arm("fig2", "taylor", "taylor", "progressive-soft"),
]
# perfbench/projection.py imports these two views by name
TABLE1_ARMS = [arm for arm in GRID if arm.experiment == "table1"]
TABLE2_ARMS = [arm for arm in GRID if arm.experiment == "table2"]


def run_grid(cfg: RunConfig, arms: list[Arm], out_root) -> dict:
    """Run each distinct ``(criterion, mode)`` of ``arms`` once per seed into
    ``out_root/<criterion>_<mode>/seed<N>``, from the pretrained checkpoint
    in ``cfg.out_dir/pretrain`` that every command shares.

    Each seed samples its dense model once and writes one dense row per
    experiment, then each arm's row from its run's report. Only runs that
    a ``fig2`` arm reads are traced, into trace.csv. Writes results.csv and
    trace.csv; returns {"rows": [...], "results_csv", "trace_csv"}.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    traced = {(arm.criterion, arm.mode) for arm in arms
              if arm.experiment == "fig2"}
    rows: list[dict] = []
    trace_rows: list[dict] = []
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        pre_path = pretrain(cfg, seed)
        pre_wall = time.perf_counter() - t0
        dense_model = load_stage_model(cfg, seed, pre_path)
        dense_samples, dense_columns = measure(
            cfg, dense_model, cfg.eval_samples, cfg.eval_substeps,
            cfg.eval_seed)
        dense_metrics = {**dense_columns, **efficiency(dense_model)}
        experiments: set[str] = set()
        reports: dict[tuple, dict] = {}
        for arm in arms:
            if arm.experiment not in experiments:
                experiments.add(arm.experiment)
                rows.append(result_row(arm.experiment, "dense", "-", "-", seed,
                                       dense_metrics, pre_wall))
            key = (arm.criterion, arm.mode)
            if key not in reports:
                reports[key] = prune_run(
                    cfg, seed, pre_path,
                    out_root / f"{arm.criterion}_{arm.mode}" / f"seed{seed}",
                    arm=arm, dense_samples=dense_samples,
                    quality_trace=key in traced)
            report = reports[key]
            rows.append(result_row(arm.experiment, arm.method, arm.criterion,
                                   arm.mode, seed, report["metrics"],
                                   report["wall_clock_s"]))
            if arm.experiment == "fig2":
                trace_rows += [{"experiment": "fig2", "method": arm.method,
                                "criterion": arm.criterion, "seed": seed,
                                "iteration": t, **q}
                               for t, q in report["quality_trace"]]
    return {"rows": rows,
            "results_csv": _write_csv(out_root / "results.csv", RESULT_FIELDS,
                                      rows),
            "trace_csv": _write_csv(out_root / "trace.csv", TRACE_FIELDS,
                                    trace_rows)}


def medians(rows: list[dict], field: str) -> dict:
    """Medians of ``field`` over seeds, by experiment and then by method."""
    values: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        values.setdefault(row["experiment"], {}).setdefault(
            row["method"], []).append(float(row[field]))
    return {e: {m: float(np.median(v)) for m, v in by_method.items()}
            for e, by_method in values.items()}


# how one seed's value beats another's: lower Frechet; higher SSIM, mode
# precision and modes
BEATS = {"frechet": operator.lt, "ssim": operator.gt,
         "mode_precision": operator.gt, "modes": operator.gt}


def paired_counts(rows: list[dict]) -> list[str]:
    """Table 1's and Table 2's rows against their table's
    gradient-flow/progressive-soft row, seed by seed: for each measure of
    ``BEATS`` and each other row, "<experiment> <metric>: A beats B on k of n
    seeds". A tie beats neither."""
    lines = []
    for experiment in ("table1", "table2"):
        table = [r for r in rows if r["experiment"] == experiment]
        ours = {r["seed"]: r for r in table if (r["criterion"], r["mode"])
                == ("gradient-flow", "progressive-soft")}
        a = next(iter(ours.values()))["method"]
        others = dict.fromkeys(r["method"] for r in table if r["method"] != a)
        for field, beats in BEATS.items():
            for b in others:
                pairs = [(float(ours[r["seed"]][field]), float(r[field]))
                         for r in table if r["method"] == b]
                k = sum(beats(x, y) for x, y in pairs)
                lines.append(f"{experiment} {field}: {a} beats {b} on {k} of "
                             f"{len(pairs)} seeds")
    return lines
