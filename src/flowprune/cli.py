"""Command-line harness.

Subcommands:
    pretrain  train the dense model for each configured seed
    prune     run the prune pipeline from a pretrained checkpoint
    sample    draw DDIM samples from a checkpoint into a tensor container
    evaluate  recompute quality metrics for a checkpoint
    grid      Table 1 (criteria), Table 2 (schedule ablation) and Fig 2
              (quality traces), each distinct arm run once per seed

The config file says what a run computes. Every command takes --config PATH,
--seed N (run that seed only) and --out DIR (the output directory).
``sample`` and ``evaluate`` also take --stage NAME (default finetune) or
--checkpoint PATH to pick their checkpoint, and ``sample`` takes --n. Exit
code 0 on success; errors, usage errors included, print one
machine-parseable line ``error: <kind>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .checkpoint import CheckpointError, save_checkpoint
from .config import ConfigError, RunConfig
from .diffusion import TrainingDiverged, sample_ddim
from .pipeline import (
    BEATS,
    GRID,
    build_model,
    build_plan,
    build_schedule,
    evaluate_model,
    load_stage_model,
    medians,
    paired_counts,
    pretrain,
    prune_run,
    run_grid,
    stage_path,
)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them as one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _load_config(args) -> RunConfig:
    """The config with ``--out`` and ``--seed`` applied; a dataset size
    below 1, a schedule, plan or model that ``make_schedule``, ``PrunePlan``
    or ``NoisePredictor`` rejects, an empty, negative or repeated seed list,
    a negative step count, or an evaluation size the metrics or the sampler
    reject, fails here, before any stage runs. The plans checked are the
    config's own and, for ``grid``, that of every ``GRID`` arm."""
    cfg = RunConfig.load(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if cfg.dataset_size < 1:
        raise ConfigError(f"dataset size must be at least 1, got "
                          f"{cfg.dataset_size}")
    try:
        build_schedule(cfg)
        for arm in (None, *(GRID if args.command == "grid" else ())):
            build_plan(cfg, arm)
        dim = build_model(cfg, 0).dim
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("dataset_seed", "eval_seed", "pretrain_steps"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be at least 0, got "
                              f"{getattr(cfg, key)}")
    if not cfg.seeds:
        raise ConfigError("seeds must not be empty")
    if min(cfg.seeds) < 0:
        raise ConfigError(f"seeds must be at least 0, got {cfg.seeds}")
    if len(set(cfg.seeds)) < len(cfg.seeds):  # a run per seed, in its own dir
        raise ConfigError(f"seeds must not repeat, got {cfg.seeds}")
    if not 0 < cfg.train_lr < math.inf:  # Adam never moves a weight at 0
        raise ConfigError(f"train_lr must be finite and above 0, got "
                          f"{cfg.train_lr}")
    # Frechet needs dim + 1 points per set; DDIM takes 1 to T steps
    for key in ("eval_samples", "trace_samples"):
        if getattr(cfg, key) < dim + 1:
            raise ConfigError(f"{key} must be at least dim + 1 = {dim + 1}, "
                              f"got {getattr(cfg, key)}")
    for key in ("eval_substeps", "trace_substeps"):
        if not 1 <= getattr(cfg, key) <= cfg.diffusion_t:
            raise ConfigError(f"{key} must be in [1, diffusion_t = "
                              f"{cfg.diffusion_t}], got {getattr(cfg, key)}")
    return cfg


def cmd_pretrain(args) -> dict:
    cfg = _load_config(args)
    paths = [pretrain(cfg, seed) for seed in cfg.seeds]
    return {"command": "pretrain", "checkpoints": paths}


def cmd_prune(args) -> dict:
    cfg = _load_config(args)
    reports = []
    for seed in cfg.seeds:
        pre = pretrain(cfg, seed)
        dense = evaluate_model(cfg, load_stage_model(cfg, seed, pre), None,
                               seed, "pretrain")
        out = stage_path(cfg, "finetune", seed).parent
        reports.append(prune_run(cfg, seed, pre, out,
                                 dense_samples=dense.samples))
    return {"command": "prune", "reports": reports}


def _load_checkpoint_arg(args, cfg: RunConfig):
    """The ``--checkpoint`` path, else ``--stage``'s, and its model."""
    path = (Path(args.checkpoint) if args.checkpoint
            else stage_path(cfg, args.stage, cfg.seeds[0]))
    if not path.exists():
        raise FileNotFoundError(f"missing checkpoint {path}")
    return path, load_stage_model(cfg, cfg.seeds[0], path)


def cmd_sample(args) -> dict:
    if args.n < 1:
        raise argparse.ArgumentError(
            None, f"argument --n: must be at least 1, got {args.n}")
    cfg = _load_config(args)
    path, model = _load_checkpoint_arg(args, cfg)
    samples = sample_ddim(model, build_schedule(cfg), args.n,
                          cfg.eval_substeps, noise_seed=cfg.eval_seed)
    out = Path(cfg.out_dir) / "samples.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, {"samples": samples},
                    {"stage": "samples", "source": str(path)})
    return {"command": "sample", "n": args.n, "path": str(out)}


def cmd_evaluate(args) -> dict:
    cfg = _load_config(args)
    path, model = _load_checkpoint_arg(args, cfg)
    seed = cfg.seeds[0]
    pre = stage_path(cfg, "pretrain", seed)
    stage = "pretrain" if pre.exists() and pre.samefile(path) else "finetune"
    dense_samples = None
    if pre.exists() and stage != "pretrain":
        dense_samples = evaluate_model(cfg, load_stage_model(cfg, seed, pre),
                                       None, seed, "pretrain").samples
    quality = evaluate_model(cfg, model, dense_samples, seed, stage)
    return {"command": "evaluate", "checkpoint": str(path),
            "metrics": quality.as_dict()}


def cmd_grid(args) -> dict:
    cfg = _load_config(args)
    out = run_grid(cfg, GRID, Path(cfg.out_dir) / "grid")
    return {
        "command": "grid",
        "results_csv": out["results_csv"],
        "reads_csv": out["reads_csv"],
        **{f"median_{field}": medians(out["rows"], field) for field in BEATS},
        "paired": paired_counts(out["rows"]),
        "rows": len(out["rows"]),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowprune",
        description="Progressive soft pruning experiments for a small "
                    "diffusion model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "pretrain": cmd_pretrain,
        "prune": cmd_prune,
        "sample": cmd_sample,
        "evaluate": cmd_evaluate,
        "grid": cmd_grid,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        if name in ("sample", "evaluate"):
            p.add_argument("--stage", default="finetune",
                           help="stage whose checkpoint to load")
            p.add_argument("--checkpoint", default=None,
                           help="explicit checkpoint path")
        if name == "sample":
            p.add_argument("--n", type=int, default=1000)
        p.set_defaults(fn=fn)
    return parser


# (exception types, error kind, exit code), matched in order
_ERRORS = [
    (argparse.ArgumentError, "usage", 2),
    ((ConfigError, FileNotFoundError), "config", 2),
    (CheckpointError, "checkpoint", 3),
    (TrainingDiverged, "divergence", 4),
    ((ValueError, KeyError), "invalid", 5),
    (FloatingPointError, "numeric", 6),
    (OSError, "io", 7),
    (MemoryError, "memory", 8),
]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        summary = args.fn(args)
    except Exception as exc:
        for types, kind, code in _ERRORS:
            if isinstance(exc, types):
                print(f"error: {kind}: {exc}", file=sys.stderr)
                return code
        raise
    json.dump(summary, sys.stdout, indent=2, default=float)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
