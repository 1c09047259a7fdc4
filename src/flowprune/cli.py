"""Command-line harness.

Subcommands:
    pretrain  train the dense model for each configured seed
    prune     run the prune pipeline from a pretrained checkpoint
    sample    draw DDIM samples from a checkpoint into a tensor container
    evaluate  recompute quality metrics for a checkpoint
    table1    criterion comparison (magnitude / taylor / gradient-flow),
              medians over seeds
    table2    schedule ablation at a fixed criterion, six method rows
    fig2      per-iteration quality traces for gradient-flow vs taylor

Every command takes --config PATH; --seed, --out, --criterion, --mode and
--stage narrow a run. Exit code 0 on success; errors print one
machine-parseable line ``error: <kind>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .diffusion import TrainingDiverged, sample_ddim
from .pipeline import (
    FIG2_ARMS,
    TABLE1_ARMS,
    TABLE2_ARMS,
    Arm,
    build_schedule,
    dense_sample_cache,
    evaluate_model,
    load_stage_model,
    median_by_method,
    pretrain,
    prune_run,
    run_experiment,
)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "criterion", None):
        cfg.plan_criterion = args.criterion
    if getattr(args, "mode", None):
        cfg.plan_mode = args.mode
    return cfg


def cmd_pretrain(args) -> dict:
    cfg = _load_config(args)
    paths = [pretrain(cfg, seed, Path(cfg.out_dir) / "pretrain")
             for seed in cfg.seeds]
    return {"command": "pretrain", "checkpoints": paths}


def cmd_prune(args) -> dict:
    cfg = _load_config(args)
    arm = Arm("prune", cfg.plan_criterion, cfg.plan_mode)
    reports = []
    for seed in cfg.seeds:
        pre = pretrain(cfg, seed, Path(cfg.out_dir) / "pretrain")
        dense = load_stage_model(cfg, seed, pre)
        dense_samples = dense_sample_cache(cfg, dense)
        out = Path(cfg.out_dir) / "prune" / f"seed{seed}"
        reports.append(prune_run(cfg, seed, pre, out, arm=arm,
                                 dense_samples=dense_samples))
    return {"command": "prune", "reports": reports}


def _checkpoint_arg(args, cfg: RunConfig) -> Path:
    if args.checkpoint:
        return Path(args.checkpoint)
    stage = args.stage or "finetune"
    seed = cfg.seeds[0]
    if stage == "pretrain":
        return Path(cfg.out_dir) / "pretrain" / f"pretrain_seed{seed}.ckpt"
    return Path(cfg.out_dir) / "prune" / f"seed{seed}" / f"{stage}.ckpt"


def cmd_sample(args) -> dict:
    cfg = _load_config(args)
    path = _checkpoint_arg(args, cfg)
    if not path.exists():
        raise FileNotFoundError(f"missing checkpoint {path}")
    model = load_stage_model(cfg, cfg.seeds[0], path)
    samples = sample_ddim(model, build_schedule(cfg), args.n,
                          cfg.eval_substeps, noise_seed=cfg.eval_seed)
    out = Path(args.out or cfg.out_dir) / "samples.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, {"samples": samples},
                    {"stage": "samples", "source": str(path)})
    return {"command": "sample", "n": args.n, "path": str(out)}


def cmd_evaluate(args) -> dict:
    cfg = _load_config(args)
    path = _checkpoint_arg(args, cfg)
    if not path.exists():
        raise FileNotFoundError(f"missing checkpoint {path}")
    seed = cfg.seeds[0]
    model = load_stage_model(cfg, seed, path)
    pre = Path(cfg.out_dir) / "pretrain" / f"pretrain_seed{seed}.ckpt"
    dense_samples = None
    if pre.exists() and pre != path:
        dense_samples = dense_sample_cache(cfg, load_stage_model(cfg, seed, pre))
    quality = evaluate_model(cfg, model, dense_samples, seed)
    return {"command": "evaluate", "checkpoint": str(path),
            "metrics": quality.as_dict()}


def _experiment(args, name: str, arms, trace: bool = False) -> dict:
    cfg = _load_config(args)
    out = run_experiment(cfg, name, arms, Path(cfg.out_dir) / name,
                         trace=trace)
    summary = {
        "command": name,
        "results_csv": out["results_csv"],
        "median_frechet": median_by_method(out["rows"], "frechet"),
        "median_ssim": median_by_method(out["rows"], "ssim"),
        "rows": len(out["rows"]),
    }
    if "trace_csv" in out:
        summary["trace_csv"] = out["trace_csv"]
    return summary


def cmd_table1(args) -> dict:
    return _experiment(args, "table1", TABLE1_ARMS)


def cmd_table2(args) -> dict:
    return _experiment(args, "table2", TABLE2_ARMS)


def cmd_fig2(args) -> dict:
    return _experiment(args, "fig2", FIG2_ARMS, trace=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        "table1": cmd_table1,
        "table2": cmd_table2,
        "fig2": cmd_fig2,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--stage", default=None,
                       help="checkpoint stage (sample/evaluate)")
        p.add_argument("--criterion", default=None)
        p.add_argument("--mode", default=None)
        p.add_argument("--checkpoint", default=None,
                       help="explicit checkpoint path")
        if name == "sample":
            p.add_argument("--n", type=int, default=1000)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"error: checkpoint: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 5
    except FloatingPointError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 6
    json.dump(summary, sys.stdout, indent=2, default=float)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
