import argparse
import csv
import hashlib
import json
import sys

import numpy as np
import pytest

from flowprune import pipeline
from flowprune.checkpoint import load_checkpoint, save_checkpoint
from flowprune.cli import _load_config, build_parser, main
from flowprune.config import RunConfig, dump_kv
from test_checkpoint import (
    reference_container,
    twice_named_container,
    v1_container,
)


@pytest.fixture(scope="module")
def small_cfg_path(tmp_path_factory):
    """A config small enough for CLI smoke tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = RunConfig(
        dataset_size=512,
        model_hidden=12,
        model_depth=2,
        model_temb_dim=8,
        diffusion_t=50,
        diffusion_beta_start=1e-3,
        diffusion_beta_end=0.05,
        train_batch=32,
        pretrain_steps=60,
        plan_s=0.5,
        plan_total_steps=40,
        plan_m_iters=4,
        plan_n_iters=2,
        plan_interval=5,
        plan_criterion="magnitude",
        plan_score_batches=1,
        plan_score_batch_size=16,
        eval_samples=64,
        eval_substeps=10,
        trace_samples=32,
        trace_substeps=5,
        seeds=[0],
        out_dir=str(root / "runs"),
    )
    path = root / "run.cfg"
    cfg.save(path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out


def test_missing_config_is_machine_parseable_error(capsys, tmp_path):
    code, out = run_cli(capsys, "pretrain", "--config", str(tmp_path / "no.cfg"))
    assert code != 0
    err_lines = [l for l in out.err.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: config:")


def test_pretrain_then_prune_and_evaluate(capsys, small_cfg_path):
    code, out = run_cli(capsys, "pretrain", "--config", str(small_cfg_path))
    assert code == 0
    summary = json.loads(out.out)
    assert summary["command"] == "pretrain"
    assert all(p.endswith(".ckpt") for p in summary["checkpoints"])

    code, out = run_cli(capsys, "prune", "--config", str(small_cfg_path))
    assert code == 0
    report = json.loads(out.out)["reports"][0]
    assert report["metrics"]["nonzero_params"] < report["metrics"]["dense_params"]

    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--stage", "finetune")
    assert code == 0
    evaluated = json.loads(out.out)
    # stage isolation: metrics recomputed from the checkpoint match the
    # metrics recorded when the run produced it
    for key in ("frechet", "ssim", "mode_precision", "modes",
                "nonzero_params", "macs_sparse"):
        assert evaluated["metrics"][key] == report["metrics"][key]


def test_stages_are_found_where_prune_wrote_them(capsys, small_cfg_path):
    code, out = run_cli(capsys, "prune", "--config", str(small_cfg_path))
    assert code == 0
    written = json.loads(out.out)["reports"][0]["checkpoints"]
    for stage in ("pretrain", "hard_prune"):
        code, out = run_cli(capsys, "evaluate", "--config",
                            str(small_cfg_path), "--stage", stage)
        assert code == 0
        assert json.loads(out.out)["checkpoint"] == written[stage]


def test_sample_writes_container(capsys, small_cfg_path):
    code, out = run_cli(capsys, "sample", "--config", str(small_cfg_path),
                        "--stage", "pretrain", "--n", "32")
    assert code == 0
    path = json.loads(out.out)["path"]
    tensors, meta = load_checkpoint(path)
    assert tensors["samples"].shape == (32, 2)
    assert meta["stage"] == "samples"


@pytest.mark.parametrize("n", [0, -1])
def test_sample_n_below_one_is_usage_error(capsys, small_cfg_path, tmp_path,
                                           n):
    code, out = run_cli(capsys, "sample", "--config", str(small_cfg_path),
                        "--stage", "pretrain", "--out", str(tmp_path / "s"),
                        "--n", str(n))
    assert code == 2
    assert one_error_line(out, "error: usage:") == (
        f"error: usage: argument --n: must be at least 1, got {n}")
    assert not (tmp_path / "s").exists()


def test_missing_checkpoint_error(capsys, small_cfg_path, tmp_path):
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(tmp_path / "ghost.ckpt"))
    assert code != 0
    assert out.err.startswith("error: config:")


def test_version_1_checkpoint_is_checkpoint_error(capsys, small_cfg_path,
                                                  tmp_path):
    old = tmp_path / "old.ckpt"
    old.write_bytes(v1_container({"layer0.w": np.zeros((12, 2))}))
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(old))
    assert code == 3
    err_lines = [l for l in out.err.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: checkpoint:")
    assert "unsupported version 1" in err_lines[0]
    # a whole version-2 checkpoint of the model, float64 throughout
    cfg = RunConfig.load(small_cfg_path)
    old.write_bytes(reference_container(
        pipeline.model_tensors(pipeline.build_model(cfg, 0)),
        {"stage": "pretrain"}, version=2))
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(old))
    assert code == 3
    assert "unsupported version 2" in one_error_line(out, "error: checkpoint:")


def test_tensor_named_twice_is_checkpoint_error(capsys, small_cfg_path,
                                                tmp_path):
    twice = tmp_path / "twice.ckpt"
    twice.write_bytes(twice_named_container())
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(twice))
    assert code == 3
    line = one_error_line(out, "error: checkpoint:")
    assert "tensor 'w' appears twice" in line


def one_error_line(out, prefix):
    err_lines = [l for l in out.err.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith(prefix)
    return err_lines[0]


@pytest.mark.parametrize("name, value, expect", [
    ("layer0.b", np.array([5.0]), ["'layer0.b'", "(1,)", "(12,)"]),
    ("layer1.w.mask", np.ones((3, 3)), ["'layer1.w.mask'", "(3, 3)",
                                        "(12, 12)"]),
    ("out.b", None, ["missing", "'out.b'"]),
])
def test_checkpoint_unlike_the_model_is_checkpoint_error(
        capsys, small_cfg_path, tmp_path, name, value, expect):
    cfg = RunConfig.load(small_cfg_path)
    tensors = pipeline.model_tensors(pipeline.build_model(cfg, 0))
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, {"stage": "pretrain"})
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(bad))
    assert code == 3
    line = one_error_line(out, "error: checkpoint:")
    assert all(part in line for part in expect)


def test_os_errors_are_io_errors(capsys, small_cfg_path, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    code, out = run_cli(capsys, "pretrain", "--config", str(small_cfg_path),
                        "--out", str(plain))
    assert code == 7
    one_error_line(out, "error: io:")
    code, out = run_cli(capsys, "evaluate", "--config", str(small_cfg_path),
                        "--checkpoint", str(tmp_path))
    assert code == 7
    one_error_line(out, "error: io:")


# 2^54 rows: their int64 or [n, 2] float64 array takes 2^57 or 2^58 bytes,
# beyond any x86-64 address space, so numpy fails at once and touches no
# memory under any overcommit setting
UNALLOCATABLE_ROWS = 2**54


def test_allocation_beyond_memory_is_memory_error(capsys, small_cfg_path,
                                                 tmp_path):
    code, out = run_cli(capsys, "pretrain", "--config", str(small_cfg_path))
    assert code == 0
    code, out = run_cli(capsys, "sample", "--config", str(small_cfg_path),
                        "--stage", "pretrain", "--n", str(UNALLOCATABLE_ROWS))
    assert code == 8
    assert "Unable to allocate" in one_error_line(out, "error: memory:")
    cfg = RunConfig.load(small_cfg_path)
    cfg.dataset_size = UNALLOCATABLE_ROWS
    cfg.out_dir = str(tmp_path / "huge")
    path = tmp_path / "huge.cfg"
    cfg.save(path)
    code, out = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 8
    assert "Unable to allocate" in one_error_line(out, "error: memory:")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_weight_is_numeric_error(capsys, small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "numeric")
    path = tmp_path / "numeric.cfg"
    cfg.save(path)
    code, out = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 0
    tensors, meta = load_checkpoint(
        json.loads(out.out)["checkpoints"][0],
        into=pipeline.model_tensors(pipeline.build_model(cfg, 0)))
    tensors["layer0.w"][0, 0] = np.inf
    bad = tmp_path / "inf.ckpt"
    save_checkpoint(bad, tensors, meta)
    code, out = run_cli(capsys, "evaluate", "--config", str(path),
                        "--checkpoint", str(bad))
    assert code == 6
    err_lines = [l for l in out.err.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: numeric: non-finite values")


def prune_rejected(capsys, small_cfg_path, tmp_path, key, value,
                   text=None) -> str:
    """Run ``prune`` on the small config with ``text`` (by default the line
    ``key = value``) in place of its own line for ``key``; assert it exits 2
    with one ``error: config:`` line before writing anything, and return
    that line."""
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    path = tmp_path / "bad.cfg"
    lines = [line for line in cfg.to_text().splitlines(keepends=True)
             if not line.startswith(f"{key} = ")]
    path.write_text("".join(lines) + (text or f"{key} = {value}\n"))
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 2
    line = one_error_line(out, "error: config:")
    assert not (tmp_path / "runs").exists()
    return line


@pytest.mark.parametrize("key, value", [
    ("plan_s", 0.0),
    ("plan_mode", '"bogus"'),
    ("plan_m_iters", -1),
    ("plan_n_iters", -1),
    ("plan_interval", 0),
    ("plan_score_batches", 0),
    ("plan_score_batch_size", 0),
    ("train_batch", 0),
])
def test_bad_plan_rejected_before_any_stage(capsys, small_cfg_path, tmp_path,
                                            key, value):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
    assert str(value).strip('"') in line


@pytest.mark.parametrize("key", ["model_hidden", "model_depth",
                                 "model_temb_dim"])
def test_model_size_below_one_rejected_before_any_stage(
        capsys, small_cfg_path, tmp_path, key):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, 0)
    assert "must be at least 1, got 0" in line


@pytest.mark.parametrize("key, value, message", [
    ("eval_samples", 0, "at least dim + 1 = 3, got 0"),
    ("eval_samples", 2, "at least dim + 1 = 3, got 2"),
    ("trace_samples", 2, "at least dim + 1 = 3, got 2"),
    ("eval_substeps", 0, "in [1, diffusion_t = 50], got 0"),
    ("eval_substeps", 51, "in [1, diffusion_t = 50], got 51"),
    ("trace_substeps", 0, "in [1, diffusion_t = 50], got 0"),
    ("trace_substeps", 51, "in [1, diffusion_t = 50], got 51"),
])
def test_eval_size_out_of_range_rejected_before_any_stage(
        capsys, small_cfg_path, tmp_path, key, value, message):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
    assert line == f"error: config: {key} must be {message}"


def test_eval_sizes_at_their_limits_load(small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.eval_samples = cfg.trace_samples = 3
    cfg.eval_substeps, cfg.trace_substeps = 1, cfg.diffusion_t
    path = tmp_path / "edge.cfg"
    cfg.save(path)
    args = build_parser().parse_args(["prune", "--config", str(path)])
    assert _load_config(args) == cfg


@pytest.mark.parametrize("key, value, message", [
    ("dataset_size", 0, "dataset size must be at least 1, got 0"),
    ("diffusion_beta_end", 1.5, "beta_end < 1, got 0.001 and 1.5"),
    ("pretrain_steps", -1, "pretrain_steps must be at least 0, got -1"),
    ("seeds", -1, "seeds must be at least 0, got [-1]"),
    ("seeds", "[0,1,0]", "seeds must not repeat, got [0, 1, 0]"),
    ("dataset_seed", -2, "dataset_seed must be at least 0, got -2"),
    ("eval_seed", -3, "eval_seed must be at least 0, got -3"),
    ("train_lr", -0.01, "train_lr must be finite and above 0, got -0.01"),
    ("train_lr", 0, "train_lr must be finite and above 0, got 0.0"),
    # a float literal that overflows to inf
    ("train_lr", "1e400", "train_lr must be finite and above 0, got inf"),
    # TOML spells the non-finite floats
    ("train_lr", "inf", "train_lr must be finite and above 0, got inf"),
    ("plan_s", "nan", "target sparsity s must lie in (0, 1), got nan"),
    ("diffusion_beta_start", "nan",
     "need 0 < beta_start <= beta_end < 1, got nan and 0.05"),
])
def test_value_a_stage_rejects_fails_at_load(capsys, small_cfg_path,
                                             tmp_path, key, value, message):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
    assert message in line


@pytest.mark.parametrize("key, text, message", [
    ("model", "[model]\nhidden = 3\n", "unknown config keys: ['model']"),
    ("plan_s", "plan_s = {value = 0.5}\n",
     "plan_s: expected float, got {'value': 0.5}"),
    ("seeds", "seeds = [[0, 1]]\n", "seeds: expected list[int], got [[0, 1]]"),
    ("out_dir", "out_dir = 2026-10-19\n",
     "out_dir: expected str, got datetime.date(2026, 10, 19)"),
    # spellings that configs used before they were TOML
    ("seeds", "seeds = 0, 1\n",
     "Expected newline or end of document after a statement"),
    ("plan_mode", "plan_mode = one-shot\n", "Invalid value"),
])
def test_toml_that_is_no_config_value_is_config_error(
        capsys, small_cfg_path, tmp_path, key, text, message):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, None, text)
    assert line.startswith(f"error: config: {message}")


def test_empty_seeds_rejected_unless_seed_given(capsys, small_cfg_path,
                                                tmp_path):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, "seeds", "[]")
    assert line == "error: config: seeds must not be empty"
    args = build_parser().parse_args(
        ["prune", "--config", str(tmp_path / "bad.cfg"), "--seed", "3"])
    assert _load_config(args).seeds == [3]


def test_duplicate_key_is_config_error(capsys, small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    path = tmp_path / "twice.cfg"
    path.write_text(cfg.to_text() + "plan_s = 0.75\n")
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 2
    line = one_error_line(out, "error: config:")
    assert line == ("error: config: Cannot overwrite a value (at line "
                    f"{len(cfg.to_text().splitlines()) + 1}, column 14)")
    assert not (tmp_path / "runs").exists()


def test_config_that_is_not_utf8_is_config_error(capsys, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9, saved as Latin-1\nout_dir = \""
                     + str(tmp_path / "runs").encode() + b"\"\n")
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 2
    line = one_error_line(out, "error: config:")
    assert "is not UTF-8 text" in line and "0xe9" in line
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("experiment", ["table1", "table2", "fig2"])
@pytest.mark.parametrize("plan, message", [
    pytest.param({"plan_m_iters": 2, "plan_n_iters": 5},
                 "need 0 < n_iters <= m_iters", id="n_iters"),
    pytest.param({"plan_interval": 20, "plan_total_steps": 10},
                 "prune stage exceeds the total step budget", id="budget"),
])
def test_experiment_arm_plans_checked_at_load(capsys, small_cfg_path,
                                              tmp_path, experiment, plan,
                                              message):
    """A one-shot config leaves the iteration keys unchecked by its own
    plan; every experiment has an arm that reads them, and ``grid`` rejects
    them at load."""
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    cfg.plan_mode = "one-shot"
    for key, value in plan.items():
        setattr(cfg, key, value)
    path = tmp_path / "one-shot.cfg"
    cfg.save(path)
    args = build_parser().parse_args(["prune", "--config", str(path)])
    assert _load_config(args) == cfg
    with pytest.raises(ValueError, match=message):
        for arm in pipeline.GRID:
            if arm.experiment == experiment:
                pipeline.build_plan(cfg, arm)
    code, out = run_cli(capsys, "grid", "--config", str(path))
    assert code == 2
    assert one_error_line(out, "error: config:") == f"error: config: {message}"
    assert not (tmp_path / "runs").exists()


def test_removed_plan_key_is_unknown(capsys, small_cfg_path, tmp_path):
    for key, value in [("plan_granularity", '"element"'),
                       ("model_activation", '"silu"'), ("train_beta1", 0.9),
                       ("train_beta2", 0.999),
                       ("dataset_kind", '"ring-mixture"')]:
        line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
        assert f"unknown config keys: ['{key}']" in line


@pytest.mark.parametrize("extra, message", [
    (["--criterion", "taylor"], "unrecognized arguments: --criterion taylor"),
    (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
])
def test_usage_errors_are_one_line(capsys, small_cfg_path, tmp_path, extra,
                                   message):
    code, out = run_cli(capsys, "grid", "--config", str(small_cfg_path),
                        "--out", str(tmp_path), *extra)
    assert code == 2
    assert one_error_line(out, "error: usage:") == f"error: usage: {message}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["table1", "table2", "fig2"])
def test_experiment_commands_are_gone(capsys, small_cfg_path, command):
    """The experiments are views of one ``grid`` run."""
    code, out = run_cli(capsys, command, "--config", str(small_cfg_path))
    assert code == 2
    assert one_error_line(out, "error: usage:").startswith(
        f"error: usage: argument command: invalid choice: '{command}'")


def test_missing_config_flag_is_usage_error(capsys):
    code, out = run_cli(capsys, "pretrain")
    assert code == 2
    assert one_error_line(out, "error: usage:") == (
        "error: usage: the following arguments are required: --config")


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: {flag for action in parser._actions
                  for flag in action.option_strings
                  if flag not in ("-h", "--help")}
           for name, parser in sub.choices.items()}
    common = {"--config", "--seed", "--out"}
    loads = common | {"--stage", "--checkpoint"}
    assert got == {"pretrain": common, "prune": common,
                   "sample": loads | {"--n"}, "evaluate": loads,
                   "grid": common}
    assert sum(len(flags) for flags in got.values()) == 20


def two_seed_config(small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.seeds = [0, 1]
    path = tmp_path / "two-seeds.cfg"
    cfg.save(path)
    return cfg, path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_grid_samples_the_dense_model_once_per_seed(capsys, small_cfg_path,
                                                    tmp_path, monkeypatch):
    cfg, path = two_seed_config(small_cfg_path, tmp_path)
    sampled, evaluated, reads = [], [], []
    real_sample, real_measure = pipeline.sample_ddim, pipeline.measure

    def unpruned(model):
        return all((m == 1).all() for m in model.masks.values())

    def counting(model, sched, n, *args, **kwargs):
        sampled.append(n)
        if n == cfg.eval_samples:  # not a trace
            evaluated.append(unpruned(model))
        return real_sample(model, sched, n, *args, **kwargs)

    def measuring(run_cfg, model, n, *args, **kwargs):
        assert n in (cfg.eval_samples, cfg.trace_samples)
        reads.append("T" if n == cfg.trace_samples
                     else "D" if unpruned(model) else "A")
        return real_measure(run_cfg, model, n, *args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_ddim", counting)
    monkeypatch.setattr(pipeline, "measure", measuring)
    code, out = run_cli(capsys, "grid", "--config", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    # per seed, one dense pass, then one per distinct arm
    assert evaluated == 2 * ([True] + 9 * [False])
    # every read is a measure call: per seed the dense read, then each
    # distinct arm's run, a traced run's trace reads before its arm read
    runs = list(dict.fromkeys((a.criterion, a.mode) for a in pipeline.GRID))
    traced = {(a.criterion, a.mode) for a in pipeline.GRID
              if a.experiment == "fig2"}
    seed_reads = "D" + "".join("T" * cfg.plan_m_iters * (run in traced) + "A"
                               for run in runs)
    assert seed_reads.count("A") == 9
    assert seed_reads.count("T") == 2 * cfg.plan_m_iters
    assert "".join(reads) == 2 * seed_reads
    assert len(sampled) == len(reads)
    dense = [r for r in read_csv(json.loads(out.out)["results_csv"])
             if r["method"] == "dense"]
    assert [(r["experiment"], r["seed"]) for r in dense] == [
        (e, s) for s in "01" for e in ("table1", "table2", "fig2")]
    assert all(float(r["ssim"]) == 1.0 for r in dense)


def test_grid_runs_each_distinct_arm_once_per_seed(capsys, small_cfg_path,
                                                   tmp_path, monkeypatch):
    cfg, path = two_seed_config(small_cfg_path, tmp_path)
    runs = []
    real = pipeline.prune_run

    def counting(cfg, seed, pre, out_dir, arm, **kwargs):
        runs.append((seed, arm.criterion, arm.mode, kwargs["quality_trace"]))
        return real(cfg, seed, pre, out_dir, arm, **kwargs)

    monkeypatch.setattr(pipeline, "prune_run", counting)
    code, out = run_cli(capsys, "grid", "--config", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    assert len(runs) == 2 * 9 and len(set(runs)) == len(runs)
    # only the runs a fig2 row reads are traced
    assert {r[1:3] for r in runs if r[3]} == {
        ("gradient-flow", "progressive-soft"), ("taylor", "progressive-soft")}
    summary = json.loads(out.out)
    rows = read_csv(summary["results_csv"])
    assert summary["rows"] == len(rows) == 2 * (3 + len(pipeline.GRID))
    traces = read_csv(summary["trace_csv"])
    assert {(r["method"], r["seed"]) for r in traces} == {
        (m, s) for m in ("gradient-flow", "taylor") for s in "01"}
    assert len(traces) == 4 * cfg.plan_m_iters
    assert all(0.0 <= float(r["mode_precision"]) <= 1.0 for r in traces)


def test_grid_medians_keep_experiments_apart(capsys, small_cfg_path,
                                             tmp_path):
    _, path = two_seed_config(small_cfg_path, tmp_path)
    code, out = run_cli(capsys, "grid", "--config", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out.out)
    rows = read_csv(summary["results_csv"])
    fields = ("frechet", "ssim", "mode_precision", "modes")
    assert {k for k in summary if k.startswith("median_")} == {
        f"median_{field}" for field in fields}
    for field in fields:
        medians = summary[f"median_{field}"]
        for experiment in ("table1", "fig2"):
            # table1's one-shot taylor and fig2's progressive-soft taylor
            # are different arms
            got = [float(r[field]) for r in rows if r["method"] == "taylor"
                   and r["experiment"] == experiment]
            assert len(got) == 2
            assert medians[experiment]["taylor"] == np.median(got)
        assert set(medians) == {"table1", "table2", "fig2"}


def test_grid_prints_paired_counts(capsys, small_cfg_path, tmp_path):
    _, path = two_seed_config(small_cfg_path, tmp_path)
    code, out = run_cli(capsys, "grid", "--config", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out.out)
    fields = ("frechet", "ssim", "mode_precision", "modes")
    value = {(r["experiment"], r["method"], r["seed"], field): float(r[field])
             for r in read_csv(summary["results_csv"]) for field in fields}
    want = []
    for experiment, ours, others in (
            ("table1", "gradient-flow", ["dense", "magnitude", "taylor"]),
            ("table2", "+progressive-soft",
             ["dense", "iterative/magnitude", "iterative/taylor",
              "iterative/gradient-flow", "+soft", "+progressive"])):
        for field in fields:
            for other in others:
                wins = 0
                for seed in "01":
                    a = value[experiment, ours, seed, field]
                    b = value[experiment, other, seed, field]
                    wins += a < b if field == "frechet" else a > b
                want.append(f"{experiment} {field}: {ours} beats {other} on "
                            f"{wins} of 2 seeds")
    assert summary["paired"] == want
    # each count is one line of the printed summary
    printed = [line.strip().rstrip(",") for line in out.out.splitlines()]
    assert all(json.dumps(line) in printed for line in want)


def test_experiments_share_one_pretrain_per_seed(capsys, small_cfg_path,
                                                 tmp_path, monkeypatch):
    _, path = two_seed_config(small_cfg_path, tmp_path)
    pretrained = []
    real = pipeline.train

    def counting(model, sched, data, steps, opt, seed, stage, **kwargs):
        if stage == "pretrain":
            pretrained.append(seed)
        return real(model, sched, data, steps, opt, seed, stage, **kwargs)

    monkeypatch.setattr(pipeline, "train", counting)
    for command in ("prune", "grid"):
        code, _ = run_cli(capsys, command, "--config", str(path),
                          "--out", str(tmp_path / "runs"))
        assert code == 0
    assert pretrained == [0, 1]
    assert sorted(p.name for p in (tmp_path / "runs" / "pretrain").iterdir()) \
        == ["pretrain_seed0.ckpt", "pretrain_seed1.ckpt"]


def test_pretrain_reuses_only_a_checkpoint_of_the_same_config(
        small_cfg_path, tmp_path, monkeypatch):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    trained = []
    real = pipeline.train

    def counting(*args, **kwargs):
        trained.append(kwargs["steps"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counting)
    path = pipeline.pretrain(cfg, 0)
    assert path == str(pipeline.stage_path(cfg, "pretrain", 0))
    assert pipeline.pretrain(cfg, 0) == path
    assert trained == [60]
    cfg.pretrain_steps = 70
    assert pipeline.pretrain(cfg, 0) == path
    assert trained == [60, 70]
    _, meta = load_checkpoint(path)
    assert meta["pretrain_hash"] == cfg.pretrain_digest()
    assert meta["iteration"] == 70


def test_pretrain_reuses_a_checkpoint_hashed_before_configs_were_toml(
        small_cfg_path, tmp_path, monkeypatch):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    # the small config's pretrain_hash while configs had their own grammar
    old = "29fa8a5dd9ee6a20"
    assert cfg.pretrain_digest() == old
    ckpt = pipeline.stage_path(cfg, "pretrain", 0)
    ckpt.parent.mkdir(parents=True)
    save_checkpoint(ckpt, {"layer0.w": np.zeros((12, 2))},
                    {"pretrain_hash": old})
    monkeypatch.setattr(pipeline, "train", None)  # a retrain would fail
    assert pipeline.pretrain(cfg, 0) == str(ckpt)


def float64_era_pretrain_digest(cfg):
    """``pretrain_digest`` as it was while training ran in float64: the
    fields alone, without the training precision, and the since-removed
    ``dataset_kind`` key at its one value."""
    keys = ["dataset_size", "dataset_seed", "model_hidden", "model_depth",
            "model_temb_dim", "diffusion_t", "diffusion_beta_start",
            "diffusion_beta_end", "train_lr", "train_batch", "pretrain_steps"]
    items = {"dataset_kind": "ring-mixture",
             **{k: getattr(cfg, k) for k in keys}}
    return hashlib.sha256(dump_kv(items).encode("utf-8")).hexdigest()[:16]


def test_pretrain_retrains_a_float64_era_checkpoint(small_cfg_path, tmp_path,
                                                    monkeypatch):
    # the old formula, checked against the value it was pinned to
    assert float64_era_pretrain_digest(RunConfig()) == "306221b9a53e5a85"
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    ckpt = pipeline.stage_path(cfg, "pretrain", 0)
    ckpt.parent.mkdir(parents=True)
    old = float64_era_pretrain_digest(cfg)
    assert old != cfg.pretrain_digest()
    save_checkpoint(ckpt, {"layer0.w": np.zeros((12, 2))},
                    {"pretrain_hash": old})
    trained = []
    real = pipeline.train

    def counting(*args, **kwargs):
        trained.append(kwargs["steps"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counting)
    assert pipeline.pretrain(cfg, 0) == str(ckpt)
    assert trained == [60]
    _, meta = load_checkpoint(ckpt)
    assert meta["pretrain_hash"] == cfg.pretrain_digest()


@pytest.mark.parametrize("damage", ["flipped-byte", "version-1", "version-2"])
def test_pretrain_overwrites_a_checkpoint_it_cannot_read(
        capsys, small_cfg_path, tmp_path, damage):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    path = tmp_path / "run.cfg"
    cfg.save(path)
    ckpt = pipeline.stage_path(cfg, "pretrain", 0)
    ckpt.parent.mkdir(parents=True)
    if damage == "flipped-byte":
        save_checkpoint(ckpt, {"x": np.zeros(4)},
                        {"pretrain_hash": cfg.pretrain_digest()})
        data = bytearray(ckpt.read_bytes())
        data[-12] ^= 0xFF
        ckpt.write_bytes(bytes(data))
    elif damage == "version-1":
        ckpt.write_bytes(v1_container({"layer0.w": np.zeros((12, 2))}))
    else:
        # readable but for its version, and hashed for this config
        ckpt.write_bytes(reference_container(
            pipeline.model_tensors(pipeline.build_model(cfg, 0)),
            {"pretrain_hash": cfg.pretrain_digest()}, version=2))
    code, _ = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 0
    _, meta = load_checkpoint(ckpt)
    assert meta["pretrain_hash"] == cfg.pretrain_digest()


def test_evaluate_knows_the_pretrain_checkpoint_by_its_file(
        capsys, small_cfg_path, monkeypatch):
    assert main(["pretrain", "--config", str(small_cfg_path)]) == 0
    capsys.readouterr()
    cfg = RunConfig.load(small_cfg_path)
    pre = pipeline.stage_path(cfg, "pretrain", 0)
    calls = []
    real = pipeline.sample_ddim

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_ddim", counting)
    monkeypatch.chdir(pre.parent)
    for spelling in (pre.resolve(), pre.name):
        calls.clear()
        code, out = run_cli(capsys, "evaluate", "--config",
                            str(small_cfg_path), "--checkpoint", str(spelling))
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out.out)["metrics"]["ssim"] == 1.0


def test_prune_stages_train_on_the_configured_batch(small_cfg_path, tmp_path,
                                                    monkeypatch):
    from flowprune import diffusion, scheduler

    cfg = RunConfig.load(small_cfg_path)
    assert cfg.train_batch == 32
    drawn, by_stage = [], {}
    real_draw, real_train = diffusion.draw_batch, scheduler.train

    def drawing(data, sched, batch, rng):
        drawn.append(batch)
        return real_draw(data, sched, batch, rng)

    def training(*args, stage, **kwargs):
        start = len(drawn)
        trace = real_train(*args, stage=stage, **kwargs)
        by_stage.setdefault(stage, set()).update(drawn[start:])
        return trace

    monkeypatch.setattr(diffusion, "draw_batch", drawing)
    monkeypatch.setattr(scheduler, "train", training)
    pre = pipeline.pretrain(cfg, 0, tmp_path / "pretrain")
    pipeline.prune_run(cfg, 0, pre, tmp_path / "prune")
    assert by_stage == {"prune-train": {32}, "finetune": {32}}


def test_trace_compares_against_trace_samples_reference_points(
        small_cfg_path, tmp_path, monkeypatch):
    cfg = RunConfig.load(small_cfg_path)
    cfg.eval_samples, cfg.trace_samples, cfg.trace_substeps = 50, 1200, 1
    sizes = []
    real = pipeline.frechet_distance

    def recording(a, b):
        sizes.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(pipeline, "frechet_distance", recording)
    pre = pipeline.pretrain(cfg, 0, tmp_path / "pretrain")
    report = pipeline.prune_run(cfg, 0, pre, tmp_path / "prune",
                                quality_trace=True)
    # each trace point, then the evaluation
    traced = len(report["quality_trace"])
    assert traced > 0
    # the trace keeps only trace.csv's columns of each read
    assert all(set(q) == {"frechet", "mode_precision"}
               for _, q in report["quality_trace"])
    assert sizes == [(1200, 1200)] * traced + [(50, 50)]


def test_evaluation_reference_does_not_depend_on_trace_samples(
        small_cfg_path, monkeypatch):
    cfg = RunConfig.load(small_cfg_path)
    refs = []
    monkeypatch.setattr(pipeline, "frechet_distance",
                        lambda a, b: refs.append(b) or 0.0)
    model = pipeline.build_model(cfg, 0)
    for n in (32, 1200):
        cfg.trace_samples = n
        pipeline.evaluate_model(cfg, model, None, 0)
    assert len(refs[0]) == cfg.eval_samples
    assert np.array_equal(refs[0], refs[1])


@pytest.mark.parametrize("criterion, mode", [
    ("gradient-flow", "progressive-soft"),
    ("taylor", "iterative"),
    ("magnitude", "progressive-soft"),
    ("taylor", "one-shot"),
])
def test_prune_run_draws_a_score_set_and_a_diagnostic_batch(
        small_cfg_path, tmp_path, monkeypatch, criterion, mode):
    from flowprune import criteria

    cfg = RunConfig.load(small_cfg_path)
    cfg.plan_criterion, cfg.plan_mode = criterion, mode
    plan = pipeline.build_plan(cfg)
    drawn = []
    real = criteria.score_batches

    def counting(sched, data, seed, n_batches=4, batch_size=256):
        drawn.append((seed, n_batches, batch_size))
        return real(sched, data, seed, n_batches, batch_size)

    # every binding in the package, so a draw from any module is counted
    for name, module in list(sys.modules.items()):
        if (name.startswith("flowprune")
                and getattr(module, "score_batches", None) is real):
            monkeypatch.setattr(module, "score_batches", counting)
    pre = pipeline.pretrain(cfg, 3, tmp_path / "pretrain")
    pipeline.prune_run(cfg, 3, pre, tmp_path / "prune")
    # seed 3's streams 0 and 1: (3 * 1_000_003 + stream) & 0x7FFFFFFF
    size = plan.score_batch_size
    assert drawn == [(3_000_009, plan.score_n_batches, size),
                     (3_000_010, 1, size)]


def test_prune_run_recycles_float32_buffers_only(small_cfg_path, tmp_path,
                                                 monkeypatch):
    """Training, scoring and the gradient norm all replay the float32
    model, so after a gradient-flow prune run no record of the model
    holds a free-list buffer of another dtype."""
    cfg = RunConfig.load(small_cfg_path)
    cfg.plan_criterion = "gradient-flow"
    models = []
    real = pipeline.load_stage_model

    def loading(*args):
        models.append(real(*args))
        return models[-1]

    monkeypatch.setattr(pipeline, "load_stage_model", loading)
    pre = pipeline.pretrain(cfg, 0, tmp_path / "pretrain")
    pipeline.prune_run(cfg, 0, pre, tmp_path / "prune")
    (model,) = models
    score_key = ("loss", pipeline.build_plan(cfg).score_batch_size)
    assert score_key in model._records
    pools = {key: {dtype for (_, dtype), bufs in rec._free.items() if bufs}
             for key, rec in model._records.items()}
    assert pools[score_key]
    assert all(dtypes <= {np.dtype(np.float32)} for dtypes in pools.values())


def test_hard_prune_ranks_on_the_soft_loops_score_set(small_cfg_path,
                                                       tmp_path, monkeypatch):
    from flowprune import scheduler

    cfg = RunConfig.load(small_cfg_path)
    cfg.plan_criterion = "gradient-flow"
    plan = pipeline.build_plan(cfg)
    seen = []
    real = scheduler.compute_scores

    def recording(criterion, model, sched, batches):
        seen.append((criterion, batches))
        return real(criterion, model, sched, batches)

    monkeypatch.setattr(scheduler, "compute_scores", recording)
    pre = pipeline.pretrain(cfg, 0, tmp_path / "pretrain")
    pipeline.prune_run(cfg, 0, pre, tmp_path / "prune")
    assert [c for c, _ in seen] == ["gradient-flow"] * plan.m_iters + [
        plan.final_criterion]
    assert plan.final_criterion == "taylor"
    assert len(seen[0][1]) == plan.score_n_batches
    assert all(batches is seen[0][1] for _, batches in seen)


def test_every_arm_runs_the_row_group_regime_with_its_criterion():
    cfg = RunConfig()
    want = {
        "table1": [("magnitude", "one-shot", 0), ("taylor", "one-shot", 0),
                   ("gradient-flow", "progressive-soft", 40)],
        "table2": [("magnitude", "iterative", 40),
                   ("taylor", "iterative", 40),
                   ("gradient-flow", "iterative", 40),
                   ("gradient-flow", "iterative+soft", 40),
                   ("gradient-flow", "iterative+progressive", 40),
                   ("gradient-flow", "progressive-soft", 40)],
        "fig2": [("gradient-flow", "progressive-soft", 40),
                 ("taylor", "progressive-soft", 40)],
    }
    got = {}
    for arm in pipeline.GRID:
        plan = pipeline.build_plan(cfg, arm)
        assert plan.final_criterion == plan.criterion, arm
        if plan.m_iters:
            assert plan.granularity == "row-group", arm
        got.setdefault(arm.experiment, []).append(
            (plan.criterion, plan.mode, plan.m_iters))
    assert got == want
    # without an arm the plan is the config's
    plan = pipeline.build_plan(cfg)
    assert (plan.criterion, plan.mode, plan.m_iters, plan.granularity,
            plan.final_criterion) == (
        "gradient-flow", "progressive-soft", 40, "element", "taylor")
