import argparse
import csv
import json

import numpy as np
import pytest

from flowprune import pipeline
from flowprune.checkpoint import load_checkpoint, save_checkpoint
from flowprune.cli import _load_config, build_parser, main
from flowprune.config import RunConfig
from test_checkpoint import v1_container


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
    for key in ("frechet", "ssim", "nonzero_params", "macs_sparse"):
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_weight_is_numeric_error(capsys, small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "numeric")
    path = tmp_path / "numeric.cfg"
    cfg.save(path)
    code, out = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 0
    tensors, meta = load_checkpoint(json.loads(out.out)["checkpoints"][0])
    tensors["layer0.w"][0, 0] = np.inf
    bad = tmp_path / "inf.ckpt"
    save_checkpoint(bad, tensors, meta)
    code, out = run_cli(capsys, "evaluate", "--config", str(path),
                        "--checkpoint", str(bad))
    assert code == 6
    err_lines = [l for l in out.err.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: numeric: non-finite values")


def prune_rejected(capsys, small_cfg_path, tmp_path, key, value) -> str:
    """Run ``prune`` on the small config with the line ``key = value``
    added; assert it exits 2 with one ``error: config:`` line before
    writing anything, and return that line."""
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    path = tmp_path / "bad.cfg"
    path.write_text(cfg.to_text() + f"{key} = {value}\n")
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 2
    line = one_error_line(out, "error: config:")
    assert not (tmp_path / "runs").exists()
    return line


@pytest.mark.parametrize("key, value", [
    ("plan_s", 0.0),
    ("plan_mode", "bogus"),
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
    assert str(value) in line


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
    ("dataset_kind", "bogus", "unknown dataset kind 'bogus'"),
    ("dataset_size", 0, "dataset size must be at least 1, got 0"),
    ("diffusion_beta_end", 1.5, "beta_end < 1, got 0.001 and 1.5"),
    ("pretrain_steps", -1, "pretrain_steps must be at least 0, got -1"),
    ("seeds", -1, "seeds must be at least 0, got [-1]"),
    ("dataset_seed", -2, "dataset_seed must be at least 0, got -2"),
    ("eval_seed", -3, "eval_seed must be at least 0, got -3"),
    ("train_lr", -0.01, "train_lr must be finite and above 0, got -0.01"),
    ("train_lr", 0, "train_lr must be finite and above 0, got 0.0"),
    # a float literal that overflows to inf
    ("train_lr", "1e400", "train_lr must be finite and above 0, got inf"),
])
def test_value_a_stage_rejects_fails_at_load(capsys, small_cfg_path,
                                             tmp_path, key, value, message):
    line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
    assert message in line


def test_config_that_is_not_utf8_is_config_error(capsys, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9, saved as Latin-1\nout_dir = \""
                     + str(tmp_path / "runs").encode() + b"\"\n")
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 2
    line = one_error_line(out, "error: config:")
    assert "is not UTF-8 text" in line and "0xe9" in line
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["table1", "table2", "fig2"])
@pytest.mark.parametrize("plan, message", [
    pytest.param({"plan_m_iters": 2, "plan_n_iters": 5},
                 "need 0 < n_iters <= m_iters", id="n_iters"),
    pytest.param({"plan_interval": 20, "plan_total_steps": 10},
                 "prune stage exceeds the total step budget", id="budget"),
])
def test_experiment_arm_plans_checked_at_load(capsys, small_cfg_path,
                                              tmp_path, command, plan,
                                              message):
    """A one-shot config leaves the iteration keys unchecked by its own
    plan; an experiment whose arms read them rejects them at load."""
    cfg = RunConfig.load(small_cfg_path)
    cfg.out_dir = str(tmp_path / "runs")
    cfg.plan_mode = "one-shot"
    for key, value in plan.items():
        setattr(cfg, key, value)
    path = tmp_path / "one-shot.cfg"
    cfg.save(path)
    args = build_parser().parse_args(["prune", "--config", str(path)])
    assert _load_config(args) == cfg
    code, out = run_cli(capsys, command, "--config", str(path))
    assert code == 2
    assert one_error_line(out, "error: config:") == f"error: config: {message}"
    assert not (tmp_path / "runs").exists()


def test_removed_plan_key_is_unknown(capsys, small_cfg_path, tmp_path):
    for key, value in [("plan_granularity", "element"),
                       ("model_activation", "silu"), ("train_beta1", 0.9),
                       ("train_beta2", 0.999)]:
        line = prune_rejected(capsys, small_cfg_path, tmp_path, key, value)
        assert f"unknown config keys: ['{key}']" in line


@pytest.mark.parametrize("extra, message", [
    (["--criterion", "taylor"], "unrecognized arguments: --criterion taylor"),
    (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
])
def test_usage_errors_are_one_line(capsys, small_cfg_path, tmp_path, extra,
                                   message):
    code, out = run_cli(capsys, "table1", "--config", str(small_cfg_path),
                        "--out", str(tmp_path), *extra)
    assert code == 2
    assert one_error_line(out, "error: usage:") == f"error: usage: {message}"
    assert not any(tmp_path.iterdir())


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
                   "table1": common, "table2": common, "fig2": common}
    assert sum(len(flags) for flags in got.values()) == 26


def test_table1_samples_the_dense_model_once_per_seed(capsys, small_cfg_path,
                                                      tmp_path, monkeypatch):
    calls = []
    real = pipeline.sample_ddim

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_ddim", counting)
    code, out = run_cli(capsys, "table1", "--config", str(small_cfg_path),
                        "--out", str(tmp_path))
    assert code == 0
    # one dense pass per seed, then one per arm
    assert len(calls) == 1 + len(pipeline.TABLE1_ARMS)
    with open(json.loads(out.out)["results_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    dense = [r for r in rows if r["method"] == "dense"]
    assert len(dense) == 1 and float(dense[0]["ssim"]) == 1.0


def test_experiments_share_one_pretrain_per_seed(capsys, small_cfg_path,
                                                 tmp_path, monkeypatch):
    cfg = RunConfig.load(small_cfg_path)
    cfg.seeds = [0, 1]
    path = tmp_path / "two-seeds.cfg"
    cfg.save(path)
    pretrained = []
    real = pipeline.train

    def counting(model, sched, data, steps, opt, seed, stage, **kwargs):
        if stage == "pretrain":
            pretrained.append(seed)
        return real(model, sched, data, steps, opt, seed, stage, **kwargs)

    monkeypatch.setattr(pipeline, "train", counting)
    for command in ("table1", "table2"):
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


@pytest.mark.parametrize("criterion, mode", [
    ("gradient-flow", "progressive-soft"),
    ("taylor", "iterative"),
    ("magnitude", "progressive-soft"),
    ("taylor", "one-shot"),
])
def test_prune_run_draws_one_score_set_per_stage(small_cfg_path, tmp_path,
                                                 monkeypatch, criterion, mode):
    from flowprune import criteria, scheduler

    cfg = RunConfig.load(small_cfg_path)
    cfg.plan_criterion, cfg.plan_mode = criterion, mode
    plan = pipeline.build_plan(cfg)
    drawn = []
    real = scheduler.score_batches

    def counting(*args, **kwargs):
        drawn.append(args[2])  # the batch seed
        return real(*args, **kwargs)

    for module in (criteria, scheduler):
        monkeypatch.setattr(module, "score_batches", counting)
    pre = pipeline.pretrain(cfg, 0, tmp_path / "pretrain")
    pipeline.prune_run(cfg, 0, pre, tmp_path / "prune")
    # one diagnostic batch per mask update, one score set for the soft loop
    # unless it is empty or ranks magnitudes, one for the Taylor hard prune
    soft = int(plan.m_iters > 0 and criterion != "magnitude")
    assert len(drawn) == plan.m_iters + soft + 1
    assert drawn.count(scheduler._score_seed(0, 0)) == soft + 1


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
    arms = {"table1": pipeline.TABLE1_ARMS, "table2": pipeline.TABLE2_ARMS,
            "fig2": pipeline.FIG2_ARMS}
    for table, table_arms in arms.items():
        got = []
        for arm in table_arms:
            plan = pipeline.build_plan(cfg, arm)
            assert plan.final_criterion == plan.criterion, arm
            if plan.m_iters:
                assert plan.granularity == "row-group", arm
            got.append((plan.criterion, plan.mode, plan.m_iters))
        assert got == want[table], table
    # without an arm the plan is the config's
    plan = pipeline.build_plan(cfg)
    assert (plan.criterion, plan.mode, plan.m_iters, plan.granularity,
            plan.final_criterion) == (
        "gradient-flow", "progressive-soft", 40, "element", "taylor")
