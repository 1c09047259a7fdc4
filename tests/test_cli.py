import json

import numpy as np
import pytest

from flowprune.checkpoint import load_checkpoint, save_checkpoint
from flowprune.cli import main
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


def test_sample_writes_container(capsys, small_cfg_path):
    code, out = run_cli(capsys, "sample", "--config", str(small_cfg_path),
                        "--stage", "pretrain", "--n", "32")
    assert code == 0
    path = json.loads(out.out)["path"]
    tensors, meta = load_checkpoint(path)
    assert tensors["samples"].shape == (32, 2)
    assert meta["stage"] == "samples"


def test_prune_identity_run_matches_dense(capsys, small_cfg_path, tmp_path):
    cfg = RunConfig.load(small_cfg_path)
    cfg.plan_s = 0.0
    cfg.out_dir = str(tmp_path / "identity")
    path = tmp_path / "id.cfg"
    cfg.save(path)
    code, out = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 0
    code, out = run_cli(capsys, "prune", "--config", str(path))
    assert code == 0
    report = json.loads(out.out)["reports"][0]
    m = report["metrics"]
    assert m["nonzero_params"] == m["dense_params"]
    assert m["macs_sparse"] == m["macs_dense"]
    assert m["ssim"] == 1.0

    code, out = run_cli(capsys, "evaluate", "--config", str(path),
                        "--stage", "pretrain")
    dense = json.loads(out.out)["metrics"]
    assert dense["frechet"] == m["frechet"]


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
