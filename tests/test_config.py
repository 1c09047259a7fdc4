import string
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flowprune.config import ConfigError, RunConfig, dump_kv


def test_scalar_types():
    cfg = RunConfig.from_text(
        'plan_m_iters = 3\nplan_s = 0.25\nplan_mode = "one-shot"\n')
    assert (cfg.plan_m_iters, cfg.plan_s, cfg.plan_mode) == (3, 0.25, "one-shot")
    assert type(cfg.plan_m_iters) is int and type(cfg.plan_s) is float
    # a string is quoted: a bare word is not a TOML value
    with pytest.raises(ConfigError, match="Invalid value"):
        RunConfig.from_text("plan_mode = one-shot\n")


def test_comments_and_blanks():
    cfg = RunConfig.from_text("# header\n\nplan_m_iters = 1  # trailing\n")
    assert cfg == RunConfig(plan_m_iters=1)


def test_lists():
    assert RunConfig.from_text("seeds = [0, 1, 2]\n").seeds == [0, 1, 2]
    assert RunConfig.from_text("seeds = []\n").seeds == []
    # a comma-separated list without brackets is not TOML
    with pytest.raises(ConfigError):
        RunConfig.from_text("seeds = 0, 1, 2\n")


def test_bad_lines_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("no equals sign here\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("9bad = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError,
                       match=r"^Cannot overwrite a value \(at line 3, column"):
        RunConfig.from_text("plan_s = 0.25\n# again\nplan_s = 0.75\n")


def test_dump_parse_roundtrip():
    items = {
        "name": "a b c", "count": 7, "rate": 0.125, "flag": True,
        "seeds": [3, 4, 5], "none": [],
    }
    assert tomllib.loads(dump_kv(items)) == items


def test_runconfig_roundtrip(tmp_path):
    cfg = RunConfig(dataset_size=4096, seeds=[7, 8],
                    plan_s=0.25, eval_samples=123)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    again = RunConfig.load(path)
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_runconfig_unknown_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("nonsense_key = 1\n")


def test_single_seed_normalized():
    cfg = RunConfig.from_text("seeds = 3\n")
    assert cfg.seeds == [3]


@pytest.mark.parametrize("value", ["a#b", "a,b", "x = y, z # w"])
def test_comment_and_comma_inside_quotes_roundtrip(value):
    cfg = RunConfig(out_dir=value)
    assert RunConfig.from_text(cfg.to_text()).out_dir == value
    text = f'out_dir = "{value}"  # comment, "quoted"\n'
    assert RunConfig.from_text(text).out_dir == value


def test_unterminated_string_rejected():
    with pytest.raises(ConfigError, match="Illegal character"):
        RunConfig.from_text('out_dir = "abc\n')
    # a string the parser could not read back is refused when written
    with pytest.raises(ConfigError, match="double quote"):
        RunConfig(out_dir='a"b').to_text()


@pytest.mark.parametrize("char", ['"', "\\", "\n", "\r", "\x00", "\x1f",
                                  "\x7f"])
def test_unquotable_string_refused_when_written(char):
    with pytest.raises(ConfigError, match="double quote, a backslash or a "
                                          "control character"):
        RunConfig(out_dir=f"a{char}b").to_text()


@given(st.text(alphabet=st.characters(exclude_categories=["Cs"]))
       | st.text(alphabet=string.printable))
def test_every_string_written_reads_back(value):
    cfg = RunConfig(out_dir=value, plan_mode=value)
    try:
        text = cfg.to_text()
    except ConfigError:
        return
    assert RunConfig.from_text(text) == cfg


@pytest.mark.parametrize("text", [
    'plan_s = "abc"\n',
    "pretrain_steps = 1.5\n",
    "pretrain_steps = true\n",
    "out_dir = 3\n",
    "seeds = 1, 2.5\n",
    "seeds = false\n",
    "plan_s = 0.1, 0.2\n",
    "seeds = [1, 2.5]\n",
    "plan_s = [0.1, 0.2]\n",
])
def test_runconfig_type_mismatch_rejected(text):
    with pytest.raises(ConfigError):
        RunConfig.from_text(text)


def test_int_literal_valid_for_float_field():
    assert RunConfig.from_text("plan_s = 0\n").plan_s == 0


def test_int_and_float_spellings_hash_alike():
    text = RunConfig.from_text("train_lr = 1\ndiffusion_beta_start = 0\n")
    direct = RunConfig(train_lr=1.0, diffusion_beta_start=0.0)
    assert text == direct == RunConfig(train_lr=1, diffusion_beta_start=0)
    assert text.digest() == direct.digest()
    assert text.pretrain_digest() == direct.pretrain_digest()


def test_digest_covers_what_a_run_computes():
    base = RunConfig()
    moved = RunConfig(out_dir="elsewhere", seeds=[7])
    assert moved.digest() == base.digest()
    assert RunConfig(plan_s=0.25).digest() != base.digest()
    # pinned: a change here retrains every existing pretrain checkpoint
    # (it last changed when the dataset_kind key was removed)
    assert base.pretrain_digest() == "f39be00795612e5f"


def test_runconfig_keys_are_the_settings_a_run_reads():
    assert [f.name for f in fields(RunConfig)] == [
        "dataset_size", "dataset_seed",
        "model_hidden", "model_depth", "model_temb_dim",
        "diffusion_t", "diffusion_beta_start", "diffusion_beta_end",
        "train_lr", "train_batch", "pretrain_steps",
        "plan_s", "plan_total_steps", "plan_m_iters", "plan_n_iters",
        "plan_interval", "plan_criterion", "plan_mode", "plan_score_batches",
        "plan_score_batch_size",
        "eval_samples", "eval_substeps", "eval_seed",
        "trace_samples", "trace_substeps",
        "seeds", "out_dir",
    ]
    assert len(fields(RunConfig)) == 27


def test_readme_config_example_loads():
    # the `run.cfg` heredoc of the README's CLI section
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    opener = "cat > run.cfg <<'EOF'\n"
    start = readme.index(opener) + len(opener)
    text = readme[start:readme.index("\nEOF\n", start)]
    assert RunConfig.from_text(text).seeds == [0, 1, 2, 3, 4]
