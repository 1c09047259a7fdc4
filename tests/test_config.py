import pytest

from flowprune.config import ConfigError, RunConfig, dump_kv, parse_kv


def test_scalar_types():
    items = parse_kv(
        'a = 3\nb = 2.5\nc = true\nd = false\ne = "ring-mixture"\nf = bare\n'
    )
    assert items == {
        "a": 3, "b": 2.5, "c": True, "d": False,
        "e": "ring-mixture", "f": "bare",
    }


def test_comments_and_blanks():
    items = parse_kv("# header\n\nx = 1  # trailing\n")
    assert items == {"x": 1}


def test_lists():
    items = parse_kv("seeds = 0, 1, 2\nmix = 1, 2.5, \"s\"\n")
    assert items["seeds"] == [0, 1, 2]
    assert items["mix"] == [1, 2.5, "s"]


def test_bad_lines_rejected():
    with pytest.raises(ConfigError):
        parse_kv("no equals sign here\n")
    with pytest.raises(ConfigError):
        parse_kv("9bad = 1\n")


def test_dump_parse_roundtrip():
    items = {
        "name": "a b c", "count": 7, "rate": 0.125, "flag": True,
        "seeds": [3, 4, 5],
    }
    assert parse_kv(dump_kv(items)) == items


def test_runconfig_roundtrip(tmp_path):
    cfg = RunConfig(dataset_kind="checkerboard", seeds=[7, 8],
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
    assert parse_kv(f'out_dir = "{value}"  # comment, "quoted"\n') == {
        "out_dir": value
    }


def test_unterminated_string_rejected():
    with pytest.raises(ConfigError, match="unterminated"):
        parse_kv('out_dir = "abc\n')
    # a string the parser could not read back is refused when written
    with pytest.raises(ConfigError, match="double quote"):
        RunConfig(out_dir='a"b').to_text()


@pytest.mark.parametrize("text", [
    'plan_s = "abc"\n',
    "pretrain_steps = 1.5\n",
    "pretrain_steps = true\n",
    "out_dir = 3\n",
    "seeds = 1, 2.5\n",
    "seeds = false\n",
    "plan_s = 0.1, 0.2\n",
])
def test_runconfig_type_mismatch_rejected(text):
    with pytest.raises(ConfigError):
        RunConfig.from_text(text)


def test_int_literal_valid_for_float_field():
    assert RunConfig.from_text("plan_s = 0\n").plan_s == 0
