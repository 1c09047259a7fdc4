"""Every speed claim cites a committed ``BENCH_*.json``: each one that
README.md, ROADMAP.md or CHANGES.md names is at the repository root,
parses as JSON and says what it measured (``what``) and what it found
(``summary``)."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "ROADMAP.md", "CHANGES.md")


def cited() -> list[str]:
    return sorted({name for doc in DOCS for name in re.findall(
        r"BENCH_\w+\.json", (ROOT / doc).read_text(encoding="utf-8"))})


def test_the_docs_cite_bench_files():
    assert cited()


@pytest.mark.parametrize("name", cited())
def test_a_cited_bench_file_is_committed_and_described(name):
    path = ROOT / name
    assert path.is_file(), f"{name} is cited but not committed"
    data = json.loads(path.read_text(encoding="utf-8"))
    assert {"what", "summary"} <= set(data)
