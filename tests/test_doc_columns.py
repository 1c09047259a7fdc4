"""README's "Outputs" section names each CSV's columns; they are the lists
the program writes, in order: ``pipeline.RESULT_FIELDS``,
``pipeline.READ_FIELDS`` and ``scheduler.DIAG_FIELDS``."""

import re
from pathlib import Path

from flowprune.pipeline import READ_FIELDS, RESULT_FIELDS
from flowprune.scheduler import DIAG_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_columns() -> dict[str, list[str]]:
    """``{file name: columns}`` of each "`<name>.csv` ... columns: `a, b`"
    entry in README's "Outputs" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Outputs\n", 1)[1].split("\n#", 1)[0]
    return {name: [c.strip() for c in columns.split(",")]
            for name, columns in re.findall(
                r"`(\w+\.csv)`[^`]*?columns:\s*`([^`]+)`", section)}


def test_readme_outputs_name_the_columns_written():
    assert documented_columns() == {"results.csv": RESULT_FIELDS,
                                    "reads.csv": READ_FIELDS,
                                    "diagnostics.csv": DIAG_FIELDS}
