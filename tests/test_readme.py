"""README's "Quick look" block runs as written.

The block imports public names from ``qrgames``; running it here makes a
name that README still uses but the package no longer exports fail the
suite instead of the reader.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_look_block() -> str:
    section = README.read_text().split("## Quick look", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README's Quick look has no python block"
    return match.group(1)


def test_readme_quick_look_runs(capsys):
    exec(compile(quick_look_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("[(") and printed.endswith(")]\n")
