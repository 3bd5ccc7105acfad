"""The README's documented library use runs against the current package."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_readme_library_use_block_runs(capsys):
    exec(compile(_library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    # two unit-variance normals two standard deviations apart
    assert float(printed[0]) == pytest.approx(0.697, abs=5e-3)
    # the max-T test rejects the shifted feature and keeps the noise
    assert printed[1] == "{'shifted': True, 'noise': False}"
