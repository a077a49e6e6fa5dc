"""The demos and the README's library example run against the public API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert float(capsys.readouterr().out) == pytest.approx(1.30, abs=0.005)
