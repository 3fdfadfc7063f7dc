"""Each narrative demo runs to completion as a script, and README's quick start prints what its comments say."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    rank, ppt, trace_norm, edge, _, schmidt2 = out.getvalue().splitlines()
    assert rank == "5"
    assert ppt == "pass"
    assert trace_norm.startswith("1.0127")
    verdict, minimum = edge.rsplit(" ", 1)
    assert verdict == "edge (heuristic)"
    assert f"{float(minimum):.2g}" == "0.0063"
    assert float(schmidt2) < 0.0
