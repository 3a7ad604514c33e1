"""Smoke test: every script under demos/, and the README's Python
quickstart, runs to completion in-process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # figure_sweep.py writes figure_output/ into the working directory
    monkeypatch.chdir(tmp_path)
    if path == README:
        code = "".join(re.findall(r"```python\n(.*?)```", path.read_text(encoding="utf-8"), re.S))
        exec(compile(code, str(path), "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
