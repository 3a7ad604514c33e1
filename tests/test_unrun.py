"""tools/unrun.py: the statements of src/kkinetics that no test executes."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "unrun.py"


def _tool():
    spec = importlib.util.spec_from_file_location("unrun", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""A module docstring."""

import math


class Shape:
    """A class docstring."""

    sides = 4


def area(side, wide=False):
    """A function docstring."""
    total = 0

    def grow():
        nonlocal total
        total += 1

    try:
        grow()
    except ValueError:
        raise
    if (wide
            and side > 1):
        return (side
                * side)
    return total
'''


def test_lists_each_statement_by_its_own_lines():
    lines = _tool().statement_lines(SAMPLE)
    # no docstring, def, class or nonlocal; a compound statement owns its header
    assert lines == {3: {3}, 9: {9}, 14: {14}, 18: {18}, 20: {20}, 21: {21}, 23: {23},
                     24: {24, 25}, 26: {26, 27}, 28: {28}}


def test_reports_the_statements_a_run_leaves_out(tmp_path, monkeypatch):
    tool = _tool()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sample.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(package))
    monkeypatch.delitem(sys.modules, "sample", raising=False)

    def run():
        import sample
        return sample.area(2.0)

    result, hits = tool.traced(run, package)
    assert result == 1
    assert tool.unrun(hits, package) == [(package / "sample.py", 23), (package / "sample.py", 26)]


def test_smoke_run_on_one_test_file():
    proc = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           str(ROOT / "tests" / "test_svgchart.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/")]
    assert all(re.fullmatch(r"src/kkinetics/\w+\.py:\d+", line) for line in listed)
    modules = {line.split(":")[0].rsplit("/", 1)[1] for line in listed}
    # the chart's own tests run all of it, and the package runs its imports
    # under the trace; they run none of the oracle
    assert "svgchart.py" not in modules and "__init__.py" not in modules
    assert "fracoracle.py" in modules
