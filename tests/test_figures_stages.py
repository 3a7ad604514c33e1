"""tools/figures_stages.py: the stage split of one figures --all pass."""

import importlib.util
from pathlib import Path

from kkinetics import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "figures_stages.py"


def _tool():
    spec = importlib.util.spec_from_file_location("figures_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_each_stage_and_restores_the_cli(capsys):
    originals = {attr: getattr(cli, attr) for _, attr in _tool().STAGES}
    assert _tool().main(["--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["stage", "ms", "share"]
    rows = {name: (float(ms), share) for name, ms, share in map(str.split, lines[1:])}
    assert list(rows) == ["sweeps", "csv", "svg", "writes", "rest", "total"]
    assert all(ms > 0.0 for ms, _ in rows.values()), rows
    assert rows["total"][1] == "100.0%"
    assert {attr: getattr(cli, attr) for attr in originals} == originals
