"""tools/bench_pairs.py: one tiny pair of benchmark runs, the checkout against itself."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_each_end_to_end_metric_of_one_tiny_pair(capsys):
    assert _tool().main([str(ROOT), str(ROOT), "--pairs", "1", "--workload", "points",
                         "--seconds", "0.1", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["workload", "metric"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["points", name] for name in names] + [["points", "ops"]]
    for row in rows[:-1]:
        assert row[-1] in ("0/1", "1/1") and float(row[2]) > 0.0 and float(row[5]) > 0.0
    assert rows[-1].count("True") == 2
    assert not list(ROOT.glob(".kkbench-*"))
