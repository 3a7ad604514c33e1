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
    assert lines[0].split()[:2] == ["workload", "metric"] and lines[0].split()[-1] == "verdict"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = [line.split() for line in lines[1:]]
    measured = ["wall_s_measured", "speed_factor"]
    assert [row[:2] for row in rows] == [["points", name] for name in names + measured + ["ops"]]
    for row in rows[:len(names)]:
        assert row[-2] in ("0/1", "1/1") and float(row[2]) > 0.0 and float(row[5]) > 0.0
        assert row[-1] in ("gain", "worse", "unresolved", "holds")
    for row in rows[len(names):-1]:  # the median and quartiles of each side, unjudged
        assert len(row) == 8 and float(row[2]) > 0.0 and float(row[5]) > 0.0
    assert rows[-1].count("True") == 2
    assert not list(ROOT.glob(".kkbench-*"))


def test_verdict_follows_the_pair_rules():
    verdict = _tool().verdict
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # interquartile range 0.2
    # better in 9 of 10 pairs and by more than that range; in 8 of 10 it only holds
    assert verdict(parent, [v - 0.5 for v in parent[:9]] + [10.5], "lower", 0.25) == "gain"
    assert verdict(parent, [v - 0.5 for v in parent[:8]] + [10.5, 10.5], "lower", 0.25) == "holds"
    # higher is better: the same runs negated
    assert verdict([-v for v in parent], [0.5 - v for v in parent], "higher", 0.25) == "gain"
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.25) == "worse"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.25) == "holds"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    # a spread wider than the bound decides nothing, unless every change run reads better
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert verdict(wide, [4.0] * 9 + [4.5], "lower", 0.25) == "gain"
    assert verdict(wide, [4.9] * 4 + [20.0] * 6, "lower", 0.25) == "worse"


def test_records_every_run_of_every_workload_with_its_machine(tmp_path):
    path = tmp_path / "BENCH.json"
    tool = _tool()
    assert tool.main([str(ROOT), "--record", str(path), "--seconds", "0.1", "--tiny"]) == 0
    record = json.loads(path.read_text())
    assert record["seeds"] == list(range(1, tool.RUNS + 1)) and record["seconds"] == 0.1
    assert set(record["machine"]) == {"python", "numpy", "nproc", "cpu", "git_head",
                                      "src_or_kkbench_modified"}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(record["workloads"]) == sorted(tool.WORKLOADS)
    for workload, entry in record["workloads"].items():
        assert list(entry["metrics"]) == names
        for metric in entry["metrics"].values():
            assert len(metric["values"]) == tool.RUNS
            assert metric["q1"] <= metric["median"] <= metric["q3"]
        runs = entry["runs"]
        keys = {"failed", "attempted", "correct", "refused", "max_err", "speed_factor",
                "wall_s_measured"} | ({"tail_exceeded_frac"} if workload == "points" else set())
        assert set(runs) == keys and all(len(v) == tool.RUNS for v in runs.values())
        assert all(runs["correct"]) and min(runs["speed_factor"]) > 0.0
    assert set(record["import_s"]) == {"no_bytecode", "compileall"}
    for times in record["import_s"].values():
        assert len(times["values"]) == tool.RUNS and min(times["values"]) > 0.0
        assert times["median"] in times["values"]
    lines = record["code_lines"]
    modules = sorted(path.name for path in (ROOT / "src" / "kkinetics").glob("*.py"))
    assert sorted(lines) == sorted(modules + ["total"]) and "kinetics.py" in lines
    assert lines["total"] == sum(lines[name] for name in modules) > 0
    assert not list(ROOT.glob(".kkbench-*"))
