"""The benchmark runs end to end: a traced and an untraced tiny run of every workload.

The traced run replaces module attributes of the program (``kinetics.scaled_ml``,
``cli.solve_grid`` and others) with timing wrappers, so a refactor that moves or
renames one of them fails here, not only in the benchmark pipeline.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tiny_run(trace: str) -> list[dict]:
    """The JSON lines of a tiny run of every workload, after checking each is correct."""
    out = subprocess.run(
        [sys.executable, "kkbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4, out.stdout
    for res in results:
        assert res["correct"] is True, res
        assert res["failed"] == 0, res
    return results


def test_traced_tiny_run_of_every_workload_is_correct():
    _tiny_run("1")


def test_untraced_tiny_run_of_every_workload_is_correct_and_emits_finite_metrics():
    # the untraced run checks the figures against their reference and emits
    # the end-to-end metrics a benchmark comparison reads
    for res in _tiny_run("0"):
        assert res["metrics"], res
        for name, metric in res["metrics"].items():
            assert math.isfinite(metric["value"]), (name, res)
