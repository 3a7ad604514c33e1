"""The benchmark runs end to end: a traced tiny run of every workload.

The traced run replaces module attributes of the program (``kinetics.scaled_ml``,
``cli.solve_grid`` and others) with timing wrappers, so a refactor that moves or
renames one of them fails here, not only in the benchmark pipeline.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tiny_run_of_every_workload_is_correct():
    out = subprocess.run(
        [sys.executable, "kkbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4, out.stdout
    for res in results:
        assert res["correct"] is True, res
        assert res["failed"] == 0, res
