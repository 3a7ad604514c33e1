"""Compare the benchmark's end-to-end metrics of two checkouts in alternating pairs,
or record one checkout's runs to a JSON file.

    python tools/bench_pairs.py PARENT CHANGE [--pairs N] [--workload W ...]
        [--seconds S] [--seed SEED] [--tiny]
    python tools/bench_pairs.py CHECKOUT --record PATH [--seconds S] [--seed SEED]
        [--tiny]

runs ``python3 kkbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once on each checkout for pair i = 0 .. N-1 (default 10 pairs),
one process at a time: the parent first in even pairs and the change
first in odd ones, with the same seed on both sides of a pair.  Each side
runs from a copy of its ``src/`` and ``kkbench/`` without ``__pycache__``,
under ``PYTHONDONTWRITEBYTECODE=1``, so both compile every module from
source on every run, whatever bytecode the checkouts hold.

It prints, for each workload and each end-to-end metric that the change's
``BENCHMARK.json`` names, the median and quartiles of each side, the
pairs in which the change reads better (ties count for neither) and a
verdict (:func:`verdict`); the median and quartiles of each side's
measured wall time and speed factor, which the runs print beside the
time metrics they scale; and the failed and attempted ops of each side.
``--tiny`` passes ``--tiny`` to the benchmark, for a smoke test.

``--record PATH`` runs every workload :data:`RUNS` times on one
bytecode-free copy of CHECKOUT, seed SEED+i in round i, the workloads in
order in even rounds and reversed in odd ones, times :data:`RUNS` fresh
interpreters' ``import kkinetics`` on that copy without bytecode and
then with ``compileall`` bytecode, and writes PATH (:func:`record`) with
the module counts of ``tools/code_lines.py``.  ``--seconds`` defaults to
``run_seconds`` of the checkout's ``BENCHMARK.json`` in both modes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("figures", "verify", "relaxation", "points")
RUNS = 5  # the runs of each workload in a record


def _copy(checkout: Path, dest: Path) -> Path:
    """The parts of ``checkout`` that the benchmark reads, without bytecode."""
    for part in ("src", "kkbench"):
        shutil.copytree(checkout / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc", ".kkbench-*"))
    return dest


# What a run prints besides its JSON line: each pattern's first group, as a float
_PRINTED = {
    "speed_factor": r"median speed factor ([^ ]+)",
    "wall_s_measured": r"^wall_s .*; ([^ ]+) s measured",
    "refused": r"^failed_frac .*; (\d+) refused",
    "max_err": r"^max_err +([^ ]+)",
    "tail_exceeded_frac": r"^tail_exceeded_frac +([^ ]+)",
}


def _run(root: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The JSON line that ends one benchmark run of one workload, with the
    :data:`_PRINTED` values the run printed under ``printed``."""
    argv = [sys.executable, "kkbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} run in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    run = json.loads(done.stdout.strip().splitlines()[-1])
    run["printed"] = {name: float(found.group(1)) for name, pattern in _PRINTED.items()
                      if (found := re.search(pattern, done.stdout, re.MULTILINE))}
    return run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cell(values: list[float]) -> str:
    """The median and quartiles of ``values``, as one column of compare mode."""
    q1, q2, q3 = _quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def _costs(values: list[float], better: str) -> list[float]:
    """The values with the sign that makes lower better."""
    return [v if better == "lower" else -v for v in values]


def _wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better (ties count for neither)."""
    return sum(c < p for p, c in zip(_costs(parent, better), _costs(change, better)))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The change's verdict on one metric, from the runs of each side in pair order.

    ``gain``: the change reads better in at least 9 of 10 pairs, and the
    medians differ by more than the parent's interquartile range.
    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's interquartile range is wider than that bound, and not every
    run of the change reads better than every run of the parent.
    ``holds``: none of these.
    """
    q1, median, q3 = _quartiles(parent)
    costs = _costs(parent, better), _costs(change, better)
    gap = statistics.median(costs[1]) - statistics.median(costs[0])  # > 0: the change is worse
    if 10 * _wins(parent, change, better) >= 9 * len(parent) and -gap > q3 - q1:
        return "gain"
    if gap > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not max(costs[1]) < min(costs[0]):
        return "unresolved"
    return "holds"


def _machine(root: Path) -> dict:
    """What decides whether two records compare: the interpreter, numpy, the CPU and the commit."""
    import numpy

    cpu = re.search(r"^model name\s*: (.*)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE) \
        if Path("/proc/cpuinfo").is_file() else None
    git = [subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True).stdout
           for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "--", "src", "kkbench"])]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu.group(1) if cpu else platform.processor(),
            "git_head": git[0].strip() or None, "src_or_kkbench_modified": bool(git[1].strip())}


def _import_times(copy: Path) -> list[float]:
    """The seconds of ``import kkinetics`` from ``copy``'s ``src/`` in each of
    :data:`RUNS` fresh interpreters, which write no bytecode."""
    code = "import time; t = time.perf_counter(); import kkinetics; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    return [float(subprocess.run([sys.executable, "-c", code], cwd=copy, env=env, check=True,
                                 capture_output=True, text=True).stdout) for _ in range(RUNS)]


def _code_lines(package: Path) -> dict[str, int]:
    """``tools/code_lines.py``'s count of each module of ``package``, and the total."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("code_lines.py")),
                           str(package)], check=True, capture_output=True, text=True)
    return {name: int(count) for name, count in map(str.split, done.stdout.splitlines())}


def record(root: Path, path: Path, seconds: float, seed: int, tiny: bool) -> None:
    """Run every workload :data:`RUNS` times on one copy of ``root`` and write the record to ``path``.

    Per workload it holds each end-to-end metric of ``root``'s
    ``BENCHMARK.json`` (every run's value, the median and quartiles), and
    per run the failed, refused and attempted ops, ``max_err``,
    ``tail_exceeded_frac`` (``points`` only), the measured wall time and
    the median speed factor.  Beside the runs it holds the import times
    (:func:`_import_times`, each run's value and the median) without
    bytecode and with ``compileall`` bytecode, and the code lines of
    ``root``'s ``src/kkinetics`` (:func:`_code_lines`).
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        copy = _copy(root.resolve(), Path(tmp))
        done = {w: [] for w in WORKLOADS}
        for i in range(RUNS):
            for workload in (WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]):
                done[workload].append(_run(copy, workload, seed + i, seconds, tiny))
        imports = {"no_bytecode": _import_times(copy)}
        compileall.compile_dir(copy / "src", quiet=1)
        imports["compileall"] = _import_times(copy)
    workloads = {}
    for workload, results in done.items():
        metrics = {}
        for m in spec["end_to_end"]:
            values = [run["metrics"][m["name"]]["value"] for run in results]
            q1, median, q3 = _quartiles(values)
            metrics[m["name"]] = {"unit": m["unit"], "values": values, "median": median,
                                  "q1": q1, "q3": q3}
        per_run = {key: [run[key] for run in results] for key in ("failed", "attempted", "correct")}
        per_run.update({name: [run["printed"].get(name) for run in results] for name in _PRINTED
                        if any(name in run["printed"] for run in results)})
        workloads[workload] = {"metrics": metrics, "runs": per_run}
    out = {"seeds": [seed + i for i in range(RUNS)], "seconds": seconds, "tiny": tiny,
           "bytecode": "none: a copy without __pycache__, under PYTHONDONTWRITEBYTECODE=1",
           "machine": _machine(root), "workloads": workloads,
           "import_s": {kind: {"values": values, "median": statistics.median(values)}
                        for kind, values in imports.items()},
           "code_lines": _code_lines(root / "src" / "kkinetics")}
    path.write_text(json.dumps(out, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT",
                        help="PARENT and CHANGE, or one CHECKOUT with --record")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--record", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    if len(args.checkouts) != (1 if args.record else 2):
        parser.error("give PARENT and CHANGE, or one CHECKOUT with --record")
    spec = json.loads((args.checkouts[-1] / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.record:
        record(args.checkouts[0], args.record, seconds, args.seed, args.tiny)
        return 0
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = args.workload or list(WORKLOADS)
    sides = ("parent", "change")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: _copy(checkout.resolve(), Path(tmp) / side)
                 for side, checkout in zip(sides, args.checkouts)}
        runs = {(w, side): [] for w in workloads for side in sides}
        for i in range(args.pairs):
            for workload in workloads:
                for side in (sides if i % 2 == 0 else sides[::-1]):
                    runs[workload, side].append(
                        _run(roots[side], workload, args.seed + i, seconds, args.tiny))
    print(f"{'workload':10} {'metric':15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'verdict':>10}")
    for workload in workloads:
        for name, (better, bound) in metrics.items():
            parent, change = ([run["metrics"][name]["value"] for run in runs[workload, side]]
                              for side in sides)
            print(f"{workload:10} {name:15} {_cell(parent):>34} {_cell(change):>34} "
                  f"{_wins(parent, change, better):>3}/{args.pairs} "
                  f"{verdict(parent, change, better, bound):>10}")
        for name in ("wall_s_measured", "speed_factor"):  # shown beside the metrics, unjudged
            cells = [_cell([run["printed"][name] for run in runs[workload, side]])
                     for side in sides]
            print(f"{workload:10} {name:15} {cells[0]:>34} {cells[1]:>34}")
        counts = ["{} of {} failed, correct {}".format(
            sum(run["failed"] for run in runs[workload, side]),
            sum(run["attempted"] for run in runs[workload, side]),
            all(run["correct"] for run in runs[workload, side])) for side in sides]
        print(f"{workload:10} {'ops':15} {counts[0]:>34} {counts[1]:>34}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
