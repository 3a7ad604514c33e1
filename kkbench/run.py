"""kkinetics benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 kkbench/run.py --workload {figures,verify,relaxation,points,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing is installed.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes on the inputs of pass 0 and prints the per-layer metrics.
Either way each workload's output ends with one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, so for a single
workload it is the last line of standard output.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One caller and no threads: numpy's BLAS would otherwise start a thread per
# core for the long dot products of the Volterra marcher.  This must precede
# the first numpy import, here and in the set-up interpreters, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("figures", "verify", "relaxation", "points")
SETUP_SAMPLES = 5
# Share of a pass's time spent on calibration samples just before it, for
# workloads that cannot take them between their own ops.
CALIBRATION_SHARE = 0.1
# Stop starting passes after this long, whatever --seconds says, so that a
# run always ends well inside three minutes.
HARD_STOP_S = 120.0
MIN_TRACED_PASSES = 2
MIN_COVERAGE = 0.9


def _series_loop() -> None:
    # A small replica of the series code's hot loop: a closure per term,
    # lgamma and exp, Kahan summation and the stagnation rule.  It never
    # calls kkinetics.
    lgamma, exp = math.lgamma, math.exp
    for j in range(50):
        log_x = math.log(0.1 + 0.05 * j)
        beta = 1.0 + 0.1 * j
        lg_beta = lgamma(beta)

        def term(n):
            return (1.0 if n % 2 == 0 else -1.0), lg_beta - lgamma(0.9 * n + beta) + n * log_x

        total = comp = 0.0
        quiet = 0
        for n in range(200):
            sign, log_mag = term(n)
            t = sign * exp(log_mag)
            y = t - comp
            s = total + y
            comp = (s - total) - y
            total = s
            if abs(t) <= 1e-16 * abs(total):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0


_ROW_SOURCE = np.linspace(1.0, 2.0, 16384)


def _rows_loop() -> None:
    # A small replica of the Volterra marcher's row step: build a weight
    # row from a reversed slice and dot it with the history.  It never
    # calls kkinetics.
    for j in range(2, _ROW_SOURCE.size, 512):
        w = np.empty(j + 1)
        w[0] = 1.0
        w[1:j] = _ROW_SOURCE[j - 2::-1]
        w[j] = 1.0
        float(w[:j] @ _ROW_SOURCE[:j])


# The calibration loops and their median times at the reference speed;
# every time the benchmark reports is scaled to that speed (see Speed).
CALIBRATION_LOOPS = {
    "series": (_series_loop, 0.001),
    "rows": (_rows_loop, 0.00033),
}


class Speed:
    """The machine's speed while a piece of work ran, from a calibration loop.

    On a shared host the same interpreter work takes 20-40% longer while
    neighbours are busy, and that state changes within seconds.  The
    benchmark times the calibration loop during or just before each pass
    and divides the pass's times by ``factor_since``: the loop's median
    time since the pass began, over its reference time.  Runs made in busy
    and quiet periods then compare.  The loop does no kkinetics work, so a
    change to the program moves the measured times and not the factor.
    """

    def __init__(self, loop: str = "series"):
        self.loop, self.reference_s = CALIBRATION_LOOPS[loop]
        self.samples: list[float] = []

    def tick(self) -> float:
        """Time the loop once; return the time that took."""
        start = perf_counter()
        self.loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def sample(self, budget_s: float) -> None:
        """Time the loop at least once, and until ``budget_s`` has been spent."""
        spent = 0.0
        while True:
            spent += self.tick()
            if spent >= budget_s:
                return

    def factor_since(self, first: int) -> float:
        """Slowdown against the reference over the samples from index ``first`` on."""
        return statistics.median(self.samples[first:]) / self.reference_s


def load_program():
    """Import kkinetics from the checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "kkinetics" / "__init__.py").is_file():
        print(f"kkbench: no kkinetics sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import kkinetics
    import kkinetics.cli  # noqa: F401  (binds kkinetics.cli)

    if Path(kkinetics.__file__).resolve().parent != (SRC / "kkinetics").resolve():
        print(f"kkbench: imported kkinetics from {kkinetics.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return kkinetics


def measure_setup() -> tuple[float, float, float]:
    """Time from starting a fresh interpreter until ``import kkinetics`` returns.

    Returns the median of the speed-scaled times, the median measured time
    and the median speed factor.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import kkinetics, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    speed = Speed()
    measured, factors = [], []
    for i in range(SETUP_SAMPLES + 1):
        first = len(speed.samples)
        speed.sample(0.02)
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter failed to import kkinetics ({proc.returncode})")
        if i:  # the first start warms the bytecode and file caches
            measured.append(elapsed)
            factors.append(speed.factor_since(first))
    scaled = statistics.median(m / f for m, f in zip(measured, factors))
    return scaled, statistics.median(measured), statistics.median(factors)


def tail(op_s: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile of op_s and the number of samples beyond it."""
    value = float(np.percentile(op_s, pct))
    return value, sum(1 for x in op_s if x > value)


def emit(metrics: dict, details: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"{name:44s} {value!r} {unit}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def report_failures(outcomes) -> None:
    notes = [note for o in outcomes for note in o.notes]
    for note in notes[:20]:
        print(f"failed: {note}")
    if len(notes) > 20:
        print(f"failed: ... and {len(notes) - 20} more")


def run_untraced(kk, wl, seconds: float, setup: tuple[float, float, float]) -> None:
    from tracer import entry_points

    api = entry_points(kk, None)
    speed = Speed(wl.calibration)
    last = wl.check(wl.execute(-1, api))  # warm-up pass, not counted
    start = perf_counter()
    outcomes, factors = [], []
    ops = 0
    k = 0
    while (ops < wl.min_ops or perf_counter() - start < seconds
           or k % wl.pass_multiple):
        if perf_counter() - start > HARD_STOP_S:
            break
        gc.collect()
        first = len(speed.samples)
        if not wl.calibrates_between_ops:
            speed.sample(CALIBRATION_SHARE * last.wall_s)
        last = wl.check(wl.execute(k, api, speed))
        outcomes.append(last)
        factors.append(speed.factor_since(first))
        ops += len(last.op_s)
        k += 1
    op_s = [x for o in outcomes for x in o.op_s]
    scaled_op_s = [x / f for o, f in zip(outcomes, factors) for x in o.op_s]
    tail_s, beyond = tail(scaled_op_s, wl.tail_pct)
    failed = sum(o.failed for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    refused = sum(o.refused for o in outcomes)
    report_failures(outcomes)
    print(f"workload {wl.name}, seed {wl.seed}: {len(outcomes)} passes, {ops} ops; median "
          f"speed factor {statistics.median(factors):.4f} ({len(speed.samples)} "
          "calibration samples)")
    info = {
        "failed_frac": (failed / ops, "ratio",
                        f"{failed} of {ops} ops; {refused} refused, {wrong} wrong"),
        "max_err": (max(o.max_err for o in outcomes), "ratio",
                    "error against the reference, scaled by max(1, max|ref|)"),
    }
    if wl.name == "points":
        exceeded = sum(o.tail_exceeded for o in outcomes)
        info["tail_exceeded_frac"] = (
            exceeded / ops, "ratio", "returned values whose error exceeds their reported tail")
    for name, (value, unit, note) in info.items():
        print(f"{name:44s} {value!r} {unit}  ({note})")
    setup_s, setup_measured, setup_factor = setup
    metrics = {
        "wall_s": (statistics.median(o.wall_s / f for o, f in zip(outcomes, factors)), "s"),
        "op_p50_ms": (statistics.median(scaled_op_s) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    details = {
        "wall_s": f"median of {len(outcomes)} passes; "
                  f"{statistics.median(o.wall_s for o in outcomes):.6g} s measured",
        "op_p50_ms": f"{statistics.median(op_s) * 1e3:.6g} ms measured",
        "op_tail_ms": f"p{wl.tail_pct:g} of {ops} ops, {beyond} beyond it; "
                      f"{tail(op_s, wl.tail_pct)[0] * 1e3:.6g} ms measured",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; {setup_measured:.6g} s "
                   f"measured, median speed factor {setup_factor:.4f}",
    }
    emit(metrics, details, wrong == 0, ops, failed)


def run_traced(kk, wl, seconds: float) -> None:
    from tracer import LAYER_METRICS, Tracer, entry_points, layer_spans, layer_values

    plain = entry_points(kk, None)
    speed = Speed(wl.calibration)
    last = wl.check(wl.execute(0, plain))  # warm-up pass, not counted
    start = perf_counter()
    untraced_wall, traced_wall, coverage, layers, outcomes, factors = [], [], [], [], [], []
    units = dict(LAYER_METRICS)
    i = 0
    while len(layers) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        if perf_counter() - start > HARD_STOP_S:
            break
        gc.collect()
        first = len(speed.samples)
        speed.sample(CALIBRATION_SHARE * last.wall_s)
        if i % 2 == 0:
            last = wl.check(wl.execute(0, plain))
            f = speed.factor_since(first)
            untraced_wall.append(last.wall_s / f)
        else:
            tracer = Tracer(refusal_types=(kk.CancellationError, kk.NonConvergenceError))
            api = entry_points(kk, tracer)  # wraps the unpatched functions
            with layer_spans(tracer, kk):
                raw = wl.execute(0, api)
            last = wl.check(raw)
            f = speed.factor_since(first)
            traced_wall.append(last.wall_s / f)
            coverage.append(tracer.root_time() / last.wall_s)
            values = layer_values(tracer, last.bytes_written)
            layers.append({name: v / f if units[name] == "s" else v
                           for name, v in values.items()})
        outcomes.append(last)
        factors.append(f)
        i += 1
    report_failures(outcomes)
    counts = [name for name, unit in LAYER_METRICS if unit != "s"]
    repeat_ok = all(v[name] == layers[0][name] for v in layers for name in counts)
    coverage_ok = all(MIN_COVERAGE <= c <= 1.0 + 1e-9 for c in coverage)
    if not repeat_ok:
        print("failed: layer counts differ between traced passes on the same inputs")
    if not coverage_ok:
        print(f"failed: layer self times cover {min(coverage):.3f}-{max(coverage):.3f} "
              f"of the traced wall time, expected at least {MIN_COVERAGE}")
    metrics = {
        name: (statistics.median(v[name] for v in layers) if units[name] == "s"
               else layers[0][name], units[name])
        for name, _ in LAYER_METRICS
    }
    traced, untraced = statistics.median(traced_wall), statistics.median(untraced_wall)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.coverage"] = (min(coverage), "ratio")
    details = {
        "trace.overhead_s": f"traced {traced:.6g} s minus untraced {untraced:.6g} s per pass",
        "trace.coverage": "sum of layer self times over traced wall time, worst pass",
    }
    print(f"workload {wl.name}, seed {wl.seed}: pass 0 repeated, {len(layers)} traced and "
          f"{len(untraced_wall)} untraced passes; median speed factor "
          f"{statistics.median(factors):.4f}")
    attempted = sum(len(o.op_s) for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    emit(metrics, details, wrong == 0 and repeat_ok and coverage_ok, attempted,
         sum(o.failed for o in outcomes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the four in turn in one process, each for "
                             "--seconds; peak_rss_mb is then the peak so far")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload at a tiny size (for selftest.py)")
    args = parser.parse_args(argv)

    kk = load_program()
    from workloads import WORKLOADS as CLASSES

    if not args.trace:
        setup = measure_setup()
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        work_dir = Path(tempfile.mkdtemp(prefix=".kkbench-", dir=ROOT))
        try:
            wl = CLASSES[name](kk, args.seed, work_dir, args.tiny)
            if args.trace:
                run_traced(kk, wl, args.seconds)
            else:
                run_untraced(kk, wl, args.seconds, setup)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
