"""Split the time of one ``figures --all`` pass into its stages.

    python tools/figures_stages.py [--passes N]

runs ``kkinetics.cli.main(["figures", "--all", ...])`` N times (default
40), each into a new temporary directory, with a pure-Python loop of about a
millisecond after each of the 35 sweeps, as a caller that does other work
between sweeps would: numpy's calls then run cold.  Each stage is timed by
wrapping the ``cli`` function that does it:

* sweeps: ``solve_grid``, the 7 x 5 lambda sweeps;
* csv: ``_csv``, the text of the 7 CSV files;
* svg: ``render_line_chart``, the text of the 7 charts;
* writes: ``_atomic_write``, the 14 files written and renamed;
* rest: the pass's wall time less the stages above and the loops.

It prints the median of each over the passes, in milliseconds, and the
stage's share of the median pass.  kkinetics is imported from ``src/``
beside this script's directory unless it is importable already.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

STAGES = (("sweeps", "solve_grid"), ("csv", "_csv"), ("svg", "render_line_chart"),
          ("writes", "_atomic_write"))


def python_loop() -> None:
    """About a millisecond of interpreter work with no numpy: log-space terms,
    summed with Kahan compensation, of 40 short series."""
    lgamma, exp, log = math.lgamma, math.exp, math.log
    for j in range(40):
        beta = 1.0 + 0.1 * j
        total = comp = 0.0
        for n in range(60):
            t = (-1.0) ** n * exp(lgamma(beta) - lgamma(0.9 * n + beta) + n * log(2.5))
            y = t - comp
            s = total + y
            comp = (s - total) - y
            total = s


def _timed(cli, attr: str, spent: list[float], loop_spent: list[float] | None):
    original = getattr(cli, attr)

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent.append(perf_counter() - start)
            if loop_spent is not None:
                start = perf_counter()
                python_loop()
                loop_spent.append(perf_counter() - start)

    return original, wrapper


def stage_times(passes: int) -> dict[str, list[float]]:
    """Seconds per pass of each stage, ``rest`` and ``total`` (loops excluded)."""
    from kkinetics import cli

    times: dict[str, list[float]] = {name: [] for name, _ in STAGES}
    times.update(rest=[], total=[])
    with tempfile.TemporaryDirectory() as root:
        for k in range(passes):
            # a new directory for each pass, as a first run into it would find
            argv = ["figures", "--all", "--out-dir", str(Path(root) / f"pass{k}")]
            spent = {name: [] for name, _ in STAGES}
            loops: list[float] = []
            originals = {}
            for name, attr in STAGES:
                originals[attr], wrapper = _timed(cli, attr, spent[name],
                                                  loops if name == "sweeps" else None)
                setattr(cli, attr, wrapper)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    start = perf_counter()
                    cli.main(argv)
                    wall = perf_counter() - start - sum(loops)
            finally:
                for attr, original in originals.items():
                    setattr(cli, attr, original)
            for name in spent:
                times[name].append(sum(spent[name]))
            times["rest"].append(wall - sum(sum(s) for s in spent.values()))
            times["total"].append(wall)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=40)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    try:
        import kkinetics  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    times = stage_times(args.passes)
    total = statistics.median(times["total"])
    print(f"{'stage':8} {'ms':>8} {'share':>7}   (median of {args.passes} passes)")
    for name, values in times.items():
        ms = statistics.median(values) * 1e3
        print(f"{name:8} {ms:8.3f} {ms / (total * 1e3):7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
