"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller.  ``execute(k, api)`` runs
pass ``k`` through the program entry points in ``api`` and times it;
``check(raw)`` compares the pass's outputs with independent references
afterwards, outside the timed region.  The inputs of pass ``k`` depend only
on the seed and ``k``, so a pass can be repeated exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from tracer import patched

HERE = Path(__file__).resolve().parent
FIGURES_REF = HERE / "figures_ref.json"

# The paper's lambda sweep and figure problems, restated here so that the
# references do not depend on the program's own tables.  All share
# N0 = c = k = 2, b = d = 3, mu = nu = gamma = 1; variant 3 uses a = 1.
LAMBDAS = (1.0, 1.25, 1.5, 1.75, 2.0)
FIGURES = {  # figure id -> (variant, t_end, a)
    1: (1, 1.0, None),
    2: (1, 2.0, None),
    3: (1, 3.0, None),
    4: (2, 0.05, None),
    5: (2, 0.06, None),
    6: (3, 0.05, 1.0),
    7: (3, 0.06, 1.0),
}
GRID_POINTS = 201
N0, D, K, GAMMA, MU, B, C = 2.0, 3.0, 2.0, 1.0, 1.0, 3.0, 2.0


def figure_rate(fig_id: int) -> float:
    variant, _, a = FIGURES[fig_id]
    return a if variant == 3 else D


def figure_grid(fig_id: int) -> np.ndarray:
    return np.linspace(0.0, FIGURES[fig_id][1], GRID_POINTS)


@dataclass
class Outcome:
    """Checked result of one pass."""

    wall_s: float
    op_s: list[float]
    failed: int = 0  # operations that raised or disagreed with the reference
    refused: int = 0  # of those, refusals (CancellationError, NonConvergenceError)
    wrong: int = 0  # of those, returned outputs that disagreed with the reference
    max_err: float = 0.0
    bytes_written: int = 0
    notes: list[str] = field(default_factory=list)
    tail_exceeded: int = 0  # returned values whose error exceeds their reported tail


def _capture(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        rc = fn(*args)
        wall = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall


class Workload:
    name = ""
    tail_pct = 50.0  # fixed per workload so that runs of any length compare
    min_ops = 20  # enough operations for ten samples beyond tail_pct
    # True when execute() times the calibration loop between its own ops;
    # otherwise the run loop times it just before each pass.
    calibrates_between_ops = False
    # A run makes a multiple of this many passes (see Verify.lam).
    pass_multiple = 1
    # The calibration loop that resembles the workload's hot loop (run.Speed).
    calibration = "series"

    def __init__(self, kk, seed: int, work_dir: Path, tiny: bool):
        self.kk = kk
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")


class Figures(Workload):
    """``figures --all`` through ``cli.main``; one op is one (figure, lambda) sweep."""

    name = "figures"
    tail_pct = 90.0
    min_ops = 100
    calibrates_between_ops = True

    _VIOLATION = re.compile(
        r"positivity violated: figure (\d+), lambda (\S+), t (\S+) gives N = (\S+)"
    )

    def __init__(self, kk, seed, work_dir, tiny):
        super().__init__(kk, seed, work_dir, tiny)
        self.fig_ids = [2] if tiny else sorted(FIGURES)
        self.argv = ["figures", "--fig", "2"] if tiny else ["figures", "--all"]
        self.argv += ["--out-dir", str(work_dir / "figures")]
        ref = json.loads(FIGURES_REF.read_text())
        self.ref = {
            (int(f), lam): (np.array(col["value"]), np.array(col["abs_sum"]))
            for f, cols in ref["figures"].items()
            for lam, col in cols.items()
        }
        # Expected positivity report: the first grid node t > 0 where the
        # reference is not positive, for every sweep that has one.
        self.expected = {}
        for fig_id in self.fig_ids:
            grid = figure_grid(fig_id)
            for lam in LAMBDAS:
                values = self.ref[(fig_id, f"{lam:.2f}")][0]
                bad = np.nonzero((grid > 0.0) & ~(values > 0.0))[0]
                if bad.size:
                    self.expected[(fig_id, f"{lam:.2f}")] = repr(float(grid[bad[0]]))
        self.expected_rc = 1 if self.expected else 0

    def execute(self, k, api, speed=None):
        sweep_s = []
        calibration_s = []
        solve_grid = self.kk.cli.solve_grid

        def timed_sweep(*args, **kwargs):
            start = perf_counter()
            try:
                return solve_grid(*args, **kwargs)
            finally:
                sweep_s.append(perf_counter() - start)
                if speed is not None:
                    calibration_s.append(speed.tick())

        shutil.rmtree(self.work_dir / "figures", ignore_errors=True)
        # Two clock reads per sweep mark the op boundaries inside cli.main;
        # the calibration samples taken there are not part of the pass.
        with patched(self.kk.cli, "solve_grid", timed_sweep):
            rc, out, err, wall = _capture(api.main, self.argv)
        return rc, err, sweep_s, wall - sum(calibration_s)

    def check(self, raw) -> Outcome:
        rc, err, sweep_s, wall = raw
        ops = [(f, f"{lam:.2f}") for f in self.fig_ids for lam in LAMBDAS]
        if len(sweep_s) != len(ops):
            raise RuntimeError(
                f"figures made {len(sweep_s)} solve_grid calls, expected {len(ops)}; "
                "the op boundaries of this workload no longer hold"
            )
        res = Outcome(wall_s=wall, op_s=sweep_s)
        bad_ops = set()
        reported = {}
        for line in err.splitlines():
            m = self._VIOLATION.fullmatch(line)
            if m is None:
                res.notes.append(f"unexpected stderr line: {line!r}")
                bad_ops.update(ops)
                continue
            op = (int(m.group(1)), m.group(2))
            reported[op] = (m.group(3), float(m.group(4)))
        if rc != self.expected_rc:
            res.notes.append(f"exit code {rc}, expected {self.expected_rc}")
            bad_ops.update(ops)
        for fig_id in self.fig_ids:
            grid = figure_grid(fig_id)
            columns = self._read_figure(fig_id, grid, res)
            for i, op in enumerate(o for o in ops if o[0] == fig_id):
                value, abs_sum = self.ref[op]
                if columns is None:
                    bad_ops.add(op)
                    continue
                got = columns[i]
                scale = max(1.0, float(np.max(np.abs(value))))
                err_abs = np.abs(got - value)
                res.max_err = max(res.max_err, float(np.max(err_abs)) / scale)
                if np.any(~(err_abs <= reference.tolerance(scale, abs_sum))):
                    res.notes.append(f"figure {op[0]} lambda {op[1]} disagrees with reference")
                    bad_ops.add(op)
                if op in self.expected:
                    t_ok = op in reported and reported[op][0] == self.expected[op]
                    idx = int(np.searchsorted(grid, float(self.expected[op])))
                    n_ok = t_ok and reported[op][1] == got[idx]
                    if not n_ok:
                        res.notes.append(f"figure {op[0]} lambda {op[1]}: positivity line "
                                         f"missing or wrong, got {reported.get(op)}")
                        bad_ops.add(op)
                elif op in reported:
                    res.notes.append(f"figure {op[0]} lambda {op[1]}: unexpected violation")
                    bad_ops.add(op)
        res.failed = res.wrong = len(bad_ops)
        return res

    def _read_figure(self, fig_id, grid, res):
        """The CSV columns of one figure, or None if its files are wrong."""
        out_dir = self.work_dir / "figures"
        csv_path, svg_path = out_dir / f"fig{fig_id}.csv", out_dir / f"fig{fig_id}.svg"
        try:
            csv_text = csv_path.read_text()
            svg_text = svg_path.read_text()
        except OSError as exc:
            res.notes.append(f"figure {fig_id}: {exc}")
            return None
        res.bytes_written += len(csv_text.encode()) + len(svg_text.encode())
        lines = csv_text.split("\n")
        header = "t," + ",".join(f"N_lambda_{lam:.2f}" for lam in LAMBDAS)
        svg_ok = (svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")
                  and svg_text.count("<polyline") == len(LAMBDAS))
        if lines[0] != header or lines[-1] != "" or len(lines) != GRID_POINTS + 2 or not svg_ok:
            res.notes.append(f"figure {fig_id}: malformed CSV or SVG")
            return None
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
        if not np.array_equal(table[:, 0], grid):
            res.notes.append(f"figure {fig_id}: time grid differs from the paper's")
            return None
        return table[:, 1:].T


class Verify(Workload):
    """``verify`` on the figure-1 job through ``cli.main``; one op is one command."""

    name = "verify"
    pass_multiple = len(LAMBDAS)
    _LINE = re.compile(r"(residual|max-rel-diff): (\S+)")

    def __init__(self, kk, seed, work_dir, tiny):
        super().__init__(kk, seed, work_dir, tiny)
        # The CLI default step is 1/2048; tiny runs pass a coarser one.
        self.step = 1.0 / 128.0 if tiny else 1.0 / 2048.0
        self.configs = {}
        for lam in LAMBDAS:
            path = work_dir / f"verify_lambda_{lam:.2f}.json"
            path.write_text(json.dumps({
                "theorem": 1, "n0": N0, "d": D, "nu": 1, "k": K, "gamma": GAMMA,
                "lambda": lam, "mu": MU, "b": B, "c": C, "t_end": 1.0, "n_points": 101,
            }))
            self.configs[lam] = path

    def lam(self, k: int) -> float:
        # Balanced blocks: each run of five passes is a seeded permutation of
        # LAMBDAS, and a run makes whole blocks only.  Every run then sees
        # each lambda equally often, and the median pass time falls on the
        # middle lambda instead of jumping between neighbours.
        block = list(LAMBDAS)
        random.Random(f"{self.name}:{self.seed}:{k // len(LAMBDAS)}").shuffle(block)
        return block[k % len(LAMBDAS)]

    def execute(self, k, api, speed=None):
        argv = ["verify", "--config", str(self.configs[self.lam(k)])]
        if self.tiny:
            argv += ["--grid-step", repr(self.step)]
        return _capture(api.main, argv)

    def check(self, raw) -> Outcome:
        rc, out, err, wall = raw
        res = Outcome(wall_s=wall, op_s=[wall])
        found = dict(self._LINE.fullmatch(line).groups() for line in out.splitlines()
                     if self._LINE.fullmatch(line))
        try:
            res.max_err = max(float(found["residual"]), float(found["max-rel-diff"]))
        except (KeyError, ValueError):
            res.max_err = math.inf
        # The product-trapezoid oracle is second order: its residual is
        # about h^2 / 4 on this job, so 4 h^2 leaves a wide margin.
        tol = 4.0 * self.step ** 2
        if rc != 0 or "verification: PASS" not in out or not res.max_err <= tol:
            res.notes.append(f"verify exit {rc}, max_err {res.max_err:.3g} (tolerance "
                             f"{tol:.3g}): {out.strip()!r} {err.strip()!r}")
            res.failed = res.wrong = 1
        return res


def _one(t: float) -> float:
    return 1.0


class Relaxation(Workload):
    """The constant-source relaxation solved by the Volterra oracle directly."""

    name = "relaxation"
    calibration = "rows"
    T_END = 2.0
    NU = 0.5

    def __init__(self, kk, seed, work_dir, tiny):
        super().__init__(kk, seed, work_dir, tiny)
        self.n_steps = 2048 if tiny else 32768

    def rate(self, k: int) -> float:
        return self.rng(k).uniform(0.5, 2.0)

    def execute(self, k, api, speed=None):
        c = self.rate(k)
        start = perf_counter()
        grid = api.QuadratureGrid(self.T_END, self.n_steps, self.NU)
        sol = api.solve_volterra(2.0, _one, c, grid)
        wall = perf_counter() - start
        return c, np.asarray(sol.values), wall

    def check(self, raw) -> Outcome:
        c, values, wall = raw
        res = Outcome(wall_s=wall, op_s=[wall])
        times = np.linspace(0.0, self.T_END, self.n_steps + 1)
        ref = np.array([reference.relaxation(c, t) for t in times])
        scale = max(1.0, float(np.max(np.abs(ref))))
        if values.shape == ref.shape:
            res.max_err = float(np.max(np.abs(values - ref))) / scale
        else:
            res.max_err = math.inf
        # The t^(1/2) behaviour at t = 0 makes the scheme first order here:
        # the error is about 0.15 c h, so c h leaves a wide margin.
        tol = c * self.T_END / self.n_steps
        if not res.max_err <= tol:
            res.notes.append(f"relaxation c={c!r}: error {res.max_err:.3g} > {tol:.3g}")
            res.failed = res.wrong = 1
        return res


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


class Points(Workload):
    """A seeded stream of scalar calls; one op is one call."""

    name = "points"
    tail_pct = 99.0
    min_ops = 1000
    calibrates_between_ops = True
    CALIBRATE_EVERY = 21  # calls

    def __init__(self, kk, seed, work_dir, tiny):
        super().__init__(kk, seed, work_dir, tiny)
        # Calls of each kind per pass; solve_point calls split evenly over the figures.
        self.per_kind = len(FIGURES) if tiny else 12 * len(FIGURES)
        self.min_ops = 3 * self.per_kind if tiny else self.min_ops
        self.omega_params = {
            lam: kk.KBesselParams(k=K, gamma=GAMMA, lam=lam, mu=MU, b=B, c=C) for lam in LAMBDAS
        }
        self.problems = {
            (f, lam): kk.KineticProblem(
                n0=N0, d=D, nu=1.0, variant=kk.Theorem(v), params=self.omega_params[lam], a=a)
            for f, (v, _, a) in FIGURES.items() for lam in LAMBDAS
        }
        self.refusals = (kk.CancellationError, kk.NonConvergenceError)

    def inputs(self, k: int) -> list[tuple]:
        # Every pass has the same mix of kinds, figures and lambdas, and
        # covers each argument range evenly (one draw per equal stratum), in
        # seeded order, so that passes differ only by the jitter inside each
        # stratum.
        rng = self.rng(k)
        n = self.per_kind
        calls = [("ml", rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), x)
                 for x in _strata(rng, n, -5.0, 2.0)]
        calls += [("omega", LAMBDAS[i % len(LAMBDAS)], z)
                  for i, z in enumerate(_strata(rng, n, 0.0, 6.0))]
        for fig_id, (_, t_end, _) in FIGURES.items():
            calls += [("solve", fig_id, LAMBDAS[i % len(LAMBDAS)], t)
                      for i, t in enumerate(_strata(rng, n // len(FIGURES), 0.0, t_end))]
        rng.shuffle(calls)
        return calls

    def execute(self, k, api, speed=None):
        calls = self.inputs(k)
        bound = []
        for call in calls:
            if call[0] == "ml":
                bound.append((api.mittag_leffler, (self.kk.MLParams(call[1], call[2]), call[3])))
            elif call[0] == "omega":
                bound.append((api.gen_k_bessel, (self.omega_params[call[1]], call[2])))
            else:
                bound.append((api.solve_point, (self.problems[(call[1], call[2])], call[3])))
        results, op_s = [], []
        error_types = self.kk.EvaluationError
        calibration_s = 0.0
        start = perf_counter()
        for i, (fn, args) in enumerate(bound):
            t0 = perf_counter()
            try:
                r = fn(*args)
            except error_types as exc:
                r = exc
            op_s.append(perf_counter() - t0)
            results.append(r)
            if speed is not None and i % self.CALIBRATE_EVERY == 0:
                calibration_s += speed.tick()
        wall = perf_counter() - start - calibration_s
        return calls, results, op_s, wall

    def check(self, raw) -> Outcome:
        calls, results, op_s, wall = raw
        res = Outcome(wall_s=wall, op_s=op_s)
        for call, r in zip(calls, results):
            if isinstance(r, Exception):
                res.failed += 1
                res.refused += isinstance(r, self.refusals)
                res.notes.append(f"{call} raised {type(r).__name__}: {r}")
                continue
            if call[0] == "ml":
                value, abs_sum = reference.mittag_leffler(*call[1:])
            elif call[0] == "omega":
                value, abs_sum = reference.k_bessel(K, GAMMA, call[1], MU, B, C, call[2])
            else:
                fig_id, lam, t = call[1:]
                value, abs_sum = reference.kinetic(FIGURES[fig_id][0], N0, D, figure_rate(fig_id),
                                             K, GAMMA, lam, MU, B, C, t)
            scale = max(1.0, abs(value))
            err = abs(r.value - value)
            res.max_err = max(res.max_err, err / scale)
            res.tail_exceeded += err > r.tail
            if not err <= reference.tolerance(scale, abs_sum):
                res.failed += 1
                res.wrong += 1
                res.notes.append(f"{call} gave {r.value!r}, reference {value!r}")
        return res


WORKLOADS = {w.name: w for w in (Figures, Verify, Relaxation, Points)}
