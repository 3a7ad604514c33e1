"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 9 (solution positivity on every built-in
figure sweep) checks the ``figures`` positivity gate against the exact
nu = 1 integrating-factor solution: the variant-1 solution genuinely
crosses zero inside the figure-2 and figure-3 time windows, so the gate
must exit 1 naming exactly the first non-positive node that route
predicts for each of those sweeps, and no other.
"""

import math
import re
import time

import numpy as np
import pytest

from kkinetics import (
    KBesselParams,
    KineticProblem,
    MLParams,
    QuadratureGrid,
    Theorem,
    cli,
    fox_wright,
    FoxWrightSpec,
    gen_k_bessel,
    k_bessel_j,
    k_gamma,
    k_pochhammer,
    k_wright_w,
    laplace_check,
    mittag_leffler,
    residual,
    solve_grid,
    solve_point,
    solve_volterra,
)
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem

H = 1.0 / 2048.0


def _report(num: int, name: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {verdict} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


def test_criterion_1_mittag_leffler_identity_suite():
    t0 = time.perf_counter()
    xs = np.linspace(-3.0, 3.0, 61)
    worst = 0.0
    for x in xs:
        x = float(x)
        worst = max(worst, abs(
            mittag_leffler(MLParams(1, 1), x).value - math.exp(x)))
        want = (math.expm1(x) / x) if x != 0.0 else 1.0
        worst = max(worst, abs(mittag_leffler(MLParams(1, 2), x).value - want))
        worst = max(worst, abs(
            mittag_leffler(MLParams(2, 1), -x * x).value - math.cos(x)))
        want = (math.sinh(x) / x) if x != 0.0 else 1.0
        worst = max(worst, abs(mittag_leffler(MLParams(2, 2), x * x).value - want))
    elapsed = time.perf_counter() - t0
    _report(1, "Mittag-Leffler identity suite",
            worst <= 1e-12 and elapsed < 1.0,
            f"max abs err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_k_calculus_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ks = (0.5, 1.0, 2.0, 3.0)
    worst_poch = 0.0
    for _ in range(1000):
        g = float(rng.uniform(1e-3, 10.0))
        n = int(rng.integers(0, 21))
        k = ks[int(rng.integers(0, 4))]
        prod = k_pochhammer(g, n, k)
        ratio = k_gamma(g + n * k, k) / k_gamma(g, k)
        worst_poch = max(worst_poch, abs(prod - ratio) / ratio)
    worst_gamma = 0.0
    for g in rng.uniform(1e-2, 10.0, 200):
        g = float(g)
        worst_gamma = max(
            worst_gamma, abs(k_gamma(g, 1.0) - math.gamma(g)) / math.gamma(g))
    elapsed = time.perf_counter() - t0
    _report(2, "k-calculus consistency",
            worst_poch <= 1e-12 and worst_gamma <= 1e-13 and elapsed < 1.0,
            f"pochhammer {worst_poch:.3e}, gamma {worst_gamma:.3e}, {elapsed:.2f}s")


def test_criterion_3_reduction_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        k = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(1.0, 2.5))
        mu = float(rng.uniform(0.2, 1.5))
        for z in (0.1, 0.5, 1.0, 2.0, 4.0):
            pj = KBesselParams(k=k, gamma=g, lam=lam, mu=mu, b=1.0, c=1.0)
            rhs = (z / 2.0) ** mu * k_bessel_j(k, g, lam, mu, z * z / 2.0).value
            worst = max(worst, abs(gen_k_bessel(pj, z).value - rhs) / abs(rhs))
            pw = KBesselParams(k=k, gamma=g, lam=lam, mu=mu, b=-1.0, c=1.0)
            rhs = (z / 2.0) ** mu * k_wright_w(k, g, lam, mu, -z * z / 2.0).value
            worst = max(worst, abs(gen_k_bessel(pw, z).value - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    _report(3, "Bessel/Wright reduction identities",
            worst <= 1e-12 and elapsed < 2.0,
            f"max rel err {worst:.3e} over 50 parameter sets x 5 z, {elapsed:.2f}s")


def test_criterion_4_fox_wright_reduction():
    t0 = time.perf_counter()
    a1, a2, b1 = 1.25, 2.0, 3.75
    spec = FoxWrightSpec(upper=((a1, 1.0), (a2, 1.0)), lower=((b1, 1.0),))
    pref = math.gamma(a1) * math.gamma(a2) / math.gamma(b1)
    worst = 0.0
    for z in (0.1, 0.3, 0.5):
        # independent Gauss-hypergeometric partial sums
        s, num = 0.0, 1.0
        for n in range(200):
            s += num
            num *= (a1 + n) * (a2 + n) / ((b1 + n) * (n + 1.0)) * z
        want = pref * s
        worst = max(worst, abs(fox_wright(spec, z).value - want) / abs(want))
    elapsed = time.perf_counter() - t0
    _report(4, "Fox-Wright to 2F1 reduction",
            worst <= 1e-12 and elapsed < 1.0,
            f"max rel err {worst:.3e}, {elapsed:.2f}s")


def _oracle_metrics(prob: KineticProblem, t_end: float, n_steps: int):
    grid = QuadratureGrid(t_end, n_steps, prob.nu)
    table = solve_grid(prob, grid.times)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    series = np.asarray(table.values)
    scale = max(1.0, float(np.max(np.abs(oracle.values))))
    rel_diff = float(np.max(np.abs(series - oracle.values))) / scale
    return rel_diff, residual(table, oracle)


def test_criterion_5_theorem1_oracle_equivalence():
    t0 = time.perf_counter()
    worst_diff = worst_res = 0.0
    for lam in LAMBDAS:
        prob = figure_problem(FIGURES[1], lam)
        rel_diff, res = _oracle_metrics(prob, 1.0, 2048)
        worst_diff = max(worst_diff, rel_diff)
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - t0
    _report(5, "variant-1 series vs Volterra oracle",
            worst_diff <= 5e-4 and worst_res <= 5e-4 and elapsed < 60.0,
            f"rel diff {worst_diff:.3e}, residual {worst_res:.3e}, {elapsed:.1f}s")


def test_criterion_6_theorem2_theorem3_oracle_equivalence():
    t0 = time.perf_counter()
    n_steps = 102  # keeps h = 1/2048 with the grid inside [0, 0.05]
    t_end = n_steps * H
    worst = 0.0
    for fig_id in (4, 6):
        for lam in LAMBDAS:
            prob = figure_problem(FIGURES[fig_id], lam)
            rel_diff, res = _oracle_metrics(prob, t_end, n_steps)
            worst = max(worst, rel_diff, res)
    elapsed = time.perf_counter() - t0
    _report(6, "variants 2-3 series vs Volterra oracle",
            worst <= 5e-4 and elapsed < 60.0,
            f"worst metric {worst:.3e}, {elapsed:.1f}s")


def test_criterion_7_equal_rate_coincidence():
    worst = 0.0
    grid = np.linspace(0.0, 0.05, 201)
    for lam in LAMBDAS:
        prob2 = figure_problem(FIGURES[4], lam)
        # the variant-3 formula at a = d: KineticProblem refuses a = d for
        # variant 3, so the guard is bypassed on purpose to evaluate it
        prob3 = KineticProblem(n0=prob2.n0, d=prob2.d, nu=prob2.nu, variant=Theorem.T3,
                               params=prob2.params, a=2.0 * prob2.d)
        object.__setattr__(prob3, "a", prob2.d)
        for t in grid:
            t = float(t)
            v2 = solve_point(prob2, t).value
            v3 = solve_point(prob3, t).value
            denom = max(abs(v2), 1e-300)
            worst = max(worst, abs(v3 - v2) / denom)
    _report(7, "variant 2/3 coincidence at a = d",
            worst <= 1e-15,
            f"max rel diff {worst:.3e} on 201 points x 5 lambdas")


def test_criterion_8_relaxation_baseline():
    def rel_errors(nu: float, n_steps: int) -> np.ndarray:
        grid = QuadratureGrid(2.0, n_steps, nu)
        sol = solve_volterra(2.0, lambda t: 1.0, 1.0, grid)
        ref = np.array([
            2.0 * mittag_leffler(MLParams(nu, 1.0), -(t ** nu)).value
            for t in grid.times
        ])
        return np.abs(sol.values - ref) / np.abs(ref)

    details = []
    ok = True
    for nu in (0.5, 1.0):
        coarse = rel_errors(nu, 4096)  # h = 1/2048 on [0, 2]
        fine = rel_errors(nu, 8192)
        # order measured on the common comparison nodes; the first fine node
        # sits closer to the t^nu cusp than any coarse node ever did
        gain = coarse.max() / fine[::2].max()
        ok = ok and coarse.max() <= 5e-4 and gain >= 3.0
        details.append(f"nu={nu}: err {coarse.max():.3e}, halving gain {gain:.2f}x")
    _report(8, "constant-source relaxation baseline", ok, "; ".join(details))


_VIOLATION = re.compile(
    r"positivity violated: figure (\d+), lambda (\S+), t (\S+) gives N = \S+")
# The exact route below agrees with the series to ~1e-9 on the figure grids;
# a node closer to zero than this leaves the sign it predicts unsettled.
_SIGN_MARGIN = 1e-6


def _exact_nu1_route(prob: KineticProblem, grid: np.ndarray) -> np.ndarray:
    """N on `grid` from the exact nu = 1 integrating-factor solution.

    At nu = 1 the equation N + r I N = N0 w is the ODE M' + r M = N0 w for
    M = I N, so N(t) = N0 (w(t) - r e^{-rt} int_0^t e^{rs} w(s) ds).  The
    integral is composite Simpson with one panel per grid step (midpoints
    added), built from the problem's source and rate only, never from the
    series solver.
    """
    assert prob.nu == 1.0
    r = prob.rate
    mids = 0.5 * (grid[:-1] + grid[1:])
    w = np.array([prob.source(float(t)) for t in grid])
    f = np.exp(r * grid) * w
    fm = np.exp(r * mids) * np.array([prob.source(float(t)) for t in mids])
    panels = np.diff(grid) / 6.0 * (f[:-1] + 4.0 * fm + f[1:])
    integral = np.concatenate(([0.0], np.cumsum(panels)))
    return prob.n0 * (w - r * np.exp(-r * grid) * integral)


def test_criterion_9_figure_positivity(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["figures", "--all", "--out-dir", str(tmp_path)])
    stderr = capsys.readouterr().err
    csvs = sorted(p.name for p in tmp_path.glob("fig*.csv"))
    svgs = sorted(p.name for p in tmp_path.glob("fig*.svg"))
    files_ok = len(csvs) == 7 and len(svgs) == 7
    problems = [f"unparsed stderr line: {line!r}"
                for line in stderr.splitlines() if not _VIOLATION.fullmatch(line)]
    lines = [(int(fig), float(lam), float(t))
             for fig, lam, t in _VIOLATION.findall(stderr)]
    reported = set(lines)
    if len(reported) != len(lines):
        problems.append("repeated gate lines")
    expected = set()
    for fig_id, spec in FIGURES.items():
        grid = figure_grid(spec)
        routes = [_exact_nu1_route(figure_problem(spec, lam), grid) for lam in LAMBDAS]
        for lam, route in zip(LAMBDAS, routes):
            near = np.flatnonzero(np.abs(route[1:]) < _SIGN_MARGIN)
            if near.size:
                problems.append(
                    f"route sign unsettled: figure {fig_id}, lambda {lam:.2f}, "
                    f"t {float(grid[1 + near[0]])!r}")
            crossing = np.flatnonzero(~(route[1:] > 0.0))
            if crossing.size:
                expected.add((fig_id, lam, float(grid[1 + crossing[0]])))
        csv_path = tmp_path / f"fig{fig_id}.csv"
        if not csv_path.exists():
            continue
        rows = [[float(x) for x in line.split(",")]
                for line in csv_path.read_text().splitlines()[1:]]
        if [row[0] for row in rows] != list(grid):
            problems.append(f"figure {fig_id}: CSV t column is not the figure grid")
            continue
        for i, row in enumerate(rows[1:], start=1):
            for lam, route, n in zip(LAMBDAS, routes, row[1:]):
                if (n > 0.0) != (route[i] > 0.0):
                    problems.append(
                        f"CSV sign: figure {fig_id}, lambda {lam:.2f}, t {row[0]!r}, "
                        f"N {n!r} vs route {route[i]:.6e}")
    elapsed = time.perf_counter() - t0
    problems = (
        [f"unexpected gate line: figure {f}, lambda {lam:.2f}, t {t!r}"
         for f, lam, t in sorted(reported - expected)]
        + [f"missing gate line: figure {f}, lambda {lam:.2f}, t {t!r}"
           for f, lam, t in sorted(expected - reported)]
        + problems
    )
    _report(9, "figure sweep positivity",
            rc == 1 and files_ok and not problems and elapsed < 120.0,
            f"exit code {rc}, {len(csvs)} CSVs + {len(svgs)} SVGs, "
            f"{len(reported)} gate lines vs {len(expected)} zero crossings from the"
            f" exact nu=1 route, {elapsed:.1f}s"
            + "".join(f"; {msg}" for msg in problems[:20]))


def test_criterion_10_laplace_domain_identity():
    prob = figure_problem(FIGURES[1], 1.0)
    worst = 0.0
    for p in (5.0, 10.0):
        worst = max(worst, laplace_check(prob, lambda t: solve_point(prob, t).value, p))
    _report(10, "transform-domain defining relation",
            worst <= 1e-3,
            f"max relative defect {worst:.3e} at p in {{5, 10}}")
