"""Quadrature weights, Volterra solving, residual and Laplace checks."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kkinetics import (
    DomainError,
    EvaluationError,
    KBesselParams,
    KineticProblem,
    MLParams,
    OverflowLogError,
    QuadratureGrid,
    SolutionTable,
    Theorem,
    haubold_mathai,
    laplace_check,
    laplace_transform,
    mittag_leffler,
    residual,
    solve_grid,
    solve_volterra,
)
from kkinetics import fracoracle
from kkinetics.fracoracle import InstabilityError, _reciprocal

SRC = Path(__file__).resolve().parents[1] / "src"


def fig1_problem(n0=2.0):
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    return KineticProblem(n0=n0, d=3.0, nu=1.0, variant=Theorem.T1, params=params)


# ---------------------------------------------------------------- weights


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 1.0, 1.5])
def test_weight_rows_integrate_constants(nu):
    grid = QuadratureGrid(2.0, 256, nu)
    row_sums = grid.rl_integral(np.ones(257))
    for j in range(1, 257):
        exact = grid.times[j] ** nu / math.gamma(nu + 1.0)
        assert row_sums[j] == pytest.approx(exact, rel=1e-12), f"j={j}"


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
def test_weights_nonnegative_for_low_order(nu):
    # rl_integral of the unit impulse at node i is column i of the weights
    grid = QuadratureGrid(1.0, 128, nu)
    for i in range(129):
        impulse = np.zeros(129)
        impulse[i] = 1.0
        assert np.all(grid.rl_integral(impulse) >= 0.0), f"column {i}"


def test_grid_refuses_weights_that_drift_from_the_constant_rule():
    # at a tiny order the increments m**nu - (m-1)**nu fall below half an ulp
    # of their running sum, which then drops them
    with pytest.raises(EvaluationError, match="drifted from the constant rule"):
        QuadratureGrid(1.0, 2 ** 17, 1e-12)


def test_grid_refuses_negative_weights_at_a_vanishing_order():
    with pytest.raises(InstabilityError, match="negative quadrature weight for nu = 1e-300"):
        QuadratureGrid(1.0, 64, 1e-300)


def test_grid_validation():
    with pytest.raises(DomainError):
        QuadratureGrid(0.0, 10, 0.5)
    with pytest.raises(DomainError):
        QuadratureGrid(1.0, 0, 0.5)
    with pytest.raises(DomainError):
        QuadratureGrid(1.0, 10, -0.5)


def test_grid_refuses_an_infinite_end_and_a_fractional_step_count():
    # t_end = inf used to warn in linspace and then raise OverflowLogError,
    # and n_steps = 10.5 silently built 10 steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            QuadratureGrid(math.inf, 10, 0.5)
    for n_steps in (10.5, 10.0, np.float64(10.0), True):  # True was one step
        with pytest.raises(DomainError, match="integer"):
            QuadratureGrid(1.0, n_steps, 0.5)
    grid = QuadratureGrid(1.0, np.int64(10), 0.5)
    assert type(grid.n_steps) is int and grid.n_steps == 10 and grid.times.size == 11


def test_grid_refuses_an_order_whose_gamma_overflows():
    # math.gamma(700) used to end in a bare OverflowError; 8**701 of the
    # weights refuses it now
    with pytest.raises(OverflowLogError):
        QuadratureGrid(1.0, 8, 700.0)


def test_grid_refuses_weights_that_overflow():
    # 2048**151 overflows: the weights used to turn NaN and pass the drift check
    with pytest.raises(OverflowLogError, match=r"2048\*\*151\.0 of the weights"):
        QuadratureGrid(1.0, 2048, 150.0)


def test_grid_forms_its_scale_in_logs():
    # 100**160 overflows on its own; 100**160 / Gamma(160) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = QuadratureGrid(100.0, 1, 160.0)
    want = math.exp(160.0 * math.log(100.0) - math.lgamma(161.0))
    assert grid.rl_integral(np.ones(2))[1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("t_end, n, nu", [(10.0, 4, 200.0), (100.0, 8, 300.0),
                                          (30.0, 16, 180.0)])
def test_grid_builds_past_the_order_where_gamma_overflows(t_end, n, nu):
    # Gamma(nu + 1) is past the doubles, but the weights form it only in logs:
    # these grids were refused, and they integrate ones to t**nu / Gamma(nu + 1)
    grid = QuadratureGrid(t_end, n, nu)
    got = grid.rl_integral(np.ones(n + 1))[1:]
    want = np.exp(nu * np.log(grid.times[1:]) - math.lgamma(nu + 1.0))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


def test_grid_refuses_a_scale_that_overflows():
    with pytest.raises(OverflowLogError, match=r"t_end\*\*nu / Gamma\(nu\)"):
        QuadratureGrid(1e5, 1, 160.0)


def test_grid_refuses_a_scale_that_underflows():
    # h**nu = 2.5e-4**150 is 0.0 in double: the drift check used to divide 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="underflows"):
            QuadratureGrid(1e-3, 4, 150.0)


def _power_increments(m, p):
    """m**p - (m-1)**p for integer m >= 1, one call per power: the reference
    for the increments QuadratureGrid forms from shared m**nu and log1p(-1/m)."""
    out = np.empty_like(m)
    out[m == 1.0] = 1.0
    big = m[m > 1.0]
    out[m > 1.0] = -(big ** p) * np.expm1(p * np.log1p(-1.0 / big))
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 4096])
@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 1.5, 2.5])
def test_grid_weights_match_the_two_call_increments_bit_for_bit(nu, n):
    grid = QuadratureGrid(2.0, n, nu)
    m = np.arange(0, n + 1, dtype=float)
    m[0] = 1.0
    d_nu, d_nu1 = _power_increments(m, nu), _power_increments(m, nu + 1.0)
    scale = math.exp(nu * math.log(2.0 / n) - math.lgamma(nu))
    a = scale * (d_nu1 / (nu + 1.0) - (m - 1.0) * d_nu / nu)
    b = scale * d_nu / nu - a
    a[0] = b[0] = 0.0
    assert np.array_equal(grid._a, a)
    assert np.array_equal(grid._kernel, np.concatenate((b[1:2], a[1:-1] + b[2:])))


def test_rl_integral_of_linear_is_exact_at_unit_order():
    grid = QuadratureGrid(2.0, 64, 1.0)
    got = grid.rl_integral(grid.times)
    for j in (1, 10, 64):
        assert got[j] == pytest.approx(grid.times[j] ** 2 / 2.0, rel=1e-12)


def test_rl_integral_power_rule_half_order():
    # I^{1/2} s^2 = Gamma(3)/Gamma(3.5) t^{2.5}, second-order accurate
    def err(n):
        grid = QuadratureGrid(1.0, n, 0.5)
        got = grid.rl_integral(grid.times ** 2)[n]
        want = math.gamma(3.0) / math.gamma(3.5)
        return abs(got - want) / want

    e_coarse, e_fine = err(256), err(512)
    assert e_coarse < 1e-4
    assert e_coarse / e_fine > 3.0


def test_rl_integral_at_origin_is_zero():
    grid = QuadratureGrid(1.0, 8, 0.7)
    assert grid.rl_integral(np.ones(9))[0] == 0.0


def test_rl_integral_needs_one_sample_per_node():
    grid = QuadratureGrid(1.0, 8, 0.7)
    with pytest.raises(DomainError):
        grid.rl_integral(np.ones(8))
    with pytest.raises(DomainError, match="need 9 samples"):
        fracoracle._solve_forcing(np.ones(8), 1.0, grid)


def _dense_weights(t_end, n, nu):
    """The full matrix W of the product-trapezoid rule, entry by entry from the
    A_m and B_m formulas of the fracoracle docstring, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        h, nu = mpmath.mpf(t_end) / n, mpmath.mpf(nu)

        def a(m):
            return h ** nu * (
                (m ** (nu + 1) - (m - 1) ** (nu + 1)) / (nu + 1)
                - (m - 1) * (m ** nu - (m - 1) ** nu) / nu
            )

        def b(m):
            return h ** nu * (
                m * (m ** nu - (m - 1) ** nu) / nu
                - (m ** (nu + 1) - (m - 1) ** (nu + 1)) / (nu + 1)
            )

        w = np.zeros((n + 1, n + 1))
        for j in range(1, n + 1):
            w[j, 0] = a(j) / mpmath.gamma(nu)
            for i in range(1, j):
                w[j, i] = (a(j - i) + b(j - i + 1)) / mpmath.gamma(nu)
            w[j, j] = b(1) / mpmath.gamma(nu)
    return w


def _wave(t):
    return math.exp(-t) * math.cos(3.0 * t) + 0.5 * t


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_rule_matches_dense_weight_matrix(nu, n):
    grid = QuadratureGrid(2.0, n, nu)
    w = _dense_weights(2.0, n, nu)
    samples = np.random.default_rng(n).normal(size=n + 1)
    want = w @ samples
    assert np.max(np.abs(grid.rl_integral(samples) - want)) <= 1e-13 * max(
        1.0, np.max(np.abs(want))
    )
    # the oracle solves (I + r^nu W) N = n0 f
    n0, rate = 1.7, 1.3
    sol = solve_volterra(n0, _wave, rate, grid)
    f = np.array([_wave(t) for t in grid.times])
    defect = sol.values + rate ** nu * (w @ sol.values) - n0 * f
    assert np.max(np.abs(defect)) <= 1e-13 * max(1.0, np.max(np.abs(sol.values)))


def test_rl_integral_fft_branch_matches_direct_convolution():
    n = 5000  # not a power of two, far past the direct-convolution cutoff
    grid = QuadratureGrid(2.0, n, 0.5)
    samples = np.random.default_rng(5).normal(size=n + 1)
    want = grid._a * samples[0]
    want[1:] += np.convolve(grid._kernel, samples[1:])[:n]
    got = grid.rl_integral(samples)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_import_does_not_load_numpy_fft():
    # loading numpy.fft adds about 6 ms to every `import kkinetics`
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import kkinetics, sys; print('numpy.fft' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------- Volterra solver


def _forward_substitution(n0, source, rate, grid):
    """The O(n^2) step-by-step march, the reference for the fast solve:
    N_j = (F_j - r (A_j N_0 + sum_{0<i<j} w[j][i] N_i)) / (1 + r B_1), with
    the history stored newest-first so each step dots contiguous slices."""
    forcing = n0 * np.array([source(t) for t in grid.times])
    kernel, a = grid._kernel, grid._a
    r = rate ** grid.nu
    denom = 1.0 + r * kernel[0]
    n = grid.n_steps
    hist = np.empty(n + 1)
    hist[n] = v0 = forcing[0]
    for j in range(1, n + 1):
        conv = a[j] * v0 + kernel[1:j] @ hist[n - j + 1 : n]
        hist[n - j] = (forcing[j] - r * conv) / denom
    return hist[::-1]


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 257, 389, 513, 1025, 4096])
def test_volterra_matches_forward_substitution(n, nu):
    # 513 and 1025 put the halves of the division on either side of the
    # 256-entry cutoff between np.convolve and the FFT
    grid = QuadratureGrid(2.0, n, nu)
    for rate in (0.5, 1.3, 2.0):
        for source in (lambda t: 1.0, _wave):
            got = solve_volterra(1.7, source, rate, grid).values
            # the callable form samples the source and solves on the array
            forcing = 1.7 * np.array([source(t) for t in grid.times])
            core = fracoracle._solve_forcing(forcing, rate, grid)
            assert np.array_equal(got, core.values)
            want = _forward_substitution(1.7, source, rate, grid)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (
                f"rate={rate}, source={source}"
            )


def _dense_block(col):
    size = col.size
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, col[np.abs(lag)], 0.0)


@pytest.mark.parametrize("nu, rate, n", [(0.5, 1.3, 37), (1.0, 3.0, 128), (0.75, 1.0, 257),
                                         (1.5, 0.5, 389), (0.25, 2.0, 1000)])
def test_base_block_inverse_matches_the_dense_inverse(nu, rate, n):
    # the whole system is the block: 1/c(x) is column 0 of the inverse of I + r K
    grid = QuadratureGrid(2.0, n, nu)
    r = rate ** nu
    col = r * grid._kernel
    col[0] = 1.0 + r * grid._kernel[0]
    dense = np.linalg.inv(_dense_block(col))
    got = _reciprocal(col, n)
    eps = np.finfo(float).eps
    assert got.shape == (n,)
    assert np.max(np.abs(got - dense[:, 0])) <= 4.0 * eps * np.max(np.abs(dense))
    # the solve against one with the dense inverse
    sol = solve_volterra(1.7, _wave, rate, grid)
    rhs = sol.forcing[1:] - r * grid._a[1:] * sol.forcing[0]
    want = np.concatenate((sol.forcing[:1], dense @ rhs))
    assert np.max(np.abs(sol.values - want)) <= 4.0 * eps * np.max(np.abs(want))


def test_volterra_division_makes_logarithmically_many_products(monkeypatch, empty_registries):
    # cold: a weights set that kept this rate's inverse would skip the division
    n = 32768
    grid = QuadratureGrid(2.0, n, 0.5)
    calls = []

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    convolve = fracoracle._convolve
    monkeypatch.setattr(fracoracle, "_convolve", counted)
    solve_volterra(2.0, lambda t: 1.0, 1.3, grid)
    assert len(calls) <= 3 * math.log2(n)


def test_volterra_division_transforms_g_once_per_product_pair(monkeypatch, empty_registries):
    # 13 FFT products at n = 32768: two in each of the five Newton steps past
    # the direct-convolution cutoff and three in the Karp-Markstein step.  g
    # meets two operands at one length in each Newton step and in the
    # Karp-Markstein step, so 26 operand transforms are 20.  A second grid
    # with the same inputs shares the first one's kernel spectrum: 19 at a
    # new rate.  Another solve at that rate reuses the stored inverse and
    # its transform, so only the Karp-Markstein step's three products remain.
    from numpy import fft

    n = 32768
    rfft, irfft = fft.rfft, fft.irfft
    counts = {"rfft": 0, "irfft": 0}

    def counted(name, transform):
        def call(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return call

    monkeypatch.setattr(fft, "rfft", counted("rfft", rfft))
    monkeypatch.setattr(fft, "irfft", counted("irfft", irfft))
    solve_volterra(2.0, lambda t: 1.0, 1.3, QuadratureGrid(2.0, n, 0.5))
    assert counts == {"rfft": 20, "irfft": 13}
    counts.update(rfft=0, irfft=0)
    solve_volterra(2.0, lambda t: 1.0, 0.9, QuadratureGrid(2.0, n, 0.5))
    assert counts == {"rfft": 19, "irfft": 13}
    counts.update(rfft=0, irfft=0)
    solve_volterra(2.0, lambda t: 1.0, 0.9, QuadratureGrid(2.0, n, 0.5))
    assert counts == {"rfft": 3, "irfft": 3}


def test_volterra_calls_the_source_once_per_node_in_order_with_python_floats():
    grid = QuadratureGrid(2.0, 300, 0.5)
    seen = []

    def source(t):
        seen.append(t)
        return 1.0 + t

    solve_volterra(1.5, source, 1.3, grid)
    assert all(type(t) is float for t in seen)
    assert seen == grid.times.tolist()


def test_volterra_refuses_a_solution_that_leaves_the_double_range():
    # at nu = 2.5 the relaxation grows without bound; at rate 2000 a
    # node-by-node march overflows from node 2546 of 4096, and no partial
    # values may come back
    grid = QuadratureGrid(2.0, 4096, 2.5)
    with pytest.raises(EvaluationError, match="not finite"):
        solve_volterra(1.0, lambda t: 1.0, 2000.0, grid)


def test_volterra_refuses_a_rate_power_past_the_doubles():
    # 100**160 overflows: it used to end in a bare OverflowError
    with pytest.raises(OverflowLogError, match="rate"):
        solve_volterra(1.0, lambda t: 1.0, 100.0, QuadratureGrid(100.0, 16, 160.0))


def test_volterra_refuses_a_diagonal_past_the_doubles():
    # 12**220 is a double, but 12**220 * B_1 is not: numpy's multiply used to
    # warn, and the solve went on with an infinite diagonal
    with pytest.raises(InstabilityError, match="not a positive double"):
        solve_volterra(1.0, lambda t: 1.0, 12.0, QuadratureGrid(200.0, 1, 220.0))


def test_volterra_zero_source_is_zero():
    grid = QuadratureGrid(1.0, 64, 0.5)
    sol = solve_volterra(3.0, lambda t: 0.0, 1.0, grid)
    assert np.all(sol.values == 0.0)


def test_volterra_initial_value_matches_source():
    grid = QuadratureGrid(1.0, 16, 0.5)
    sol = solve_volterra(2.5, lambda t: 1.0 + t, 1.0, grid)
    assert sol.values[0] == 2.5


def test_volterra_classical_ode_limit():
    # nu=1, f=1: N = n0 exp(-d t), second order in h
    grid = QuadratureGrid(2.0, 1024, 1.0)
    sol = solve_volterra(2.0, lambda t: 1.0, 1.0, grid)
    ref = 2.0 * np.exp(-grid.times)
    assert np.max(np.abs(sol.values - ref) / ref) < 1e-5


def test_volterra_half_order_relaxation():
    # nu=1/2, f=1: N = n0 E_{1/2,1}(-sqrt(t))
    grid = QuadratureGrid(2.0, 2048, 0.5)
    sol = solve_volterra(2.0, lambda t: 1.0, 1.0, grid)
    ref = np.array(
        [2.0 * mittag_leffler(MLParams(0.5, 1.0), -math.sqrt(t)).value for t in grid.times]
    )
    assert np.max(np.abs(sol.values - ref) / np.abs(ref)) < 5e-4


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_volterra_halving_step_gains_order(nu):
    # empirical order measured on a common set of comparison nodes; the
    # moving first node sits ever closer to the t^nu cusp and would mask
    # the interior convergence rate
    def rel_errors(n):
        grid = QuadratureGrid(2.0, n, nu)
        sol = solve_volterra(2.0, lambda t: 1.0, 1.0, grid)
        ref = np.array(
            [2.0 * mittag_leffler(MLParams(nu, 1.0), -(t ** nu)).value for t in grid.times]
        )
        return np.abs(sol.values - ref) / np.abs(ref)

    coarse = rel_errors(1024).max()
    fine = rel_errors(2048)[::2].max()
    assert coarse / fine >= 3.0


# ---------------------------------------------------------------- residual


def _table_from_values(prob, grid, values):
    return SolutionTable(
        times=tuple(float(t) for t in grid.times),
        values=tuple(float(v) for v in values),
        terms=(1,) * len(values),
        tails=(0.0,) * len(values),
        problem=prob,
    )


def test_residual_of_discrete_solution_is_roundoff():
    prob = fig1_problem()
    grid = QuadratureGrid(1.0, 256, prob.nu)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    table = _table_from_values(prob, grid, oracle.values)
    assert residual(table, oracle) <= 1e-13


def test_residual_of_discrete_solution_is_roundoff_at_large_n():
    # both FFT uses end to end: the division solve and the residual's rl_integral
    prob = KineticProblem(n0=2.0, d=1.0, nu=0.5, variant=Theorem.T1,
                          params=fig1_problem().params)
    grid = QuadratureGrid(2.0, 32768, 0.5)
    oracle = solve_volterra(2.0, lambda t: 1.0, 1.3, grid)
    table = _table_from_values(prob, grid, oracle.values)
    assert residual(table, oracle) <= 1e-12


def test_residual_of_series_solution_is_small():
    prob = fig1_problem()
    grid = QuadratureGrid(1.0, 512, prob.nu)
    table = solve_grid(prob, grid.times)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    assert residual(table, oracle) <= 5e-4


def test_residual_detects_perturbation():
    # +1% at the peak node must push the normalized defect past 5e-3
    prob = fig1_problem(n0=40.0)  # peak N well above 1
    grid = QuadratureGrid(1.0, 256, prob.nu)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    values = oracle.values.copy()
    j = int(np.argmax(np.abs(values)))
    values[j] *= 1.01
    table = _table_from_values(prob, grid, values)
    assert residual(table, oracle) >= 5e-3


def test_residual_past_the_double_range_reads_inf():
    # rate**nu * (I^nu N) = 1e10 * ~1e300 overflows: it used to raise a
    # RuntimeWarning (an error in this suite) from numpy's multiply
    prob = fig1_problem()
    grid = QuadratureGrid(1.0, 4, 0.5)
    oracle = solve_volterra(1.0, lambda t: 1.0, 1e20, grid)
    table = _table_from_values(prob, grid, np.full(5, 1e300))
    assert residual(table, oracle) == math.inf


def test_residual_rejects_mismatched_grid():
    prob = fig1_problem()
    grid = QuadratureGrid(1.0, 64, prob.nu)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    for other in (QuadratureGrid(1.0, 32, prob.nu), QuadratureGrid(0.5, 64, prob.nu)):
        table = solve_grid(prob, other.times)
        with pytest.raises(DomainError):
            residual(table, oracle)


# ---------------------------------------------------------------- relaxation baseline


def test_haubold_mathai_at_zero_is_n0():
    assert haubold_mathai(3.5, 1.0, 0.7, 0.0).value == pytest.approx(3.5, rel=1e-15)


@pytest.mark.parametrize("t, shown", [(-0.5, r"-0\.5"), (math.nan, "nan")])
def test_haubold_mathai_rejects_negative_and_nan_time(t, shown):
    with pytest.raises(DomainError, match=rf"^t must be >= 0, got {shown}$"):
        haubold_mathai(2.0, 1.0, 0.5, t)


@pytest.mark.parametrize("n0", [math.inf, -math.inf, math.nan])
def test_haubold_mathai_refuses_a_non_finite_n0(n0):
    # inf used to come back as (inf, 39, inf), and nan as nan
    with pytest.raises(DomainError, match=f"^n0 must be finite, got {n0}$"):
        haubold_mathai(n0, 1.0, 0.5, 1.0)


def test_haubold_mathai_unit_order_is_exponential():
    got = haubold_mathai(2.0, 1.0, 1.0, 1.0).value
    assert got == pytest.approx(2.0 * 0.36787944117144233, rel=1e-13)


def test_haubold_mathai_half_order_value():
    # mpmath: E_{1/2,1}(-1) = e*erfc(1) = 0.42758357615580700441
    got = haubold_mathai(2.0, 1.0, 0.5, 1.0).value
    assert got == pytest.approx(2.0 * 0.427583576155807, rel=1e-12)


def test_haubold_mathai_tail_is_nonnegative_for_negative_n0():
    # n0 scales the value; the error bound scales by |n0|
    neg = haubold_mathai(-2.0, 1.0, 0.5, 1.0)
    pos = haubold_mathai(2.0, 1.0, 0.5, 1.0)
    assert neg.value == -pos.value
    assert neg.tail == pos.tail > 0.0


def test_haubold_mathai_cross_checks_volterra():
    grid = QuadratureGrid(1.0, 1024, 0.5)
    sol = solve_volterra(2.0, lambda t: 1.0, 1.0, grid)
    want = haubold_mathai(2.0, 1.0, 0.5, 1.0).value
    assert float(sol.values[-1]) == pytest.approx(want, rel=5e-4)


# ---------------------------------------------------------------- Laplace domain


def test_laplace_transform_closed_forms():
    p = 10.0
    assert laplace_transform(lambda t: 1.0, p) == pytest.approx(1.0 / p, rel=1e-6)
    d = 3.0
    assert laplace_transform(lambda t: math.exp(-d * t), p) == pytest.approx(
        1.0 / (p + d), rel=1e-6
    )


def test_laplace_transform_of_zero_is_zero():
    assert laplace_transform(lambda t: 0.0, 5.0) == 0.0


def test_laplace_identity_for_unit_order_closed_forms():
    # nu=1, f=1: Ntilde = n0/(p+d), Ftilde = 1/p and the defining relation
    # Ntilde (1 + d/p) = n0 Ftilde holds exactly; quadrature must keep it
    # to 1e-6
    n0, d, p = 2.0, 3.0, 10.0
    n_tilde = laplace_transform(lambda t: n0 * math.exp(-d * t), p)
    f_tilde = laplace_transform(lambda t: 1.0, p)
    defect = abs(n_tilde * (1.0 + d / p) - n0 * f_tilde) / (n0 * f_tilde)
    assert defect <= 1e-6


def test_laplace_transform_refuses_an_integrand_it_cannot_converge_on():
    with pytest.raises(EvaluationError, match="adaptive Simpson failed to converge"):
        laplace_transform(lambda t: math.nan, 1.0)


def test_laplace_check_where_the_source_side_rounds_to_zero():
    # n0 * Ftilde(p) underflows to 0 at the least n0: the defect is 0 for a
    # zero candidate and inf for any other
    prob = fig1_problem(n0=5e-324)
    assert laplace_check(prob, lambda t: 0.0, 10.0) == 0.0
    assert laplace_check(prob, lambda t: 1.0, 10.0) == math.inf


def test_laplace_check_requires_p_beyond_rate():
    prob = fig1_problem()
    with pytest.raises(DomainError):
        laplace_check(prob, lambda t: 0.0, 2.0)


def test_laplace_check_refuses_a_rate_power_past_the_doubles():
    # a**nu = 100**160 overflows: it used to end in a bare OverflowError
    prob = KineticProblem(n0=2.0, d=0.5, nu=160.0, variant=Theorem.T3, a=100.0,
                          params=fig1_problem().params)
    with pytest.raises(OverflowLogError, match="rate"):
        laplace_check(prob, lambda t: 0.0, 200.0)


def test_laplace_check_on_series_solution():
    from kkinetics import solve_point

    prob = fig1_problem()
    defect = laplace_check(prob, lambda t: solve_point(prob, t).value, 10.0)
    assert defect <= 1e-3


# ---------------------------------------------------------------- refusals


def test_volterra_refuses_a_zero_rate():
    with pytest.raises(DomainError, match="rate must be > 0"):
        solve_volterra(1.0, lambda t: 1.0, 0.0, QuadratureGrid(1.0, 4, 0.5))


@pytest.mark.parametrize("c_rate, nu, message", [
    (0.0, 0.5, "c_rate must be > 0"), (-1.0, 0.5, "c_rate must be > 0"),
    (1.0, 0.0, "nu must be > 0"), (1.0, -0.5, "nu must be > 0"),
])
def test_haubold_mathai_refuses_a_rate_or_order_at_or_below_zero(c_rate, nu, message):
    with pytest.raises(DomainError, match=message):
        haubold_mathai(1.0, c_rate, nu, 1.0)


@pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
def test_laplace_transform_refuses_a_p_that_is_not_finite_and_positive(p):
    # p = inf used to warn (inf * 0 in the integrand) and then fail in the
    # adaptive Simpson on [0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="p must be finite and > 0"):
            laplace_transform(lambda t: 1.0, p)


def test_laplace_transform_refuses_an_integrand_that_does_not_decay():
    with pytest.raises(EvaluationError, match="did not decay within 400/p"):
        laplace_transform(math.exp, 1.0)
