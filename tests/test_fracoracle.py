"""Quadrature weights, Volterra marching, residual and Laplace checks."""

import math

import mpmath
import numpy as np
import pytest

from kkinetics import (
    DomainError,
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


def test_grid_validation():
    with pytest.raises(DomainError):
        QuadratureGrid(0.0, 10, 0.5)
    with pytest.raises(DomainError):
        QuadratureGrid(1.0, 0, 0.5)
    with pytest.raises(DomainError):
        QuadratureGrid(1.0, 10, -0.5)


def test_grid_refuses_an_order_whose_gamma_overflows():
    # math.gamma(700) used to end in a bare OverflowError
    with pytest.raises(OverflowLogError):
        QuadratureGrid(1.0, 8, 700.0)


def test_grid_refuses_weights_that_overflow():
    # 2048**151 overflows: the weights used to turn NaN and pass the drift check
    with pytest.raises(OverflowLogError, match=r"2048\*\*151\.0 of the weights"):
        QuadratureGrid(1.0, 2048, 150.0)


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
    # the marcher solves (I + r^nu W) N = n0 f
    n0, rate = 1.7, 1.3
    sol = solve_volterra(n0, _wave, rate, grid)
    f = np.array([_wave(t) for t in grid.times])
    defect = sol.values + rate ** nu * (w @ sol.values) - n0 * f
    assert np.max(np.abs(defect)) <= 1e-13 * max(1.0, np.max(np.abs(sol.values)))


# ---------------------------------------------------------------- Volterra solver


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


def test_laplace_check_requires_p_beyond_rate():
    prob = fig1_problem()
    with pytest.raises(DomainError):
        laplace_check(prob, lambda t: 0.0, 2.0)


def test_laplace_check_on_series_solution():
    from kkinetics import solve_point

    prob = fig1_problem()
    defect = laplace_check(prob, lambda t: solve_point(prob, t).value, 10.0)
    assert defect <= 1e-3
