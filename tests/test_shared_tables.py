"""The per-process registries of t-free tables, and tables that do not depend on how they grew."""

import numpy as np
import pytest

from kkinetics import (
    KBesselParams,
    KineticProblem,
    QuadratureGrid,
    SeriesControl,
    Theorem,
    fracoracle,
    kinetics,
    solve_grid,
    source_grid,
    specfun,
)
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_params, figure_problem
from kkinetics.kinetics import _BivariateTable, _PowerTable

BASE = dict(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T3, a=1.0)


def problem(params=None, **fields):
    return KineticProblem(params=params or figure_params(1.5), **{**BASE, **fields})


# ---------------------------------------------------------------- sharing


def test_equal_problems_share_one_table():
    tables = [problem()._power_table(), problem()._power_table(), problem(n0=7.0)._power_table()]
    assert tables[0] is tables[1] is tables[2]  # n0 is not read by the table
    first, third = figure_problem(FIGURES[1], 1.0), figure_problem(FIGURES[3], 1.0)
    assert first._power_table() is third._power_table()


@pytest.mark.parametrize("fields", [
    dict(params=figure_params(1.75)),
    dict(params=KBesselParams(k=2.0, gamma=1.0, lam=1.5, mu=1.0, b=3.0, c=-2.0)),
    dict(nu=0.75),
    dict(a=2.0),  # the rate
    dict(d=4.0),  # log q
    dict(variant=Theorem.T2),  # rate d
    dict(variant=Theorem.T1, a=None),  # no log q, and two-dimensional at nu = 0.5
    dict(variant=Theorem.T1, a=None, nu=1.0),
], ids=["params", "c", "nu", "rate", "d", "variant2", "variant1", "variant1_aligned"])
def test_a_value_the_table_reads_gives_its_own_table(fields):
    base, other = problem(), problem(**fields)
    assert other._power_table() is not base._power_table()
    assert type(other._power_table()) is (_BivariateTable if other.variant == 1 and other.nu != 1.0
                                          else _PowerTable)


def test_variant_one_shares_across_its_unread_fields():
    # variant 1 reads d only as its rate; n0 is never read
    one = problem(variant=Theorem.T1, a=None)
    assert problem(variant=Theorem.T1, a=None, n0=0.5)._power_table() is one._power_table()


def test_equal_kbessel_params_share_their_state():
    p = KBesselParams(k=2.0, gamma=1.0, lam=1.5, mu=1.0, b=0.0, c=2.0)
    for q in (KBesselParams(k=2.0, gamma=1.0, lam=1.5, mu=1.0, b=0.0, c=2.0),
              KBesselParams(k=2, gamma=1, lam=1.5, mu=1, b=-0.0, c=2),
              KBesselParams(k=np.float32(2.0), gamma=1.0, lam=np.float32(1.5), mu=1.0, b=0.0,
                            c=2.0)):
        assert q._table is p._table and q._table.log_errors is p._table.log_errors
        assert all(type(getattr(q, name)) is float
                   for name in ("k", "gamma", "lam", "mu", "b", "c"))
    other = KBesselParams(k=2.0, gamma=1.0, lam=1.5, mu=1.0, b=0.0, c=2.5)
    assert other._table is not p._table and other._table.log_errors is not p._table.log_errors


def test_problem_fields_are_floats():
    prob = KineticProblem(n0=2, d=np.float32(3.0), nu=1, variant=Theorem.T3,
                          params=figure_params(1.0), a=1)
    assert all(type(getattr(prob, name)) is float for name in ("n0", "d", "nu", "a"))
    assert prob._power_table() is figure_problem(FIGURES[6], 1.0)._power_table()


def test_equal_grids_share_read_only_weights():
    grid, again = QuadratureGrid(1.0, 64, 0.5), QuadratureGrid(1.0, 64, 0.5)
    assert grid._a is again._a and grid._kernel is again._kernel
    assert grid._kernel_spectra is again._kernel_spectra
    assert grid.times is not again.times
    for shared in (grid._a, grid._kernel, grid._kernel_spectra.rfft(128)):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    # the same step h over twice the steps, and another order, are other weights
    assert QuadratureGrid(2.0, 128, 0.5)._kernel is not grid._kernel
    assert QuadratureGrid(1.0, 64, 0.75)._kernel is not grid._kernel


def _oracle_bits(rate, grid):
    return fracoracle.solve_volterra(1.5, lambda t: 1.0 + t, rate, grid).values.tobytes()


def test_the_stored_inverse_gives_the_cold_bits(empty_registries):
    # a weights set keeps the last rate's inverse: a solve at that rate reuses
    # it, and any other rate replaces it; every answer is a cold solve's
    args, rates = (2.0, 4096, 0.5), (1.3, 0.7)
    cold = {}
    for rate in rates:
        empty_registries()
        cold[rate] = _oracle_bits(rate, QuadratureGrid(*args))
    empty_registries()
    grid = QuadratureGrid(*args)
    assert grid._inverse.last is None
    for rate in (1.3, 0.7, 1.3):
        assert _oracle_bits(rate, grid) == cold[rate]
        assert grid._inverse.last[0] == rate ** 0.5
    stored = grid._inverse.last
    assert not stored[2].coeffs.flags.writeable and stored[2].coeffs[0] == 0.0
    again = QuadratureGrid(*args)  # the same weights, so the same store
    assert again._inverse is grid._inverse
    assert _oracle_bits(1.3, again) == cold[1.3]
    assert grid._inverse.last is stored
    assert _oracle_bits(0.7, again) == cold[0.7]
    assert QuadratureGrid(2.0, 4096, 0.75)._inverse is not grid._inverse


def test_a_refused_rate_leaves_the_stored_inverse(empty_registries):
    # at rate 12 the diagonal 1 + 12**220 B_1 overflows on this grid
    grid = QuadratureGrid(200.0, 1, 220.0)
    cold = _oracle_bits(0.5, grid)
    stored = grid._inverse.last
    with pytest.raises(fracoracle.InstabilityError):
        _oracle_bits(12.0, grid)
    assert grid._inverse.last is stored
    assert _oracle_bits(0.5, grid) == cold


def test_registries_hold_at_most_their_bound():
    registries = ((specfun._kbessel_table, specfun._KBESSEL_STATES),
                  (kinetics._shared_table, kinetics._PROBLEM_TABLES),
                  (fracoracle._grid_weights, fracoracle._GRID_WEIGHTS))
    assert [registry.cache_info().maxsize for registry, _ in registries] == [32, 32, 2]
    for i in range(40):
        problem(params=figure_params(1.0 + i / 64))._power_table()
    for n in (16, 32, 64):
        QuadratureGrid(1.0, n, 0.5)
    for registry, bound in registries:
        assert registry.cache_info().currsize == bound


# ---------------------------------------------------------------- growth


def _same_arrays(x, y, names):
    return all(np.array_equal(np.asarray(getattr(x, name)), np.asarray(getattr(y, name)))
               for name in names)


@pytest.mark.parametrize("params, nu, rate", [
    (figure_params(1.5), 0.5, 3.0),  # the figure parameters at variant 1, nu = 0.5
    (figure_params(1.0), 1.7, 0.2),
    (figure_params(2.0), 0.3, 40.0),
    (KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=1.0, c=0.0), 0.5, 3.0),  # zero rows
    (KBesselParams(k=1.0, gamma=2.0, lam=0.1, mu=150.0, b=1.0, c=-1.0), 0.7, 2.0),  # rows that end
    (KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=1.0, c=1.0), 60.0, 1e3),  # past Gamma(171)
], ids=["figure", "nu1.7", "nu0.3", "c0", "mu150", "nu60"])
def test_two_dimensional_table_does_not_depend_on_its_growth(params, nu, rate):
    # errs used to be lead + (s_1 + ... + s_m) on a first fill and errs[start-1]
    # + (s_start + ...) on a continuation, up to 4.5e-13 apart on the figure
    # case; and a row first filled with one column (as the sums grow the
    # leads first) left the gamma error at x_0 out of every later column
    once = _BivariateTable(params, nu, rate)
    once.grow(40, 60)
    for steps in ([(5, 7), (13, 20), (40, 60)], [(40, 1), (40, 60)],
                  [(1, 1), (2, 2), (3, 30), (40, 60)]):
        pieces = _BivariateTable(params, nu, rate)
        for rows, cols in steps:
            pieces.grow(rows, cols)
        assert _same_arrays(pieces, once, ("coeffs", "errs", "extent", "reach")), steps


def test_cold_points_at_growing_times_build_the_two_dimensional_table_a_few_times(
        monkeypatch, empty_registries):
    # each larger time needs a larger table: the table and its first row at
    # least double when they grow, so five times take at most 6 builds (9
    # when each grew to the shape asked), and give the bits of a table built
    # once at the final shape
    builds, build = [], _BivariateTable._build

    def counted(self, rows, cols):
        builds.append((rows, cols))
        return build(self, rows, cols)

    monkeypatch.setattr(_BivariateTable, "_build", counted)
    prob = KineticProblem(n0=2.0, d=1.0, nu=0.5, variant=Theorem.T1, params=figure_params(1.371))
    times = (0.1, 0.5, 1.0, 2.0, 3.0)
    got = [kinetics.solve_point(prob, t) for t in times]
    assert len(builds) <= 6
    grown = prob._power_table()
    once = _BivariateTable(prob.params, prob.nu, prob.rate)
    once.grow(*grown.coeffs.shape)
    assert [once.point(t, prob.n0, SeriesControl()) for t in times] == got


@pytest.mark.parametrize("make", [
    lambda: _PowerTable(figure_params(1.5), 1.0, 3.0, None),
    lambda: _PowerTable(figure_params(1.0), 5.0, 3.0, 3.0),  # past Gamma(171), to x = 1416
    lambda: _PowerTable(figure_params(2.0), 0.5, 1.0, 3.0),
    lambda: specfun._KBesselTable(KBesselParams(k=2.0, gamma=1.0, lam=1.5, mu=1.0, b=3.0, c=2.0)),
], ids=["power_nu1", "power_nu5", "power_nu0.5", "kbessel"])
def test_horner_tables_and_stop_bounds_do_not_depend_on_their_growth(make):
    ctl = SeriesControl()
    once = make()
    once.extend(900)
    pieces = make()
    for stop in (1, 2, 17, 40, 41, 300, 900):
        pieces.extend(stop)
    assert _same_arrays(pieces, once, ("coeffs", "abs_coeffs", "errs"))
    # stop bounds extended in steps of a growing x, or at once at the last,
    # or on a table grown past them: they end where the table or x does
    stepped = make()
    for x in (1e-6, 0.3, 4.0, 50.0, 1e3):
        stepped.stop_bounds(x, ctl)
    fresh = make().stop_bounds(1e3, ctl)
    for other in (stepped.stop_bounds(1e3, ctl), once.stop_bounds(1e3, ctl)):
        n = min(len(other), len(fresh))
        assert n and other[:n] == fresh[:n]


def test_stop_bounds_are_kept_per_tolerance():
    # the stop window is a constant of the rule, so one set of bounds serves
    # every control with the same rel_tol, whatever its budget
    table = _PowerTable(figure_params(1.5), 1.0, 3.0, None)
    bounds = table.stop_bounds(4.0, SeriesControl())
    assert table.stop_bounds(4.0, SeriesControl(max_terms=60)) is bounds
    table.stop_bounds(4.0, SeriesControl(rel_tol=1e-6))
    assert list(table._stops) == [1e-15, 1e-6]


# ---------------------------------------------------------------- cold and warm


def _figure_sweeps():
    out = {}
    for fig_id, spec in FIGURES.items():
        grid = figure_grid(spec)
        for lam in LAMBDAS:
            table = solve_grid(figure_problem(spec, lam), grid)
            out[(fig_id, lam)] = (table.values, table.terms, table.tails)
    return out


def _verify_grids():
    out = {}
    for lam in LAMBDAS:
        prob = figure_problem(FIGURES[1], lam)
        grid = QuadratureGrid(1.0, 2048, prob.nu)
        table = solve_grid(prob, grid.times)
        samples = source_grid(prob, grid.times)
        oracle = fracoracle._solve_forcing(prob.n0 * samples, prob.rate, grid)
        out[lam] = (table.values, table.terms, table.tails, samples, oracle.values,
                    fracoracle.residual(table, oracle))
    return out


def _equal(x, y):
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_equal, x, y))
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def test_cold_and_warm_registries_give_the_same_bits(empty_registries):
    cold = (_figure_sweeps(), _verify_grids())
    # grow every shared table far past what the sweeps read, then run them again
    for fig_id, spec in FIGURES.items():
        for lam in LAMBDAS:
            prob = figure_problem(spec, lam)
            prob._power_table().stop_bounds(1e6, SeriesControl())
            prob.params._table.stop_bounds(1e6, SeriesControl())
    warm = (_figure_sweeps(), _verify_grids())
    assert cold[0].keys() == warm[0].keys() and len(cold[0]) == 35
    for part_cold, part_warm in zip(cold, warm):
        for key in part_cold:
            assert _equal(part_cold[key], part_warm[key]), key
