"""The grid batches against one-at-a-time references.

``horner_sum_batch`` is checked against ``horner_sum`` at each element,
one point at a time, and the sums of the two-dimensional table against a
plain nested Horner loop.  On the grids below every batch the solvers and
the source make must give the same values, term counts, tails and
failure marks as its reference, bit for bit.  A failed
element's value, terms and tail are not part of the contract (the grid
re-evaluates it through the scalar call), so they are compared only where
the element succeeds.
"""

import numpy as np
import pytest

from kkinetics import (
    KBesselParams,
    KineticProblem,
    OverflowLogError,
    SeriesControl,
    Theorem,
    kinetics,
    series,
    solve_grid,
    solve_point,
    source_grid,
)
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem
from kkinetics.series import EvaluationError, horner_sum

FIG_PARAMS = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)


def assert_batch_is_horner_sum(got, table, x, pre, ctl):
    """Each element of the batch ``got`` fails where ``horner_sum`` fails, and
    elsewhere has its value, terms and tail bit for bit."""
    for i, (x_i, pre_i) in enumerate(zip(x.tolist(), pre.tolist())):
        try:
            want = horner_sum(table, x_i, pre_i, ctl, "reference")
        except EvaluationError:
            want = None
        assert got.failed[i] == (want is None), i
        if want is not None:
            assert (got.value[i], got.terms[i], got.tail[i]) == tuple(want), i


@pytest.fixture
def checked_batches(monkeypatch):
    """Check every Horner batch of kinetics against horner_sum; collect the batch sizes."""
    sizes = []
    real_horner = kinetics.horner_sum_batch

    def both_horner(table, x, pre, ctl):
        got = real_horner(table, x, pre, ctl)
        assert_batch_is_horner_sum(got, table, x, pre, ctl)
        sizes.append(x.size)
        return got

    monkeypatch.setattr(kinetics, "horner_sum_batch", both_horner)
    return sizes


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_horner_batches_match_horner_sum_on_figure_sweeps(fig_id, checked_batches):
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    for lam in LAMBDAS:
        solve_grid(figure_problem(spec, lam), grid)
    assert len(checked_batches) == len(LAMBDAS)


def test_horner_batches_match_horner_sum_on_the_verify_grid(checked_batches):
    # the figure-1 job at h = 1/2048: the series grid and the source, both by Horner
    grid = np.linspace(0.0, 1.0, 2049)
    for lam in LAMBDAS:
        prob = figure_problem(FIGURES[1], lam)
        solve_grid(prob, grid)
        source_grid(prob, grid)
    assert checked_batches == [2048] * (2 * len(LAMBDAS))


@pytest.mark.parametrize("size", [series._FULL_WIDTH_MAX, series._FULL_WIDTH_MAX + 1, 1000],
                         ids=["whole_rows", "prefixes", "solve_1001"])
def test_horner_batches_match_horner_sum_at_both_widths(size, checked_batches):
    # batches of at most _FULL_WIDTH_MAX elements run over whole rows, larger
    # ones on sorted prefixes; 1000 is the batch of a 1001-point solve grid
    # (t = 0 is not batched)
    for spec in (FIGURES[1], FIGURES[3], FIGURES[6]):
        prob = figure_problem(spec, 1.5)
        grid = np.linspace(0.0, spec.t_end, size + 1)
        solve_grid(prob, grid)
        source_grid(prob, grid)
    assert checked_batches == [size] * 6


@pytest.mark.parametrize("size", [kinetics._CHUNK_MAX + 1, 2 * kinetics._CHUNK_MAX + 3])
def test_horner_batches_above_the_chunk_size_match_horner_sum(size, checked_batches):
    # past _CHUNK_MAX times a grid runs as chunks in its own order, each a
    # batch of its own: the last one here is a batch of one (a pair) or of
    # three (whole rows); the shuffled times chunk the same way, unsorted
    prob = figure_problem(FIGURES[1], 1.0)
    grid = np.linspace(0.0, 1.0, size + 1)
    solve_grid(prob, grid)
    source_grid(prob, grid)
    source_grid(prob, np.random.default_rng(11).permutation(grid))
    chunks = [kinetics._CHUNK_MAX] * (size // kinetics._CHUNK_MAX) + [size % kinetics._CHUNK_MAX]
    assert checked_batches == chunks * 3


def test_a_variant_one_grid_above_the_chunk_size_sums_in_chunks(monkeypatch):
    # the two-dimensional table's batch sees at most _CHUNK_MAX times too,
    # and each time keeps the bits of its point call
    prob = KineticProblem(n0=2.0, d=1.0, nu=0.5, variant=Theorem.T1, params=FIG_PARAMS)
    grid = np.linspace(0.0, 2.0, 2 * kinetics._CHUNK_MAX + 4)
    sizes, real_sums = [], kinetics._BivariateTable.sums

    def counted(self, u, v, pre, ctl):
        sizes.append(u.size)
        return real_sums(self, u, v, pre, ctl)

    monkeypatch.setattr(kinetics._BivariateTable, "sums", counted)
    table = solve_grid(prob, grid)
    assert sizes == [kinetics._CHUNK_MAX, kinetics._CHUNK_MAX, 3]
    for i in range(0, grid.size, 97):
        want = solve_point(prob, float(grid[i]))
        assert (table.values[i], table.terms[i], table.tails[i]) == tuple(want), i
        assert table.values[i].tobytes() == np.float64(want.value).tobytes(), i


def test_a_grid_that_leaves_the_table_in_a_later_chunk_raises_its_first_refusal():
    # figure 1 at lambda = 1 cancels from t = 6.82 (the first chunk) and
    # leaves its power table at t = 21.04 (the second): the grid raises the
    # refusal of its earliest failing time, as its point call does
    prob = figure_problem(FIGURES[1], 1.0)
    grid = np.linspace(0.0, 40.0, 9001)
    with pytest.raises(EvaluationError) as caught:
        solve_grid(prob, grid)
    failing = [(t, exc) for t in grid.tolist() if (exc := _refused(prob, t)) is not None]
    left = next(t for t, exc in failing if isinstance(exc, OverflowLogError))
    t, want = failing[0]
    assert t < grid[kinetics._CHUNK_MAX] < left
    assert type(caught.value) is type(want) and str(caught.value) == str(want)


def _refused(prob, t):
    """The error ``solve_point`` raises at t, or None."""
    try:
        solve_point(prob, t)
    except EvaluationError as exc:
        return exc
    return None


def test_source_batch_on_shuffled_times(checked_batches):
    # the whole-row path keeps the caller's order: unsorted x and lengths
    prob = figure_problem(FIGURES[3], 1.0)
    times = np.random.default_rng(7).permutation(np.linspace(0.0, 6.0, 301))
    order = np.argsort(times)
    assert np.array_equal(source_grid(prob, times)[order], source_grid(prob, times[order]))
    assert checked_batches == [300, 300]


def test_horner_batches_mark_the_elements_they_leave(checked_batches):
    # a subnormal time (s is not a normal double) and a time past the table
    # are failed in the batch; the second is refused by its scalar call
    prob = figure_problem(FIGURES[1], 1.0)
    times = np.concatenate([[5e-324], np.linspace(0.1, 5.0, 50), [40.0]])
    with pytest.raises(OverflowLogError, match="t = 40.0"):
        solve_grid(prob, times)
    assert checked_batches == [52]
    table = prob._power_table()
    batch = series.horner_sum_batch(table, times, np.ones(times.size), SeriesControl())
    assert batch.failed.tolist() == [True] + [False] * 50 + [True]


_X = np.linspace(1e-3, 20.0, 64)


@pytest.mark.parametrize("x,pre,max_terms,all_pass", [
    (_X, np.ones(64), 500, True),  # every guard decided by reductions
    # one element each: past the cancellation limit, past the table, a nan x,
    # a nan, an inf and a zero prefactor, a subnormal x
    (np.append(_X, 25.0), np.ones(65), 500, False),
    (np.append(_X, 200.0), np.ones(65), 500, False),
    (np.append(_X, np.nan), np.ones(65), 500, False),
    (_X, np.append(np.ones(63), np.nan), 500, False),
    (_X, np.append(np.ones(63), np.inf), 500, False),
    (_X, np.append(np.ones(63), 0.0), 500, False),
    (np.append(_X, 5e-324), np.ones(65), 500, False),
    (_X, np.ones(64), 8, False),  # past the budget
    # every element passes, but the reductions cannot tell: the guards run element-wise
    (np.full(64, 1e-3), np.geomspace(1e-300, 1.0, 64), 500, True),
], ids=["normal", "cancelled", "past_table", "nan_x", "nan_pre", "inf_pre", "zero_pre",
        "subnormal_x", "budget", "wide_range"])
def test_horner_batch_reductions_decide_as_the_masks_would(x, pre, max_terms, all_pass):
    # each guard is tested on reductions first and on masks where they cannot
    # tell: either way the batch is horner_sum at each element, nan failing
    table, ctl = FIG_PARAMS._table, SeriesControl(max_terms=max_terms)
    got = series.horner_sum_batch(table, x, pre, ctl)
    assert_batch_is_horner_sum(got, table, x, pre, ctl)
    assert got.failed.any() != all_pass
    if np.isnan(x).any() or np.isnan(pre).any():
        assert got.failed[-1]


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_figure_sweeps_are_their_point_calls_bit_for_bit(fig_id):
    # values, terms and tails at all 201 nodes, +-0 and the last bit included
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    for lam in LAMBDAS:
        prob = figure_problem(spec, lam)
        table = solve_grid(prob, grid)
        points = [solve_point(prob, t) for t in grid.tolist()]
        assert table.terms == tuple(r.terms for r in points)
        for column, field in ((table.values, "value"), (table.tails, "tail")):
            want = np.array([getattr(r, field) for r in points])
            assert np.array_equal(column.view(np.int64), want.view(np.int64)), (lam, field)


@pytest.fixture
def argsorts(monkeypatch):
    """Count the calls of np.argsort."""
    calls = []
    real_argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(1)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


def test_rising_and_shuffled_batches_give_the_same_bits(monkeypatch, argsorts):
    # lengths that never fall (an increasing grid) run in the caller's order
    # with no sort; the same elements shuffled are sorted once, gathered and
    # scattered back.  Both paths give each element the bits of horner_sum.
    # The first two elements fail (x = 0 and a subnormal x): the batch reads
    # them as 1.0 with length 0, so its x is not ascending, but its lengths are
    table, ctl = FIG_PARAMS._table, SeriesControl()
    z = np.concatenate(([0.0, 1e-160], np.linspace(0.0, 6.0, 2000)[1:]))
    x, pre = z * z / 4.0, z / 2.0
    reached, prefix_rows = [], series._prefix_rows

    def spy(table, xs, length, top):
        reached.append((xs.copy(), length.copy()))
        return prefix_rows(table, xs, length, top)

    monkeypatch.setattr(series, "_prefix_rows", spy)
    rising = series.horner_sum_batch(table, x, pre, ctl)
    assert argsorts == []
    (xs, length), = reached
    assert xs.tobytes() == np.where(x >= series.DBL_MIN, x, 1.0).tobytes()
    assert length.tolist() == rising.terms.tolist() and xs[0] > xs[2]
    order = np.random.default_rng(5).permutation(x.size)
    shuffled = series.horner_sum_batch(table, x[order], pre[order], ctl)
    assert len(argsorts) == 1 and np.all(np.diff(reached[1][1]) >= 0)
    assert rising.failed[:2].all() and not rising.failed[2:].any()
    assert np.all(np.diff(rising.terms) >= 0) and rising.terms[-1] > rising.terms[2]
    assert_batch_is_horner_sum(rising, table, x, pre, ctl)
    for field in series.SeriesBatch._fields:
        assert getattr(rising, field)[order].tobytes() == getattr(shuffled, field).tobytes()


@pytest.mark.parametrize("size", [2000, kinetics._CHUNK_MAX + 5])
def test_a_rising_batch_that_ends_past_the_table_is_sorted_once(size, argsorts):
    # the last x lie past the table: their lengths read 0, so the lengths fall
    # at the end of an otherwise rising batch, which is sorted once, past the
    # grid's chunk size too
    table, ctl = FIG_PARAMS._table, SeriesControl()
    x = np.append(np.linspace(1e-3, 9.0, size - 3), [150.0, 200.0, 300.0])
    pre = np.sqrt(x)
    got = series.horner_sum_batch(table, x, pre, ctl)
    assert len(argsorts) == 1
    assert got.failed[-3:].all() and not got.failed[:-3].any()
    assert_batch_is_horner_sum(got, table, x, pre, ctl)


def test_variant_one_grid_on_rising_times_takes_no_sort(argsorts):
    # variant 1 at nu = 0.5 sums by the two-dimensional table's Horner: on
    # increasing times its rows and columns never fall, so neither pass sorts
    prob = KineticProblem(n0=2.0, d=1.0, nu=0.5, variant=Theorem.T1, params=FIG_PARAMS)
    grid = np.linspace(0.0, 2.0, 1001)
    table = solve_grid(prob, grid)
    assert argsorts == []
    points = [solve_point(prob, t) for t in grid.tolist()]
    assert table.terms == tuple(r.terms for r in points)
    for column, field in ((table.values, "value"), (table.tails, "tail")):
        want = np.array([getattr(r, field) for r in points])
        assert column.tobytes() == want.tobytes(), field


# numpy sums a lone column pairwise, not row by row as the scalar loop does:
# a batch of one used to differ from its scalar call in the sum of |terms|
# and the tail (and so, at the edge, in the cancellation guard)


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_a_grid_of_one_time_is_its_point_bit_for_bit(fig_id, checked_batches):
    spec = FIGURES[fig_id]
    lams = (1.0, 1.5, 2.0)
    for lam in lams:
        prob = figure_problem(spec, lam)
        for t in np.linspace(0.0, spec.t_end, 41)[1:].tolist():
            table = solve_grid(prob, [0.0, t])  # t = 0 is not batched
            got = (table.values[1], table.terms[1], table.tails[1])
            assert got == tuple(solve_point(prob, t)), (lam, t)
    assert checked_batches == [1] * (40 * len(lams))


def test_a_horner_batch_of_one_is_horner_sum():
    # the figure k-Bessel table, one z at a time
    table, ctl = FIG_PARAMS._table, SeriesControl()
    for z in np.linspace(0.0, 6.0, 121)[1:].tolist():
        x, pre = np.array([z * z / 4.0]), np.array([z / 2.0])
        assert_batch_is_horner_sum(series.horner_sum_batch(table, x, pre, ctl), table, x, pre,
                                   ctl)


def _nested_horner(table, u, v, rows, cols):
    """The sum over rows x cols entries of the two-dimensional table, and of their |terms|, by plain loops."""
    sums = []
    for coeffs in (table.coeffs, np.abs(table.coeffs)):
        total = 0.0
        for n in reversed(range(rows)):
            row = 0.0
            for m in reversed(range(cols)):
                row = row * v + coeffs[n, m]
            total = total * u + row
        sums.append(total)
    return sums


@pytest.mark.parametrize("t_end", [1.0, 3.0])
def test_bivariate_sums_match_a_nested_loop(t_end, checked_batches):
    # variant 1 at nu = 0.5: one evaluator over the whole grid, no Horner
    # batch, and each point's sums are those of two nested Horner loops
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T1, params=FIG_PARAMS)
    times = np.linspace(0.0, t_end, 201)[1:]
    table = solve_grid(prob, times).problem._power_table()
    assert checked_batches == []
    u, v = times * times, times ** 0.5
    value, abs_value, _, rows, codes = table.sums(u, v, np.ones(times.size), SeriesControl())
    cols = [table.lines[1].length(x, SeriesControl()) for x in v.tolist()]
    assert not codes.any()
    for i in range(times.size):
        want = _nested_horner(table, u[i], v[i], rows[i], cols[i])
        assert [value[i], abs_value[i]] == want, i
