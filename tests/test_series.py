"""Truncation-control plumbing: validation, stopping, failure modes."""

import dataclasses
import math

import numpy as np
import pytest

from kkinetics import series
from kkinetics.series import (
    DomainError,
    NonConvergenceError,
    OverflowLogError,
    SeriesControl,
    sum_log_terms,
)
from test_batch_reference import assert_batch_is_horner_sum


def test_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=1.5)
    # a fractional or bool count used to construct, and solve_point then
    # raised a bare TypeError from a slice
    for count in (1.5, True, np.float64(3.0)):
        with pytest.raises(DomainError, match="integer max_terms"):
            SeriesControl(max_terms=count)
    ctl = SeriesControl(max_terms=np.int64(40))
    assert type(ctl.max_terms) is int
    assert ctl == SeriesControl(max_terms=40)


def test_control_defaults():
    ctl = SeriesControl()
    assert ctl.max_terms == 500
    assert ctl.rel_tol == 1e-15
    assert ctl.stagnation_window == 3


def test_stagnation_window_is_a_constant_of_the_rule():
    # the window is not a field: a control carries the budget and the tolerance only
    assert [f.name for f in dataclasses.fields(SeriesControl)] == ["max_terms", "rel_tol"]
    assert SeriesControl.stagnation_window == 3
    with pytest.raises(TypeError):
        SeriesControl(stagnation_window=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SeriesControl().stagnation_window = 2


def test_geometric_sum_converges():
    # sum 0.5^n = 2, all terms positive
    res = sum_log_terms(lambda n: (1.0, n * math.log(0.5)), SeriesControl())
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert res.tail > 0.0


def test_budget_exhaustion_raises():
    ctl = SeriesControl(max_terms=5)
    with pytest.raises(NonConvergenceError):
        sum_log_terms(lambda n: (1.0, n * math.log(0.9)), ctl)


def test_overflowing_term_raises_with_log_value():
    def term(n):
        return 1.0, 800.0 if n == 2 else 0.0

    with pytest.raises(OverflowLogError) as exc:
        sum_log_terms(term, SeriesControl())
    assert exc.value.log_value == 800.0


def test_exact_zero_terms_stop_with_zero_tail():
    def term(n):
        return (1.0, 0.0) if n == 0 else (1.0, -math.inf)

    res = sum_log_terms(term, SeriesControl())
    assert res.value == 1.0
    assert res.tail == 0.0


def test_batch_geometric_tail_is_the_scalar_one_at_every_finite_mag():
    # equal, rising and zero last terms, subnormal and huge ones, and a zero
    # or infinite term before them
    rng = np.random.default_rng(5)
    values = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1.7e308],
                             rng.random(40), 10.0 ** rng.uniform(-320, 308, 40)])
    mag, prev = (grid.ravel() for grid in np.meshgrid(values, np.append(values, math.inf)))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        got = series._geometric_tail_batch(mag, prev)
    want = np.array([series._geometric_tail(m, p) for m, p in zip(mag.tolist(), prev.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # where every last term falls, the batch takes no mask
    falling = mag < prev
    with np.errstate(invalid="ignore", over="ignore"):
        got = series._geometric_tail_batch(mag[falling], prev[falling])
    assert np.array_equal(got.view(np.int64), want[falling].view(np.int64))


def test_horner_table_base_grows_no_rows():
    # each table type supplies its own rows
    with pytest.raises(NotImplementedError):
        series.HornerTable().extend(1)


def _assert_accept_matches_accepted(cases):
    """``accept`` refuses with ``message`` where ``accepted`` gives False, and
    passes where it gives True; ``cases`` holds (value, tail, size, message of
    the scalar refusal or None, mask)."""
    values, tails, sizes, messages, masks = map(list, zip(*cases))
    with np.errstate(invalid="ignore"):
        kept = series.accepted(np.array(values), np.array(tails), np.array(sizes))
    assert kept.tolist() == masks
    for value, tail, size, message, passes in cases:
        if message is None:
            series.accept(value, tail, size, "test")
            # a nan compares False: the scalar rule passes it, the array rule fails it
            assert passes is not math.isnan(value + tail + size)
        else:
            with pytest.raises(series.CancellationError, match=f"^test: {message} "):
                series.accept(value, tail, size, "test")


def test_array_cancellation_test_passes_where_the_scalar_check_does():
    limit, tiny = series.CANCELLATION_RATIO_LIMIT, series.DBL_MIN
    _assert_accept_matches_accepted([
        (1.0, 0.0, 1.0, None, True),
        (-1.0, 0.0, limit, None, True),
        (1.0, 0.0, limit * 1.0000001, "cancellation ratio", False),
        (0.0, 0.0, limit * tiny, None, True),
        (0.0, 0.0, limit * tiny * 2.0, "cancellation ratio", False),
        (1.0, 0.0, math.nan, None, False),
        (math.nan, 0.0, 1.0, None, False),
        # both tests fail: the size test's message wins
        (1.0, 2.0, limit * 2.0, "cancellation ratio", False),
    ])


def test_array_tail_test_passes_where_the_scalar_check_does():
    tiny = series.DBL_MIN
    # a tail below DBL_MIN is kept: t = 0 answers 0 with tail 0
    _assert_accept_matches_accepted([
        (1.0, 0.5, 0.0, None, True),
        (-1.0, 1.0, 0.0, "tail", False),
        (1.0, 2.0, 0.0, "tail", False),
        (0.0, 0.0, 0.0, None, True),
        (0.0, tiny / 2.0, 0.0, None, True),
        (tiny, tiny, 0.0, "tail", False),
        (1.0, math.nan, 0.0, None, False),
        (math.nan, 0.5, 0.0, None, False),
    ])


class _ExpTable(series.HornerTable):
    """exp(x) = sum_j x**j / j!, with 1e17 EPS of error charged to a_1."""

    def grow(self, stop):
        while len(self.coeffs) < min(stop, 40):
            a = 1.0 / math.factorial(len(self.coeffs))
            self.coeffs.append(a)
            self.abs_coeffs.append(a)
            self.errs.append(1e17 * a if len(self.errs) == 1 else 0.0)


def test_horner_sums_refuse_a_tail_at_least_the_value():
    # the tail is about 22 x against a value of exp(x)
    table, ctl = _ExpTable(), SeriesControl()
    assert series.horner_sum(table, 0.01, 1.0, ctl, "exp").tail < 1.02
    with pytest.raises(series.CancellationError, match=r"^exp: tail .* is at least \|value\| "):
        series.horner_sum(table, 0.5, 1.0, ctl, "exp")
    for xs in ([0.01, 0.02], [0.01, 0.5, 0.02, 1.0]):
        x = np.array(xs)
        got = series.horner_sum_batch(table, x, np.ones(x.size), ctl)
        assert got.failed.tolist() == [v > 0.02 for v in xs]
        assert_batch_is_horner_sum(got, table, x, np.ones(x.size), ctl)
