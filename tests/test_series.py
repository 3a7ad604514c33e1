"""Truncation-control plumbing: validation, stopping, failure modes."""

import math

import numpy as np
import pytest

from kkinetics.series import (
    CancellationError,
    DomainError,
    EvaluationError,
    NonConvergenceError,
    OverflowLogError,
    SeriesControl,
    sum_log_terms,
    sum_log_terms_batch,
)


def test_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=1.5)
    with pytest.raises(DomainError):
        SeriesControl(stagnation_window=0)


def test_control_defaults():
    ctl = SeriesControl()
    assert ctl.max_terms == 500
    assert ctl.rel_tol == 1e-15
    assert ctl.stagnation_window == 3


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


def _block_terms(series):
    """A block callback for sum_log_terms_batch over scalar term functions."""

    def terms(lo, hi):
        signs, logs = zip(*(zip(*(f(n) for f in series)) for n in range(lo, hi)))
        return np.array(signs), np.array(logs)

    return terms


def _assert_batch_follows_the_scalar_rules(series, ctl):
    batch = sum_log_terms_batch(_block_terms(series), len(series), ctl)
    kinds = []
    for i, f in enumerate(series):
        try:
            want = sum_log_terms(f, ctl)
        except EvaluationError as exc:
            kinds.append(type(exc))
            assert batch.failed[i]
            continue
        kinds.append(None)
        assert not batch.failed[i]
        assert batch.terms[i] == want.terms
        assert batch.value[i] == pytest.approx(want.value, rel=1e-14, abs=0.0)
        assert batch.tail[i] == pytest.approx(want.tail, rel=1e-14, abs=0.0)
    return kinds


def _stops_after(count):
    """Halving terms with alternating signs, then negligible ones: stops after ``count`` terms."""
    return lambda n: ((-1.0) ** n, n * math.log(0.5) if n < count - 3 else -60.0 - n)


def _loud_at(loud, quiet_from=3):
    """Unit terms up to quiet_from, zeros after, except unit terms at the indices in ``loud``."""
    return lambda n: (1.0, 0.0 if n < quiet_from or n in loud else -math.inf)


# Series that stop at different indices, and one of each failure kind.
SERIES = [
    lambda n: (1.0, n * math.log(0.5)),
    lambda n: ((-1.0) ** n, n * math.log(3.0) - math.lgamma(n + 1.0)),
    lambda n: ((-1.0) ** n, n * math.log(30.0) - math.lgamma(n + 1.0)),
    lambda n: (1.0, 800.0 if n == 2 else 0.0),
    lambda n: (1.0, n * math.log(0.9)),
    lambda n: (1.0, 0.0 if n == 0 else -math.inf),
    lambda n: (1.0, -math.inf),
]

# Series whose stop, quiet run or overflow falls on or next to an edge
# between blocks of terms (after 16 and 32 terms).
EDGE_SERIES = [_stops_after(count) for count in (15, 16, 17, 31, 32, 33)] + [
    _loud_at({16}, quiet_from=14),  # a quiet run broken on the first term of a block
    _loud_at({17}, quiet_from=15),  # a quiet run straddling the edge, broken after it
    _loud_at({31}, quiet_from=30),
    lambda n: (1.0, 800.0 if n == 16 else -0.5 * n),  # overflow at the first term of a block
    lambda n: (1.0, 800.0 if n == 32 else -0.05 * n),
    lambda n: (1.0, 800.0 if n == 15 else -0.5 * n),  # and at the last term before it
    lambda n: (1.0, 0.0 if n == 0 else 50.0 if n > 5 else -math.inf),  # huge terms past the stop
]


def test_batch_follows_the_scalar_rules_element_by_element():
    kinds = _assert_batch_follows_the_scalar_rules(SERIES, SeriesControl(max_terms=200))
    assert set(kinds) == {None, OverflowLogError, NonConvergenceError, CancellationError}


def test_batch_follows_the_scalar_rules_across_block_edges():
    kinds = _assert_batch_follows_the_scalar_rules(SERIES + EDGE_SERIES,
                                                   SeriesControl(max_terms=200))
    assert kinds[len(SERIES):].count(OverflowLogError) == 3
    assert kinds[len(SERIES):].count(None) == len(EDGE_SERIES) - 3


@pytest.mark.parametrize("max_terms", [1, 20])
def test_batch_follows_the_scalar_rules_on_a_small_term_budget(max_terms):
    # the budget ends the only block, or inside the second one
    kinds = _assert_batch_follows_the_scalar_rules(SERIES + EDGE_SERIES,
                                                   SeriesControl(max_terms=max_terms))
    assert NonConvergenceError in kinds
    assert (None in kinds) == (max_terms > 1)


@pytest.mark.parametrize("window", [1, 5])
def test_batch_follows_the_scalar_rules_for_other_stagnation_windows(window):
    _assert_batch_follows_the_scalar_rules(SERIES + EDGE_SERIES,
                                           SeriesControl(max_terms=200, stagnation_window=window))


def test_batch_follows_the_scalar_rules_on_many_series():
    # 24 series that stop anywhere from the first block to the fourth
    series = SERIES + EDGE_SERIES + [_stops_after(count) for count in (4, 40, 64, 100)]
    assert len(series) == 24
    _assert_batch_follows_the_scalar_rules(series, SeriesControl(max_terms=200))


def test_batch_broadcasts_signs_and_runs_each_block_once():
    # one sign per term, shared by every series, as the power series gives
    xs = np.array([0.5, 1.0, 2.0, 8.0])
    blocks = []

    def terms(lo, hi):
        blocks.append((lo, hi))
        n = np.arange(lo, hi)[:, None]
        return np.where(n % 2, -1.0, 1.0), n * np.log(xs) - np.vectorize(math.lgamma)(n + 1.0)

    batch = sum_log_terms_batch(terms, xs.size, SeriesControl())
    for x, value, count in zip(xs, batch.value, batch.terms):
        want = sum_log_terms(lambda n: ((-1.0) ** n, n * math.log(x) - math.lgamma(n + 1.0)),
                             SeriesControl())
        assert (value, count) == (pytest.approx(want.value, rel=1e-14), want.terms)
    assert not batch.failed.any()
    assert blocks == [(0, 16), (16, 32), (32, 64)]
