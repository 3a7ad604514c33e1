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


def test_control_defaults_and_tightening():
    ctl = SeriesControl()
    assert ctl.max_terms == 500
    assert ctl.rel_tol == 1e-15
    assert ctl.stagnation_window == 3
    tight = ctl.tightened()
    assert tight.rel_tol == pytest.approx(1e-16)
    assert tight.max_terms == ctl.max_terms


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


def test_batch_follows_the_scalar_rules_element_by_element():
    # series that stop at different indices, and one of each failure kind
    series = [
        lambda n: (1.0, n * math.log(0.5)),
        lambda n: ((-1.0) ** n, n * math.log(3.0) - math.lgamma(n + 1.0)),
        lambda n: ((-1.0) ** n, n * math.log(30.0) - math.lgamma(n + 1.0)),
        lambda n: (1.0, 800.0 if n == 2 else 0.0),
        lambda n: (1.0, n * math.log(0.9)),
        lambda n: (1.0, 0.0 if n == 0 else -math.inf),
        lambda n: (1.0, -math.inf),
    ]
    ctl = SeriesControl(max_terms=200)

    def term(n):
        signs, logs = zip(*(f(n) for f in series))
        return np.array(signs), np.array(logs)

    batch = sum_log_terms_batch(term, (len(series),), ctl)
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
    assert set(kinds) == {None, OverflowLogError, NonConvergenceError, CancellationError}
