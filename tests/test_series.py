"""Truncation-control plumbing: validation, stopping, failure modes."""

import math

import numpy as np
import pytest

from kkinetics.series import (
    DomainError,
    NonConvergenceError,
    OverflowLogError,
    SeriesControl,
    sum_log_terms,
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
    # a fractional or bool count used to construct, and solve_point then
    # raised a bare TypeError from a slice
    for count in (1.5, True, np.float64(3.0)):
        for name in ("max_terms", "stagnation_window"):
            with pytest.raises(DomainError, match=f"integer {name}"):
                SeriesControl(**{name: count})
    ctl = SeriesControl(max_terms=np.int64(40), stagnation_window=np.int32(2))
    assert (type(ctl.max_terms), type(ctl.stagnation_window)) == (int, int)
    assert ctl == SeriesControl(max_terms=40, stagnation_window=2)


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
