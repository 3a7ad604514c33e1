"""Truncation control and compensated log-space summation for power series.

Every series in this package is assembled the same way: each term is
produced as a ``(sign, log magnitude)`` pair, exponentiated, and added with
Kahan compensation.  Keeping terms in log space until the last moment lets
gamma-heavy coefficients cancel symbolically (as differences of ``lgamma``
values) instead of overflowing near ``Gamma(171)``.

Truncation policy: stop once ``stagnation_window`` consecutive terms are
below ``rel_tol`` times the running partial sum.  A single small term is not
enough because alternating series stall near sign changes.

Every sum is guarded: one whose largest term exceeds
:data:`CANCELLATION_RATIO_LIMIT` times the sum raises
:class:`CancellationError`, because cancellation has left it no reliable
digits.  A series of positive terms cannot trip the guard.

:func:`sum_log_terms` sums one series; :func:`sum_log_terms_batch` applies
the same rules element-wise to a numpy array of series that share an index
and marks the elements for which the scalar sum would raise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

LOG_DBL_MAX = math.log(sys.float_info.max)

# |largest term| / |sum| beyond which an alternating sum in double
# precision retains fewer than ~4 significant digits; past it the computed
# total is usually pure roundoff noise.
CANCELLATION_RATIO_LIMIT = 1e12

# How much tighter than its outer sum the inner sums of a double series
# run, so that the outer tail estimate dominates the error.
INNER_TOL_FACTOR = 10.0


class EvaluationError(Exception):
    """Base class for numerical evaluation failures."""


class DomainError(EvaluationError, ValueError):
    """An argument or parameter is outside the supported domain."""


class ConvergenceGateError(DomainError):
    """A series specification violates its convergence condition."""


class OverflowLogError(EvaluationError, OverflowError):
    """A value exceeds the double range; carries its natural log."""

    def __init__(self, message: str, log_value: float):
        super().__init__(f"{message} (log value {log_value:.6g})")
        self.log_value = log_value


class NonConvergenceError(EvaluationError, ArithmeticError):
    """The term budget ran out before the stagnation rule triggered."""

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")
        self.partial = partial
        self.terms = terms


class CancellationError(EvaluationError, ArithmeticError):
    """Alternating-series cancellation destroyed the result's precision."""


class SeriesResult(NamedTuple):
    """Value of a truncated series plus its evaluation metadata."""

    value: float
    terms: int
    tail: float


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by all series evaluators.

    ``max_terms`` bounds the term budget, ``rel_tol`` is the relative size
    below which a term counts as negligible, and ``stagnation_window`` is
    how many consecutive negligible terms are required before stopping.
    """

    max_terms: int = 500
    rel_tol: float = 1e-15
    stagnation_window: int = 3

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.stagnation_window < 1:
            raise DomainError(
                f"stagnation_window must be >= 1, got {self.stagnation_window}"
            )

    def tightened(self) -> "SeriesControl":
        """Same policy with ``rel_tol`` divided by :data:`INNER_TOL_FACTOR` (for inner sums)."""
        return SeriesControl(self.max_terms, self.rel_tol / INNER_TOL_FACTOR,
                             self.stagnation_window)


DEFAULT_CONTROL = SeriesControl()


def sum_log_terms(
    term: Callable[[int], tuple[float, float]],
    ctl: SeriesControl,
    *,
    label: str = "series",
) -> SeriesResult:
    """Sum ``term(n) -> (sign, log|term|)`` for n = 0, 1, ... under ``ctl``.

    ``log|term| = -inf`` denotes an exactly-zero term.  The tail estimate is
    a geometric extrapolation from the last two term magnitudes; for the
    factorially-decaying series used here the term ratio shrinks with n, so
    the extrapolation bounds the discarded remainder.

    A sum whose largest term exceeds :data:`CANCELLATION_RATIO_LIMIT` times
    the sum raises :class:`CancellationError` instead of returning a
    digit-starved result.
    """
    total = 0.0
    comp = 0.0
    max_mag = 0.0
    prev_mag = 0.0
    mag = 0.0
    quiet = 0
    for n in range(ctl.max_terms):
        sign, log_mag = term(n)
        if log_mag > LOG_DBL_MAX:
            raise OverflowLogError(f"{label}: term {n} overflows double range", log_mag)
        prev_mag = mag
        mag = math.exp(log_mag)
        t = sign * mag
        # Kahan step
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if mag > max_mag:
            max_mag = mag
        if mag <= ctl.rel_tol * abs(total):
            quiet += 1
            if quiet >= ctl.stagnation_window:
                break
        else:
            quiet = 0
    else:
        raise NonConvergenceError(
            f"{label}: no stagnation within {ctl.max_terms} terms", total, ctl.max_terms
        )
    scale = max(abs(total), sys.float_info.min)
    if max_mag > CANCELLATION_RATIO_LIMIT * scale:
        raise CancellationError(
            f"{label}: cancellation ratio {max_mag / scale:.3g} "
            f"exceeds {CANCELLATION_RATIO_LIMIT:.0e}; result would carry no significant digits"
        )
    if 0.0 < mag < prev_mag:
        ratio = mag / prev_mag
        tail = max(2.0 * mag * ratio / (1.0 - ratio), mag)
    else:
        tail = mag
    return SeriesResult(total, n + 1, tail)


class SeriesBatch(NamedTuple):
    """Element-wise results of :func:`sum_log_terms_batch`.

    ``failed`` marks the elements for which :func:`sum_log_terms` raises;
    their ``value``, ``terms`` and ``tail`` are meaningless.
    """

    value: np.ndarray
    terms: np.ndarray
    tail: np.ndarray
    failed: np.ndarray


def sum_log_terms_batch(
    term: Callable[[int], tuple[np.ndarray | float, np.ndarray]],
    shape: tuple[int, ...],
    ctl: SeriesControl,
) -> SeriesBatch:
    """:func:`sum_log_terms` for a numpy batch of series, all advanced together.

    ``term(n)`` returns ``(sign, log|term|)`` of term n of every series, as
    arrays broadcastable to ``shape``.  Each element follows the scalar
    rules: the same Kahan step, stagnation rule, overflow check, term
    budget, cancellation guard and tail formula.  An element that has
    stopped stays frozen while the others advance, so its value, term count
    and tail are the ones :func:`sum_log_terms` returns for it.  An element
    for which :func:`sum_log_terms` raises is marked in
    :attr:`SeriesBatch.failed` instead.
    """
    total = np.zeros(shape)
    comp = np.zeros(shape)
    mag = np.zeros(shape)
    prev_mag = np.zeros(shape)
    max_mag = np.zeros(shape)
    quiet = np.zeros(shape, dtype=np.intp)
    terms = np.zeros(shape, dtype=np.intp)
    failed = np.zeros(shape, dtype=bool)
    running = np.ones(shape, dtype=bool)
    # Frozen elements are still computed (and may overflow) but never stored.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(ctl.max_terms):
            sign, log_mag = term(n)
            over = log_mag > LOG_DBL_MAX
            if over.any():
                over &= running
                failed |= over
                running &= ~over
            new_mag = np.exp(log_mag)
            # Kahan step
            y = sign * new_mag - comp
            s = total + y
            np.copyto(comp, (s - total) - y, where=running)
            np.copyto(total, s, where=running)
            np.copyto(prev_mag, mag, where=running)
            np.copyto(mag, new_mag, where=running)
            np.maximum(max_mag, mag, out=max_mag)
            terms += running
            quiet = np.where(mag <= ctl.rel_tol * np.abs(total), quiet + 1, 0)
            running &= quiet < ctl.stagnation_window
            if not running.any():
                break
        limit = CANCELLATION_RATIO_LIMIT * np.maximum(np.abs(total), sys.float_info.min)
        failed |= running | (max_mag > limit)
        decreasing = (mag > 0.0) & (mag < prev_mag)
        ratio = np.where(decreasing, mag / prev_mag, 0.0)
        geometric = np.maximum(2.0 * mag * ratio / (1.0 - ratio), mag)
    return SeriesBatch(total, terms, np.where(decreasing, geometric, mag), failed)
