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
and marks the elements for which the scalar sum would raise.  The batch
takes its terms a block at a time (term axis first), so each term costs a
few numpy calls (the Kahan step) rather than one call per rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

LOG_DBL_MAX = math.log(sys.float_info.max)
LOG_DBL_MIN = math.log(sys.float_info.min)  # the smallest normal double

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


# Terms in the first block of a batch; each later block doubles the terms
# summed so far, up to the budget.
_FIRST_BLOCK_TERMS = 16
# Elements (terms x series) in one block: 64 KiB per float array, so a
# block's arrays stay in cache and are reused from the malloc heap.  With
# 2**15 or more, a 2049-point grid faulted its block arrays in afresh on
# every call and ran 10-25% slower than one term at a time.
_BLOCK_ELEMENTS = 1 << 13


def sum_log_terms_batch(
    terms: Callable[[int, int], tuple[np.ndarray | float, np.ndarray]],
    shape: tuple[int, ...],
    ctl: SeriesControl,
) -> SeriesBatch:
    """:func:`sum_log_terms` for a numpy batch of series, a block of terms at a time.

    ``terms(lo, hi)`` returns ``(signs, log|terms|)`` of terms lo, ..., hi-1
    of every series, as arrays broadcastable to ``(hi - lo,) + shape``:
    the term axis comes first.  The first block holds 16 terms, and each
    later one doubles the terms summed so far, within a fixed budget of
    elements per block; a block may run past the terms a series needs.

    Each element follows the scalar rules: the same Kahan step, stagnation
    rule, overflow check, term budget, cancellation guard and tail formula.
    The Kahan step runs term by term over the block; the rest is read off
    the whole block at each element's stopping index, so its value, term
    count and tail are the ones :func:`sum_log_terms` returns for it.  An
    element for which :func:`sum_log_terms` raises is marked in
    :attr:`SeriesBatch.failed` instead.
    """
    size = math.prod(shape)
    window = ctl.stagnation_window
    value = np.zeros(size)
    count = np.zeros(size, dtype=np.intp)
    failed = np.zeros(size, dtype=bool)
    running = np.ones(size, dtype=bool)
    total = np.zeros(size)
    comp = np.zeros(size)
    y = np.empty(size)
    mag_at = np.zeros(size)  # |term| at each element's stop
    prev_at = np.zeros(size)  # and the one before it
    last_mag = np.zeros(size)  # |term lo-1|, 0 before term 0
    max_mag = np.zeros(size)  # the largest |term| before term lo
    budget = max(1, _BLOCK_ELEMENTS // max(size, 1))
    # Block arrays, allocated once: rows [:rows] of each serve a block of that many terms.
    most = min(budget, ctl.max_terms)
    mag_rows = np.empty((most,) + shape)
    part_rows = np.empty((most, size))
    total_rows = np.empty((most, size))
    stop_rows = np.empty((most, size), dtype=bool)
    # Quiet flags: the last window-1 of the block before, then the block's own.
    quiet_rows = np.zeros((window - 1 + most, size), dtype=bool)
    countdown = np.arange(most, 0, -1, dtype=np.min_scalar_type(most))[:, None]
    lo = 0
    # Terms past an element's stop are still computed (and may overflow) but never read.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while lo < ctl.max_terms and running.any():
            hi = min(max(2 * lo, _FIRST_BLOCK_TERMS), lo + budget, ctl.max_terms)
            rows = hi - lo
            block = (rows,) + shape
            signs, log_mags = terms(lo, hi)
            mag = mag_rows[:rows]
            np.exp(log_mags, out=mag)
            part = part_rows[:rows]
            np.multiply(signs, mag, out=part.reshape(block))
            mag = mag.reshape(rows, size)
            # Kahan step, one term row at a time; totals[i] is the sum through term lo+i
            totals = total_rows[:rows]
            before = total
            for t, s in zip(part, totals):
                np.subtract(t, comp, out=y)
                np.add(before, y, out=s)
                np.subtract(s, before, out=comp)
                np.subtract(comp, y, out=comp)
                before = s
            np.copyto(total, before)
            # Term n is quiet if |term n| <= rel_tol |sum through n|.  An element
            # stops at the first term that ends a run of `window` quiet terms.
            np.abs(totals, out=part)
            np.multiply(part, ctl.rel_tol, out=part)
            quiet = quiet_rows[:window - 1 + rows]
            np.less_equal(mag, part, out=quiet[window - 1:])
            stop = stop_rows[:rows]
            np.copyto(stop, quiet[window - 1:])
            for k in range(1, window):
                stop &= quiet[window - 1 - k:window - 1 - k + rows]
            quiet[:window - 1] = quiet[rows:]
            over = None
            if np.fmax.reduce(log_mags, axis=None) > LOG_DBL_MAX:
                over = np.empty(block, dtype=bool)
                np.greater(log_mags, LOG_DBL_MAX, out=over)
                over = over.ravel()
                stop |= over.reshape(rows, size)
            # rows - (index of the first stop in the block), 0 where there is none
            left = np.maximum.reduce(stop.view(np.uint8) * countdown[most - rows:], axis=0)
            block_max = np.fmax.reduce(mag, axis=0)
            done = np.flatnonzero(left.astype(bool) & running)
            if done.size:
                first = rows - left[done].astype(np.intp)
                at = first * size + done
                value[done] = found = totals.ravel()[at]
                count[done] = lo + 1 + first
                mag_at[done] = mag.ravel()[at]
                prev_at[done] = np.where(first > 0, mag.ravel()[at - size], last_mag[done])
                bad = over[at] if over is not None else np.zeros(done.size, dtype=bool)
                # Cancellation guard: the block's largest term bounds the
                # largest term through the stop; check exactly where it trips.
                limit = CANCELLATION_RATIO_LIMIT * np.maximum(np.abs(found), sys.float_info.min)
                trip = np.flatnonzero(np.fmax(max_mag[done], block_max[done]) > limit)
                if trip.size:
                    upto = np.arange(rows)[:, None] <= first[trip]
                    peak = np.where(upto, mag[:, done[trip]], 0.0).max(axis=0)
                    bad[trip] |= np.maximum(max_mag[done[trip]], peak) > limit[trip]
                failed[done] = bad
                running[done] = False
            np.copyto(last_mag, mag[-1])
            np.fmax(max_mag, block_max, out=max_mag)
            lo = hi
        failed |= running  # out of terms
        decreasing = (mag_at > 0.0) & (mag_at < prev_at)
        ratio = np.where(decreasing, mag_at / prev_at, 0.0)
        geometric = np.maximum(2.0 * mag_at * ratio / (1.0 - ratio), mag_at)
        tail = np.where(decreasing, geometric, mag_at)
    return SeriesBatch(value.reshape(shape), count.reshape(shape), tail.reshape(shape),
                       failed.reshape(shape))
