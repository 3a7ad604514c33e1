"""Truncation control, compensated log-space summation and Horner sums for power series.

:func:`sum_log_terms` sums one series whose terms come as ``(sign, log
magnitude)`` pairs: each is exponentiated and added with Kahan
compensation.  Keeping terms in log space until the last moment lets
gamma-heavy coefficients cancel symbolically (as differences of ``lgamma``
values) instead of overflowing near ``Gamma(171)``.

Truncation policy: stop once three consecutive terms
(``SeriesControl.stagnation_window``, a constant of the rule) are below
``rel_tol`` times the running partial sum.  A single small term is not
enough because alternating series stall near sign changes.

Every sum is guarded by one refusal rule, :func:`accept` (and its array
form :func:`accepted`): a sum whose guarded size (here its largest term)
exceeds :data:`CANCELLATION_RATIO_LIMIT` times the sum raises
:class:`CancellationError`, because cancellation has left it no reliable
digits, and so does a sum whose final tail is at least |value|.  A series
of positive terms cannot trip the size test.

A power series ``pre * sum_j a_j x**j`` whose coefficients are t-free plain
doubles is summed by Horner instead (:class:`HornerTable`,
:func:`horner_sum`, :func:`horner_sum_batch`), with no log or exp per term.
Its length J is chosen from the absolute coefficients A_j >= |a_j| and x
alone, by the stagnation rule above with the largest earlier |term| in
place of the partial sum; the table turns that rule into t-free
thresholds on x.  Beside the value, the sum gives the absolute
polynomial ``sum_j A_j x**j`` (the sum of every |term|, which the
cancellation guard reads) and a running roundoff bound (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
Sec. 5.1, Algorithm 5.1).  The tail is the truncation estimate plus that
bound plus the table's bound on the rounding of each coefficient.
:func:`horner_sum_batch`, the one batch summation here, runs the
scalar's operations in the same order over an array of x, so the two
agree bit for bit.  This module owns the order in which a batch's
elements join Horner, ascending by term count (:func:`_join_order`); the
two-dimensional table of :mod:`kkinetics.kinetics` sums on the same
order (:func:`_joined_horner`).
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "DomainError",
    "ConvergenceGateError",
    "OverflowLogError",
    "NonConvergenceError",
    "CancellationError",
    "SeriesResult",
    "SeriesControl",
]

LOG_DBL_MAX = math.log(sys.float_info.max)
LOG_DBL_MIN = math.log(sys.float_info.min)  # the smallest normal double
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max
# 2**-1074, the spacing of the doubles below DBL_MIN: a term that lands
# there is rounded to within it, whatever its relative error.
DBL_TRUE_MIN = math.ldexp(1.0, -1074)
# Machine epsilon, twice the unit roundoff: an IEEE operation rounds to
# within EPS / 2 relative, and a result within one ulp is within EPS.
EPS = sys.float_info.epsilon

# |largest term| / |sum| beyond which an alternating sum in double
# precision retains fewer than ~4 significant digits; past it the computed
# total is usually pure roundoff noise.
CANCELLATION_RATIO_LIMIT = 1e12


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


def _integer_n(n: int, label: str, name: str = "n") -> int:
    """n as an int (ints and numpy ints); a bool, a float or any other type is
    refused with :class:`DomainError`."""
    try:
        if isinstance(n, bool):
            raise TypeError
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{label} requires an integer {name}, got {n!r}") from None


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by all series evaluators.

    ``max_terms`` bounds the term budget and ``rel_tol`` is the relative
    size below which a term counts as negligible.  ``stagnation_window``,
    how many consecutive negligible terms are required before stopping, is
    a constant of the rule, not a field.
    """

    max_terms: int = 500
    rel_tol: float = 1e-15
    stagnation_window: ClassVar[int] = 3

    def __post_init__(self):
        object.__setattr__(self, "max_terms",
                           _integer_n(self.max_terms, "SeriesControl", "max_terms"))
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


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
    the extrapolation bounds the discarded remainder.  It adds
    :data:`DBL_TRUE_MIN` for each term below the normal doubles (an exact
    zero adds nothing).

    The sum is refused by :func:`accept` on its largest term: it raises
    :class:`CancellationError` instead of returning a digit-starved result.
    A bare ``OverflowError`` that ``term`` raises (math.lgamma past the
    double range) is refused as :class:`OverflowLogError`.
    """
    total = 0.0
    comp = 0.0
    max_mag = 0.0
    prev_mag = 0.0
    mag = 0.0
    quiet = 0
    tiny = 0  # terms below the normal doubles
    try:
        for n in range(ctl.max_terms):
            sign, log_mag = term(n)
            if log_mag > LOG_DBL_MAX:
                raise OverflowLogError(f"{label}: term {n} overflows double range", log_mag)
            if LOG_DBL_MIN > log_mag > -math.inf:
                tiny += 1
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
    except OverflowLogError:
        raise
    except OverflowError:
        raise OverflowLogError(f"{label}: term {n} leaves the double range", math.inf) from None
    tail = _geometric_tail(mag, prev_mag) + tiny * DBL_TRUE_MIN
    accept(total, tail, max_mag, label)
    return SeriesResult(total, n + 1, tail)


def accept(value: float, tail: float, size: float, label: str) -> None:
    """The one refusal rule: raise :class:`CancellationError` where ``value``
    carries no significant digit.

    It is refused where ``size`` (a largest |term| or a sum of |terms|)
    exceeds :data:`CANCELLATION_RATIO_LIMIT` times |value|, as cancellation
    has left it no reliable digit, and then where its ``tail`` is at least
    |value|, as it carries no digit, not even its sign.  A tail below
    DBL_MIN is kept whatever the value: it is informative at the doubles'
    edge, where t = 0 answers 0 with tail 0 and a source omega that rounds
    to 0 answers it with a tail below DBL_MIN.  A nan passes here, where
    :func:`accepted` fails it.
    """
    scale = max(abs(value), DBL_MIN)
    if size > CANCELLATION_RATIO_LIMIT * scale:
        raise CancellationError(
            f"{label}: cancellation ratio {size / scale:.3g} "
            f"exceeds {CANCELLATION_RATIO_LIMIT:.0e}; result would carry no significant digits"
        )
    if tail >= abs(value) and tail >= DBL_MIN:
        raise CancellationError(
            f"{label}: tail {tail:.3g} is at least |value| {abs(value):.3g}; "
            "result would carry no significant digits"
        )


def accepted(value: np.ndarray, tail: np.ndarray, size: np.ndarray) -> np.ndarray:
    """:func:`accept`'s rule at every element: True where it passes (call with
    overflow warnings off).  A nan in any array fails."""
    abs_value = np.abs(value)
    return ((size <= CANCELLATION_RATIO_LIMIT * np.maximum(abs_value, DBL_MIN))
            & ((tail < abs_value) | (tail < DBL_MIN)))


def _geometric_tail(mag: float, prev_mag: float) -> float:
    """The truncation estimate from the last two |terms| (see :func:`sum_log_terms`)."""
    if 0.0 < mag < prev_mag:
        ratio = mag / prev_mag
        return max(2.0 * mag * ratio / (1.0 - ratio), mag)
    return mag


def _geometric_tail_batch(mag: np.ndarray, prev_mag: np.ndarray) -> np.ndarray:
    """:func:`_geometric_tail` at every finite mag >= 0, bit for bit (call with invalid
    warnings off).  A zero mag below prev_mag takes the first branch: its estimate
    is max(0, 0), the same 0."""
    decreasing = mag < prev_mag
    if decreasing.all():
        ratio = mag / prev_mag
        return np.maximum(2.0 * mag * ratio / (1.0 - ratio), mag)
    ratio = np.where(decreasing, mag / prev_mag, 0.0)
    return np.where(decreasing, np.maximum(2.0 * mag * ratio / (1.0 - ratio), mag), mag)


class SeriesBatch(NamedTuple):
    """Element-wise results of :func:`horner_sum_batch` (or of a kinetic table's ``batch``).

    ``failed`` marks the elements for which :func:`horner_sum` raises or
    returns None (or the table's ``point`` raises or takes another
    route); their ``value``, ``terms`` and ``tail`` are meaningless.
    """

    value: np.ndarray
    terms: np.ndarray
    tail: np.ndarray
    failed: np.ndarray


def _pow(x: float, y: float) -> float:
    """libm's x**y for x >= 0 (x itself at y = 1), inf past the double range."""
    if y == 1.0:
        return x
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _pow_batch(xs: np.ndarray, y: float) -> np.ndarray:
    """:func:`_pow` at every x >= 0, bit for bit; raises OverflowError past the double range.

    numpy's power differs from libm's pow in the last bit on a few percent
    of inputs.
    """
    if y == 1.0:
        return xs
    return np.fromiter(map(math.pow, xs.tolist(), repeat(y)), float, xs.size)


# Coefficients added to a table's stopping thresholds at a time.
_STOP_BLOCK = 16

# The one lock that orders the growth of every shared t-free table: Horner
# tables with their stop bounds, the k-Bessel error lists and the
# two-dimensional tables.  Re-entrant, since one table's growth extends
# another's (a power table extends an error list).
TABLE_LOCK = threading.RLock()


class HornerTable:
    """Plain-double coefficients of ``sum_j a_j x**j`` for :func:`horner_sum`.

    A subclass fills three lists in :meth:`grow`, one entry per power of x:

    * ``coeffs[j]``: a_j;
    * ``abs_coeffs[j]``: A_j >= |a_j|, the sum of the |contributions| that
      a_j is formed from, so ``sum_j A_j x**j`` is the sum of every |term|;
    * ``errs[j]``: a bound, in units of EPS, on the error of a_j as formed,
      plus that of the rounding of x**j and of the prefactor, relative to
      the exact series.

    A_j bounds a_j as formed; the exact |a_j| is below A_j + EPS errs[j].

    The lists end at the first coefficient that is not a normal double (or
    an exact zero); :func:`horner_sum` leaves a point that needs it to its
    caller.

    The length of a sum follows :func:`sum_log_terms`'s stagnation rule,
    with the largest earlier |term| in place of the partial sum: term j is
    quiet when ``A_j x**j <= rel_tol * max_{i<j} A_i x**i``.  That holds
    exactly for x up to ``theta_j = max_{i<j} (rel_tol A_i / A_j)**(1/(j-i))``,
    so the terms j-w+1 .. j (w = ``SeriesControl.stagnation_window``) are
    all quiet for x up to the least of their thetas, and the rule stops at
    the first j whose running maximum M_j of that least theta is at least
    x.  M is t-free: it is kept per ``rel_tol``, and a length is a binary
    search in it.

    A table is shared by every equal problem, in every thread, and has one
    writer: :meth:`grow` runs only from :meth:`stop_bounds` and
    :meth:`extend`, under :data:`TABLE_LOCK`.  Entries are only appended,
    ``errs`` last, and never change; the bounds are extended only after
    the entries they cover.  So a reader takes no lock: it reads no entry
    past a length it took from the bounds or from ``errs``.  For the batch
    sum the writer also keeps ``abs_coeffs`` and ``errs`` as the rows of one
    array, ``columns``, and each rel_tol's bounds as an array; it replaces
    them whole, columns first, after the lists they copy.  A batch that
    takes its lengths from an array older than the bounds list marks the
    points past it failed, and those go to the scalar call.
    """

    def __init__(self):
        self.coeffs: list[float] = []
        self.abs_coeffs: list[float] = []
        self.errs: list[float] = []
        self.columns = np.zeros((2, 0))
        # per rel_tol: the log thetas, the bounds M_j and those bounds as an array
        self._stops: dict[float, tuple[list[float], list[float], np.ndarray]] = {}

    def grow(self, stop: int) -> None:
        """Extend the lists towards ``stop`` entries (see the class docs for who calls it)."""
        raise NotImplementedError

    def extend(self, stop: int) -> int:
        """Extend the lists towards ``stop`` entries; the number that all three hold."""
        if len(self.errs) < stop:
            with TABLE_LOCK:
                self.grow(stop)
        return len(self.errs)

    def stop_bounds(self, x: float, ctl: SeriesControl) -> list[float]:
        """M_j (see class docs), extended to cover x, the budget or the end of the table."""
        _, bounds, _ = self._stops.get(ctl.rel_tol, ((), (), None))
        if bounds and bounds[-1] >= x:
            return bounds
        with TABLE_LOCK:
            log_thetas, bounds, _ = self._stops.get(ctl.rel_tol, ([], [], None))
            while not (bounds and bounds[-1] >= x) and len(bounds) < ctl.max_terms:
                self.grow(len(bounds) + _STOP_BLOCK)
                if len(self.abs_coeffs) == len(bounds):
                    break
                self._extend_bounds(log_thetas, bounds, ctl)
            held = len(self.errs)
            self.columns = np.array((self.abs_coeffs[:held], self.errs[:held]))
            self._stops[ctl.rel_tol] = log_thetas, bounds, np.array(bounds)
        return bounds

    def _extend_bounds(self, log_thetas: list[float], bounds: list[float],
                       ctl: SeriesControl) -> None:
        start, stop = len(bounds), len(self.abs_coeffs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_abs = np.log(np.array(self.abs_coeffs[:stop]))
            js = np.arange(start, stop)[:, None]
            gaps = js - np.arange(stop)
            ratios = (math.log(ctl.rel_tol) + log_abs - log_abs[js]) / gaps
            # a zero |term| is always quiet; fmax skips the nan of two zeros
            new = np.fmax.reduce(np.where(gaps > 0, ratios, -math.inf), axis=1, initial=-math.inf)
            new = np.where(log_abs[start:] == -math.inf, math.inf, new)
        log_thetas.extend(new.tolist())
        window = ctl.stagnation_window
        top = bounds[-1] if bounds else 0.0
        for j in range(start, stop):
            if j + 1 >= window:
                least = min(log_thetas[j + 1 - window:j + 1])
                top = max(top, math.exp(least) if least < LOG_DBL_MAX else math.inf)
            bounds.append(top)

    def lengths(self, x: np.ndarray, ctl: SeriesControl) -> np.ndarray:
        """:meth:`length` at every x: 0 past the budget, -1 past the table."""
        return self._lengths(x, float(x.max()) if x.size else 0.0, ctl)[0]

    def _lengths(self, x: np.ndarray, x_max: float, ctl: SeriesControl
                 ) -> tuple[np.ndarray, bool]:
        """:meth:`lengths` at every x, whose largest is ``x_max``, and whether
        every x is within the table and the budget (every length is >= 1)."""
        self.stop_bounds(x_max, ctl)
        bounds = self._stops[ctl.rel_tol][2]
        found = np.searchsorted(bounds, x)
        if bounds.size and bounds[min(ctl.max_terms, bounds.size) - 1] >= x_max:
            return found + 1, True
        return np.where(found >= ctl.max_terms, 0,
                        np.where(found < bounds.size, found + 1, -1)), False

    def length(self, x: float, ctl: SeriesControl) -> int | None:
        """The number of terms :func:`horner_sum` takes at x: 0 past the budget, None past the table."""
        bounds = self.stop_bounds(x, ctl)
        j = bisect_left(bounds, x)
        if j >= ctl.max_terms:
            return 0
        return j + 1 if j < len(bounds) else None


def horner_sum(table: HornerTable, x: float, pre: float, ctl: SeriesControl, label: str
               ) -> SeriesResult | None:
    """``pre * sum_j a_j x**j`` by Horner over ``table``, or None off this route.

    The length J comes from the table (:meth:`HornerTable.length`).  Horner
    gives the value and its partials v_j; one forward pass over them then
    sums, with x**j as running products, the |terms| A_j x**j (the
    absolute polynomial, which the cancellation guard reads) and the bound
    ``e = sum_j (|v_j| + errs[j]) x**j``: EPS sum_j |v_j| x**j is at least
    Higham's running error bound, and EPS sum_j errs[j] x**j bounds the
    rest.  The tail is ``pre`` times the truncation estimate of
    :func:`sum_log_terms` (on the |terms|) plus EPS e.

    None is returned where x or ``pre`` is not a normal double, where the
    table ends before J, or where a sum leaves the double range; the
    caller then takes its log route.  Raises :class:`NonConvergenceError`
    past ``ctl.max_terms``, and :func:`accept` refuses the sum on the sum of
    every |term| with :class:`CancellationError`.
    """
    if not (DBL_MIN <= x <= DBL_MAX and DBL_MIN <= pre <= DBL_MAX):
        return None
    length = table.length(x, ctl)
    if length is None:
        return None
    if not length:
        partial = pre * _horner(table, x, ctl.max_terms)[0]
        raise NonConvergenceError(
            f"{label}: no stagnation within {ctl.max_terms} terms", partial, ctl.max_terms)
    v, total, e, mag, prev_mag = _horner(table, x, length)
    value, abs_value = pre * v, pre * total
    tail = pre * (_geometric_tail(mag, prev_mag) + EPS * e)
    if not (DBL_MIN <= abs_value <= DBL_MAX and tail <= DBL_MAX):
        return None
    accept(value, tail, abs_value, label)
    return SeriesResult(value, length, tail)


def _horner(table: HornerTable, x: float, length: int):
    """Over the first ``length`` coefficients: the value, the sum of |terms|, the bound e
    and the last two |terms| (see :func:`horner_sum`)."""
    partials = []
    v = 0.0
    for a in reversed(table.coeffs[:length]):
        v = v * x + a
        partials.append(v)
    total = e = mag = prev_mag = 0.0
    power = 1.0
    for v_j, abs_a, err in zip(reversed(partials), table.abs_coeffs, table.errs):
        prev_mag, mag = mag, abs_a * power
        total += mag
        e += (abs(v_j) + err) * power
        power *= x
    return v, total, e, mag, prev_mag


def horner_sum_batch(table: HornerTable, x: np.ndarray, pre: np.ndarray, ctl: SeriesControl
                     ) -> SeriesBatch:
    """:func:`horner_sum` at every element of ``x`` and ``pre``, bit for bit.

    The same operations run in the same order as numpy operations over the
    elements: each length is the same binary search in the table
    (:meth:`HornerTable.lengths`), and
    numpy reduces a C-ordered array of two or more columns over its first
    axis row by row, in order, as the forward pass sums.  A lone column it
    sums pairwise, so a batch of one runs as a pair.  An element for which
    :func:`horner_sum` returns None or raises is marked in
    :attr:`SeriesBatch.failed`.

    Each guard is first tested on reductions (the least and the largest
    input, value and tail): where they pass, every element passes, and
    the batch makes no mask.  Where one does not (a nan makes it fail),
    the guard is tested element by element.

    The batch holds about 2J + 2 rows of its elements at once
    (:func:`_horner_chains`), so its memory grows with its size; the grids
    of :mod:`kinetics` call it on at most ``kinetics._CHUNK_MAX`` elements
    at a time (``kinetics._evaluate_grid``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_max = float(x.max()) if x.size else 0.0
        if (x.size and DBL_MIN <= x.min() and x_max <= DBL_MAX
                and DBL_MIN <= pre.min() and pre.max() <= DBL_MAX):
            length, within = table._lengths(x, x_max, ctl)
            ok = None if within else length > 0  # None: every element passes so far
        else:
            # nan fails both tests: np.minimum and np.maximum return it
            ok = (np.minimum(x, pre) >= DBL_MIN) & (np.maximum(x, pre) <= DBL_MAX)
            if not ok.all():
                x = np.where(ok, x, 1.0)
            length = table.lengths(x, ctl)
            ok &= length > 0
        if ok is not None:
            length *= ok
        v, total, e, mag, prev_mag = _horner_chains(table, x, length)
        value, abs_value = pre * v, pre * total
        tail = pre * (_geometric_tail_batch(mag, prev_mag) + EPS * e)
        if ok is None and _all_outputs_pass(abs_value, value, tail):
            return SeriesBatch(value, length, tail, np.zeros(x.size, dtype=bool))
        passed = ((abs_value >= DBL_MIN) & (np.maximum(abs_value, tail) <= DBL_MAX)
                  & accepted(value, tail, abs_value))
        if ok is not None:
            passed &= ok
    return SeriesBatch(value, length, tail, ~passed)


def _all_outputs_pass(abs_value: np.ndarray, value: np.ndarray, tail: np.ndarray) -> bool:
    """True if every element passes :func:`horner_sum_batch`'s output guards,
    as found from reductions alone; False where they cannot tell (a nan, or
    a batch whose least |value|, with its largest tail and largest sum of
    |terms|, fails :func:`accepted`)."""
    abs_max, tail_max = abs_value.max(), tail.max()
    if not (DBL_MIN <= abs_value.min() and abs_max <= DBL_MAX and tail_max <= DBL_MAX):
        return False
    # the rule passes every element where it passes the smallest |value| with
    # the largest tail and the largest sum of |terms|
    return bool(accepted(np.abs(value).min(), tail_max, abs_max))


def _horner_chains(table: HornerTable, x: np.ndarray, length: np.ndarray
                   ) -> Sequence[np.ndarray]:
    """:func:`_horner` at every element over its own ``length`` (0 for none), as five rows.

    An element joins Horner at step j < length, where its partial is
    formed from 0 as the scalar forms its first (0 * x + a_j is a_j for
    the normal positive x the batch passes).  The partials and the powers
    x**j are kept as rows, the powers 0 past each length, and the forward
    sums run down the rows, in the order of the scalar loop.

    The rows are formed one of two ways, chosen by the batch size.  At most
    :data:`_FULL_WIDTH_MAX` elements (a figure sweep of 200 times) run
    every step over whole rows in the caller's order (:func:`_full_rows`):
    a Horner step is two ufunc calls, one accumulated product forms every
    power, and the call has no slicing, sort or scatter, which on rows
    this short cost more than the arithmetic they save.  Larger batches
    (verify's 2048 times) run in the join order, ascending by length, and
    each step runs on the suffix that has joined (:func:`_prefix_rows`),
    so no step touches an element that has not joined: there the
    arithmetic outweighs the calls.  A batch whose lengths never fall, as
    on an increasing grid, whose x grows with t, is in that order already
    and runs as the caller gave it; any other is sorted once
    (:func:`_join_order`) and its results scattered back.  The rows of
    the whole batch are held at once: a grid hands its batches at most
    ``kinetics._CHUNK_MAX`` (4096) elements each.  Timed warm by
    ``solve_grid`` and ``source_grid`` on figures 1 and 3 (Intel Xeon, 2
    cores, numpy 2.4), whole rows were faster on every grid of up to 257
    points (by 2-19%), and the prefixes on every grid of 513 points or
    more (by 7-36%).  Timed cold, each call after a pure-Python loop of
    about a millisecond as the benchmark runs them, with both engines
    forced in turn (median ratio of 150 alternating pairs, prefixes over
    whole rows, the four calls on figures 1 and 3): 1.06-1.11 at 201
    points, 1.02-1.07 at 257, 0.97-1.03 at 321, 0.96-1.01 at 353,
    0.93-0.98 at 385 and 0.84-0.95 at 513.  The switch sits at that
    crossover.
    """
    n = x.size
    top = int(length.max()) if n else 0
    if not top:
        return np.zeros((5, n))
    if n == 1:  # summed as a pair (see horner_sum_batch)
        return [row[:1] for row in _horner_chains(table, np.repeat(x, 2), np.repeat(length, 2))]
    if n <= _FULL_WIDTH_MAX:
        return _forward_sums(table, *_full_rows(table, x, length, top), length)
    order = _join_order(length)
    if order is not None:
        out = np.empty((5, n))
        out[:, order] = _horner_chains(table, x[order], length[order])
        return out
    return _forward_sums(table, *_prefix_rows(table, x, length, top), length)


# The most elements a batch runs over whole rows (see _horner_chains).
_FULL_WIDTH_MAX = 352


def _join_order(length: np.ndarray) -> np.ndarray | None:
    """None where ``length`` never falls along the batch, which is then in the
    join order; else the stable argsort that puts it in that order, ascending.

    In that order the elements that have joined at step j (length > j)
    are a suffix, from ``np.searchsorted(length, j, side="right")`` on.
    """
    return np.argsort(length, kind="stable") if np.any(length[1:] < length[:-1]) else None


def _full_rows(table: HornerTable, x: np.ndarray, length: np.ndarray, top: int):
    """The partials and the powers of :func:`_horner_chains` (``top`` rows, and ``top`` + 1
    rows of which the last is 0), every step over whole rows.

    Row j > 0 of the factors holds x where j < length and 0 elsewhere, and
    row 0 holds 1.  The power x**j is the power before times factor j, so
    each power past a length is 0, never an overflow; one accumulated
    product forms them all, in that order.  The partial v_j is v_{j+1}
    times factor j+1, plus a_j: past a length that is a_j exactly, and at
    j = length-1 it is +-0 + a_j = a_j, as the scalar forms it from 0.
    The rows are laid out as :func:`_prefix_rows` lays them out.
    """
    factors = np.zeros((top + 1, x.size))
    np.copyto(factors, x, where=np.less.outer(np.arange(top + 1), length))
    factors[0] = 1.0
    rows = np.zeros((2 * top + 2, x.size))
    v = list(rows[:top + 1])
    for v_j, v_next, factor, a in zip(v[-2::-1], v[:0:-1], factors[top:0:-1],
                                      reversed(table.coeffs[:top])):
        np.multiply(v_next, factor, v_j)
        np.add(v_j, a, v_j)
    np.multiply.accumulate(factors[:top], axis=0, out=rows[top + 1:2 * top + 1])
    return rows[:top], rows[top + 1:]


def _prefix_rows(table: HornerTable, xs: np.ndarray, length: np.ndarray, top: int):
    """The partials and the powers of :func:`_horner_chains` (``top`` rows, and ``top`` + 1
    rows of which the last is 0) for elements in the join order (ascending
    ``length``), each step on the suffix that has joined.

    Both sets of rows come from one zeroed block, and the powers end with
    a row of zeros (see :func:`_forward_sums`): as two blocks of about half
    a megabyte each (at a 2049-point grid), they were trimmed from the
    heap when freed and faulted in afresh on every call.
    """
    first = np.searchsorted(length, np.arange(top), side="right").tolist()
    rows = np.zeros((2 * top + 2, xs.size))
    partials, powers = rows[:top + 1], rows[top + 1:]
    for j, a in zip(range(top - 1, -1, -1), reversed(table.coeffs[:top])):
        lo = first[j]
        v_j = partials[j, lo:]
        np.multiply(partials[j + 1, lo:], xs[lo:], out=v_j)
        v_j += a
    powers[0, first[0]:] = 1.0
    for j in range(1, top):
        lo = first[j]
        np.multiply(powers[j - 1, lo:], xs[lo:], out=powers[j, lo:])
    return partials[:top], powers


def _forward_sums(table: HornerTable, partials: np.ndarray, powers: np.ndarray,
                  length: np.ndarray) -> tuple[np.ndarray, ...]:
    """The value, the sum of |terms|, the bound e and the last two |terms| of
    each column, from the partials v_j and the powers x**j (rows j = 0 ..
    top-1; the powers are 0 past each column's length); overwrites both.

    ``powers`` has one more row, of zeros, which a column of length 1
    reads as the |term| before its first (index -1 wraps to it).
    """
    top, n = partials.shape
    abs_coeffs, errs = table.columns[:, :top, None]
    value = partials[0].copy()
    bound = np.abs(partials, out=partials)
    bound += errs
    bound *= powers[:top]
    mags = np.multiply(powers[:top], abs_coeffs, out=powers[:top])
    # the last |term| of each column and the one before it, in one gather
    mag, prev_mag = powers[length - [[1], [2]], np.arange(n)]
    return value, np.add.reduce(mags, axis=0), np.add.reduce(bound, axis=0), mag, prev_mag


def _joined_horner(x: np.ndarray, length: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] x**j by Horner at every x over its own length, as one batch.

    Term j is ``coeffs[j]``: one row shared by every point (2-D ``coeffs``)
    or one row per point (3-D, the points on axis 1).  The points run in
    the join order of :func:`_horner_chains`, sorted only where their
    lengths fall (:func:`_join_order`), and each step runs on the suffix
    that has joined.  A point joins at its last term, before which its
    partial sums are 0 (and 0 * x + 0 is 0), so each takes the operations
    of a batch of one.
    """
    order = _join_order(length)
    per_point = coeffs.ndim == 3
    if order is not None:
        x, length, coeffs = x[order], length[order], coeffs[:, order] if per_point else coeffs
    first = np.searchsorted(length, np.arange(len(coeffs)), side="right").tolist()
    partials = np.zeros((x.size, coeffs.shape[-1]))
    for j in range(len(coeffs) - 1, -1, -1):
        part = partials[first[j]:]
        part *= x[first[j]:, None]
        part += coeffs[j, first[j]:] if per_point else coeffs[j]
    if order is None:
        return partials
    out = np.empty_like(partials)
    out[order] = partials
    return out
