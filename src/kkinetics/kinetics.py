"""Closed-form series solutions of three linear fractional kinetic equations.

All three problems are Volterra equations of the second kind built on the
order-``nu`` Riemann-Liouville integral ``I^nu`` and a generalized k-Bessel
source ``omega`` (see :mod:`kkinetics.specfun`):

    variant 1:  N(t) - N0 * omega(t)              = -d**nu * I^nu N(t)
    variant 2:  N(t) - N0 * omega(d**nu * t**nu)  = -d**nu * I^nu N(t)
    variant 3:  N(t) - N0 * omega(d**nu * t**nu)  = -a**nu * I^nu N(t),  a != d

Each solution is a double series: an outer k-Bessel-type sum whose n-th
term carries the factor ``Gamma(beta_n) * E_{nu,beta_n}(-rate**nu * t**nu)``
with ``beta_n = mu+2n+1`` (variant 1) or ``nu*(mu+2n)+1`` (variants 2-3).

Where the exponents align -- variants 2 and 3 at any nu, variant 1 at
nu = 1, which covers every figure sweep -- term (n, m) of the double series
is a multiple of s**(mu+2n+m), s = t**nu, divided by
Gamma(nu*(mu+2n+m) + 1).  Grouping the terms by j = 2n+m gives one power
series, N(t) = n0 * sum_j a_j s**(mu+j), whose t-free coefficients follow a
two-term recurrence (:class:`_PowerTable`).  The table is built once per
problem and kept on it; the inner Mittag-Leffler sums disappear.  The sum
is refused with :class:`series.CancellationError` where the sum of every
|term (n, m)| exceeds :data:`series.CANCELLATION_RATIO_LIMIT` times |N|.
It runs by Horner on the table's plain doubles, and its tail bounds the
roundoff too (:func:`series.horner_sum`).

Variant 1 at nu != 1 keeps the double series.  Its Mittag-Leffler factor
is always evaluated fused, term by term as
``exp(lgamma(beta_n) - lgamma(nu*m + beta_n)) * x**m``, because
``Gamma(beta_n)`` on its own overflows once the outer sum passes n ~ 85.
The inner sums run at a 10x tighter relative tolerance than the outer sum
(:meth:`series.SeriesControl.tightened`) so the reported outer tail
estimate dominates the error.

Two evaluation paths for the solution, chosen by the kind of input:

* :func:`solve_point` evaluates one t: by Horner on Python floats, or
  :func:`series.sum_log_terms` over the outer terms of the double series
  (one :func:`specfun.scaled_ml` call each).
* :func:`solve_grid` evaluates the grid as one batch: the same Horner
  operations on numpy arrays (:func:`series.horner_sum_batch`), or the
  double series in chunks of up to 256 points
  (:func:`series.sum_log_terms_batch`).

The source has the same pair: :meth:`KineticProblem.source` evaluates
omega(z(t)) at one t through :func:`specfun.gen_k_bessel`, and
:func:`source_grid` sums it at every grid time as one log-space batch over
the outer coefficients of the double series.

Both grids follow one contract.  The batch applies the scalar summation
rules, so it gives the same term counts and stopping decisions; values
and tails are the same bit for bit on the power series, and agree to
rounding elsewhere (numpy's exp is not libm's).  It reads z(t), s = t**nu
and s**mu bit for bit as the scalar call forms them (libm's pow) and sums
the times with z(t) > 0 (a time with z = 0 gives 0.0 after one term).  It
marks the points whose scalar call raises or leaves the batch's route.
Those points, and every point when the batch itself raises, are evaluated
again in order through the scalar call, so a grid raises what the scalar
call raises at the earliest failing time.

:func:`corollary_source` evaluates the source through its reduced form, the
family picked by the selectors (b = c = 1: k-Bessel J; b = -1, c = 1: k-Wright W).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .series import (
    CANCELLATION_RATIO_LIMIT,
    DEFAULT_CONTROL,
    LOG_DBL_MAX,
    DomainError,
    EvaluationError,
    HornerTable,
    OverflowLogError,
    SeriesControl,
    SeriesResult,
    _pow,
    _pow_batch,
    horner_sum,
    horner_sum_batch,
    sum_log_terms,
    sum_log_terms_batch,
)
from .specfun import (
    FoxWrightSpec,
    KBesselParams,
    MLParams,
    _HALVING_EXACT_MIN,
    _guard_log_sum,
    _log_half,
    _reduced_k_bessel,
    fox_wright,
    gamma_error,
    gen_k_bessel,
    k_bessel_log_coefficient,
    k_bessel_log_error,
    ml_negative_bound,
    scaled_ml,
)

__all__ = [
    "Theorem",
    "KineticProblem",
    "SolutionTable",
    "solve_point",
    "solve_grid",
    "source_grid",
    "corollary_source",
    "psi_form_source",
]


class Theorem(IntEnum):
    """Which of the three kinetic equations a problem instance solves."""

    T1 = 1
    T2 = 2
    T3 = 3


@dataclass(frozen=True)
class KineticProblem:
    """A kinetic-equation instance: initial density, rates, order, source.

    All three variants share one double series,

        N(t) = n0 * sum_n coeff_n * (z/2)**(mu+2n) * Gamma(beta_n) E_{nu,beta_n}(x),

    with coeff_n from :func:`specfun.k_bessel_log_coefficient`.
    :meth:`z`, :meth:`ml_arg` and :meth:`beta` map a variant onto it.

    Where the exponents align (variants 2 and 3 at any nu, variant 1 at
    nu = 1) the double series is one power series in s = t**nu,
    N(t) = n0 * sum_j a_j s**(mu+j).  Its coefficients are tabulated on
    the instance the first time a solver needs them, and grow from there.
    """

    n0: float
    d: float
    nu: float
    variant: Theorem
    params: KBesselParams
    a: float | None = None
    _power: "_PowerTable | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n0", "d", "nu"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if self.variant == Theorem.T3:
            if self.a is None or not 0.0 < self.a < math.inf:
                raise DomainError(f"variant 3 requires a finite a > 0, got {self.a}")
            if not abs(self.a - self.d) > 0.0:
                raise DomainError("variant 3 requires a != d")

    def source(self, t: float, ctl: SeriesControl | None = None) -> float:
        """Source value N0-free: omega(t) or omega(d**nu * t**nu)."""
        return gen_k_bessel(self.params, self.z(t), ctl).value

    # These run once per time point or outer term, so they compare the variant
    # with plain ints: on CPython 3.11 looking up Theorem.T1 alone takes ~0.15 us.

    @property
    def rate(self) -> float:
        """Relaxation rate entering the integral term (d, d, or a)."""
        return self.a if self.variant == 3 else self.d

    def z(self, t: float) -> float:
        """Source argument at time t >= 0: t (variant 1) or d**nu t**nu."""
        if self.variant != 1:
            return _scaled_power("source argument", self.d, t, self.nu)
        if not t >= 0.0:
            raise DomainError(f"t must be >= 0, got {t}")
        return t

    def ml_arg(self, t: float) -> float:
        """Mittag-Leffler argument at time t >= 0: -rate**nu t**nu."""
        return -_scaled_power("Mittag-Leffler argument", self.rate, t, self.nu)

    def beta(self, n: int) -> float:
        """Mittag-Leffler index of outer term n: mu+2n+1 (variant 1) or nu(mu+2n)+1."""
        if self.variant != 1:
            return self.nu * (self.params.mu + 2.0 * n) + 1.0
        return self.params.mu + 2.0 * n + 1.0

    def _power_table(self) -> "_PowerTable | None":
        """The power-series table where the exponents align, else None."""
        if self.variant == 1 and self.nu != 1.0:
            return None
        if self._power is None:
            object.__setattr__(self, "_power", _PowerTable(self))
        return self._power


def _scaled_power(what: str, base: float, t: float, nu: float) -> float:
    """base**nu * t**nu for t >= 0, refused only when (base t)**nu leaves the double range."""
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    try:
        power = base ** nu * t ** nu
    except OverflowError:  # a factor past the range, such as 3**700 at t = 0.1
        power = math.inf
    if 0.0 != power != math.inf:
        return power
    log_power = nu * (math.log(base) + math.log(t))
    if log_power > LOG_DBL_MAX:
        raise OverflowLogError(f"{what} at t = {t}: ({base} t)**{nu} overflows double range",
                               log_power)
    return math.exp(log_power)  # may underflow to 0


_LN2 = math.log(2.0)
_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max

# A number m * 2**e as (m, e) with 0.5 <= |m| < 1, or m = 0.  Scaling by a
# power of two is exact, so the power-series recurrences below round as
# plain doubles would, and also run where a value leaves the double range.
_Scaled = tuple[float, int]


def _scaled(sign: float, log_mag: float) -> _Scaled:
    """sign * exp(log_mag) as a scaled number."""
    if log_mag == -math.inf:
        return 0.0, 0
    e = 0 if abs(log_mag) < 700.0 else int(log_mag / _LN2)
    m, e2 = math.frexp(sign * math.exp(log_mag - e * _LN2))
    return m, e + e2


def _scaled_from_power(base: float, nu: float) -> _Scaled:
    """base**nu for base > 0, rounded once where it is a normal double."""
    try:
        power = base ** nu
    except OverflowError:
        power = math.inf
    if _DBL_MIN <= power < math.inf:
        return math.frexp(power)
    return _scaled(1.0, nu * math.log(base))


def _scaled_gamma(x: float) -> _Scaled:
    """Gamma(x) for x >= 1, from math.gamma while it is a double."""
    if x < 171.0:
        return math.frexp(math.gamma(x))
    try:
        return _scaled(1.0, math.lgamma(x))
    except OverflowError:  # x is past the double range
        raise OverflowLogError(f"solve_point: Gamma({x}) overflows double range",
                               math.inf) from None


def _scaled_mul(x: _Scaled, y: _Scaled) -> _Scaled:
    m, e = math.frexp(x[0] * y[0])
    return m, x[1] + y[1] + e


def _scaled_div(x: _Scaled, y: _Scaled) -> _Scaled:
    m, e = math.frexp(x[0] / y[0])
    return m, x[1] - y[1] + e


def _scaled_add(x: _Scaled, y: _Scaled) -> _Scaled:
    if x[0] == 0.0:
        return y
    if y[0] == 0.0:
        return x
    top = max(x[1], y[1])
    m, e = math.frexp(math.ldexp(x[0], x[1] - top) + math.ldexp(y[0], y[1] - top))
    return m, top + e


def _scaled_log(x: _Scaled) -> float:
    """log|x|, -inf for 0."""
    m, e = x
    if m == 0.0:
        return -math.inf
    if -1021 <= e <= 1024:  # m * 2**e is a normal double
        return math.log(abs(math.ldexp(m, e)))
    return math.log(abs(m)) + e * _LN2


class _PowerTable(HornerTable):
    """Coefficients of N(t) / n0 = sum_j a_j s**(mu+j), s = t**nu, for aligned exponents.

    Term (n, m) of the double series carries s**(mu+2n+m) and the gamma
    G_j = Gamma(nu*(mu+j) + 1) of j = 2n+m, so each j shares one gamma:
    a_j = b_j / G_j with

        b_j = -r * b_{j-1} + [j even] coeff_{j/2} * q**(mu+j) * G_j,   b_{-1} = 0,

    r = rate**nu and q = d**nu / 2 (variants 2 and 3) or 1/2 (variant 1).
    Every gamma enters a_j as one ratio G_{2n} / G_j, so its rounding does
    not accumulate along j.  The absolute table A_j runs the same
    recurrence on |.|, so sum_j A_j s**(mu+j) is the sum of every
    |term (n, m)|.  Both grow as the sums reach them.

    While the recurrence runs in plain doubles it also fills the lists of
    :class:`series.HornerTable`.  The error bound of b_j, in EPS, runs a
    third recurrence: E_j = r E_{j-1} + (r_err + 1/2) r A'_{j-1} +
    [j even] (kappa_n |e_n| + A'_j / 2), with A'_j = A_j G_j, r_err the
    rounding of r (one ulp of pow, none at nu = 1) and kappa_n the error of
    e_n: that of its log (:func:`specfun.k_bessel_log_error` and of
    (mu+j) log q), one ulp of exp, a half for the product and that of G_j.
    a_j is then off by E_j / G_j + (1/2 + error of G_j) A_j; the evaluation
    adds (mu+j) r_err A_j for s**(mu+j), one ulp of s**mu and a half for
    each product with n0 and with the sum.
    """

    def __init__(self, prob: KineticProblem):
        super().__init__()
        self.params = prob.params
        self.nu = prob.nu
        self.r = _scaled_from_power(prob.rate, prob.nu)
        log_d = prob.nu * math.log(prob.d) if prob.variant != 1 else 0.0
        self.log_q = log_d - _LN2
        self.signs: list[float] = []
        self.mags: list[float] = []  # |a_j|, or 0 where it is not a normal double
        self.log_a: list[float] = []
        self.log_abs: list[float] = []  # log A_j
        self._b: _Scaled = (0.0, 0)
        self._abs_b: _Scaled = (0.0, 0)
        self._err_b = 0.0
        self._plain = self.r[0] != 0.0 and -1021 <= self.r[1] <= 1024  # r is a normal double
        self._pow_err = 0.0 if prob.nu == 1.0 else 1.0  # r = rate**nu and s = t**nu by pow
        # the error of log q, and whether nu*(mu+j) + 1 is exact
        self._log_q_err = 1.5 * abs(log_d) + _LN2 + 0.5 * abs(self.log_q)
        self._gamma_exact = prob.nu == 1.0 and float(self.params.mu).is_integer()

    def coefficient(self, j: int) -> tuple[float, float, float]:
        """Sign, magnitude (0 outside the normal doubles) and log magnitude of a_j."""
        if j >= len(self.log_a):
            self.grow(j + 1)
        return self.signs[j], self.mags[j], self.log_a[j]

    def grow(self, stop: int) -> None:
        """Extend both tables to at least ``stop`` coefficients."""
        if self._plain:
            self._grow_plain(stop)
        self._grow_scaled(stop)

    def _grow_plain(self, stop: int) -> None:
        """The recurrence in plain doubles, while every value it forms is a normal double.

        Scaling by a power of two is then exact, so each value rounds as in
        :meth:`_grow_scaled` and the tables are the same.  The loop stops
        for good at the first coefficient that leaves that range, or whose
        gamma or coefficient term :meth:`_grow_scaled` would scale.
        """
        mu, nu, log_q = self.params.mu, self.nu, self.log_q
        log_errors = self.params._log_errors
        r = math.ldexp(*self.r)
        b, abs_b, err_b = math.ldexp(*self._b), math.ldexp(*self._abs_b), self._err_b
        while len(self.log_a) < stop:
            j = len(self.log_a)
            x = nu * (mu + j) + 1.0
            if not x < 171.0:  # _scaled_gamma takes Gamma(x) from lgamma
                break
            gamma = math.gamma(x)
            gamma_err = gamma_error(x, 0.0 if self._gamma_exact else 1.5)
            new_b, new_abs_b = b * -r, abs_b * r
            new_err = err_b * r + (self._pow_err + 0.5) * new_abs_b
            formed = (new_b, new_abs_b) if j else ()  # b_{-1} = 0 is exact
            if j % 2 == 0:
                sign, log_coeff = k_bessel_log_coefficient(self.params, j // 2)
                log_e = log_coeff + (mu + j) * log_q
                if not abs(log_e) < 700.0:  # _scaled scales exp(log_e)
                    break
                e_n = sign * math.exp(log_e) * gamma
                new_b, new_abs_b = new_b + e_n, new_abs_b + abs(e_n)
                if j // 2 == len(log_errors):
                    log_errors.append(k_bessel_log_error(self.params, j // 2))
                log_e_err = (log_errors[j // 2] + (mu + j) * self._log_q_err
                             + abs((mu + j) * log_q) + 0.5 * abs(log_e))
                new_err += (log_e_err + 1.5 + gamma_err) * abs(e_n) + 0.5 * new_abs_b
                formed += (e_n, new_b, new_abs_b)
            a, abs_a = new_b / gamma, new_abs_b / gamma
            formed = tuple(map(abs, formed + (a, abs_a)))
            # a nan needs an inf before it, and the inf fails the max
            if not (_DBL_MIN <= min(formed) and max(formed) <= _DBL_MAX):
                break
            b, abs_b, err_b = new_b, new_abs_b, new_err
            self.signs.append(-1.0 if a < 0.0 else 1.0)
            self.mags.append(abs(a))
            self.log_a.append(math.log(abs(a)))
            self.log_abs.append(math.log(abs_a))
            self.coeffs.append(a)
            self.abs_coeffs.append(abs_a)
            self.errs.append(err_b / gamma
                             + (2.5 + gamma_err + (mu + j) * self._pow_err) * abs_a)
        self._b, self._abs_b, self._err_b = math.frexp(b), math.frexp(abs_b), err_b
        self._plain = len(self.log_a) >= stop  # a break leaves the rest to _grow_scaled

    def _grow_scaled(self, stop: int) -> None:
        """The recurrence in :data:`_Scaled` numbers, which also run outside the double range."""
        mu = self.params.mu
        neg_r = (-self.r[0], self.r[1])
        while len(self.log_a) < stop:
            j = len(self.log_a)
            gamma = _scaled_gamma(self.nu * (mu + j) + 1.0)
            b = _scaled_mul(self._b, neg_r)
            abs_b = _scaled_mul(self._abs_b, self.r)
            if j % 2 == 0:
                sign, log_coeff = k_bessel_log_coefficient(self.params, j // 2)
                e_n = _scaled_mul(_scaled(sign, log_coeff + (mu + j) * self.log_q), gamma)
                b = _scaled_add(b, e_n)
                abs_b = _scaled_add(abs_b, (abs(e_n[0]), e_n[1]))
            self._b, self._abs_b = b, abs_b
            a = _scaled_div(b, gamma)
            self.signs.append(-1.0 if a[0] < 0.0 else 1.0)
            self.mags.append(abs(math.ldexp(*a)) if -1021 <= a[1] <= 1024 else 0.0)
            self.log_a.append(_scaled_log(a))
            self.log_abs.append(_scaled_log(_scaled_div(abs_b, gamma)))


def _increasing(t: np.ndarray) -> bool:
    """True if every time is above the one before it (nan never is)."""
    return bool((t[1:] > t[:-1]).all())


@dataclass(frozen=True)
class SolutionTable:
    """Solution values on a time grid plus per-point evaluation metadata."""

    times: tuple[float, ...]
    values: tuple[float, ...]
    terms: tuple[int, ...]
    tails: tuple[float, ...]
    problem: KineticProblem

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.values) == len(self.terms) == len(self.tails) == n):
            raise DomainError("SolutionTable columns must have equal length")
        if not _increasing(np.asarray(self.times, dtype=float)):
            raise DomainError("SolutionTable times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def max_tail(self) -> float:
        return max(self.tails, default=0.0)


def solve_point(prob: KineticProblem, t: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Series solution of ``prob`` at one time t >= 0.

    Where the exponents align this is one sum over the power-series table
    (see :class:`KineticProblem`): by Horner, or as logs where s = t**nu,
    s**mu or a coefficient it needs is not a normal double.  Both are
    refused with :class:`series.CancellationError` when the sum of all
    |terms| of the double series exceeds
    :data:`series.CANCELLATION_RATIO_LIMIT` times the value.  Otherwise the
    outer k-Bessel-type sum carries a fused Gamma*E Mittag-Leffler factor
    per term (one :func:`specfun.scaled_ml` call each).
    """
    z = prob.z(t)
    if z == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    ctl = ctl or DEFAULT_CONTROL
    ml_arg = prob.ml_arg(t)  # also refuses a (rate t)**nu past the double range
    params = prob.params
    table = prob._power_table()
    if table is not None:
        s = _pow(t, prob.nu)
        res = horner_sum(table, s, prob.n0 * _pow(s, params.mu), ctl, "solve_point")
        return res if res is not None else _power_logs(prob, table, t, ctl)
    inner_ctl = ctl.tightened()
    log_hz = _log_half(z)

    def term(n: int) -> tuple[float, float]:
        sign, log_coeff = k_bessel_log_coefficient(params, n)
        if log_coeff == -math.inf:
            return 1.0, -math.inf
        ml = scaled_ml(MLParams(prob.nu, prob.beta(n)), ml_arg, inner_ctl)
        if ml.value == 0.0:
            return 1.0, -math.inf
        log_mag = log_coeff + (params.mu + 2.0 * n) * log_hz + math.log(abs(ml.value))
        return (-sign if ml.value < 0.0 else sign), log_mag

    res = sum_log_terms(term, ctl, label="solve_point")
    return SeriesResult(prob.n0 * res.value, res.terms, abs(prob.n0) * res.tail)


def _power_logs(
    prob: KineticProblem, table: _PowerTable, t: float, ctl: SeriesControl
) -> SeriesResult:
    """The power series at one t > 0 as logs, guarded by its absolute table.

    The tail adds the rounding of the compensated sum, not that of the
    coefficients (the scaled recurrence carries no error bound).
    """
    mu, log_s = prob.params.mu, prob.nu * math.log(t)
    abs_sum = 0.0

    def term(j: int) -> tuple[float, float]:
        nonlocal abs_sum
        sign, _, log_a = table.coefficient(j)
        log_abs = table.log_abs[j] + (mu + j) * log_s
        abs_sum += math.exp(log_abs) if log_abs < LOG_DBL_MAX else math.inf
        return sign, log_a + (mu + j) * log_s

    res = sum_log_terms(term, ctl, label="solve_point")
    res = _guard_log_sum(res, abs_sum, 0.0, "solve_point")
    return SeriesResult(prob.n0 * res.value, res.terms, abs(prob.n0) * res.tail)


# A grid batch's values, term counts, tails and failure mask (see _evaluate_grid).
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _power_batch(
    prob: KineticProblem, ctl: SeriesControl, times: np.ndarray, zs: np.ndarray
) -> _Batch:
    """:func:`solve_point`'s Horner route at every time of an increasing grid, bit for bit."""
    prob.ml_arg(float(times[-1]))  # |x| grows with t: the last time is refused if any time is
    s = _pow_batch(times, prob.nu)
    pre = prob.n0 * _pow_batch(s, prob.params.mu)
    return horner_sum_batch(prob._power_table(), s, pre, ctl)


# Grid points that solve_grid evaluates together on the double series.  The
# inner sums of a chunk are (points x outer terms) arrays, so a fixed chunk
# keeps peak memory independent of the grid length.
_GRID_CHUNK = 256
# Outer indices in the first block of inner sums; later blocks double it.
_FIRST_BLOCK = 16
# Inner-sum columns built before the first growth of the lgamma table.
_FIRST_COLUMNS = 32


class _GridTables:
    """The t-independent inner coefficients of one problem's double series.

    ``inner(ns, m_stop)`` gives the rows lgamma(beta_n) - lgamma(nu*m + beta_n),
    m < m_stop, for the outer indices ``ns``, and grows as the evaluation
    needs them.
    """

    def __init__(self, prob: KineticProblem):
        self.prob = prob
        self._inner: list[list[float]] = []

    def inner(self, ns: range, m_stop: int) -> np.ndarray:
        nu = self.prob.nu
        while len(self._inner) < ns.stop:
            self._inner.append([])
        for n in ns:
            row = self._inner[n]
            if len(row) < m_stop:
                beta = self.prob.beta(n)
                lg_beta = math.lgamma(beta)
                row.extend(lg_beta - math.lgamma(nu * m + beta) for m in range(len(row), m_stop))
        return np.array([self._inner[n][:m_stop] for n in ns])


def _solve_chunk(
    prob: KineticProblem, tables: _GridTables, times: np.ndarray, zs: np.ndarray,
    ctl: SeriesControl,
) -> _Batch:
    """The double series at ``times``, where z(t) = ``zs`` > 0, as one batch.

    The inner sums of every (point, n) pair advance together over m, in
    blocks of outer indices computed as the outer sums reach them; the
    outer sums then advance together over n.  A point fails where
    :func:`solve_point` raises: its Mittag-Leffler argument is beyond
    :func:`specfun.ml_negative_bound`, an inner sum its outer sum uses
    fails, or the outer sum itself does.
    """
    n_points = len(times)
    bound = ml_negative_bound(prob.nu)
    xs = [prob.ml_arg(t) for t in times.tolist()]
    refused = np.array([-x > bound for x in xs], dtype=bool)
    xs = [0.0 if -x > bound else x for x in xs]  # summed at x = 0, and reported as failed
    log_hz = _log_half_batch(zs)
    log_ax = np.array([[math.log(abs(x)) if x != 0.0 else 0.0] for x in xs])
    x = np.array(xs)[:, None]
    alternating = np.where(x < 0.0, -1.0, 1.0)
    inner_ctl = ctl.tightened()

    def inner_sums(ns: range) -> tuple[np.ndarray, np.ndarray]:
        cols = tables.inner(ns, _FIRST_COLUMNS)

        def terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            nonlocal cols
            if hi > cols.shape[1]:
                cols = tables.inner(ns, max(hi, 2 * cols.shape[1]))
            ms = np.arange(lo, hi)[:, None, None]
            signs = np.where(ms % 2 == 1, alternating, 1.0)
            return signs, cols[:, lo:hi].T[:, None, :] + ms * log_ax

        res = sum_log_terms_batch(terms, (n_points, len(ns)), inner_ctl)
        # scaled_ml is exactly 1 at x = 0; a failed sum gets a finite
        # stand-in so the outer sum runs on and the failure is reported.
        failed = res.failed & (x != 0.0)
        return np.where(failed | (x == 0.0), 1.0, res.value), failed

    ml = np.empty((n_points, 0))
    ml_failed = np.empty((n_points, 0), dtype=bool)
    coeffs: list[tuple[float, float]] = []  # (sign, log|coeff_n|) of the outer indices in ml
    mu = prob.params.mu

    def outer_terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal ml, ml_failed
        while ml.shape[1] < hi:
            more = range(ml.shape[1], min(max(2 * ml.shape[1], _FIRST_BLOCK), ctl.max_terms))
            block, block_failed = inner_sums(more)
            ml = np.hstack([ml, block])
            ml_failed = np.hstack([ml_failed, block_failed])
            coeffs.extend(k_bessel_log_coefficient(prob.params, n) for n in more)
        sign, log_coeff = np.array(coeffs[lo:hi]).T[:, :, None]
        zero = log_coeff == -math.inf
        cols = ml[:, lo:hi].T
        log_hz_power = (mu + 2.0 * np.arange(lo, hi))[:, None] * log_hz
        log_mag = log_coeff + log_hz_power + np.log(np.abs(cols))
        signs = np.where(cols < 0.0, -sign, np.where(cols == 0.0, 1.0, sign))
        return np.where(zero, 1.0, signs), np.where(zero, -math.inf, log_mag)

    outer = sum_log_terms_batch(outer_terms, (n_points,), ctl)
    # a point reads the inner sums of its outer terms, except where coeff_n = 0
    read = (np.arange(len(coeffs)) < outer.terms[:, None]) & (np.array(coeffs)[:, 1] > -math.inf)
    failed = refused | outer.failed | (ml_failed & read).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # failed points may hold inf or nan
        return prob.n0 * outer.value, outer.terms, abs(prob.n0) * outer.tail, failed


def _double_series_batch(
    prob: KineticProblem, ctl: SeriesControl, times: np.ndarray, zs: np.ndarray
) -> _Batch:
    """:func:`_solve_chunk` over chunks of up to 256 points, sharing one table."""
    tables = _GridTables(prob)
    chunks = [_solve_chunk(prob, tables, times[lo:lo + _GRID_CHUNK], zs[lo:lo + _GRID_CHUNK], ctl)
              for lo in range(0, len(times), _GRID_CHUNK)]
    return tuple(np.concatenate(col) for col in zip(*chunks))


def _log_half_batch(zs: np.ndarray) -> np.ndarray:
    """:func:`specfun._log_half` at every z > 0, bit for bit.

    libm's log, not numpy's: they differ in the last bit on about 0.1% of
    inputs, and the scalar calls the grids must match use libm's.
    """
    if zs.min() >= _HALVING_EXACT_MIN:  # z/2 is exact, in numpy as in Python
        return np.fromiter(map(math.log, (zs / 2.0).tolist()), float, zs.size)
    return np.fromiter(map(_log_half, zs.tolist()), float, zs.size)


def _source_batch(
    prob: KineticProblem, ctl: SeriesControl, times: np.ndarray, zs: np.ndarray
) -> _Batch:
    """omega(z) at every z = ``zs`` as one batch over the outer coefficients.

    A point is also marked where :func:`specfun.gen_k_bessel`'s guard on
    the sum of its |terms| refuses it.
    """
    params, mu = prob.params, prob.params.mu
    log_hz = _log_half_batch(zs)
    coeffs: list[tuple[float, float]] = []  # (sign, log|coeff_n|), read again by the guard

    def terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        coeffs.extend(k_bessel_log_coefficient(params, n) for n in range(len(coeffs), hi))
        sign, log_coeff = (np.array(c)[:, None] for c in zip(*coeffs[lo:hi]))
        return sign, log_coeff + (mu + 2.0 * np.arange(lo, hi))[:, None] * log_hz

    res = sum_log_terms_batch(terms, log_hz.shape, ctl)
    # a failed point may report 0 terms; the guard then reads no term of it
    _, log_mags = terms(0, max(int(res.terms.max()), 1))
    abs_sum = np.empty(zs.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, zs.size, _GRID_CHUNK):  # (terms x points) blocks of bounded size
            rows = slice(lo, lo + _GRID_CHUNK)
            used = np.arange(log_mags.shape[0])[:, None] < res.terms[rows]
            abs_sum[rows] = np.where(used, np.exp(log_mags[:, rows]), 0.0).sum(axis=0)
        guarded = abs_sum <= CANCELLATION_RATIO_LIMIT * np.maximum(np.abs(res.value), _DBL_MIN)
    return res.value, res.terms, res.tail, res.failed | ~guarded


def _source_arguments(prob: KineticProblem, times: np.ndarray) -> np.ndarray:
    """:meth:`KineticProblem.z` at every time, bit for bit; raises what it raises.

    Variants 2 and 3 multiply d**nu by libm's t**nu, as the scalar z does
    (numpy's power differs from libm's pow in the last bit on a few percent
    of inputs).  Where that product or t is not a normal double (t = 0,
    t < 0, nan, or where :func:`_scaled_power` takes its log route), the
    scalar z decides, so its exact z = 0 and its refusals hold.
    """
    zs = times
    if prob.variant != 1 and (times >= 0.0).all():
        try:
            zs = prob.d ** prob.nu * _pow_batch(times, prob.nu)
        except OverflowError:  # a power past the double range: every time goes to the scalar z
            zs = np.full(times.size, math.inf)
    odd = np.flatnonzero(~((zs >= _DBL_MIN) & (zs <= _DBL_MAX)))
    if odd.size:
        zs = zs.copy()
        for i in odd.tolist():
            zs[i] = prob.z(float(times[i]))
    return zs


def _evaluate_grid(
    prob: KineticProblem,
    times: np.ndarray,
    batch: Callable[[np.ndarray, np.ndarray], _Batch],
    scalar: Callable[[float], SeriesResult],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, term counts and tails at ``times`` under the grid contract (see module docs).

    ``batch(times, zs)`` gets the times with z(t) > 0 and their z(t), as
    arrays; ``scalar(t)`` evaluates one time.
    """
    n = times.size
    values, terms, tails = np.zeros(n), np.ones(n, dtype=np.intp), np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    try:
        zs = _source_arguments(prob, times)
        live = zs != 0.0
        if live.any():
            values[live], terms[live], tails[live], failed[live] = batch(times[live], zs[live])
    except (OverflowError, EvaluationError):  # t < 0, or a value past the double range
        failed[:] = True
    for i in np.flatnonzero(failed):
        values[i], terms[i], tails[i] = scalar(float(times[i]))
    return values, terms, tails


def solve_grid(
    prob: KineticProblem, grid: Sequence[float], ctl: SeriesControl | None = None
) -> SolutionTable:
    """Evaluate the variant solution on a strictly increasing grid of t >= 0.

    One batch under the grid contract (see module docs), with the terms
    and tails :func:`solve_point` gives at each t; a partial table is
    never returned.
    """
    times = np.array(grid, dtype=float)
    negative = np.flatnonzero(~(times >= 0.0))
    if negative.size:
        raise DomainError(f"grid times must be >= 0, got {float(times[negative[0]])}")
    if not _increasing(times):
        raise DomainError("grid times must be strictly increasing")
    ctl = ctl or DEFAULT_CONTROL
    batch = _double_series_batch if prob._power_table() is None else _power_batch
    values, terms, tails = _evaluate_grid(
        prob, times, partial(batch, prob, ctl), lambda t: solve_point(prob, t, ctl))
    return SolutionTable(
        times=tuple(times.tolist()),
        values=tuple(values.tolist()),
        terms=tuple(terms.tolist()),
        tails=tuple(tails.tolist()),
        problem=prob,
    )


def source_grid(
    prob: KineticProblem, times: Sequence[float], ctl: SeriesControl | None = None
) -> np.ndarray:
    """The source omega(z(t)) of ``prob`` (N0-free) at every t >= 0 in ``times``.

    One batch under the grid contract (see module docs), with the terms
    :func:`specfun.gen_k_bessel` gives at each t.
    """
    times = np.array(times, dtype=float)
    ctl = ctl or DEFAULT_CONTROL
    values, _, _ = _evaluate_grid(prob, times, partial(_source_batch, prob, ctl),
                                  lambda t: gen_k_bessel(prob.params, prob.z(t), ctl))
    return values


def _half_power(z: float, mu: float) -> float:
    """(z/2)**mu for z > 0, also where z/2 would round in the subnormal range.

    The reference routes below form their own prefactor, apart from the
    log(z/2) of :func:`specfun.gen_k_bessel` that they are checked against.
    """
    if z < 2.0 * _DBL_MIN:
        return math.exp(mu * (math.log(z) - math.log(2.0)))
    return (z / 2.0) ** mu


def corollary_source(
    params: KBesselParams, z: float, ctl: SeriesControl | None = None
) -> SeriesResult:
    """Evaluate omega(z), z >= 0, through its reduced form.

    The selectors pick the family: b = c = 1 gives ``(z/2)**mu * J(z**2/2)``
    (:func:`specfun.k_bessel_j`) and b = -1, c = 1 gives
    ``(z/2)**mu * W(-z**2/2)`` (:func:`specfun.k_wright_w`).  Any other
    (b, c) has no reduced form and raises :class:`DomainError`.
    """
    if params.c != 1.0 or params.b not in (1.0, -1.0):
        raise DomainError(
            "corollary_source requires c = 1 and b = 1 (k-Bessel J) or b = -1 "
            f"(k-Wright W), got b={params.b}, c={params.c}"
        )
    if not z >= 0.0:
        raise DomainError(f"corollary_source requires z >= 0, got {z}")
    if z == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    label = "k_bessel_j" if params.b == 1.0 else "k_wright_w"
    inner = _reduced_k_bessel(
        params.k, params.gamma, params.lam, params.mu, (params.b + 1.0) / 2.0,
        -(z * z / 2.0), ctl, label,
    )
    pref = _half_power(z, params.mu)
    return SeriesResult(pref * inner.value, inner.terms, pref * inner.tail)


def psi_form_source(
    params: KBesselParams, t: float, ctl: SeriesControl | None = None
) -> SeriesResult:
    """omega(t) through the classical-gamma (Fox-Wright) route.

    Rewriting each term with (g)_{n,k} = k**n (g/k)_n and
    Gamma_k(x) = k**(x/k-1) Gamma(x/k) turns the series into

        k**(1 - mu/k - (b+1)/(2k)) / Gamma(g/k) * (t/2)**mu
        * 1psi2[(g/k, 1); (mu/k + (b+1)/(2k), lam/k), (1, 1) | x],

    with argument x = -c * k**(1 - lam/k) * (t/2)**2.  It must agree with
    :func:`specfun.gen_k_bessel`, which is the defining series; the two
    routes share no gamma bookkeeping, so the agreement is a real check.
    """
    if not t >= 0.0:
        raise DomainError(f"psi_form_source requires t >= 0, got {t}")
    if t == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    k, g, lam, mu, b, c = params.k, params.gamma, params.lam, params.mu, params.b, params.c
    spec = FoxWrightSpec(
        upper=((g / k, 1.0),),
        lower=((mu / k + (b + 1.0) / (2.0 * k), lam / k), (1.0, 1.0)),
    )
    x = -c * k ** (1.0 - lam / k) * (t / 2.0) ** 2
    psi = fox_wright(spec, x, ctl)
    pref = math.exp(
        (1.0 - mu / k - (b + 1.0) / (2.0 * k)) * math.log(k) - math.lgamma(g / k)
    ) * _half_power(t, mu)
    return SeriesResult(pref * psi.value, psi.terms, abs(pref) * psi.tail)
