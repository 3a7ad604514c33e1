"""Real-valued special functions built on the k-deformed gamma calculus.

Conventions used throughout:

* ``Gamma_k(x) = k**(x/k - 1) * Gamma(x/k)`` (the k-gamma function), so
  ``Gamma_1 = Gamma``.
* ``(g)_{n,k} = g (g+k) ... (g+(n-1)k)`` (the k-Pochhammer symbol), equal to
  ``Gamma_k(g+n*k) / Gamma_k(g)``; in log space this is
  ``n*log(k) + lgamma(g/k + n) - lgamma(g/k)``.
* The generalized k-Bessel function evaluated here is

      omega(z) = sum_n (-1)^n c^n (g)_{n,k}
                 / [Gamma_k(mu + lam*n + (b+1)/2) * (n!)^2] * (z/2)^(mu+2n)

  with selectors ``b`` and ``c``: ``b=c=1`` reduces it to
  ``(z/2)^mu * J(z^2/2)`` for the k-Bessel function of the first kind, and
  ``b=-1, c=1`` to ``(z/2)^mu * W(-z^2/2)`` for the k-Wright function.
  J and W are one term loop, with k-gamma argument ``lam*n + order + 1``
  for J and ``lam*n + order`` for W, and their own gamma bookkeeping, so
  the reductions check :func:`gen_k_bessel` against an independent route.
* ``E_{alpha,beta}(x) = sum_n x^n / Gamma(alpha*n + beta)`` is the
  two-parameter Mittag-Leffler function; :func:`scaled_ml` returns
  ``Gamma(beta) * E_{alpha,beta}(x)`` without ever forming ``Gamma(beta)``
  on its own, which keeps the product finite for ``beta`` in the hundreds.

All parameters are restricted to the real ranges stated on each type; any
gamma argument that becomes non-positive within the truncation horizon is a
hard :class:`DomainError`, never a silently skipped term.  A sum that
carries no significant digit is refused with :class:`CancellationError` by
the one refusal rule, :func:`series.accept`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .series import (
    DBL_MAX,
    DBL_MIN,
    DBL_TRUE_MIN,
    DEFAULT_CONTROL,
    EPS,
    CancellationError,
    ConvergenceGateError,
    DomainError,
    HornerTable,
    LOG_DBL_MAX,
    OverflowLogError,
    SeriesControl,
    SeriesResult,
    TABLE_LOCK,
    _integer_n,
    accept,
    sum_log_terms,
)

__all__ = [
    "KBesselParams",
    "MLParams",
    "FoxWrightSpec",
    "log_k_gamma",
    "k_gamma",
    "k_pochhammer",
    "log_k_pochhammer",
    "mittag_leffler",
    "scaled_ml",
    "gen_k_bessel",
    "k_bessel_log_coefficient",
    "k_bessel_j",
    "k_wright_w",
    "fox_wright",
]


@dataclass(frozen=True)
class KBesselParams:
    """Parameter tuple (k, gamma, lam, mu, b, c) of the generalized k-Bessel series.

    ``k`` is the gamma-deformation parameter, ``gamma`` the rising-factorial
    parameter, ``lam`` the index stride inside the k-gamma argument, ``mu``
    the series order (the power of z/2 in the leading term), and ``b``, ``c``
    the family selectors.
    """

    k: float
    gamma: float
    lam: float
    mu: float
    b: float
    c: float
    # log k, g = gamma/k, lgamma(g) and log|c| (-inf at c = 0): every
    # coefficient reads them
    _logs: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)
    # the t-free state shared by every equal instance (see _kbessel_table):
    # the Horner table of omega and the k_bessel_log_error values, which
    # gen_k_bessel and the tables of the problems read; each grows only
    # through its own method
    _table: "_KBesselTable" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("k", "gamma", "lam", "mu"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise DomainError(f"KBesselParams.{name} must be finite and > 0, got {v}")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise DomainError("KBesselParams.b and .c must be finite")
        # Python floats, so that equal instances form their t-free state with
        # equal arithmetic (an int or a numpy float32 would not).
        for name in ("k", "gamma", "lam", "mu", "b", "c"):
            v = getattr(self, name)
            if type(v) is not float:
                object.__setattr__(self, name, float(v))
        # (mu + lam*n + (b+1)/2) / k is increasing in n, so n=0 is the worst
        # case; it may also underflow to 0, whose lgamma is a domain error
        lead = self.mu + (self.b + 1.0) / 2.0
        if not lead / self.k > 0.0:
            raise DomainError(
                f"leading k-gamma argument (mu+(b+1)/2)/k = {lead}/{self.k} is not positive"
            )
        g = _over_k(self.gamma, self.k, "KBesselParams")
        log_c = math.log(abs(self.c)) if self.c != 0.0 else -math.inf
        object.__setattr__(self, "_logs", (math.log(self.k), g, math.lgamma(g), log_c))
        object.__setattr__(self, "_table", _kbessel_table(self))


# The largest double whose lgamma is finite.  MLParams keeps beta below it,
# so the lgamma(beta) of the Mittag-Leffler sums never overflows.
_LGAMMA_ARG_MAX = 2.5599833278516383e305


@dataclass(frozen=True)
class MLParams:
    """Index pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"MLParams.alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 < self.beta < _LGAMMA_ARG_MAX:
            raise DomainError(f"MLParams.beta must be > 0 with finite lgamma, got {self.beta}")


@dataclass(frozen=True)
class FoxWrightSpec:
    """Upper/lower (value, weight) pairs of a Fox-Wright series.

    The series sum_n prod_i Gamma(a_i + alpha_i n) / prod_j Gamma(b_j + beta_j n)
    * z^n / n! is entire when the margin sum_j beta_j - sum_i alpha_i
    exceeds -1.  On the boundary (margin exactly -1, e.g. any unit-weight
    series reducible to a hypergeometric pFq with p = q+1) it converges only
    for |z| < 1, which :func:`fox_wright` enforces per call.  Below the
    boundary the series diverges for every z != 0 and is rejected here.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(w)) for a, w in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(w)) for b, w in self.lower))
        # a value past the range of lgamma leaves term 0 out of range at every z
        for a, w in self.upper + self.lower:
            if not (abs(a) < _LGAMMA_ARG_MAX and math.isfinite(w)):
                raise DomainError("Fox-Wright parameters must be finite, with values "
                                  "inside the range of lgamma")
        if self.margin < -1.0:
            raise ConvergenceGateError(
                f"Fox-Wright convergence gate violated: sum(beta)-sum(alpha) = "
                f"{self.margin} < -1"
            )

    @property
    def margin(self) -> float:
        return sum(w for _, w in self.lower) - sum(w for _, w in self.upper)


def log_k_gamma(gamma: float, k: float) -> float:
    """ln Gamma_k(gamma) = (gamma/k - 1) ln k + ln Gamma(gamma/k)."""
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"log_k_gamma requires a finite gamma > 0, got {gamma}")
    if not 0.0 < k < math.inf:
        raise DomainError(f"log_k_gamma requires a finite k > 0, got {k}")
    g = _over_k(gamma, k, "log_k_gamma")
    return (g - 1.0) * math.log(k) + math.lgamma(g)


def _over_k(gamma: float, k: float, label: str) -> float:
    """gamma / k, refused with :class:`OverflowLogError` where its lgamma
    overflows (the k-gamma logs would be nan, or raise): past
    :data:`_LGAMMA_ARG_MAX`, or at a quotient that underflows to 0."""
    g = gamma / k
    if not 0.0 < g < _LGAMMA_ARG_MAX:
        raise OverflowLogError(f"{label}: gamma/k = {gamma}/{k} is past the range of lgamma",
                               math.inf)
    return g


def k_gamma(gamma: float, k: float) -> float:
    """Gamma_k(gamma) = k**(gamma/k - 1) * Gamma(gamma/k), via log space."""
    lg = log_k_gamma(gamma, k)
    if lg > LOG_DBL_MAX:
        raise OverflowLogError(f"k_gamma({gamma}, {k}) overflows double range", lg)
    return math.exp(lg)


def log_k_pochhammer(gamma: float, n: int, k: float) -> float:
    """ln (gamma)_{n,k}, with g = gamma/k.  For g <= n it sums the logs of
    the factors, ln(gamma + i k), with math.fsum while n <= 4096 and every
    factor is finite, and takes n ln k + lgamma(g + n) - lgamma(g) past
    that; the lgamma form cancels against n ln k where the value is near 0.
    For g > n the lgamma difference cancels (it loses every digit once
    g >> n), so the sum is taken as n ln gamma plus the logs of the
    factors' ratios to gamma: one log1p each for n <= 4096, else
    Stirling's series of the lgamma difference to its 1/(12 x) terms,
    g [(1+x) log1p(x) - x] - log1p(x) / 2 with x = n/g.  The bracket,
    about x**2 / 2, cancels for a small x; there it is summed from its
    series sum_{j>=2} (-x)**j / (j (j-1))."""
    if not (0.0 < gamma < math.inf and 0.0 < k < math.inf):
        raise DomainError(
            f"log_k_pochhammer requires finite gamma, k > 0, got ({gamma}, {k})"
        )
    n = _integer_n(n, "log_k_pochhammer")
    if n < 0:
        raise DomainError(f"log_k_pochhammer requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    g = _over_k(gamma, k, "log_k_pochhammer")
    if g <= n:
        # n ln k and the lgamma difference cancel where the sum is near 0
        if n <= 4096 and gamma + (n - 1) * k < math.inf:
            return math.fsum(math.log(gamma + i * k) for i in range(n))
        return n * math.log(k) + math.lgamma(g + n) - math.lgamma(g)
    if n <= 4096:
        return n * math.log(gamma) + math.fsum(math.log1p(i / g) for i in range(1, n))
    # g > n > 4096: the first term left out is below 1 / (360 g**3) < 1e-13,
    # under an ulp of the sum
    x = n / g
    if x < 0.5:
        bracket, power, j = 0.0, x * x, 2
        while abs(power) > EPS * bracket:
            bracket += power / (j * (j - 1))
            power *= -x
            j += 1
    else:
        bracket = (1.0 + x) * math.log1p(x) - x
    return n * math.log(gamma) + g * bracket - 0.5 * math.log1p(x) - n / (12.0 * g * (g + n))


def k_pochhammer(gamma: float, n: int, k: float) -> float:
    """(gamma)_{n,k} = gamma (gamma+k) ... (gamma+(n-1)k), 1 for n = 0.

    Evaluated as a left-to-right product so that
    ``k_pochhammer(g, n+1, k) == k_pochhammer(g, n, k) * (g + n*k)`` holds
    bit for bit.  The loop stops at the first partial product that is inf,
    which is refused, or 0, which every later factor keeps at 0.
    """
    if not (0.0 < gamma < math.inf and 0.0 < k < math.inf):
        raise DomainError(f"k_pochhammer requires finite gamma, k > 0, got ({gamma}, {k})")
    n = _integer_n(n, "k_pochhammer")
    if n < 0:
        raise DomainError(f"k_pochhammer requires n >= 0, got {n}")
    prod = 1.0
    for i in range(n):
        prod *= gamma + i * k
        if prod == 0.0 or prod == math.inf:
            break
    if math.isinf(prod):
        raise OverflowLogError(
            f"k_pochhammer({gamma}, {n}, {k}) overflows double range",
            log_k_pochhammer(gamma, n, k),
        )
    return prod


def _sign_pow(base_sign: float, n: int) -> float:
    return 1.0 if n % 2 == 0 or base_sign > 0.0 else -1.0


# Documented safe bound for negative Mittag-Leffler arguments: beyond
# |x| = 700**alpha the peak series term dwarfs the sum so badly that double
# precision cannot represent the cancellation.  Past the double range
# (alpha > 108.3) no double x is beyond it.
def ml_negative_bound(alpha: float) -> float:
    try:
        return 700.0 ** alpha
    except OverflowError:
        return math.inf


def _ml_sum(
    p: MLParams, x: float, ctl: SeriesControl | None, log_scale: float, label: str
) -> SeriesResult:
    """exp(log_scale) * E_{alpha,beta}(x), with log_scale folded into every term."""
    ctl = ctl or DEFAULT_CONTROL
    if x == 0.0:
        lgamma_beta = math.lgamma(p.beta)
        return _one_term(log_scale - lgamma_beta, GAMMA_ULPS * max(abs(lgamma_beta), 1.0))
    if x < 0.0:
        if -x > ml_negative_bound(p.alpha):
            raise CancellationError(
                f"{label}: x = {x} is beyond the safe negative bound "
                f"-{ml_negative_bound(p.alpha):.4g} for alpha = {p.alpha}"
            )
    elif not x > 0.0:
        raise DomainError(f"{label}: x must be a number, got {x}")
    log_ax = math.log(abs(x))
    alpha, beta = p.alpha, p.beta

    def term(n: int) -> tuple[float, float]:
        return _sign_pow(x, n), log_scale - math.lgamma(alpha * n + beta) + n * log_ax

    return sum_log_terms(term, ctl, label=label)


def mittag_leffler(p: MLParams, x: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """E_{alpha,beta}(x) = sum_n x^n / Gamma(alpha n + beta)."""
    return _ml_sum(p, x, ctl, 0.0, "mittag_leffler")


def scaled_ml(p: MLParams, x: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Gamma(beta) * E_{alpha,beta}(x), term-fused so nothing overflows.

    Each term is exp(lgamma(beta) - lgamma(beta + alpha n)) * x^n, which
    stays bounded even when Gamma(beta) alone would not fit in a double.
    """
    return _ml_sum(p, x, ctl, math.lgamma(p.beta), "scaled_ml")


def k_bessel_log_coefficient(p: KBesselParams, n: int) -> tuple[float, float]:
    """Sign and log magnitude of the z-free factor of term n of omega,

        (-c)^n (g)_{n,k} / [Gamma_k(mu + lam*n + (b+1)/2) * (n!)^2],

    so that term n of omega(z) is that factor times (z/2)^(mu+2n).  The
    kinetic solutions multiply the same factor by a Mittag-Leffler term.
    A zero coefficient (c = 0, n > 0) has log magnitude -inf.
    """
    arg = p.mu + p.lam * n + (p.b + 1.0) / 2.0
    if arg <= 0.0:
        raise DomainError(
            f"k_bessel_log_coefficient: k-gamma argument {arg} <= 0 at term index {n}"
        )
    # ln Gamma_k(arg) and ln (g)_{n,k} as in log_k_gamma and log_k_pochhammer,
    # without their argument checks (KBesselParams guarantees k, g > 0):
    # this runs once per series term.
    log_k, g, lgamma_g, log_c = p._logs
    log_mag = -((arg / p.k - 1.0) * log_k + math.lgamma(arg / p.k))
    if n == 0:
        return 1.0, log_mag
    if p.c == 0.0:
        return 1.0, -math.inf
    log_mag += (
        n * log_k + math.lgamma(g + n) - lgamma_g
        - 2.0 * math.lgamma(n + 1.0)
        + n * log_c
    )
    return (1.0 if n % 2 == 0 or p.c < 0.0 else -1.0), log_mag


# Error bounds of the coefficient tables, in units of EPS (series.EPS).  An
# IEEE operation rounds to within 1/2; libm's exp, log and pow are taken to
# be within one ulp, so within 1.  CPython documents its own math.gamma as
# accurate to within 10 ulps, and the same is taken for math.lgamma, counted
# against max(|lgamma|, 1) so that it stays an absolute bound near the zeros
# of lgamma at 1 and 2.
GAMMA_ULPS = 10.0


def _digamma_bound(x: float | np.ndarray) -> float | np.ndarray:
    """A bound on |psi(x)| for x > 0: log x - 1/x <= psi(x) < log x, and psi(x) > -1/x - 1 below 1."""
    return abs(np.log(x) if isinstance(x, np.ndarray) else math.log(x)) + 1.0 / x + 1.0


def gamma_error(x: float | np.ndarray, x_err: float) -> float | np.ndarray:
    """Relative error bound of math.gamma at x >= 1 formed with an error of x_err * EPS * x
    (element-wise for an array x)."""
    return GAMMA_ULPS + x * _digamma_bound(x) * x_err if x_err else GAMMA_ULPS


def k_bessel_log_error(p: KBesselParams, n: int) -> float:
    """A bound, in EPS, on the absolute error of :func:`k_bessel_log_coefficient`'s log magnitude.

    It follows the coefficient's formation step by step: each lgamma's own
    error (against max(|lgamma|, 1)); the rounding of its argument carried
    through by |psi| (the k-gamma argument rounds in four operations, g =
    gamma/k and g + n in one each, n + 1 is exact); one ulp of log k and
    of log|c|; and a half for each product and for each of the sums, whose
    partial sums are at most the sum of the magnitudes of the pieces.
    """
    log_k = abs(math.log(p.k))
    arg = p.mu + p.lam * n
    x = (arg + (p.b + 1.0) / 2.0) / p.k
    x_err = (1.5 * (arg + abs(p.b + 1.0) / 2.0) + 0.5 * x * p.k) / p.k
    k_piece = abs(x - 1.0) * log_k
    lg = abs(math.lgamma(x))
    err = (log_k * x_err + 2.5 * k_piece + (GAMMA_ULPS + 0.5) * max(lg, 1.0)
           + _digamma_bound(x) * x_err)
    if n == 0 or p.c == 0.0:
        return err
    g = p.gamma / p.k
    lgammas = (max(abs(math.lgamma(g + n)), 1.0) + max(abs(math.lgamma(g)), 1.0)
               + 2.0 * max(abs(math.lgamma(n + 1.0)), 1.0))
    return (err + (GAMMA_ULPS + 3.0) * lgammas + 4.0 * n * (log_k + abs(math.log(abs(p.c))))
            + _digamma_bound(g + n) * (g + n) + _digamma_bound(g) * 0.5 * g + 0.5 * (k_piece + lg))


# The most KBesselParams values whose t-free state one process keeps.
_KBESSEL_STATES = 32


@functools.lru_cache(maxsize=_KBESSEL_STATES)
def _kbessel_table(params: KBesselParams) -> "_KBesselTable":
    """The one t-free state of every instance equal to ``params``: its Horner
    table, which also holds the list of :func:`k_bessel_log_error` values.

    Keyed by value: -0.0 and 0.0 in b or c give the same coefficients and
    bounds, which read b only as b + 1 and c only as |c|, c == 0 and c < 0.
    The instance that first builds an entry is the one the table reads.
    """
    return _KBesselTable(params)


class _KBesselTable(HornerTable):
    """omega(z) = (z/2)**mu * sum_n c_n x**n, x = (z/2) * (z/2), as a :class:`series.HornerTable`.

    c_n comes from :meth:`scaled` at q = 1; an exact zero (c = 0, n > 0)
    stays one, with no error.  ``errs[n]`` is, in EPS and relative to
    |c_n|: the error of its log (:meth:`scaled`), one ulp of exp, n/2 for
    x**n (x rounds once; z/2 is exact wherever x is normal), one ulp of
    the prefactor (libm's pow of z/2) and a half for the product with it.
    The table grows as the sums reach further and ends before the first
    c_n that is neither a normal double nor zero.

    ``log_errors[n]`` is :func:`k_bessel_log_error` of the parameters and
    n, for n = 0, 1, ...: t-free and costly, so it is kept here for every
    reader.  Only :meth:`extend_log_errors` appends to it.
    """

    def __init__(self, params: KBesselParams):
        super().__init__()
        self.params = params
        self.log_errors: list[float] = []

    def extend_log_errors(self, stop: int) -> list[float]:
        """``log_errors``, extended to at least ``stop`` entries under :data:`series.TABLE_LOCK`."""
        errors = self.log_errors
        if len(errors) < stop:
            with TABLE_LOCK:
                while len(errors) < stop:
                    errors.append(k_bessel_log_error(self.params, len(errors)))
        return errors

    def scaled(self, n: int, log_q: float, log_q_err: float) -> tuple[float, float, float]:
        """c_n q**(mu+2n) as a double (inf past the double range), its log and
        a bound, in EPS, on the absolute error of that log.

        c_n is the z-free factor of :func:`k_bessel_log_coefficient` and
        ``log_q_err`` bounds the error of ``log_q`` in EPS.  The bound is
        :func:`k_bessel_log_error`, (mu+2n) times the error and the size of
        log q (for the product) and half |log| for the sum; 0 for an exact
        zero (c = 0, n > 0).  A gamma argument past the range of lgamma is
        refused with :class:`OverflowLogError`.
        """
        try:
            sign, log_c = k_bessel_log_coefficient(self.params, n)
            log_error = self.extend_log_errors(n + 1)[n]
        except OverflowError:  # math.lgamma: a gamma argument past the double range
            raise OverflowLogError(f"k-Bessel coefficient {n}: a gamma "
                                   "argument is past the range of lgamma", math.inf) from None
        order = self.params.mu + 2.0 * n
        log_e = log_c + order * log_q
        if log_e == -math.inf:
            return 0.0, log_e, 0.0
        return ((sign * math.exp(log_e) if log_e < LOG_DBL_MAX else math.inf), log_e,
                log_error + order * log_q_err + abs(order * log_q) + 0.5 * abs(log_e))

    def grow(self, stop: int) -> None:
        while len(self.coeffs) < stop:
            n = len(self.coeffs)
            c, log_c, log_c_err = self.scaled(n, 0.0, 0.0)
            if not (DBL_MIN <= abs(c) <= DBL_MAX or log_c == -math.inf):
                break
            self.coeffs.append(c)
            self.abs_coeffs.append(abs(c))
            self.errs.append((log_c_err + 2.5 + 0.5 * n) * abs(c))


def _guard_log_sum(res: SeriesResult, abs_sum: float, err_sum: float, label: str
                   ) -> SeriesResult:
    """A log-route sum refused or with roundoff in its tail.

    ``abs_sum`` is the sum of the |terms| of the absolute series, and
    :func:`series.accept` refuses the sum on it, as on the Horner route.
    ``err_sum`` is the sum of the |terms| times a bound, in EPS, on their
    relative error as formed from their logs; the tail adds EPS times it,
    and EPS |value| for the compensated sum (at most twice the unit
    roundoff of the value, to first order).  The tests run in this order:
    the size test, then a tail that is not finite (a bound past the double
    range), refused with :class:`OverflowLogError`, then the tail test.
    """
    tail = res.tail + EPS * (err_sum + abs(res.value))
    finite = tail < math.inf
    # a tail that is not finite skips the tail test, to be refused below
    accept(res.value, tail if finite else 0.0, abs_sum, label)
    if not finite:
        raise OverflowLogError(f"{label}: the error bound of the sum leaves the double range",
                               math.inf)
    return SeriesResult(res.value, res.terms, tail)


def _one_term(log_value: float, log_err: float) -> SeriesResult:
    """exp(log_value) as a sum of one term: the shortcut of a series at a zero argument.

    ``log_err`` bounds, in EPS, the absolute error of ``log_value`` as
    formed before its last rounding.  The tail adds half of |log_value| for
    that rounding and one ulp of exp, relative to the value, and
    :data:`series.DBL_TRUE_MIN` for a value below the normal doubles.
    """
    value = math.exp(log_value)
    tail = EPS * (log_err + 0.5 * abs(log_value) + 1.0) * value
    return SeriesResult(value, 1, tail + DBL_TRUE_MIN if value < DBL_MIN else tail)


# Below this z, z/2 is subnormal: inexact for an odd z and 0 for the smallest.
_HALVING_EXACT_MIN = 2.0 * sys.float_info.min


def _log_half(z: float) -> float:
    """log(z/2) for z > 0, also where z/2 would round in the subnormal range."""
    if z < _HALVING_EXACT_MIN:
        return math.log(z) - math.log(2.0)
    return math.log(z / 2.0)


def gen_k_bessel(p: KBesselParams, z: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """The generalized k-Bessel series omega(z) for z >= 0 (see module docs).

    The terms are summed as logs by :func:`_k_bessel_log_sum`, which
    states the tail.  log(z/2) is off by at most 3/2 |log(z/2)| EPS: one
    ulp of each log, and a half for the difference where z/2 is
    subnormal.  The product with mu+2n and the rounding of mu+2n add a
    half each, so ``hz_err`` is 5/2 |log(z/2)|.
    """
    if not z >= 0.0:
        raise DomainError(f"gen_k_bessel requires z >= 0, got {z}")
    if z == 0.0:
        # every term carries (z/2)**(mu+2n) with mu > 0
        return SeriesResult(0.0, 1, 0.0)
    log_hz = _log_half(z)
    return _k_bessel_log_sum(p, log_hz, 2.5 * abs(log_hz), ctl)


def _k_bessel_log_sum(p: KBesselParams, log_hz: float, hz_err: float,
                      ctl: SeriesControl | None) -> SeriesResult:
    """omega summed as the logs of its terms at log(z/2) = ``log_hz``.

    ``hz_err`` bounds, in EPS, the absolute error of (mu+2n) log(z/2) as
    formed, over mu+2n.  :func:`series.accept` refuses the sum on the sum
    of every |term| (:func:`_guard_log_sum`).  The tail
    adds to the truncation estimate a bound on the roundoff: term n is
    exp(L_n), L_n = log|coeff_n| + (mu+2n) log(z/2), and L_n is off by at
    most :func:`k_bessel_log_error`, plus (mu+2n) ``hz_err``, plus |L_n| / 2
    for the last sum; exp adds one ulp.
    """
    ctl = ctl or DEFAULT_CONTROL
    mu, table = p.mu, p._table
    errors = table.log_errors
    abs_sum = err_sum = 0.0  # the sum of |terms|, and of their errors times |terms|

    def term(n: int) -> tuple[float, float]:
        nonlocal abs_sum, err_sum
        sign, log_coeff = k_bessel_log_coefficient(p, n)
        order = mu + 2.0 * n
        log_mag = log_coeff + order * log_hz
        # sum_log_terms raises on a larger one, and an exact zero (c = 0) adds nothing
        if -math.inf < log_mag <= LOG_DBL_MAX:
            if n >= len(errors):
                table.extend_log_errors(n + 1)
            mag = math.exp(log_mag)
            abs_sum += mag
            err_sum += (errors[n] + order * hz_err + 0.5 * abs(log_mag) + 1.0) * mag
        return sign, log_mag

    res = sum_log_terms(term, ctl, label="gen_k_bessel")
    return _guard_log_sum(res, abs_sum, err_sum, "gen_k_bessel")


def _reduced_k_bessel(
    k: float, gamma: float, lam: float, order: float, shift: float, x: float,
    ctl: SeriesControl | None, label: str,
) -> SeriesResult:
    """sum_n (gamma)_{n,k} / Gamma_k(lam n + order + shift) * (x/2)^n / (n!)^2.

    The term loop of :func:`k_bessel_j` (shift 1, x = -w) and :func:`k_wright_w`
    (shift 0).  It must not call :func:`k_bessel_log_coefficient`: the reduction
    identity tests use it as the independent reference for :func:`gen_k_bessel`.
    """
    ctl = ctl or DEFAULT_CONTROL
    if x == 0.0:  # 1 / Gamma_k(a), a = order + shift: (g - 1) log k + lgamma(g), g = a/k
        log_value = -log_k_gamma(order + shift, k)
        g = (order + shift) / k  # two roundings: within 1 EPS relative
        return _one_term(log_value, GAMMA_ULPS * max(abs(math.lgamma(g)), 1.0)
                         + g * _digamma_bound(g) + (g + 2.0 * abs(g - 1.0)) * abs(math.log(k)))
    log_hx = math.log(abs(x) / 2.0)
    # at g = gamma/k <= n, log_k_pochhammer's lgamma form: one lgamma a term where
    # its fsum takes n logs, and this sum's log budget is absolute
    g = gamma / k
    log_k, lgamma_g = math.log(k), (math.lgamma(g) if g > 0.0 else math.nan)

    def term(n: int) -> tuple[float, float]:
        log_poch = (n * log_k + math.lgamma(g + n) - lgamma_g if 0.0 < g <= n
                    else log_k_pochhammer(gamma, n, k))
        log_mag = (log_poch - log_k_gamma(lam * n + order + shift, k) + n * log_hx
                   - 2.0 * math.lgamma(n + 1.0))
        return _sign_pow(x, n), log_mag

    return sum_log_terms(term, ctl, label=label)


def k_bessel_j(
    k: float,
    gamma: float,
    lam: float,
    nu_order: float,
    w: float,
    ctl: SeriesControl | None = None,
) -> SeriesResult:
    """k-Bessel function of the first kind,

        J(w) = sum_n (gamma)_{n,k} / Gamma_k(lam n + nu_order + 1)
               * (-1)^n (w/2)^n / (n!)^2.

    The rising factorial uses the ``gamma`` parameter, which is what makes
    the reduction omega(z; b=c=1) = (z/2)^mu J(z^2/2) hold.
    """
    for name, v in (("k", k), ("gamma", gamma), ("lam", lam), ("nu_order", nu_order)):
        if not v > 0.0:
            raise DomainError(f"k_bessel_j requires {name} > 0, got {v}")
    if math.isnan(w):
        raise DomainError(f"k_bessel_j: w must be a number, got {w}")
    return _reduced_k_bessel(k, gamma, lam, nu_order, 1.0, -w, ctl, "k_bessel_j")


def k_wright_w(
    k: float,
    gamma: float,
    lam: float,
    mu: float,
    x: float,
    ctl: SeriesControl | None = None,
) -> SeriesResult:
    """k-Wright-type series W(x) = sum_n (gamma)_{n,k} / Gamma_k(lam n + mu)
    * (x/2)^n / (n!)^2.

    The x/2 powers make the companion identity
    omega(z; b=-1, c=1) = (z/2)^mu W(-z^2/2) exact: substituting x = -z^2/2
    reproduces the (-1)^n (z^2/4)^n pattern of the reduced series.
    """
    for name, v in (("k", k), ("gamma", gamma), ("lam", lam), ("mu", mu)):
        if not v > 0.0:
            raise DomainError(f"k_wright_w requires {name} > 0, got {v}")
    if math.isnan(x):
        raise DomainError(f"k_wright_w: x must be a number, got {x}")
    return _reduced_k_bessel(k, gamma, lam, mu, 0.0, x, ctl, "k_wright_w")


def fox_wright(spec: FoxWrightSpec, z: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Fox-Wright series for a validated :class:`FoxWrightSpec`."""
    ctl = ctl or DEFAULT_CONTROL
    if math.isnan(z):
        raise DomainError(f"fox_wright: z must be a number, got {z}")
    if spec.margin == -1.0 and abs(z) >= 1.0:
        raise ConvergenceGateError(
            f"fox_wright: series on the convergence boundary diverges for |z| >= 1, "
            f"got z = {z}"
        )

    def log_ratio(n: int) -> float:
        acc = 0.0
        for i, (a, w) in enumerate(spec.upper):
            arg = a + w * n
            if arg <= 0.0:
                raise DomainError(
                    f"fox_wright: upper gamma argument {arg} <= 0 "
                    f"(pair {i}) at term index {n}"
                )
            acc += math.lgamma(arg)
        for j, (b, w) in enumerate(spec.lower):
            arg = b + w * n
            if arg <= 0.0:
                raise DomainError(
                    f"fox_wright: lower gamma argument {arg} <= 0 "
                    f"(pair {j}) at term index {n}"
                )
            acc -= math.lgamma(arg)
        return acc

    if z == 0.0:
        log_value = log_ratio(0)  # raises on a gamma argument <= 0
        lgammas = [abs(math.lgamma(a)) for a, _ in spec.upper + spec.lower]
        # each rounding of the sum of the lgammas is within half the sum of their magnitudes
        return _one_term(log_value, sum(GAMMA_ULPS * max(lg, 1.0) + 0.5 * sum(lgammas)
                                        for lg in lgammas))
    log_az = math.log(abs(z))

    def term(n: int) -> tuple[float, float]:
        return _sign_pow(z, n), log_ratio(n) + n * log_az - math.lgamma(n + 1.0)

    return sum_log_terms(term, ctl, label="fox_wright")
