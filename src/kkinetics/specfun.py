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
hard :class:`DomainError`, never a silently skipped term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import (
    DEFAULT_CONTROL,
    CancellationError,
    ConvergenceGateError,
    DomainError,
    LOG_DBL_MAX,
    OverflowLogError,
    SeriesControl,
    SeriesResult,
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

    def __post_init__(self):
        for name in ("k", "gamma", "lam", "mu"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise DomainError(f"KBesselParams.{name} must be finite and > 0, got {v}")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise DomainError("KBesselParams.b and .c must be finite")
        # mu + lam*n + (b+1)/2 is increasing in n, so n=0 is the worst case.
        if self.b < -1.0 and self.mu + (self.b + 1.0) / 2.0 <= 0.0:
            raise DomainError(
                f"leading k-gamma argument mu+(b+1)/2 = {self.mu + (self.b + 1.0) / 2.0} "
                "is non-positive"
            )


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
        for a, w in self.upper + self.lower:
            if not (math.isfinite(a) and math.isfinite(w)):
                raise DomainError("Fox-Wright parameters must be finite")
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
    return (gamma / k - 1.0) * math.log(k) + math.lgamma(gamma / k)


def k_gamma(gamma: float, k: float) -> float:
    """Gamma_k(gamma) = k**(gamma/k - 1) * Gamma(gamma/k), via log space."""
    lg = log_k_gamma(gamma, k)
    if lg > LOG_DBL_MAX:
        raise OverflowLogError(f"k_gamma({gamma}, {k}) overflows double range", lg)
    return math.exp(lg)


def log_k_pochhammer(gamma: float, n: int, k: float) -> float:
    """ln (gamma)_{n,k} through the Gamma_k ratio form."""
    if not (0.0 < gamma < math.inf and 0.0 < k < math.inf):
        raise DomainError(
            f"log_k_pochhammer requires finite gamma, k > 0, got ({gamma}, {k})"
        )
    if n < 0:
        raise DomainError(f"log_k_pochhammer requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    g = gamma / k
    return n * math.log(k) + math.lgamma(g + n) - math.lgamma(g)


def k_pochhammer(gamma: float, n: int, k: float) -> float:
    """(gamma)_{n,k} = gamma (gamma+k) ... (gamma+(n-1)k), 1 for n = 0.

    Evaluated as a left-to-right product so that
    ``k_pochhammer(g, n+1, k) == k_pochhammer(g, n, k) * (g + n*k)`` holds
    bit for bit.
    """
    if not (0.0 < gamma < math.inf and 0.0 < k < math.inf):
        raise DomainError(f"k_pochhammer requires finite gamma, k > 0, got ({gamma}, {k})")
    if n < 0:
        raise DomainError(f"k_pochhammer requires n >= 0, got {n}")
    prod = 1.0
    for i in range(n):
        prod *= gamma + i * k
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
        return SeriesResult(math.exp(log_scale - math.lgamma(p.beta)), 1, 0.0)
    if x < 0.0 and -x > ml_negative_bound(p.alpha):
        raise CancellationError(
            f"{label}: x = {x} is beyond the safe negative bound "
            f"-{ml_negative_bound(p.alpha):.4g} for alpha = {p.alpha}"
        )
    log_ax = math.log(abs(x))
    alpha, beta = p.alpha, p.beta

    def term(n: int) -> tuple[float, float]:
        return _sign_pow(x, n), log_scale - math.lgamma(alpha * n + beta) + n * log_ax

    try:
        return sum_log_terms(term, ctl, label=label)
    except OverflowLogError:
        raise
    except OverflowError:  # math.lgamma: alpha*n + beta is past the double range
        raise OverflowLogError(
            f"{label}: Gamma(alpha*n + beta) overflows double range for alpha = {alpha}",
            math.inf,
        ) from None


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
    log_k = math.log(p.k)
    log_mag = -((arg / p.k - 1.0) * log_k + math.lgamma(arg / p.k))
    if n == 0:
        return 1.0, log_mag
    if p.c == 0.0:
        return 1.0, -math.inf
    g = p.gamma / p.k
    log_mag += (
        n * log_k + math.lgamma(g + n) - math.lgamma(g)
        - 2.0 * math.lgamma(n + 1.0)
        + n * math.log(abs(p.c))
    )
    return (1.0 if n % 2 == 0 or p.c < 0.0 else -1.0), log_mag


def gen_k_bessel(p: KBesselParams, z: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """The generalized k-Bessel series omega(z) for z >= 0 (see module docs)."""
    ctl = ctl or DEFAULT_CONTROL
    if z < 0.0:
        raise DomainError(f"gen_k_bessel requires z >= 0, got {z}")
    if z == 0.0:
        # every term carries (z/2)**(mu+2n) with mu > 0
        return SeriesResult(0.0, 1, 0.0)
    log_hz = math.log(z / 2.0)
    mu = p.mu

    def term(n: int) -> tuple[float, float]:
        sign, log_coeff = k_bessel_log_coefficient(p, n)
        return sign, log_coeff + (mu + 2.0 * n) * log_hz

    return sum_log_terms(term, ctl, label="gen_k_bessel")


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
    if x == 0.0:
        return SeriesResult(math.exp(-log_k_gamma(order + shift, k)), 1, 0.0)
    log_hx = math.log(abs(x) / 2.0)

    def term(n: int) -> tuple[float, float]:
        log_mag = (
            log_k_pochhammer(gamma, n, k)
            - log_k_gamma(lam * n + order + shift, k)
            + n * log_hx
            - 2.0 * math.lgamma(n + 1.0)
        )
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
    return _reduced_k_bessel(k, gamma, lam, mu, 0.0, x, ctl, "k_wright_w")


def fox_wright(spec: FoxWrightSpec, z: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Fox-Wright series for a validated :class:`FoxWrightSpec`."""
    ctl = ctl or DEFAULT_CONTROL
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
        return SeriesResult(math.exp(log_ratio(0)), 1, 0.0)
    log_az = math.log(abs(z))

    def term(n: int) -> tuple[float, float]:
        return _sign_pow(z, n), log_ratio(n) + n * log_az - math.lgamma(n + 1.0)

    return sum_log_terms(term, ctl, label="fox_wright")
