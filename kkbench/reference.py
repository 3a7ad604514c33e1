"""Independent high-precision references for the benchmark's correctness checks.

Nothing here imports ``kkinetics``.  Every function evaluates the defining
series directly in mpmath at ``DPS`` decimal digits and returns
``(value, abs_sum)``: the series value and the sum of the absolute values of
its terms.  ``abs_sum`` measures how much cancellation a double-precision
evaluation must survive; the benchmark's tolerance (see ``tolerance``) uses
it so that a point is failed only when its error exceeds what the
problem's conditioning explains.

The kinetic solutions are built from the equation, not from the library's
formula: the Neumann series N = n0 * sum_m (-rate^nu I^nu)^m f applied to a
power-series source, with I^nu t^p = Gamma(p+1)/Gamma(p+1+nu) t^(p+nu).
For nu = 1 (every figure problem) the resulting inner factor
Gamma(beta) * E_{1,beta}(x) is the confluent hypergeometric 1F1(1; beta; x),
which mpmath evaluates by its own algorithm.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

DPS = 30
_EPS = 2.0 ** -52
# A term this far below the running absolute sum no longer matters at DPS.
_NEGLIGIBLE = mp.mpf(10) ** (-(DPS - 2))
_QUIET_TERMS = 3


def _sum_terms(term):
    """Sum term(n) for n = 0, 1, ... until three consecutive terms are negligible."""
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    quiet = 0
    n = 0
    while quiet < _QUIET_TERMS:
        t = term(n)
        total += t
        abs_sum += abs(t)
        quiet = quiet + 1 if abs(t) <= _NEGLIGIBLE * abs_sum else 0
        n += 1
    return total, abs_sum


def mittag_leffler(alpha: float, beta: float, x: float) -> tuple[float, float]:
    """E_{alpha,beta}(x) = sum_n x^n / Gamma(alpha n + beta)."""
    with mp.workdps(DPS):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        value, abs_sum = _sum_terms(lambda n: xx ** n * mp.rgamma(a * n + b))
        return float(value), float(abs_sum)


def _k_gamma(x, k):
    return k ** (x / k - 1) * mp.gamma(x / k)


@lru_cache(maxsize=4096)
def _k_bessel_coeff(k, g, lam, mu, b, c, n):
    """(-c)^n (g)_{n,k} / [Gamma_k(mu + lam n + (b+1)/2) (n!)^2].

    Cached because the streams reuse a handful of parameter sets; the cache
    key includes the mpf arguments, whose precision is fixed at DPS.
    """
    poch = k ** n * mp.rf(g / k, n)
    return (-c) ** n * poch / (_k_gamma(mu + lam * n + (b + 1) / 2, k) * mp.factorial(n) ** 2)


def k_bessel(k, gamma, lam, mu, b, c, z: float) -> tuple[float, float]:
    """omega(z) = sum_n coeff_n (z/2)^(mu+2n), the generalized k-Bessel source."""
    if z == 0.0:
        return 0.0, 0.0
    with mp.workdps(DPS):
        k, g, lam, mu, b, c, hz = (mp.mpf(v) for v in (k, gamma, lam, mu, b, c, z / 2))
        value, abs_sum = _sum_terms(
            lambda n: _k_bessel_coeff(k, g, lam, mu, b, c, n) * hz ** (mu + 2 * n)
        )
        return float(value), float(abs_sum)


def kinetic(variant: int, n0, d, rate, k, gamma, lam, mu, b, c, t: float) -> tuple[float, float]:
    """N(t) for  N - n0 f = -rate I^1 N  with nu = 1.

    Variant 1 uses the source f(t) = omega(t); variants 2 and 3 use
    f(t) = omega(d t).  Applying the Neumann series to the source term
    (z/2)^(mu+2n), z = t or d t, gives (z/2)^(mu+2n) * 1F1(1; mu+2n+1; -rate t).
    ``abs_sum`` replaces each 1F1 by its absolute-series bound 1F1(1; beta; rate t).
    """
    if t == 0.0:
        return 0.0, 0.0
    with mp.workdps(DPS):
        k, g, lam, mu, b, c = (mp.mpf(v) for v in (k, gamma, lam, mu, b, c))
        tt = mp.mpf(t)
        hz = (tt if variant == 1 else mp.mpf(d) * tt) / 2
        x = mp.mpf(rate) * tt
        total = mp.mpf(0)
        abs_sum = mp.mpf(0)
        quiet = 0
        n = 0
        while quiet < _QUIET_TERMS:
            beta = mu + 2 * n + 1
            outer = _k_bessel_coeff(k, g, lam, mu, b, c, n) * hz ** (mu + 2 * n)
            term = outer * mp.hyp1f1(1, beta, -x)
            total += term
            abs_sum += abs(outer) * mp.hyp1f1(1, beta, x)
            quiet = quiet + 1 if abs(term) <= _NEGLIGIBLE * abs_sum else 0
            n += 1
        n0 = mp.mpf(n0)
        return float(n0 * total), float(abs(n0) * abs_sum)


def relaxation(c: float, t: float) -> float:
    """2 exp(c t) erfc(sqrt(c t)): the nu = 1/2, n0 = 2 constant-source relaxation."""
    ct = c * t
    return 2.0 * math.exp(ct) * math.erfc(math.sqrt(ct))


# Absolute floor of the tolerance, relative to the scale max(1, |ref|).
TOL_FLOOR = 1e-12
# Allowed multiple of eps * abs_sum: the rounding a double-precision
# summation of these terms cannot avoid, with room for a few ulps per term.
TOL_ROUNDING = 64.0


def tolerance(scale: float, abs_sum: float) -> float:
    """Largest acceptable |computed - ref| for a point with this conditioning."""
    return TOL_FLOOR * scale + TOL_ROUNDING * _EPS * abs_sum
