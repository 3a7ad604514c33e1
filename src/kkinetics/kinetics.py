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
That factor is always evaluated fused, term by term as
``exp(lgamma(beta_n) - lgamma(nu*m + beta_n)) * x**m``, because
``Gamma(beta_n)`` on its own overflows once the outer sum passes n ~ 85.

The inner Mittag-Leffler sums run at a 10x tighter relative tolerance than
the outer sum (:meth:`series.SeriesControl.tightened`) so the reported
outer tail estimate dominates the error.

Two evaluation paths, chosen by the kind of input:

* :func:`solve_point` evaluates one t on the scalar path:
  :func:`series.sum_log_terms` over the outer terms, with one
  :func:`specfun.scaled_ml` call per term.
* :func:`solve_grid` evaluates the grid in chunks of up to 256 points as
  one batch (:func:`series.sum_log_terms_batch`).  The t-independent
  coefficients are tabulated once per call, the inner sums of every
  (point, n) pair advance together over m, and the outer sums advance
  together over n.

Both apply the same summation rules, so they give the same term counts
and stopping decisions; values and tails agree to rounding (numpy's exp is
not libm's).

:func:`corollary_source` evaluates the source through its reduced form, the
family picked by the selectors (b = c = 1: k-Bessel J; b = -1, c = 1: k-Wright W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .series import (
    DEFAULT_CONTROL,
    LOG_DBL_MAX,
    DomainError,
    OverflowLogError,
    SeriesControl,
    SeriesResult,
    sum_log_terms,
    sum_log_terms_batch,
)
from .specfun import (
    FoxWrightSpec,
    KBesselParams,
    MLParams,
    _reduced_k_bessel,
    fox_wright,
    gen_k_bessel,
    k_bessel_log_coefficient,
    ml_negative_bound,
    scaled_ml,
)

__all__ = [
    "Theorem",
    "KineticProblem",
    "SolutionTable",
    "solve_point",
    "solve_grid",
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
    """

    n0: float
    d: float
    nu: float
    variant: Theorem
    params: KBesselParams
    a: float | None = None

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
        if t < 0.0:
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


def _scaled_power(what: str, base: float, t: float, nu: float) -> float:
    """base**nu * t**nu for t >= 0, refused only when (base t)**nu leaves the double range."""
    if t < 0.0:
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
        for t0, t1 in zip(self.times, self.times[1:]):
            if not t1 > t0:
                raise DomainError("SolutionTable times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def max_tail(self) -> float:
        return max(self.tails, default=0.0)


def solve_point(prob: KineticProblem, t: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Series solution of ``prob`` at one time t >= 0.

    The outer k-Bessel-type sum carries a fused Gamma*E Mittag-Leffler
    factor per term (one :func:`specfun.scaled_ml` call each).
    """
    z = prob.z(t)
    if z == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    ctl = ctl or DEFAULT_CONTROL
    inner_ctl = ctl.tightened()
    params = prob.params
    log_hz = math.log(z / 2.0)
    ml_arg = prob.ml_arg(t)

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


# Grid points that solve_grid evaluates together.  The inner sums of a chunk
# are (points x outer terms) arrays, so a fixed chunk keeps peak memory
# independent of the grid length.
_GRID_CHUNK = 256
# Outer indices in the first block of inner sums; later blocks double it.
_FIRST_BLOCK = 16
# Inner-sum columns built before the first growth of the lgamma table.
_FIRST_COLUMNS = 32


class _GridTables:
    """The t-independent coefficients of one problem's double series.

    ``outer(n)`` is the k-Bessel (sign, log|coeff_n|) and ``inner(ns, m_stop)``
    the rows lgamma(beta_n) - lgamma(nu*m + beta_n), m < m_stop, for the
    outer indices ``ns``.  Both grow as the evaluation needs them.
    """

    def __init__(self, prob: KineticProblem):
        self.prob = prob
        self._outer: list[tuple[float, float]] = []
        self._inner: list[list[float]] = []

    def outer(self, n: int) -> tuple[float, float]:
        while len(self._outer) <= n:
            self._outer.append(k_bessel_log_coefficient(self.prob.params, len(self._outer)))
        return self._outer[n]

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
    prob: KineticProblem, tables: _GridTables, times: Sequence[float], ctl: SeriesControl
) -> tuple[list[float], list[int], list[float]] | None:
    """Values, term counts and tails at ``times``; None if any point fails.

    The inner sums of every (point, n) pair advance together over m, in
    blocks of outer indices computed as the outer sums reach them; the
    outer sums then advance together over n.
    """
    zs = [prob.z(t) for t in times]
    live = [i for i, z in enumerate(zs) if z != 0.0]
    values = np.zeros(len(times))
    terms = np.ones(len(times), dtype=np.intp)
    tails = np.zeros(len(times))
    if live:
        xs = [prob.ml_arg(times[i]) for i in live]
        if any(-x > ml_negative_bound(prob.nu) for x in xs):
            return None
        log_hz = np.array([math.log(zs[i] / 2.0) for i in live])
        log_ax = np.array([[math.log(abs(x)) if x != 0.0 else 0.0] for x in xs])
        x = np.array(xs)[:, None]
        alternating = np.where(x < 0.0, -1.0, 1.0)
        inner_ctl = ctl.tightened()

        def inner_sums(ns: range) -> tuple[np.ndarray, np.ndarray]:
            cols = tables.inner(ns, _FIRST_COLUMNS)

            def term(m: int) -> tuple[np.ndarray | float, np.ndarray]:
                nonlocal cols
                if m >= cols.shape[1]:
                    cols = tables.inner(ns, 2 * m)
                return (alternating if m % 2 else 1.0), cols[:, m] + m * log_ax

            res = sum_log_terms_batch(term, (len(live), len(ns)), inner_ctl)
            # scaled_ml is exactly 1 at x = 0; a failed sum gets a finite
            # stand-in so the outer sum runs on and the failure is reported.
            failed = res.failed & (x != 0.0)
            return np.where(failed | (x == 0.0), 1.0, res.value), failed

        ml = np.empty((len(live), 0))
        ml_failed = np.empty((len(live), 0), dtype=bool)
        mu = prob.params.mu

        def outer_term(n: int) -> tuple[np.ndarray, np.ndarray]:
            nonlocal ml, ml_failed
            sign, log_coeff = tables.outer(n)
            if log_coeff == -math.inf:
                return np.ones(len(live)), np.full(len(live), -math.inf)
            if n >= ml.shape[1]:
                more = range(ml.shape[1], min(max(2 * ml.shape[1], _FIRST_BLOCK), ctl.max_terms))
                block, block_failed = inner_sums(more)
                ml = np.hstack([ml, block])
                ml_failed = np.hstack([ml_failed, block_failed])
            col = ml[:, n]
            with np.errstate(divide="ignore"):
                log_mag = log_coeff + (mu + 2.0 * n) * log_hz + np.log(np.abs(col))
            return np.where(col < 0.0, -sign, np.where(col == 0.0, 1.0, sign)), log_mag

        outer = sum_log_terms_batch(outer_term, (len(live),), ctl)
        n_idx = np.arange(ml.shape[1])
        evaluated = np.array([tables.outer(n)[1] != -math.inf for n in n_idx], dtype=bool)
        used = (n_idx < outer.terms[:, None]) & evaluated
        if outer.failed.any() or (ml_failed & used).any():
            return None
        values[live] = prob.n0 * outer.value
        terms[live] = outer.terms
        tails[live] = abs(prob.n0) * outer.tail
    return values.tolist(), terms.tolist(), tails.tolist()


def solve_grid(
    prob: KineticProblem, grid: Sequence[float], ctl: SeriesControl | None = None
) -> SolutionTable:
    """Evaluate the variant solution on a strictly increasing grid of t >= 0.

    The grid is evaluated in chunks of up to 256 points, each as one
    batched double series with the same terms and tails that
    :func:`solve_point` gives at each t.  A chunk in which any point fails
    is evaluated again point by point, so the exception raised is the one
    :func:`solve_point` raises at the earliest failing t; a partial table
    is never returned.
    """
    times = tuple(float(t) for t in grid)
    for t in times:
        if t < 0.0:
            raise DomainError(f"grid times must be >= 0, got {t}")
    for t0, t1 in zip(times, times[1:]):
        if not t1 > t0:
            raise DomainError("grid times must be strictly increasing")
    ctl = ctl or DEFAULT_CONTROL
    tables = _GridTables(prob)
    values: list[float] = []
    terms: list[int] = []
    tails: list[float] = []
    for lo in range(0, len(times), _GRID_CHUNK):
        chunk = times[lo:lo + _GRID_CHUNK]
        try:
            batch = _solve_chunk(prob, tables, chunk, ctl)
        except OverflowError:  # a power or lgamma past the double range
            batch = None
        if batch is None:
            results = [solve_point(prob, t, ctl) for t in chunk]
            batch = ([r.value for r in results], [r.terms for r in results],
                     [r.tail for r in results])
        values += batch[0]
        terms += batch[1]
        tails += batch[2]
    return SolutionTable(
        times=times,
        values=tuple(values),
        terms=tuple(terms),
        tails=tuple(tails),
        problem=prob,
    )


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
    if z < 0.0:
        raise DomainError(f"corollary_source requires z >= 0, got {z}")
    if z == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    label = "k_bessel_j" if params.b == 1.0 else "k_wright_w"
    inner = _reduced_k_bessel(
        params.k, params.gamma, params.lam, params.mu, (params.b + 1.0) / 2.0,
        -(z * z / 2.0), ctl, label,
    )
    pref = (z / 2.0) ** params.mu
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
    if t < 0.0:
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
    ) * (t / 2.0) ** mu
    return SeriesResult(pref * psi.value, psi.terms, abs(pref) * psi.tail)
