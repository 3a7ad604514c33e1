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
two-term recurrence (:class:`_PowerTable`), run once in plain doubles and
scaled by exact powers of two once a gamma passes 2**512.  The table is
built once per value (see below); the inner Mittag-Leffler sums
disappear.  The sum is refused by the one rule, :func:`series.accept`,
on the sum of every |term (n, m)|: with :class:`series.CancellationError`
where that exceeds 1e12 |N| or where the tail is at least |N|.  It runs
by Horner on the table, and its tail bounds the roundoff too
(:func:`series.horner_sum`).  Where s or n0 s**mu is not a normal
double, or Horner's sums leave the doubles, the same terms are summed as
logs, with the same coefficient bounds in the tail; a time that needs a
coefficient past the table is refused with :class:`series.OverflowLogError`.
Every table takes its k-Bessel coefficients, c_n q**(mu+2n) with the
bound on their logs, from one reader (``specfun._KBesselTable.scaled``),
which refuses parameters whose gamma arguments leave the range of lgamma
with :class:`series.OverflowLogError` too.

Variant 1 at nu != 1 does not align: term (n, m) carries t**(mu+2n) and
(t**nu)**m.  Its t-free coefficients form one table T[n, m]
(:class:`_BivariateTable`), N(t) = n0 t**mu sum_n u**n sum_m T[n, m] v**m
with u = t**2 and v = t**nu, built once per value too.  It is built
whole at the largest rows and columns a batch of sums has needed, and
built again, whole, when a batch needs more, each side that grows at
least doubled; the lengths of the sums read only its leads, straight
from the coefficient reader, and its first row, which is built on its
own and doubles too.  The inner Mittag-Leffler sums disappear
here too, and the sum is guarded and bounded the same way.

Each table sums its own solution, through two methods: ``point(t, n0,
ctl)`` and ``batch(times, n0, ctl)``.  Two evaluation paths for the
solution, chosen by the kind of input, call them:

* :func:`solve_point` evaluates one t through ``point``: by Horner on
  Python floats, or, on the table of variant 1 at nu != 1, by the table's
  own evaluator on a batch of one.
* :func:`solve_grid` evaluates the grid in batches through ``batch``:
  the same Horner operations on numpy arrays
  (:func:`series.horner_sum_batch`), or the same evaluator on many
  times at once.  It returns a
  :class:`SolutionTable` whose ``times``, ``values`` and ``tails`` are
  read-only float64 arrays and whose ``terms`` is a tuple of Python ints.
  A grid that is not one-dimensional is refused with
  :class:`series.DomainError`; the command line also refuses a grid of
  more than 2**20 points or steps (:data:`cli.MAX_GRID_SIZE`).

The source is one sum too: :meth:`KineticProblem.source` sums omega =
(z/2)**mu sum_n c_n x**n, x = (z/2) * (z/2), at one t by Horner on the
t-free table of its parameters (``KBesselParams._table``), and
:func:`source_grid` runs the same sum at every grid time.  The scalar
source keeps logs only where Horner cannot run: it calls
:func:`specfun.gen_k_bessel` where the table ends or a sum leaves the
doubles, at t = 0 and at a subnormal z = t of variant 1.  Where z =
(d t)**nu of variants 2 and 3 is 0 or subnormal at t > 0, it carries few
digits or none: there the scalar source sums the same logs at log(z/2) =
nu (log d + log t) - log 2, formed from t with its error bound.

Every t-free table is built once per value, not once per instance.  A
small registry per process, keyed by the values a table reads, hands
equal inputs one shared object: :func:`_shared_table` for the problems'
tables (at most 32), ``specfun._kbessel_table`` for the k-Bessel tables
and their error bounds (at most 32), and ``fracoracle._grid_weights`` for
the quadrature weights (at most 2, about 40 MB each at 2**20 steps, and
12 MiB more with the Volterra oracle's inverse at its last rate).  The
bounds are fixed; the least recently used entry goes first.  An instance
looks its table up when it is built or first used and keeps it in a
slot, so no scalar call pays for the lookup.  Only a process that asks
again for values it has asked for before gains time: a library caller
that builds equal problems or grids, or one that calls ``cli.main``
more than once.  A single command in its own process builds each table
once, as before.  A table grown in pieces, or built again at a larger
shape, equals one built at once bit for bit, so a shared table gives
what a fresh one would.  Threads share the registries and the tables
too.  Each table grows only through its own methods, and every growth
runs under one process-wide lock (``series.TABLE_LOCK``); readers take
none (see :class:`series.HornerTable`).  So equal instances solved in
several threads give the single-thread bits.  Two threads that miss a
registry at once may each build the table (``lru_cache`` does not lock
while it builds); both tables give equal bits.

Both grids follow one contract.  The batch is
:func:`series.horner_sum_batch`, or the two-dimensional table's own
evaluator, and applies the scalar summation rules.  Its values, term
counts and tails are those of the scalar call (:func:`solve_point`, or
the Horner sum of :meth:`KineticProblem.source`) bit for bit, on a grid
of one time too.  Each batch reads one array.  The solution's reads the
times: it forms s = t**nu and s**mu (or t**2, t**nu and t**mu) bit for
bit as the scalar call forms them (libm's pow) and sums every t > 0; t =
0 gives 0.0 after one term.  It forms neither z(t) nor (rate t)**nu: the
table alone answers or refuses each time.  The source's batch reads
z(t), formed bit for bit as the scalar z forms it where it is a normal
double, takes (z/2)**mu from libm's pow too and sums it; t = 0 gives 0.0
after one term.  At every other time (z = 0 or subnormal, z past the
doubles, t < 0 or nan) it reads nan, which it fails
(:func:`_source_arguments`).  One function (:func:`_evaluate_grid`) hands
every batch, of either table or of the source, at most :data:`_CHUNK_MAX`
(4096) times at once, in the grid's order, and writes each into the
grid's columns, so the memory a batch holds does not grow with the grid.
The Horner batch runs each step over whole rows, in the chunk's order,
for at most ``series._FULL_WIDTH_MAX`` (352) times.  Past that it runs
in one join order, owned by :mod:`series`: ascending by term count, each
step on the suffix of times that has joined.  A chunk whose counts never
fall, as on increasing times, is in that order already and is not
sorted; any other is sorted once.  The two-dimensional table's Horner
(``series._joined_horner``) runs in the same order, so this module holds
no Horner loop.  All run the scalar's operations, so a time's value,
terms and tail do not depend on the grid's size or order.  A batch marks
the points that its scalar call refuses or leaves to another route.
Those points, and every point of a chunk whose batch raises, are
evaluated again in order through the scalar call, so a grid raises what
the scalar call raises at the earliest failing time.

:func:`corollary_source` evaluates the source through its reduced form, the
family picked by the selectors (b = c = 1: k-Bessel J; b = -1, c = 1: k-Wright W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .series import (
    DBL_MAX,
    DBL_MIN,
    DEFAULT_CONTROL,
    EPS,
    LOG_DBL_MAX,
    DomainError,
    EvaluationError,
    HornerTable,
    NonConvergenceError,
    OverflowLogError,
    SeriesBatch,
    SeriesControl,
    SeriesResult,
    TABLE_LOCK,
    _joined_horner,
    _pow,
    _pow_batch,
    accept,
    accepted,
    horner_sum,
    horner_sum_batch,
    sum_log_terms,
)
from .specfun import (
    GAMMA_ULPS,
    FoxWrightSpec,
    KBesselParams,
    _LGAMMA_ARG_MAX,
    _guard_log_sum,
    _k_bessel_log_sum,
    _reduced_k_bessel,
    fox_wright,
    gamma_error,
    gen_k_bessel,
    scaled_ml,  # not called here: kkbench/tracer.py patches kinetics.scaled_ml by name
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

    with coeff_n from :func:`specfun.k_bessel_log_coefficient`, z = t or
    d**nu t**nu (:meth:`z`), x = -rate**nu t**nu and beta_n = mu+2n+1
    (variant 1) or nu(mu+2n)+1.

    Its t-free coefficients are tabulated the first time a solver needs
    them, in one table shared by every problem of equal values (n0 aside),
    and extended as the sums need more.  Where the exponents align
    (variants 2 and 3 at any nu, variant 1 at nu = 1) the double series is
    one power series in s = t**nu, N(t) = n0 * sum_j a_j s**(mu+j)
    (:class:`_PowerTable`); elsewhere the table is two-dimensional
    (:class:`_BivariateTable`).  The solvers read t alone: z and x are
    folded into the table, and only the source forms z.
    """

    n0: float
    d: float
    nu: float
    variant: Theorem
    params: KBesselParams
    a: float | None = None
    _power: "_PowerTable | _BivariateTable | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            if isinstance(self.variant, bool):
                raise ValueError
            object.__setattr__(self, "variant", Theorem(self.variant))
        except ValueError:
            raise DomainError(f"variant must be 1, 2 or 3, got {self.variant!r}") from None
        for name in ("n0", "d", "nu"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if self.variant == Theorem.T3:
            if self.a is None or not 0.0 < self.a < math.inf:
                raise DomainError(f"variant 3 requires a finite a > 0, got {self.a}")
            if not abs(self.a - self.d) > 0.0:
                raise DomainError("variant 3 requires a != d")
        # Python floats, so that equal problems build equal tables (see KBesselParams)
        for name in ("n0", "d", "nu") + (("a",) if self.variant == 3 else ()):
            v = getattr(self, name)
            if type(v) is not float:
                object.__setattr__(self, name, float(v))

    def source(self, t: float, ctl: SeriesControl | None = None) -> float:
        """Source value N0-free: omega(t) or omega(d**nu * t**nu) (see :meth:`_source_sum`),
        the element of :func:`source_grid` at t bit for bit."""
        return self._source_sum(t, ctl).value

    def _source_sum(self, t: float, ctl: SeriesControl | None = None) -> SeriesResult:
        """omega(z(t)) with its term count and tail.

        Where z = :meth:`z` is a normal double, :func:`series.horner_sum`
        on the t-free table of the parameters (``KBesselParams._table``)
        at x = (z/2) * (z/2) with libm's (z/2)**mu, formed as
        :func:`source_grid` forms them, so the point is its grid element
        bit for bit.  :func:`specfun.gen_k_bessel` sums the logs where
        Horner leaves the sum (the table ends, or a sum leaves the
        doubles), at t = 0 and on variant 1, whose z is t itself.
        Elsewhere (d t)**nu is 0 or subnormal, so it carries few digits or
        none: the same log sum (:func:`specfun._k_bessel_log_sum`) runs on
        log(z/2) = nu (log d + log t) - log 2, formed from t.  Its error,
        in EPS, is at most nu (|log d| + |log t|) for an ulp of each log,
        carried through the product; nu |log d + log t| / 2 and
        |nu (log d + log t)| / 2 for the sum and the product; log 2 for an
        ulp of log 2; and |log(z/2)| / 2 for the difference.  The product
        with mu+2n and the rounding of mu+2n add |log(z/2)| / 2 each.
        """
        half = (z := self.z(t)) / 2.0  # below a normal z, x = half * half is not normal either
        res = horner_sum(self.params._table, half * half, _pow(half, self.params.mu),
                         ctl or DEFAULT_CONTROL, "gen_k_bessel")
        if res is not None:
            return res
        if z >= DBL_MIN or t == 0.0 or self.variant == 1:
            return gen_k_bessel(self.params, z, ctl)
        log_d, log_t = math.log(self.d), math.log(t)
        log_dt = log_d + log_t
        power = self.nu * log_dt
        log_hz = power - _LN2
        log_hz_err = (self.nu * (abs(log_d) + abs(log_t) + 0.5 * abs(log_dt)) + 0.5 * abs(power)
                      + _LN2 + 0.5 * abs(log_hz))
        return _k_bessel_log_sum(self.params, log_hz, log_hz_err + abs(log_hz), ctl)

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

    def _power_table(self) -> "_PowerTable | _BivariateTable":
        """The coefficient table: one-dimensional where the exponents align.

        Looked up once per instance in the registry of :func:`_shared_table`,
        by the values the table reads: n0 is not one of them.
        """
        if self._power is None:
            d = self.d if self.variant != 1 else None  # variant 1 reads d only as its rate
            object.__setattr__(self, "_power", _shared_table(self.params, self.nu, self.rate, d))
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


# The most coefficient tables one process keeps (see _shared_table).
_PROBLEM_TABLES = 32


@lru_cache(maxsize=_PROBLEM_TABLES)
def _shared_table(params: KBesselParams, nu: float, rate: float,
                  d: float | None) -> "_PowerTable | _BivariateTable":
    """The one coefficient table of every problem with these values.

    ``d`` is None for variant 1, whose table reads no log q.  The exponents
    align, and the table is one-dimensional, for variants 2 and 3 (``d``
    given) at any nu and for variant 1 at nu = 1.  The key holds
    everything the table constructors read, and tables grown in pieces
    equal tables built at once bit for bit, so a shared table gives the
    values, term counts and tails a new one would.
    """
    if d is not None or nu == 1.0:
        return _PowerTable(params, nu, rate, d)
    return _BivariateTable(params, nu, rate)


_LN2 = math.log(2.0)
_UNIT_GAMMA = 2.0 ** 512  # the largest gamma _PowerTable keeps in units of 1
_PRODUCT_ARG_MAX = 4096.0  # Gamma(x) as a product of at most 3926 factors below this
_PRODUCT_CHUNK = 64  # factors below 2**12 per partial product, which stays below 2**768


def _gamma_product(x: float) -> tuple[float, int, int]:
    """Gamma(x) = gamma * 2**f with gamma in [1, 2), for 171 <= x < _PRODUCT_ARG_MAX.

    Formed as Gamma(y) y (y + 1) ... (x - 1) with y = x - k in [169, 170),
    k = floor(x) - 169.  y and every factor y + i are multiples of ulp(x)
    below x, so they are exact, and frexp splits each partial product
    exactly; the products round at most k times, which is returned third.
    """
    k = math.floor(x) - 169
    y = x - k
    factors = np.ones(-(-k // _PRODUCT_CHUNK) * _PRODUCT_CHUNK)
    factors[:k] = y + np.arange(k)
    gamma, f = math.frexp(math.gamma(y))
    for chunk in np.prod(factors.reshape(-1, _PRODUCT_CHUNK), axis=1).tolist():
        gamma, exponent = math.frexp(gamma * chunk)
        f += exponent
    return 2.0 * gamma, f - 1, k


class _PowerTable(HornerTable):
    """Coefficients of N(t) / n0 = sum_j a_j s**(mu+j), s = t**nu, for aligned exponents.

    Term (n, m) of the double series carries s**(mu+2n+m) and the gamma
    G_j = Gamma(nu*(mu+j) + 1) of j = 2n+m, so each j shares one gamma:
    a_j = b_j / G_j with

        b_j = -r * b_{j-1} + [j even] e_{j/2} * G_j,   b_{-1} = 0,

    e_n = coeff_n * q**(mu+2n), r = rate**nu and q = d**nu / 2 (variants 2
    and 3) or 1/2 (variant 1), read as a double with the bound on its log
    from the coefficient reader (:meth:`specfun._KBesselTable.scaled`).
    Every gamma enters a_j as one ratio G_{2n} / G_j, so its rounding does
    not accumulate along j.  The absolute table A_j runs the same
    recurrence on |.|, so sum_j A_j s**(mu+j) is the sum of every
    |term (n, m)|.

    The recurrence runs once, in plain doubles, in units of 2**F_j: F_j = 0
    while G_j <= 2**512, and past that F_j is the binary exponent of G_j,
    so b_j = a_j G_j cannot overflow while a_j is a normal double.  The
    mantissa G_j / 2**F_j is split exactly from math.gamma while
    x = nu*(mu+j) + 1 < 171, is a product of exact factors down to
    math.gamma below 170 while x < 4096 (:func:`_gamma_product`), and comes
    from lgamma past that.  The step into
    larger units scales by a power of two, which is exact, so b_j / 2**F_j
    and a_j keep their true size.  The table ends where the bound on the
    error of G_j reaches 1 / EPS (x near 1e13 on the lgamma route): there
    G_j carries no digit, and that is long before x nears the range of
    lgamma, where F_j log 2 would no longer split off a mantissa.  A term
    e_n below the normal doubles is left out and its size added to the
    error bound.
    The table grows as the sums reach further, while a_j, A_j and every
    value formed for them is a normal double, and fills the lists of
    :class:`series.HornerTable`.

    The error bound of b_j, in EPS, runs a third recurrence: E_j = r E_{j-1}
    + (r_err + 1/2) r A'_{j-1} + [j even] (kappa_n |e_n G_j| + A'_j / 2),
    with A'_j = A_j G_j, r_err the rounding of r (one ulp of pow, none at
    nu = 1) and kappa_n the error of e_n G_j: that of its log (from the
    reader: :func:`specfun.k_bessel_log_error` and that of (mu+j) log q),
    one ulp of exp, a half for the product and that of G_j.  A left-out
    e_n adds 2 DBL_MIN G_j / EPS.  A mantissa formed as a product adds a half for
    each of its roundings; one formed from lgamma adds to the error of
    math.gamma that of lgamma (GAMMA_ULPS of it) and of F_j log 2 (1.5
    ulps), a half for their difference and one ulp of exp.  a_j is
    then off by E_j / G_j + (1/2 + error of G_j) A_j; the evaluation adds
    (mu+j) r_err A_j for s**(mu+j), one ulp of s**mu and a half for each
    product with n0 and with the sum.
    """

    def __init__(self, params: KBesselParams, nu: float, rate: float, d: float | None):
        """``d`` is that of variants 2 and 3, None for variant 1 (q = 1/2)."""
        super().__init__()
        self.params = params
        self.nu = nu
        self.r = _pow(rate, nu)
        log_d = nu * math.log(d) if d is not None else 0.0
        self.log_q = log_d - _LN2
        self._state = 0.0, 0.0, 0.0, 0  # b_{j-1}, A'_{j-1}, E_{j-1} in units of 2**F_{j-1}; F_{j-1}
        self._pow_err = 0.0 if nu == 1.0 else 1.0  # r = rate**nu and s = t**nu by pow
        # the error of log q, and that of nu*(mu+j) + 1 (none where it is exact)
        self._log_q_err = 1.5 * abs(log_d) + _LN2 + 0.5 * abs(self.log_q)
        self._x_err = 0.0 if nu == 1.0 and params.mu.is_integer() else 1.5

    def grow(self, stop: int) -> None:
        """Extend the table towards ``stop`` coefficients; it ends at the first it cannot hold."""
        mu, nu, log_q, r = self.params.mu, self.nu, self.log_q, self.r
        b, abs_b, err_b, f = self._state
        while len(self.coeffs) < stop:
            j = len(self.coeffs)
            x = nu * (mu + j) + 1.0
            gamma_err = gamma_error(x, self._x_err)
            new_b, new_abs_b = b * -r, abs_b * r
            new_err = err_b * r + (self._pow_err + 0.5) * new_abs_b
            new_f = f  # G_j = gamma * 2**new_f
            if x < 171.0:
                gamma = math.gamma(x)
                if gamma > _UNIT_GAMMA:  # frexp splits it exactly
                    mantissa, exponent = math.frexp(gamma)
                    gamma, new_f = 2.0 * mantissa, exponent - 1
            elif x < _PRODUCT_ARG_MAX:
                gamma, new_f, roundings = _gamma_product(x)
                gamma_err += 0.5 * roundings
            elif x < _LGAMMA_ARG_MAX:
                log_gamma = math.lgamma(x)
                gamma_err += (GAMMA_ULPS + 1.5) * log_gamma - GAMMA_ULPS + 1.5
                if not gamma_err * EPS < 1.0:  # G_j would carry no digit
                    break
                new_f = int(log_gamma / _LN2)
                gamma = math.exp(log_gamma - new_f * _LN2)
            else:
                break
            if new_f != f:
                new_b, new_abs_b = math.ldexp(new_b, f - new_f), math.ldexp(new_abs_b, f - new_f)
                # E_{j-1} scaled before the product, which may overflow the old
                # units; 2**-1074 keeps it a bound where the scaling rounds
                new_err = ((math.ldexp(err_b, f - new_f) + 5e-324) * r
                           + (self._pow_err + 0.5) * new_abs_b)
            formed = (new_b, new_abs_b) if j else (r,)  # b_{-1} = 0 is exact
            if j % 2 == 0:
                e_n, log_e, log_e_err = self.params._table.scaled(j // 2, log_q, self._log_q_err)
                if not abs(e_n) <= DBL_MAX:
                    break
                if abs(e_n) >= DBL_MIN:
                    e_n *= gamma
                    new_b, new_abs_b = new_b + e_n, new_abs_b + abs(e_n)
                    new_err += (log_e_err + 1.5 + gamma_err) * abs(e_n) + 0.5 * new_abs_b
                    formed += (e_n, new_b, new_abs_b)
                elif log_e > -math.inf:  # left out (c = 0 makes an exact zero)
                    new_err += 2.0 * DBL_MIN / EPS * gamma
            a, abs_a = new_b / gamma, new_abs_b / gamma
            formed = tuple(map(abs, formed + (a, abs_a)))
            # a nan needs an inf before it, and the inf fails the max
            if not (DBL_MIN <= min(formed) and max(formed) <= DBL_MAX):
                break
            b, abs_b, err_b, f = new_b, new_abs_b, new_err, new_f
            self.coeffs.append(a)
            self.abs_coeffs.append(abs_a)
            self.errs.append(err_b / gamma
                             + (2.5 + gamma_err + (mu + j) * self._pow_err) * abs_a)
        self._state = b, abs_b, err_b, f

    def point(self, t: float, n0: float, ctl: SeriesControl) -> SeriesResult:
        """The solution at one t > 0 by Horner, or by :meth:`_logs` where
        s = t**nu or n0 s**mu is not a normal double or Horner's sums leave the doubles."""
        s = _pow(t, self.nu)
        res = horner_sum(self, s, n0 * _pow(s, self.params.mu), ctl, "solve_point")
        return res if res is not None else self._logs(t, n0, ctl)

    def batch(self, times: np.ndarray, n0: float, ctl: SeriesControl) -> SeriesBatch:
        """:meth:`point` at every t > 0, bit for bit; the points it leaves to its logs fail."""
        s = _pow_batch(times, self.nu)
        return horner_sum_batch(self, s, n0 * _pow_batch(s, self.params.mu), ctl)

    def _logs(self, t: float, n0: float, ctl: SeriesControl) -> SeriesResult:
        """The power series at one t > 0 as logs of its terms, guarded by its absolute table.

        Term j is sign(a_j) exp(log|a_j| + (mu+j) log s), log s = nu log t,
        from the same table as Horner's sum.  The tail adds, through
        :func:`specfun._guard_log_sum`, EPS times each |term| A_j s**(mu+j)
        times errs_j / A_j and the rounding of its log: one ulp of log|a_j|,
        5/2 |(mu+j) log s| (one ulp of log t, halves for the products with nu
        and with mu+j and for mu+j), |log| / 2 for their sum and one ulp of
        exp.  A time that needs a coefficient past the table is refused with
        :class:`series.OverflowLogError`.
        """
        mu, log_s = self.params.mu, self.nu * math.log(t)
        abs_sum = err_sum = 0.0  # the sum of |terms|, and of their errors times |terms|

        def term(j: int) -> tuple[float, float]:
            nonlocal abs_sum, err_sum
            if j >= self.extend(j + 1):
                raise OverflowLogError(f"solve_point: at t = {t} the power series needs a "
                                       "coefficient outside the normal doubles", math.inf)
            a, abs_a = self.coeffs[j], self.abs_coeffs[j]
            power = (mu + j) * log_s
            log_a = math.log(abs(a))
            log_mag, log_abs = log_a + power, math.log(abs_a) + power
            mag = math.exp(log_abs) if log_abs < LOG_DBL_MAX else math.inf
            abs_sum += mag
            err_sum += (self.errs[j] / abs_a + abs(log_a) + 2.5 * abs(power)
                        + 0.5 * abs(log_mag) + 1.0) * mag
            return (-1.0 if a < 0.0 else 1.0), log_mag

        res = sum_log_terms(term, ctl, label="solve_point")
        res = _guard_log_sum(res, abs_sum, err_sum, "solve_point")
        value, tail = n0 * res.value, abs(n0) * res.tail
        # n0 may lift the tail past DBL_MIN, so the tail test runs again, on
        # size 0.0: the size test ran on the sum before n0 scaled it.  Scaled,
        # it could refuse anew where n0 lifts a |value| below DBL_MIN, which
        # the unscaled test measured against DBL_MIN.
        accept(value, tail, 0.0, "solve_point")
        return SeriesResult(value, res.terms, tail)


class _Line(HornerTable):
    """The leads (axis 0, a series in u) or the first row (axis 1, in v) of a
    :class:`_BivariateTable`.  Only ``abs_coeffs`` is filled: a line gives
    the lengths of the sums (:meth:`series.HornerTable.lengths`)."""

    def __init__(self, table: "_BivariateTable", axis: int):
        super().__init__()
        self.table, self.axis = table, axis

    def grow(self, stop: int) -> None:
        self.abs_coeffs = self.table.line(self.axis, max(stop, 2 * len(self.abs_coeffs)))


# Why _BivariateTable.sums refuses a point: the term budget ran out (the
# value is then the partial sum), a value it needs is not a normal double,
# or cancellation leaves no digits (the tail is at least |value| too).
_BUDGET, _RANGE, _CANCELLED = 1, 2, 3


class _BivariateTable:
    """Coefficients of N(t) / (n0 t**mu) = sum_n u**n sum_m T[n, m] v**m, u = t**2, v = t**nu.

    This is variant 1 at nu != 1.  With beta_n = mu+2n+1 and r = rate**nu,
    term (n, m) of the double series gives

        T[n, m] = c_n 2**-(mu+2n) (-r)**m Gamma(beta_n) / Gamma(nu m + beta_n),

    c_n the k-Bessel coefficient.  Row n starts at its lead
    T[n, 0] = +-exp(log|c_n| - (mu+2n) log 2) and runs along m in plain
    doubles: T[n, m] = T[n, m-1] * (-r * rho_m), with rho_m =
    Gamma(x_{m-1}) / Gamma(x_m), x_m = nu m + beta_n, from math.gamma while
    x_m < 171 and exp(lgamma(x_{m-1}) - lgamma(x_m)) after that.  Each
    gamma enters two neighbouring ratios, once above and once below the
    line, so its rounding does not accumulate along m.

    ``errs[n, m]`` bounds the relative error of T[n, m], in EPS: that of
    the lead (from the coefficient reader at q = 1/2,
    :meth:`specfun._KBesselTable.scaled`: the error of log|c_n|,
    :func:`specfun.k_bessel_log_error`; 2 (mu+2n) log 2 for the other
    product; half the exponent for the sum; and one ulp of exp), that of
    math.gamma at x_0 and x_m, with x formed
    to within 1.5 EPS x (:func:`specfun.gamma_error`), and 5/2 per step for
    r (one ulp of pow) and the three products.  A step on lgamma adds the
    error of both its lgammas (GAMMA_ULPS of |lgamma|, and the argument's
    through the digamma bound), half their difference and one more ulp
    for exp.  errs is nondecreasing along m; it is 0 on the exact zero
    rows of c_n = 0.

    Row n holds normal doubles in its first ``extent[n]`` entries, or
    zeros: exact ones where c_n = 0, and the entries past a step that
    underflows while halving the row, which stay below DBL_MIN (the
    factors -r rho_m fall along m).  A point that needs an entry past
    them is refused, and the row holds zeros there.

    The table is built whole, from the leads (:meth:`_build`), at the
    largest shape a batch of sums has needed, and built again, whole, when
    a batch needs more (:meth:`grow`: a side that grows at least doubles).
    The lengths of the sums read only the leads (:meth:`_leads`, with no
    build) and the first row, which is built on its own (:meth:`line`)
    and doubles as it grows too.  An entry, its errs and its row's extent
    depend on its row and column alone, not on the shape built.
    """

    def __init__(self, params: KBesselParams, nu: float, rate: float):
        self.params, self.mu, self.nu = params, params.mu, nu
        self.r = _pow(rate, nu)
        self.coeffs = self.errs = np.zeros((0, 0))
        self.extent = np.zeros(0, dtype=np.intp)
        self.lines = _Line(self, 0), _Line(self, 1)

    def line(self, axis: int, stop: int) -> list[float]:
        """|T| along the leads (axis 0) or the first row, towards ``stop`` entries
        and cut at the first that is neither a normal double nor an exact
        zero.  Reads only that line (:meth:`_leads`, or a 1 x stop build) and
        leaves the table alone."""
        if axis:
            coeffs, _, extent = self._build(1, stop)
            return np.abs(coeffs[0, :extent[0]]).tolist()
        lead, errs = self._leads(stop)
        mags = np.abs(lead)
        held = (mags >= DBL_MIN) & (mags <= DBL_MAX) | (errs == 0.0)  # errs 0: an exact zero
        return mags[:np.argmin(np.append(held, False))].tolist()

    def grow(self, rows: int, cols: int) -> None:
        """Build the table anew at least ``rows`` x ``cols`` and at least its old shape.

        A side that grows at least doubles, and never passes twice what is
        asked, so a run of ever larger asks builds a logarithmic number of
        times.  The one writer of the table, under :data:`series.TABLE_LOCK`.
        ``coeffs`` is replaced last, so a reader that finds it large enough
        finds the other arrays built at least as large, and takes no lock.
        """
        if rows <= self.coeffs.shape[0] and cols <= self.coeffs.shape[1]:
            return
        with TABLE_LOCK:
            old_rows, old_cols = self.coeffs.shape
            rows, cols = (max(a, 2 * h) if a > h else h for a, h in ((rows, old_rows), (cols, old_cols)))
            if (rows, cols) != (old_rows, old_cols):
                coeffs, self.errs, self.extent = self._build(rows, cols)
                # the columns all of the first n rows hold
                self.reach = np.minimum.accumulate(self.extent)
                self.coeffs = coeffs

    def _build(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``rows`` x ``cols`` entries from the leads: T, errs and extent."""
        lead, lead_errs = self._leads(rows)
        x = self.nu * np.arange(cols) + (self.mu + 2.0 * np.arange(rows) + 1.0)[:, None]
        flat = x.ravel().tolist()
        gammas = np.array([math.gamma(y) if y < 171.0 else 1.0 for y in flat]).reshape(x.shape)
        # the lgammas a step past 171 reads: x_{m-1} is x_m - nu to rounding
        lgammas = np.array([_lgamma(y) if y > 170.0 - self.nu else 0.0 for y in flat])
        lgammas = lgammas.reshape(x.shape)
        logged = x[:, 1:] >= 171.0
        with np.errstate(over="ignore", invalid="ignore"):
            gamma_errs = gamma_error(x, 1.5)
            diffs = lgammas[:, :-1] - lgammas[:, 1:]
            ratios = np.where(logged, np.exp(diffs), gammas[:, :-1] / gammas[:, 1:])
            # the gamma errors telescope: the steps to column m sum to those at x_0 and x_m
            steps = gamma_errs[:, 1:] - gamma_errs[:, :-1] + 2.5
            steps[:, :1] += 2.0 * gamma_errs[:, :1]
            lgamma_errs = gamma_errs + GAMMA_ULPS * (np.maximum(np.abs(lgammas), 1.0) - 1.0)
            steps = np.where(logged, lgamma_errs[:, :-1] + lgamma_errs[:, 1:]
                             + 0.5 * np.abs(diffs) + 3.5, steps)
            factors = np.column_stack((lead, -self.r * ratios))
            coeffs = np.multiply.accumulate(factors, axis=1)
            zero = ((lead == 0.0) & (lead_errs == 0.0))[:, None] & (coeffs == 0.0)
            errs = np.cumsum(np.column_stack((lead_errs, steps)), axis=1)
            mags = np.abs(coeffs)
            normal = (mags >= DBL_MIN) & (mags <= DBL_MAX) | zero
            # a row that fades (see the class docs) holds zeros from there;
            # one whose lead underflows ends at its lead
            fading = (mags < DBL_MIN) & (np.abs(factors) < 0.5)
            fading[:, 0] = False
            extent = np.argmin(np.column_stack((normal, np.zeros(rows, bool))), axis=1)
            faded = np.column_stack((fading, np.zeros(rows, bool)))[np.arange(rows), extent]
            past = np.arange(cols) >= extent[:, None]
            coeffs[past] = 0.0  # never read past a row's end
            normal |= faded[:, None] & past
        errs = np.where(zero, 0.0, np.where(normal, errs, math.inf))
        return coeffs, errs, np.where(faded, cols, extent)

    def _leads(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """T[n, 0] and its error bound in EPS (0 for an exact zero) for the first ``rows`` rows."""
        table, leads, errs = self.params._table, [], []
        for n in range(rows):
            lead, log_lead, err = table.scaled(n, -_LN2, _LN2)  # log 2 within one ulp
            leads.append(lead)
            errs.append(0.0 if log_lead == -math.inf else err + 1.0)  # one ulp of exp
        return np.array(leads), np.array(errs)

    def point(self, t: float, n0: float, ctl: SeriesControl) -> SeriesResult:
        """The solution at one t > 0: :meth:`sums` on a batch of one, or its refusal raised."""
        value, abs_value, tail, rows, code = (a.item() for a in self.sums(
            np.array([t * t]), np.array([_pow(t, self.nu)]), np.array([n0 * _pow(t, self.mu)]), ctl))
        if code == _BUDGET:
            raise NonConvergenceError(
                f"solve_point: no stagnation within {ctl.max_terms} terms", value, ctl.max_terms)
        if code == _RANGE:
            raise OverflowLogError(
                f"solve_point: at t = {t} the double series needs a power of t, a coefficient "
                "or a sum outside the normal doubles", math.inf)
        accept(value, tail, abs_value, "solve_point")
        return SeriesResult(value, rows, tail)

    def batch(self, times: np.ndarray, n0: float, ctl: SeriesControl) -> SeriesBatch:
        """:meth:`point` at every t > 0, bit for bit; the points it refuses fail."""
        value, _, tail, rows, codes = self.sums(
            times * times, _pow_batch(times, self.nu), n0 * _pow_batch(times, self.mu), ctl)
        return SeriesBatch(value, rows, tail, codes != 0)

    def sums(self, u: np.ndarray, v: np.ndarray, pre: np.ndarray, ctl: SeriesControl):
        """``pre`` times the double series at every u = t**2, v = t**nu, and why a point is refused.

        Returns the values, the sums of every |term|, the tails, the rows
        each point sums (its term count) and a code: 0, or _BUDGET,
        _RANGE or _CANCELLED for a point that :meth:`point` refuses.

        A point's rows and columns are the lengths of the leads at u and of
        the first row at v, and the table is grown once, to the most rows
        and columns of the batch.  Both lengths suffice for every row:
        |T[n, m]| / |T[n, k]| = r**(m-k) Gamma(nu k + beta_n) / Gamma(nu m + beta_n)
        falls with n for m > k (log Gamma is convex), so a column quiet on
        the first row is quiet on each row against that row's own terms,
        and a row whose lead is quiet against the earlier leads has its
        |row sum| quiet against the earlier |row sums|.

        The tail takes rel_tol times the sum of every |term| for the rows
        and for the columns the stop rule drops, and adds EPS times: the
        sum of every |term| times its entry's err (err at the last column
        read bounds its row), and the sum of every |term| times 2 m + 1.5 n
        for m columns and n rows: Horner's rounding (Higham, Eq. 5.3) in v
        and then in u, and that of v (one ulp of pow) and u (half an ulp)
        raised to the powers m and n, and of ``pre``; and 2 DBL_MIN u**n
        v**m for every entry read, which bounds the zeros a faded row holds.
        """
        normal = ((np.minimum(np.minimum(u, v), pre) >= DBL_MIN)
                  & (np.maximum(np.maximum(u, v), pre) <= DBL_MAX))
        rows, cols = (line.lengths(np.where(normal, x, 1.0), ctl) for line, x in zip(self.lines, (u, v)))
        budget = (rows == 0) | (cols == 0)  # summed over the budget, for the partial sum
        rows, cols = np.where(rows == 0, ctl.max_terms, rows), np.where(cols == 0, ctl.max_terms, cols)
        off = ~normal | (rows < 0) | (cols < 0)
        rows, cols = np.where(off, 1, rows), np.where(off, 1, cols)
        self.grow(int(rows.max(initial=1)), int(cols.max(initial=1)))
        off |= self.reach[rows - 1] < cols
        codes = np.where(off, _RANGE, np.where(budget, _BUDGET, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            total, abs_total, err_total, floor = self._horner(u, v, rows, cols)
            value, abs_value = pre * total, pre * abs_total
            tail = pre * (EPS * err_total + floor
                          + (2.0 * ctl.rel_tol + EPS * (2.0 * cols + 1.5 * rows)) * abs_total)
            kept = accepted(value, tail, abs_value)
            codes = np.where(~((abs_value <= DBL_MAX) & (tail <= DBL_MAX)), _RANGE,
                             np.where(~kept & (codes == 0), _CANCELLED, codes))
        return value, abs_value, tail, rows, codes

    def _horner(self, u: np.ndarray, v: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """Each point's sum over its rows x cols entries, the sum of those |terms|,
        of those |terms| times their rows' errs at the last column and of
        2 DBL_MIN u**n v**m: Horner in v along every row, then in u down the
        rows (:func:`series._joined_horner`)."""
        width, depth = int(rows.max()), int(cols.max())
        coeffs = self.coeffs[:width, :depth]
        inner = _joined_horner(v, cols, np.vstack((coeffs, np.abs(coeffs),
                                                   np.full(depth, 2.0 * DBL_MIN))).T.copy())
        row_abs, floor = inner[:, width:-1], inner[:, -1:]
        errs = row_abs * self.errs[:width, cols - 1].T
        floors = np.broadcast_to(floor, row_abs.shape)
        return _joined_horner(u, rows, np.stack((inner[:, :width], row_abs, errs, floors)).T).T


def _lgamma(x: float) -> float:
    """math.lgamma, refused with :class:`OverflowLogError` past the double range."""
    try:
        return math.lgamma(x)
    except OverflowError:  # x is past the double range
        raise OverflowLogError(f"solve_point: Gamma({x}) overflows double range", math.inf) from None


def _increasing(t: np.ndarray) -> bool:
    """True if every time is above the one before it (nan never is)."""
    return np.count_nonzero(t[1:] > t[:-1]) == max(t.size - 1, 0)


@dataclass(frozen=True, eq=False)
class SolutionTable:
    """Solution values on a time grid plus per-point evaluation metadata.

    ``times``, ``values`` and ``tails`` are read-only one-dimensional
    float64 arrays; ``terms`` is a tuple of Python ints.  The constructor
    copies each float column it is given (a sequence or any array) into a
    new read-only array, so a table shares no memory with its caller.  Two
    tables are equal when their problems and columns are.
    """

    times: np.ndarray
    values: np.ndarray
    terms: tuple[int, ...]
    tails: np.ndarray
    problem: KineticProblem

    _FLOAT_COLUMNS = ("times", "values", "tails")

    def __post_init__(self):
        for name in self._FLOAT_COLUMNS:
            column = _read_only(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, column)
            if column.ndim != 1:
                raise DomainError("SolutionTable columns must be one-dimensional")
        if type(self.terms) is not tuple:
            object.__setattr__(self, "terms", tuple(map(int, self.terms)))
        n = len(self.times)
        if not (len(self.values) == len(self.terms) == len(self.tails) == n):
            raise DomainError("SolutionTable columns must have equal length")
        if not _increasing(self.times):
            raise DomainError("SolutionTable times must be strictly increasing")

    @classmethod
    def _checked(cls, **columns) -> "SolutionTable":
        """A table of columns already in the form and order that :meth:`__post_init__`
        checks (:func:`solve_grid`'s), built without running those checks again."""
        table = object.__new__(cls)
        table.__dict__.update(columns)
        return table

    def __eq__(self, other):
        if type(other) is not SolutionTable:
            return NotImplemented
        return (self.problem == other.problem and self.terms == other.terms
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in self._FLOAT_COLUMNS))

    __hash__ = None

    def __len__(self) -> int:
        return len(self.times)


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


def solve_point(prob: KineticProblem, t: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Series solution of ``prob`` at one time t >= 0.

    t = 0 gives 0.0 after one term.  Any other t is one sum over the
    problem's coefficient table (see :class:`KineticProblem`), by the
    table's own :meth:`_PowerTable.point` or :meth:`_BivariateTable.point`,
    which answers or refuses it alone: a time that needs a coefficient,
    a power of t or a sum outside the normal doubles is refused with
    :class:`series.OverflowLogError`, and every route is refused by
    :func:`series.accept` on the sum of all |terms| of the double series,
    with :class:`series.CancellationError`.  Neither z(t) nor
    (rate t)**nu is formed: a time where they leave the doubles is summed,
    or refused, like any other.
    """
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    return prob._power_table().point(t, prob.n0, ctl or DEFAULT_CONTROL)


def _source_batch(prob: KineticProblem, ctl: SeriesControl, zs: np.ndarray) -> SeriesBatch:
    """omega(z) at every z = ``zs`` by Horner on the t-free table of ``prob.params``."""
    half = zs / 2.0
    return horner_sum_batch(prob.params._table, half * half, _pow_batch(half, prob.params.mu), ctl)


def _source_arguments(prob: KineticProblem, times: np.ndarray) -> np.ndarray:
    """:meth:`KineticProblem.z` at every time where it is a normal double, bit
    for bit; 0 at t = 0, and nan at every other time.

    Variants 2 and 3 multiply d**nu by libm's t**nu, as the scalar z does
    (numpy's power differs from libm's pow in the last bit on a few percent
    of inputs).  Where that product is 0 or inf at t > 0 (d**nu or t**nu
    alone leaves the doubles), z is the scalar's own, from
    :func:`_scaled_power`'s log route.  A nan fails the batch, so the
    scalar source decides, in order, each time whose z is not a normal
    double (z = 0 or subnormal, or past the doubles) and each negative or
    nan time.
    """
    zs = times
    if prob.variant != 1:
        d, nu = prob.d, prob.nu
        positive = np.where(times >= 0.0, times, math.nan)
        try:
            powers = _pow_batch(positive, nu)
        except OverflowError:
            powers = np.array([_pow(t, nu) for t in positive.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is nan
            zs = _pow(d, nu) * powers
            logged = np.flatnonzero((times > 0.0) & ~((zs > 0.0) & (zs < math.inf)))
        for i in logged.tolist():
            try:
                zs[i] = _scaled_power("source argument", d, float(times[i]), nu)
            except OverflowLogError:  # z past the doubles: the scalar refuses it
                zs[i] = math.nan
    return np.where((zs >= DBL_MIN) & (zs <= DBL_MAX), zs, np.where(times == 0.0, 0.0, math.nan))


# The most times one batch sums at once (see _evaluate_grid).
_CHUNK_MAX = 4096


def _evaluate_grid(
    times: np.ndarray,
    args: np.ndarray,
    batch: Callable[[np.ndarray], SeriesBatch],
    scalar: Callable[[float], SeriesResult],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, term counts and tails at ``times`` under the grid contract (see module docs).

    ``args`` is what ``batch`` reads at each time: the time itself, or its
    z(t).  ``batch`` gets those that are not 0, as arrays of at most
    :data:`_CHUNK_MAX` in the grid's order (slices where only a first
    argument is 0, as on an increasing grid from t = 0; index chunks
    otherwise), and runs with numpy's overflow and invalid warnings off: a
    power, a square or a prefactor past the doubles is an inf, which is
    not a normal double, and its point fails, as does a nan.  Each chunk
    is written into the columns, so the memory a batch holds does not
    grow with the grid.  A zero gives 0.0 after one term.  A chunk whose
    batch raises fails as a whole.  ``scalar(t)`` evaluates one time: it
    gives each element the batch answers bit for bit, and it decides each
    point that fails, in order.
    """
    n = times.size
    values, terms, tails = np.zeros(n), np.ones(n, dtype=np.intp), np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    zeros = n - np.count_nonzero(args)
    if zeros == 0 or (zeros == 1 and args[0] == 0.0):
        chunks = [slice(i, i + _CHUNK_MAX) for i in range(zeros, n, _CHUNK_MAX)]
    else:
        live = np.flatnonzero(args)
        chunks = [live[i:i + _CHUNK_MAX] for i in range(0, live.size, _CHUNK_MAX)]
    for chunk in chunks:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values[chunk], terms[chunk], tails[chunk], failed[chunk] = batch(args[chunk])
        except (OverflowError, EvaluationError):  # a power past the double range, or a refused coefficient
            failed[chunk] = True
    for i in failed.nonzero()[0].tolist():
        values[i], terms[i], tails[i] = scalar(float(times[i]))
    return values, terms, tails


def _grid_times(grid: Sequence[float]) -> np.ndarray:
    """The grid as a new float array, refused unless it is one-dimensional."""
    times = np.array(grid, dtype=float)
    if times.ndim != 1:
        raise DomainError(f"grid times must be one-dimensional, got shape {times.shape}")
    return times


def solve_grid(
    prob: KineticProblem, grid: Sequence[float], ctl: SeriesControl | None = None
) -> SolutionTable:
    """Evaluate the variant solution on a strictly increasing grid of t >= 0.

    Batches under the grid contract (see module docs), with the terms
    and tails :func:`solve_point` gives at each t; a partial table is
    never returned.
    """
    times = _grid_times(grid)
    # increasing times from a first time >= 0 are all >= 0; the diagnosis runs on failure
    if not ((times.size == 0 or times[0] >= 0.0) and _increasing(times)):
        negative = np.flatnonzero(~(times >= 0.0))
        if negative.size:
            raise DomainError(f"grid times must be >= 0, got {float(times[negative[0]])}")
        raise DomainError("grid times must be strictly increasing")
    ctl = ctl or DEFAULT_CONTROL
    values, terms, tails = _evaluate_grid(times, times,
                                          lambda ts: prob._power_table().batch(ts, prob.n0, ctl),
                                          lambda t: solve_point(prob, t, ctl))
    return SolutionTable._checked(times=_read_only(times), values=_read_only(values),
                                 terms=tuple(terms.tolist()), tails=_read_only(tails), problem=prob)


def source_grid(
    prob: KineticProblem, times: Sequence[float], ctl: SeriesControl | None = None
) -> np.ndarray:
    """The source omega(z(t)) of ``prob`` (N0-free) at every t >= 0 in ``times``.

    Horner batches on the t-free table of ``prob.params`` under the grid
    contract (see module docs): each value is that of
    :meth:`KineticProblem.source` at its time bit for bit, and the points
    the batches refuse or leave go to it.
    """
    times = _grid_times(times)
    ctl = ctl or DEFAULT_CONTROL
    values, _, _ = _evaluate_grid(times, _source_arguments(prob, times),
                                  partial(_source_batch, prob, ctl),
                                  lambda t: prob._source_sum(t, ctl))
    return values


def _half_power(z: float, mu: float) -> float:
    """(z/2)**mu for z > 0, also where z/2 would round in the subnormal range.

    The reference routes below form their own prefactor, apart from the
    log(z/2) of :func:`specfun.gen_k_bessel` that they are checked against.
    """
    if z < 2.0 * DBL_MIN:
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
