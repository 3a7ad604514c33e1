"""Independent numerical checks for the closed-form kinetic solutions.

Nothing here trusts the series solvers: the fractional integral is done by
product-trapezoidal quadrature, the kinetic equation is solved directly as
a discretized Volterra equation (its right-hand side n0 f(t_j) is sampled
once and kept, and :func:`residual` checks a table against it), and the
transform-domain identity is verified with adaptive Simpson quadrature.

Product-trapezoidal weights.  For the order-``nu`` Riemann-Liouville
integral on a uniform grid ``t_j = j h``,

    (I^nu f)(t_j) = 1/Gamma(nu) * int_0^{t_j} (t_j - s)**(nu-1) f(s) ds,

replace f by its piecewise-linear interpolant and integrate each piece
against the kernel in closed form.  With m = j - i the contribution of
node i splits into two one-dimensional coefficient families

    A_m = h^nu [ (m^(nu+1) - (m-1)^(nu+1))/(nu+1) - (m-1)(m^nu - (m-1)^nu)/nu ]
    B_m = h^nu [ m (m^nu - (m-1)^nu)/nu - (m^(nu+1) - (m-1)^(nu+1))/(nu+1) ]

so the weights are w[j][0] = A_j, w[j][i] = A_{j-i} + B_{j-i+1} for
interior i, and w[j][j] = B_1, all divided by Gamma(nu).  Apart from
column 0 they depend on j - i only: w[j][i] = kernel[j-i] with the
Toeplitz kernel [B_1, C_1, ..., C_{n-1}], C_m = A_m + B_{m+1}.  So
(I^nu f) at every node is A_j f_0 plus one convolution of the kernel
with f_1..f_n.  A_m + B_m telescopes to h^nu (m^nu - (m-1)^nu)/nu, which
makes every row integrate constants exactly; B is therefore stored as
(A+B) - A with the telescoping sum computed cancellation-free via
expm1/log1p, keeping row sums accurate to a few ulp even for thousands
of steps.  The scale h^nu / Gamma(nu) is formed in logs, so a grid is
refused only when the weights themselves leave the double range.

Fast Volterra solve.  N + r I^nu N = F with r = rate^nu is a
lower-triangular Toeplitz system for N_1..N_n.  Such matrices multiply as
power series truncated to n coefficients, so :func:`solve_volterra` solves
it as one power-series division x = b / c mod x^n, where c holds the
system's first column.  Newton doubling (Brent and Kung, J. ACM 25 (1978)
581-595) gives the first ceil(n/2) coefficients of 1/c, and one
Karp-Markstein step (ACM TOMS 23 (1997) 561-589) turns them into all n
coefficients of x.  Every product is a convolution, and no FFT is longer
than the power of two at or above n: O(n log n) in all, with no recursion
and no dense matrix.  The partial reciprocal g meets two operands at one
transform length in each Newton step and in the Karp-Markstein step, and
is transformed once for both.  g reads only the weights and r, so each
weights set keeps the last rate's g with its transform (12 MiB at 2**20
steps), and a solve at that rate goes straight to the Karp-Markstein
step; another rate replaces it.  The same ``_convolve`` helper gives
:meth:`QuadratureGrid.rl_integral`, so :func:`residual` is O(n log n) on
long grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kinetics import KineticProblem, SolutionTable, _read_only, _scaled_power
from .series import (LOG_DBL_MAX, LOG_DBL_MIN, TABLE_LOCK, DomainError, EvaluationError,
                     OverflowLogError, SeriesControl, SeriesResult, _integer_n)
from .specfun import MLParams, mittag_leffler

__all__ = [
    "QuadratureGrid",
    "OracleSolution",
    "InstabilityError",
    "solve_volterra",
    "haubold_mathai",
    "residual",
    "laplace_transform",
    "laplace_check",
]


class InstabilityError(EvaluationError):
    """The diagonal 1 + rate**nu * B_1 of the Volterra system is not a positive double."""


# np.convolve beats an FFT while the shorter operand has at most this many
# entries (measured on a 2-vCPU VM with numpy 2.4).
_DIRECT_CONVOLVE_MAX = 256


class _Spectra:
    """An operand of several products, with its real FFT kept per transform length.

    Each Newton step of :func:`_reciprocal` multiplies g by two operands at
    one transform length, and so does the Karp-Markstein step of
    :func:`_solve_forcing`; passing g in this form transforms it once.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.size = coeffs.size
        self._by_length: dict[int, np.ndarray] = {}

    def rfft(self, length: int) -> np.ndarray:
        """The real FFT of the operand at ``length``, read-only (a grid's is shared)."""
        if length not in self._by_length:
            from numpy import fft  # not at module level: loading numpy.fft slows `import kkinetics`

            self._by_length[length] = _read_only(fft.rfft(self.coeffs, length))
        return self._by_length[length]


def _convolve(a: np.ndarray | _Spectra, b: np.ndarray | _Spectra, start: int,
              stop: int) -> np.ndarray:
    """Entries [start, stop) of the linear convolution of ``a`` and ``b``.

    Long operands go through a real FFT of a power-of-two length P.  A cyclic
    convolution folds entry k >= P onto k - P, and the full result has
    len(a) + len(b) - 1 entries, so P >= max(stop, len(a) + len(b) - 1 - start)
    leaves entries [start, stop) exact.  An operand passed as
    :class:`_Spectra` keeps its transform for the next product.
    """
    a, b = (x if type(x) is _Spectra else _Spectra(x) for x in (a, b))
    if min(a.size, b.size) <= _DIRECT_CONVOLVE_MAX:
        return np.convolve(a.coeffs, b.coeffs)[start:stop]
    from numpy import fft

    size = 1 << (max(stop, a.size + b.size - 1 - start) - 1).bit_length()
    product = a.rfft(size) * b.rfft(size)
    del a, b  # frees a spectrum made here before the inverse transform allocates its own
    return fft.irfft(product, size)[start:stop]


def _reciprocal(col: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of the power series 1/c(x), c(x) = sum col[i] x^i.

    Newton doubling: if g holds the first m coefficients, c g = 1 + O(x^m),
    and g - g (c g - 1) holds the first 2m; only the coefficients m..2m-1
    of c g are needed to form it.  Both products transform at the power of
    two at or above stop - 1, so g is transformed once.
    """
    g = np.empty(n)
    g[0] = 1.0 / col[0]
    m = 1
    while m < n:
        stop = min(2 * m, n)
        # col[0] reaches only entries below m; leaving it out keeps the FFT
        # roundoff at the scale of col[1:]
        shared = _Spectra(g[:m])
        defect = _convolve(col[1:stop], shared, m - 1, stop - 1)
        step = _convolve(shared, defect, 0, stop - m)
        np.negative(step, out=g[m:stop])
        m = stop
    return g


class QuadratureGrid:
    """Uniform grid with product-trapezoidal weights for the RL integral.

    ``times`` is the grid's own array.  The weights and their kernel's
    transforms are shared, read-only, by every grid of the same step count,
    order and step (:func:`_grid_weights`).
    """

    def __init__(self, t_end: float, n_steps: int, nu: float):
        if not 0.0 < t_end < math.inf:
            raise DomainError(f"t_end must be finite and > 0, got {t_end}")
        n_steps = _integer_n(n_steps, "QuadratureGrid", "n_steps")
        if n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {n_steps}")
        if not nu > 0.0:
            raise DomainError(f"nu must be > 0, got {nu}")
        self.t_end = float(t_end)
        self.n_steps = n_steps
        self.nu = float(nu)
        self.h = self.t_end / self.n_steps
        self.times = np.linspace(0.0, self.t_end, self.n_steps + 1)
        # the three checks below, on n**(nu+1), t_end**nu / Gamma(nu) and
        # h**nu / Gamma(nu + 1), bound every value the weights form at any nu
        log_peak = (self.nu + 1.0) * math.log(self.n_steps)
        if log_peak > LOG_DBL_MAX:
            raise OverflowLogError(f"{self.n_steps}**{self.nu + 1.0} of the weights overflows "
                                   "double range", log_peak)
        # h**nu alone can leave the double range where h**nu / Gamma(nu) does not,
        # so the scale is formed in logs; the largest weight is about t_end**nu / Gamma(nu)
        # and the smallest row sum h**nu / Gamma(nu + 1)
        log_scale = self.nu * math.log(self.h) - math.lgamma(self.nu)
        log_top = log_scale + self.nu * math.log(self.n_steps)
        if log_top > LOG_DBL_MAX:
            raise OverflowLogError(f"t_end**nu / Gamma(nu) = exp({log_top:.6g}) of the weights "
                                   "overflows double range", log_top)
        log_low = log_scale - math.log(self.nu)
        if log_low < LOG_DBL_MIN:
            raise EvaluationError(f"h**nu / Gamma(nu + 1) = exp({log_low:.6g}) of the weights "
                                  "underflows double range")
        self._a, self._kernel, self._kernel_spectra, self._inverse = _grid_weights(
            self.n_steps, self.nu, log_scale)

    def rl_integral(self, samples: Sequence[float]) -> np.ndarray:
        """Product-trapezoidal values of the order-nu RL integral at every node."""
        s = np.asarray(samples, dtype=float)
        if s.shape != self.times.shape:
            raise DomainError(f"need {self.times.shape[0]} samples, got shape {s.shape}")
        out = self._a * s[0]
        out[1:] += _convolve(self._kernel_spectra, s[1:], 0, self.n_steps)
        return out


class _InverseStore:
    """The store of one weights set's system inverse: ``last`` is the latest
    rate's (r, g0, g) of :func:`_solve_forcing`, or None.

    Written whole, under :data:`series.TABLE_LOCK`; a reader reads ``last``
    once and takes no lock.
    """

    last: tuple[float, float, _Spectra] | None = None


# The most weight sets one process keeps; one of 2**20 steps holds about 40 MB
# with its kernel's spectra, and 12 MiB more with a rate's inverse: 4 MiB of
# coefficients and 8 MiB of transform (see README).
_GRID_WEIGHTS = 2


@functools.lru_cache(maxsize=_GRID_WEIGHTS)
def _grid_weights(n_steps: int, nu: float, log_scale: float
                  ) -> tuple[np.ndarray, np.ndarray, _Spectra, _InverseStore]:
    """Column 0 (A_j) and the Toeplitz kernel of the weights, read-only, the kernel's
    spectra and the store of the system inverse (empty).

    The weights read only the step count, the order and log(h**nu / Gamma(nu)),
    so every grid with these inputs shares one set.  A set is kept only once
    it has passed the negativity and drift checks: a raised error is not.
    """
    m = np.arange(0, n_steps + 1, dtype=float)
    m[0] = 1.0  # placeholder; index 0 is never used
    log_step = np.log1p(-1.0 / m[2:])  # m[0] and m[1] are 1, and their increments stay 1
    m_nu = m ** nu

    def increments(m_p: np.ndarray, p: float) -> np.ndarray:
        # m^p - (m-1)^p = -m^p * expm1(p * log1p(-1/m)), without subtractive cancellation
        out = np.ones_like(m)
        out[2:] = -m_p[2:] * np.expm1(p * log_step)
        return out

    d_nu = increments(m_nu, nu)
    d_nu1 = increments(m ** (nu + 1.0), nu + 1.0)
    scale = math.exp(log_scale)
    a = scale * (d_nu1 / (nu + 1.0) - (m - 1.0) * d_nu / nu)
    pair_sum = scale * d_nu / nu  # A_m + B_m, telescoping form
    b = pair_sum - a
    a[0] = b[0] = 0.0
    if nu <= 1.0 and (np.any(a[1:] < 0.0) or np.any(b[1:] < 0.0)):
        raise InstabilityError(
            f"negative quadrature weight for nu = {nu}; weights must be "
            "non-negative for nu <= 1"
        )
    # every row must integrate constants exactly: sum_i w[j][i] = t_j^nu / Gamma(nu+1)
    sums = np.cumsum(pair_sum[1:])
    exact = scale * m_nu[1:] / nu
    err = np.max(np.abs(sums - exact) / exact)
    if not err <= 1e-12:
        raise EvaluationError(
            f"quadrature weight rows drifted from the constant rule by {err:.3g}"
        )
    # column 0 is A_j; the rest is the Toeplitz kernel [B_1, C_1, ..., C_{n-1}]
    # with the interior coefficient C_m = A_m + B_{m+1}
    kernel = _read_only(np.concatenate((b[1:2], a[1:-1] + b[2:])))
    return _read_only(a), kernel, _Spectra(kernel), _InverseStore()


@dataclass
class OracleSolution:
    """Direct Volterra solution values on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray
    rate: float
    forcing: np.ndarray  # the right-hand side n0 f(t_j) the solve used


def solve_volterra(
    n0: float,
    source: Callable[[float], float],
    rate: float,
    grid: QuadratureGrid,
) -> OracleSolution:
    """Solve N_j = n0 f(t_j) - rate**nu * (I^nu N)(t_j) at every node.

    N_0 = n0 f(0), and with r = rate**nu the unknowns x = N_1..N_n solve the
    lower-triangular Toeplitz system

        (I + r K) x = F_1..F_n - r A_1..A_n N_0,   K[j][i] = kernel[j - i].

    Its matrix is c(S) for the shift S and the power series c(x) with
    coefficients [1 + r B_1, r C_1, ..., r C_{n-1}], so x = b(x) / c(x)
    truncated to n coefficients.  With g = 1/c to h = ceil(n/2) coefficients
    (Newton doubling), one Karp-Markstein step gives x: x_lo = (g b)[:h],
    then x_hi = (g (b[h:] - (c x_lo)[h:n]))[:n-h].  Products with a long
    shorter operand go through the FFT, so the solve is O(n log n).

    ``source`` is called once per node, in order, with the node as a
    Python float.  A solution that leaves the double range raises
    :class:`EvaluationError`; no partial values are returned.
    """
    forcing = np.fromiter(map(source, memoryview(grid.times)), float, grid.n_steps + 1)
    forcing *= n0
    return _solve_forcing(forcing, rate, grid)


def _solve_forcing(forcing: np.ndarray, rate: float, grid: QuadratureGrid) -> OracleSolution:
    """:func:`solve_volterra` on the right-hand side n0 f(t_j) at every node.

    ``forcing`` is kept as the solution's ``forcing``, not copied.
    """
    if not rate > 0.0:
        raise DomainError(f"rate must be > 0, got {rate}")
    kernel, n = grid._kernel, grid.n_steps
    forcing = np.asarray(forcing, dtype=float)
    if forcing.shape != grid.times.shape:
        raise DomainError(f"need {grid.times.shape[0]} samples, got shape {forcing.shape}")
    r = _scaled_power("Volterra rate**nu", rate, 1.0, grid.nu)
    h, stored = n - n // 2, grid._inverse.last
    with np.errstate(over="ignore", invalid="ignore"):
        if stored is None or stored[0] != r:  # g = 1/c reads only the weights and r
            denom = 1.0 + r * kernel[0]  # the diagonal weight w[j][j] = B_1
            if not 0.0 < denom < math.inf:
                raise InstabilityError(
                    f"implicit step denominator {denom} is not a positive double")
            col = r * kernel[:h]
            col[0] = denom
            g = _reciprocal(col, h)
            g0, g[0] = g[0], 0.0
            stored = r, g0, _Spectra(_read_only(g))
            with TABLE_LOCK:
                grid._inverse.last = stored
        _, g0, shared = stored
        values = np.empty(n + 1)
        values[0] = forcing[0]
        # x = F_1..F_n - r A_1..A_n N_0, then x_lo and x_hi in place
        x = values[1:]
        np.multiply(r, grid._a[1:], out=x)
        x *= forcing[0]
        np.subtract(forcing[1:], x, out=x)
        lo, hi = x[:h], x[h:]
        # FFT roundoff scales with the operands' norms, so the diagonal terms
        # g[0] ~ 1 and denom ~ 1 stay out of the FFT products: g[0] is applied
        # exactly, and (c x_lo)[h:n] = r (kernel x_lo)[h:n] since c differs
        # from r kernel only at index 0
        product = _convolve(shared, lo, 0, h)
        lo *= g0
        lo += product
        if n > h:  # n = 1 has no upper half
            product = _convolve(grid._kernel_spectra, lo, h, n)
            product *= r
            hi -= product
            product = _convolve(shared, hi, 0, n - h)
            hi *= g0
            hi += product
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"Volterra solution is not finite at rate {rate} on this grid: "
                              "it leaves the double range")
    return OracleSolution(grid=grid, values=values, rate=rate, forcing=forcing)


def haubold_mathai(
    n0: float, c_rate: float, nu: float, t: float, ctl: SeriesControl | None = None
) -> SeriesResult:
    """Relaxation baseline n0 * E_{nu,1}(-(c_rate * t)**nu) for a constant source."""
    if not math.isfinite(n0):
        raise DomainError(f"n0 must be finite, got {n0}")
    if not c_rate > 0.0:
        raise DomainError(f"c_rate must be > 0, got {c_rate}")
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    r = mittag_leffler(MLParams(nu, 1.0), -_scaled_power("haubold_mathai", c_rate, t, nu), ctl)
    return SeriesResult(n0 * r.value, r.terms, abs(n0) * r.tail)


def residual(table: SolutionTable, oracle: OracleSolution) -> float:
    """Normalized defect of a candidate solution in the oracle's equation.

    Returns max_j |N_j - F_j + rate**nu (I^nu N)(t_j)| / max(1, max_j |N_j|)
    with the grid, rate and forcing F_j = n0 f(t_j) of ``oracle``, so no
    source is evaluated here.  A defect past the double range reads inf,
    and a nan candidate gives nan.
    """
    grid, values = oracle.grid, table.values
    integral = grid.rl_integral(values)  # DomainError unless one value per node
    if np.max(np.abs(table.times - grid.times)) > 1e-12 * max(1.0, grid.t_end):
        raise DomainError("solution table times do not match the quadrature grid")
    r = _scaled_power("residual rate**nu", oracle.rate, 1.0, grid.nu)
    with np.errstate(over="ignore", invalid="ignore"):  # a defect past the doubles reads inf
        worst = float(np.max(np.abs(values - oracle.forcing + r * integral)))
    return worst / max(1.0, float(np.max(np.abs(values))))


# The deepest bisection of adaptive Simpson, and the relative tolerance of
# every Laplace transform.
_SIMPSON_MAX_DEPTH = 40
_LAPLACE_REL_TOL = 1e-8


def _adaptive_simpson(g: Callable[[float], float], a: float, b: float, atol: float) -> float:
    """Classic adaptive Simpson with Richardson acceptance, to ``_SIMPSON_MAX_DEPTH`` halvings."""

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = simpson(a, b, fa, fm, fb)
    stack = [(a, b, fa, fm, fb, whole, atol, 0)]
    total = 0.0
    while stack:
        x0, x2, f0, f1, f2, s_whole, tol, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm, frm = g(lm), g(rm)
        s_left = simpson(x0, xm, f0, flm, f1)
        s_right = simpson(xm, x2, f1, frm, f2)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * tol:
            total += s_left + s_right + err / 15.0
        elif depth >= _SIMPSON_MAX_DEPTH:
            raise EvaluationError(
                f"adaptive Simpson failed to converge on [{x0}, {x2}]"
            )
        else:
            half = 0.5 * tol
            stack.append((x0, xm, f0, flm, f1, s_left, half, depth + 1))
            stack.append((xm, x2, f1, frm, f2, s_right, half, depth + 1))
    return total


def laplace_transform(fn: Callable[[float], float], p: float) -> float:
    """int_0^inf exp(-p t) fn(t) dt, truncated where the integrand is negligible.

    The cutoff T* is found by scanning in steps of 1/p until the integrand
    drops below 1e-16 of its running peak; adaptive Simpson then integrates
    [0, T*] to a relative tolerance of ``_LAPLACE_REL_TOL`` (1e-8).
    """
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be finite and > 0, got {p}")

    def g(t: float) -> float:
        return math.exp(-p * t) * fn(t)

    step = 1.0 / p
    peak = abs(g(0.0))
    t = 0.0
    quiet = 0
    while quiet < 2:
        t += step
        if t > 400.0 / p:
            raise EvaluationError(
                "laplace_transform: integrand did not decay within 400/p"
            )
        gt = abs(g(t))
        peak = max(peak, gt)
        if peak > 0.0:
            quiet = quiet + 1 if gt < 1e-16 * peak else 0
        else:
            # no signal seen yet; give up on finding one after a generous scan
            quiet = quiet + 1 if t >= 32.0 * step else 0
    t_star = t
    if peak == 0.0:
        return 0.0
    # coarse composite Simpson fixes the absolute tolerance scale
    panels = 16
    xs = np.linspace(0.0, t_star, 2 * panels + 1)
    gs = np.array([g(x) for x in xs])
    coarse = (t_star / (6.0 * panels)) * (
        gs[0] + gs[-1] + 4.0 * np.sum(gs[1::2]) + 2.0 * np.sum(gs[2:-1:2])
    )
    atol = _LAPLACE_REL_TOL * max(abs(coarse), peak * t_star * 1e-12)
    return _adaptive_simpson(g, 0.0, t_star, atol)


def laplace_check(
    prob: KineticProblem,
    series_solver: Callable[[float], float],
    p: float,
) -> float:
    """Relative defect of the transform-domain identity
    Ntilde(p) * (1 + rate**nu * p**-nu) = n0 * Ftilde(p).

    ``series_solver`` maps t to the candidate N(t); the transforms of both
    N and the source are taken by numeric quadrature.
    """
    if not (p > prob.d and p > prob.rate):
        raise DomainError(f"laplace_check requires p > rate, got p={p}")
    n_tilde = laplace_transform(series_solver, p)
    f_tilde = laplace_transform(prob.source, p)
    lhs = n_tilde * (1.0 + _scaled_power("laplace_check rate**nu", prob.rate, 1.0, prob.nu)
                     * _scaled_power("laplace_check p**-nu", p, 1.0, -prob.nu))
    rhs = prob.n0 * f_tilde
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(lhs - rhs) / abs(rhs)
