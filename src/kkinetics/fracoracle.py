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
of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kinetics import KineticProblem, SolutionTable
from .series import (LOG_DBL_MAX, DomainError, EvaluationError, OverflowLogError,
                     SeriesControl, SeriesResult)
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
    """The implicit Volterra step lost positivity of its diagonal."""


def _power_increments(m: np.ndarray, p: float) -> np.ndarray:
    """m**p - (m-1)**p for integer m >= 1, without subtractive cancellation."""
    out = np.empty_like(m)
    out[m == 1.0] = 1.0
    big = m[m > 1.0]
    # m^p - (m-1)^p = m^p * (1 - (1 - 1/m)^p) = -m^p * expm1(p * log1p(-1/m))
    out[m > 1.0] = -(big ** p) * np.expm1(p * np.log1p(-1.0 / big))
    return out


class QuadratureGrid:
    """Uniform grid with product-trapezoidal weights for the RL integral."""

    def __init__(self, t_end: float, n_steps: int, nu: float):
        if not t_end > 0.0:
            raise DomainError(f"t_end must be > 0, got {t_end}")
        if n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {n_steps}")
        if not nu > 0.0:
            raise DomainError(f"nu must be > 0, got {nu}")
        self.t_end = float(t_end)
        self.n_steps = int(n_steps)
        self.nu = float(nu)
        self.h = self.t_end / self.n_steps
        self.times = np.linspace(0.0, self.t_end, self.n_steps + 1)
        try:  # Gamma(nu + 1) leaves the double range above nu ~ 170.6
            gamma_nu, gamma_nu1 = math.gamma(self.nu), math.gamma(self.nu + 1.0)
        except OverflowError:
            raise OverflowLogError(f"Gamma({self.nu + 1.0}) of the weights overflows double range",
                                   math.lgamma(self.nu + 1.0)) from None
        log_peak = (self.nu + 1.0) * math.log(self.n_steps)
        if log_peak > LOG_DBL_MAX:
            raise OverflowLogError(f"{self.n_steps}**{self.nu + 1.0} of the weights overflows "
                                   "double range", log_peak)

        m = np.arange(0, self.n_steps + 1, dtype=float)
        m[0] = 1.0  # placeholder; index 0 is never used
        d_nu = _power_increments(m, self.nu)
        d_nu1 = _power_increments(m, self.nu + 1.0)
        scale = self.h ** self.nu / gamma_nu
        a = scale * (d_nu1 / (self.nu + 1.0) - (m - 1.0) * d_nu / self.nu)
        pair_sum = scale * d_nu / self.nu  # A_m + B_m, telescoping form
        b = pair_sum - a
        a[0] = b[0] = 0.0
        if self.nu <= 1.0 and (np.any(a[1:] < 0.0) or np.any(b[1:] < 0.0)):
            raise InstabilityError(
                f"negative quadrature weight for nu = {self.nu}; weights must be "
                "non-negative for nu <= 1"
            )
        # column 0 is A_j; the rest is the Toeplitz kernel [B_1, C_1, ..., C_{n-1}]
        # with the interior coefficient C_m = A_m + B_{m+1}
        self._a = a
        self._kernel = np.concatenate((b[1:2], a[1:-1] + b[2:]))
        # every row must integrate constants exactly: sum_i w[j][i] = t_j^nu / Gamma(nu+1)
        sums = np.cumsum(pair_sum[1:])
        exact = self.times[1:] ** self.nu / gamma_nu1
        err = np.max(np.abs(sums - exact) / exact)
        if not err <= 1e-12:
            raise EvaluationError(
                f"quadrature weight rows drifted from the constant rule by {err:.3g}"
            )

    def rl_integral(self, samples: Sequence[float]) -> np.ndarray:
        """Product-trapezoidal values of the order-nu RL integral at every node."""
        s = np.asarray(samples, dtype=float)
        if s.shape != self.times.shape:
            raise DomainError(f"need {self.times.shape[0]} samples, got shape {s.shape}")
        out = self._a * s[0]
        out[1:] += np.convolve(self._kernel, s[1:])[: self.n_steps]
        return out


@dataclass
class OracleSolution:
    """Direct Volterra solution values on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray
    rate: float
    forcing: np.ndarray  # the right-hand side n0 f(t_j) the march solved for


def solve_volterra(
    n0: float,
    source: Callable[[float], float],
    rate: float,
    grid: QuadratureGrid,
) -> OracleSolution:
    """March N_j = n0 f(t_j) - rate**nu * (I^nu N)(t_j) forward in j.

    The diagonal weight makes each step implicit; because the equation is
    linear the step resolves in closed form:

        N_j = (n0 f_j - rate**nu * sum_{i<j} w[j][i] N_i) / (1 + rate**nu * w[j][j])
    """
    if not rate > 0.0:
        raise DomainError(f"rate must be > 0, got {rate}")
    forcing = n0 * np.array([source(t) for t in grid.times])
    kernel, a = grid._kernel, grid._a
    r = rate ** grid.nu
    denom = 1.0 + r * kernel[0]  # the diagonal weight w[j][j] = B_1
    if denom <= 0.0:
        raise InstabilityError(f"implicit step denominator {denom} <= 0")
    n = grid.n_steps
    # The history is stored newest-first, hist[n - i] = N_i, so that step j
    # dots the contiguous kernel slice C_1..C_{j-1} with the contiguous
    # N_{j-1}..N_1: a reversed (negative-stride) operand would leave BLAS.
    hist = np.empty(n + 1)
    hist[n] = v0 = forcing[0]
    for j in range(1, n + 1):
        conv = a[j] * v0 + kernel[1:j] @ hist[n - j + 1 : n]
        hist[n - j] = (forcing[j] - r * conv) / denom
    return OracleSolution(grid=grid, values=hist[::-1], rate=rate, forcing=forcing)


def haubold_mathai(
    n0: float, c_rate: float, nu: float, t: float, ctl: SeriesControl | None = None
) -> SeriesResult:
    """Relaxation baseline n0 * E_{nu,1}(-(c_rate * t)**nu) for a constant source."""
    if not c_rate > 0.0:
        raise DomainError(f"c_rate must be > 0, got {c_rate}")
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    r = mittag_leffler(MLParams(nu, 1.0), -(c_rate ** nu) * t ** nu, ctl)
    return SeriesResult(n0 * r.value, r.terms, abs(n0) * r.tail)


def residual(table: SolutionTable, oracle: OracleSolution) -> float:
    """Normalized defect of a candidate solution in the oracle's equation.

    Returns max_j |N_j - F_j + rate**nu (I^nu N)(t_j)| / max(1, max_j |N_j|)
    with the grid, rate and forcing F_j = n0 f(t_j) of ``oracle``, so no
    source is evaluated here.
    """
    grid, values = oracle.grid, np.asarray(table.values)
    integral = grid.rl_integral(values)  # DomainError unless one value per node
    if np.max(np.abs(np.asarray(table.times) - grid.times)) > 1e-12 * max(1.0, grid.t_end):
        raise DomainError("solution table times do not match the quadrature grid")
    worst = float(np.max(np.abs(values - oracle.forcing + oracle.rate ** grid.nu * integral)))
    return worst / max(1.0, float(np.max(np.abs(values))))


def _adaptive_simpson(
    g: Callable[[float], float], a: float, b: float, atol: float, max_depth: int = 40
) -> float:
    """Classic adaptive Simpson with Richardson acceptance."""

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
        elif depth >= max_depth:
            raise EvaluationError(
                f"adaptive Simpson failed to converge on [{x0}, {x2}]"
            )
        else:
            half = 0.5 * tol
            stack.append((x0, xm, f0, flm, f1, s_left, half, depth + 1))
            stack.append((xm, x2, f1, frm, f2, s_right, half, depth + 1))
    return total


def laplace_transform(fn: Callable[[float], float], p: float, rel_tol: float = 1e-8) -> float:
    """int_0^inf exp(-p t) fn(t) dt, truncated where the integrand is negligible.

    The cutoff T* is found by scanning in steps of 1/p until the integrand
    drops below 1e-16 of its running peak; adaptive Simpson then integrates
    [0, T*] to a relative tolerance of ``rel_tol``.
    """
    if not p > 0.0:
        raise DomainError(f"p must be > 0, got {p}")

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
    atol = rel_tol * max(abs(coarse), peak * t_star * 1e-12)
    return _adaptive_simpson(g, 0.0, t_star, atol)


def laplace_check(
    prob: KineticProblem,
    series_solver: Callable[[float], float],
    p: float,
    rel_tol: float = 1e-8,
) -> float:
    """Relative defect of the transform-domain identity
    Ntilde(p) * (1 + rate**nu * p**-nu) = n0 * Ftilde(p).

    ``series_solver`` maps t to the candidate N(t); the transforms of both
    N and the source are taken by numeric quadrature.
    """
    if not (p > prob.d and p > prob.rate):
        raise DomainError(f"laplace_check requires p > rate, got p={p}")
    n_tilde = laplace_transform(series_solver, p, rel_tol)
    f_tilde = laplace_transform(prob.source, p, rel_tol)
    lhs = n_tilde * (1.0 + prob.rate ** prob.nu * p ** (-prob.nu))
    rhs = prob.n0 * f_tilde
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(lhs - rhs) / abs(rhs)
