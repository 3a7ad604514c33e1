"""Reported tails bound the true error, checked against mpmath.

The true values are the defining series summed in mpmath at a precision
set from their conditioning: 30 + log10(sum of |terms| / |value|) digits,
so cancellation cannot eat the reference's own digits.
"""

import math

import mpmath
import numpy as np
import pytest

from kkinetics import CancellationError, KBesselParams, gen_k_bessel, solve_point
from kkinetics.figures import FIGURES, LAMBDAS, figure_problem


def _mp_coefficient(p, n):
    """The z-free factor of term n of omega, in mpmath at the working precision."""
    k, g, lam, mu, b, c = (mpmath.mpf(v) for v in (p.k, p.gamma, p.lam, p.mu, p.b, p.c))
    arg = mu + lam * n + (b + 1) / 2
    return ((-c) ** n * k ** n * mpmath.rf(g / k, n)
            / (k ** (arg / k - 1) * mpmath.gamma(arg / k) * mpmath.factorial(n) ** 2))


def _conditioned(series):
    """``series()`` -> (value, sum of |terms|), evaluated at 30 + log10(ratio) digits."""
    with mpmath.workdps(30):
        value, abs_sum = series()
    digits = 30 + max(0, int(mpmath.ceil(mpmath.log10(abs_sum / max(abs(value), mpmath.mpf(10) ** -300)))))
    with mpmath.workdps(digits):
        return series()


def _mp_omega(p, z):
    def series():
        hz = mpmath.mpf(z) / 2
        value = abs_sum = mpmath.mpf(0)
        for n in range(400):
            term = _mp_coefficient(p, n) * hz ** (p.mu + 2 * n)
            value += term
            abs_sum += abs(term)
            if n > 2 and abs(term) < abs_sum * mpmath.mpf(10) ** (-mpmath.mp.dps - 5):
                break
        return value, abs_sum

    return _conditioned(series)


def _mp_solution(prob, t):
    # at nu = 1, Gamma(beta_n) E_{1,beta_n}(x) = 1F1(1; beta_n; x), and the sum
    # of every |term (n, m)| takes 1F1(1; beta_n; |x|) in its place
    def series():
        p = prob.params
        hz = mpmath.mpf(prob.z(t)) / 2
        x = mpmath.mpf(prob.rate) * mpmath.mpf(t)
        value = abs_sum = mpmath.mpf(0)
        for n in range(400):
            coeff = _mp_coefficient(p, n) * hz ** (p.mu + 2 * n)
            beta = p.mu + 2 * n + 1
            value += coeff * mpmath.hyp1f1(1, beta, -x)
            term = abs(coeff) * mpmath.hyp1f1(1, beta, x)
            abs_sum += term
            if n > 2 and term < abs_sum * mpmath.mpf(10) ** (-mpmath.mp.dps - 5):
                break
        return prob.n0 * value, prob.n0 * abs_sum

    return _conditioned(series)


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_solve_point_tail_bounds_its_error_on_the_figure_family(fig_id):
    # the benchmark's `points` range: each figure's problems over its t-range
    spec = FIGURES[fig_id]
    for lam in LAMBDAS:
        prob = figure_problem(spec, lam)
        for t in np.linspace(0.0, spec.t_end, 7)[1:].tolist():
            res = solve_point(prob, t)
            want, _ = _mp_solution(prob, t)
            assert abs(res.value - want) <= res.tail, (lam, t, res)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_gen_k_bessel_tail_bounds_its_error(lam):
    p = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
    for z in np.linspace(0.0, 6.0, 25)[1:].tolist():
        res = gen_k_bessel(p, z)
        want, _ = _mp_omega(p, z)
        assert abs(res.value - want) <= res.tail, (z, res)


@pytest.mark.parametrize("z", [10.0, 50.0])
def test_gen_k_bessel_refuses_or_bounds_at_large_argument(z):
    # z = 10 returned 0.264352 with a tail of 2.0e-18 and z = 50 returned
    # 2.18e104 with a tail of 4.4e88; the true values are 0.262396 and 0.261735
    p = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    try:
        res = gen_k_bessel(p, z)
    except CancellationError:
        return
    with mpmath.workdps(200):
        hz = mpmath.mpf(z) / 2
        want = mpmath.fsum(_mp_coefficient(p, n) * hz ** (p.mu + 2 * n) for n in range(400))
    assert math.isfinite(res.value) and abs(res.value - want) <= res.tail
