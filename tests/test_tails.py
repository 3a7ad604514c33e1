"""Reported tails bound the true error, checked against mpmath.

The true values are the defining series summed in mpmath at a precision
set from their conditioning: 30 + log10(sum of |terms| / |value|) digits,
so cancellation cannot eat the reference's own digits.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from kkinetics import (
    CancellationError,
    EvaluationError,
    FoxWrightSpec,
    KBesselParams,
    KineticProblem,
    MLParams,
    Theorem,
    SeriesControl,
    fox_wright,
    gen_k_bessel,
    k_bessel_j,
    mittag_leffler,
    solve_point,
    source_grid,
)
from kkinetics.figures import FIGURES, LAMBDAS, figure_params, figure_problem
from kkinetics.kinetics import _PRODUCT_ARG_MAX, _PowerTable, _gamma_product
from kkinetics.series import EPS, _pow_batch, horner_sum_batch
from kkinetics.specfun import GAMMA_ULPS


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
    """omega(z) summed in mpmath; ``z`` is a number, or a callable that forms
    it at the working precision."""
    def series():
        hz = (z() if callable(z) else mpmath.mpf(z)) / 2
        value = abs_sum = mpmath.mpf(0)
        for n in range(400):
            term = _mp_coefficient(p, n) * hz ** (p.mu + 2 * n)
            value += term
            abs_sum += abs(term)
            if n > 2 and abs(term) < abs_sum * mpmath.mpf(10) ** (-mpmath.mp.dps - 5):
                break
        return value, abs_sum

    return _conditioned(series)


def _mp_source(prob, t):
    """The source value of a variant 2 or 3 problem at t, with z = (d t)**nu formed exactly."""
    return _mp_omega(prob.params, lambda: (mpmath.mpf(prob.d) * mpmath.mpf(t)) ** prob.nu)[0]


def _mp_solution(prob, t):
    """The double series of ``prob`` at t, term by term: (value, sum of every |term|).

    Term (n, m) is c_n (z/2)**(mu+2n) Gamma(beta_n) x**m / Gamma(nu m + beta_n),
    with z and x = -(rate t)**nu formed exactly.  At nu = 1 the sum over m
    is 1F1(1; beta_n; x), and its |terms| sum to 1F1(1; beta_n; |x|).
    """
    def series():
        p = prob.params
        nu, mu, t_ = mpmath.mpf(prob.nu), mpmath.mpf(p.mu), mpmath.mpf(t)
        hz = (t_ if prob.variant == 1 else (mpmath.mpf(prob.d) * t_) ** nu) / 2
        x = (mpmath.mpf(prob.rate) * t_) ** nu
        small = mpmath.mpf(10) ** -mpmath.mp.dps
        value = abs_sum = mpmath.mpf(0)
        for n in range(400):
            beta = mu + 2 * n + 1 if prob.variant == 1 else nu * (mu + 2 * n) + 1
            coeff = _mp_coefficient(p, n) * hz ** (mu + 2 * n)
            if nu == 1:
                inner, abs_inner = mpmath.hyp1f1(1, beta, -x), mpmath.hyp1f1(1, beta, x)
            else:
                inner = abs_inner = mpmath.mpf(0)
                power = mpmath.gamma(beta)
                for m in range(10000):
                    term = power * mpmath.rgamma(nu * m + beta)
                    inner += -term if m % 2 else term
                    abs_inner += term
                    power *= x
                    if m > 2 and term < abs_inner * small:
                        break
            value += coeff * inner
            row = abs(coeff) * abs_inner
            abs_sum += row
            if n > 2 and row < abs_sum * small:
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


@pytest.mark.parametrize("nu", [0.5, 0.75, 1.7])
def test_double_series_tail_bounds_its_error_or_refuses(nu):
    # variant 1 at nu != 1 over the figure family's t-ranges, at the end
    # values of lambda; its inner Mittag-Leffler sums used to drop their
    # errors, which left tails near 5e-23 on errors near 3e-16 at t = 0.5
    for lam in (LAMBDAS[0], LAMBDAS[-1]):
        params = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
        prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=Theorem.T1, params=params)
        for t in (0.5, 1.0, 2.0, 3.0):
            try:
                res = solve_point(prob, t)
            except CancellationError:
                continue
            want, _ = _mp_solution(prob, t)
            assert abs(res.value - want) <= res.tail, (lam, t, res)


@pytest.mark.parametrize("d, lam, t", [
    (3.0, 1.0, 0.861704260651629),
    (3.0, 1.0, 1.0120050125313282),
    (3.0, 2.0, 1.5130075187969922),
    (10.0, 1.0, 0.26050125313283207),
    (10.0, 2.0, 0.4108020050125313),
])
def test_power_series_past_gamma_171_bounds_its_error_or_refuses(d, lam, t):
    # variant 2 at nu = 2 needs a_j past Gamma(171) here; their log route
    # left the coefficients' rounding out of the tail, which came back
    # near 1e-16 on errors of 5e-9 to 9e-4
    params = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=d, nu=2.0, variant=Theorem.T2, params=params)
    try:
        res = solve_point(prob, t)
    except EvaluationError:
        return
    want, _ = _mp_solution(prob, t)
    assert abs(res.value - want) <= res.tail, res


@pytest.mark.parametrize("t", [1.0220253164556963, 1.4268354430379748])
def test_power_series_bound_stays_finite_across_gamma_171(t):
    # at the crossing into 2**F units (j = 17) E_16 * r overflowed the old
    # units while b_16 * r did not, and every later bound was inf
    params = KBesselParams(k=0.9877750016991267, gamma=2.373705840299435, lam=2.94838846193795,
                           mu=0.9097401754213258, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=1.5236375007257736, nu=10.0, variant=Theorem.T2, params=params)
    res = solve_point(prob, t)
    want, _ = _mp_solution(prob, t)
    assert abs(res.value - want) <= res.tail < math.inf, res


def _mp_power_coefficients(prob, count):
    """a_j = sum_{2n+m=j} c_n q**(mu+2n) G_{2n} (-r)**m / G_j for j < count, with
    G_j = Gamma(nu (mu+j) + 1), r = rate**nu and q = d**nu / 2 (1/2 for
    variant 1) formed exactly."""
    p = prob.params
    nu, mu = mpmath.mpf(prob.nu), mpmath.mpf(p.mu)
    r = mpmath.mpf(prob.rate) ** nu
    q = (1 if prob.variant == 1 else mpmath.mpf(prob.d) ** nu) / mpmath.mpf(2)
    gammas = [mpmath.gamma(nu * (mu + j) + 1) for j in range(count)]
    e = [_mp_coefficient(p, n) * q ** (mu + 2 * n) * gammas[2 * n] for n in range((count + 1) // 2)]
    return [mpmath.fsum(e[n] * (-r) ** (j - 2 * n) for n in range(j // 2 + 1)) / gammas[j]
            for j in range(count)]


FIG_PARAMS = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)


@pytest.mark.parametrize("prob, length", [
    # in units of 1, b_j = a_j G_j left the doubles at j = 30, before Gamma(171);
    # in units of 2**F from G_j > 2**512 the table holds the 200 asked for
    (KineticProblem(n0=2.0, d=3.0, nu=5.0, variant=Theorem.T2, params=FIG_PARAMS), 200),
    # q = d**nu / 2 = 1e28: the coefficient term of j = 10 is about exp(705)
    (KineticProblem(n0=2.0, d=2e28, nu=1.0, variant=Theorem.T3, params=FIG_PARAMS, a=1e-30), 10),
    # the figure problem at nu = 2 passes Gamma(171) from j = 85
    (KineticProblem(n0=2.0, d=3.0, nu=2.0, variant=Theorem.T2, params=FIG_PARAMS), 200),
    # every gamma mantissa from lgamma (x = nu (mu+j) + 1 >= 4096), with d
    # = (2 Gamma(4097)**(1/4096))**(1/nu) so that a_0 = 1
    (KineticProblem(n0=2.0, d=(2.0 * math.exp(math.lgamma(4097.0) / 4096.0)) ** (1 / 1.5),
                    nu=1.5, variant=Theorem.T2,
                    params=KBesselParams(k=1, gamma=1, lam=1, mu=4096, b=1, c=1)), 200),
], ids=["nu5", "q1e28", "nu2", "lgamma"])
def test_power_table_coefficients_are_within_their_error_bounds(prob, length):
    # a table of its own: the problem's shared one may have grown further
    table = _PowerTable(prob.params, prob.nu, prob.rate, prob.d)
    for stop in (1, 7, 40, 80, 200):  # grown in steps, as the sums reach further
        table.extend(stop)
    assert len(table.coeffs) == length
    # a conditioned reference: the digits cancellation in a_j can take, plus 30
    worst = max(a_abs / abs(a) for a, a_abs in zip(table.coeffs, table.abs_coeffs))
    with mpmath.workdps(30 + int(math.log10(worst))):
        want = _mp_power_coefficients(prob, len(table.coeffs))
        for j, (a, a_abs, err) in enumerate(zip(table.coeffs, table.abs_coeffs, table.errs)):
            assert abs(a - want[j]) <= EPS * err, j
            # A_j bounds the formed |a_j|, so the exact one by A_j + EPS errs_j
            assert abs(a) <= a_abs and abs(want[j]) <= a_abs + EPS * err, j
            # which is within 1e-12 of A_j while the gamma mantissa is exact to
            # a few ulps; one from lgamma (at j = 1 here 4.3e-12 above A_1) is not
            if prob.nu * (prob.params.mu + j) + 1.0 < _PRODUCT_ARG_MAX:
                assert abs(want[j]) <= a_abs * (1 + 1e-12), j


@pytest.mark.parametrize("x", [171.0, 171.5, 921.0, 2000.25, 4095.75])
def test_gamma_product_is_within_its_rounding_bound(x):
    gamma, f, roundings = _gamma_product(x)
    assert 1.0 <= gamma < 2.0
    with mpmath.workdps(40):
        want = mpmath.gamma(mpmath.mpf(x)) / mpmath.mpf(2) ** f
        assert abs(gamma - want) <= (GAMMA_ULPS + 0.5 * roundings) * EPS * want


def test_power_table_holds_a_j_whose_b_j_overflows():
    # in units of 1 this table ended at j = 30, where b_j = a_j G_j left the
    # doubles (G_j near Gamma(151)) with |a_29| about 1.8e42, and every t
    # from 0.5 on was refused for want of a coefficient; the coefficients
    # themselves are checked by the nu5 case above
    prob = KineticProblem(n0=2.0, d=3.0, nu=5.0, variant=Theorem.T2, params=FIG_PARAMS)
    answered = []
    for t in (0.5, 1.0, 2.0, 4.0):
        try:
            res = solve_point(prob, t)
        except EvaluationError:
            continue
        want, _ = _mp_solution(prob, t)
        assert abs(res.value - want) <= res.tail, (t, res)
        answered.append(t)
    assert answered
    assert len(prob._power_table().coeffs) > 30


@pytest.mark.parametrize("lam", LAMBDAS)
def test_gen_k_bessel_tail_bounds_its_error(lam):
    p = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
    for z in np.linspace(0.0, 6.0, 25)[1:].tolist():
        res = gen_k_bessel(p, z)
        want, _ = _mp_omega(p, z)
        assert abs(res.value - want) <= res.tail, (z, res)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_source_table_tail_bounds_its_error(lam):
    # the Horner batch of source_grid, up to z = 9.55, where the figure
    # source at lambda = 1 is last answered
    p = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
    zs = np.linspace(0.0, 9.55, 41)[1:]
    half = zs / 2.0
    batch = horner_sum_batch(p._table, half * half, _pow_batch(half, p.mu), SeriesControl())
    assert not batch.failed[zs <= 6.0].any()
    for z, value, tail in zip(zs[~batch.failed].tolist(), batch.value[~batch.failed].tolist(),
                              batch.tail[~batch.failed].tolist()):
        want, _ = _mp_omega(p, z)
        assert abs(value - want) <= tail, (z, value, tail)


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


def _mp_k_gamma(x, k):
    x, k = mpmath.mpf(x), mpmath.mpf(k)
    return k ** (x / k - 1) * mpmath.gamma(x / k)


def test_zero_argument_shortcuts_bound_their_error():
    # each shortcut returned a rounded exp(-lgamma(...)) with a tail of 0.0:
    # E_{1,3}(0) came back as 0.5000000000000002, and 1/Gamma(beta) was
    # outside its tail at every beta here
    with mpmath.workdps(40):
        cases = [(mittag_leffler(MLParams(1.3, beta), 0.0), mpmath.rgamma(beta))
                 for beta in np.linspace(0.3, 170.5, 12).tolist()]
        cases += [
            (mittag_leffler(MLParams(1.0, 3.0), 0.0), mpmath.rgamma(3)),
            (k_bessel_j(2.0, 1.0, 1.0, 0.7, 0.0), 1 / _mp_k_gamma(mpmath.mpf(0.7) + 1, 2.0)),
            (fox_wright(FoxWrightSpec(((0.7, 1.0),), ((2.3, 1.0),)), 0.0),
             mpmath.gamma(0.7) / mpmath.gamma(2.3)),
        ]
        for res, want in cases:
            assert abs(res.value - want) <= res.tail, res


def test_terms_below_the_normal_doubles_are_in_the_tail():
    # each came back with a tail of 0.0; the last two are 0.0 against
    # 9.0e-328 and 9.8e-613, and gen_k_bessel was 2.3e-324 off
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T2, params=FIG_PARAMS)
    with mpmath.workdps(40):
        cases = [
            (gen_k_bessel(figure_params(1.0), 1e-320), _mp_omega(figure_params(1.0), 1e-320)[0]),
            (solve_point(prob, 1e-320), _mp_solution(prob, 1e-320)[0]),
            (mittag_leffler(MLParams(1.0, 180.0), 0.0), mpmath.rgamma(180)),
            (mittag_leffler(MLParams(1.0, 300.0), -1.0),
             mpmath.fsum((-1) ** n * mpmath.rgamma(n + 300) for n in range(60))),
        ]
        for res, want in cases:
            assert abs(res.value - want) <= res.tail, res


def test_source_tail_bounds_its_error_where_z_is_not_a_normal_double():
    # variants 2 and 3 with t in [1e-300, 1], most aimed at z = (d t)**nu in
    # [1e-800, 1e-300]: the source sums log(z/2) formed from t.  It used to
    # sum a subnormal z as rounded (up to 2.2e7 tails off) and to refuse
    # most z = 0 where omega is normal.  The grid gives the scalar's value.
    rng = np.random.default_rng(35)
    kinds = set()
    for _ in range(300):
        variant = int(rng.integers(2, 4))
        nu, d = (10.0 ** rng.uniform((-0.3, -3.0), (math.log10(700.0), 1.0))).tolist()
        params = KBesselParams(k=rng.choice([0.5, 1.0, 2.0]), gamma=rng.choice([0.5, 1.0, 3.0]),
                               lam=rng.choice([0.5, 1.0, 2.0]),
                               mu=rng.choice([0.1, 0.25, 0.5, 1.0, 3.0]),
                               b=rng.choice([-1.0, 1.0, 3.0]), c=rng.choice([-2.0, 0.0, 1.0, 2.0]))
        aimed = float(10.0 ** (rng.uniform(-800.0, -300.0) / nu) / d)
        t = aimed if rng.random() < 0.7 else float(10.0 ** rng.uniform(-300.0, 0.0))
        prob = KineticProblem(n0=2.0, d=d, nu=nu, variant=variant, params=params,
                              a=2.0 if variant == 3 else None)
        if not 1e-300 <= t <= 1.0 or prob.z(t) >= sys.float_info.min:
            continue
        kinds.add(prob.z(t) > 0.0)
        res = prob._source_sum(t)
        assert abs(res.value - _mp_source(prob, t)) <= res.tail, (prob, t, res)
        assert source_grid(prob, [0.0, t])[1] == res.value
    assert kinds == {False, True}  # z = 0 and subnormal z
