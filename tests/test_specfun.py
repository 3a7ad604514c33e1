"""Special-function correctness against independent oracles.

Frozen reference values were produced with mpmath at 60 decimal digits by
summing the defining series / identities directly (k-gamma via
k**(g/k-1)*Gamma(g/k), k-Pochhammer via the explicit product); the
snippets are quoted next to each value.
"""

import math

import mpmath
import numpy as np
import pytest

from kkinetics import (
    CancellationError,
    ConvergenceGateError,
    DomainError,
    FoxWrightSpec,
    KBesselParams,
    MLParams,
    NonConvergenceError,
    OverflowLogError,
    SeriesControl,
    fox_wright,
    gen_k_bessel,
    k_bessel_j,
    k_gamma,
    k_pochhammer,
    k_wright_w,
    mittag_leffler,
    scaled_ml,
)
from kkinetics.specfun import _LGAMMA_ARG_MAX, log_k_gamma, log_k_pochhammer

mpmath.mp.dps = 40


# ---------------------------------------------------------------- k-gamma


def test_k_gamma_trivial():
    assert k_gamma(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert k_gamma(2.0, 2.0) == pytest.approx(1.0, rel=1e-15)


def test_k_gamma_derived_value():
    # mpmath: 2**(3/2-1)*gamma(3/2) = 1.2533141373155002512...
    assert k_gamma(3.0, 2.0) == pytest.approx(1.2533141373155003, rel=1e-12)


def test_k_gamma_matches_gamma_at_k_one():
    rng = np.random.default_rng(11)
    for g in rng.uniform(0.05, 10.0, 200):
        assert k_gamma(float(g), 1.0) == pytest.approx(math.gamma(float(g)), rel=1e-13)


def test_k_gamma_overflow_carries_log_value():
    with pytest.raises(OverflowLogError) as exc:
        k_gamma(4000.0, 1.0)
    assert exc.value.log_value == pytest.approx(math.lgamma(4000.0), rel=1e-12)


# ---------------------------------------------------------------- k-Pochhammer


def test_k_pochhammer_trivial():
    assert k_pochhammer(5.0, 0, 2.0) == 1.0
    assert k_pochhammer(2.0, 3, 1.0) == 24.0
    assert k_pochhammer(1.0, 3, 2.0) == 15.0


def test_k_pochhammer_classical_collapse():
    # k=1 must reproduce g(g+1)...(g+n-1) to 1e-13 relative
    rng = np.random.default_rng(3)
    for g in rng.uniform(1e-3, 10.0, 100):
        g = float(g)
        for n in (0, 1, 2, 5, 20):
            classic = 1.0
            for i in range(n):
                classic *= g + i
            assert k_pochhammer(g, n, 1.0) == pytest.approx(classic, rel=1e-13)


def test_k_pochhammer_dual_form_identity():
    # product form vs Gamma_k-ratio form, 1000 randomized samples
    rng = np.random.default_rng(5)
    ks = (0.5, 1.0, 2.0, 3.0)
    for _ in range(1000):
        g = float(rng.uniform(1e-3, 10.0))
        n = int(rng.integers(0, 21))
        k = ks[int(rng.integers(0, 4))]
        ratio = k_gamma(g + n * k, k) / k_gamma(g, k)
        assert k_pochhammer(g, n, k) == pytest.approx(ratio, rel=1e-12)


def test_k_pochhammer_recurrence_exact():
    rng = np.random.default_rng(13)
    for _ in range(200):
        g = float(rng.uniform(0.1, 8.0))
        k = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(0, 20))
        assert k_pochhammer(g, n + 1, k) == k_pochhammer(g, n, k) * (g + n * k)


def test_k_pochhammer_rejects_negative_n():
    with pytest.raises(DomainError):
        k_pochhammer(1.0, -1, 1.0)


@pytest.mark.parametrize("gamma,k", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                     (1.0, math.nan)])
def test_k_calculus_rejects_non_finite_inputs(gamma, k):
    # k_gamma(inf, 1) used to return nan and k_gamma(1, inf) to raise a bare
    # ValueError from lgamma(0)
    for call in (lambda: log_k_gamma(gamma, k), lambda: k_gamma(gamma, k),
                 lambda: log_k_pochhammer(gamma, 2, k), lambda: k_pochhammer(gamma, 2, k)):
        with pytest.raises(DomainError):
            call()


# ---------------------------------------------------------------- Mittag-Leffler


def test_ml_trivial_identities():
    assert mittag_leffler(MLParams(1, 1), 0.0).value == 1.0
    assert mittag_leffler(MLParams(1, 1), 1.0).value == pytest.approx(math.e, rel=1e-14)
    assert mittag_leffler(MLParams(2, 1), -1.0).value == pytest.approx(math.cos(1.0), rel=1e-13)
    assert mittag_leffler(MLParams(1, 2), 1.0).value == pytest.approx(math.e - 1.0, rel=1e-14)


def test_ml_half_order_erfc_values():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); mpmath: e*erfc(1) = 0.42758357615580700441
    assert mittag_leffler(MLParams(0.5, 1), -1.0).value == pytest.approx(
        0.427583576155807, rel=1e-13
    )
    # exp(0.25)*erfc(0.5) = 0.61569034419292587487
    assert mittag_leffler(MLParams(0.5, 1), -0.5).value == pytest.approx(
        0.6156903441929259, rel=1e-13
    )


def test_ml_zero_argument_special_values():
    rng = np.random.default_rng(17)
    for _ in range(50):
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.1, 40.0))
        got = mittag_leffler(MLParams(alpha, beta), 0.0)
        assert got.value == pytest.approx(1.0 / math.gamma(beta), rel=1e-13)
        assert got.terms == 1 and got.tail == 0.0


def test_ml_reports_terms_and_tail():
    res = mittag_leffler(MLParams(1, 1), 1.0)
    assert res.terms > 5
    assert 0.0 <= res.tail < 1e-15


def test_ml_budget_exhaustion():
    with pytest.raises(NonConvergenceError):
        mittag_leffler(MLParams(1, 1), 5.0, SeriesControl(max_terms=4))


def test_ml_negative_guard_pre_bound():
    # |x| beyond 700**alpha is rejected before any summation
    with pytest.raises(CancellationError):
        mittag_leffler(MLParams(1, 1), -750.0)


def test_ml_negative_guard_runtime_monitor():
    # inside the pre-bound but hopelessly cancellation-dominated
    with pytest.raises(CancellationError):
        mittag_leffler(MLParams(1, 1), -100.0)


# ---------------------------------------------------------------- scaled ML


def test_scaled_ml_zero_argument_is_one():
    # Gamma(beta) * E_{alpha,beta}(0) = Gamma(beta)/Gamma(beta) = 1; in
    # particular (alpha=1, beta=3, x=0) -> 1, consistent with the r=0 term
    # exp(lgamma(3) - lgamma(3)) of the fused series.
    assert scaled_ml(MLParams(1, 1), 0.0).value == 1.0
    assert scaled_ml(MLParams(1, 3), 0.0).value == 1.0


def test_ml_params_reject_non_finite_indices():
    # lgamma(inf) = inf, so scaled_ml at x = 0 would be exp(inf - inf) = nan
    for alpha, beta in ((1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)):
        with pytest.raises(DomainError):
            MLParams(alpha, beta)


def test_ml_params_refuse_beta_whose_lgamma_overflows():
    # MLParams(1, 1e306) used to be accepted, and lgamma(beta) then raised a
    # bare OverflowError from inside both Mittag-Leffler sums
    limit = _LGAMMA_ARG_MAX
    assert math.isfinite(math.lgamma(limit))
    with pytest.raises(OverflowError):
        math.lgamma(math.nextafter(limit, math.inf))
    for beta in (limit, 1e306):
        with pytest.raises(DomainError, match="MLParams.beta"):
            MLParams(1.0, beta)
    below = MLParams(1.0, math.nextafter(limit, 0.0))
    assert mittag_leffler(below, 0.0).value == 0.0
    assert scaled_ml(below, 0.0).value == 1.0


def test_scaled_ml_extended_precision_value():
    # mpmath dps=60: sum_r gamma(150)/gamma(150+r/2)*(-2)**r
    #              = 0.85949512556619133978...
    got = scaled_ml(MLParams(0.5, 150.0), -2.0)
    assert got.value == pytest.approx(0.8594951255661913, rel=1e-12)
    assert math.isfinite(got.value)


def test_scaled_ml_consistent_with_plain_ml():
    rng = np.random.default_rng(23)
    for _ in range(100):
        alpha = float(rng.uniform(0.3, 2.5))
        beta = float(rng.uniform(0.2, 60.0))
        x = float(rng.uniform(-3.0, 3.0))
        p = MLParams(alpha, beta)
        lhs = scaled_ml(p, x).value
        rhs = math.gamma(beta) * mittag_leffler(p, x).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------- generalized k-Bessel


FIG_PARAMS = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)


def test_gen_k_bessel_zero_is_zero():
    assert gen_k_bessel(FIG_PARAMS, 0.0).value == 0.0


def test_gen_k_bessel_rejects_negative_z():
    with pytest.raises(DomainError):
        gen_k_bessel(FIG_PARAMS, -0.5)


def test_gen_k_bessel_frozen_values():
    # mpmath dps=60 partial sums of the defining series:
    p = KBesselParams(k=1, gamma=1, lam=1, mu=1, b=1, c=1)
    assert gen_k_bessel(p, 1.0).value == pytest.approx(0.4400505857449335, rel=1e-12)
    assert gen_k_bessel(FIG_PARAMS, 0.5).value == pytest.approx(
        0.1846004745681198, rel=1e-12
    )


@pytest.mark.parametrize("z", [12.0, 15.0, 20.0])
def test_gen_k_bessel_refuses_cancellation(z):
    # the true value is about 0.262; z = 20 used to return -8.6e18
    with pytest.raises(CancellationError, match="^gen_k_bessel: cancellation ratio"):
        gen_k_bessel(FIG_PARAMS, z)


def test_gen_k_bessel_matches_half_j_at_unit_selectors():
    p = KBesselParams(k=1, gamma=1, lam=1, mu=1, b=1, c=1)
    lhs = gen_k_bessel(p, 1.0).value
    rhs = 0.5 * k_bessel_j(1.0, 1.0, 1.0, 1.0, 0.5).value
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gen_k_bessel_small_z_leading_term():
    z = 1e-4
    got = gen_k_bessel(FIG_PARAMS, z).value
    lead = (z / 2.0) ** FIG_PARAMS.mu / k_gamma(
        FIG_PARAMS.mu + (FIG_PARAMS.b + 1.0) / 2.0, FIG_PARAMS.k
    )
    assert got == pytest.approx(lead, rel=1e-6)


def test_gen_k_bessel_zero_c_keeps_leading_term_only():
    p = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=0.0)
    z = 0.8
    expect = (z / 2.0) ** p.mu / k_gamma(p.mu + 2.0, p.k)
    assert gen_k_bessel(p, z).value == pytest.approx(expect, rel=1e-14)


def test_params_reject_invalid_leading_gamma_argument():
    with pytest.raises(DomainError):
        KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=-3.0, c=1.0)
    with pytest.raises(DomainError):
        KBesselParams(k=-1.0, gamma=1.0, lam=1.0, mu=1.0, b=1.0, c=1.0)


def test_params_reject_non_finite_fields():
    # an infinite k used to be accepted and end in "math domain error"
    fields = dict(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    for name in fields:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="KBesselParams"):
                KBesselParams(**{**fields, name: bad})


# ---------------------------------------------------------------- k-Bessel J and k-Wright W


def test_k_bessel_j_at_zero():
    assert k_bessel_j(2.0, 1.5, 1.0, 1.2, 0.0).value == pytest.approx(
        1.0 / k_gamma(2.2, 2.0), rel=1e-14
    )


def test_k_bessel_j_frozen_value():
    # mpmath dps=60 partial sums: 0.41258107308286099768
    got = k_bessel_j(2.0, 2.0, 1.0, 1.0, 1.0)
    assert got.value == pytest.approx(0.412581073082861, rel=1e-12)
    assert got.terms <= 30
    assert got.tail < 1e-15


def test_k_wright_w_at_zero():
    assert k_wright_w(1.5, 1.0, 1.0, 2.0, 0.0).value == pytest.approx(
        1.0 / k_gamma(2.0, 1.5), rel=1e-14
    )


def test_k_wright_w_frozen_value():
    # mpmath dps=60 partial sums with (x/2)^n terms: 0.9387886043841643011
    got = k_wright_w(1.0, 1.0, 1.0, 2.0, -0.25)
    assert got.value == pytest.approx(0.9387886043841643, rel=1e-12)
    assert got.tail < 1e-15


def test_reduced_forms_refuse_cancellation():
    with pytest.raises(CancellationError, match="^k_bessel_j: cancellation ratio"):
        k_bessel_j(2.0, 1.0, 1.0, 1.0, 200.0)
    with pytest.raises(CancellationError, match="^k_wright_w: cancellation ratio"):
        k_wright_w(2.0, 1.0, 1.0, 1.0, -200.0)


def test_reduction_identities_randomized():
    # omega(z; b=c=1) = (z/2)^mu J(z^2/2) and
    # omega(z; b=-1,c=1) = (z/2)^mu W(-z^2/2).
    # The ranges keep the alternating sums well conditioned at z = 4: the
    # identity is exact, but near a zero crossing of the function the two
    # double-precision routes cannot agree to 1e-12 pointwise.
    rng = np.random.default_rng(29)
    for _ in range(30):
        k = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(1.0, 2.5))
        mu = float(rng.uniform(0.2, 1.5))
        for z in (0.1, 0.5, 1.0, 2.0, 4.0):
            pj = KBesselParams(k=k, gamma=g, lam=lam, mu=mu, b=1.0, c=1.0)
            lhs = gen_k_bessel(pj, z).value
            rhs = (z / 2.0) ** mu * k_bessel_j(k, g, lam, mu, z * z / 2.0).value
            assert lhs == pytest.approx(rhs, rel=1e-12), (k, g, lam, mu, z, "J")
            pw = KBesselParams(k=k, gamma=g, lam=lam, mu=mu, b=-1.0, c=1.0)
            lhs = gen_k_bessel(pw, z).value
            rhs = (z / 2.0) ** mu * k_wright_w(k, g, lam, mu, -z * z / 2.0).value
            assert lhs == pytest.approx(rhs, rel=1e-12), (k, g, lam, mu, z, "W")


def test_wright_reduction_at_unit_parameters():
    lhs = gen_k_bessel(KBesselParams(1, 1, 1, 1, -1.0, 1.0), 1.0).value / 0.5
    rhs = k_wright_w(1.0, 1.0, 1.0, 1.0, -0.5).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------- Fox-Wright


def test_fox_wright_unit_spec_is_exp():
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
    assert fox_wright(spec, 1.0).value == pytest.approx(math.e, rel=1e-14)


def test_fox_wright_gate_below_boundary_rejected():
    with pytest.raises(ConvergenceGateError):
        FoxWrightSpec(upper=((1.0, 2.5),), lower=((1.0, 1.0),))


def test_fox_wright_boundary_margin_needs_small_argument():
    # unit-weight 2psi1 sits exactly on the convergence boundary
    spec = FoxWrightSpec(upper=((1.25, 1.0), (2.0, 1.0)), lower=((3.75, 1.0),))
    assert spec.margin == -1.0
    fox_wright(spec, 0.5)  # fine inside the unit disc
    with pytest.raises(ConvergenceGateError):
        fox_wright(spec, 1.2)


def _hyp2f1_oracle(a, b, c, z, terms=300):
    # independent partial sums of 2F1 in extended precision
    s = mpmath.mpf(0)
    num = mpmath.mpf(1)
    for n in range(terms):
        s += num
        num *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
    return s


def test_fox_wright_reduces_to_gauss_hypergeometric():
    a1, a2, b1 = 1.25, 2.0, 3.75
    spec = FoxWrightSpec(upper=((a1, 1.0), (a2, 1.0)), lower=((b1, 1.0),))
    for z in (0.1, 0.3, 0.5):
        want = float(
            mpmath.gamma(a1) * mpmath.gamma(a2) / mpmath.gamma(b1)
            * _hyp2f1_oracle(a1, a2, b1, mpmath.mpf(z))
        )
        assert fox_wright(spec, z).value == pytest.approx(want, rel=1e-12)


def test_fox_wright_pole_within_horizon_names_index():
    # lower argument 2.5 - n crosses zero at n = 3
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((2.5, -1.0), (1.0, 3.0),))
    with pytest.raises(DomainError, match="term index 3"):
        fox_wright(spec, 0.5)


# ---------------------------------------------------------------- truncation honesty


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda ctl: mittag_leffler(MLParams(1, 1), 2.0, ctl),
        lambda ctl: mittag_leffler(MLParams(0.5, 2.0), -1.5, ctl),
        lambda ctl: mittag_leffler(MLParams(2, 1), -4.0, ctl),
        lambda ctl: scaled_ml(MLParams(1, 12.0), -3.0, ctl),
        lambda ctl: gen_k_bessel(FIG_PARAMS, 2.0, ctl),
        lambda ctl: k_bessel_j(2.0, 2.0, 1.0, 1.0, 3.0, ctl),
        lambda ctl: k_wright_w(1.0, 1.0, 1.0, 2.0, -0.8, ctl),
        lambda ctl: fox_wright(
            FoxWrightSpec(upper=((1.25, 1.0), (2.0, 1.0)), lower=((3.75, 1.0),)), 0.5, ctl
        ),
    ],
    ids=["ml_pos", "ml_halforder", "ml_cos", "scaled_ml", "omega", "bessel_j",
         "wright_w", "fox_wright"],
)
def test_tail_estimate_bounds_refinement(evaluate):
    # the tail reported by a loose run must bound how much the value still
    # moves when the truncation horizon is effectively doubled or more
    loose = evaluate(SeriesControl(max_terms=500, rel_tol=1e-6, stagnation_window=2))
    tight = evaluate(SeriesControl(max_terms=1000, rel_tol=1e-15, stagnation_window=3))
    assert tight.terms >= loose.terms
    assert abs(tight.value - loose.value) <= loose.tail
