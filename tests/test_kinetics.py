"""Closed-form kinetic solutions: structure, identities, oracle agreement."""

import importlib.util
import json
import math
from collections import Counter
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kkinetics import (
    CancellationError,
    DomainError,
    EvaluationError,
    KBesselParams,
    KineticProblem,
    MLParams,
    NonConvergenceError,
    OverflowLogError,
    QuadratureGrid,
    SeriesControl,
    SolutionTable,
    Theorem,
    corollary_source,
    gen_k_bessel,
    psi_form_source,
    scaled_ml,
    solve_grid,
    solve_point,
    solve_volterra,
    source_grid,
)
from kkinetics import kinetics, specfun
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem
from kkinetics.series import horner_sum
from kkinetics.specfun import log_k_gamma, log_k_pochhammer
from test_batch_reference import assert_batch_is_horner_sum
from test_tails import _mp_solution, _mp_source

FIG_PARAMS = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
KKBENCH = Path(__file__).resolve().parent.parent / "kkbench"


def fig_problem(variant, lam=1.0, a=None, n0=2.0):
    params = KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)
    return KineticProblem(n0=n0, d=3.0, nu=1.0, variant=variant, params=params, a=a)


# ---------------------------------------------------------------- validation


def test_problem_validation():
    with pytest.raises(DomainError):
        fig_problem(Theorem.T1, n0=-1.0)
    with pytest.raises(DomainError):
        KineticProblem(n0=1, d=0.0, nu=1, variant=Theorem.T1, params=FIG_PARAMS)
    with pytest.raises(DomainError):
        KineticProblem(n0=1, d=2, nu=1, variant=Theorem.T3, params=FIG_PARAMS)  # no a
    with pytest.raises(DomainError):
        KineticProblem(n0=1, d=2, nu=1, variant=Theorem.T3, params=FIG_PARAMS, a=2.0)
    for variant in (4, "2"):  # each was solved as variant 2
        with pytest.raises(DomainError, match="variant must be 1, 2 or 3"):
            KineticProblem(n0=1, d=2, nu=1, variant=variant, params=FIG_PARAMS)
    assert KineticProblem(n0=1, d=2, nu=1, variant=2, params=FIG_PARAMS).variant is Theorem.T2


@pytest.mark.parametrize("field", ["n0", "d", "nu", "a"])
def test_problem_rejects_non_finite_fields(field):
    # an infinite n0 used to be accepted and give inf cells
    good = dict(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T3, params=FIG_PARAMS, a=1.0)
    message = "requires a finite a" if field == "a" else f"^{field} must be finite"
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match=message):
            KineticProblem(**{**good, field: bad})


@pytest.mark.parametrize("d,nu,variant,t", [
    (3.0, 700.0, Theorem.T2, 1.0),    # d**nu
    (3.0, 700.0, Theorem.T1, 1.0),    # rate**nu
    (1.0, 1e306, Theorem.T1, 1.0),    # lgamma(nu*m + beta) in the Mittag-Leffler sums
    (0.25, 700.0, Theorem.T2, 5.0),   # t**nu
])
def test_large_order_overflow_is_an_evaluation_error(d, nu, variant, t):
    # each used to end in a bare OverflowError
    prob = KineticProblem(n0=1.0, d=d, nu=nu, variant=variant, params=FIG_PARAMS)
    with pytest.raises(OverflowLogError):
        solve_point(prob, t)
    with pytest.raises(OverflowLogError):
        solve_grid(prob, [0.0, t])


def _extreme(**fields):
    return KBesselParams(**{"k": 2.0, "gamma": 1.0, "lam": 1.0, "mu": 1.0, "b": 3.0, "c": 2.0,
                            **fields})


def _solve_extreme(how, variant, nu, mu):
    prob = KineticProblem(n0=1.0, d=1.0, nu=nu, variant=variant, params=_extreme(mu=mu),
                          a=2.0 if variant == 3 else None)
    return solve_point(prob, 0.8) if how == "point" else solve_grid(prob, [0.5, 0.8])


_EXTREME_CALLS = {
    "gamma_over_k_1e306": lambda: KBesselParams(k=1.0, gamma=1e306, lam=1.0, mu=1.0, b=1.0,
                                                c=1.0),
    # gamma/k, or the leading k-gamma argument over k, underflows to 0, whose
    # lgamma is a math domain error (a bare ValueError from gen_k_bessel)
    "gamma_over_k_underflow": lambda: KBesselParams(k=1e300, gamma=1e-300, lam=1.0, mu=1.0,
                                                    b=1.0, c=1.0),
    "leading_argument_underflow": lambda: KBesselParams(k=1e300, gamma=1.0, lam=1.0,
                                                        mu=1e-300, b=-1.0, c=1.0),
    "omega_mu_1e306": lambda: gen_k_bessel(_extreme(mu=1e306), 0.8),
    "omega_lam_1e306": lambda: gen_k_bessel(_extreme(lam=1e306), 0.8),
    "omega_mu_1e305": lambda: gen_k_bessel(_extreme(mu=1e305), 0.8),
    "source_grid_mu_1e306": lambda: source_grid(
        KineticProblem(n0=1.0, d=1.0, nu=1.0, variant=Theorem.T2, params=_extreme(mu=1e306)),
        [0.5, 1.0]),
    "psi_form_mu_1e306": lambda: psi_form_source(_extreme(mu=1e306), 0.8),
    **{f"v{int(variant)}_nu_{nu}_{how}_mu_{mu:.0e}": partial(_solve_extreme, how, variant, nu, mu)
       for variant, nu, mu in [(Theorem.T1, 0.5, 1e306), (Theorem.T1, 1.0, 1e305),
                               (Theorem.T2, 1.0, 1e305), (Theorem.T1, 1.0, 2e305),
                               (Theorem.T2, 1.0, 2e305), (Theorem.T2, 0.5, 2e305),
                               (Theorem.T3, 0.5, 2e305)]
       for how in ("point", "grid")},
}


@pytest.mark.parametrize("name", sorted(_EXTREME_CALLS))
def test_extreme_k_bessel_parameters_are_refused(name):
    # each ended in a bare OverflowError or ZeroDivisionError, or (omega at
    # mu = 1e305) answered 0.0 with a nan tail: a lgamma past the double
    # range, a log bound that overflowed, or F log 2 that no longer split off
    # a mantissa in the power table's lgamma route
    with pytest.raises(EvaluationError):
        _EXTREME_CALLS[name]()


@pytest.mark.parametrize("nu, length", [(1e13, 1), (2e13, 0)])
def test_power_table_ends_where_its_gamma_bound_reaches_one(nu, length):
    # the lgamma route's bound on G_0 = Gamma(nu mu + 1), in EPS, is about
    # 0.7 / EPS at nu = 1e13 and 1.5 / EPS at nu = 2e13: the table ends there
    prob = KineticProblem(n0=1.0, d=1.0, nu=nu, variant=Theorem.T2, params=FIG_PARAMS)
    assert prob._power_table().extend(4) == length


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_large_order_in_range_source_argument_is_evaluated(t):
    # 3**700 alone overflows, but (3 t)**700 is 0 at t = 0 and underflows to 0
    # at t = 0.1, where omega = c_0 z/2 (about 1e-366) rounds to 0 too; both
    # points used to be refused
    prob = KineticProblem(n0=1.0, d=3.0, nu=700.0, variant=Theorem.T2, params=FIG_PARAMS)
    assert prob.source(t) == 0.0
    assert source_grid(prob, [t]) == (0.0,)
    if t == 0.0:
        assert solve_point(prob, t).value == 0.0
        assert solve_grid(prob, [t]).values == (0.0,)
        return
    # r = 3**700 leaves the doubles, so the solution's table holds no
    # coefficient and refuses t = 0.1; it used to answer 0 with tail 0
    with pytest.raises(OverflowLogError) as point:
        solve_point(prob, t)
    with pytest.raises(OverflowLogError) as grid:
        solve_grid(prob, [0.0, t])
    assert str(grid.value) == str(point.value)


def test_underflowing_source_argument_is_summed_by_the_table():
    # z = d t = 1e-325 underflows to 0, but t and the table are in range: the
    # solution is n0 c_0 (z/2)**mu, not 0 (mpmath, z formed exactly from the doubles)
    prob = KineticProblem(n0=2.0, d=1e-10, nu=1.0, variant=Theorem.T2,
                          params=KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=0.25, b=3.0, c=2.0))
    t = 1e-315
    assert prob.z(t) == 0.0
    res = solve_point(prob, t)
    assert abs(res.value - 9.20897904589039e-82) <= res.tail < 1e-12 * res.value
    grid = solve_grid(prob, [0.0, t])
    assert grid.values[1] == res.value and grid.terms[1] == res.terms
    assert grid.tails[1] == res.tail


def test_rate_power_that_underflows_is_refused_not_answered_zero():
    # r = d**nu = 1e-400 underflows, so the power table holds no coefficient,
    # and z(t) = (d t)**nu underflows to 0 too: the point used to answer 0
    # with tail 0, where the leading term n0 c_0 (z/2)**mu alone is normal
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=0.25, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=1e-200, nu=2.0, variant=Theorem.T2, params=params)
    assert prob._power_table().extend(1) == 0
    _, log_c0 = specfun.k_bessel_log_coefficient(params, 0)
    for t, lead in ((1e-10, 1.6e-105), (1.0, 1.6e-100)):
        assert prob.z(t) == 0.0
        log_half_z = prob.nu * (math.log(prob.d) + math.log(t)) - math.log(2.0)
        assert math.exp(math.log(prob.n0) + log_c0 + params.mu * log_half_z) == pytest.approx(
            lead, rel=0.05, abs=0.0)
        with pytest.raises(EvaluationError) as point:
            solve_point(prob, t)
        with pytest.raises(EvaluationError) as grid:
            solve_grid(prob, [0.0, t])
        assert type(grid.value) is type(point.value) and str(grid.value) == str(point.value)


def _refusal(call):
    with pytest.raises(EvaluationError) as refused:
        call()
    return type(refused.value), str(refused.value)


@pytest.mark.parametrize("variant, d, a, nu, mu, t, lead", [
    (Theorem.T2, 0.01, None, 40.0, 0.5, 1e-8, 1.3e-200),
    (Theorem.T3, 0.5, 1.0, 300.0, 0.1, 0.01, 1.7e-69),
    (Theorem.T2, 3.0, None, 700.0, 0.25, 0.1, 5.1e-92),
])
def test_a_time_the_table_refuses_is_refused_not_answered_zero(variant, d, a, nu, mu, t, lead):
    # z(t) = (d t)**nu underflows to 0 and the table refuses t: each point
    # used to answer 0 with tail 0, where the leading term n0 c_0 (z/2)**mu
    # alone is a normal double
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=mu, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=d, nu=nu, variant=variant, params=params, a=a)
    assert prob.z(t) == 0.0
    _, log_c0 = specfun.k_bessel_log_coefficient(params, 0)
    log_half_z = nu * (math.log(d) + math.log(t)) - math.log(2.0)
    assert math.exp(math.log(prob.n0) + log_c0 + mu * log_half_z) == pytest.approx(
        lead, rel=0.05, abs=0.0)
    refused = _refusal(lambda: solve_point(prob, t))
    assert refused[0] is OverflowLogError
    assert refused == _refusal(lambda: solve_grid(prob, [0.0, t]))


def test_seeded_slice_answers_no_zero_at_a_positive_time():
    # variants 2 and 3 at large nu, where z(t) underflows over much of the
    # range: every answer at t > 0 comes from the table, and a grid answers
    # or refuses as its point call does
    rng = np.random.default_rng(33)
    answered = 0
    for _ in range(300):
        variant = int(rng.integers(2, 4))
        nu = float(rng.uniform(20.0, 700.0))
        d, a = (float(x) for x in 10.0 ** rng.uniform(-2.0, 1.0, 2))
        mu = float(rng.choice([0.1, 0.25, 0.5, 1.0, 2.0]))
        t = float(10.0 ** rng.uniform(-10.0, 0.0))
        prob = KineticProblem(n0=2.0, d=d, nu=nu, variant=variant, a=a,
                              params=KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=mu, b=3.0, c=2.0))
        try:
            res = solve_point(prob, t)
        except EvaluationError as exc:
            assert _refusal(lambda: solve_grid(prob, [0.0, t])) == (type(exc), str(exc))
            continue
        answered += 1
        assert not (res.value == 0.0 and res.tail == 0.0)
        grid = solve_grid(prob, [0.0, t])
        assert (grid.values[1], grid.terms[1], grid.tails[1]) == res
    assert answered > 0


def test_solvers_form_no_source_or_rate_argument(monkeypatch):
    # the table alone answers or refuses each time: no solver forms z(t) or (rate t)**nu
    calls = []
    z = KineticProblem.z
    monkeypatch.setattr(KineticProblem, "z", lambda prob, t: calls.append(t) or z(prob, t))
    assert not hasattr(KineticProblem, "ml_arg")
    for spec in FIGURES.values():
        for lam in LAMBDAS:
            prob = figure_problem(spec, lam)
            solve_grid(prob, figure_grid(spec))
            for t in figure_grid(spec)[::25].tolist():
                solve_point(prob, t)
    assert calls == []
    prob = fig_problem(Theorem.T2)
    prob.source(0.5)
    assert calls == [0.5]


@pytest.mark.parametrize("mu, d, nu, t, want", [
    # z = (0.01 t)**40 is the subnormal 1e-320 at t = 1e-6: summed at that
    # rounded z, omega was 6.560002457378334e-161, 2.2e7 tails off
    (0.5, 0.01, 40.0, 1e-6, 6.560038973337526e-161),
    # z underflows to 0 at t = 1e-8 and 1e-12, where omega is normal: both were refused
    (0.5, 0.01, 40.0, 1e-8, 6.560038973337535e-201),
    (0.5, 0.01, 40.0, 1e-12, 6.560038973337529e-281),
    # z = 1e-720: omega, about 6.6e-361, rounds to 0 within its tail
    (0.5, 0.01, 40.0, 1e-16, 0.0),
    # z = (1e-3 t)**2 is the subnormal 1e-316: 3.3e4 tails off at the rounded z
    (0.25, 1e-3, 2.0, 1e-155, 8.188068915501398e-80),
], ids=["subnormal", "zero", "zero_1e-12", "omega_zero", "subnormal_mu_quarter"])
def test_source_sums_an_argument_that_is_not_a_normal_double_from_t(mu, d, nu, t, want):
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=mu, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=d, nu=nu, variant=Theorem.T2, params=params)
    assert prob.z(t) < DBL_MIN
    res = prob._source_sum(t)
    assert res.value == prob.source(t) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert abs(res.value - _mp_source(prob, t)) <= res.tail
    assert source_grid(prob, [0.0, t, 1.0])[1] == res.value


def test_solution_grid_forms_no_source_argument(monkeypatch):
    calls = []
    source_arguments = kinetics._source_arguments
    monkeypatch.setattr(kinetics, "_source_arguments",
                        lambda prob, times: calls.append(times) or source_arguments(prob, times))
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T2, params=FIG_PARAMS)
    times = np.linspace(0.0, 0.5, 101)
    solve_grid(prob, times)
    assert calls == []
    source_grid(prob, times)
    assert len(calls) == 1


def test_power_arguments_are_finite_or_refused():
    # d * t past the double range: a finite (d t)**nu is returned, never inf
    prob = KineticProblem(n0=1.0, d=1e300, nu=0.5, variant=Theorem.T2, params=FIG_PARAMS)
    assert prob.z(1e300) == pytest.approx(1e300, rel=1e-14)
    prob = KineticProblem(n0=1.0, d=1e300, nu=1.0, variant=Theorem.T2, params=FIG_PARAMS)
    with pytest.raises(OverflowLogError):
        prob.z(1e300)


@pytest.mark.parametrize("nu", [0.5, 1.0])
@pytest.mark.parametrize("variant", list(Theorem))
def test_negative_time_is_a_domain_error(variant, nu):
    # at nu = 0.5, t**nu went complex and source(-0.5) ended in a bare TypeError;
    # a nan time passed `t < 0` and ran the whole term budget on nan terms
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=FIG_PARAMS, a=1.0)
    for t, shown in ((-0.5, r"-0\.5"), (math.nan, "nan")):
        for evaluate in (prob.z, prob.source, lambda t: solve_point(prob, t),
                         lambda t: source_grid(prob, [0.0, t])):
            with pytest.raises(DomainError, match=rf"^t must be >= 0, got {shown}$"):
                evaluate(t)
        with pytest.raises(DomainError, match=rf"^grid times must be >= 0, got {shown}$"):
            solve_grid(prob, [t])


# ---------------------------------------------------------------- basic structure


def test_all_variants_vanish_at_zero():
    assert solve_point(fig_problem(Theorem.T1), 0.0).value == 0.0
    assert solve_point(fig_problem(Theorem.T2), 0.0).value == 0.0
    assert solve_point(fig_problem(Theorem.T3, a=1.0), 0.0).value == 0.0


def test_homogeneity_in_initial_density():
    # N0 is a scalar prefactor; doubling it scales exactly (powers of two
    # commute with float multiplication)
    for variant, a in ((Theorem.T1, None), (Theorem.T2, None), (Theorem.T3, 1.0)):
        base = fig_problem(variant, a=a, n0=2.0)
        four = fig_problem(variant, a=a, n0=8.0)
        for t in (0.01, 0.03):
            assert solve_point(four, t).value == 4.0 * solve_point(base, t).value


def test_theorem1_positive_on_unit_interval():
    prob = fig_problem(Theorem.T1)
    for t in np.linspace(0.01, 1.0, 100):
        assert solve_point(prob, float(t)).value > 0.0


def test_theorem2_positive_on_short_interval():
    prob = fig_problem(Theorem.T2, lam=1.5)
    for t in np.linspace(0.0005, 0.05, 100):
        assert solve_point(prob, float(t)).value > 0.0


def test_theorem2_theorem3_coincide_at_equal_rates():
    # the variant-3 formula at a = d is the variant-2 formula; the shared
    # solver makes the equality bit-for-bit.  KineticProblem refuses a = d
    # for variant 3, so the guard is bypassed on purpose to evaluate it.
    prob2 = fig_problem(Theorem.T2)
    prob3 = fig_problem(Theorem.T3, a=2.0 * prob2.d)
    object.__setattr__(prob3, "a", prob2.d)
    for t in np.linspace(0.0, 0.05, 21):
        t = float(t)
        assert solve_point(prob2, t).value == solve_point(prob3, t).value


def test_layers_are_reached_through_module_attributes(monkeypatch):
    # The benchmark times each layer by replacing these module attributes
    # with wrappers; a call that bypasses them would read as zero work.
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__ + "." + name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # kkbench/tracer.py patches these three by name, so kinetics keeps them
    count(kinetics, "scaled_ml")
    count(kinetics, "sum_log_terms")
    count(kinetics, "gen_k_bessel")
    count(kinetics, "horner_sum")
    count(kinetics, "horner_sum_batch")
    count(specfun, "sum_log_terms")
    # variant 1 at nu != 1 sums its two-dimensional table itself, on both
    # routes: no log sums and no inner sums
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T1, params=FIG_PARAMS)
    assert solve_point(prob, 0.5).terms > 1
    solve_grid(prob, np.linspace(0.0, 1.0, 11))
    assert calls == {}
    # at nu = 1 the exponents align: one power series summed by Horner, with
    # no log sums and no inner sums
    calls.clear()
    prob = fig_problem(Theorem.T1)
    assert solve_point(prob, 0.5).terms > 1
    assert calls == {"kkinetics.kinetics.horner_sum": 1}
    # the source on a grid it refuses nowhere: one Horner batch, no scalar call
    calls.clear()
    source_grid(prob, np.linspace(0.0, 1.0, 11))
    assert calls == {"kkinetics.kinetics.horner_sum_batch": 1}
    calls.clear()
    solve_grid(prob, np.linspace(0.0, 1.0, 11))
    assert calls == {"kkinetics.kinetics.horner_sum_batch": 1}
    # the scalar source sums on the same table as its grid: one Horner sum
    calls.clear()
    prob.source(0.5)
    assert calls == {"kkinetics.kinetics.horner_sum": 1}
    calls.clear()
    specfun.mittag_leffler(MLParams(0.5, 1.0), -1.0)
    specfun.scaled_ml(MLParams(0.5, 3.0), -1.0)
    assert calls == {"kkinetics.specfun.sum_log_terms": 2}


# ---------------------------------------------------------------- oracle spot checks


def test_theorem1_matches_volterra_at_half():
    prob = fig_problem(Theorem.T1)
    grid = QuadratureGrid(0.5, 1024, prob.nu)  # h = 1/2048
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    got = solve_point(prob, 0.5).value
    assert got == pytest.approx(float(oracle.values[-1]), rel=5e-4)


def test_theorem3_matches_volterra_on_fig6_setup():
    prob = fig_problem(Theorem.T3, lam=2.0, a=1.0)
    grid = QuadratureGrid(0.05, 128, prob.nu)
    oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
    got = solve_point(prob, 0.05).value
    assert got > 0.0
    assert got == pytest.approx(float(oracle.values[-1]), rel=5e-4)


def test_unit_order_integrating_factor_route():
    # nu=1 reduces variant 1 to N' = N0 w' - d N, N(0)=0, whose exact
    # solution is N(t) = N0 (w(t) - d e^{-dt} int_0^t e^{ds} w(s) ds);
    # composite Simpson on the smooth integrand is a third independent
    # route, and it confirms the zero crossing past t ~ 1.845
    prob = fig_problem(Theorem.T1)

    def n_exact(t, panels=400):
        xs = np.linspace(0.0, t, 2 * panels + 1)
        g = np.array([math.exp(prob.d * (x - t)) * prob.source(float(x)) for x in xs])
        integral = (t / (6.0 * panels)) * (
            g[0] + g[-1] + 4.0 * g[1::2].sum() + 2.0 * g[2:-1:2].sum()
        )
        return prob.n0 * (prob.source(t) - prob.d * integral)

    for t, expect_sign in ((1.0, 1.0), (2.0, -1.0), (3.0, -1.0)):
        got = solve_point(prob, t).value
        want = n_exact(t)
        assert got == pytest.approx(want, abs=5e-8)
        assert math.copysign(1.0, got) == expect_sign


def test_first_order_limit_satisfies_ode():
    # with nu=1 the variant-1 equation differentiates to N' = N0 w' - d N;
    # checked by central differences (mu=2 makes the source differentiable)
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=2.0, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1, params=params)
    h = 1e-4
    for t in (0.2, 0.5, 0.8):
        n_prime = (
            solve_point(prob, t + h).value - solve_point(prob, t - h).value
        ) / (2 * h)
        f_prime = (prob.source(t + h) - prob.source(t - h)) / (2 * h)
        defect = n_prime - prob.n0 * f_prime + prob.d * solve_point(prob, t).value
        assert abs(defect) < 1e-3


# ---------------------------------------------------------------- grids


def test_solve_grid_empty_and_singleton():
    prob = fig_problem(Theorem.T1)
    empty = solve_grid(prob, [])
    assert empty == SolutionTable((), (), (), (), prob)
    assert len(empty) == 0
    single = solve_grid(prob, [0.0])
    assert single == SolutionTable((0.0,), (0.0,), (1,), (0.0,), prob)


def test_solve_grid_validates_ordering():
    prob = fig_problem(Theorem.T1)
    with pytest.raises(DomainError):
        solve_grid(prob, [0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        solve_grid(prob, [-0.1, 0.5])


def test_solve_grid_table_holds_read_only_arrays():
    prob = fig_problem(Theorem.T1)
    table = solve_grid(prob, np.linspace(0.0, 1.0, 101))
    for column in (table.times, table.values, table.tails):
        assert type(column) is np.ndarray and column.dtype == np.float64 and column.ndim == 1
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
    # the benchmark's tracer writes sum(terms) into JSON: numpy ints would not serialize
    assert type(table.terms) is tuple and all(type(n) is int for n in table.terms)
    assert json.loads(json.dumps(sum(table.terms))) == sum(table.terms)
    with pytest.raises(TypeError):
        hash(table)


def test_solution_table_from_sequences_equals_the_grid_table():
    prob = fig_problem(Theorem.T2)
    table = solve_grid(prob, np.linspace(0.0, 0.05, 11))
    rebuilt = SolutionTable(tuple(table.times.tolist()), list(table.values.tolist()),
                            np.array(table.terms), tuple(table.tails.tolist()), prob)
    assert rebuilt == table and not rebuilt != table
    assert type(rebuilt.terms) is tuple and all(type(n) is int for n in rebuilt.terms)
    assert not rebuilt.values.flags.writeable
    # a writable array given by the caller is copied, not frozen in place
    values = np.array(table.values)
    copied = SolutionTable(table.times, values, table.terms, table.tails, prob)
    assert copied.values is not values and values.flags.writeable
    values[1] += 1.0
    assert copied == table and SolutionTable(table.times, values, table.terms, table.tails,
                                             prob) != table
    # so is a read-only view of one, which would change with it
    view = values.view()
    view.flags.writeable = False
    for shared in (view, np.broadcast_to(values, values.shape)):
        before = np.array(shared)
        kept = SolutionTable(table.times, shared, table.terms, table.tails, prob)
        values[1] += 1.0
        assert np.array_equal(kept.values, before) and not np.array_equal(kept.values, shared)
    # so are a table's own read-only columns, and read-only views of them
    for column in (table.values, table.values[:5]):
        n = len(column)
        built = SolutionTable(table.times[:n], column, table.terms[:n], table.tails[:n], prob)
        assert not np.shares_memory(built.values, table.values) and not built.values.flags.writeable
        assert np.array_equal(built.values, column)
    with pytest.raises(DomainError):
        SolutionTable(table.times, table.values[:-1], table.terms, table.tails, prob)
    with pytest.raises(DomainError):
        SolutionTable(table.times[::-1], table.values, table.terms, table.tails, prob)


def test_solve_grid_tables_equal_tables_the_constructor_builds():
    # solve_grid builds its table without running the constructor's checks
    # again: it must be the table the constructor builds from its columns
    for spec in FIGURES.values():
        grid = figure_grid(spec)
        for lam in (LAMBDAS[0], LAMBDAS[-1]):
            prob = figure_problem(spec, lam)
            table = solve_grid(prob, grid)
            columns = (table.times, table.values, table.terms, table.tails)
            for built in (SolutionTable(*columns, prob),
                          SolutionTable(*(list(column) for column in columns), prob)):
                assert built == table and table == built
                assert all(type(n) is int for n in built.terms)


def test_solve_grid_columns_are_read_only_and_shared_with_no_caller_array():
    prob = fig_problem(Theorem.T2)
    grid = np.linspace(0.0, 0.05, 201)
    table = solve_grid(prob, grid)
    for column in (table.times, table.values, table.tails):
        assert type(column) is np.ndarray and column.dtype == np.float64
        assert not column.flags.writeable and not np.shares_memory(column, grid)
        with pytest.raises(ValueError):
            column[1] = 1.0
    times = table.times.copy()
    grid[1] = 0.5
    assert np.array_equal(table.times, times)


def test_solve_grid_at_sums_past_the_doubles_is_the_point_calls():
    # at n0 = 1e308 the sum of |terms| overflows at t = 1 although the value
    # does not: the batch fails those points, and the point call's Horner
    # sum hands them to its log route
    prob = fig_problem(Theorem.T1, n0=1e308)
    grid = np.linspace(0.0, 1.0, 5)
    table = solve_grid(prob, grid)
    for t, value, terms, tail in zip(grid.tolist(), table.values.tolist(), table.terms,
                                     table.tails.tolist()):
        res = solve_point(prob, t)
        assert (res.value, res.terms, res.tail) == (value, terms, tail)
    assert 0.0 < table.values[-1] < math.inf


def test_power_table_ends_where_a_gamma_argument_leaves_lgamma():
    # at nu = 1e306 the first gamma argument nu * mu + 1 is past the range of lgamma
    prob = KineticProblem(n0=1.0, d=1.0, nu=1e306, variant=Theorem.T2, params=FIG_PARAMS)
    with pytest.raises(OverflowLogError, match="needs a coefficient outside the normal doubles"):
        solve_point(prob, 1.0)


@pytest.mark.parametrize("grid, message", [
    ([-0.1, 0.0, 0.1], "grid times must be >= 0, got -0.1"),
    ([0.0, -0.1, 0.1], "grid times must be >= 0, got -0.1"),
    ([0.0, 0.2, 0.1], "grid times must be strictly increasing"),
    ([0.0, 0.1, 0.1], "grid times must be strictly increasing"),
    ([0.1, 0.0], "grid times must be strictly increasing"),
    ([math.nan, 0.1], "grid times must be >= 0, got nan"),
    ([0.0, math.nan, 0.1], "grid times must be >= 0, got nan"),
    ([0.0, 0.1, math.nan], "grid times must be >= 0, got nan"),
])
def test_solve_grid_refuses_negative_unordered_and_nan_grids(grid, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        solve_grid(fig_problem(Theorem.T2), grid)


def test_solution_table_refuses_two_dimensional_columns_and_compares_only_tables():
    prob = fig_problem(Theorem.T2)
    with pytest.raises(DomainError, match="columns must be one-dimensional"):
        SolutionTable([[0.0, 0.5]], [[0.0, 1.0]], (1,), [[0.0, 0.0]], prob)
    table = solve_grid(prob, [0.0, 0.05])
    assert (table == object()) is False and table != object()


def test_problem_refuses_a_bool_variant():
    # True == 1, so Theorem(True) would have solved variant 1
    with pytest.raises(DomainError, match="variant must be 1, 2 or 3, got True"):
        KineticProblem(n0=1, d=2, nu=1, variant=True, params=FIG_PARAMS)


def test_grids_refuse_a_grid_that_is_not_one_dimensional():
    # a nested list used to end in a bare IndexError
    prob = fig_problem(Theorem.T1)
    for grid in ([[0.1, 0.2]], 0.5):
        with pytest.raises(DomainError, match="one-dimensional"):
            solve_grid(prob, grid)
        with pytest.raises(DomainError, match="one-dimensional"):
            source_grid(prob, grid)


def test_solve_grid_fig1_metadata():
    prob = fig_problem(Theorem.T1)
    table = solve_grid(prob, np.linspace(0.0, 1.0, 101))
    assert len(table) == 101
    assert max(table.tails) <= 1e-12
    assert all(n >= 1 for n in table.terms)
    assert table.problem is prob



# ---------------------------------------------------------------- batched grid vs pointwise


def _assert_grid_matches_points(table, indices, points, rel=0.0):
    # term counts and stopping decisions are exact.  The power series runs
    # the same operations in the same order on both routes, so values and
    # tails are equal; on the double series they may differ in the last
    # bits (rel = 1e-12) because numpy's exp is not libm's
    scale = max(1.0, max(abs(r.value) for r in points))
    for i, r in zip(indices, points):
        assert table.terms[i] == r.terms, i
        assert abs(table.values[i] - r.value) <= rel * scale, i
        assert abs(table.tails[i] - r.tail) <= rel * r.tail, i


def _first_non_positive(times, values):
    return next((i for i, (t, v) in enumerate(zip(times, values)) if t > 0.0 and not v > 0.0),
                None)


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_solve_grid_matches_solve_point_on_figure_sweeps(fig_id):
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    for lam in LAMBDAS:
        prob = figure_problem(spec, lam)
        table = solve_grid(prob, grid)
        points = [solve_point(prob, float(t)) for t in grid]
        _assert_grid_matches_points(table, range(len(grid)), points)
        assert _first_non_positive(table.times, table.values) == _first_non_positive(
            table.times, [r.value for r in points]
        )


@pytest.mark.parametrize("nu", [0.3, 0.75, 1.7])
@pytest.mark.parametrize("variant", [Theorem.T2, Theorem.T3])
def test_solve_grid_matches_solve_point_at_any_order(variant, nu):
    # s = t**nu and s**mu are libm's pow on both routes
    a = 1.0 if variant == Theorem.T3 else None
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=FIG_PARAMS, a=a)
    grid = np.linspace(0.0, 0.5, 201)
    _assert_grid_matches_points(solve_grid(prob, grid), range(len(grid)),
                                [solve_point(prob, t) for t in grid.tolist()])


def test_solve_grid_matches_solve_point_on_the_verify_grid():
    # the figure-1 job at h = 1/2048, bit for bit at every node
    grid = np.linspace(0.0, 1.0, 2049)
    for lam in LAMBDAS:
        prob = figure_problem(FIGURES[1], lam)
        table = solve_grid(prob, grid)
        _assert_grid_matches_points(table, range(len(grid)),
                                    [solve_point(prob, t) for t in grid.tolist()])


@pytest.mark.parametrize("nu, params", [
    (0.3, FIG_PARAMS), (0.5, FIG_PARAMS), (0.75, FIG_PARAMS), (1.7, FIG_PARAMS), (2.0, FIG_PARAMS),
    # rows of c_n = 0 (exact zeros), and gamma ratios past Gamma(171)
    (0.5, KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=1.0, c=0.0)),
    (60.0, KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=1.0, c=1.0)),
], ids=["0.3", "0.5", "0.75", "1.7", "2.0", "c0", "nu60"])
def test_solve_grid_matches_solve_point_on_the_double_series(nu, params):
    # variant 1 at nu != 1: both routes run one evaluator, and each point
    # takes the operations of a batch of one
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=Theorem.T1, params=params)
    grid = np.linspace(0.0, 2.0, 401)
    _assert_grid_matches_points(solve_grid(prob, grid), range(len(grid)),
                                [solve_point(prob, t) for t in grid.tolist()])


def test_outer_sum_refuses_cancellation():
    # variant 2 at t = 4 used to return -65.47 with a tail of 3.3e-16
    with pytest.raises(CancellationError, match="^solve_point: cancellation ratio"):
        solve_point(fig_problem(Theorem.T2), 4.0)


def _earliest_point_failure(prob, grid, ctl):
    for t in grid:
        try:
            solve_point(prob, float(t), ctl)
        except EvaluationError as exc:
            return exc
    raise AssertionError("no grid point fails")


@pytest.mark.parametrize(
    "variant, nu, grid, ctl, expected, refused_by",
    [
        # the two-dimensional table (variant 1 at nu != 1): the column
        # budget runs out first near t = 0.31
        (Theorem.T1, 0.5, np.linspace(0.0, 0.5, 600), SeriesControl(max_terms=35),
         NonConvergenceError, "solve_point: no stagnation"),
        # at t = 300 the leads underflow (from n = 122) before the sum over rows stops
        (Theorem.T1, 0.5, [0.0, 0.5, 300.0], None, OverflowLogError,
         "solve_point: at t = 300.0 the double series needs"),
        # the guard on the sum of every |term| trips first at t = 9.25
        (Theorem.T1, 2.0, np.linspace(0.0, 15.0, 61), None, CancellationError,
         "solve_point: cancellation ratio"),
        # the rest is the power series, refused by its absolute table
        (Theorem.T2, 0.5, np.linspace(0.0, 60.0, 61), None, CancellationError,
         "solve_point: cancellation ratio"),
        (Theorem.T2, 1.0, [0.0, 1.0, 2.0, 3.0, 4.0], None, CancellationError,
         "solve_point: cancellation ratio"),
        # r = 3**700 leaves the doubles, so the table holds no coefficient
        # and refuses t = 0.1, where z underflows to 0 (it used to answer 0
        # there); the batch used to warn dividing by a zero magnitude before
        # the refusal
        (Theorem.T2, 700.0, [0.0, 0.1, 0.5], None, OverflowLogError,
         "solve_point: at t = 0.1 the power series needs a coefficient outside the normal doubles"),
        (Theorem.T1, 1.0, np.linspace(0.0, 3.0, 600), SeriesControl(max_terms=35),
         NonConvergenceError, "solve_point: no stagnation"),
        (Theorem.T1, 1.0, np.linspace(0.0, 15.0, 61), None, CancellationError,
         "solve_point: cancellation ratio"),
        # s**(mu+j) overflows Horner's sums at t = 300, and the log route
        # needs a_j past the table (below the normal doubles from j = 244)
        (Theorem.T1, 1.0, [0.0, 0.5, 300.0], None, OverflowLogError,
         "solve_point: at t = 300.0 the power series needs a coefficient outside the normal doubles"),
    ],
    ids=["budget", "ml_bound", "inner_guard", "inner_guard_half_order", "outer_guard",
         "outer_overflow", "power_budget", "power_guard", "power_overflow"],
)
def test_solve_grid_raises_like_solve_point_at_earliest_failure(
    variant, nu, grid, ctl, expected, refused_by
):
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=params)
    want = _earliest_point_failure(prob, grid, ctl)
    assert type(want) is expected
    assert str(want).startswith(refused_by)
    with pytest.raises(expected) as got:
        solve_grid(prob, grid, ctl)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


@pytest.mark.parametrize("variant, n0, nu, grid, source", [
    (Theorem.T1, 2.0, 0.5, [0.0, 0.5, 1e200], False),  # t * t overflows
    (Theorem.T2, 1e300, 1.0, [0.0, 0.5, 1e10], False),  # n0 s**mu overflows
    (Theorem.T1, 2.0, 1.0, [0.0, 0.5, 1e300], True),  # (z/2)**2 overflows
], ids=["square", "prefactor", "source"])
def test_grid_prefactor_overflow_raises_like_the_scalar_call(variant, n0, nu, grid, source):
    # each batch formed its inf outside np.errstate: the grid ended in a
    # RuntimeWarning (an error in this suite) where the scalar call refuses
    prob = KineticProblem(n0=n0, d=3.0, nu=nu, variant=variant, params=FIG_PARAMS)
    if source:
        scalar, grid_call = (lambda t: gen_k_bessel(prob.params, prob.z(t))), source_grid
    else:
        scalar, grid_call = (lambda t: solve_point(prob, t)), solve_grid
    for t in grid:
        try:
            scalar(t)
        except EvaluationError as exc:
            want = exc
            break
    with pytest.raises(EvaluationError) as got:
        grid_call(prob, grid)
    assert type(got.value) is type(want) and str(got.value) == str(want)


def test_source_grid_refuses_an_argument_product_past_the_doubles_like_the_scalar_call():
    # d**nu * t**nu = 1e350 was formed outside np.errstate: the grid ended in
    # a RuntimeWarning (an error in this suite), not in the scalar refusal
    prob = KineticProblem(n0=2.0, d=1e100, nu=1.0, variant=Theorem.T2, params=FIG_PARAMS)
    with pytest.raises(OverflowLogError) as want:
        gen_k_bessel(prob.params, prob.z(1.0))
    with pytest.raises(OverflowLogError) as got:
        source_grid(prob, [1.0, 1e250])
    assert str(got.value) == str(want.value)


def test_source_grid_keeps_a_normal_argument_on_its_batch_where_one_factor_leaves_the_doubles(
        monkeypatch):
    # d**nu underflows to 0 and t**nu overflows, while z = (d t)**nu runs
    # from 1 to 9: the batch read nan at every t and left each to a log sum
    prob = KineticProblem(n0=2.0, d=0.062, nu=286.0, variant=Theorem.T2, params=FIG_PARAMS)
    times = np.linspace(16.13, 16.25, 41)
    zs = [prob.z(t) for t in times.tolist()]
    assert 1.0 < min(zs) and max(zs) < 9.0
    batches = _record_batches(monkeypatch)
    monkeypatch.setattr(KineticProblem, "_source_sum", None)  # no time leaves the batch
    got = source_grid(prob, times)
    assert len(batches) == 1 and not batches[0][0].failed.any()
    for value, z in zip(got.tolist(), zs):
        half = z / 2.0
        want = horner_sum(prob.params._table, half * half, half ** prob.params.mu,
                          SeriesControl(), "reference")
        assert value == want.value


def test_solve_grid_reevaluates_only_the_points_its_batch_refuses(monkeypatch):
    # the two-dimensional table; only t = 300 is refused, where its leads
    # underflow before the sum over rows stops.  The whole 256-point chunk
    # holding it used to be evaluated again point by point.
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T1, params=FIG_PARAMS)
    grid = np.linspace(0.0, 1.0, 600).tolist() + [300.0]
    with pytest.raises(OverflowLogError) as want:
        solve_point(prob, 300.0)
    calls = []
    real = kinetics.solve_point

    def counted(prob, t, ctl=None):
        calls.append(t)
        return real(prob, t, ctl)

    monkeypatch.setattr(kinetics, "solve_point", counted)
    with pytest.raises(OverflowLogError) as got:
        solve_grid(prob, grid)
    assert str(got.value) == str(want.value)
    assert calls == [300.0]


# ---------------------------------------------------------------- one power series


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.75, 1.7])
@pytest.mark.parametrize("variant", [Theorem.T2, Theorem.T3])
def test_power_series_matches_the_double_series(variant, nu):
    # the collapsed sum and the double series summed term by term in mpmath
    # are two orderings of the same terms
    a = 1.0 if variant == Theorem.T3 else None
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=FIG_PARAMS, a=a)
    times = np.linspace(0.0, 0.5, 6)[1:]  # z(t) > 0
    want = np.array([float(_mp_solution(prob, t)[0]) for t in times.tolist()])
    got = np.array(solve_grid(prob, times, SeriesControl()).values)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _mp_unit_order_solution(prob, t):
    # variant 1 at nu = 1: N = n0 sum_n coeff_n (t/2)^(mu+2n) 1F1(1; mu+2n+1; -d t),
    # and the sum of every |term| replaces each 1F1 by 1F1(1; mu+2n+1; d t)
    p = prob.params
    with mpmath.workdps(40):
        k, g, lam, mu, b, c = (mpmath.mpf(v) for v in (p.k, p.gamma, p.lam, p.mu, p.b, p.c))
        hz, x = mpmath.mpf(t) / 2, prob.d * mpmath.mpf(t)
        value = abs_sum = mpmath.mpf(0)
        for n in range(80):
            arg = mu + lam * n + (b + 1) / 2
            coeff = (c ** n * k ** n * mpmath.rf(g / k, n)
                     / (k ** (arg / k - 1) * mpmath.gamma(arg / k) * mpmath.factorial(n) ** 2))
            beta = mu + 2 * n + 1
            value += (-1) ** n * coeff * hz ** (mu + 2 * n) * mpmath.hyp1f1(1, beta, -x)
            abs_sum += coeff * hz ** (mu + 2 * n) * mpmath.hyp1f1(1, beta, x)
        return float(prob.n0 * value), float(prob.n0 * abs_sum)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_unit_order_power_series_matches_mpmath(lam):
    prob = fig_problem(Theorem.T1, lam=lam)
    times = [0.01, 0.3, 1.0, 1.845, 2.5, 3.0, 5.0]
    table = solve_grid(prob, times)
    for t, got_grid in zip(times, table.values):
        want, abs_sum = _mp_unit_order_solution(prob, t)
        got = solve_point(prob, t).value
        assert abs(got - want) <= 64 * 2.0 ** -52 * abs_sum, t
        assert abs(got_grid - want) <= 64 * 2.0 ** -52 * abs_sum, t


def _kkbench_module(name):
    spec = importlib.util.spec_from_file_location(f"kkbench_{name}", KKBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure_sweeps_match_the_benchmark_reference():
    # the benchmark's mpmath reference for all 35 (figure, lambda) sweeps,
    # within the benchmark's conditioning-aware tolerance
    tolerance = _kkbench_module("reference").tolerance
    ref = json.loads((KKBENCH / "figures_ref.json").read_text())["figures"]
    checked = 0
    for fig_id, spec in FIGURES.items():
        grid = figure_grid(spec)
        for lam in LAMBDAS:
            col = ref[str(fig_id)][f"{lam:.2f}"]
            want, abs_sum = np.array(col["value"]), np.array(col["abs_sum"])
            got = np.array(solve_grid(figure_problem(spec, lam), grid).values)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.all(np.abs(got - want) <= tolerance(scale, abs_sum)), (fig_id, lam)
            checked += 1
    assert checked == 35


def test_solution_refuses_a_tail_at_least_its_value():
    # the two-dimensional table's floor term for its faded entries: t = 6.38
    # answered 0.527 with a tail of 6.6e286
    prob = KineticProblem(n0=2.0, d=0.00415, nu=216.96, variant=Theorem.T1, params=FIG_PARAMS)
    for t in (6.0, 6.38):
        with pytest.raises(CancellationError, match=r"^solve_point: tail .* at least \|value\| "):
            solve_point(prob, t)
    with pytest.raises(CancellationError) as want:
        solve_point(prob, 6.0)
    with pytest.raises(CancellationError) as got:
        solve_grid(prob, [0.0, 1.0, 6.0, 6.38])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("t", [7.0, 8.0])
def test_unit_order_refuses_where_cancellation_leaves_no_digits(t):
    # the sum of every |term| is 1.9e12 |N| at t = 7 and 7e13 |N| at t = 8.
    # At t = 7 the largest power-series term is only 8e10 |N|, so the
    # absolute table alone refuses.  The double series used to return
    # -2.1222e-4 at t = 8, against a true -2.0846e-4.
    prob = fig_problem(Theorem.T1)
    with pytest.raises(CancellationError, match="^solve_point: cancellation ratio"):
        solve_point(prob, t)
    with pytest.raises(CancellationError, match="^solve_point: cancellation ratio"):
        solve_grid(prob, [0.0, 1.0, t])


@pytest.mark.parametrize("variant", list(Theorem))
def test_subnormal_time_is_evaluated(variant):
    # log(z/2) used to raise a math domain error where z/2 rounds to 0;
    # this close to t = 0 the solution is n0 * omega(z(t)) to rounding
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=0.25, b=3.0, c=2.0)
    a = 1.0 if variant == Theorem.T3 else None
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=variant, params=params, a=a)
    t = 5e-324
    want = prob.n0 * gen_k_bessel(params, prob.z(t)).value
    assert want > 0.0
    assert solve_point(prob, t).value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert solve_grid(prob, [0.0, t]).values[1] == pytest.approx(want, rel=1e-13, abs=0.0)
    assert source_grid(prob, [0.0, t]).tolist() == [0.0, pytest.approx(want / prob.n0, rel=1e-13,
                                                                         abs=0.0)]


# ---------------------------------------------------------------- batched source


def _record_batches(monkeypatch):
    """Keep the result and arguments of every ``kinetics.horner_sum_batch`` call in the returned list."""
    batches = []
    real = kinetics.horner_sum_batch

    def recording(table, x, pre, ctl):
        batches.append((real(table, x, pre, ctl), table, x, pre, ctl))
        return batches[-1][0]

    monkeypatch.setattr(kinetics, "horner_sum_batch", recording)
    return batches


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_source_grid_matches_gen_k_bessel_on_figure_sweeps(fig_id, monkeypatch):
    # every figure grid starts at t = 0; figures 4-7 are variants 2 and 3,
    # where z = d**nu t**nu
    batches = _record_batches(monkeypatch)
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    assert grid[0] == 0.0
    for lam in LAMBDAS:
        prob = figure_problem(spec, lam)
        batches.clear()
        got = source_grid(prob, grid)
        points = [gen_k_bessel(prob.params, prob.z(float(t))) for t in grid]
        assert got[0] == 0.0
        # one batch over the points with z != 0, each element scalar horner_sum
        assert len(batches) == 1
        assert batches[0][0].terms.size == len(points) - 1
        assert_batch_is_horner_sum(*batches[0])
        for value, r in zip(got[1:], points[1:]):
            assert value == pytest.approx(r.value, rel=1e-13, abs=0.0)
        # the scalar source sums on the same table: each point is its grid element
        assert got.tolist() == [prob.source(t) for t in grid.tolist()]


def test_source_point_answers_where_its_grid_does_under_a_small_budget():
    # Horner's length rule stops a term or two before the log route's; at
    # max_terms = 15 the scalar source raised NonConvergenceError at t = 0.96
    # (figure 1, lambda = 1), where its grid answered 0.29047377
    prob = figure_problem(FIGURES[1], 1.0)
    ctl = SeriesControl(max_terms=15)
    with pytest.raises(NonConvergenceError):
        gen_k_bessel(prob.params, 0.96, ctl)
    res = prob._source_sum(0.96, ctl)
    assert res.terms == 15
    assert res.value == source_grid(prob, [0.0, 0.96], ctl)[1] == pytest.approx(0.29047377, rel=1e-8)


DBL_MIN = np.finfo(float).tiny


@pytest.mark.parametrize("times", [
    [0.0, 5e-324, 3 * 5e-324, DBL_MIN, 2.0 * DBL_MIN - 5e-324, 2.0 * DBL_MIN, 1e-300, 0.5, 2.0],
    [0.0, 2.0 * DBL_MIN, 4.0 * DBL_MIN, 1e-300, 0.5, 2.0],
])
def test_source_grid_matches_gen_k_bessel_across_twice_dbl_min(times, monkeypatch):
    # variant 1 sums at z = t: the first grid straddles 2 DBL_MIN, below
    # which z/2 is inexact, and the second lies at or above it; the batch
    # leaves every z whose (z/2)**2 underflows to gen_k_bessel
    batches = _record_batches(monkeypatch)
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1, params=FIG_PARAMS)
    got = source_grid(prob, times)
    points = [gen_k_bessel(prob.params, t) for t in times]
    assert len(batches) == 1
    assert_batch_is_horner_sum(*batches[0])
    assert got[0] == 0.0
    for value, r in zip(got[1:], points[1:]):
        assert value == pytest.approx(r.value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("variant", [Theorem.T1, Theorem.T2])
def test_source_grid_accepts_unsorted_times_with_zero_inside(variant):
    # the points with z = 0 are found wherever they are, not only as a prefix
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=variant, params=FIG_PARAMS)
    times = [0.5, 0.0, 0.25]
    got = source_grid(prob, times)
    assert got[1] == 0.0
    for value, t in zip(got, times):
        want = gen_k_bessel(prob.params, prob.z(t)).value
        assert value == pytest.approx(want, rel=1e-13, abs=0.0)


def _earliest_source_failure(prob, grid, ctl=None):
    for i, t in enumerate(grid):
        try:
            prob.source(float(t), ctl)
        except EvaluationError as exc:
            return i, exc
    raise AssertionError("no grid point fails")


@pytest.mark.parametrize(
    "nu, grid, ctl, expected",
    [
        # the guard refuses omega from z = 3t ~ 9.6 on
        (1.0, np.linspace(0.0, 5.0, 51), None, CancellationError),
        (1.0, np.linspace(0.0, 1.0, 11), SeriesControl(max_terms=2), NonConvergenceError),
        # 1.5**700 is a double, but the terms of omega there overflow
        (700.0, [0.0, 0.1, 0.5], None, OverflowLogError),
        # 3**700 is not: z itself overflows, before any sum is formed
        (700.0, [0.0, 0.1, 1.0], None, OverflowLogError),
        # a refused point before a point that the batch cannot even form
        (1.0, [0.0, 4.0, -1.0], None, CancellationError),
    ],
    ids=["guard", "budget", "term_overflow", "argument_overflow", "refusal_first"],
)
def test_source_grid_raises_like_the_scalar_source_at_earliest_failure(nu, grid, ctl, expected):
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=Theorem.T2, params=params)
    _, want = _earliest_source_failure(prob, grid, ctl)
    assert type(want) is expected
    with pytest.raises(expected) as got:
        source_grid(prob, grid, ctl)
    assert str(got.value) == str(want)


def test_source_grid_refuses_from_the_first_refused_time():
    # variant 2 of the figures at lambda = 1: the sum of every |term| of
    # omega passes 1e12 |omega| near z = 3t = 9.6 (its largest term alone
    # only near z = 10.15, where the guard used to start)
    prob = figure_problem(FIGURES[4], 1.0)
    grid = np.linspace(0.0, 4.0, 401)
    first, _ = _earliest_source_failure(prob, grid)
    assert 3.15 < grid[first] < 3.25
    assert len(source_grid(prob, grid[:first])) == first
    with pytest.raises(CancellationError):
        source_grid(prob, grid[:first + 1])


@pytest.mark.parametrize("lam", LAMBDAS)
def test_source_batch_answers_no_point_that_gen_k_bessel_refuses(lam):
    # the batch stops by the largest earlier |term| where gen_k_bessel stops
    # by its partial sum, and guards by its own sum of |terms|; under the
    # default control neither may let through a point the scalar refuses
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1,
                          params=KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0))
    zs = np.linspace(0.0, 60.0, 1201)[1:]
    failed = kinetics._source_batch(prob, SeriesControl(), zs)[3]
    refused = np.zeros(zs.size, dtype=bool)
    for i, z in enumerate(zs.tolist()):
        try:
            gen_k_bessel(prob.params, z)
        except EvaluationError:
            refused[i] = True
    assert 0 < refused.sum() < zs.size
    assert zs[refused & ~failed].tolist() == []


@pytest.mark.parametrize("c", [0.0, -2.0])
def test_source_grid_matches_gen_k_bessel_at_zero_and_negative_c(c, monkeypatch):
    # c = 0: every coefficient past the first is an exact zero, so A_j = 0
    # enters the stop thresholds; c < 0: every term is positive.  mu != 1,
    # so the prefactor (z/2)**mu is a pow, not z/2 itself
    batches = _record_batches(monkeypatch)
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=0.25, b=3.0, c=c)
    prob = KineticProblem(n0=2.0, d=3.0, nu=0.5, variant=Theorem.T2, params=params)
    grid = np.linspace(0.0, 4.0, 101)
    got = source_grid(prob, grid)
    assert len(batches) == 1 and not batches[0][0].failed.any()
    assert_batch_is_horner_sum(*batches[0])
    assert got[0] == 0.0
    for value, t in zip(got[1:], grid[1:].tolist()):
        want = gen_k_bessel(params, prob.z(t)).value
        assert value == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------- reduced forms


def test_corollary_source_requires_matching_selectors():
    # only (b, c) = (1, 1) and (-1, 1) have a reduced form
    for b, c in ((3.0, 2.0), (3.0, 1.0), (1.0, 2.0), (-1.0, 2.0)):
        params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=b, c=c)
        with pytest.raises(DomainError, match="corollary_source requires c = 1"):
            corollary_source(params, 1.0)
    # omega is defined for z >= 0 only, as in gen_k_bessel
    bessel = KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=1.0, c=1.0)
    wright = KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=0.5, b=-1.0, c=1.0)
    with pytest.raises(DomainError, match="z >= 0"):
        corollary_source(bessel, -1.0)
    with pytest.raises(DomainError, match="z >= 0"):
        corollary_source(wright, -1.0)
    # nan included: it used to run the whole term budget on nan terms
    with pytest.raises(DomainError, match="z >= 0, got nan$"):
        corollary_source(bessel, math.nan)
    with pytest.raises(DomainError, match="t >= 0, got nan$"):
        psi_form_source(bessel, math.nan)


@pytest.mark.parametrize("b", [1.0, -1.0], ids=["bessel_j", "wright_w"])
def test_corollary_source_selectors_pick_the_reduced_function(b):
    # b = 1 is (z/2)**mu J(z**2/2), b = -1 is (z/2)**mu W(-z**2/2), bit for bit
    params = KBesselParams(k=2.0, gamma=1.5, lam=1.25, mu=0.75, b=b, c=1.0)
    reduced = specfun.k_bessel_j if b == 1.0 else specfun.k_wright_w
    for z in (0.3, 1.0, 2.5):
        inner = reduced(params.k, params.gamma, params.lam, params.mu, (z * z / 2.0) * b)
        pref = (z / 2.0) ** params.mu
        assert corollary_source(params, z) == (pref * inner.value, inner.terms, pref * inner.tail)


@pytest.mark.parametrize("z", [5e-324, 3 * 5e-324], ids=["smallest", "odd_subnormal"])
def test_reference_sources_at_subnormal_z(z):
    # (z/2)**mu used to give 0 at the smallest z, where z/2 rounds to 0, and a
    # value 7.5% high at z = 3 * 5e-324, where it rounds to 2 * 5e-324
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=0.25, b=1.0, c=1.0)
    want = gen_k_bessel(params, z).value
    assert want == pytest.approx(1.13e-81 if z == 5e-324 else 1.49e-81, rel=1e-2, abs=0.0)
    assert corollary_source(params, z).value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert psi_form_source(params, z).value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_corollary_source_bessel_route():
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=1.0, c=1.0)
    assert corollary_source(params, 0.0).value == 0.0
    want = gen_k_bessel(params, 1.0).value
    assert corollary_source(params, 1.0).value == pytest.approx(want, rel=1e-12)


def test_corollary_source_wright_route():
    params = KBesselParams(k=1.0, gamma=1.0, lam=1.0, mu=1.0, b=-1.0, c=1.0)
    got = corollary_source(params, 0.5).value
    # mpmath dps=60 canonical series: 0.23461745181020322606
    assert got == pytest.approx(0.2346174518102032, rel=1e-12)
    assert got == pytest.approx(gen_k_bessel(params, 0.5).value, rel=1e-12)


def _reduced_solution_series(params, n0, nu, d, t, n_terms=80):
    # corollary form for b=c=1: plain-float assembly of
    # N0 sum (-1)^n (g)_{n,k} / [Gamma_k(mu+lam n+1) (n!)^2] (t/2)^(mu+2n)
    #    * Gamma(mu+2n+1) E_{nu,mu+2n+1}(-d^nu t^nu)
    total = 0.0
    for n in range(n_terms):
        mag = math.exp(
            log_k_pochhammer(params.gamma, n, params.k)
            - log_k_gamma(params.mu + params.lam * n + 1.0, params.k)
            - 2.0 * math.lgamma(n + 1.0)
            + (params.mu + 2.0 * n) * math.log(t / 2.0)
        )
        ml = scaled_ml(
            MLParams(nu, params.mu + 2.0 * n + 1.0), -(d ** nu) * t ** nu
        ).value
        total += (-1.0) ** n * mag * ml
    return n0 * total


def test_theorem1_equals_reduced_corollary_form():
    # corollaries with b=c=1 are literal substitutions into the solver
    params = KBesselParams(k=2.0, gamma=1.5, lam=1.25, mu=1.0, b=1.0, c=1.0)
    prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1, params=params)
    for t in (0.25, 0.5, 1.0):
        want = _reduced_solution_series(params, prob.n0, prob.nu, prob.d, t)
        assert solve_point(prob, t).value == pytest.approx(want, rel=1e-12)


def test_psi_form_source_matches_canonical_series():
    assert psi_form_source(FIG_PARAMS, 0.0).value == 0.0
    for t in (0.25, 0.5, 1.0, 2.0):
        want = gen_k_bessel(FIG_PARAMS, t).value
        assert psi_form_source(FIG_PARAMS, t).value == pytest.approx(want, rel=1e-12)


def test_psi_form_source_collapses_at_unit_k():
    params = KBesselParams(k=1.0, gamma=1.2, lam=1.5, mu=0.8, b=2.0, c=1.5)
    for t in (0.3, 1.1):
        want = gen_k_bessel(params, t).value
        assert psi_form_source(params, t).value == pytest.approx(want, rel=1e-13)


def test_psi_form_source_randomized_against_canonical():
    rng = np.random.default_rng(31)
    for _ in range(50):
        params = KBesselParams(
            k=float(rng.uniform(0.5, 2.5)),
            gamma=float(rng.uniform(0.2, 2.5)),
            lam=float(rng.uniform(0.8, 2.5)),
            mu=float(rng.uniform(0.2, 2.0)),
            b=float(rng.uniform(-1.0, 3.0)),
            c=float(rng.uniform(0.1, 2.5)),
        )
        t = float(rng.uniform(0.05, 1.5))
        want = gen_k_bessel(params, t).value
        assert psi_form_source(params, t).value == pytest.approx(want, rel=1e-12)
