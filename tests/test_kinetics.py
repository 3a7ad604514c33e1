"""Closed-form kinetic solutions: structure, identities, oracle agreement."""

import math
from collections import Counter

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
)
from kkinetics import kinetics, specfun
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem
from kkinetics.kinetics import _GRID_CHUNK
from kkinetics.specfun import log_k_gamma, log_k_pochhammer

FIG_PARAMS = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)


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


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_large_order_in_range_source_argument_is_evaluated(t):
    # 3**700 alone overflows, but (3 t)**700 is 0 at t = 0 and underflows to 0
    # at t = 0.1; both points used to be refused
    prob = KineticProblem(n0=1.0, d=3.0, nu=700.0, variant=Theorem.T2, params=FIG_PARAMS)
    assert solve_point(prob, t).value == 0.0
    assert solve_grid(prob, [t]).values == (0.0,)


def test_power_arguments_are_finite_or_refused():
    # d * t past the double range: a finite (d t)**nu is returned, never inf
    prob = KineticProblem(n0=1.0, d=1e300, nu=0.5, variant=Theorem.T2, params=FIG_PARAMS)
    assert prob.z(1e300) == pytest.approx(1e300, rel=1e-14)
    assert prob.ml_arg(1e300) == pytest.approx(-1e300, rel=1e-14)
    prob = KineticProblem(n0=1.0, d=1e300, nu=1.0, variant=Theorem.T2, params=FIG_PARAMS)
    with pytest.raises(OverflowLogError):
        prob.z(1e300)
    with pytest.raises(OverflowLogError):
        prob.ml_arg(1e300)


@pytest.mark.parametrize("nu", [0.5, 1.0])
@pytest.mark.parametrize("variant", list(Theorem))
def test_negative_time_is_a_domain_error(variant, nu):
    # at nu = 0.5, t**nu went complex and source(-0.5) ended in a bare TypeError
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=FIG_PARAMS, a=1.0)
    for evaluate in (prob.z, prob.ml_arg, prob.source, lambda t: solve_point(prob, t)):
        with pytest.raises(DomainError, match=r"^t must be >= 0, got -0\.5$"):
            evaluate(-0.5)


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

    count(kinetics, "scaled_ml")
    count(kinetics, "sum_log_terms")
    count(kinetics, "gen_k_bessel")
    count(specfun, "sum_log_terms")
    prob = fig_problem(Theorem.T1)
    res = solve_point(prob, 0.5)
    assert res.terms > 1
    assert calls == {
        "kkinetics.kinetics.sum_log_terms": 1,
        "kkinetics.kinetics.scaled_ml": res.terms,  # one per outer term
        "kkinetics.specfun.sum_log_terms": res.terms,
    }
    calls.clear()
    prob.source(0.5)
    assert calls == {
        "kkinetics.kinetics.gen_k_bessel": 1,
        "kkinetics.specfun.sum_log_terms": 1,
    }
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
    assert len(empty) == 0 and empty.max_tail == 0.0
    single = solve_grid(prob, [0.0])
    assert single == SolutionTable((0.0,), (0.0,), (1,), (0.0,), prob)


def test_solve_grid_validates_ordering():
    prob = fig_problem(Theorem.T1)
    with pytest.raises(DomainError):
        solve_grid(prob, [0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        solve_grid(prob, [-0.1, 0.5])


def test_solve_grid_fig1_metadata():
    prob = fig_problem(Theorem.T1)
    table = solve_grid(prob, np.linspace(0.0, 1.0, 101))
    assert len(table) == 101
    assert table.max_tail <= 1e-12
    assert all(n >= 1 for n in table.terms)
    assert table.problem is prob



# ---------------------------------------------------------------- batched grid vs pointwise


def _assert_grid_matches_points(table, indices, points):
    # term counts and stopping decisions are exact; values and tails may
    # differ in the last bits because numpy's exp is not libm's
    scale = max(1.0, max(abs(r.value) for r in points))
    for i, r in zip(indices, points):
        assert table.terms[i] == r.terms, i
        assert abs(table.values[i] - r.value) <= 1e-12 * scale, i
        assert abs(table.tails[i] - r.tail) <= 1e-12 * r.tail, i


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


def test_solve_grid_matches_solve_point_at_chunk_seams():
    # the figure-1 verify grid (h = 1/2048) spans several chunks
    prob = fig_problem(Theorem.T1)
    grid = np.linspace(0.0, 1.0, 2049)
    table = solve_grid(prob, grid)
    seams = range(_GRID_CHUNK, len(grid), _GRID_CHUNK)
    assert len(seams) >= 2
    indices = [i for seam in seams for i in (seam - 1, seam)]
    points = [solve_point(prob, float(grid[i])) for i in indices]
    _assert_grid_matches_points(table, indices, points)


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
    "variant, nu, grid, ctl, expected",
    [
        # the inner budget runs out first near t = 1.44, in the second chunk
        (Theorem.T1, 1.0, np.linspace(0.0, 3.0, 600), SeriesControl(max_terms=35),
         NonConvergenceError),
        # x = -900 is beyond the refused bound 700**nu
        (Theorem.T1, 1.0, [0.0, 0.5, 300.0], None, CancellationError),
        # the inner cancellation guard trips first near t = 10.1
        (Theorem.T1, 1.0, np.linspace(0.0, 15.0, 61), None, CancellationError),
        (Theorem.T2, 0.5, np.linspace(0.0, 60.0, 61), None, CancellationError),
        # the outer guard trips first at t = 3
        (Theorem.T2, 1.0, [0.0, 1.0, 2.0, 3.0, 4.0], None, CancellationError),
    ],
    ids=["budget", "ml_bound", "inner_guard", "inner_guard_half_order", "outer_guard"],
)
def test_solve_grid_raises_like_solve_point_at_earliest_failure(variant, nu, grid, ctl, expected):
    params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
    prob = KineticProblem(n0=2.0, d=3.0, nu=nu, variant=variant, params=params)
    want = _earliest_point_failure(prob, grid, ctl)
    assert type(want) is expected
    with pytest.raises(expected) as got:
        solve_grid(prob, grid, ctl)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


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


@pytest.mark.parametrize("b", [1.0, -1.0], ids=["bessel_j", "wright_w"])
def test_corollary_source_selectors_pick_the_reduced_function(b):
    # b = 1 is (z/2)**mu J(z**2/2), b = -1 is (z/2)**mu W(-z**2/2), bit for bit
    params = KBesselParams(k=2.0, gamma=1.5, lam=1.25, mu=0.75, b=b, c=1.0)
    reduced = specfun.k_bessel_j if b == 1.0 else specfun.k_wright_w
    for z in (0.3, 1.0, 2.5):
        inner = reduced(params.k, params.gamma, params.lam, params.mu, (z * z / 2.0) * b)
        pref = (z / 2.0) ** params.mu
        assert corollary_source(params, z) == (pref * inner.value, inner.terms, pref * inner.tail)


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
