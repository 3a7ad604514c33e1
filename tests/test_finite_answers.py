"""A seeded sweep of the public series: every answer has a finite value and
a finite tail >= 0, and every failure is an :class:`EvaluationError`.

The sweep covers ``gen_k_bessel`` over a grid of k-Bessel parameters and
arguments z from 1e-300 to 6, the Mittag-Leffler sums, the reduced J/W
sums and Fox-Wright at a few arguments, ``solve_point`` on sampled
problems of all three variants, the source of variants 2 and 3
(``KineticProblem.source`` with its tail, and ``source_grid``) where its
argument z = (d t)**nu is normal, subnormal, 0 or past the doubles, and
the Volterra oracle
(``QuadratureGrid``, ``solve_volterra`` and ``residual``) at orders up to
400 and rates up to 1e3.  It checks no value against a reference: only
that no answer carries a nan or infinite value or tail and that no bare
Python exception escapes.  A second test checks the grid contract on the
sweep's own problems: ``solve_grid`` gives ``solve_point``'s values,
terms and tails, and ``source_grid`` the scalar source's values, bit for
bit, and each grid raises the error type its point call raises at the
earliest time it refuses.

Run it as a script to print the counts for a seed (27 by default):

    PYTHONPATH=src python tests/test_finite_answers.py [SEED]
"""

import itertools
import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from kkinetics import (
    EvaluationError,
    FoxWrightSpec,
    KBesselParams,
    KineticProblem,
    MLParams,
    QuadratureGrid,
    SeriesResult,
    SolutionTable,
    fox_wright,
    gen_k_bessel,
    k_bessel_j,
    k_wright_w,
    mittag_leffler,
    residual,
    scaled_ml,
    solve_grid,
    solve_point,
    solve_volterra,
    source_grid,
)

SEED = 27
_STRIDES = (0.5, 1.0, 2.0)  # k and lambda
_GAMMAS = (0.5, 1.0, 3.0)
_MUS = (0.25, 1.0, 3.0)
_BS = (-1.0, 1.0, 3.0)
_CS = (-2.0, 0.0, 1.0, 2.0)
_FOX_WRIGHT = (
    FoxWrightSpec(upper=((0.5, 1.0),), lower=((1.5, 0.5), (1.0, 1.0))),
    FoxWrightSpec(upper=((1.0, 1.0), (2.0, 1.0)), lower=((3.0, 1.0),)),  # margin -1: |z| < 1
    FoxWrightSpec(upper=((2.5, 2.0),), lower=((1.0, 1.0), (0.5, 3.0))),
)


def _k_bessel_calls(rng):
    for k, lam, gamma, mu, b, c in itertools.product(_STRIDES, _STRIDES, _GAMMAS, _MUS, _BS, _CS):
        params = KBesselParams(k=k, gamma=gamma, lam=lam, mu=mu, b=b, c=c)
        zs = [1e-300, 6.0, *(10.0 ** rng.uniform(-300.0, math.log10(6.0), 2)),
              *rng.uniform(0.0, 6.0, 3)]
        for z in zs:
            yield "gen_k_bessel", lambda z=z, params=params: gen_k_bessel(params, z)


def _reference_calls():
    for alpha, beta, x in itertools.product((0.25, 0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 3.0),
                                            (-50.0, -5.0, -1.0, 0.0, 0.5, 5.0, 50.0)):
        p = MLParams(alpha, beta)
        yield "mittag_leffler", lambda p=p, x=x: mittag_leffler(p, x)
        yield "scaled_ml", lambda p=p, x=x: scaled_ml(p, x)
    for k, gamma, lam, order, w in itertools.product(_STRIDES, (0.5, 3.0), (0.5, 2.0),
                                                     (0.25, 3.0), (-20.0, -1.0, 0.0, 1.0, 20.0)):
        yield "k_bessel_j", lambda a=(k, gamma, lam, order, w): k_bessel_j(*a)
        yield "k_wright_w", lambda a=(k, gamma, lam, order, w): k_wright_w(*a)
    for spec, z in itertools.product(_FOX_WRIGHT, (-5.0, -0.5, 0.0, 0.5, 5.0)):
        yield "fox_wright", lambda spec=spec, z=z: fox_wright(spec, z)


def _solve_problems(rng, problems=40, times=6):
    """Sampled problems of all three variants, each with its times."""
    for _ in range(problems):
        variant = int(rng.integers(1, 4))
        params = KBesselParams(k=rng.choice(_STRIDES), gamma=rng.choice(_GAMMAS),
                               lam=rng.choice(_STRIDES), mu=rng.choice(_MUS), b=rng.choice(_BS),
                               c=rng.choice(_CS))
        prob = KineticProblem(n0=1.0, d=rng.choice((0.5, 1.0, 3.0)),
                              nu=rng.choice((0.5, 0.75, 1.0, 1.7)), variant=variant,
                              params=params, a=2.0 if variant == 3 else None)
        yield prob, [1e-300, *(10.0 ** rng.uniform(-12.0, 1.0, times - 1)).tolist()]


def _solve_calls(rng):
    for prob, times in _solve_problems(rng):
        for t in times:
            yield f"solve_point v{int(prob.variant)}", lambda prob=prob, t=t: solve_point(prob, t)


# (d, nu, times): z = (d t)**nu is a normal double at the first time,
# subnormal at the second and 0 at the third; the fourth is t = 0, a
# second normal z, or one past the doubles (3**700 alone is past them,
# and 1e-200**2 is 0)
_SOURCE_CASES = (
    (0.01, 40.0, (0.5, 1e-6, 1e-8, 0.0)),
    (1e-3, 2.0, (1.0, 1e-155, 1e-170, 0.0)),
    (3.0, 700.0, (0.3, 0.118, 0.1, 1.0)),
    (1e-200, 2.0, (1e150, 1e42, 1.0, 1e160)),
)


def _grid_answer(values):
    """A grid's values as one answer: the largest |value| (nan if any is nan)."""
    return SeriesResult(float(np.abs(values).max()), len(values), 0.0)


def _source_problems(rng, problems=4):
    """Problems of variants 2 and 3 on each of :data:`_SOURCE_CASES`, each with its times."""
    for (d, nu, times), variant in itertools.product(_SOURCE_CASES, (2, 3)):
        for _ in range(problems):
            params = KBesselParams(k=rng.choice(_STRIDES), gamma=rng.choice(_GAMMAS),
                                   lam=rng.choice(_STRIDES), mu=rng.choice(_MUS),
                                   b=rng.choice(_BS), c=rng.choice(_CS))
            yield KineticProblem(n0=1.0, d=d, nu=nu, variant=variant, params=params,
                                 a=2.0 if variant == 3 else None), times


def _source_calls(rng):
    for prob, times in _source_problems(rng):
        variant = int(prob.variant)
        for t in times:
            yield f"source v{variant}", lambda prob=prob, t=t: prob._source_sum(t)
        yield f"source_grid v{variant}", lambda prob=prob, times=times: _grid_answer(
            source_grid(prob, times))


def _oracle_solution(t_end, n, nu, rate):
    """The largest |value| of the oracle's solution on a grid, after its own residual.

    The residual is a defect, which may read inf past the doubles: only
    that it raises no bare exception is checked.
    """
    grid = QuadratureGrid(t_end, n, nu)
    oracle = solve_volterra(1.0, math.cos, rate, grid)
    prob = KineticProblem(n0=1.0, d=rate, nu=nu, variant=1,
                          params=KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0))
    residual(SolutionTable(grid.times, oracle.values, (1,) * (n + 1), np.zeros(n + 1), prob),
             oracle)
    return SeriesResult(float(np.max(np.abs(oracle.values))), n + 1, 0.0)


def _oracle_calls(rng, grids=120):
    for _ in range(grids):
        # weights in the double range need a step near nu / e or longer at a large nu
        nu, scale, rate = (10.0 ** rng.uniform((-1.0, -2.0, -3.0),
                                               (math.log10(400.0), 1.0, 3.0))).tolist()
        t_end, n = max(nu, 1.0) * scale, int(2.0 ** rng.uniform(0.0, 6.0))
        yield "oracle", lambda a=(t_end, n, nu, rate): _oracle_solution(*a)


def sweep(seed=SEED) -> Counter:
    """Counts by outcome and kind: ``answered``, ``refused`` (by error type),
    ``non-finite`` (an answer whose value or tail is not finite, or whose
    tail is negative) and ``bare`` (an exception that is not an
    EvaluationError)."""
    rng = np.random.default_rng(seed)
    counts = Counter()
    calls = itertools.chain(_k_bessel_calls(rng), _reference_calls(), _solve_calls(rng),
                            _oracle_calls(rng), _source_calls(rng))
    for kind, call in calls:
        try:
            res = call()
        except EvaluationError as exc:
            counts["refused", kind, type(exc).__name__] += 1
        except Exception as exc:  # the sweep counts what must not escape
            counts["bare", kind, type(exc).__name__] += 1
        else:
            finite = math.isfinite(res.value) and math.isfinite(res.tail) and res.tail >= 0.0
            counts["answered" if finite else "non-finite", kind] += 1
    return counts


def test_every_answer_is_finite_and_every_failure_an_evaluation_error():
    counts = sweep()
    bad = {key: n for key, n in counts.items() if key[0] in ("bare", "non-finite")}
    assert not bad
    answered = Counter(key[1] for key in counts if key[0] == "answered")
    assert set(answered) >= {"gen_k_bessel", "mittag_leffler", "k_bessel_j", "fox_wright",
                             "solve_point v1", "solve_point v2", "solve_point v3", "oracle",
                             "source v2", "source v3", "source_grid v2", "source_grid v3"}


def _earliest_refusal(point, times):
    """The results of ``point`` at ``times`` up to the first refusal, and that refusal (or None)."""
    results = []
    for t in times:
        try:
            results.append(point(t))
        except EvaluationError as exc:
            return results, exc
    return results, None


def _assert_grid_is_its_points(grid, point, times):
    """``grid(times)`` gives ``point(t)`` at every time, or raises the type that
    ``point`` raises at the earliest time it refuses, and answers the times before it."""
    results, refusal = _earliest_refusal(point, times)
    if refusal is not None:
        with pytest.raises(EvaluationError) as got:
            grid(times)
        assert type(got.value) is type(refusal)
        times = times[:len(results)]
    assert grid(times) == results


def test_every_grid_is_its_point_calls_on_the_sweep():
    for prob, times in _solve_problems(np.random.default_rng(SEED)):
        def table(ts, prob=prob):
            got = solve_grid(prob, ts)
            return list(zip(got.values.tolist(), got.terms, got.tails.tolist()))

        _assert_grid_is_its_points(table, lambda t, prob=prob: tuple(solve_point(prob, t)),
                                   [0.0, *sorted(times)])
    for prob, times in _source_problems(np.random.default_rng(SEED)):
        _assert_grid_is_its_points(lambda ts, prob=prob: source_grid(prob, ts).tolist(),
                                   lambda t, prob=prob: prob._source_sum(t).value, list(times))


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else SEED
    start = time.perf_counter()
    counts = sweep(seed)
    elapsed = time.perf_counter() - start
    for outcome in ("answered", "refused", "non-finite", "bare"):
        rows = sorted((key[1:], n) for key, n in counts.items() if key[0] == outcome)
        print(f"{outcome}: {sum(n for _, n in rows)}")
        for key, n in rows:
            print(f"  {' '.join(key)}: {n}")
    print(f"seed {seed}: {sum(counts.values())} calls in {elapsed:.2f} s")
