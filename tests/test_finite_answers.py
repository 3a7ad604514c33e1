"""A seeded sweep of the public series: every answer has a finite value and
a finite tail >= 0, and every failure is an :class:`EvaluationError`.

The sweep covers ``gen_k_bessel`` over a grid of k-Bessel parameters and
arguments z from 1e-300 to 6, the Mittag-Leffler sums, the reduced J/W
sums and Fox-Wright at a few arguments, and ``solve_point`` on sampled
problems of all three variants.  It checks no value against a reference:
only that no answer carries a nan or infinite value or tail and that no
bare Python exception escapes.

Run it as a script to print the counts for a seed (27 by default):

    PYTHONPATH=src python tests/test_finite_answers.py [SEED]
"""

import itertools
import math
import sys
import time
from collections import Counter

import numpy as np

from kkinetics import (
    EvaluationError,
    FoxWrightSpec,
    KBesselParams,
    KineticProblem,
    MLParams,
    fox_wright,
    gen_k_bessel,
    k_bessel_j,
    k_wright_w,
    mittag_leffler,
    scaled_ml,
    solve_point,
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


def _solve_calls(rng, problems=40, times=6):
    for _ in range(problems):
        variant = int(rng.integers(1, 4))
        params = KBesselParams(k=rng.choice(_STRIDES), gamma=rng.choice(_GAMMAS),
                               lam=rng.choice(_STRIDES), mu=rng.choice(_MUS), b=rng.choice(_BS),
                               c=rng.choice(_CS))
        prob = KineticProblem(n0=1.0, d=rng.choice((0.5, 1.0, 3.0)),
                              nu=rng.choice((0.5, 0.75, 1.0, 1.7)), variant=variant,
                              params=params, a=2.0 if variant == 3 else None)
        for t in [1e-300, *(10.0 ** rng.uniform(-12.0, 1.0, times - 1))]:
            yield f"solve_point v{variant}", lambda prob=prob, t=t: solve_point(prob, t)


def sweep(seed=SEED) -> Counter:
    """Counts by outcome and kind: ``answered``, ``refused`` (by error type),
    ``non-finite`` (an answer whose value or tail is not finite, or whose
    tail is negative) and ``bare`` (an exception that is not an
    EvaluationError)."""
    rng = np.random.default_rng(seed)
    counts = Counter()
    calls = itertools.chain(_k_bessel_calls(rng), _reference_calls(), _solve_calls(rng))
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
                             "solve_point v1", "solve_point v2", "solve_point v3"}


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
