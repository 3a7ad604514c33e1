"""Built-in parameter sweeps behind the `figures` command.

All seven sweeps share N0 = c = k = 2, b = d = 3, mu = nu = gamma = 1 and
run lam over {1, 1.25, 1.5, 1.75, 2}; they differ in the equation variant,
the time interval, and (for variant 3) the rate a = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinetics import KineticProblem, Theorem
from .specfun import KBesselParams

LAMBDAS = (1.0, 1.25, 1.5, 1.75, 2.0)
GRID_POINTS = 201


@dataclass(frozen=True)
class FigureSpec:
    variant: Theorem
    t_end: float
    a: float | None = None


FIGURES: dict[int, FigureSpec] = {
    1: FigureSpec(Theorem.T1, 1.0),
    2: FigureSpec(Theorem.T1, 2.0),
    3: FigureSpec(Theorem.T1, 3.0),
    4: FigureSpec(Theorem.T2, 0.05),
    5: FigureSpec(Theorem.T2, 0.06),
    6: FigureSpec(Theorem.T3, 0.05, a=1.0),
    7: FigureSpec(Theorem.T3, 0.06, a=1.0),
}


def figure_params(lam: float) -> KBesselParams:
    return KBesselParams(k=2.0, gamma=1.0, lam=lam, mu=1.0, b=3.0, c=2.0)


def figure_problem(spec: FigureSpec, lam: float, params: KBesselParams | None = None
                   ) -> KineticProblem:
    """The sweep's problem at ``lam``; ``params``, if given, is the caller's
    :func:`figure_params` of ``lam``, built once for every figure."""
    if params is None:
        params = figure_params(lam)
    return KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=spec.variant, params=params, a=spec.a)


def figure_grid(spec: FigureSpec) -> np.ndarray:
    return np.linspace(0.0, spec.t_end, GRID_POINTS)
