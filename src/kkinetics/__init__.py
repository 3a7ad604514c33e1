"""Series solutions of fractional kinetic equations with k-Bessel sources.

The package has four layers:

* :mod:`kkinetics.specfun` — k-gamma calculus, generalized k-Bessel,
  Fox-Wright and Mittag-Leffler series, all truncation-controlled.
* :mod:`kkinetics.kinetics` — closed-form solutions of the three kinetic
  equation variants and their reduced (Bessel/Wright/Fox-Wright) forms.
* :mod:`kkinetics.fracoracle` — independent validation machinery: product
  trapezoidal Riemann-Liouville quadrature, a direct Volterra solver,
  residual and Laplace-domain checks.
* :mod:`kkinetics.cli` — the ``kkinetics`` command.
"""

from .series import (
    CancellationError,
    ConvergenceGateError,
    DomainError,
    EvaluationError,
    NonConvergenceError,
    OverflowLogError,
    SeriesControl,
    SeriesResult,
)
from .specfun import (
    FoxWrightSpec,
    KBesselParams,
    MLParams,
    fox_wright,
    gen_k_bessel,
    k_bessel_j,
    k_gamma,
    k_pochhammer,
    k_wright_w,
    log_gamma,
    mittag_leffler,
    scaled_ml,
)
from .kinetics import (
    KineticProblem,
    SolutionTable,
    Theorem,
    corollary_source,
    psi_form_source,
    solve_grid,
    solve_point,
)
from .fracoracle import (
    OracleSolution,
    QuadratureGrid,
    haubold_mathai,
    laplace_check,
    laplace_transform,
    residual,
    solve_volterra,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationError",
    "ConvergenceGateError",
    "DomainError",
    "EvaluationError",
    "NonConvergenceError",
    "OverflowLogError",
    "SeriesControl",
    "SeriesResult",
    "FoxWrightSpec",
    "KBesselParams",
    "MLParams",
    "fox_wright",
    "gen_k_bessel",
    "k_bessel_j",
    "k_gamma",
    "k_pochhammer",
    "k_wright_w",
    "log_gamma",
    "mittag_leffler",
    "scaled_ml",
    "KineticProblem",
    "SolutionTable",
    "Theorem",
    "corollary_source",
    "psi_form_source",
    "solve_grid",
    "solve_point",
    "OracleSolution",
    "QuadratureGrid",
    "haubold_mathai",
    "laplace_check",
    "laplace_transform",
    "residual",
    "solve_volterra",
    "__version__",
]
