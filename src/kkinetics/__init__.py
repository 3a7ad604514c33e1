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

The package exports the ``__all__`` of :mod:`kkinetics.series` (the error
types, ``SeriesControl`` and ``SeriesResult``), ``specfun``, ``kinetics``
and ``fracoracle``; each name is declared there alone.
"""

from . import fracoracle, kinetics, series, specfun
from .series import *
from .specfun import *
from .kinetics import *
from .fracoracle import *

__version__ = "0.1.0"

__all__ = [*series.__all__, *specfun.__all__, *kinetics.__all__, *fracoracle.__all__,
           "__version__"]
