"""Reproducing the built-in lambda sweeps (figures 1-7) through the library.

Writes one CSV and one SVG per figure into ./figure_output/ and reports
where each solution curve first stops being positive, if anywhere.  The
variant-1 sweeps on the longer windows (figures 2 and 3) do cross zero --
the relaxation term overshoots once the Bessel-type source levels off --
and the `kkinetics figures` command reports exactly that.

Run:  python demos/figure_sweep.py
"""

from pathlib import Path

import numpy as np

from kkinetics import solve_grid
from kkinetics.cli import _write_figure, _default_control
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_params, figure_problem

out_dir = Path("figure_output")
control = _default_control()
params = {lam: figure_params(lam) for lam in LAMBDAS}

for fig_id, spec in FIGURES.items():
    grid = figure_grid(spec)
    first_crossing = None
    for lam in LAMBDAS:
        table = solve_grid(figure_problem(spec, lam, params[lam]), grid, control)
        values = np.asarray(table.values)
        bad = np.where((grid > 0) & (values <= 0.0))[0]
        if len(bad) and (first_crossing is None or grid[bad[0]] < first_crossing[0]):
            first_crossing = (float(grid[bad[0]]), lam)
    csv_path, svg_path, violations = _write_figure(fig_id, out_dir, control, params)
    status = ("all positive" if first_crossing is None
              else f"crosses zero at t ~ {first_crossing[0]:.3f} (lambda {first_crossing[1]:g})")
    print(f"figure {fig_id} (variant {int(spec.variant)}, t_end {spec.t_end:g}): "
          f"{status}; wrote {csv_path}")

print()
print("figures 4 and 6 share parameters except the relaxation rate (d=3 vs a=1),")
print("so their tables differ; they coincide only when the two rates are set equal.")
