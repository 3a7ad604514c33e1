"""Regenerate figures_ref.json, the pinned mpmath reference of the figure sweeps.

    python3 kkbench/make_reference.py

The figure inputs are fixed by the paper, so their reference is computed
once (about 20 s) and committed.  The points stream draws fresh inputs from
the seed, so its references are computed during the run instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from workloads import (  # noqa: E402
    B, C, D, FIGURES, FIGURES_REF, GAMMA, GRID_POINTS, K, LAMBDAS, MU, N0,
    figure_grid, figure_rate,
)


def main() -> None:
    figures = {}
    for fig_id, (variant, _, _) in FIGURES.items():
        columns = {}
        for lam in LAMBDAS:
            points = [
                reference.kinetic(variant, N0, D, figure_rate(fig_id), K, GAMMA, lam, MU, B, C,
                                  float(t))
                for t in figure_grid(fig_id)
            ]
            columns[f"{lam:.2f}"] = {
                "value": [v for v, _ in points],
                # Only the tolerance uses abs_sum, so three digits suffice.
                "abs_sum": [float(f"{a:.3e}") for _, a in points],
            }
        figures[str(fig_id)] = columns
    doc = {
        "generator": "kkbench/make_reference.py",
        "mpmath": mpmath.__version__,
        "dps": reference.DPS,
        "grid_points": GRID_POINTS,
        "figures": figures,
    }
    FIGURES_REF.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
