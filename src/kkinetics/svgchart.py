"""Minimal standalone SVG line charts (no plotting stack, no external refs)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 160, 40, 60
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> str:
    """Render (label, xs, ys) series as an SVG 1.1 document string.

    Each series draws its first min(len(xs), len(ys)) points; the axes span
    every x and every y given.  A coordinate that is not finite, or axes
    whose span is not, raise :class:`ValueError`.  Series that share one xs
    object (a figure's common grid) format its pixel coordinates once.
    """
    columns = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
               for label, xs, ys in series]
    if not any(xs.size for _, xs, _ in columns):
        raise ValueError("nothing to plot")
    xs_all = np.concatenate([xs for _, xs, _ in columns])
    ys_all = np.concatenate([ys for _, _, ys in columns])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    # min and max return nan where any coordinate is nan
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, x_hi - x_lo, y_hi - y_lo))):
        raise ValueError("every coordinate, and the span of each axis, must be finite")
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB

    def xp(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * px_w

    def yp(y: float) -> float:
        return _MT + px_h - (y - y_lo) / (y_hi - y_lo) * px_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_W} {_H}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_esc(title)}</text>',
    ]
    # axes with 5 ticks each
    for i in range(6):
        xv = x_lo + (x_hi - x_lo) * i / 5
        yv = y_lo + (y_hi - y_lo) * i / 5
        out.append(
            f'<line x1="{xp(xv):.2f}" y1="{_MT + px_h}" x2="{xp(xv):.2f}" '
            f'y2="{_MT + px_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{xp(xv):.2f}" y="{_MT + px_h + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.3g}</text>'
        )
        out.append(
            f'<line x1="{_ML - 5}" y1="{yp(yv):.2f}" x2="{_ML}" y2="{yp(yv):.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{yp(yv) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.3g}</text>'
        )
    out.append(
        f'<line x1="{_ML}" y1="{_MT + px_h}" x2="{_ML + px_w}" y2="{_MT + px_h}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + px_h}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{_ML + px_w / 2:.1f}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{_esc(x_label)}</text>'
    )
    out.append(
        f'<text x="20" y="{_MT + px_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" '
        f'transform="rotate(-90 20 {_MT + px_h / 2:.1f})">{_esc(y_label)}</text>'
    )
    x_points = None  # the xs object, point count and "x,%.2f" template last formatted
    for idx, (label, xs, ys) in enumerate(columns):
        color = _COLORS[idx % len(_COLORS)]
        n = min(len(xs), len(ys))
        # xp and yp on arrays round as on floats, and within finite spans never overflow
        if x_points is None or x_points[0] is not xs or x_points[1] != n:
            x_points = xs, n, " ".join(["%.2f,%%.2f"] * n) % tuple(xp(xs[:n]).tolist())
        pts = x_points[2] % tuple(yp(ys[:n]).tolist())
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>'
        )
        ly = _MT + 16 + idx * 18
        lx = _ML + px_w + 14
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
