"""SVG chart output, byte for byte."""

import math

import numpy as np
import pytest

from kkinetics import cli, solve_grid
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem
from kkinetics.svgchart import render_line_chart

# render_line_chart's output for the input below, captured from the
# per-point f-string formatting that the numpy formatting must reproduce
EXPECTED = "\n".join([
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 800 600">',
    '<rect width="100%" height="100%" fill="white"/>',
    '<text x="400.0" y="24" text-anchor="middle" font-size="16" font-family="sans-serif">chart &lt;1&gt; &amp; 2</text>',
    '<line x1="70.00" y1="540" x2="70.00" y2="545" stroke="black"/>',
    '<text x="70.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">0</text>',
    '<line x1="65" y1="540.00" x2="70" y2="540.00" stroke="black"/>',
    '<text x="62" y="544.00" text-anchor="end" font-size="11" font-family="sans-serif">-2</text>',
    '<line x1="184.00" y1="540" x2="184.00" y2="545" stroke="black"/>',
    '<text x="184.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">0.2</text>',
    '<line x1="65" y1="440.00" x2="70" y2="440.00" stroke="black"/>',
    '<text x="62" y="444.00" text-anchor="end" font-size="11" font-family="sans-serif">-0.9</text>',
    '<line x1="298.00" y1="540" x2="298.00" y2="545" stroke="black"/>',
    '<text x="298.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">0.4</text>',
    '<line x1="65" y1="340.00" x2="70" y2="340.00" stroke="black"/>',
    '<text x="62" y="344.00" text-anchor="end" font-size="11" font-family="sans-serif">0.2</text>',
    '<line x1="412.00" y1="540" x2="412.00" y2="545" stroke="black"/>',
    '<text x="412.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">0.6</text>',
    '<line x1="65" y1="240.00" x2="70" y2="240.00" stroke="black"/>',
    '<text x="62" y="244.00" text-anchor="end" font-size="11" font-family="sans-serif">1.3</text>',
    '<line x1="526.00" y1="540" x2="526.00" y2="545" stroke="black"/>',
    '<text x="526.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">0.8</text>',
    '<line x1="65" y1="140.00" x2="70" y2="140.00" stroke="black"/>',
    '<text x="62" y="144.00" text-anchor="end" font-size="11" font-family="sans-serif">2.4</text>',
    '<line x1="640.00" y1="540" x2="640.00" y2="545" stroke="black"/>',
    '<text x="640.00" y="560" text-anchor="middle" font-size="11" font-family="sans-serif">1</text>',
    '<line x1="65" y1="40.00" x2="70" y2="40.00" stroke="black"/>',
    '<text x="62" y="44.00" text-anchor="end" font-size="11" font-family="sans-serif">3.5</text>',
    '<line x1="70" y1="540" x2="640" y2="540" stroke="black" stroke-width="1.5"/>',
    '<line x1="70" y1="40" x2="70" y2="540" stroke="black" stroke-width="1.5"/>',
    '<text x="355.0" y="584" text-anchor="middle" font-size="13" font-family="sans-serif">t</text>',
    '<text x="20" y="290.0" text-anchor="middle" font-size="13" font-family="sans-serif" transform="rotate(-90 20 290.0)">N(t)</text>',
    '<polyline fill="none" stroke="#1f77b4" stroke-width="1.8" points="70.00,267.27 127.00,540.00 469.00,327.88 640.00,40.00"/>',
    '<line x1="654" y1="56" x2="676" y2="56" stroke="#1f77b4" stroke-width="2.5"/>',
    '<text x="682" y="60" font-size="12" font-family="sans-serif">a</text>',
    '<polyline fill="none" stroke="#d62728" stroke-width="1.8" points="70.00,335.45 241.00,346.82 640.00,297.58"/>',
    '<line x1="654" y1="74" x2="676" y2="74" stroke="#d62728" stroke-width="2.5"/>',
    '<text x="682" y="78" font-size="12" font-family="sans-serif">b</text>',
    '</svg>',
])


def test_two_series_chart_is_byte_identical():
    # lists, an array and a tuple, with coordinates that round in the second decimal
    svg = render_line_chart("chart <1> & 2", "t", "N(t)", [
        ("a", [0.0, 0.1, 0.7, 1.0], [1.0, -2.0, 1.0 / 3.0, 3.5]),
        ("b", np.array([0.0, 0.3, 1.0]), (0.25, 0.125, 2.0 / 3.0)),
    ])
    assert svg == EXPECTED


def test_constant_series_chart_spans_a_unit_range():
    # equal x (or y) values would divide by a zero span: the span becomes 1
    svg = render_line_chart("flat", "t", "N(t)", [("c", [0.5, 0.5], [2.0, 2.0])])
    assert 'points="70.00,540.00 70.00,540.00"' in svg
    assert svg.count("<polyline") == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_coordinates_are_refused(bad, where, axis):
    # a nan first in ys used to make the extents nan and every point "x,nan";
    # a nan later was skipped by min and max and written as one "x,nan"
    coords = {"x": [0.0, 0.5, 1.0], "y": [1.0, 2.0, 4.0]}
    coords[axis][0 if where == "first" else -1] = bad
    with pytest.raises(ValueError, match="finite"):
        render_line_chart("t", "x", "y", [("a", coords["x"], coords["y"])])


@pytest.mark.parametrize("series", [[], [("a", [], [])]])
def test_a_chart_with_no_point_is_refused(series):
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_chart("t", "x", "y", series)


def test_axes_whose_span_overflows_are_refused():
    with pytest.raises(ValueError, match="finite"):
        render_line_chart("t", "x", "y", [("a", [-1e308, 1e308], [0.0, 1.0])])


def _reference_chart(title, x_label, y_label, series):
    """The chart as formed point by point from Python floats: extents by min and
    max over lists, each point an f-string of its pixel coordinates."""
    def esc(text):
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi, y_lo, y_hi = min(xs_all), max(xs_all), min(ys_all), max(ys_all)
    x_hi = x_lo + 1.0 if x_hi == x_lo else x_hi
    y_hi = y_lo + 1.0 if y_hi == y_lo else y_hi
    width, height, left, right, top, bottom = 800, 600, 70, 160, 40, 60
    px_w, px_h = width - left - right, height - top - bottom

    def xp(x):
        return left + (x - x_lo) / (x_hi - x_lo) * px_w

    def yp(y):
        return top + px_h - (y - y_lo) / (y_hi - y_lo) * px_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {width} {height}">',
           '<rect width="100%" height="100%" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
           f'font-family="sans-serif">{esc(title)}</text>']
    for i in range(6):
        xv, yv = x_lo + (x_hi - x_lo) * i / 5, y_lo + (y_hi - y_lo) * i / 5
        out += [f'<line x1="{xp(xv):.2f}" y1="{top + px_h}" x2="{xp(xv):.2f}" '
                f'y2="{top + px_h + 5}" stroke="black"/>',
                f'<text x="{xp(xv):.2f}" y="{top + px_h + 20}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{xv:.3g}</text>',
                f'<line x1="{left - 5}" y1="{yp(yv):.2f}" x2="{left}" y2="{yp(yv):.2f}" '
                'stroke="black"/>',
                f'<text x="{left - 8}" y="{yp(yv) + 4:.2f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{yv:.3g}</text>']
    out += [f'<line x1="{left}" y1="{top + px_h}" x2="{left + px_w}" y2="{top + px_h}" '
            'stroke="black" stroke-width="1.5"/>',
            f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + px_h}" '
            'stroke="black" stroke-width="1.5"/>',
            f'<text x="{left + px_w / 2:.1f}" y="{height - 16}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{esc(x_label)}</text>',
            f'<text x="20" y="{top + px_h / 2:.1f}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 20 {top + px_h / 2:.1f})">'
            f'{esc(y_label)}</text>']
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
    for idx, (label, xs, ys) in enumerate(series):
        color, ly, lx = colors[idx % len(colors)], top + 16 + idx * 18, left + px_w + 14
        pts = " ".join(f"{xp(float(x)):.2f},{yp(float(y)):.2f}" for x, y in zip(xs, ys))
        out += [f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>',
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" '
                'stroke-width="2.5"/>',
                f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
                f'font-family="sans-serif">{esc(label)}</text>']
    out.append("</svg>")
    return "\n".join(out)


def test_reference_chart_is_the_captured_one():
    assert _reference_chart("chart <1> & 2", "t", "N(t)", [
        ("a", [0.0, 0.1, 0.7, 1.0], [1.0, -2.0, 1.0 / 3.0, 3.5]),
        ("b", [0.0, 0.3, 1.0], (0.25, 0.125, 2.0 / 3.0)),
    ]) == EXPECTED


def test_figure_charts_match_the_point_by_point_reference(tmp_path, capsys):
    # the seven charts of figures --all, whose five series share one grid
    assert cli.main(["figures", "--all", "--out-dir", str(tmp_path)]) == 1
    capsys.readouterr()
    for fig_id, spec in FIGURES.items():
        grid = figure_grid(spec)
        series = [(f"lambda = {lam:.2f}", grid.tolist(),
                   solve_grid(figure_problem(spec, lam), grid).values.tolist()) for lam in LAMBDAS]
        title = f"figure {fig_id} (variant {int(spec.variant)}, t in [0, {spec.t_end:g}])"
        want = _reference_chart(title, "t", "N(t)", series)
        assert (tmp_path / f"fig{fig_id}.svg").read_text() == want, fig_id
