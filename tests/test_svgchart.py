"""SVG chart output, byte for byte."""

import numpy as np

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
