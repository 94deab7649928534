import math
import re

import numpy as np
import pytest

from splinespectra import svgplot

# the plot area of a line plot: left and top margins, width and height
_LEFT, _TOP = 70, 34
_WIDTH, _HEIGHT = svgplot.LINE_WIDTH - 90, svgplot.LINE_HEIGHT - 82


def reference_points(series, logy):
    """The polyline points of every series, each point mapped and formatted
    on its own, as numpy scalars."""
    prepared = []
    for x, y, _ in series:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if logy:
            y = np.log10(np.maximum(np.abs(y), 1e-16))
        prepared.append((x, y))
    xmin, xmax = min(x.min() for x, _ in prepared), max(x.max() for x, _ in prepared)
    ymin, ymax = min(y.min() for _, y in prepared), max(y.max() for _, y in prepared)
    xmin, xmax, ymin, ymax = map(float, (xmin, xmax, ymin, ymax))
    xmax = xmin + 1.0 if xmax == xmin else xmax
    ymax = ymin + 1.0 if ymax == ymin else ymax
    points = []
    for x, y in prepared:
        cells = []
        for u, v in zip(x, y):
            px = _LEFT + (u - xmin) / (xmax - xmin) * _WIDTH
            py = _TOP + (ymax - v) / (ymax - ymin) * _HEIGHT
            cells.append(f"{px:.2f},{py:.2f}")
        points.append(" ".join(cells))
    return points


rng = np.random.default_rng(7)
_X = np.arange(1, 301) / 300.0


@pytest.mark.parametrize("series, logy", [
    ([(_X, rng.standard_normal(300), "a"), (_X[::3], rng.standard_normal(100) * 1e-9, "b")],
     False),
    ([(_X, rng.standard_normal(300) * 10.0 ** rng.integers(-20, 3, 300), "a"),
      (_X, np.zeros(300), "zero")], True),
    ([(_X, np.full(300, math.pi), "constant")], False),
    ([(np.full(5, 2.0), np.full(5, -1.5), "one point")], False),
], ids=["random", "log", "constant", "one-x"])
def test_polylines_match_the_per_point_rule(series, logy):
    svg = svgplot.line_plot(series, title="t", xlabel="x", ylabel="y", logy=logy)
    assert re.findall(r'points="([^"]*)"', svg) == reference_points(series, logy)
