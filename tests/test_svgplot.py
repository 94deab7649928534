import math
import re

import numpy as np
import pytest

from splinespectra import svgplot

from oracles import reference_viridis

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


def reference_heatmap_rects(values):
    """Every cell of a heatmap, one at a time, with the fill from the scalar
    colormap of the oracles."""
    mag = np.log10(np.maximum(np.abs(np.asarray(values, dtype=float)), 1e-16))
    vmin, vmax = float(mag.min()), float(mag.max())
    vmax = vmin + 1.0 if vmax == vmin else vmax
    nr, nc = mag.shape
    cell = max(2, (560 - 60 - 20) // nc)
    return [f'<rect x="{60 + j * cell}" y="{34 + (nr - 1 - i) * cell}" width="{cell}" '
            f'height="{cell}" fill="{reference_viridis((mag[i, j] - vmin) / (vmax - vmin))}"/>'
            for i in range(nr) for j in range(nc)]


# exact powers of ten: log10 magnitudes -16 .. 0, so t = k / 16 exactly, on
# every color stop (k = 0, 4, 8, 12, 16) and on every quarter between two,
# where channels whose stops differ by an odd or twice an odd step land on
# a half integer
_STOPS_AND_HALVES = 10.0 ** np.arange(-16, 1).reshape(1, -1)


@pytest.mark.parametrize("values", [
    rng.standard_normal((35, 35)) * 10.0 ** rng.integers(-18, 3, (35, 35)),
    rng.standard_normal((7, 13)),
    np.where(rng.random((12, 5)) < 0.3, 0.0, rng.standard_normal((12, 5))),
    np.full((4, 6), 3.0),
    np.ones((1, 1)),
    _STOPS_AND_HALVES,
    np.vstack([_STOPS_AND_HALVES, -_STOPS_AND_HALVES[:, ::-1]]),
], ids=["random-35", "random-7x13", "with-zeros", "constant", "one-cell",
        "stops-and-halves", "stops-and-halves-2-rows"])
def test_heatmap_fills_match_the_per_cell_colormap(values):
    svg = svgplot.heatmap(values, title="t", xlabel="k", ylabel="j")
    assert re.findall(r"<rect [^>]*/>", svg) == reference_heatmap_rects(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heatmap_refuses_a_value_it_cannot_color(bad):
    with pytest.raises(ValueError):
        svgplot.heatmap(np.array([[bad, 1.0], [2.0, 3.0]]))


def test_edge_grid_lands_on_stops_and_half_integer_channels():
    # the grid above really reaches the cases it is meant to reach
    mag = np.log10(_STOPS_AND_HALVES[0])
    t = (mag - mag.min()) / (mag.max() - mag.min())
    np.testing.assert_array_equal(t, np.arange(17) / 16)
    stops = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98),
                      (253, 231, 37)], dtype=float)
    i = np.minimum((4 * t).astype(int), 3)
    blend = stops[i] + (4 * t - i)[:, None] * (stops[i + 1] - stops[i])
    assert np.count_nonzero(blend % 1 == 0.5) >= 10
    assert {reference_viridis(s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)} == {
        f"rgb({r},{g},{b})" for r, g, b in stops.astype(int)}
