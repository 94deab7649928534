"""Minimal deterministic SVG plotting: polyline charts and heatmaps.

Output is plain SVG 1.1 intended for eyeballing spectra against reference
figures; styling is deliberately simple.  Axis ranges are embedded as
``data-*`` attributes on the plot group so files can be checked structurally.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot", "heatmap"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_LOG_FLOOR = 1e-16
# page size of a line plot, and the width a heatmap's cells are sized to fill
LINE_WIDTH, LINE_HEIGHT = 720, 460
_HEATMAP_WIDTH = 560
_STOPS = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98),
                   (253, 231, 37)], dtype=float)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e, hi_e = math.floor(lo), math.ceil(hi)
    stride = max(1, (hi_e - lo_e) // 6)
    return [float(e) for e in range(lo_e, hi_e + 1, stride)]


def line_plot(series, *, title: str = "", xlabel: str = "", ylabel: str = "",
              logy: bool = False) -> str:
    """Render ``(x, y, label)`` triples as polylines.

    With ``logy`` the magnitudes are plotted on a log10 axis (values below
    1e-16 in magnitude are clamped).
    """
    width, height = LINE_WIDTH, LINE_HEIGHT
    ml, mr, mt, mb = 70, 20, 34, 48
    pw, ph = width - ml - mr, height - mt - mb

    prepared = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            y = np.log10(np.maximum(np.abs(y), _LOG_FLOOR))
        prepared.append((x, y, label))

    xmin = min(float(x.min()) for x, _, _ in prepared)
    xmax = max(float(x.max()) for x, _, _ in prepared)
    ymin = min(float(y.min()) for _, y, _ in prepared)
    ymax = max(float(y.max()) for _, y, _ in prepared)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(v):
        return ml + (v - xmin) / (xmax - xmin) * pw

    def sy(v):
        return mt + (ymax - v) / (ymax - ymin) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<g class="plot" data-xmin="{_fmt(xmin)}" data-xmax="{_fmt(xmax)}" '
        f'data-ymin="{_fmt(ymin)}" data-ymax="{_fmt(ymax)}" '
        f'data-logy="{str(logy).lower()}" data-series="{len(prepared)}">',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
        f'fill="white" stroke="black"/>',
    ]
    for t in _ticks(xmin, xmax):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" font-size="11" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    yticks = _log_ticks(ymin, ymax) if logy else _ticks(ymin, ymax)
    for t in yticks:
        if not ymin <= t <= ymax:
            continue
        py = sy(t)
        out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        label = f"1e{int(t)}" if logy else _fmt(t)
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{label}</text>')
    for k, (x, y, label) in enumerate(prepared):
        # whole arrays mapped at once: elementwise, the same values as per
        # point; one template formats every point
        xy = np.column_stack([sx(x), sy(y)]).ravel().tolist()
        pts = ("%.2f,%.2f " * x.size % tuple(xy))[:-1]
        color = _COLORS[k % len(_COLORS)]
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.2" points="{pts}"/>')
        out.append(f'<text x="{ml + 10}" y="{mt + 16 + 14 * k}" font-size="12" '
                   f'fill="{color}">{label}</text>')
    if title:
        out.append(f'<text x="{width / 2}" y="20" font-size="14" '
                   f'text-anchor="middle">{title}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2}" y="{height - 10}" font-size="12" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + ph / 2}" font-size="12" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')
    out.append("</g></svg>")
    return "\n".join(out) + "\n"


def _viridis(t: np.ndarray) -> np.ndarray:
    """The ``(r, g, b)`` channels, on a last axis, of a coarse four-stop
    viridis approximation at ``t`` in ``[0, 1]``: good enough for orientation.
    Each channel blends its two stops linearly and rounds half to even."""
    t = np.clip(t, 0.0, 1.0) * (len(_STOPS) - 1)
    i = np.minimum(t.astype(int), len(_STOPS) - 2)
    f = (t - i)[..., None]
    return np.rint(_STOPS[i] + f * (_STOPS[i + 1] - _STOPS[i])).astype(int)


def heatmap(values: np.ndarray, *, title: str = "", xlabel: str = "",
            ylabel: str = "") -> str:
    """Render the log10 magnitudes of a matrix as a colored cell grid (row 0
    at the bottom; magnitudes below 1e-16 are clamped)."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("heatmap values must be finite")
    nr, nc = values.shape
    mag = np.log10(np.maximum(np.abs(values), _LOG_FLOOR))
    vmin, vmax = float(mag.min()), float(mag.max())
    if vmax == vmin:
        vmax = vmin + 1.0
    ml, mt, mb = 60, 34, 40
    cell = max(2, (_HEATMAP_WIDTH - ml - 20) // nc)
    w = ml + nc * cell + 20
    h = mt + nr * cell + mb
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}">',
        f'<g class="heatmap" data-rows="{nr}" data-cols="{nc}" '
        f'data-vmin="{_fmt(vmin)}" data-vmax="{_fmt(vmax)}" '
        'data-log="true">',
    ]
    # every cell at once, row by row from row 0
    rows, cols = np.divmod(np.arange(nr * nc), nc)
    rgb = _viridis(((mag - vmin) / (vmax - vmin)).ravel())
    cells = np.column_stack([ml + cols * cell, mt + (nr - 1 - rows) * cell, rgb])
    rect = (f'<rect x="%d" y="%d" width="{cell}" height="{cell}" '
            'fill="rgb(%d,%d,%d)"/>')
    out.append("\n".join([rect] * (nr * nc)) % tuple(cells.ravel().tolist()))
    if title:
        out.append(f'<text x="{w / 2}" y="20" font-size="14" '
                   f'text-anchor="middle">{title}</text>')
    if xlabel:
        out.append(f'<text x="{ml + nc * cell / 2}" y="{h - 12}" font-size="12" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + nr * cell / 2}" font-size="12" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 16 {mt + nr * cell / 2})">{ylabel}</text>')
    out.append("</g></svg>")
    return "\n".join(out) + "\n"
