"""Minimal SVG line plots for trace outputs.

Writes self-contained static vector graphics so reproduction artifacts
need no plotting runtime. Only what the trace figures use: multiple
series over a shared x axis, nice-number ticks, a small legend.
"""
from __future__ import annotations

import math
import sys

import numpy as np

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
COLORS = ("#1f6fb2", "#d6522a", "#3a8f3a", "#8a5fb0", "#b0356d", "#6b6b6b")
TICKS = 6   # about this many ticks per axis
_MAX = sys.float_info.max


def _half_span(lo, hi):
    """(hi - lo) / 2 taken on the halved ends, for floats or ndarrays: finite for any
    finite lo and hi, and the same double as (hi - lo) / 2 wherever that does not
    overflow, since halving a normal double is exact."""
    return 0.5 * hi - 0.5 * lo


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """lo and hi, moved apart when closer than 1e-12 by the larger of 1 and 1e-12 of
    their largest magnitude each way (1 alone is lost to rounding past 2**53), within
    the finite doubles."""
    if hi - lo < 1e-12:
        w = max(1.0, 1e-12 * max(abs(lo), abs(hi)))
        lo, hi = max(lo - w, -_MAX), min(hi + w, _MAX)
    return lo, hi


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = _half_span(lo, hi) / (0.5 * TICKS)   # (hi - lo) / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step and t < math.inf:   # hi + 1e-12 * step may overflow
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t, last = t + step, t
        if t == last:   # step is below half an ulp of t: no further tick is representable
            break
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _points(xy: list) -> str:
    """The points attribute "x0,y0 x1,y1 ..." of a polyline through the pixel coordinates
    xy = [x0, y0, x1, y1, ...], one decimal each, formatted by a single %."""
    return " ".join(["%.1f,%.1f"] * (len(xy) // 2)) % tuple(xy)


def line_plot(path: str, x, series: list[tuple[str, np.ndarray]],
              title: str = "", xlabel: str = "", ylabel: str = ""):
    """Write an SVG of the given (label, y) series against x.

    Raises ValueError, naming x or the series, on a nan or +-inf value: it has no
    place on the axes."""
    x = np.asarray(x, dtype=float)
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    for name, v in [("x", x)] + [(f"series {label!r}", y) for label, y in ys]:
        if not np.isfinite(v).all():
            raise ValueError(f"line_plot: {name} holds a non-finite value")
    x_lo, x_hi = _widened(float(x.min()), float(x.max()))
    y_lo, y_hi = _widened(min(float(y.min()) for _, y in ys),
                          max(float(y.max()) for _, y in ys))
    pad = 0.1 * _half_span(y_lo, y_hi)   # 5% of the range
    y_lo, y_hi = max(y_lo - pad, -_MAX), min(y_hi + pad, _MAX)
    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    # data to pixel coordinates, for floats or ndarrays; the spans are taken in halves
    # so that a range wider than the largest double does not overflow
    def sx(v):
        return MARGIN_L + _half_span(x_lo, v) / _half_span(x_lo, x_hi) * px_w

    def sy(v):
        return MARGIN_T + _half_span(v, y_hi) / _half_span(y_lo, y_hi) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for t in _nice_ticks(x_lo, x_hi):
        X = sx(t)
        parts.append(f'<line x1="{X:.1f}" y1="{MARGIN_T + px_h}" x2="{X:.1f}" '
                     f'y2="{MARGIN_T + px_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{X:.1f}" y="{MARGIN_T + px_h + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
        parts.append(f'<line x1="{X:.1f}" y1="{MARGIN_T}" x2="{X:.1f}" '
                     f'y2="{MARGIN_T + px_h}" stroke="#ddd" stroke-width="0.5"/>')
    for t in _nice_ticks(y_lo, y_hi):
        Y = sy(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{Y:.1f}" x2="{MARGIN_L}" '
                     f'y2="{Y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{Y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{MARGIN_L}" y1="{Y:.1f}" x2="{MARGIN_L + px_w}" '
                     f'y2="{Y:.1f}" stroke="#ddd" stroke-width="0.5"/>')
    if xlabel:
        parts.append(f'<text x="{MARGIN_L + px_w / 2}" y="{HEIGHT - 10}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{MARGIN_T + px_h / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {MARGIN_T + px_h / 2})">{ylabel}</text>')

    # thin long traces so files stay small; 2000 points is visually dense
    stride = max(len(x) // 2000, 1)
    px = sx(x[::stride])
    for k, (label, y) in enumerate(ys):
        color = COLORS[k % len(COLORS)]
        xy = np.column_stack([px, sy(y[::stride])]).ravel().tolist()   # x0, y0, x1, y1, ...
        if len(xy) == 2:  # a one-point polyline draws nothing: mark the point
            cx, cy = xy
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{_points(xy)}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * k
        lx = MARGIN_L + px_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
