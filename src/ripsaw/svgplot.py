"""SVG rendering of (approximate) persistence diagrams.

Draws the diagonal in black and the profile's shift map psi in red; error
rectangles are filled blue for definite entries and orange for possible
ones, with the diagram entry at the upper-right corner.  Entries with
infinite death sit on a dashed band above the finite range.  Log-log axes
clamp every coordinate to the smallest positive coordinate drawn (1e-6 if
there is none) before transforming.
"""

from __future__ import annotations

import json
import math
import sys

from .diagram import approximate

INF = math.inf

_SIZE = 640.0
_CURVE_SAMPLES = 200
_TICK_TARGET = 5
_MARGIN = 56.0
_INF_BAND = 26.0

_DEFINITE_FILL = "#4878cf"
_POSSIBLE_FILL = "#ee854a"
_PSI_COLOR = "#d62728"

_FLOAT_MAX = sys.float_info.max
_TINY = math.ulp(0.0)  # 5e-324, the least positive float
_LOG_FLOAT_MAX = math.nextafter(math.log10(_FLOAT_MAX), 0.0)  # 10 ** this is finite


class _Axis:
    """Maps [0, hi] to [0, 1] linearly, or log10 from ``clip`` up with every
    coordinate clamped to ``clip``; a span that is not positive becomes 1.
    The linear map clamps nothing: every entry, rectangle corner and curve
    sample of a valid diagram and profile is >= 0."""

    def __init__(self, hi, log, clip):
        self.log = log
        self.clip = clip
        lo, hi = (math.log10(clip), math.log10(max(hi, clip))) if log else (0.0, hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.span = hi - lo

    def unit(self, v):
        if self.log:
            v = math.log10(max(v, self.clip))
        return (v - self.lo) / self.span


def render_svg(diagram, profile, config, *, log_axes=False):
    """Render a diagram with its profile's error boxes and psi to SVG text,
    recording ``config`` in a comment."""
    approx = approximate(diagram, profile)
    finite = [v for e in approx for v in e.rect if v != INF]
    finite.append(profile.R)
    hi = max(finite)
    positives = [v for v in finite if v > 0]
    clip = min(positives) if positives else 1e-6
    axis = _Axis(min(hi * 1.02, _FLOAT_MAX), log_axes, clip)

    plot = _SIZE - 2 * _MARGIN
    inf_y = _MARGIN - _INF_BAND / 2.0

    def px(v):
        return _MARGIN + axis.unit(v) * plot

    def py(v):
        if v == INF:
            return inf_y
        return _SIZE - _MARGIN - axis.unit(v) * plot

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             "<!-- config " + json.dumps(config, sort_keys=True) + " -->"]
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">')
    parts.append(f'<rect width="{_SIZE:.0f}" height="{_SIZE:.0f}" fill="white"/>')
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot}" height="{plot}" '
        'fill="none" stroke="#999" stroke-width="1"/>')
    # dashed band for infinite deaths
    parts.append(
        f'<line x1="{_MARGIN}" y1="{inf_y}" x2="{_SIZE - _MARGIN}" y2="{inf_y}" '
        'stroke="#777" stroke-width="1" stroke-dasharray="6 4"/>')
    parts.append(
        f'<text x="{_MARGIN - 30}" y="{inf_y + 4}" font-size="12" fill="#555">inf</text>')

    for frac, label in _ticks(axis):
        x = _MARGIN + frac * plot
        y = _SIZE - _MARGIN - frac * plot
        parts.append(f'<text x="{x:.1f}" y="{_SIZE - _MARGIN + 16:.1f}" '
                     f'font-size="11" text-anchor="middle" fill="#333">{label}</text>')
        parts.append(f'<text x="{_MARGIN - 6:.1f}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end" fill="#333">{label}</text>')

    # rectangles below curves, dots above
    for e in approx:
        x0, x1 = px(e.rect[0]), px(e.birth)
        if e.essential:
            y0, y1 = inf_y - 4, inf_y + 4
        else:
            y0, y1 = py(e.death), py(e.rect[2])
        fill = _DEFINITE_FILL if e.definite else _POSSIBLE_FILL
        cls = "definite" if e.definite else "possible"
        parts.append(
            f'<rect class="{cls}" x="{x0:.2f}" y="{y0:.2f}" '
            f'width="{max(x1 - x0, 0.8):.2f}" height="{max(y1 - y0, 0.8):.2f}" '
            f'fill="{fill}" fill-opacity="0.35" stroke="{fill}" stroke-width="0.8"/>')

    # diagonal (identity, black)
    parts.append(_curve_path(lambda r: r, axis, px, py, "black", "identity"))
    parts.append(_curve_path(profile.psi, axis, px, py, _PSI_COLOR, "psi"))

    for e in approx:
        parts.append(f'<circle cx="{px(e.birth):.2f}" cy="{py(e.death):.2f}" '
                     'r="2.6" fill="#222"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _curve_path(fn, axis, px, py, color, name):
    pts = []
    for k in range(_CURVE_SAMPLES + 1):
        x = axis.lo + axis.span * (k / _CURVE_SAMPLES)  # span * k may overflow
        r = 10 ** min(x, _LOG_FLOAT_MAX) if axis.log else x
        pts.append(f"{px(r):.2f},{py(fn(r)):.2f}")
    return (f'<polyline class="{name}" points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="1.4"/>')


def _ticks(axis):
    if axis.log:
        lo = math.ceil(axis.lo)
        hi = math.floor(axis.hi)
        decades = range(lo, hi + 1, max(1, (hi - lo) // _TICK_TARGET + 1))
        return [((d - axis.lo) / axis.span, f"1e{d}") for d in decades]
    # a linear axis starts at 0; below 1e-323 a span / 5 or a power of 10
    # underflows, so neither may fall under the least positive float
    raw = max(axis.span / _TICK_TARGET, _TINY)
    mag = max(10 ** math.floor(math.log10(raw)), _TINY)
    step = next((mult * mag for mult in (1, 2, 5) if raw <= mult * mag), 10 * mag)
    ticks, v = [], 0.0
    while v <= axis.hi:
        ticks.append(((v - axis.lo) / axis.span, f"{v:.6g}"))
        v += step
    return ticks
