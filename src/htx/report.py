"""CSV and SVG emission for run records.

The SVG writer is deliberately minimal and deterministic: one x-axis tick per
configuration, one polyline per series at its own x values, fixed geometry;
its text is escaped.  Charts are inspection aids, not publication figures.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 60
# what XML 1.0 forbids: controls but tab, newline and return, surrogates, U+FFFE/F
_NON_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
# what UTF-8 cannot encode: lone surrogates
_SURROGATES = re.compile("[\ud800-\udfff]")


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """RFC-4180 CSV in UTF-8 with a header row; floats use repr so they round-trip,
    and each character UTF-8 cannot encode is written as U+FFFD."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        for row in (header, *rows):
            writer.writerow([repr(v) if isinstance(v, float)
                             else _SURROGATES.sub("\ufffd", v) if isinstance(v, str) else v
                             for v in row])
    return str(path)


def _between(lo, hi, frac):
    """lo + frac (hi - lo) for finite lo <= hi and frac in [0, 1], finite also where
    the span overflows: lo < 0 < hi then, and the two terms of the weighted sum
    have opposite signs."""
    span = hi - lo
    if span == math.inf:
        return (1.0 - frac) * lo + frac * hi
    return lo + frac * span


def _scale(values, lo, hi, out_lo, out_hi):
    half = 0.5 if hi - lo == math.inf else 1.0  # halving is exact, so bits are kept
    span = half * hi - half * lo
    if span == 0:
        span = 1.0
    return [out_lo + (half * v - half * lo) / span * (out_hi - out_lo) for v in values]


def _text(value) -> str:
    """value as SVG character data: escaped, each character XML forbids as U+FFFD."""
    text = _NON_XML.sub("\ufffd", str(value))
    # by hand: xml.sax.saxutils.escape would import urllib.request and ssl (7 MB)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_chart(path, x_values, series: dict[str, tuple[list, list[float]]],
                   xlabel: str, ylabel: str, title: str = "") -> str:
    """Write a line chart with one x tick per x value and a legend per series;
    series maps each name to its (x values, y values), inside the ticks' span."""
    path = Path(path)
    xs = [float(v) for v in x_values]
    all_y = [y for _, ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_lo, x_hi = min(xs), max(xs)
    x_px = _scale(xs, x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    plot_bottom = _HEIGHT - _MARGIN_B

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_text(title)}</text>',
        f'<line x1="{_MARGIN_L}" y1="{plot_bottom}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{plot_bottom}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{plot_bottom}" stroke="black"/>',
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle">{_text(xlabel)}</text>',
        f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2})">{_text(ylabel)}</text>',
    ]
    for xv, xp in zip(xs, x_px):
        parts.append(f'<line class="xtick" x1="{xp:.1f}" y1="{plot_bottom}" '
                     f'x2="{xp:.1f}" y2="{plot_bottom + 6}" stroke="black"/>')
        parts.append(f'<text x="{xp:.1f}" y="{plot_bottom + 20}" '
                     f'text-anchor="middle">{xv:g}</text>')
    for tick in range(5):
        frac = tick / 4
        yv = _between(y_lo, y_hi, frac)
        yp = plot_bottom - frac * (plot_bottom - _MARGIN_T)
        parts.append(f'<line x1="{_MARGIN_L - 6}" y1="{yp:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{yp:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 10}" y="{yp + 4:.1f}" '
                     f'text-anchor="end">{yv:.4g}</text>')
    for si, (name, (sx, ys)) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        sx_px = _scale(sx, x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
        y_px = _scale(ys, y_lo, y_hi, plot_bottom, _MARGIN_T)
        points = " ".join(f"{xp:.1f},{yp:.1f}" for xp, yp in zip(sx_px, y_px))
        parts.append(f'<polyline class="series" fill="none" stroke="{color}" '
                     f'stroke-width="2" points="{points}"/>')
        ly = _MARGIN_T + 16 * si
        parts.append(f'<line x1="{_WIDTH - 160}" y1="{ly}" x2="{_WIDTH - 140}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - 134}" y="{ly + 4}">{_text(name)}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")
    return str(path)
