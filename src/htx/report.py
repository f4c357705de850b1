"""CSV and SVG emission for run records.

The SVG writer is deliberately minimal and deterministic: one x-axis tick per
configuration, one polyline per series, fixed geometry.  Charts are inspection
aids, not publication figures.
"""

from __future__ import annotations

import csv
from pathlib import Path

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 60


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """RFC-4180 CSV with a header row; floats use repr so they round-trip."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return str(path)


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def svg_line_chart(path, x_values, series: dict[str, list[float]],
                   xlabel: str, ylabel: str, title: str = "") -> str:
    """Write a line chart with one x tick per x value and a legend per series."""
    path = Path(path)
    xs = [float(v) for v in x_values]
    all_y = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_px = _scale(xs, min(xs), max(xs), _MARGIN_L, _WIDTH - _MARGIN_R)
    plot_bottom = _HEIGHT - _MARGIN_B

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN_L}" y1="{plot_bottom}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{plot_bottom}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{plot_bottom}" stroke="black"/>',
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>',
    ]
    for xv, xp in zip(xs, x_px):
        parts.append(f'<line class="xtick" x1="{xp:.1f}" y1="{plot_bottom}" '
                     f'x2="{xp:.1f}" y2="{plot_bottom + 6}" stroke="black"/>')
        parts.append(f'<text x="{xp:.1f}" y="{plot_bottom + 20}" '
                     f'text-anchor="middle">{xv:g}</text>')
    for tick in range(5):
        frac = tick / 4
        yv = y_lo + frac * (y_hi - y_lo)
        yp = plot_bottom - frac * (plot_bottom - _MARGIN_T)
        parts.append(f'<line x1="{_MARGIN_L - 6}" y1="{yp:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{yp:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 10}" y="{yp + 4:.1f}" '
                     f'text-anchor="end">{yv:.4g}</text>')
    for si, (name, ys) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        y_px = _scale(ys, y_lo, y_hi, plot_bottom, _MARGIN_T)
        points = " ".join(f"{xp:.1f},{yp:.1f}" for xp, yp in zip(x_px, y_px))
        parts.append(f'<polyline class="series" fill="none" stroke="{color}" '
                     f'stroke-width="2" points="{points}"/>')
        ly = _MARGIN_T + 16 * si
        parts.append(f'<line x1="{_WIDTH - 160}" y1="{ly}" x2="{_WIDTH - 140}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - 134}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))
    return str(path)
