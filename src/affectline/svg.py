"""Small deterministic SVG chart writers.

Hand-rolled so that identical inputs always give byte-identical files;
output here feeds the bit-for-bit reproducibility contract of run
directories. Fixed-precision coordinates, no timestamps or ids.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 36, 48


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
    ]


def _plot_box():
    x0, y0 = _MARGIN_L, _MARGIN_T
    x1, y1 = _W - _MARGIN_R, _H - _MARGIN_B
    return x0, y0, x1, y1


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """Line chart of ``series`` = [(name, [y values]), ...] against index 1..N,
    the y axis 0..1 (values outside it are clamped to it)."""
    x0, y0, x1, y1 = _plot_box()
    n = max((len(ys) for _, ys in series), default=0)
    parts = _header(title)
    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                 'fill="none" stroke="#999"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y1 - frac * (y1 - y0)
        parts.append(f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
                     'stroke="#ddd"/>')
        parts.append(f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end">'
                     f"{frac:.2f}</text>")
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 12}" text-anchor="middle">'
                 f"{escape(x_label)}</text>")
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{escape(y_label)}</text>')
    for idx, (name, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = []
        for i, v in enumerate(ys):
            if not np.isfinite(v):
                continue
            px = x0 if n <= 1 else x0 + i * (x1 - x0) / (n - 1)
            py = y1 - min(max(v, 0.0), 1.0) * (y1 - y0)
            pts.append(f"{px:.2f},{py:.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = y0 + 16 + 16 * idx
        parts.append(f'<line x1="{x1 - 110}" y1="{ly}" x2="{x1 - 86}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 80}" y="{ly + 4}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap(matrix, row_labels, col_labels, title: str) -> str:
    """Count heatmap (e.g. a confusion matrix), rows on the y axis."""
    m = np.asarray(matrix, dtype=np.float64)
    x0, y0, x1, y1 = _plot_box()
    rows, cols = m.shape
    cw, ch = (x1 - x0) / cols, (y1 - y0) / rows
    peak = m.max() if m.max() > 0 else 1.0
    parts = _header(title)
    for i in range(rows):
        for j in range(cols):
            frac = m[i, j] / peak
            shade = int(round(255 - frac * 200))
            cx, cy = x0 + j * cw, y0 + i * ch
            parts.append(f'<rect x="{cx:.1f}" y="{cy:.1f}" width="{cw:.1f}" '
                         f'height="{ch:.1f}" fill="rgb({shade},{shade},255)" '
                         'stroke="#777"/>')
            text_fill = "#000" if frac < 0.6 else "#fff"
            parts.append(f'<text x="{cx + cw / 2:.1f}" y="{cy + ch / 2 + 4:.1f}" '
                         f'text-anchor="middle" fill="{text_fill}">{int(m[i, j])}</text>')
    for i, name in enumerate(row_labels):
        parts.append(f'<text x="{x0 - 6}" y="{y0 + (i + 0.5) * ch + 4:.1f}" '
                     f'text-anchor="end">{escape(str(name))}</text>')
    for j, name in enumerate(col_labels):
        parts.append(f'<text x="{x0 + (j + 0.5) * cw:.1f}" y="{y1 + 16}" '
                     f'text-anchor="middle">{escape(str(name))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(labels, values, title: str, y_label: str) -> str:
    """Vertical bars, y scaled to the data maximum."""
    vals = [float(v) for v in values]
    x0, y0, x1, y1 = _plot_box()
    peak = max(vals) if vals and max(vals) > 0 else 1.0
    slot = (x1 - x0) / max(len(vals), 1)
    parts = _header(title)
    parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="#999"/>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{escape(y_label)}</text>')
    for i, (label, v) in enumerate(zip(labels, vals)):
        h = (v / peak) * (y1 - y0)
        bx = x0 + i * slot + slot * 0.15
        parts.append(f'<rect x="{bx:.1f}" y="{y1 - h:.1f}" width="{slot * 0.7:.1f}" '
                     f'height="{h:.1f}" fill="{_PALETTE[i % len(_PALETTE)]}"/>')
        parts.append(f'<text x="{x0 + (i + 0.5) * slot:.1f}" y="{y1 + 16}" '
                     f'text-anchor="middle">{escape(str(label))}</text>')
        parts.append(f'<text x="{x0 + (i + 0.5) * slot:.1f}" y="{y1 - h - 4:.1f}" '
                     f'text-anchor="middle">{v:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
