"""Figure-style SVG output: the obstacle lattice inside a trajectory's
bounding box, the exact polyline, and highlighted repeat obstacles for
escaping orbits.

All coordinates are exact rationals until the one formatting step, which
prints a fixed precision so that the same input yields byte-identical
files.  A canvas coordinate is one int/int division, rounded correctly by
CPython, of integers built from the point's numerator and denominator, so
its digits are those of the exact value.  Every obstacle in a lattice
column shares its x and every obstacle in a row its y, so those strings
are formatted once per column and row.
"""

from __future__ import annotations

from math import ceil, floor

from .billiard import TracedPath
from .errors import DomainError, check_count
from .exact import Params


def _fmt(value, scale: int) -> str:
    """``value * scale`` with six decimals.

    One correctly rounded int/int division, so the digits are those of
    ``float(value * scale)``.
    """
    return f"{value.numerator * scale / value.denominator:.6f}"


def _canvas(x_lo: int, y_hi: int, scale: int) -> tuple:
    """The formatters (sx, sy) of canvas coordinates in a box that starts
    at x_lo and ends at y_hi, with a pad of 1/2 that keeps the outermost
    obstacles inside the canvas.

    x - x_lo + 1/2 and y_hi + 1/2 - y are formatted as `_fmt` would, from
    the numerator over 2*den of the coordinate's denominator den.
    """
    x_off, y_off = 1 - 2 * x_lo, 2 * y_hi + 1

    def sx(x):
        den = x.denominator
        return f"{(2 * x.numerator + x_off * den) * scale / (2 * den):.6f}"

    def sy(y):
        den = y.denominator
        return f"{(y_off * den - 2 * y.numerator) * scale / (2 * den):.6f}"

    return sx, sy


def render_trajectory(params: Params, path: TracedPath, scale: int = 60,
                      highlight_cells: tuple = (), margin: int = 1) -> str:
    """SVG 1.1 document for a traced polyline on the obstacle lattice.

    The y axis is flipped to screen convention.  Cells listed in
    ``highlight_cells`` (lattice pairs) are filled gray, marking the
    obstacles an escaping orbit hits at the same spot.
    """
    check_count("scale", scale, shown=True)
    check_count("margin", margin, 0, shown=True)
    if not path.points:
        raise DomainError("cannot render a path without points")
    xs = [p.x for p in path.points]
    ys = [p.y for p in path.points]
    x_lo, x_hi = floor(min(xs)) - margin, ceil(max(xs)) + margin
    y_lo, y_hi = floor(min(ys)) - margin, ceil(max(ys)) + margin
    a2, b2 = params.a / 2, params.b / 2
    sx, sy = _canvas(x_lo, y_hi, scale)
    width = _fmt(x_hi - x_lo + 1, scale)  # the box and both pads
    height = _fmt(y_hi - y_lo + 1, scale)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # top-left corner of the obstacle at (m, n) is (m - a/2, n + b/2)
    columns = [(m, sx(m - a2)) for m in range(x_lo, x_hi + 1)]
    size = f'width="{_fmt(params.a, scale)}" height="{_fmt(params.b, scale)}"'
    highlighted = set(highlight_cells)
    for n in range(y_lo, y_hi + 1):
        y = sy(n + b2)
        for m, x in columns:
            fill = "#b0b0b0" if (m, n) in highlighted else "none"
            lines.append(f'<rect x="{x}" y="{y}" {size} '
                         f'fill="{fill}" stroke="black" stroke-width="1"/>')
    coords = " L ".join(f"{sx(p.x)} {sy(p.y)}" for p in path.points)
    color = "#c03030" if path.singular else "#2040c0"
    lines.append(f'<path d="M {coords}" fill="none" '
                 f'stroke="{color}" stroke-width="1.5"/>')
    start = path.points[0]
    lines.append(f'<circle cx="{sx(start.x)}" cy="{sy(start.y)}" r="3" '
                 f'fill="#208020"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
