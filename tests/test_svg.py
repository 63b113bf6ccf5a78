from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from windtree.billiard import (BOTTOM, LEFT, RIGHT, TOP, TracedPath,
                               make_state, side_length, trace)
from windtree.errors import DomainError
from windtree.exact import Slope, classify_params
from windtree.svg import _canvas, render_trajectory

from support import fraction_canvas

HALF = classify_params(1, 2, 1, 2)


def _reference_render(params, path, scale=60, highlight_cells=(), margin=1):
    """The renderer as first written: every rect's corner is its own
    Fraction expression, converted with float() on its own."""
    def fmt(value):
        return f"{float(value):.6f}"

    xs = [p.x for p in path.points]
    ys = [p.y for p in path.points]
    x_lo, x_hi = floor(min(xs)) - margin, ceil(max(xs)) + margin
    y_lo, y_hi = floor(min(ys)) - margin, ceil(max(ys)) + margin
    a2, b2 = params.a / 2, params.b / 2
    pad = Fraction(1, 2)

    def sx(x):
        return fmt((x - x_lo + pad) * scale)

    def sy(y):
        return fmt((y_hi + pad - y) * scale)

    width = fmt((x_hi - x_lo + 2 * pad) * scale)
    height = fmt((y_hi - y_lo + 2 * pad) * scale)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    highlighted = set(highlight_cells)
    for n in range(y_lo, y_hi + 1):
        for m in range(x_lo, x_hi + 1):
            fill = "#b0b0b0" if (m, n) in highlighted else "none"
            lines.append(
                f'<rect x="{sx(m - a2)}" y="{sy(n + b2)}" '
                f'width="{fmt(params.a * scale)}" '
                f'height="{fmt(params.b * scale)}" '
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


def _first_difference(got, want):
    """The first line where two documents differ, or None: a one-line
    failure report instead of a diff of thousands of lines."""
    got, want = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i}: {g!r} != {w!r}"
    if len(got) != len(want):
        return f"{len(got)} lines != {len(want)} lines"
    return None


def _dimension(pair):
    frac = Fraction(*pair)
    return frac.numerator, frac.denominator


TABLES = st.tuples(
    st.integers(2, 13).flatmap(lambda q: st.tuples(st.integers(1, q - 1),
                                                   st.just(q))),
    st.integers(2, 13).flatmap(lambda s: st.tuples(st.integers(1, s - 1),
                                                   st.just(s)))).map(
    lambda t: classify_params(*_dimension(t[0]), *_dimension(t[1])))


def _reduced(u, v):
    g = gcd(u, v)
    return (u // g, v // g) if g else (0, 1)


SLOPES = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: _reduced(*t))
# side midpoints and thirds send many slopes straight into a corner
OFFSETS = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
                           Fraction(5, 11), Fraction(13, 17)])


@st.composite
def traced_paths(draw):
    params = draw(TABLES)
    u, v = draw(SLOPES)
    if u == 0:
        side = draw(st.sampled_from([LEFT, RIGHT]))
    elif v == 0:
        side = draw(st.sampled_from([TOP, BOTTOM]))
    else:
        side = draw(st.sampled_from([LEFT, RIGHT, TOP, BOTTOM]))
    free = draw(st.sampled_from([1, -1]))
    outward = {TOP: (free, 1), BOTTOM: (free, -1),
               LEFT: (-1, free), RIGHT: (1, free)}[side]
    cell = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    offset = draw(OFFSETS) * side_length(params, side)
    try:
        state = make_state(params, cell, side, offset, Slope(u, v), outward)
    except DomainError:
        assume(False)
    path = trace(state, params, draw(st.integers(0, 300)))
    xs = [p.x for p in path.points]
    ys = [p.y for p in path.points]
    # at most 2000 obstacles with the widest margin: long flights on small
    # obstacles span boxes of 10^5 cells, seconds per example for the
    # reference, which would make a failing run shrink for many minutes
    assume((ceil(max(xs)) - floor(min(xs)) + 7)
           * (ceil(max(ys)) - floor(min(ys)) + 7) <= 2000)
    if draw(st.booleans()) and not path.singular:
        # the renderer reads only the flag: tag a regular path singular
        path = TracedPath(path.points, corner=path.points[-1])
    return params, path


@settings(max_examples=120, deadline=None)
@given(case=traced_paths(),
       highlight=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                          max_size=6),
       scale=st.integers(1, 200) | st.sampled_from([997, 10 ** 6]),
       margin=st.integers(0, 3))
def test_render_matches_per_rect_reference_property(case, highlight, scale,
                                                    margin):
    params, path = case
    got = render_trajectory(params, path, scale=scale,
                            highlight_cells=tuple(highlight), margin=margin)
    want = _reference_render(params, path, scale=scale,
                             highlight_cells=tuple(highlight), margin=margin)
    assert _first_difference(got, want) is None


def test_render_matches_reference_on_a_corner_hit():
    start = make_state(HALF, (0, 0), TOP, Fraction(1, 4), Slope(2, 3), (1, 1))
    path = trace(start, HALF, 10)
    assert path.singular
    assert _first_difference(
        render_trajectory(HALF, path, highlight_cells=((1, 1),)),
        _reference_render(HALF, path, highlight_cells=((1, 1),))) is None


# numerators and denominators up to 2^64, of both signs
BIG_FRACTIONS = st.builds(Fraction, st.integers(-2 ** 66, 2 ** 66),
                          st.integers(1, 2 ** 64))


@settings(max_examples=400, deadline=None)
@given(x_lo=st.integers(-10 ** 6, 10 ** 6), y_hi=st.integers(-10 ** 6, 10 ** 6),
       scale=st.integers(1, 200) | st.sampled_from([997, 10 ** 6]),
       x=BIG_FRACTIONS | st.integers(-50, 50), y=BIG_FRACTIONS)
def test_canvas_coordinates_match_fraction_oracle_property(x_lo, y_hi, scale,
                                                           x, y):
    sx, sy = _canvas(x_lo, y_hi, scale)
    want_sx, want_sy = fraction_canvas(x_lo, y_hi, scale)
    assert (sx(x), sy(y)) == (want_sx(x), want_sy(y))


def test_render_rejects_a_path_without_points():
    with pytest.raises(DomainError, match="without points"):
        render_trajectory(HALF, TracedPath(()))


@pytest.mark.parametrize("margin", [-1, -3])
def test_render_rejects_a_negative_margin(margin):
    path = trace(make_state(HALF, (0, 0), TOP, Fraction(1, 4), Slope(3, 4),
                            (1, 1)), HALF, 10)
    with pytest.raises(DomainError, match="margin must be >= 0"):
        render_trajectory(HALF, path, margin=margin)
