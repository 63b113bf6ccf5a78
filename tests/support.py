"""Functions only the tests use: a side's midpoint state, the length of a
traced polyline, the return map scaled to a lattice scale and the whole
power map built eagerly from it, the matrix and the inverse of a generator
word, and the straight-line flow on a square-tiled surface.  The package
itself has no use for them.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from windtree.billiard import (_POWER, BilliardState, TracedPath, _return_map,
                               make_state, side_length)
from windtree.errors import DomainError
from windtree.exact import Params, Slope
from windtree.origami import Origami, as_tokens


def midpoint_state(params: Params, cell: tuple, side: str, slope: Slope,
                   orientation: tuple) -> BilliardState:
    """State at the midpoint of an obstacle side (the E/F preimages)."""
    return make_state(params, cell, side, side_length(params, side) / 2,
                      slope, orientation)


def path_length(path: TracedPath, slope: Slope) -> Fraction:
    """Exact length of a traced polyline in primitive-vector units."""
    total = Fraction(0)
    for p0, p1 in zip(path.points, path.points[1:]):
        dx, dy = abs(p1.x - p0.x), abs(p1.y - p0.y)
        if slope.v:
            total += Fraction(dx, slope.v)
        else:
            total += Fraction(dy, slope.u)
    return total


def _compose(first: tuple, second: tuple) -> tuple:
    """The map ``second`` after ``first``, both (cuts, pieces) as
    `eager_power_map` gives them: each piece of ``first`` is split where
    its image meets a breakpoint of ``second``."""
    cuts, pieces = [], []
    for cs, row in zip(*first):
        new_cs, new_row = [], []
        lo = 0
        for hi, (k, flip, s, dm, dn, c0, c1, mlo, mhi, nlo, nhi, *_) in \
                zip(cs, row):
            # the image (a, b) of (lo, hi) meets the pieces j0..j1 of k
            a, b = (s - hi, s - lo) if flip else (lo + s, hi + s)
            cs2, row2 = second[0][k], second[1][k]
            j0, j1 = bisect_right(cs2, a), bisect_left(cs2, b)
            part = []
            for j in range(j0, j1 + 1):
                k2, flip2, s2, dm2, dn2, c02, c12, mlo2, mhi2, nlo2, nhi2, \
                    *_ = row2[j]
                part.append((k2, flip != flip2, s2 - s if flip2 else s2 + s,
                             dm + dm2, dn + dn2, c0 + c02 + c12 * s,
                             c1 - c12 if flip else c1 + c12,
                             min(mlo, dm + mlo2), max(mhi, dm + mhi2),
                             min(nlo, dn + nlo2), max(nhi, dn + nhi2)))
            # the breakpoints inside the image, taken back, in order of t
            if flip:
                part.reverse()
                new_cs += [s - cs2[j] for j in range(j1 - 1, j0 - 1, -1)]
            else:
                new_cs += [cs2[j] - s for j in range(j0, j1)]
            new_row += part
            new_cs.append(hi)
            lo = hi
        cuts.append(tuple(new_cs))
        pieces.append(tuple(new_row))
    return tuple(cuts), tuple(pieces)


def scaled_return_map(params, u: int, v: int, n0: int) -> tuple:
    """T of slope u/v at lattice scale n0: (cuts, pieces, corners) by
    domain, as `billiard._return_map` gives them at n0 = 1, with the
    breakpoints, the side length, the shifts and the constant extent terms
    scaled by n0 and each piece (k', flip, shift, dm, dn, c0, c1) followed
    by the box of the one cell it arrives in, mlo, mhi, nlo, nhi.  The
    oracle for level 0 of `billiard._PowerMap`."""
    cuts, pieces, corners = _return_map(params, u, v)
    return (tuple(tuple(n0 * c for c in cs) for cs in cuts),
            tuple(tuple((k, flip, n0 * shift, dm, dn, n0 * c0, c1,
                         dm, dm, dn, dn)
                        for k, flip, shift, dm, dn, c0, c1 in row)
                  for row in pieces),
            corners)


def eager_power_map(params, u: int, v: int, n0: int) -> tuple:
    """T^_POWER of slope u/v at lattice scale n0, every piece built: (cuts,
    pieces) by domain, as `scaled_return_map` gives T, with pieces (k',
    flip, shift, dm, dn, c0, c1, mlo, mhi, nlo, nhi).  Built by three
    doublings, T^2, T^4, T^8; the oracle for the pieces that
    `billiard._PowerMap` composes one at a time."""
    table = scaled_return_map(params, u, v, n0)[:2]
    for _ in range(_POWER.bit_length() - 1):
        table = _compose(table, table)
    return table


def inverse_word(word) -> tuple:
    return tuple((g, -k) for g, k in reversed(as_tokens(word)))


def word_matrix(word) -> tuple:
    """2x2 integer matrix of a generator word (as ((a, b), (c, d)))."""
    a, b, c, d = 1, 0, 0, 1
    for gen, k in as_tokens(word):
        if gen == "T":
            e, f, g2, k2 = 1, k, 0, 1
        elif k % 4 == 1:
            e, f, g2, k2 = 0, -1, 1, 0
        elif k % 4 == 2:
            e, f, g2, k2 = -1, 0, 0, -1
        elif k % 4 == 3:
            e, f, g2, k2 = 0, 1, -1, 0
        else:
            continue
        a, b, c, d = e * a + f * c, e * b + f * d, g2 * a + k2 * c, g2 * b + k2 * d
    return ((a, b), (c, d))


def flow_first_hit(origami: Origami, start: tuple, direction: tuple,
                   target: tuple, max_segments: int = 100000):
    """Length (in primitive direction vectors) at which the straight flow
    from ``start`` first reaches ``target``, or None.

    ``start`` and ``target`` are (cell, x, y) with in-cell coordinates;
    the direction (V, U) must have positive components.  Reaching the cone
    point stops the flow.
    """
    V, U = direction
    if V <= 0 or U <= 0:
        raise DomainError("flow direction must have positive components")
    h, v = origami.h, origami.v

    def regular_ne(c):
        return v[h[c]] == h[v[c]]

    cell, x, y = start
    tcell, tx, ty = target
    lam = Fraction(0)
    for _ in range(max_segments):
        # target on the forward segment inside `cell`?  (canonical in-cell
        # coordinates are < 1, so collinear ahead-of-us means this segment)
        if cell == tcell and tx >= x and (tx - x) * U == (ty - y) * V:
            return lam + Fraction(tx - x, V)
        t_right = Fraction(1 - x, V)
        t_top = Fraction(1 - y, U)
        if t_right < t_top:
            lam += t_right
            cell, x, y = h[cell], Fraction(0), y + t_right * U
        elif t_top < t_right:
            lam += t_top
            cell, x, y = v[cell], x + t_top * V, Fraction(0)
        else:
            if not regular_ne(cell):
                return None  # ran into the cone point
            lam += t_right
            cell, x, y = v[h[cell]], Fraction(0), Fraction(0)
    return None
