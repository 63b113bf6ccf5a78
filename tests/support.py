"""Functions only the tests use: a side's midpoint state, the length of a
traced polyline, the return map on the 8 domains (built from corner
flights, and from two probes per piece) and its quotient by the table's
reflections, the 8-domain map scaled to a lattice scale and the whole
power map built eagerly from it, single steps on the 8 domains and the
state they reach, the lookup of a start in a cycle store that records nothing, the
matrix and the inverse of a generator word, the straight-line flow on a
square-tiled surface, and the Fraction-based surface action, pull-back,
fold, launch, lift chain and SVG canvas coordinates that the integer ones
replaced.  The package itself has no use for them.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from windtree.billiard import (_DOMAIN_INDEX, _LANDMARK_EVERY, _POWER, _SIDE,
                               _SIDE_AT, DOMAINS, HORIZONTAL_SIDES,
                               BilliardState, Orbit, Outcome, TracedPath,
                               _corner_traces, _CycleStore, _first_hit, _half,
                               _landing, _Lattice, _quotient, _walk_period,
                               _with_entry, classify_trajectory, make_state,
                               side_length)
from windtree.errors import CornerHit, DomainError
from windtree.exact import ORIENTATIONS, Params, PointQ, Slope
from windtree.lift import LiftKind, _cylinder_samples
from windtree.origami import (Origami, _l_shape_position, as_tokens,
                              decompose_table_direction, scaled_direction_gcd)
from windtree.svg import _fmt


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


def _map_step(lat: _Lattice, k: int, t: int) -> tuple:
    """The first hit from (k, t) on the obstacle at cell (0, 0), as
    (k', t', m', n', adx)."""
    X, Y = lat.point(k, t, 0, 0)
    X, Y, side, m, n, sx, sy, adx = _first_hit(lat, X, Y, *DOMAINS[k][1])
    return (_DOMAIN_INDEX[side, (sx, sy)], lat.transverse(side, X, Y, m, n),
            m, n, adx)


def two_probe_return_map(params: Params, u: int, v: int) -> tuple:
    """The boundary return map of slope u/v at lattice scale n0 = 1, each
    piece read off from two probes, just inside both of its ends: the
    oracle for `eight_domain_return_map`, which traces 3 corner flights,
    reflects them, and reads each piece off its ends with no probe.  It shares only
    `_first_hit` and `_Lattice` with that build.

    Returns (cuts, pieces, corners), each indexed by domain.  cuts[k] is
    the sorted list of breakpoints, then the side length as a sentinel;
    pieces[k][i] = (k', flip, shift, dm, dn, c0, c1) is the map on the
    open interval just below cuts[k][i]: t' = shift - t if flip else
    shift + t, in domain k', with the cell moved by (dm, dn) and
    |dX| = c0 + c1*t.  corners[k][i] = (cx, cy, dm, dn) names the corner
    that breakpoint cuts[k][i] runs into: (cx*a/2, cy*b/2) from the centre
    of the cell (dm, dn) away from the start cell (`Orbit.corner_hit`).
    """
    slope = Slope(u, v)
    lat, lat3 = _Lattice(params, slope, 1), _Lattice(params, slope, 3)
    # A breakpoint is a side point whose ray runs into a corner first:
    # trace each corner back along every direction not pointing into its
    # obstacle.  A back-trace that meets another corner first belongs to
    # that corner.  None is never returned: the ray meets the translate of
    # its corner by (v, u) cells at the latest.
    hits = [{} for _ in DOMAINS]
    for cx, cy in ORIENTATIONS:
        for rx, ry in ORIENTATIONS:
            if (rx, ry) == (-cx, -cy):
                continue
            try:
                X, Y, side, m, n = _first_hit(lat, cx * lat.beta,
                                              cy * lat.gamma, rx, ry)[:5]
            except CornerHit:
                continue
            k = _DOMAIN_INDEX[side, (-rx, -ry)]
            t = lat.transverse(side, X, Y, m, n)
            if hits[k].setdefault(t, (cx, cy, -m, -n)) != (cx, cy, -m, -n):
                raise AssertionError("two corners claim one breakpoint")
    # Probe each piece just inside both ends, on the three-times finer
    # lattice where breakpoints are multiples of 3.  Every breakpoint is
    # known, so both probes run to the same side of the same obstacle and
    # the piece is one translation, t' = +-t + shift with |dX| affine in t.
    cuts, pieces, corners = [], [], []
    for k in range(len(DOMAINS)):
        length = 2 * (lat.gamma // u if k < 4 else lat.beta // v)
        ts = sorted(hits[k])
        cuts.append(tuple(ts) + (length,))
        corners.append(tuple(hits[k][t] for t in ts))
        row = []
        for lo, hi in zip([0] + ts, ts + [length]):
            t1, t2 = 3 * lo + 1, 3 * hi - 1
            (k1, s1, m, n, adx1), (k2, s2, m2, n2, adx2) = \
                _map_step(lat3, k, t1), _map_step(lat3, k, t2)
            flip = s2 - s1 == t1 - t2
            c1, rem = divmod(adx2 - adx1, t2 - t1)
            shift = s1 + t1 if flip else s1 - t1
            c0 = adx1 - c1 * t1
            if (k1, m, n) != (k2, m2, n2) or abs(s2 - s1) != t2 - t1 or rem \
                    or c1 not in (0, v, -v) or shift % 3 or c0 % 3:
                raise AssertionError("return map piece is not a translation")
            row.append((k1, flip, shift // 3, m, n, c0 // 3, c1))
        pieces.append(tuple(row))
    return tuple(cuts), tuple(pieces), tuple(corners)


# The sign at which the unfolded transverse coordinate u*x - v*y moves
# with t on each domain: a piece between domains of unlike signs reverses t.
_LEAF = tuple(orientation[0] if side in HORIZONTAL_SIDES else -orientation[1]
              for side, orientation in DOMAINS)


@lru_cache(maxsize=64)
def eight_domain_return_map(params: Params, u: int, v: int) -> tuple:
    """The boundary return map of slope u/v at lattice scale n0 = 1 on all
    8 domains: the breakpoints from the 12 corner flights, then each piece
    read off from where the rays beside its ends land.  The oracle for
    `billiard._return_map`, which builds its quotient by the table's
    reflections (`quotient_table`).

    Returns (cuts, pieces, corners), each indexed by domain.  cuts[k] is
    the sorted list of breakpoints, then the side length as a sentinel;
    pieces[k][i] = (k', flip, shift, dm, dn, c0, c1) is the map on the
    open interval just below cuts[k][i]: t' = shift - t if flip else
    shift + t, in domain k', with the cell moved by (dm, dn) and
    |dX| = c0 + c1*t.  corners[k][i] = (cx, cy, dm, dn) names the corner
    that breakpoint cuts[k][i] runs into: (cx*a/2, cy*b/2) from the centre
    of the cell (dm, dn) away from the start cell.
    """
    lat = _Lattice(params, Slope(u, v), 1)
    lengths = (2 * (lat.gamma // u), 2 * (lat.beta // v))
    traces = _corner_traces(lat, lengths)
    # a corner's flight along (rx, ry) lands on a breakpoint, in the domain
    # that leaves against it (k ^ 1)
    hits = [{} for _ in DOMAINS]
    for (cx, cy, _, _), (k, t, m, n, adx) in traces.items():
        if k is not None and hits[k ^ 1].setdefault(
                t, (cx, cy, -m, -n, adx)) != (cx, cy, -m, -n, adx):
            raise AssertionError("two corners claim one breakpoint")
    cuts, pieces, corners = [], [], []
    for k, (side, d) in enumerate(DOMAINS):
        i, normal = _SIDE[side]
        ts = sorted(hits[k])
        cuts.append((*ts, lengths[i]))
        corners.append(tuple(hits[k][t][:4] for t in ts))
        ends = [(*_with_entry((-1, -1), i, normal), 0, 0, 0),
                *(hits[k][t] for t in ts),
                (*_with_entry((1, 1), i, normal), 0, 0, 0)]
        sigma = d[0] if i == 0 else -d[1]  # the side of the rays above t
        row = []
        for j, (lo, hi) in enumerate(zip((0, *ts), cuts[k])):
            k1, t1, m, n, adx = _landing(traces, lengths, d, sigma, ends[j],
                                         j == 0)
            flip = _LEAF[k] != _LEAF[k1]
            c1 = v * _LEAF[k] * ((k1 >= 4) - (k >= 4))
            shift = t1 + lo if flip else t1 - lo
            c0 = adx - c1 * lo
            if _landing(traces, lengths, d, -sigma, ends[j + 1],
                        j == len(ts)) != \
                    (k1, shift - hi if flip else shift + hi, m, n,
                     c0 + c1 * hi):
                raise AssertionError("the ends of a return map piece disagree")
            row.append((k1, flip, shift, m, n, c0, c1))
        pieces.append(tuple(row))
    return tuple(cuts), tuple(pieces), tuple(corners)


def quotient_table(cuts: tuple, pieces: tuple, corners: tuple = None):
    """An 8-domain table (cuts, pieces[, corners]) as `billiard._PowerMap`
    holds it on the quotient: the rows of the representative domains 0 and
    4, with t the offset on domain 0 and the side's length less the
    offset on domain 4, and each piece (k', flip, shift, dm, dn, c0, c1,
    *box) as (k'', r, shift', dm, dn, c0', c1', *box) with its image's
    quotient state (`billiard._quotient`).  Raises AssertionError where an
    image piece reverses t."""
    lengths = (cuts[0][-1], cuts[4][-1])
    out = ([], [], [])
    for h, L in enumerate(lengths):
        cs, row = cuts[4 * h], pieces[4 * h]
        qrow = []
        for lo, hi, (k1, flip, shift, dm, dn, c0, c1, *box) in \
                zip((0, *cs), cs, row):
            images = [_quotient(k1, shift - t if flip else shift + t,
                                lengths) for t in (lo, hi)]
            ends = [L - t if h else t for t in (lo, hi)]
            if images[1][1] - images[0][1] != ends[1] - ends[0]:
                raise AssertionError("a quotient piece reverses t")
            if h:
                c0, c1 = c0 + c1 * L, -c1
            (k1, t1, r), _ = images
            qrow.append((k1, r, t1 - ends[0], dm, dn, c0, c1, *box))
        qcuts = [L - c for c in cs[:-1]] if h else list(cs[:-1])
        out[0].append((*sorted(qcuts), L))
        out[1].append(tuple(qrow[::-1] if h else qrow))
        if corners is not None:
            out[2].append(tuple(corners[4 * h][::-1] if h
                                else corners[4 * h]))
    return tuple(map(tuple, out)) if corners is not None else \
        (tuple(out[0]), tuple(out[1]))


def eight_domain_state(params: Params, start: BilliardState) -> tuple:
    """(lattice, k, t) of a start on the 8 domains, at its lattice scale."""
    n0 = lcm(start.position.x.denominator, start.position.y.denominator)
    lat = _Lattice(params, start.slope, n0)
    X, Y = lat.encode(start.position)
    return (lat, _DOMAIN_INDEX[start.side, tuple(start.orientation)],
            lat.transverse(start.side, X, Y, *start.cell))


def eight_domain_steps(params: Params, start: BilliardState):
    """The collisions after ``start``, (k, t, m, n, adx) on the 8 domains
    in units of 1/N at the start's lattice scale n0, stepped one piece of
    `eight_domain_return_map` at a time; raises CornerHit at a corner."""
    slope = start.slope
    lat, k, t = eight_domain_state(params, start)
    (m, n), n0 = start.cell, lat.N // (2 * params.q * params.s * slope.u
                                       * slope.v)
    cuts, pieces, corners = scaled_return_map(params, slope.u, slope.v, n0)
    a2, b2 = _half(params)
    while True:
        i = bisect_left(cuts[k], t)
        if cuts[k][i] == t:
            cx, cy, dm, dn = corners[k][i]
            raise CornerHit(m + dm + cx * a2, n + dn + cy * b2)
        k, flip, shift, dm, dn, c0, c1, *_ = pieces[k][i]
        adx = c0 + c1 * t
        t = shift - t if flip else shift + t
        m, n = m + dm, n + dn
        yield k, t, m, n, adx


def later_state(params: Params, start: BilliardState, j: int) -> BilliardState:
    """The state ``j`` collisions after a start, from 8-domain steps."""
    lat = eight_domain_state(params, start)[0]
    k, t, m, n, _ = next(islice(eight_domain_steps(params, start), j - 1,
                                None))
    X, Y = lat.point(k, t, m, n)
    side, orientation = DOMAINS[k]
    return BilliardState(PointQ(Fraction(X, lat.N), Fraction(Y, lat.N)),
                         side, (m, n), orientation, start.slope)


def scaled_return_map(params, u: int, v: int, n0: int) -> tuple:
    """T of slope u/v at lattice scale n0: (cuts, pieces, corners) by
    domain, as `eight_domain_return_map` gives them at n0 = 1, with the
    breakpoints, the side length, the shifts and the constant extent terms
    scaled by n0 and each piece (k', flip, shift, dm, dn, c0, c1) followed
    by the box of the one cell it arrives in, mlo, mhi, nlo, nhi.  The
    oracle for level 0 of `billiard._PowerMap` (`quotient_table`)."""
    cuts, pieces, corners = eight_domain_return_map(params, u, v)
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


def located(store: _CycleStore, walk: Orbit):
    """`_Walk.found` of the start of ``walk`` on a cycle recorded in
    ``store``, as `_walk_period` finds it within one landmark block, or
    None.  The walk looks up a copy of the store, so a cycle it closes is
    not recorded."""
    twin = _CycleStore()
    twin.cycles = list(store.cycles)
    twin.los, twin.his, twin.refs = ([list(row) for row in rows] for rows in
                                     (store.los, store.his, store.refs))
    res = _walk_period(walk, _LANDMARK_EVERY, twin)
    return None if res.cycle is not None else res.found


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


# -- the Fraction-based surface layer, fold and canvas coordinates ----------
#
# Oracles for the integer paths of `origami._act`,
# `CylinderDecomposition.pull_back`, `lift.fold_to_table` and the canvas
# coordinates of `svg.render_trajectory`: the code those replaced, with
# its own cycle index.  A shear rotates each row of the index, a quarter
# turn inverts a gluing, and every point is a Fraction.


def _invert(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _cycles(perm: tuple, starts=None) -> tuple:
    """The cycle index of a permutation: (cycles, where, pos), with
    element c at cycles[where[c]][pos[c]].

    Each cycle starts at its smallest element, in the order of those.
    With ``starts`` given, only the cycles through those elements are
    walked, each from the first of them met; the other entries of
    ``where`` stay -1.
    """
    n = len(perm)
    where = [-1] * n
    pos = [0] * n
    cycles = []
    for i in range(n) if starts is None else starts:
        if where[i] >= 0:
            continue
        k = len(cycles)
        where[i] = k
        cyc = [i]
        j = perm[i]
        while j != i:
            where[j] = k
            pos[j] = len(cyc)
            cyc.append(j)
            j = perm[j]
        cycles.append(cyc)
    return cycles, where, pos


def _along(index: tuple, cell: int, k: int) -> int:
    """The cell k places further along its cycle of an index (any k)."""
    cycles, where, pos = index
    cyc = cycles[where[cell]]
    return cyc[(pos[cell] + k) % len(cyc)]


def _shear(h: tuple, v: tuple, marked: list, k: int):
    """T^k on raw gluings: rows keep their order; the cell above i becomes
    the cell above the k-th left neighbor."""
    index = _cycles(h)
    new_v = [0] * len(v)
    for row in index[0]:
        s = -k % len(row)
        for c, d in zip(row, row[s:] + row[:s]):
            new_v[c] = v[d]
    out = []
    for label, cell, x, y in marked:
        x = x + k * y
        shift = x.numerator // x.denominator  # floor
        out.append((label, _along(index, cell, shift), x - shift, y))
    return h, tuple(new_v), out


def _quarter_turn(h: tuple, v: tuple, marked: list):
    """S on raw gluings: (h, v) becomes (v^-1, h), so the new right neighbor
    is the old cell below.  A point whose turned in-cell x reaches 1 moves
    on to the next cell."""
    new_h = _invert(v)
    zero = Fraction(0)
    out = []
    for label, cell, x, y in marked:
        x, y = 1 - y, x
        if x == 1:
            x, cell = zero, new_h[cell]
        out.append((label, cell, x, y))
    return new_h, h, out


def fraction_act(origami: Origami, tokens: tuple):
    """The raw (h, v, marked, stages) that tokens step origami to.

    marked holds (label, cell, x, y) tuples, lattice corners left in the
    cell they arrive in.  A stage is (k, perm): a shear T^k with the right
    gluing it keeps, or, with k None, one quarter turn with the inverse of
    the right gluing it makes (the vertical gluing before the turn).  The
    stages hold references to tuples the stepping computes anyway.
    """
    h, v = origami.h, origami.v
    marked = [(mp.label, mp.cell, mp.x, mp.y) for mp in origami.marked]
    stages = []
    for gen, k in tokens:
        if gen == "T":
            stages.append((k, h))
            h, v, marked = _shear(h, v, marked, k)
        else:
            for _ in range(k % 4):  # the quarter turn has order four
                stages.append((None, v))
                h, v, marked = _quarter_turn(h, v, marked)
    return h, v, marked, tuple(stages)


def fraction_pull_back(stages: tuple, points) -> list:
    """Carry points (cell, x, y) of the renormalized surface back to the
    decomposed one, through the stages of `fraction_act` in reverse order.

    A shear T^k moves x back by k*y and the cell along its row by the whole
    cells crossed; a quarter turn maps (x, y) to (y, 1 - x), and a point on
    a cell's left edge (x = 0) lands on the bottom edge of the cell to its
    left.
    """
    out = [(cell, Fraction(x), Fraction(y)) for cell, x, y in points]
    for k, perm in reversed(stages):
        if k is None:
            out = [(perm[cell], y, Fraction(0)) if x == 0
                   else (cell, y, 1 - x) for cell, x, y in out]
            continue
        # only the rows the points are on: a full index costs O(n)
        # per stage
        index = _cycles(perm, [cell for cell, _, _ in out])
        moved = []
        for cell, x, y in out:
            x -= k * y
            shift = x.numerator // x.denominator  # floor
            moved.append((_along(index, cell, shift), x - shift, y))
        out = moved
    return out


def fraction_fold_to_table(params: Params, X: Fraction, Y: Fraction) -> PointQ:
    """Map absolute stretched-polygon coordinates to the table cell at the
    origin (coordinates in [-1/2, 1/2) around the obstacle at (0, 0))."""
    lx = Fraction(X, params.q)
    ly = Fraction(Y, params.s)
    cx = (lx - (1 - params.a) / 2) % 1
    cy = (ly - (1 - params.b) / 2) % 1
    return PointQ(cx - Fraction(1, 2), cy - Fraction(1, 2))


def fraction_canvas(x_lo: int, y_hi: int, scale: int) -> tuple:
    """The canvas coordinates (sx, sy) of a document whose box starts at
    x_lo and ends at y_hi, each a Fraction expression formatted by
    `svg._fmt`."""
    pad = Fraction(1, 2)  # keeps the outermost obstacles inside the canvas

    def sx(x):
        return _fmt(x - x_lo + pad, scale)

    def sy(y):
        return _fmt(y_hi + pad - y, scale)

    return sx, sy


# -- the Fraction launch and the lift chain ----------------------------------
#
# Oracles for the integer entry of `lift._classify_fold`: `_fold_sample`,
# `billiard._launch` and `_hit_orbit`.  The lift chain folds, launches,
# builds the orbit and classifies one Fraction point after another, as
# `lift_direction` did before its samples stayed on the lattice.


def fraction_launch(params: Params, point: PointQ, slope: Slope,
                    orientation: tuple) -> BilliardState | None:
    """March a ray from a table-interior point to its first collision, in
    Fractions: the post-bounce state, or None for a straight corridor.
    Raises CornerHit at a corner and DomainError on an obstacle."""
    x, y = point.x, point.y
    m = round(x)
    n = round(y)
    a2, b2 = _half(params)
    if abs(x - m) <= a2 and abs(y - n) <= b2:
        raise DomainError("launch point is inside or on an obstacle")
    if slope.is_axis:
        # the ray runs along axis i, at a fixed coordinate j
        i = 0 if slope.is_horizontal else 1
        j = 1 - i
        pos, cell, half = (x, y), (m, n), (a2, b2)
        band = abs(pos[j] - cell[j])
        if band > half[j]:
            return None  # corridor
        s = orientation[i]
        # the first obstacle ahead in the band: this one or the next
        k = cell[i] if (pos[i] - cell[i]) * s < -half[i] else cell[i] + s
        hit = _with_entry(pos, i, k - s * half[i])
        if band == half[j]:
            # grazing line along the side level: first contact is a corner
            raise CornerHit(*hit)
        return BilliardState(PointQ(*hit), _SIDE_AT[i, -s],
                             _with_entry(cell, i, k),
                             _with_entry(orientation, i, -s), slope)
    lat = _Lattice(params, slope, lcm(x.denominator, y.denominator))
    res = _first_hit(lat, *lat.encode(point), *orientation)
    if res is None:
        return None
    Xn, Yn, side, mm, nn, sxn, syn, _ = res
    pos = PointQ(Fraction(Xn, lat.N), Fraction(Yn, lat.N))
    return BilliardState(pos, side, (mm, nn), (sxn, syn), slope)


def fraction_chain(params: Params, slope: Slope, X: Fraction, Y: Fraction,
                   orientation: tuple, max_collisions: int = 10**6):
    """fold_to_table -> launch -> Orbit(BilliardState) ->
    classify_trajectory from the stretched-polygon point (X, Y):
    ("corridor",), the (exception type, message) the fold's launch raises,
    or ("state", state, (n0, k, t, r, cell) of its Orbit, or None for an
    axis slope, outcome)."""
    point = fraction_fold_to_table(params, X, Y)
    try:
        state = fraction_launch(params, point, slope, orientation)
    except (CornerHit, DomainError) as exc:
        return type(exc), str(exc)
    if state is None:
        return ("corridor",)
    walk = None if slope.is_axis else Orbit(state, params)
    return ("state", state, walk and (walk.n0, walk.k, walk.t, walk.r,
                                      walk.cell),
            classify_trajectory(state, params, max_collisions))


def fraction_lift(params: Params, slope: Slope) -> tuple:
    """(kind, factor, drift) of each cylinder, as `lift.lift_direction`
    decides it: from the first of its fold samples whose chain
    (`fraction_chain`) is regular, the factor from the closed length."""
    decomp = decompose_table_direction(params, slope)
    g = scaled_direction_gcd(params, slope)
    out = []
    for ci, cyl in enumerate(decomp.cylinders):
        for cell, x, y in decomp.pull_back(list(_cylinder_samples(decomp,
                                                                  ci))):
            col, row = _l_shape_position(params, cell)
            got = fraction_chain(params, slope, col + x, row + y, (1, 1))
            if got[0] == "corridor":
                out.append((LiftKind.STRIP, None, (slope.v, slope.u)))
                break
            if got[0] != "state" or got[3].kind is Outcome.SINGULAR:
                continue
            outcome = got[3]
            if outcome.kind is Outcome.PERIODIC:
                factor = outcome.geometric_length / Fraction(
                    cyl.circumference, g)
                out.append((LiftKind.CLOSES, factor, None))
            else:
                out.append((LiftKind.STRIP, None, outcome.drift))
            break
    return tuple(out)
