"""Exact billiard flow on the infinite periodic table.

The table is the plane with the open rectangles
[m - a/2, m + a/2] x [n - b/2, n + b/2] removed, one centered at each
integer lattice point (m, n).  The flow moves in straight lines and
reflects off obstacle sides with equal angles; a trajectory that reaches
an obstacle corner is undefined from that moment on.

All stepping is exact.  For a reduced slope u/v and a rational start on
an obstacle side, every collision coordinate lies on the fixed lattice
(1/N) Z with N = 2*q*s*u*v*lcm(den(x0), den(y0)): vertical side lines
live on (1/2q) Z, horizontal ones on (1/2s) Z, and propagating a
coordinate along the ray multiplies differences by u/v or v/u, which the
factors u*v in N absorb.  `_Lattice` works in integer multiples of 1/N
throughout, so exactness is structural; the divisions it performs are
checked to be exact at runtime.

The first obstacle a ray meets is found by `_first_hit`.  At its
successive crossings of the vertical side lines it can hit, the ray's
height moves by a fixed rotation modulo N, and it hits a side when the
height lands in the band of obstacle heights; the same holds for the
horizontal lines with the band of obstacle widths.  The first landing of
a rotation in an interval is a first entry, found by a Euclid-style
recursion in O(log N) steps however long the flight.  A landing on a
band end is a corner hit, and no landing in either family is a free
flight.

Orbits are stepped on the boundary return map.  A collision state
modulo the lattice is one of 8 outgoing domains k (a side with one of the
two orientations leaving it) and a transverse coordinate t: the offset
along the side in units of 1/N, divided by u on vertical sides and by v
on horizontal ones.  By the lattice invariant every collision has X a
multiple of v and Y a multiple of u, so t is an integer.  For a fixed
slope the first return to the boundary is a piecewise translation,
t' = +-t + shift with a constant cell displacement and a flight X-extent
affine in t, with about 20 pieces.  The breakpoints are the side points
whose ray runs into a corner first: the flights from the 4 corners along
the 3 directions that leave each one, at n0 = 1, land on them.  Three
first hits trace the flights from one corner, and the table's
reflections give the other 9.  No piece needs a first hit of its own:
the rays just beside a breakpoint land on a side of its corner or follow
that corner's flight, each piece is read off both of its ends, which
must agree, and its domain pair gives the rest (flip, c1).  The map is
built once per (params, slope), kept in a small LRU cache.  An orbit
reads it from one table per (params, slope, n0), n0 the start's common
denominator (`_PowerMap`, in a small LRU cache of its own): the map
scaled by n0, as the table geometry, the breakpoints and the shifts all
scale with N.  A step is then one bisection and a few integer additions,
a start exactly on a breakpoint is a corner hit, and every quantity the
map produces is one `_first_hit` would produce, so exactness still
holds.  `Orbit.advance` applies the map for a block of collisions in one
loop and reports the block as a whole (end state, extent, box of the
cells); `Orbit.steps` yields the collisions one at a time, one `advance`
each.  The 8th power of the map is a piecewise translation too, with the
box of the cells each piece passes.  The same table keeps its pieces,
composed where an orbit first lands, down the tower T, T^2, T^4.  A
block of 64 collisions or more, and a recording walk (below) past its
first 512, take 8 at a time on it, and step single pieces for the next
8 where a corner, the stop cell, the walk's close or a reflection of its
start lies within them, so their answers are those of single steps.  A
piece that maps its domain back to itself, unflipped, repeats while t
stays in its interval: a block applies all of its repeats at once.

Each orbit of a rational slope is a cycle of the map, and the starts that
take the same pieces fill an open interval: the leaves of one cylinder.
The first walk that closes on its start records the cycle (period, drift,
interval and a landmark at least every 32 collisions), and later starts
on it are answered by a walk of at most 32 collisions to a landmark.  The
table is symmetric under x -> -x and y -> -y, and the reflections commute
with the map: a walk that meets a reflection of its start has walked half
its cycle, whose second half is the mirror image of the first, and closes
there.  A start whose reflection lies on a recorded cycle is answered from
that cycle, and the answer is reflected back; only walked cycles are
stored.

Geometric lengths are reported as the exact rational number of copies of
the primitive direction vector (v, u) traversed; the Euclidean length is
that coefficient times sqrt(u^2 + v^2).  This keeps every length
comparison in the rationals.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd
from typing import NamedTuple

from .errors import CornerHit, DomainError
from .exact import ORIENTATIONS, Params, PointQ, Slope

LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"
SIDES = (LEFT, RIGHT, BOTTOM, TOP)
VERTICAL_SIDES = (LEFT, RIGHT)
HORIZONTAL_SIDES = (BOTTOM, TOP)

# Each side's frame: the coordinate it fixes (0 for x, 1 for y) and the sign
# of its outward normal.  Offsets along a side run along the other
# coordinate, from the side's low end.
_SIDE = {LEFT: (0, -1), RIGHT: (0, 1), BOTTOM: (1, -1), TOP: (1, 1)}
_SIDE_AT = {frame: side for side, frame in _SIDE.items()}
_AXIS_NAMES = ("vertical", "horizontal")  # sides that fix x, sides that fix y

DEFAULT_MAX_COLLISIONS = 10**6


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@dataclass(frozen=True)
class BilliardState:
    """Post-bounce flow state anchored at a collision point.

    ``position`` lies exactly on the ``side`` of the obstacle at lattice
    ``cell``; ``orientation`` is the sign class of the outgoing direction,
    which points into the table.
    """

    position: PointQ
    side: str
    cell: tuple
    orientation: tuple
    slope: Slope


class Outcome(enum.Enum):
    PERIODIC = "Periodic"
    ESCAPING = "Escaping"
    SINGULAR = "Singular"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class TrajectoryOutcome:
    kind: Outcome
    combinatorial_length: int
    geometric_length: Fraction
    drift: tuple
    corner: PointQ | None = None
    repeat_cells: tuple | None = None  # (start cell, cell one period later)

    @property
    def pre_period(self) -> int:
        """Always 0: every orbit's first reduced repeat is its start."""
        return 0


@dataclass(frozen=True)
class TracedPath:
    points: tuple
    corner: PointQ | None = None  # where a singular path ends

    @property
    def singular(self) -> bool:
        return self.corner is not None


def side_length(params: Params, side: str) -> Fraction:
    return params.b if side in VERTICAL_SIDES else params.a


def _frame(side: str) -> tuple:
    """(fixed coordinate, outward normal sign) of a side."""
    try:
        return _SIDE[side]
    except KeyError:
        raise DomainError(f"unknown side {side!r}") from None


@lru_cache(maxsize=16)
def _half(params: Params) -> tuple:
    """Half the obstacle's extent along x and along y."""
    return params.a / 2, params.b / 2


def _with_entry(pair: tuple, i: int, value) -> tuple:
    """``pair`` with entry i replaced by ``value``."""
    return (value, pair[1]) if i == 0 else (pair[0], value)


def side_offset(state: BilliardState, params: Params) -> Fraction:
    """The offset of the state's position from the low end of its side
    (the bottom end of a vertical side, the left end of a horizontal one):
    the state with its lattice cell forgotten."""
    j = 1 - _frame(state.side)[0]
    return ((state.position.x, state.position.y)[j] - state.cell[j]
            + _half(params)[j])


def leaving_orientation(side: str, orientation: tuple = (1, 1)) -> tuple:
    """The orientation that leaves ``side``: the side's outward normal sign,
    with the tangential sign taken from ``orientation``."""
    return _with_entry(orientation, *_frame(side))


def make_state(params: Params, cell: tuple, side: str, offset: Fraction,
               slope: Slope, orientation: tuple) -> BilliardState:
    """Build a validated state from an obstacle side and an offset along it.

    The offset is measured from the bottom end (vertical sides) or the left
    end (horizontal sides).  Offsets at the ends are corners and rejected.
    """
    offset = Fraction(offset)
    length = side_length(params, side)
    if not 0 < offset < length:
        raise DomainError(f"offset {offset} not interior to a side of length {length}")
    i, normal = _frame(side)
    j = 1 - i
    m, n = cell
    half = _half(params)
    # coordinate i is the side's, the other one runs from its low end
    fixed, along = cell[i] + normal * half[i], cell[j] - half[j] + offset
    pos = PointQ(fixed, along) if i == 0 else PointQ(along, fixed)
    state = BilliardState(pos, side, (m, n), tuple(orientation), slope)
    validate_state(state, params)
    return state


def validate_state(state: BilliardState, params: Params) -> None:
    """Check the state invariants: on-side position, outgoing direction."""
    if tuple(state.orientation) not in ORIENTATIONS:
        raise DomainError(f"invalid orientation {state.orientation!r}")
    i, normal = _frame(state.side)
    j = 1 - i
    pos, cell = (state.position.x, state.position.y), state.cell
    half = _half(params)
    if pos[i] != cell[i] + normal * half[i] or \
            not cell[j] - half[j] < pos[j] < cell[j] + half[j]:
        raise DomainError("position not interior to the named side")
    if not (state.slope.v, state.slope.u)[i]:
        raise DomainError(f"direction tangent to a {_AXIS_NAMES[i]} side")
    if state.orientation[i] != normal:
        raise DomainError("direction points into the obstacle")


class _Lattice:
    """The collision lattice of a slope u/v with u, v >= 1, at scale n0.

    Coordinates are integers counting multiples of 1/N.  Vertical side
    lines sit at k*N +- beta, horizontal ones at k*N +- gamma.
    """

    __slots__ = ("N", "beta", "gamma", "u", "v")

    def __init__(self, params: Params, slope: Slope, n0: int):
        if slope.is_axis:
            raise DomainError("the collision lattice needs a non-axis slope")
        u, v = slope.u, slope.v
        N = 2 * params.q * params.s * u * v * n0
        self.N = N
        self.beta = params.p * (N // (2 * params.q))
        self.gamma = params.r * (N // (2 * params.s))
        self.u = u
        self.v = v

    def _div(self, num: int, den: int) -> int:
        quot, rem = divmod(num, den)
        if rem:
            raise AssertionError("lattice invariant violated (inexact division)")
        return quot

    def encode(self, point: PointQ) -> tuple:
        X = point.x * self.N
        Y = point.y * self.N
        if X.denominator != 1 or Y.denominator != 1:
            raise AssertionError("point off the collision lattice")
        return int(X), int(Y)

    def point(self, k: int, t: int, m: int, n: int) -> tuple:
        """(X, Y) of transverse coordinate t on the domain-k side of the
        obstacle at cell (m, n)."""
        N = self.N
        if k < 4:
            X = m * N + (self.beta if k >= 2 else -self.beta)
            return X, n * N - self.gamma + self.u * t
        Y = n * N + (self.gamma if k >= 6 else -self.gamma)
        return m * N - self.beta + self.v * t, Y

    def transverse(self, side: str, X: int, Y: int, m: int, n: int) -> int:
        """Offset of a side point from the side's low end, over u on
        vertical sides and over v on horizontal ones."""
        if side in VERTICAL_SIDES:
            return self._div(Y - (n * self.N - self.gamma), self.u)
        return self._div(X - (m * self.N - self.beta), self.v)


def _first_entry(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least j >= 0 with lo <= a*j mod m <= hi, or None when there is
    none; 0 <= a < m and 0 <= lo <= hi < m.

    When no multiple of a lies in [lo, hi], a solution a*j = m*y + c with
    c in [lo, hi] makes y a solution of the same problem for a' = m mod a
    modulo a on the interval [-hi mod a, -lo mod a], and the least y gives
    the least j = ceil((m*y + lo)/a): the moduli fall as in Euclid's
    algorithm.
    """
    frames = []
    while lo:
        if not a:
            return None
        j = -(-lo // a)
        if a * j <= hi:
            break
        frames.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    else:
        j = 0
    for a, m, lo in reversed(frames):
        j = -(-(m * j + lo) // a)
    return j


def _band_entry(c: int, step: int, N: int, width: int) -> int | None:
    """The least j >= 0 with (c + j*step) mod N in [0, width], or None."""
    c %= N
    if c <= width:
        return 0
    return _first_entry(step % N, N, N - c, N - c + width)


def _first_hit(lat: _Lattice, X: int, Y: int, sx: int, sy: int):
    """The next collision of the ray from (X, Y) in orientation (sx, sy).

    Returns (X', Y', side, m, n, sx', sy', |dX|), or None when the ray
    never meets an obstacle (free flight).  Raises CornerHit.  The ray can
    only hit the vertical side lines X = -sx*beta mod N; between two of
    them its height moves by sy*u*N/v, and it hits a side where the height
    lands in [-gamma, gamma] mod N.  The horizontal lines are the same with
    the roles of X and Y swapped.
    """
    N, beta, gamma, u, v = lat.N, lat.beta, lat.gamma, lat.u, lat.v
    # the first vertical line strictly ahead, then the first one hit
    dx = (-beta - sx * X - 1) % N + 1
    j = _band_entry(Y + sy * lat._div(u * dx, v) + gamma, sy * u * (N // v),
                    N, 2 * gamma)
    if j is not None:
        dx += j * N
    dy = (-gamma - sy * Y - 1) % N + 1
    if j is None or v * dy < u * dx:
        i = _band_entry(X + sx * lat._div(v * dy, u) + beta,
                        sx * v * (N // u), N, 2 * beta)
        if i is not None and (j is None or v * (dy + i * N) < u * dx):
            dy += i * N
            adx = lat._div(v * dy, u)
            X, Y = X + sx * adx, Y + sy * dy
            w = (X + beta) % N
            if w in (0, 2 * beta):
                raise CornerHit(Fraction(X, N), Fraction(Y, N))
            return (X, Y, _SIDE_AT[1, -sy], (X + beta - w) // N,
                    (Y + sy * gamma) // N, sx, -sy, adx)
    if j is None:
        return None
    X, Y = X + sx * dx, Y + sy * lat._div(u * dx, v)
    w = (Y + gamma) % N
    if w in (0, 2 * gamma):
        raise CornerHit(Fraction(X, N), Fraction(Y, N))
    return (X, Y, _SIDE_AT[0, -sx], (X + sx * beta) // N,
            (Y + gamma - w) // N, -sx, sy, dx)


# The 8 outgoing domains of the return map: each side with the two
# orientations that point away from the obstacle.  _Lattice.point relies on
# the order: vertical sides first, left before right, bottom before top,
# and `_walk_period` on domain k ^ 1 being domain k's time reversal.
DOMAINS = ((LEFT, (-1, 1)), (LEFT, (-1, -1)), (RIGHT, (1, 1)), (RIGHT, (1, -1)),
           (BOTTOM, (1, -1)), (BOTTOM, (-1, -1)), (TOP, (1, 1)), (TOP, (-1, 1)))
_DOMAIN_INDEX = {dom: k for k, dom in enumerate(DOMAINS)}


# Parallel leaves.  The flight of a start unfolds to a straight line of
# direction (v, u) whose transverse coordinate u*x - v*y moves with the
# start's t at the rate u*v*_LEAF[k] on domain k.  So a start moved by d
# crosses phase j moved by _LEAF[k0]*_LEAF[kj]*d, and its X-extent up to
# there changes by _extent_slope(v, k0, kj)*d: not at all between two
# vertical or two horizontal sides, whose unfolded x (resp. y) is fixed.
_LEAF = tuple(orientation[0] if side in HORIZONTAL_SIDES else -orientation[1]
              for side, orientation in DOMAINS)


def _extent_slope(v: int, k0: int, k: int) -> int:
    """d(X-extent from domain k0 to domain k)/dt for parallel leaves."""
    return v * _LEAF[k0] * ((k >= 4) - (k0 >= 4))


def _corner_traces(lat: _Lattice, lengths: tuple) -> dict:
    """The flights from the 4 corners of the obstacle at cell (0, 0) along
    the 3 orientations that leave each, keyed (cx, cy, rx, ry): corner
    (cx*a/2, cy*b/2), orientation (rx, ry).

    A flight is (k, t, m, n, adx): it lands at t on the side of domain k,
    the orientation it leaves in, of the obstacle at cell (m, n), having
    flown |dX| = adx; or it runs into a corner first, and then k is None and
    t is that corner's (cx', cy').  Only the 3 flights from corner (1, 1)
    are traced.  The table's reflection x -> sx*x, y -> sy*y maps them to
    the flights from corner (sx, sy): it reflects the cell, the corner signs
    and the domain, and takes t to the side's length - t where it reverses
    the side's running coordinate (y on vertical sides, x on horizontal
    ones); adx does not change."""
    base = {}
    for rx, ry in ((1, 1), (1, -1), (-1, 1)):
        try:
            hit = _first_hit(lat, lat.beta, lat.gamma, rx, ry)
        except CornerHit as corner:
            X, Y = lat.encode(PointQ(*corner.point))
            cx = -1 if (X + lat.beta) % lat.N == 0 else 1
            cy = -1 if (Y + lat.gamma) % lat.N == 0 else 1
            base[rx, ry] = (None, (cx, cy), (X - cx * lat.beta) // lat.N,
                            (Y - cy * lat.gamma) // lat.N, rx * (X - lat.beta))
            continue
        # the ray meets the translate of its corner by (v, u) cells at the
        # latest, so it never flies free
        if hit is None:
            raise AssertionError("corner trace found no obstacle")
        X, Y, side, m, n, sx, sy, adx = hit
        base[rx, ry] = (_DOMAIN_INDEX[side, (sx, sy)],
                        lat.transverse(side, X, Y, m, n), m, n, adx)
    traces = {}
    for (sx, sy), kmap in _REFLECTIONS:
        for (rx, ry), (k, t, m, n, adx) in base.items():
            if k is None:
                k1, t1 = None, (sx * t[0], sy * t[1])
            else:  # t runs along y on vertical sides, along x otherwise
                i = k >= 4
                k1, t1 = kmap[k], lengths[i] - t if _reverses(k, sx, sy) else t
            traces[sx, sy, sx * rx, sy * ry] = (k1, t1, sx * m, sy * n, adx)
    return traces


def _landing(traces: dict, lengths: tuple, d: tuple, sigma: int,
             corner: tuple, passing: bool) -> tuple:
    """Where the rays of orientation d just beside one into a corner land:
    (k', t', m, n, adx), the limit of their first hits as they close in.

    ``corner`` is (cx, cy, m, n, adx): the corner (cx*a/2, cy*b/2) of the
    obstacle at cell (m, n), reached after flying |dX| = adx.  The rays lie
    on side ``sigma`` of the ray into it, sigma = +1 on the side of its
    direction turned counter-clockwise.  They land on the corner's vertical
    side when they fly towards it (dx = -cx) and the obstacle lies on their
    side of the corner (sigma = cx*cy), at the side's end there; likewise on
    its horizontal side; otherwise they pass the corner, as they always pass
    the corners of the side they start from (``passing``), and follow the
    corner's flight, to a side or to the next corner."""
    dx, dy = d
    cx, cy, dm, dn, ext = corner
    while True:
        if not passing:
            if dx == -cx and sigma == cx * cy:
                return (_DOMAIN_INDEX[_SIDE_AT[0, cx], (cx, dy)],
                        0 if cy < 0 else lengths[0], dm, dn, ext)
            if dy == -cy and sigma == -cx * cy:
                return (_DOMAIN_INDEX[_SIDE_AT[1, cy], (dx, cy)],
                        0 if cx < 0 else lengths[1], dm, dn, ext)
        passing = False
        k, t, m, n, adx = traces[cx, cy, dx, dy]
        dm, dn, ext = dm + m, dn + n, ext + adx
        if k is not None:
            return k, t, dm, dn, ext
        cx, cy = t


# Fixed size: a run steps one slope (and its shadow) at a time, and a
# surface query a handful.
@lru_cache(maxsize=16)
def _return_map(params: Params, u: int, v: int) -> tuple:
    """The boundary return map of slope u/v at lattice scale n0 = 1: the
    breakpoints from the 12 corner flights, then each piece read off from
    where the rays beside its ends land.

    Returns (cuts, pieces, corners), each indexed by domain.  cuts[k] is
    the sorted list of breakpoints, then the side length as a sentinel;
    pieces[k][i] = (k', flip, shift, dm, dn, c0, c1) is the map on the
    open interval just below cuts[k][i]: t' = shift - t if flip else
    shift + t, in domain k', with the cell moved by (dm, dn) and
    |dX| = c0 + c1*t.  corners[k][i] = (cx, cy, dm, dn) names the corner
    that breakpoint cuts[k][i] runs into: (cx*a/2, cy*b/2) from the centre
    of the cell (dm, dn) away from the start cell (`Orbit.corner_hit`).
    """
    lat = _Lattice(params, Slope(u, v), 1)
    # the lengths of the vertical and the horizontal sides in units of t
    lengths = (2 * (lat.gamma // u), 2 * (lat.beta // v))
    traces = _corner_traces(lat, lengths)
    # A breakpoint is a side point whose ray runs into a corner first: a
    # corner's flight along (rx, ry) lands on one, in the domain that leaves
    # against it (k ^ 1).  A flight that meets another corner first belongs
    # to that corner: the other's flight along (rx, ry) finds its side.
    hits = [{} for _ in DOMAINS]
    for (cx, cy, _, _), (k, t, m, n, adx) in traces.items():
        if k is not None and hits[k ^ 1].setdefault(
                t, (cx, cy, -m, -n, adx)) != (cx, cy, -m, -n, adx):
            raise AssertionError("two corners claim one breakpoint")
    # Every breakpoint is known, so the rays of a piece all land on one side
    # of one obstacle: where the rays just above its low end land fixes k',
    # the cell, the shift and the extent, and the domain pair (k, k') fixes
    # flip and c1, as for parallel leaves.  The rays just below its high end
    # must land at the same piece's image of it.
    cuts, pieces, corners = [], [], []
    for k, (side, d) in enumerate(DOMAINS):
        i, normal = _SIDE[side]
        ts = sorted(hits[k])
        cuts.append((*ts, lengths[i]))
        corners.append(tuple(hits[k][t][:4] for t in ts))
        # the side's ends are corners of the start obstacle
        ends = [(*_with_entry((-1, -1), i, normal), 0, 0, 0),
                *(hits[k][t] for t in ts),
                (*_with_entry((1, 1), i, normal), 0, 0, 0)]
        sigma = d[0] if i == 0 else -d[1]  # the side of the rays above t
        row = []
        for j, (lo, hi) in enumerate(zip((0, *ts), cuts[k])):
            k1, t1, m, n, adx = _landing(traces, lengths, d, sigma, ends[j],
                                         j == 0)
            flip, c1 = _LEAF[k] != _LEAF[k1], _extent_slope(v, k, k1)
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


# `Orbit.advance` steps on the power map T^_POWER in calls of at least
# _BLOCK collisions, and `_walk_period` past _POWER_FROM collisions, about
# what a build of the whole power map costs in single steps.  Diffusion
# samples advance in blocks of _BLOCK, and shadowed recurrence samples from
# checkpoint to checkpoint.
_BLOCK = 64
_POWER = 8
_POWER_FROM = 512
_TOP = _POWER.bit_length() - 1  # the level of T^_POWER in `_PowerMap`


class _PowerMap:
    """The table an orbit of slope u/v at lattice scale n0 steps on: the
    return map T scaled by n0, and T^_POWER, the map applied _POWER times,
    composed one piece at a time where an orbit first lands.

    T^_POWER is a piecewise translation too, with breakpoints where one of
    the _POWER steps starts from a corner.  Its piece at (k, t) is
    (k', flip, shift, dm, dn, c0, c1, mlo, mhi, nlo, nhi, run): it maps
    the open interval around t by t' = shift -+ t into domain k', moves
    the cell by (dm, dn) and flies |dX| = c0 + c1*t, c1 a multiple of v;
    the cells arrived in lie in the box mlo <= m <= mhi, nlo <= n <= nhi
    relative to the start cell.  ``run`` marks a piece that maps its
    domain to itself, unflipped, with shift != 0 and c1 == 0: an orbit
    repeats it while t stays in its interval, flying c0 each time
    (`Orbit.advance`).

    The map is kept as a tower T, T^2, T^4, ..., each level per domain a
    sorted list of the breakpoints known so far, from 0 to the side
    length, and the rows between them: ``edges[j][k][i]`` ends the open
    interval from ``edges[j][k][i - 1]`` whose piece is ``rows[j][k][i]``,
    or None while it is not composed.  Level 0 is the whole of T: the
    breakpoints, the shifts and the constant extent terms of `_return_map`
    scaled by n0, and each piece in the form above, with the box of the
    one cell it arrives in and no run, as no single piece maps a domain to
    itself.  ``corners[k][i]`` is `_return_map`'s corner of breakpoint
    ``edges[0][k][i]``, which does not scale.  A piece of level j is the
    piece of level j - 1 at t followed by the one at its image, on the
    part of the first interval that the second one's preimage covers.
    Every interval is a maximal one between breakpoints, so one bisection
    finds a piece or a breakpoint once it is known; `find` composes it
    where it is not."""

    __slots__ = ("edges", "rows", "corners")

    def __init__(self, params: Params, u: int, v: int, n0: int):
        cuts, pieces, corners = _return_map(params, u, v)
        self.edges = [[[0, *(n0 * c for c in cs)] for cs in cuts]]
        self.rows = [[[None, *((k, flip, n0 * shift, dm, dn, n0 * c0, c1,
                                dm, dm, dn, dn, False)
                               for k, flip, shift, dm, dn, c0, c1 in row)]
                      for row in pieces]]
        self.corners = [(None, *cs) for cs in corners]

    def top(self) -> tuple:
        """(edges, rows) of T^_POWER.  The first call makes the levels above
        0, with no piece composed: most tables are never stepped on them."""
        while len(self.edges) <= _TOP:
            self.edges.append([[0, cs[-1]] for cs in self.edges[0]])
            self.rows.append([[None, None] for _ in self.edges[0]])
        return self.edges[_TOP], self.rows[_TOP]

    def find(self, k: int, t: int, level: int = _TOP) -> int:
        """The index i of t in the lists of domain k on ``level`` (the top
        one, T^_POWER, by default, made by `top`), composing the piece
        around t where it is missing: edges[level][k][i] == t where t is a
        breakpoint, and rows[level][k][i] is the piece around t otherwise."""
        cs, row = self.edges[level][k], self.rows[level][k]
        i = bisect_left(cs, t)
        if cs[i] == t or row[i] is not None:
            return i
        # the gap (cs[i - 1], cs[i]) holds t: compose on the level below
        level -= 1
        lower_cs, lower_rows = self.edges[level][k], self.rows[level][k]
        j = bisect_left(lower_cs, t)
        if lower_rows[j] is None:
            j = self.find(k, t, level)
        corner = lower_cs[j] == t
        if not corner:
            lo, hi = lower_cs[j - 1], lower_cs[j]
            (k1, flip1, s1, dm, dn, c0, c1, mlo, mhi, nlo, nhi,
             _) = lower_rows[j]
            t1 = s1 - t if flip1 else s1 + t
            lower_cs, lower_rows = self.edges[level][k1], self.rows[level][k1]
            j = bisect_left(lower_cs, t1)
            if lower_rows[j] is None:
                j = self.find(k1, t1, level)
            corner = lower_cs[j] == t1
        if corner:  # t is a breakpoint: the gap splits there
            cs.insert(i, t)
            row.insert(i, None)
            return i
        lo2, hi2 = lower_cs[j - 1], lower_cs[j]
        (k2, flip2, s2, dm2, dn2, c02, c12, mlo2, mhi2, nlo2, nhi2,
         _) = lower_rows[j]
        # the first interval cut to the preimage of the second
        if flip1:
            lo, hi = max(lo, s1 - hi2), min(hi, s1 - lo2)
        else:
            lo, hi = max(lo, lo2 - s1), min(hi, hi2 - s1)
        flip, shift = flip1 != flip2, s2 - s1 if flip2 else s2 + s1
        c1 = c1 - c12 if flip1 else c1 + c12
        piece = (k2, flip, shift, dm + dm2, dn + dn2, c0 + c02 + c12 * s1, c1,
                 min(mlo, dm + mlo2), max(mhi, dm + mhi2),
                 min(nlo, dn + nlo2), max(nhi, dn + nhi2),
                 k2 == k and not flip and shift != 0 and c1 == 0)
        # the piece takes its part of the gap, the rest stays open
        if hi < cs[i]:
            cs.insert(i, hi)
            row.insert(i, piece)
        else:
            row[i] = piece
        if lo > cs[i - 1]:
            cs.insert(i, lo)
            row.insert(i, None)
            i += 1
        return i

    def lookup(self, k: int, t: int):
        """(lo, hi, piece) of the piece of T^_POWER around t in domain k,
        or None where t is a breakpoint."""
        edges, rows = self.top()
        i = self.find(k, t)
        cs = edges[k]
        return None if cs[i] == t else (cs[i - 1], cs[i], rows[k][i])


# Starts of one slope often share n0 (a regular start classified again,
# the fold points of one lift), and a quantized run steps one slope and its
# shadow at a time: an LRU as small as the return map's own.
@lru_cache(maxsize=16)
def _power_map(params: Params, u: int, v: int, n0: int) -> _PowerMap:
    """The table of slope u/v at lattice scale n0, with no piece of a
    power composed yet."""
    return _PowerMap(params, u, v, n0)


def _repeats(piece: tuple, lo: int, hi: int, t: int, most: int,
             stop) -> int:
    """How many times in a row a piece that maps its domain to itself,
    unflipped, applies from t in its interval (lo, hi): at most ``most``,
    while t stays in the interval, and fewer than the first repeat whose
    box holds the stop cell; ``stop`` is that cell relative to the first
    repeat's start cell, or False."""
    shift = piece[2]
    r = min(most, (hi - 1 - t) // shift + 1 if shift > 0
            else (t - lo - 1) // -shift + 1)
    if stop and r > 1:
        # repeat j starts in the start cell moved by j*(dm, dn)
        j0, j1 = _rounds(stop[0], piece[3], piece[7], piece[8], 1, r - 1)
        j0, j1 = _rounds(stop[1], piece[4], piece[9], piece[10], j0, j1)
        if j0 <= j1:
            r = j0
    return r


class Orbit:
    """The forward collisions of a non-axis start, stepped on the boundary
    return map.

    ``advance`` applies up to a given number of pieces from any state in
    one loop and reports the block as a whole: the collisions done, the end
    state, the X-extent flown and the box of the cells visited.  ``steps``
    yields the same collisions one at a time, as (k, t, m, n, adx): the
    outgoing domain ``DOMAINS[k]``, the transverse coordinate t, the
    obstacle cell and the X-extent |dX| of the flight to it, all in units
    of 1/N of ``lattice``; it raises CornerHit with the exact corner when
    the flow reaches one.  Iterating an Orbit is ``steps`` from its start.
    Both read ``tables``, the `_PowerMap` of the slope and n0.
    """

    __slots__ = ("lattice", "n0", "k", "t", "cell", "params", "tables")

    def __init__(self, start: BilliardState, params: Params):
        slope = start.slope
        k = _DOMAIN_INDEX.get((start.side, tuple(start.orientation)))
        if k is None:
            raise DomainError("direction does not leave the named side")
        self.n0 = n0 = _lcm(start.position.x.denominator,
                            start.position.y.denominator)
        self.lattice = lat = _Lattice(params, slope, n0)
        X, Y = lat.encode(start.position)
        self.k = k
        self.cell = start.cell
        self.t = lat.transverse(start.side, X, Y, *start.cell)
        self.params = params
        self.tables = _power_map(params, slope.u, slope.v, n0)

    def __iter__(self):
        return self.steps(self.k, self.t, *self.cell)

    def corner_hit(self, k: int, i: int, m: int, n: int) -> CornerHit:
        """The CornerHit of a step from breakpoint i of domain k in cell
        (m, n): ``tables.edges[0][k][i]``."""
        cx, cy, dm, dn = self.tables.corners[k][i]
        a2, b2 = _half(self.params)
        return CornerHit(m + dm + cx * a2, n + dn + cy * b2)

    def advance(self, k: int, t: int, m: int, n: int, count: int,
                stop_cell: tuple | None = None) -> tuple:
        """Apply up to ``count`` pieces from state (k, t) in cell (m, n).

        Stops early before a step from a corner, and, with ``stop_cell``,
        on arrival in that cell.  Returns (done, k, t, m, n, extent, mlo,
        mhi, nlo, nhi, corner): the collisions done, the state after the
        last of them, the X-extent they flew, the box mlo <= m <= mhi,
        nlo <= n <= nhi of the start cell and every cell reached, and the
        CornerHit the next step runs into, or None.

        A call of at least _BLOCK collisions applies pieces of T^_POWER
        (``tables.top()``) while _POWER or more remain.  It steps single
        pieces (level 0) for the next _POWER collisions where t is on
        a breakpoint of T^_POWER (a corner within _POWER collisions) or the
        stop cell is in the piece's box, and for the remainder, so every
        answer is the one single steps give.  A piece that maps its domain
        to itself, unflipped, is applied r times at once: r repeats fit the
        collisions left, keep t inside the piece's interval and come before
        the first repeat whose box holds the stop cell.  Each repeat flies
        the same extent c0, and its cells move by (dm, dn), so the box of
        the run is the hull of the first and the last repeat's box.
        """
        tables = self.tables
        cuts, pieces = tables.edges[0], tables.rows[0]
        stop = stop_cell is not None
        sm, sn = stop_cell if stop else (0, 0)
        mlo = mhi = m
        nlo = nhi = n
        ext = 0
        corner = None
        # single pieces while done < plain or fewer than _POWER remain
        plain = count
        if count >= _BLOCK:
            find, (pcuts, prows) = tables.find, tables.top()
            plain = 0
        done = 0
        while done < count:
            if done < plain or count - done < _POWER:
                cs = cuts[k]
                i = bisect_left(cs, t)
                if cs[i] == t:
                    corner = self.corner_hit(k, i, m, n)
                    break
                piece = pieces[k][i]
                done += 1
            else:
                cs = pcuts[k]
                i = bisect_left(cs, t)
                piece = prows[k][i]
                if piece is None:  # not composed yet, or t a breakpoint
                    i = find(k, t)
                    piece = prows[k][i]
                if cs[i] == t or stop and piece[7] <= sm - m <= piece[8] \
                        and piece[9] <= sn - n <= piece[10]:
                    plain = done + _POWER
                    continue
                # a run takes a second repeat from t + shift
                if piece[11] and count - done >= 2 * _POWER and \
                        cs[i - 1] < t + piece[2] < cs[i]:
                    r = _repeats(piece, cs[i - 1], cs[i], t,
                                 (count - done) // _POWER,
                                 stop and (sm - m, sn - n))
                    if r > 1:
                        # a run piece has c1 == 0: each repeat flies c0
                        _, _, shift, dm, dn, c0, _, plo, phi, qlo, qhi, _ = \
                            piece
                        ext += r * c0
                        t += r * shift
                        # the hull of the first and the last repeat's box
                        lm, ln = m + (r - 1) * dm, n + (r - 1) * dn
                        mlo = min(mlo, m + plo, lm + plo)
                        mhi = max(mhi, m + phi, lm + phi)
                        nlo = min(nlo, n + qlo, ln + qlo)
                        nhi = max(nhi, n + qhi, ln + qhi)
                        m, n = lm + dm, ln + dn
                        done += r * _POWER
                        continue
                done += _POWER
            k, flip, shift, dm, dn, c0, c1, plo, phi, qlo, qhi, _ = piece
            ext += c0 + c1 * t
            t = shift - t if flip else shift + t
            if m + plo < mlo:
                mlo = m + plo
            if m + phi > mhi:
                mhi = m + phi
            if n + qlo < nlo:
                nlo = n + qlo
            if n + qhi > nhi:
                nhi = n + qhi
            m += dm
            n += dn
            if stop and m == sm and n == sn:
                break
        return done, k, t, m, n, ext, mlo, mhi, nlo, nhi, corner

    def run(self, k: int, t: int, count: int) -> int:
        """The collisions of the run from state (k, t), at most ``count``:
        _POWER times the repeats of its piece of T^_POWER where that piece
        maps domain k to itself, unflipped (`advance`), and 0 elsewhere."""
        found = self.tables.lookup(k, t)
        if found is None or not found[2][11]:
            return 0
        return _POWER * _repeats(found[2], found[0], found[1], t,
                                 count // _POWER, False)

    def steps(self, k: int, t: int, m: int, n: int):
        """The collisions after state (k, t) in cell (m, n), as iterating
        yields them from the start: one ``advance`` each."""
        advance = self.advance
        while True:
            _, k, t, m, n, adx, _, _, _, _, corner = advance(k, t, m, n, 1)
            if corner is not None:
                raise corner
            yield k, t, m, n, adx

    def position(self, k: int, t: int, m: int, n: int) -> PointQ:
        """Exact point of a collision the iteration yielded."""
        N = self.lattice.N
        X, Y = self.lattice.point(k, t, m, n)
        return PointQ(Fraction(X, N), Fraction(Y, N))


def _reflect_domain(k: int, sx: int, sy: int) -> int:
    side, (ox, oy) = DOMAINS[k]
    i, normal = _SIDE[side]
    return _DOMAIN_INDEX[_SIDE_AT[i, (sx, sy)[i] * normal], (sx * ox, sy * oy)]


# The table's reflections x -> sx*x, y -> sy*y with their domain maps, the
# identity first.
_REFLECTIONS = tuple(((sx, sy), tuple(_reflect_domain(k, sx, sy)
                                      for k in range(8)))
                     for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)))


def _reverses(k: int, sx: int, sy: int) -> bool:
    """Whether the reflection x -> sx*x, y -> sy*y runs t on domain k's side
    from its other end: it reverses y on vertical sides, x on horizontal
    ones."""
    return (sy if k < 4 else sx) < 0


# -- cylinder cycles ------------------------------------------------------
#
# Every reduced orbit of a rational slope is a cycle of the return map, and
# the starts that follow the same pieces fill an open interval: the leaves
# of one cylinder.  They share the period, the drift and the period's
# flight extent, so the first walk that closes on its start, or on a
# reflection of it at half the period, records the cycle, and later starts
# on it are answered by a short walk to one of its landmarks instead of a
# period walk.

# A recorded cycle keeps a landmark at least every this many phases; a
# lookup walks at most this many collisions to reach one.
_LANDMARK_EVERY = 32


class _Cycle:
    """A closed cycle of the return map, recorded at lattice scale n0 = 1.

    Every start in the open interval (lo, hi) of domain ``k[0]`` takes the
    same pieces and is back on itself after ``length`` collisions,
    ``drift`` cells away, having flown the X-extent ``extent``.  Landmark b
    sits at phase j = phase[b]: the phases rise from 0 by at most
    G = _LANDMARK_EVERY, and landmark b's block runs to the next one's
    phase, or to ``length``.  A phase-0 point tau, at lattice scale n0, is
    there at t = sign[b]*tau + n0*off[b] in domain k[b], in cell
    (cm[b], cn[b]) relative to its start cell, after the X-extent
    n0*ea[b] + _extent_slope(v, k[0], k[b])*tau.  The cells of the block's
    phases lie in the box cm[b] + mlo[b] <= m <= cm[b] + mhi[b],
    cn[b] + nlo[b] <= n <= cn[b] + nhi[b].  Only `_walk_period` makes a
    cycle, filling the columns while it walks, on T^_POWER after its first
    _POWER_FROM collisions, and mirroring the first half's landmarks when
    it closes at half the period: every stored cycle was walked and
    checked.  A reflected start is answered from the cycle as it stands.
    """

    __slots__ = ("length", "drift", "extent", "lo", "hi", "phase", "k",
                 "sign", "off", "cm", "cn", "ea", "mlo", "mhi", "nlo", "nhi",
                 "span")

    def __init__(self):
        self.k, self.sign = array("b"), array("b")
        self.phase, self.off, self.cm, self.cn, self.ea = [], [], [], [], []
        self.mlo, self.mhi, self.nlo, self.nhi = [], [], [], []

    def seal(self, length, drift, extent, lo, hi):
        self.length, self.drift, self.extent = length, drift, extent
        self.lo, self.hi = lo, hi
        # the box of every cell of the period
        self.span = (min(map(sum, zip(self.cm, self.mlo))),
                     max(map(sum, zip(self.cm, self.mhi))),
                     min(map(sum, zip(self.cn, self.nlo))),
                     max(map(sum, zip(self.cn, self.nhi))))

    def intervals(self) -> list:
        """The open interval, at n0 = 1, that each landmark's phase covers."""
        lo, hi = self.lo, self.hi
        return [(off + lo, off + hi) if sign > 0 else (off - hi, off - lo)
                for sign, off in zip(self.sign, self.off)]


class _CycleStore:
    """The recorded cycles of one (params, slope), and for each domain the
    intervals of their landmarks: sorted, disjoint, at n0 = 1."""

    __slots__ = ("cycles", "los", "his", "refs")

    def __init__(self):
        self.cycles = []
        self.los = [[] for _ in DOMAINS]
        self.his = [[] for _ in DOMAINS]
        self.refs = [[] for _ in DOMAINS]  # cycle << 32 | landmark

    def add(self, cyc: _Cycle):
        """Index a sealed cycle's landmarks: in each domain they reach, the
        recorded and the new intervals sorted together, none of them ending
        after the next one begins."""
        ref = len(self.cycles) << 32
        rows = [[] for _ in DOMAINS]
        for b, (k, (lo, hi)) in enumerate(zip(cyc.k, cyc.intervals())):
            rows[k].append((lo, hi, ref | b))
        merged = []
        for k, row in enumerate(rows):
            if row:
                row = sorted([*zip(self.los[k], self.his[k], self.refs[k]),
                              *row])
                if any(hi > lo for (_, hi, _), (lo, _, _) in zip(row, row[1:])):
                    raise AssertionError("two recorded cycles overlap")
                merged.append((k, row))
        for k, row in merged:
            self.los[k], self.his[k], self.refs[k] = map(list, zip(*row))
        self.cycles.append(cyc)

    def locate(self, walk: Orbit):
        """Find the start of ``walk``, or a reflection of it, on a recorded
        cycle, by walking the start to the first landmark it reaches.

        Returns (found, (sx, sy)): the reflection x -> sx*x, y -> sy*y maps
        the start to a start on a recorded cycle, and found = (cycle,
        landmark, steps, dm, dn, extent, t) says where that reflected start
        meets the cycle: the collisions walked, the cells and X-extent they
        moved by and the coordinate at the landmark.  None when no
        reflection of the start lies on a recorded cycle.  The table is
        symmetric under both reflections, so the reflected orbit is the
        image of the orbit: the same collision count and X-extents, with
        the cells (sx*m, sy*n).  So the start is walked once, and the image
        of each state it reaches under each reflection of `_REFLECTIONS` is
        looked up; the first reflection in that order that reaches a
        landmark wins, so the identity wins whenever it reaches one.  A
        caller multiplies the drift or cell of its answer by (sx, sy).  A
        start on a cycle reaches a landmark within _LANDMARK_EVERY - 1
        collisions.  Interval ends never match: they lie on saddle
        connections.
        """
        if not self.cycles:
            return None
        n0, cuts = walk.n0, walk.tables.edges[0]
        k = k0 = walk.k
        t = t0 = walk.t
        m = n = ext = 0
        found, wanted = None, len(_REFLECTIONS)  # only earlier ones can win
        steps = walk.steps(k, t, 0, 0)
        for s in range(_LANDMARK_EVERY):
            for r in range(wanted):
                (sx, sy), kmap = _REFLECTIONS[r]
                # a reflection along the side runs t from its other end
                # (`_reverses`, written out in this hot loop)
                kr = kmap[k]
                tr = cuts[k][-1] - t if (sy if k < 4 else sx) < 0 else t
                # the last interval with n0*lo < tr, that is
                # lo <= (tr - 1)//n0
                i = bisect_right(self.los[kr], (tr - 1) // n0) - 1
                if i >= 0 and tr < n0 * self.his[kr][i]:
                    ci, b = divmod(self.refs[kr][i], 1 << 32)
                    found = ((self.cycles[ci], b, s, sx * m, sy * n, ext, tr),
                             (sx, sy))
                    wanted = r
                    break
            if not wanted or s and t == t0 and k == k0:
                break  # the identity found, or a short cycle walked whole
            try:
                k, t, m, n, adx = next(steps)
            except CornerHit:
                break
            ext += adx
        return found


@lru_cache(maxsize=16)
def _cycle_store(params: Params, u: int, v: int) -> _CycleStore:
    """The cycle store of slope u/v, shared by every caller (same size and
    reasoning as the return map's cache)."""
    return _CycleStore()


class _Walk(NamedTuple):
    steps: int
    m: int
    n: int
    extent: int
    corner: CornerHit | None
    cycle: _Cycle | None  # the cycle closed and recorded, if any
    returned: bool  # stopped on its first return to the start cell


def _walk_period(walk: Orbit, limit: int, store: _CycleStore,
                 to_cell: bool = False) -> _Walk:
    """Step the start of ``walk`` until it is back on its start state, hits a
    corner, or has made ``limit`` collisions; record the cycle it closes.

    The open interval of starts that take the same pieces is shrunk along
    the way, kept as its margins below and above the orbit's point: each
    piece cuts them down to its ends.  With ``to_cell``, the walk also
    stops on its first return to the start cell.  The sign the walk tracks
    is the one the leaf geometry fixes at every phase, so it is +1 when
    the walk closes: the period map on the interval is unflipped.

    The walk also watches for the start's images under the table's three
    reflections S (`_REFLECTIONS`), which commute with the return map T.
    Where it reaches S(start) moved by d cells, at phase j, the second
    half mirrors the first: T^2j(start) = T^j(S(start) + d) =
    S(T^j(start)) + d = start + d + S*d.  The period L divides 2j, and
    j < L, so L = 2j, and when j >= _LANDMARK_EVERY and 2j <= ``limit``
    the walk stops there with the whole cycle: drift d + S*d, twice the
    extent, and for each landmark of the first half its mirror image at
    phase j + its phase (domain and t reflected, cell S*c + d, box
    reflected).  The starts
    whose second half takes the same pieces are T^-j of the image of the
    first half's interval under S, and that is the interval itself: the
    tracked sign at phase j, the leaf geometry's, is -1 exactly where S
    reverses t on the start's side.  A walk that reaches S(start) with
    j < _LANDMARK_EVERY, where mirroring costs more than the collisions it
    saves, or with 2j > ``limit`` walks on as if it had not.

    From its landmark at _POWER_FROM collisions on, the walk applies pieces
    of T^_POWER (``walk.tables.top()``, read as single pieces are read
    on level 0): their intervals are exactly the starts that take the same
    single pieces.  It steps single pieces for the next _POWER
    collisions where a corner, its close or a reflection of its start
    (from one of their predecessors) or, with ``to_cell``, the start cell
    lies within them, and for a remainder, so it records what single steps
    record.
    """
    G = _LANDMARK_EVERY
    tables = walk.tables
    cuts, pieces = tables.edges[0], tables.rows[0]
    k = k0 = walk.k
    t = t0 = walk.t
    m, n = sm, sn = walk.cell
    leaf0, n0 = _LEAF[k0], walk.n0
    sign, ext, steps = 1, 0, 0
    below, above = t, cuts[k][-1] - t  # the domain's ends, cut by each piece
    slopes = [_extent_slope(walk.lattice.v, k0, k) for k in range(8)]
    # the start and its three reflections lie in four distinct domains:
    # goal[k] is the t of the one in domain k
    goal = [None] * 8
    for (sx, sy), kmap in _REFLECTIONS:
        goal[kmap[k0]] = cuts[k0][-1] - t0 if _reverses(k0, sx, sy) else t0
    rec = _Cycle()
    closed, half, corner, returned = False, 0, None, False
    plain = limit  # single pieces while steps < plain
    while steps < limit:
        if steps:  # the box of the last landmark's block, from its cell
            rec.mlo.append(mlo - lm)
            rec.mhi.append(mhi - lm)
            rec.nlo.append(nlo - ln)
            rec.nhi.append(nhi - ln)
        if steps == _POWER_FROM:
            # the start's predecessors by time reversal, T^-j = R T^j R
            # with R(k, t) = (k ^ 1, t), and their reflections, which
            # precede the start's; a start without them never closes
            preds = {(r[1] ^ 1, r[2]) for j in range(1, _POWER)
                     for r in [walk.advance(k0 ^ 1, t0, 0, 0, j)] if r[0] == j}
            preds = {(kmap[kp], cuts[kp][-1] - tp if _reverses(kp, sx, sy)
                      else tp)
                     for kp, tp in preds for (sx, sy), kmap in _REFLECTIONS}
            find, (pcuts, prows) = tables.find, tables.top()
            plain = 0
        # a landmark: the phase-0 point is at sign*t0 + off, and its
        # extent is ext + B*(tau - t0) with the slope B the leaf geometry
        # fixes
        if sign != leaf0 * _LEAF[k]:
            raise AssertionError("tracked sign off the leaf geometry")
        rec.phase.append(steps)
        rec.k.append(k)
        rec.sign.append(sign)
        rec.off.append(t - sign * t0)  # taken to n0 = 1 on closing
        rec.cm.append(m - sm)
        rec.cn.append(n - sn)
        rec.ea.append(ext - slopes[k] * t0)
        mlo = mhi = lm = m
        nlo = nhi = ln = n
        end = min(steps + G, limit)
        last = end - _POWER  # the last start of a power step in the block
        while steps < end:
            if steps < plain or steps > last:
                cs = cuts[k]
                i = bisect_left(cs, t)
                c, lo, piece = cs[i], cs[i - 1], pieces[k][i]
                if c == t:
                    corner = walk.corner_hit(k, i, m, n)
                    break
                steps += 1
            else:
                cs = pcuts[k]
                i = bisect_left(cs, t)
                piece = prows[k][i]
                if piece is None:  # not composed yet, or t a breakpoint
                    i = find(k, t)
                    piece = prows[k][i]
                c, lo = cs[i], cs[i - 1]
                if c == t or (k, t) in preds or to_cell and \
                        piece[7] <= sm - m <= piece[8] and \
                        piece[9] <= sn - n <= piece[10]:
                    plain = steps + _POWER
                    continue
                steps += _POWER
            if c - t < above:
                above = c - t
            if t - lo < below:
                below = t - lo
            k, flip, shift, dm, dn, c0, c1, plo, phi, qlo, qhi, _ = piece
            ext += c0 + c1 * t
            if flip:
                t = shift - t
                below, above = above, below
                sign = -sign
            else:
                t += shift
            if m + plo < mlo:
                mlo = m + plo
            if m + phi > mhi:
                mhi = m + phi
            if n + qlo < nlo:
                nlo = n + qlo
            if n + qhi > nhi:
                nhi = n + qhi
            m += dm
            n += dn
            if m == sm and n == sn and to_cell:
                returned = True
                closed = t == t0 and k == k0
                break
            if t == goal[k]:
                if k == k0:
                    closed = True
                    break
                if G <= steps and 2 * steps <= limit:
                    closed, half = True, steps
                    break
        else:
            continue
        break
    else:  # at the limit, a corner the next step runs into is reported
        i = bisect_left(cuts[k], t)
        if cuts[k][i] == t:
            corner = walk.corner_hit(k, i, m, n)
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned)
    rec.mlo.append(mlo - lm)
    rec.mhi.append(mhi - lm)
    rec.nlo.append(nlo - ln)
    rec.nhi.append(nhi - ln)
    rec.off, rec.ea = _down_all(rec.off, n0), _down_all(rec.ea, n0)
    if half:
        (sx, sy), kmap = next(r for r in _REFLECTIONS if r[1][k0] == k)
        # T^j maps the first half's interval onto its own image under S
        # when its sign is -1 exactly where S reverses the start's side,
        # as the leaf geometry has it; then the second half cuts nothing
        if (sign < 0) != _reverses(k0, sx, sy):
            raise AssertionError("half period flipped against its mirror")
        # landmark b's image under S, moved by (dm, dn), is at phase
        # half + phase[b].  S keeps the kind of a side, so the extent
        # slope, and where it runs t from the side's other end (length - t)
        # it flips the leaf sign: the image's offset is length - off
        dm, dn, e = m - sm, n - sn, _down(ext, n0)
        rev = [_reverses(kb, sx, sy) for kb in rec.k]
        rec.phase += [half + q for q in rec.phase]
        rec.off += [cuts[kb][-1] // n0 - off if r else off
                    for kb, off, r in zip(rec.k, rec.off, rev)]
        rec.sign.extend([-sb if r else sb for sb, r in zip(rec.sign, rev)])
        rec.k.extend([kmap[kb] for kb in rec.k])
        rec.cm += [dm + sx * c for c in rec.cm]
        rec.cn += [dn + sy * c for c in rec.cn]
        rec.ea += [e + a for a in rec.ea]
        for lo, hi, s in ((rec.mlo, rec.mhi, sx), (rec.nlo, rec.nhi, sy)):
            lo2, hi2 = (lo, hi) if s > 0 else ([-c for c in hi],
                                                [-c for c in lo])
            lo += lo2
            hi += hi2
        # the interval's margins about t0, in the start's direction
        if sign < 0:
            below, above = above, below
        steps, ext = 2 * half, 2 * ext
        m, n = sm + dm + sx * dm, sn + dn + sy * dn
    elif sign != 1:
        raise AssertionError("period map flipped on its interval")
    rec.seal(steps, (m - sm, n - sn), _down(ext, n0),
             _down(t0 - below, n0), _down(t0 + above, n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned)


def _down(x: int, n0: int) -> int:
    """x at lattice scale n0, taken to n0 = 1."""
    q, r = divmod(x, n0)
    if r:
        raise AssertionError("cycle data off the n0 = 1 lattice")
    return q


def _down_all(xs: list, n0: int) -> list:
    """Each entry of xs at lattice scale n0, taken to n0 = 1."""
    if any(x % n0 for x in xs):
        raise AssertionError("cycle data off the n0 = 1 lattice")
    return [x // n0 for x in xs]


def _landmark(walk: Orbit, cyc: _Cycle, tau: int, b: int, rnd: int) -> tuple:
    """(k, t, m, n, extent) at landmark b in round ``rnd`` (phase
    rnd*L + phase[b]) of the cycle point whose phase-0 coordinate is tau,
    in the frame where that point starts in cell (0, 0) with extent 0."""
    n0, k = walk.n0, cyc.k[b]
    return (k, cyc.sign[b] * tau + n0 * cyc.off[b],
            cyc.cm[b] + rnd * cyc.drift[0], cyc.cn[b] + rnd * cyc.drift[1],
            n0 * (cyc.ea[b] + rnd * cyc.extent)
            + _extent_slope(walk.lattice.v, cyc.k[0], k) * tau)


def _rounds(c: int, d: int, lo: int, hi: int, w0: int, w1: int) -> tuple:
    """The rounds w0..w1 narrowed to those with lo <= c - w*d <= hi."""
    if d > 0:
        return max(w0, -((hi - c) // d)), min(w1, (c - lo) // d)
    if d < 0:
        return max(w0, -((c - lo) // -d)), min(w1, (hi - c) // -d)
    return (w0, w1) if lo <= c <= hi else (w0, w0 - 1)


def _cycle_return(walk: Orbit, found: tuple, horizon: int) -> tuple:
    """First return to the start cell within ``horizon`` collisions of a
    start that ``_CycleStore.locate`` found on a recorded cycle.

    Returns (collisions or None, cell, extent): the cell and the extent are
    relative to the start, at the return or else at the horizon.  Phase q
    of the cycle sits at cell C[q mod L] + (q div L)*D.  In the rounds
    whose drift brings the start cell into the cycle's span, the blocks
    whose boxes hold it are advanced from their landmark in order of
    phase, each stopping in the start cell, so the first stop at or after
    the start's next phase is the first return.
    """
    cyc, b, s, wm, wn, wext, t = found
    L, (dm, dn), n0, phase = cyc.length, cyc.drift, walk.n0, cyc.phase
    tau = cyc.sign[b] * (t - n0 * cyc.off[b])
    # the start is at phase p, s collisions before landmark b's phase
    p = phase[b] - s
    rnd = 1 if p < 0 else 0
    p += rnd * L
    _, _, cm, cn, e0 = _landmark(walk, cyc, tau, b, rnd)
    cm, cn, e0 = cm - wm, cn - wn, e0 - wext
    first, last = p + 1, p + horizon
    # only rounds whose drift brings the start cell into the cycle's span
    lo_m, hi_m, lo_n, hi_n = cyc.span
    w0, w1 = _rounds(cm, dm, lo_m, hi_m, first // L, last // L)
    w0, w1 = _rounds(cn, dn, lo_n, hi_n, w0, w1)
    for rnd in range(w0, w1 + 1):
        tm, tn = cm - rnd * dm, cn - rnd * dn
        base = rnd * L
        # the blocks from the one holding phase first to the one holding
        # phase last of this round
        for b in range(max(0, bisect_right(phase, first - base) - 1),
                       bisect_right(phase, last - base)):
            if cyc.mlo[b] <= tm - cyc.cm[b] <= cyc.mhi[b] and \
                    cyc.nlo[b] <= tn - cyc.cn[b] <= cyc.nhi[b]:
                q = base + phase[b]
                end = min(base + (phase[b + 1] if b + 1 < len(phase) else L)
                          - 1, last)
                k, t, m, n, ext = _landmark(walk, cyc, tau, b, rnd)
                while True:
                    if m == cm and n == cn and q >= first:
                        return q - p, (0, 0), ext - e0
                    if q == end:
                        break
                    done, k, t, m, n, adx, *_, corner = walk.advance(
                        k, t, m, n, end - q, (cm, cn))
                    if corner is not None:
                        raise corner
                    q += done
                    ext += adx
    rnd, r = divmod(last, L)
    b = bisect_right(phase, r) - 1
    k, t, m, n, ext = _landmark(walk, cyc, tau, b, rnd)
    _, _, _, m, n, adx, *_, corner = walk.advance(k, t, m, n, r - phase[b])
    if corner is not None:
        raise corner
    return None, (m - cm, n - cn), ext + adx - e0


def first_return(start: BilliardState, params: Params, horizon: int):
    """The first return of an orbit to its start cell within ``horizon``
    collisions.

    Returns (collisions or None, cell, length, singular): the cell relative
    to the start cell and the length in primitive-vector units, at the
    return, at the corner or else at the horizon.  An axis orbit is back
    after its two flights.  A start whose reflection lies on a recorded
    cycle is answered from it, with the cell reflected back; otherwise the
    orbit is walked, and one that closes on its start within the horizon
    is recorded and answered from its cycle.
    """
    validate_state(start, params)
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if start.slope.is_axis:
        flight = _axis_flight(start.slope, params)
        if horizon >= 2:
            return 2, (0, 0), 2 * flight, False
        _, (m, n), *_ = next(_collisions(start, params))
        sm, sn = start.cell
        return None, (m - sm, n - sn), flight, False
    walk = Orbit(start, params)
    store = _cycle_store(params, start.slope.u, start.slope.v)
    vN = start.slope.v * walk.lattice.N
    located = store.locate(walk)
    if located is None:
        res = _walk_period(walk, horizon, store, to_cell=True)
        if res.returned:
            return res.steps, (0, 0), Fraction(res.extent, vN), False
        if res.cycle is None:
            sm, sn = start.cell
            return (None, (res.m - sm, res.n - sn), Fraction(res.extent, vN),
                    res.corner is not None and res.steps < horizon)
        located = (res.cycle, 0, 0, 0, 0, 0, walk.t), (1, 1)
    found, (sx, sy) = located
    ret, (m, n), ext = _cycle_return(walk, found, horizon)
    return ret, (sx * m, sy * n), Fraction(ext, vN), False


def next_collision(state: BilliardState, params: Params) -> BilliardState:
    """One exact collision step.  Raises CornerHit at corners."""
    validate_state(state, params)
    side, cell, orientation, pos = next(_collisions(state, params))
    return BilliardState(pos, side, cell, orientation, state.slope)


def _axis_flight(slope: Slope, params: Params) -> Fraction:
    """The length of each flight of an axis slope from a side it leaves.

    A horizontal ray leaving a vertical side stays in the open band of its
    obstacle row, so it hits the facing side of the neighboring obstacle
    after 1 - a, and then comes back: a 2-collision periodic orbit.  Same
    for vertical rays, with 1 - b.
    """
    return 1 - (params.a if slope.is_horizontal else params.b)


def classify_trajectory(start: BilliardState, params: Params,
                        max_collisions: int = DEFAULT_MAX_COLLISIONS) -> TrajectoryOutcome:
    """Classify the forward orbit as periodic, escaping or singular.

    The boundary return map is invertible (time reversal of a collision
    gives the unique earlier one), so on the finite set of reduced states
    (collision data modulo lattice translation) it is a permutation and
    the first reduced repeat of an orbit is its own start state.  The walk
    stops there: zero cell difference means the orbit is closed, a non-zero
    difference is the drift of an escaping orbit.  ``pre_period`` is
    therefore always 0.  The walk records the cylinder cycle it closed, and
    a later start whose reflection lies on a recorded cycle is answered
    from it, with the drift reflected back.  An undetermined outcome has
    the length of exactly ``max_collisions`` collisions.
    """
    validate_state(start, params)
    if max_collisions < 1:
        raise DomainError("max_collisions must be >= 1")
    if start.slope.is_axis:
        return TrajectoryOutcome(Outcome.PERIODIC, 2,
                                 2 * _axis_flight(start.slope, params),
                                 (0, 0), repeat_cells=(start.cell, start.cell))

    walk = Orbit(start, params)
    store = _cycle_store(params, start.slope.u, start.slope.v)
    vN = start.slope.v * walk.lattice.N
    m0, n0 = start.cell
    located = store.locate(walk)
    if located is not None and located[0][0].length <= max_collisions:
        (cyc, *_), (sx, sy) = located
        steps, extent = cyc.length, walk.n0 * cyc.extent
        dm, dn = sx * cyc.drift[0], sy * cyc.drift[1]
    else:
        res = _walk_period(walk, max_collisions, store)
        if res.corner is not None:
            # length up to the last collision
            return TrajectoryOutcome(Outcome.SINGULAR, res.steps,
                                     Fraction(res.extent, vN), (0, 0),
                                     corner=PointQ(res.corner.x, res.corner.y))
        if res.cycle is None:
            return TrajectoryOutcome(Outcome.UNDETERMINED, max_collisions,
                                     Fraction(res.extent, vN), (0, 0))
        steps, dm, dn, extent = res.steps, res.m - m0, res.n - n0, res.extent
    kind = Outcome.PERIODIC if (dm, dn) == (0, 0) else Outcome.ESCAPING
    return TrajectoryOutcome(kind, steps, Fraction(extent, vN), (dm, dn),
                             repeat_cells=((m0, n0), (m0 + dm, n0 + dn)))


def _check_count(n_collisions: int):
    if n_collisions < 0:
        raise DomainError(f"n_collisions must be >= 0, got {n_collisions}")


def _collisions(start: BilliardState, params: Params):
    """(side, cell, orientation, position) of each forward collision, with
    the orientation that leaves it.  Raises CornerHit."""
    if start.slope.is_axis:
        # Trapped 2-bounce orbit along axis i, between two facing sides.
        i = 0 if start.slope.is_horizontal else 1
        pos, cell = (start.position.x, start.position.y), start.cell
        orientation = start.orientation
        gap = _axis_flight(start.slope, params)
        while True:
            s = orientation[i]
            pos = _with_entry(pos, i, pos[i] + s * gap)
            cell = _with_entry(cell, i, cell[i] + s)
            orientation = _with_entry(orientation, i, -s)
            yield _SIDE_AT[i, -s], cell, orientation, PointQ(*pos)
    walk = Orbit(start, params)
    for k, t, m, n, _adx in walk:
        side, orientation = DOMAINS[k]
        yield side, (m, n), orientation, walk.position(k, t, m, n)


def collision_sequence(start: BilliardState, params: Params,
                       n_collisions: int) -> list:
    """The (side, cell) combinatorics of the first n collisions."""
    _check_count(n_collisions)
    return [(side, cell) for side, cell, *_
            in islice(_collisions(start, params), n_collisions)]


def trace(start: BilliardState, params: Params, n_collisions: int) -> TracedPath:
    """Exact polyline of the first n collision points, start included.

    Truncated at a corner hit and tagged singular in that case.
    """
    _check_count(n_collisions)
    validate_state(start, params)
    points = [start.position]
    try:
        for *_, pos in islice(_collisions(start, params), n_collisions):
            points.append(pos)
    except CornerHit as hit:
        corner = PointQ(hit.x, hit.y)
        points.append(corner)
        return TracedPath(tuple(points), corner)
    return TracedPath(tuple(points))


def time_reversed(state: BilliardState) -> BilliardState:
    """State flowing backward along the incoming ray of this collision.

    The backward direction is the reversed incoming one, which leaves the
    side again: the outgoing direction with its tangential sign flipped.
    """
    sx, sy = state.orientation
    return replace(state,
                   orientation=leaving_orientation(state.side, (-sx, -sy)))


def symmetry_check(start: BilliardState, params: Params, n_collisions: int) -> bool:
    """Mirror symmetry of the forward and backward orbits of a mid-side start.

    The start must sit at the midpoint of its obstacle side.  For a
    horizontal-side midpoint the two orbits must be exact mirror images
    through the vertical line through the start; for a vertical-side
    midpoint, through the horizontal line.  Singular truncations propagate
    as a failed check only if the two sides disagree.
    """
    i = _frame(start.side)[0]
    if side_offset(start, params) != side_length(params, start.side) / 2:
        raise DomainError(f"start is not a {_AXIS_NAMES[i]}-side midpoint")
    c = start.position
    mirror = (lambda pt: PointQ(2 * c.x - pt.x, pt.y)) if i else \
        (lambda pt: PointQ(pt.x, 2 * c.y - pt.y))
    fwd = trace(start, params, n_collisions)
    bwd = trace(time_reversed(start), params, n_collisions)
    if fwd.singular != bwd.singular or len(fwd.points) != len(bwd.points):
        return False
    return all(mirror(p) == q for p, q in zip(fwd.points, bwd.points))


def regular_start(params: Params, slope: Slope, orientation: tuple = (1, 1),
                  max_collisions: int = DEFAULT_MAX_COLLISIONS):
    """A deterministic start whose orbit avoids corners, with its outcome.

    Walks a fixed ladder of offsets on the origin obstacle's sides, 1/3,
    1/5, ..., 1/129 of a side, until classify_trajectory comes back
    non-singular.  Returns (state, outcome).  Raises DomainError if every
    attempt is singular (not observed for desk-scale data), and make_state's
    DomainError for an invalid orientation.
    """
    sides = HORIZONTAL_SIDES if not slope.is_horizontal else VERTICAL_SIDES
    for denom in range(3, 131, 2):
        for side in sides:
            length = side_length(params, side)
            state = make_state(params, (0, 0), side,
                               Fraction(1, denom) * length, slope,
                               leaving_orientation(side, orientation))
            outcome = classify_trajectory(state, params, max_collisions)
            if outcome.kind is not Outcome.SINGULAR:
                return state, outcome
    raise DomainError(f"no regular start found for slope {slope} at {params}")


def launch(params: Params, point: PointQ, slope: Slope,
           orientation: tuple) -> BilliardState | None:
    """March a ray from a table-interior point to its first collision.

    Returns the post-bounce state, or None when the ray provably never
    meets an obstacle (a straight corridor).  Raises CornerHit when the
    first contact is a corner, and DomainError for points inside or on an
    obstacle.
    """
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
    lat = _Lattice(params, slope, _lcm(x.denominator, y.denominator))
    res = _first_hit(lat, *lat.encode(point), *orientation)
    if res is None:
        return None
    Xn, Yn, side, mm, nn, sxn, syn, _ = res
    pos = PointQ(Fraction(Xn, lat.N), Fraction(Yn, lat.N))
    return BilliardState(pos, side, (mm, nn), (sxn, syn), slope)
