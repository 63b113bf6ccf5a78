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
modulo the lattice is one of 8 outgoing domains (a side with one of the
two orientations leaving it) and a transverse coordinate: the offset
along the side in units of 1/N, divided by u on vertical sides and by v
on horizontal ones.  By the lattice invariant every collision has X a
multiple of v and Y a multiple of u, so the offset is an integer.  The
table's reflections x -> +-x, y -> +-y commute with the map and act
freely on the domains, with two orbits, the vertical and the horizontal
sides, so the stepper works on the quotient: a state is (k, t, r), the
point at t on the representative domain k of its side's kind, taken by
the reflection r.  With t the offset on the vertical representative and
the side's length less the offset on the horizontal one, the first return
to the boundary is a piecewise translation, t' = t + shift, with a
reflection label composed into r (by XOR), a constant cell displacement
applied through r, and a flight X-extent affine in t, with about 5
pieces.  The breakpoints are the side points whose ray runs into a corner
first: the flights from the 4 corners along the 3 directions that leave
each one, at n0 = 1, land on them.  Three first hits trace the flights
from one corner, which land on every breakpoint of the quotient, and the
table's reflections give the other 9.  No piece needs a first hit of its
own: the rays just beside a breakpoint land on a side of its corner or
follow that corner's flight, each piece is read off both of its ends,
which must agree, and its domain pair gives c1.  The map is built once
per (params, slope), kept in a small LRU cache.  An orbit reads it from
one table per (params, slope, n0), n0 the start's common denominator
(`_PowerMap`, in a small LRU cache of its own): the map scaled by n0, as
the table geometry, the breakpoints and the shifts all scale with N.  A
step is then one bisection and a few integer additions, a start exactly
on a breakpoint is a corner hit, and every quantity the map produces is
one `_first_hit` would produce, so exactness still holds.  The domain and
offset of a state are derived only where an answer needs them.
`Orbit.advance` applies the map for a block of collisions in one loop and
reports the block as a whole (end state, extent, box of the cells);
`Orbit.steps` yields the collisions one at a time, one `advance` each.
The 8th power of the map is a piecewise translation too, with the box of
the cells each piece passes.  The same table keeps its pieces, composed
where an orbit first lands, down the tower T, T^2, T^4.  A block of 64
collisions or more takes 8 at a time on it, and steps single pieces for
the next 8 where a corner or the stop cell lies within them, so its
answers are those of single steps.  A recording walk (below) climbs the
same tower to T^32, one landmark block: it steps on T^P once it has made
16*P collisions, and drops a level where a corner, the start cell or
the walk's close lies within the step.  A piece that maps its domain
back to itself with label 0 repeats while t stays in its interval: a
block applies all of its repeats at once.

Each orbit of a rational slope is a cycle of the map, and the starts that
take the same pieces fill an open interval: the leaves of one cylinder.
The first walk that closes on its start in the quotient records the
cycle (period, label, drift, interval and a landmark at least every 32
collisions).  Every walk looks its first 32 states up among the recorded
landmarks, so a later start on a cycle, or on a reflection of it, stops
at a landmark within 32 collisions and is answered from the cycle.  A
walk back on its quotient start with a reflection label has walked half
its cycle: the reflection takes the first half to the second.

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
from heapq import merge
from itertools import islice
from math import gcd, lcm
from typing import NamedTuple

from .errors import CornerHit, DomainError, check_count
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


def _side_state(params: Params, cell: tuple, side: str, offset: Fraction,
                slope: Slope, orientation: tuple) -> BilliardState:
    """`make_state` before its validation: the state that ``classify_trajectory``,
    ``first_return`` and ``Orbit`` check once themselves."""
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
    return BilliardState(pos, side, (m, n), tuple(orientation), slope)


def make_state(params: Params, cell: tuple, side: str, offset: Fraction,
               slope: Slope, orientation: tuple) -> BilliardState:
    """Build a validated state from an obstacle side and an offset along it.

    The offset is measured from the bottom end (vertical sides) or the left
    end (horizontal sides).  Offsets at the ends are corners and rejected.
    """
    state = _side_state(params, cell, side, offset, slope, orientation)
    validate_state(state, params)
    return state


def _scaled(N: int, num: int, den: int) -> int:
    """num/den in units of 1/N, which must be a whole number of them."""
    X, rem = divmod(num * N, den)
    if rem:
        raise AssertionError("point off the collision lattice")
    return X


def validate_state(state: BilliardState, params: Params) -> None:
    """Check the state invariants: on-side position, outgoing direction
    (`_check_start`, on the lattice (1/N) Z with N = 2*q*s*n0, n0 the
    common denominator of the position)."""
    x, y = state.position.x, state.position.y
    n0 = lcm(x.denominator, y.denominator)
    N = 2 * params.q * params.s * n0
    _check_start(N, params.p * params.s * n0, params.r * params.q * n0,
                 state.slope.u, state.slope.v,
                 _scaled(N, x.numerator, x.denominator),
                 _scaled(N, y.numerator, y.denominator), state.side,
                 state.cell, state.orientation)


def _check_start(N: int, beta: int, gamma: int, u: int, v: int, X: int,
                 Y: int, side: str, cell: tuple, orientation: tuple) -> None:
    """The state invariants of a point (X, Y) in units of 1/N, where the
    obstacles' half-extents are beta and gamma: a valid orientation, the
    point interior to ``side`` of the obstacle at ``cell``, and a direction
    of slope u/v that is not tangent to the side and leaves it."""
    if tuple(orientation) not in ORIENTATIONS:
        raise DomainError(f"invalid orientation {orientation!r}")
    i, normal = _frame(side)
    j = 1 - i
    pos, half = (X, Y), (beta, gamma)
    if pos[i] != cell[i] * N + normal * half[i] or \
            not -half[j] < pos[j] - cell[j] * N < half[j]:
        raise DomainError("position not interior to the named side")
    if not (v, u)[i]:
        raise DomainError(f"direction tangent to a {_AXIS_NAMES[i]} side")
    if orientation[i] != normal:
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
        x, y = point.x, point.y
        return (_scaled(self.N, x.numerator, x.denominator),
                _scaled(self.N, y.numerator, y.denominator))

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
# the order: vertical sides first, left before right, bottom before top.
# Domain k ^ 1 is domain k's time reversal.
DOMAINS = ((LEFT, (-1, 1)), (LEFT, (-1, -1)), (RIGHT, (1, 1)), (RIGHT, (1, -1)),
           (BOTTOM, (1, -1)), (BOTTOM, (-1, -1)), (TOP, (1, 1)), (TOP, (-1, 1)))
_DOMAIN_INDEX = {dom: k for k, dom in enumerate(DOMAINS)}


def _reflect_domain(k: int, sx: int, sy: int) -> int:
    side, (ox, oy) = DOMAINS[k]
    i, normal = _SIDE[side]
    return _DOMAIN_INDEX[_SIDE_AT[i, (sx, sy)[i] * normal], (sx * ox, sy * oy)]


# The table's reflections x -> sx*x, y -> sy*y with their domain maps.
# Reflection r has sx = -1 where bit 0 of r is set and sy = -1 where bit 1
# is, so composing two of them is r1 ^ r2, and 0 is the identity.
_REFLECTIONS = tuple(((sx, sy), tuple(_reflect_domain(k, sx, sy)
                                      for k in range(8)))
                     for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)))


# The quotient by the reflections.  They act freely on the domains, with
# two orbits: the vertical sides, represented by domain 0, and the
# horizontal ones, represented by domain 4.  A quotient state (k, t, r)
# has k = 0 for domain 0 and k = 1 for domain 4, and stands for the image
# under reflection r of the point at t on that domain.  t runs along a
# vertical side the way the flow moves along it, and along a horizontal
# side against it: the offset, or the side's length less it where
# _REVERSED[k].
# So measured, t is the same on a domain and its reflections, and every
# piece of the return map is a translation (`_return_map`).  _LIFT[k][r]
# is the domain of (k, t, r) and _FRAME[k] the r of domain k.
_REVERSED = tuple(o[0] > 0 if side in HORIZONTAL_SIDES else o[1] < 0
                  for side, o in DOMAINS)
_LIFT = tuple(tuple(kmap[4 * k] for _, kmap in _REFLECTIONS) for k in (0, 1))
_FRAME = tuple(_LIFT[k >= 4].index(k) for k in range(8))


def _quotient(k: int, t: int, lengths: tuple) -> tuple:
    """(k', t', r): the quotient state of the point at offset t on domain k,
    ``lengths`` the lengths of the vertical and the horizontal sides."""
    h = int(k >= 4)
    return h, lengths[h] - t if _REVERSED[k] else t, _FRAME[k]


def _reflect(r: int, m: int, n: int) -> tuple:
    """The cell displacement (m, n) under reflection r."""
    return -m if r & 1 else m, -n if r & 2 else n


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
    ones), which is where the two domains differ in `_REVERSED`; adx does
    not change."""
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
            else:
                k1 = kmap[k]
                t1 = t if _REVERSED[k] == _REVERSED[k1] else \
                    lengths[k >= 4] - t
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
    """The boundary return map of slope u/v at lattice scale n0 = 1, on the
    quotient by the table's reflections: the breakpoints from the 3 corner
    flights, then each piece read off from where the rays beside its ends
    land.

    Returns (cuts, pieces, corners), each indexed by the quotient domain k
    (0 vertical, 1 horizontal).  cuts[k] is the sorted list of
    breakpoints, then the side length as a sentinel; pieces[k][i] = (k',
    r, shift, dm, dn, c0, c1) is the map on the open interval just below
    cuts[k][i]: t' = t + shift in domain k', the state reflected by r, with
    the cell moved by (dm, dn) and |dX| = c0 + c1*t.  corners[k][i] =
    (cx, cy, dm, dn) names the corner that breakpoint cuts[k][i] runs into:
    (cx*a/2, cy*b/2) from the centre of the cell (dm, dn) away from the
    start cell.  A state in frame r maps the same way, with its moves and
    corners reflected by r and the labels composed (`Orbit.advance`).
    """
    lat = _Lattice(params, Slope(u, v), 1)
    # the lengths of the vertical and the horizontal sides in units of t
    lengths = (2 * (lat.gamma // u), 2 * (lat.beta // v))
    traces = _corner_traces(lat, lengths)
    # A breakpoint is a side point whose ray runs into a corner first: a
    # corner's flight lands on one, in the domain that leaves against it
    # (k ^ 1).  The other corners' flights are reflections of those from
    # corner (1, 1), and so land on the same quotient points.  Seen from
    # the representative, the ray runs into the reflected corner.
    hits = ({}, {})
    for d in ((1, 1), (1, -1), (-1, 1)):
        k, t, m, n, adx = traces[(1, 1, *d)]
        if k is None:  # the flight belongs to the corner it meets
            continue
        h, t, r = _quotient(k ^ 1, t, lengths)
        if t in hits[h]:
            raise AssertionError("two corners claim one breakpoint")
        hits[h][t] = (*_reflect(r, 1, 1), *_reflect(r, -m, -n), adx)
    # Every breakpoint is known, so the rays of a piece all land on one side
    # of one obstacle: where the rays just above its low end land fixes k',
    # r, the cell, the shift and the extent, and the domain pair (k, k')
    # fixes c1.  The rays just below its high end must land at the same
    # piece's image of it.  The pieces are found on the representative
    # domain, where offsets run from 0 on the side (the reverse of t on
    # domain 4).
    cuts, pieces, corners = [], [], []
    for h, (side, d) in enumerate((DOMAINS[0], DOMAINS[4])):
        i, normal = _SIDE[side]
        length = lengths[h]
        ts = sorted(length - t if h else t for t in hits[h])
        # the side's ends are corners of the start obstacle
        ends = [(*_with_entry((-1, -1), i, normal), 0, 0, 0),
                *(hits[h][length - x if h else x] for x in ts),
                (*_with_entry((1, 1), i, normal), 0, 0, 0)]
        sigma = d[0] if i == 0 else -d[1]  # the side of the rays above t
        row = []
        for j, (lo, hi) in enumerate(zip((0, *ts), (*ts, length))):
            k1, t1, m, n, adx = _landing(traces, lengths, d, sigma, ends[j],
                                         j == 0)
            k1, t1, r1 = _quotient(k1, t1, lengths)
            c1 = v * (h - k1)
            lo, hi = (length - lo, length - hi) if h else (lo, hi)  # as t
            shift, c0 = t1 - lo, adx - c1 * lo
            k2, t2, m2, n2, adx2 = _landing(traces, lengths, d, -sigma,
                                            ends[j + 1], j == len(ts))
            if (*_quotient(k2, t2, lengths), m2, n2, adx2) != \
                    (k1, hi + shift, r1, m, n, c0 + c1 * hi):
                raise AssertionError("the ends of a return map piece disagree")
            row.append((k1, r1, shift, m, n, c0, c1))
        if h:  # offsets run against t
            row.reverse()
        cuts.append((*sorted(hits[h]), length))
        corners.append(tuple(hits[h][t][:4] for t in cuts[h][:-1]))
        pieces.append(tuple(row))
    return tuple(cuts), tuple(pieces), tuple(corners)


# `Orbit.advance` steps on the power map T^_POWER in calls of at least
# _BLOCK collisions.  Diffusion samples advance in blocks of _BLOCK, and
# shadowed recurrence samples from checkpoint to checkpoint.  A recording
# walk climbs the tower higher, to T^_LANDMARK_EVERY (`_walk_period`).
_BLOCK = 64
_POWER = 8
_TOP = _POWER.bit_length() - 1  # the level of T^_POWER in `_PowerMap`


def _framed(piece: tuple) -> tuple:
    """A piece as states in each frame f = 0..3 apply it: the label f ^ r
    it leaves them in, and the cell move and the box reflected by f."""
    k, r, shift, dm, dn, c0, c1, mlo, mhi, nlo, nhi, run = piece
    return (piece,
            (k, r ^ 1, shift, -dm, dn, c0, c1, -mhi, -mlo, nlo, nhi, run),
            (k, r ^ 2, shift, dm, -dn, c0, c1, mlo, mhi, -nhi, -nlo, run),
            (k, r ^ 3, shift, -dm, -dn, c0, c1, -mhi, -mlo, -nhi, -nlo, run))


class _PowerMap:
    """The table an orbit of slope u/v at lattice scale n0 steps on: the
    return map T on the quotient, scaled by n0, and its powers T^P, the
    map applied P = 2, 4, 8, ... times, composed one piece at a time where
    an orbit first lands.

    T^P is a piecewise translation too, with breakpoints where one of the
    P steps starts from a corner.  Its piece at (k, t) is kept as
    the 4 tuples that `_framed` makes of (k', r, shift, dm, dn, c0, c1,
    mlo, mhi, nlo, nhi, run): it maps the open interval around t by
    t' = t + shift into domain k' with label r, moves the cell by (dm, dn)
    and flies |dX| = c0 + c1*t, c1 a multiple of v; the cells arrived in
    lie in the box mlo <= m <= mhi, nlo <= n <= nhi relative to the start
    cell.  ``run`` marks a piece that maps its domain to itself with label
    0 and shift != 0: an orbit repeats it while t stays in its interval,
    flying c0 each time (`Orbit.advance`).

    The map is kept as a tower T, T^2, T^4, ..., level j holding T^(2^j),
    each level per domain a sorted list of the breakpoints known so far,
    from 0 to the side length, and the rows between them: ``edges[j][k][i]``
    ends the open interval from ``edges[j][k][i - 1]`` whose piece is
    ``rows[j][k][i]``, or None while it is not composed.  Level 0 is the
    whole of T: the breakpoints, the shifts and the constant extent terms of
    `_return_map` scaled by n0, and each piece in the form above, with the
    box of the one cell it arrives in and no run, as no single piece maps a
    domain to itself.  ``corners[k][i]`` is `_return_map`'s corner of
    breakpoint ``edges[0][k][i]``, which does not scale.  A piece of level j
    is the piece of level j - 1 at t followed by the one at its image, taken
    in the frame the first one leaves, on the part of the first interval
    that the second one's preimage covers.  Every interval is a maximal one
    between breakpoints, so one bisection finds a piece or a breakpoint once
    it is known; `find` composes it where it is not."""

    __slots__ = ("edges", "rows", "corners")

    def __init__(self, params: Params, u: int, v: int, n0: int):
        cuts, pieces, corners = _return_map(params, u, v)
        self.edges = [[[0, *(n0 * c for c in cs)] for cs in cuts]]
        self.rows = [[[None, *(_framed((k, r, n0 * shift, dm, dn, n0 * c0,
                                        c1, dm, dm, dn, dn, False))
                               for k, r, shift, dm, dn, c0, c1 in row)]
                      for row in pieces]]
        self.corners = [(None, *cs) for cs in corners]

    def level(self, j: int) -> tuple:
        """(edges, rows) of level j, T^(2^j).  The first call makes the
        levels up to j, with no piece composed: most tables are never
        stepped on them."""
        while len(self.edges) <= j:
            self.edges.append([[0, cs[-1]] for cs in self.edges[0]])
            self.rows.append([[None, None] for _ in self.edges[0]])
        return self.edges[j], self.rows[j]

    def find(self, k: int, t: int, level: int = _TOP) -> int:
        """The index i of t in the lists of domain k on ``level`` (T^_POWER
        by default; made by `level`), composing the piece around t where it
        is missing: edges[level][k][i] == t where t is a breakpoint, and
        rows[level][k][i] is the piece around t otherwise."""
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
            (k1, r1, s1, dm, dn, c0, c1, mlo, mhi, nlo, nhi,
             _) = lower_rows[j][0]
            lower_cs, lower_rows = self.edges[level][k1], self.rows[level][k1]
            j = bisect_left(lower_cs, t + s1)
            if lower_rows[j] is None:
                j = self.find(k1, t + s1, level)
            corner = lower_cs[j] == t + s1
        if corner:  # t is a breakpoint: the gap splits there
            cs.insert(i, t)
            row.insert(i, None)
            return i
        lo2, hi2 = lower_cs[j - 1], lower_cs[j]
        # the second piece in the frame r1 the first one leaves
        (k2, r2, s2, dm2, dn2, c02, c12, mlo2, mhi2, nlo2, nhi2,
         _) = lower_rows[j][r1]
        # the first interval cut to the preimage of the second
        lo, hi = max(lo, lo2 - s1), min(hi, hi2 - s1)
        piece = _framed((k2, r2, s1 + s2, dm + dm2, dn + dn2,
                         c0 + c02 + c12 * s1, c1 + c12,
                         min(mlo, dm + mlo2), max(mhi, dm + mhi2),
                         min(nlo, dn + nlo2), max(nhi, dn + nhi2),
                         k2 == k and r2 == 0 and s1 + s2 != 0))
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
        in frame 0, or None where t is a breakpoint."""
        edges, rows = self.level(_TOP)
        i = self.find(k, t)
        cs = edges[k]
        return None if cs[i] == t else (cs[i - 1], cs[i], rows[k][i][0])


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
    """How many times in a row a run piece applies from t in its interval
    (lo, hi): at most ``most``, while t stays in the interval, and fewer
    than the first repeat whose box holds the stop cell; ``stop`` is that
    cell relative to the first repeat's start cell, or False.  The piece
    is taken in the frame of t, which a run keeps."""
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
    return map on the quotient by the table's reflections.

    A state is (k, t, r, m, n): the quotient state (k, t, r) (see
    `_quotient`) in cell (m, n).  ``advance`` applies up to a given number
    of pieces from any state in one loop and reports the block as a whole:
    the collisions done, the end state, the X-extent flown and the box of
    the cells visited.  ``steps`` yields the same states one at a time,
    with the X-extent |dX| of the flight to each, all in units of 1/N of
    ``lattice``; it raises CornerHit with the exact corner when the flow
    reaches one.  ``domain`` and ``position`` give a state's outgoing
    domain ``DOMAINS[k']`` and offset, and its point.  Iterating an Orbit
    is ``steps`` from its start, (k, t, r) and ``cell``.  Both read
    ``tables``, the `_PowerMap` of the slope and n0.
    """

    __slots__ = ("lattice", "n0", "k", "t", "r", "cell", "params", "tables")

    def __init__(self, start: BilliardState, params: Params):
        """The orbit of ``start``, its point taken to the lattice of scale
        n0, the common denominator of its coordinates (`at`)."""
        x, y = start.position.x, start.position.y
        n0 = lcm(x.denominator, y.denominator)
        lat = _Lattice(params, start.slope, n0)
        self._enter(params, lat, n0, *lat.encode(start.position), start.side,
                    start.cell, start.orientation)

    @classmethod
    def at(cls, params: Params, slope: Slope, n0: int, X: int, Y: int,
           side: str, cell: tuple, orientation: tuple) -> Orbit:
        """The orbit from the point (X, Y) of the lattice of scale n0 on
        ``side`` of the obstacle at ``cell``, leaving it in ``orientation``:
        checked as `validate_state` checks a state, with its messages."""
        walk = cls.__new__(cls)
        walk._enter(params, _Lattice(params, slope, n0), n0, X, Y, side, cell,
                    orientation)
        return walk

    def _enter(self, params: Params, lat: _Lattice, n0: int, X: int, Y: int,
               side: str, cell: tuple, orientation: tuple):
        _check_start(lat.N, lat.beta, lat.gamma, lat.u, lat.v, X, Y, side,
                     cell, orientation)
        self.lattice, self.n0, self.params = lat, n0, params
        self.tables = _power_map(params, lat.u, lat.v, n0)
        self.k, self.t, self.r = _quotient(
            _DOMAIN_INDEX[side, tuple(orientation)],
            lat.transverse(side, X, Y, *cell),
            [cs[-1] for cs in self.tables.edges[0]])
        self.cell = cell

    def __iter__(self):
        return self.steps(self.k, self.t, self.r, *self.cell)

    def domain(self, k: int, t: int, r: int) -> tuple:
        """(k', t'): the domain and the offset of quotient state (k, t, r)."""
        k1 = _LIFT[k][r]
        return k1, self.tables.edges[0][k][-1] - t if _REVERSED[k1] else t

    def corner_hit(self, k: int, i: int, r: int, m: int, n: int) -> CornerHit:
        """The CornerHit of a step from breakpoint i of domain k in frame r
        and cell (m, n): ``tables.edges[0][k][i]``."""
        cx, cy, dm, dn = self.tables.corners[k][i]
        a2, b2 = _half(self.params)
        dx, dy = _reflect(r, dm + cx * a2, dn + cy * b2)
        return CornerHit(m + dx, n + dy)

    def advance(self, k: int, t: int, r: int, m: int, n: int, count: int,
                stop_cell: tuple | None = None) -> tuple:
        """Apply up to ``count`` pieces from state (k, t, r) in cell (m, n).

        Stops early before a step from a corner, and, with ``stop_cell``,
        on arrival in that cell.  Returns (done, k, t, r, m, n, extent, mlo,
        mhi, nlo, nhi, corner): the collisions done, the state after the
        last of them, the X-extent they flew, the box mlo <= m <= mhi,
        nlo <= n <= nhi of the start cell and every cell reached, and the
        CornerHit the next step runs into, or None.

        A call of at least _BLOCK collisions applies pieces of T^_POWER
        (``tables.level(_TOP)``) while _POWER or more remain.  It steps
        single pieces (level 0) for the next _POWER collisions where t is on
        a breakpoint of T^_POWER (a corner within _POWER collisions) or the
        stop cell is in the piece's box, and for the remainder, so every
        answer is the one single steps give.  A run piece is applied r
        times at once: r repeats fit the collisions left, keep t inside the
        piece's interval and come before the first repeat whose box holds
        the stop cell.  Each repeat flies the same extent c0, and its cells
        move by (dm, dn), so the box of the run is the hull of the first
        and the last repeat's box.
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
            find, (pcuts, prows) = tables.find, tables.level(_TOP)
            plain = 0
        done = 0
        while done < count:
            if done < plain or count - done < _POWER:
                cs = cuts[k]
                i = bisect_left(cs, t)
                if cs[i] == t:
                    corner = self.corner_hit(k, i, r, m, n)
                    break
                piece = pieces[k][i][r]
                done += 1
            else:
                cs = pcuts[k]
                i = bisect_left(cs, t)
                piece = prows[k][i]
                if piece is None:  # not composed yet, or t a breakpoint
                    i = find(k, t)
                    piece = prows[k][i]
                if cs[i] == t:
                    plain = done + _POWER
                    continue
                piece = piece[r]
                if stop and piece[7] <= sm - m <= piece[8] \
                        and piece[9] <= sn - n <= piece[10]:
                    plain = done + _POWER
                    continue
                # a run takes a second repeat from t + shift
                if piece[11] and count - done >= 2 * _POWER and \
                        cs[i - 1] < t + piece[2] < cs[i]:
                    reps = _repeats(piece, cs[i - 1], cs[i], t,
                                    (count - done) // _POWER,
                                    stop and (sm - m, sn - n))
                    if reps > 1:
                        # a run piece has c1 == 0: each repeat flies c0
                        _, _, shift, dm, dn, c0, _, plo, phi, qlo, qhi, _ = \
                            piece
                        ext += reps * c0
                        t += reps * shift
                        # the hull of the first and the last repeat's box
                        lm, ln = m + (reps - 1) * dm, n + (reps - 1) * dn
                        mlo = min(mlo, m + plo, lm + plo)
                        mhi = max(mhi, m + phi, lm + phi)
                        nlo = min(nlo, n + qlo, ln + qlo)
                        nhi = max(nhi, n + qhi, ln + qhi)
                        m, n = lm + dm, ln + dn
                        done += reps * _POWER
                        continue
                done += _POWER
            k, r, shift, dm, dn, c0, c1, plo, phi, qlo, qhi, _ = piece
            ext += c0 + c1 * t
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
            if stop and m == sm and n == sn:
                break
        return done, k, t, r, m, n, ext, mlo, mhi, nlo, nhi, corner

    def run(self, k: int, t: int, count: int) -> int:
        """The collisions of the run from quotient state (k, t), at most
        ``count``: _POWER times the repeats of its piece of T^_POWER where
        that is a run piece (`advance`), and 0 elsewhere."""
        found = self.tables.lookup(k, t)
        if found is None or not found[2][11]:
            return 0
        return _POWER * _repeats(found[2], found[0], found[1], t,
                                 count // _POWER, False)

    def steps(self, k: int, t: int, r: int, m: int, n: int):
        """The states (k, t, r, m, n, adx) after state (k, t, r) in cell
        (m, n), as iterating yields them from the start: one ``advance``
        each."""
        advance = self.advance
        while True:
            _, k, t, r, m, n, adx, _, _, _, _, corner = advance(k, t, r, m, n,
                                                                1)
            if corner is not None:
                raise corner
            yield k, t, r, m, n, adx

    def point(self, k: int, t: int, r: int, m: int, n: int) -> tuple:
        """(X, Y) of a state in units of 1/N of ``lattice``."""
        return self.lattice.point(*self.domain(k, t, r), m, n)

    def position(self, k: int, t: int, r: int, m: int, n: int) -> PointQ:
        """Exact point of a state."""
        X, Y = self.point(k, t, r, m, n)
        return PointQ(Fraction(X, self.lattice.N), Fraction(Y, self.lattice.N))


# -- cylinder cycles ------------------------------------------------------
#
# Every reduced orbit of a rational slope is a cycle of the return map, and
# the starts that follow the same pieces fill an open interval: the leaves
# of one cylinder.  They share the period, the drift and the period's
# flight extent, so the first walk that closes on its start in the
# quotient records the cycle, and the walk of a later start on it stops at
# the first of its landmarks instead of walking a period.

# A recorded cycle keeps a landmark at least every this many phases; a
# walk looks up at most this many states to reach one.
_LANDMARK_EVERY = 32

# A recording walk steps on T^P once it has made _CLIMB*P collisions, up
# to T^_LANDMARK_EVERY (`_walk_period`).
_CLIMB = 16


class _Cycle:
    """A closed cycle of the return map on the quotient, recorded at lattice
    scale n0 = 1.

    Every start in the open interval (lo, hi) of domain ``k[0]`` takes the
    same pieces and is back on its quotient state after ``length``
    collisions, moved by ``drift`` cells and reflected by ``reflection``
    about its start cell, having flown the X-extent ``extent``; so the
    next ``length`` collisions are the image of the first ones under that
    motion (`_landmark`).  The cell columns are in the frame of the walk
    that recorded the cycle.  Landmark b sits at phase j = phase[b]: the
    phases rise from 0 by at most G = _LANDMARK_EVERY, and landmark b's
    block runs to the next one's phase, or to ``length``.  A phase-0 point
    tau, at lattice scale n0, is there at t = tau + n0*off[b] in domain
    k[b] and frame r[b], in cell (cm[b], cn[b]) relative to its start cell,
    after the X-extent n0*ea[b] + v*(k[0] - k[b])*tau.  The cells of the
    block's phases lie in the box cm[b] + mlo[b] <= m <= cm[b] + mhi[b],
    cn[b] + nlo[b] <= n <= cn[b] + nhi[b].  Only `_walk_period` makes a
    cycle, filling the columns from the landmarks it walked through, on
    single pieces and on the power map up to T^_LANDMARK_EVERY, one
    landmark block: every stored cycle was walked and checked.
    """

    __slots__ = ("length", "reflection", "drift", "extent", "lo", "hi",
                 "phase", "k", "r", "off", "cm", "cn", "ea", "mlo", "mhi",
                 "nlo", "nhi", "span")

    def __init__(self):
        self.k, self.r = array("b"), array("b")
        self.phase, self.off, self.cm, self.cn, self.ea = [], [], [], [], []
        self.mlo, self.mhi, self.nlo, self.nhi = [], [], [], []

    def seal(self, length, reflection, drift, extent, lo, hi):
        self.length, self.reflection = length, reflection
        self.drift, self.extent = drift, extent
        self.lo, self.hi = lo, hi
        # the box of every cell of the period
        self.span = (min(map(sum, zip(self.cm, self.mlo))),
                     max(map(sum, zip(self.cm, self.mhi))),
                     min(map(sum, zip(self.cn, self.nlo))),
                     max(map(sum, zip(self.cn, self.nhi))))

    def intervals(self) -> list:
        """The open interval, at n0 = 1, that each landmark's phase covers."""
        return [(off + self.lo, off + self.hi) for off in self.off]

    def orbit(self, g: int) -> tuple:
        """(collisions, drift, extent at n0 = 1) of the period of an orbit
        on the cycle whose frame is g away from the recorded one: the
        cycle once where it closes unreflected, twice otherwise, with drift
        d + S*d for the reflection S."""
        dm, dn = self.drift
        if self.reflection:
            sm, sn = _reflect(self.reflection, dm, dn)
            return (2 * self.length, _reflect(g, dm + sm, dn + sn),
                    2 * self.extent)
        return self.length, _reflect(g, dm, dn), self.extent


class _CycleStore:
    """The recorded cycles of one (params, slope), and for each quotient
    domain the intervals of their landmarks: sorted, disjoint, at n0 = 1.
    A state at lattice scale n0 is at the landmark of (lo, hi) when
    n0*lo < t < n0*hi (`_walk_period`); interval ends never match, as they
    lie on saddle connections."""

    __slots__ = ("cycles", "los", "his", "refs")

    def __init__(self):
        self.cycles = []
        # per domain: the ends of the intervals, cycle << 32 | landmark
        self.los, self.his, self.refs = [[], []], [[], []], [[], []]

    def add(self, cyc: _Cycle):
        """Index a sealed cycle's landmarks: in each domain they reach, the
        recorded and the new intervals sorted together, none of them ending
        after the next one begins."""
        ref = len(self.cycles) << 32
        rows = [[], []]
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
    # (cycle, landmark, steps, dm, dn, extent, t, r): the recorded landmark
    # reached, the collisions, cell move and extent to it and the state
    # there; landmark 0 at the start for the cycle closed
    found: tuple | None


def _walk_period(walk: Orbit, limit: int, store: _CycleStore,
                 to_cell: bool = False) -> _Walk:
    """Step the start of ``walk`` until it is on a cycle recorded in
    ``store``, is back on its quotient state, hits a corner, or has made
    ``limit`` collisions; record the cycle it closes.

    Before each step of its first landmark block, on single pieces, the
    walk looks its state up in ``store`` and stops at a landmark: a start
    on a recorded cycle reaches one within _LANDMARK_EVERY - 1 collisions
    and records nothing.

    The open interval of starts that take the same pieces is shrunk along
    the way, kept as its margins below and above the orbit's point: each
    piece cuts them down to its ends.  With ``to_cell``, the walk also
    stops on its first return to the start cell.

    The walk closes at its first return to the quotient start, j
    collisions on, where it is the start reflected by S about its cell
    and moved by d cells.  With S the identity that is the period j and
    the drift d.  Otherwise the table's symmetry S, which commutes with the
    map, takes the first j collisions to the next j: the period is 2j and
    the drift d + S*d.  So the walk closes there only when 2j is within
    ``limit``, and otherwise walks on.

    The walk climbs the tower of ``walk.tables``: it may step on T^P once
    it has made _CLIMB*P collisions, up to T^G, one landmark block.  Of
    the rules measured (BENCH_c5a532e.json, ``rules_tried``), 16*P gains
    most on long walks; walks of 32 to 511 collisions on fresh tables,
    which compose pieces they do not reuse, are slower than on single
    pieces under every rule tried, under this one by a third to a half.
    Each step takes the highest level whose P fits the collisions left in
    the block and that is safe, dropping one level at a time down to
    single pieces: a level is not safe where t is one of its breakpoints
    (a corner within P collisions), where the quotient start comes in
    fewer than P collisions (the start's predecessors, found by time
    reversal, with their distances to it), or, with ``to_cell``, where the
    start cell lies in the piece's box.  A piece's interval is exactly the
    starts that take the same single pieces and its box is theirs, so the
    walk records what single steps record.
    """
    G = _LANDMARK_EVERY
    tables = walk.tables
    find = tables.find
    cuts, pieces = tables.edges[0], tables.rows[0]
    k, t, r = k0, t0, r0 = walk.k, walk.t, walk.r
    m, n = sm, sn = walk.cell
    n0, v = walk.n0, walk.lattice.v
    ext = steps = 0
    below, above = t, cuts[k][-1] - t  # the domain's ends, cut by each piece
    # per landmark, its entry in each column of the cycle: (phase, k, r,
    # off, cm, cn, ea, mlo, mhi, nlo, nhi)
    marks = []
    closed, corner, returned = False, None, False
    levels = [(cuts, pieces)]  # the levels climbed, T^(2^j) at j
    # the top level, and the collisions that climb above it
    top, climb = 0, _CLIMB << 1
    # the start's predecessors by time reversal, T^-d = R T^d R with
    # R(k, t) = (k, length - t), walked back from the first climb on as far
    # as the top level needs: per domain, t -> d, the fewest collisions on
    # to the quotient start.  A start without them never closes.
    preds = ({}, {})
    # the recorded cycles, looked up in the first block
    lookup = bool(store.cycles)
    while steps < limit:
        if steps >= climb:
            top += 1
            climb = _CLIMB << (top + 1) if 1 << top < G else limit
            levels.append(tables.level(top))
            if top == 1:
                back = enumerate(walk.steps(k0, cuts[k0][-1] - t0, 0, 0, 0),
                                 1)
            try:
                for d, (k1, t1, *_) in back:
                    preds[k1].setdefault(cuts[k1][-1] - t1, d)
                    if d == (1 << top) - 1:
                        break
            except CornerHit:
                pass
        # a landmark: the phase-0 point is at t0 + off, and its extent is
        # ext + v*(k0 - k)*(tau - t0)
        mark = (steps, k, r, t - t0, m - sm, n - sn, ext - v * (k0 - k) * t0)
        mlo = mhi = lm = m
        nlo = nhi = ln = n
        end = min(steps + G, limit)
        while steps < end:
            j = top
            while j:  # the highest level that fits the block and is safe
                if end - steps >= 1 << j:
                    edges, rows = levels[j]
                    cs = edges[k]
                    i = bisect_left(cs, t)
                    piece = rows[k][i]
                    if piece is None:  # not composed yet, or t a breakpoint
                        i = find(k, t, j)
                        piece = rows[k][i]
                    if cs[i] != t and preds[k].get(t, G) >= 1 << j:
                        piece = piece[r]
                        if not to_cell or not (
                                piece[7] <= sm - m <= piece[8] and
                                piece[9] <= sn - n <= piece[10]):
                            break
                j -= 1
            else:
                if lookup:
                    # the last interval with n0*lo < t, that is
                    # lo <= (t - 1)//n0
                    i = bisect_right(store.los[k], (t - 1) // n0) - 1
                    if i >= 0 and t < n0 * store.his[k][i]:
                        ci, b = divmod(store.refs[k][i], 1 << 32)
                        return _Walk(steps, m, n, ext, None, None, False,
                                     (store.cycles[ci], b, steps, m - sm,
                                      n - sn, ext, t, r))
                cs = cuts[k]
                i = bisect_left(cs, t)
                if cs[i] == t:
                    corner = walk.corner_hit(k, i, r, m, n)
                    break
                piece = pieces[k][i][r]
            steps += 1 << j
            c, lo = cs[i], cs[i - 1]
            if c - t < above:
                above = c - t
            if t - lo < below:
                below = t - lo
            k, r, shift, dm, dn, c0, c1, plo, phi, qlo, qhi, _ = piece
            ext += c0 + c1 * t
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
            if t == t0 and k == k0 and (r == r0 or 2 * steps <= limit):
                closed = True
                returned = to_cell and m == sm and n == sn
                break
            if to_cell and m == sm and n == sn:
                returned = True
                break
        # the box of the landmark's block, from its cell
        marks.append((*mark, mlo - lm, mhi - lm, nlo - ln, nhi - ln))
        if closed or returned or corner is not None:
            break
        lookup = False
    else:  # at the limit, a corner the next step runs into is reported
        i = bisect_left(cuts[k], t)
        if cuts[k][i] == t:
            corner = walk.corner_hit(k, i, r, m, n)
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned, None)
    rec = _Cycle()
    (rec.phase, ks, rs, off, rec.cm, rec.cn, ea, rec.mlo, rec.mhi, rec.nlo,
     rec.nhi) = map(list, zip(*marks))
    rec.k.extend(ks)
    rec.r.extend(rs)
    rec.off, rec.ea = _down(off, n0), _down(ea, n0)
    rec.seal(steps, r ^ r0, (m - sm, n - sn),
             *_down([ext, t0 - below, t0 + above], n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned,
                 (rec, 0, 0, 0, 0, 0, t0, r0))


def _down(xs: list, n0: int) -> list:
    """Each entry of xs at lattice scale n0, taken to n0 = 1."""
    if any(x % n0 for x in xs):
        raise AssertionError("cycle data off the n0 = 1 lattice")
    return [x // n0 for x in xs]


def _landmark(walk: Orbit, cyc: _Cycle, tau: int, b: int, rnd: int,
              g: int) -> tuple:
    """(k, t, r, m, n, extent) at landmark b in round ``rnd`` (phase
    rnd*L + phase[b]) of the cycle point whose phase-0 coordinate is tau
    and whose frame is g away from the recorded one, in the frame where
    that point starts in cell (0, 0) with extent 0.  Round w is the first
    one under the w-th power of the cycle's motion: reflected by S^w and
    moved by d + S*d + ... (w terms)."""
    s = cyc.reflection
    f = g ^ s if rnd & 1 else g  # the frame of the round
    (dm, dn), (sm, sn) = cyc.drift, _reflect(s, *cyc.drift)
    half, odd = divmod(rnd, 2)
    cm, cn = _reflect(f, cyc.cm[b], cyc.cn[b])
    wm, wn = _reflect(g, half * (dm + sm) + odd * dm,
                      half * (dn + sn) + odd * dn)
    return (cyc.k[b], tau + walk.n0 * cyc.off[b], cyc.r[b] ^ f, cm + wm,
            cn + wn, walk.n0 * (cyc.ea[b] + rnd * cyc.extent)
            + walk.lattice.v * (cyc.k[0] - cyc.k[b]) * tau)


def _rounds(c: int, d: int, lo: int, hi: int, w0: int, w1: int) -> tuple:
    """The rounds w0..w1 narrowed to those with lo <= c - w*d <= hi."""
    if d > 0:
        return max(w0, -((hi - c) // d)), min(w1, (c - lo) // d)
    if d < 0:
        return max(w0, -((c - lo) // -d)), min(w1, (hi - c) // -d)
    return (w0, w1) if lo <= c <= hi else (w0, w0 - 1)


def _cycle_return(walk: Orbit, found: tuple, horizon: int) -> tuple:
    """First return to the start cell within ``horizon`` collisions of a
    start that `_walk_period` found on a recorded cycle, from ``found``.

    Returns (collisions or None, cell, extent): the cell and the extent are
    relative to the start, at the return or else at the horizon.  Round w
    of the cycle is its recorded frame reflected by S^w and moved by
    D_w = d + S*d + ... (w terms), so in round w = 2*u + e the start cell
    sits, in the recorded frame, at a fixed cell of parity e less
    u*(d + S*d).  In the rounds whose drift brings it into the cycle's
    span, the blocks whose boxes hold it are advanced from their landmark
    in order of phase, each stopping in the start cell, so the first stop
    at or after the start's next phase is the first return.
    """
    cyc, tau, p, g, cm, cn, e0 = _cycle_start(walk, found)
    L, phase = cyc.length, cyc.phase
    first, last = p + 1, p + horizon
    # for each parity, the start cell in the recorded frame and the rounds
    # whose drift brings it into the cycle's span
    lo_m, hi_m, lo_n, hi_n = cyc.span
    sm, sn = _reflect(cyc.reflection, *cyc.drift)
    dm, dn = cyc.drift[0] + sm, cyc.drift[1] + sn
    w0, w1 = first // L, last // L
    parts, rounds = [], []
    for e in (0, 1):
        xm, xn = _reflect(g ^ cyc.reflection if e else g, cm, cn)
        xm, xn = xm - e * sm, xn - e * sn
        u0, u1 = _rounds(xm, dm, lo_m, hi_m, (w0 - e + 1) // 2,
                         (w1 - e) // 2)
        u0, u1 = _rounds(xn, dn, lo_n, hi_n, u0, u1)
        parts.append((xm, xn))
        rounds.append(range(2 * u0 + e, 2 * u1 + e + 1, 2))
    for rnd in merge(*rounds):
        xm, xn = parts[rnd & 1]
        tm, tn = xm - (rnd >> 1) * dm, xn - (rnd >> 1) * dn
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
                k, t, r, m, n, ext = _landmark(walk, cyc, tau, b, rnd, g)
                while True:
                    if m == cm and n == cn and q >= first:
                        return q - p, (0, 0), ext - e0
                    if q == end:
                        break
                    done, k, t, r, m, n, adx, *_, corner = walk.advance(
                        k, t, r, m, n, end - q, (cm, cn))
                    if corner is not None:
                        raise corner
                    q += done
                    ext += adx
    m, n, ext = _cycle_at(walk, cyc, tau, g, last)
    return None, (m - cm, n - cn), ext - e0


def _cycle_start(walk: Orbit, found: tuple) -> tuple:
    """(cycle, tau, p, g, cm, cn, e0) of a start that `_walk_period` found
    on a recorded cycle: its phase-0 coordinate tau, its phase p, s
    collisions before landmark b's phase (in round -1 where p < 0), the
    frame g that maps the recorded one to its orbit's, and its cell and
    extent in the frame of `_landmark`."""
    cyc, b, s, wm, wn, wext, t, r = found
    tau = t - walk.n0 * cyc.off[b]
    g = r ^ cyc.r[b]
    *_, cm, cn, e0 = _landmark(walk, cyc, tau, b, 0, g)
    return cyc, tau, cyc.phase[b] - s, g, cm - wm, cn - wn, e0 - wext


def _cycle_at(walk: Orbit, cyc: _Cycle, tau: int, g: int, j: int) -> tuple:
    """(m, n, extent) at phase j of the cycle point of `_landmark`: advanced
    from the landmark of j's block."""
    rnd, q = divmod(j, cyc.length)
    b = bisect_right(cyc.phase, q) - 1
    k, t, r, m, n, ext = _landmark(walk, cyc, tau, b, rnd, g)
    _, _, _, _, m, n, adx, *_, corner = walk.advance(k, t, r, m, n,
                                                     q - cyc.phase[b])
    if corner is not None:
        raise corner
    return m, n, ext + adx


def first_return(start: BilliardState, params: Params, horizon: int):
    """The first return of an orbit to its start cell within ``horizon``
    collisions.

    Returns (collisions or None, cell, length, singular): the cell relative
    to the start cell and the length in primitive-vector units, at the
    return, at the corner or else at the horizon.  An axis orbit is back
    after its two flights.  Otherwise the orbit is walked once
    (`_walk_period`) to its first return, a corner or the horizon, or to
    a cycle, recorded or closed and recorded by the walk, which answers
    it.
    """
    if start.slope.is_axis:
        validate_state(start, params)
        check_count("horizon", horizon)
        flight = _axis_flight(start.slope, params)
        if horizon >= 2:
            return 2, (0, 0), 2 * flight, False
        _, (m, n), *_ = next(_axis_collisions(start, params))
        sm, sn = start.cell
        return None, (m - sm, n - sn), flight, False
    walk = Orbit(start, params)
    check_count("horizon", horizon)
    vN = start.slope.v * walk.lattice.N
    res = _walk_period(walk, horizon,
                       _cycle_store(params, start.slope.u, start.slope.v),
                       to_cell=True)
    if res.returned:
        return res.steps, (0, 0), Fraction(res.extent, vN), False
    if res.found is None:
        sm, sn = start.cell
        return (None, (res.m - sm, res.n - sn), Fraction(res.extent, vN),
                res.corner is not None and res.steps < horizon)
    ret, cell, ext = _cycle_return(walk, res.found, horizon)
    return ret, cell, Fraction(ext, vN), False


def next_collision(state: BilliardState, params: Params) -> BilliardState:
    """One exact collision step.  Raises CornerHit at corners."""
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
    the first reduced repeat of an orbit is its own start state: zero cell
    difference means the orbit is closed, a non-zero difference is the
    drift of an escaping orbit.  ``pre_period`` is therefore always 0.
    The one walk (`_classify`) stops on a recorded cycle, or at its first
    return on the quotient, at the period or at half of it, and records
    the cylinder cycle it closed; the cycle answers.  An undetermined
    outcome has the length of exactly ``max_collisions`` collisions.
    """
    if start.slope.is_axis:
        validate_state(start, params)
        check_count("max_collisions", max_collisions)
        return TrajectoryOutcome(Outcome.PERIODIC, 2,
                                 2 * _axis_flight(start.slope, params),
                                 (0, 0), repeat_cells=(start.cell, start.cell))
    walk = Orbit(start, params)
    check_count("max_collisions", max_collisions)
    kind, steps, extent, (dm, dn), corner = _classify(walk, max_collisions)
    length = Fraction(extent, start.slope.v * walk.lattice.N)
    if kind is Outcome.SINGULAR:
        # length up to the last collision
        return TrajectoryOutcome(kind, steps, length, (0, 0),
                                 corner=PointQ(corner.x, corner.y))
    if kind is Outcome.UNDETERMINED:
        return TrajectoryOutcome(kind, steps, length, (0, 0))
    m0, n0 = start.cell
    return TrajectoryOutcome(kind, steps, length, (dm, dn),
                             repeat_cells=((m0, n0), (m0 + dm, n0 + dn)))


def _classify(walk: Orbit, max_collisions: int) -> tuple:
    """(kind, collisions, extent, drift, corner) of the start of ``walk``:
    the extent in units of 1/N of its lattice, and the CornerHit of a
    singular orbit, or None.

    A start on a recorded cycle whose period exceeds ``max_collisions``
    is undetermined, with the extent of its point at the cap taken from
    the cycle (`_cycle_at`)."""
    res = _walk_period(walk, max_collisions,
                       _cycle_store(walk.params, walk.lattice.u,
                                    walk.lattice.v))
    if res.corner is not None:
        return Outcome.SINGULAR, res.steps, res.extent, (0, 0), res.corner
    if res.found is None:
        return Outcome.UNDETERMINED, max_collisions, res.extent, (0, 0), None
    cyc, b, *_, r = res.found
    steps, drift, extent = cyc.orbit(r ^ cyc.r[b])
    if steps > max_collisions:
        cyc, tau, p, g, _, _, e0 = _cycle_start(walk, res.found)
        *_, ext = _cycle_at(walk, cyc, tau, g, p + max_collisions)
        return Outcome.UNDETERMINED, max_collisions, ext - e0, (0, 0), None
    kind = Outcome.PERIODIC if drift == (0, 0) else Outcome.ESCAPING
    return kind, steps, walk.n0 * extent, drift, None


def _collisions(start: BilliardState, params: Params):
    """(side, cell, orientation, position) of each forward collision, with
    the orientation that leaves it, from a start checked on the call
    (`validate_state`, or ``Orbit``).  Raises CornerHit."""
    if start.slope.is_axis:
        validate_state(start, params)
        return _axis_collisions(start, params)
    walk = Orbit(start, params)

    def collisions():
        for k, t, r, m, n, _adx in walk:
            side, orientation = DOMAINS[_LIFT[k][r]]
            yield side, (m, n), orientation, walk.position(k, t, r, m, n)
    return collisions()


def _axis_collisions(start: BilliardState, params: Params):
    """`_collisions` of an axis start: a trapped 2-bounce orbit along axis
    i, between two facing sides."""
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


def collision_sequence(start: BilliardState, params: Params,
                       n_collisions: int) -> list:
    """The (side, cell) combinatorics of the first n collisions."""
    check_count("n_collisions", n_collisions, 0, shown=True)
    return [(side, cell) for side, cell, *_
            in islice(_collisions(start, params), n_collisions)]


def trace(start: BilliardState, params: Params, n_collisions: int) -> TracedPath:
    """Exact polyline of the first n collision points, start included.

    Truncated at a corner hit and tagged singular in that case.
    """
    check_count("n_collisions", n_collisions, 0, shown=True)
    collisions = _collisions(start, params)
    points = [start.position]
    try:
        for *_, pos in islice(collisions, n_collisions):
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
    non-singular; each attempt is checked once, by classify_trajectory.
    Returns (state, outcome).  Raises DomainError if every attempt is
    singular (not observed for desk-scale data), and for an invalid
    orientation.
    """
    sides = HORIZONTAL_SIDES if not slope.is_horizontal else VERTICAL_SIDES
    for denom in range(3, 131, 2):
        for side in sides:
            length = side_length(params, side)
            state = _side_state(params, (0, 0), side,
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
    obstacle (`_launch`).
    """
    x, y = point.x, point.y
    hit = _launch(params, slope, x.numerator, x.denominator, y.numerator,
                  y.denominator, orientation)
    if hit is None:
        return None
    N, X, Y, side, cell, out = hit
    return BilliardState(PointQ(Fraction(X, N), Fraction(Y, N)), side, cell,
                         out, slope)


def _launch(params: Params, slope: Slope, xn: int, xd: int, yn: int, yd: int,
            orientation: tuple):
    """The first collision of the ray from the table point (xn/xd, yn/yd)
    in ``orientation``: (N, X, Y, side, cell, orientation') with the point
    in units of 1/N, or None for a straight corridor.  Raises CornerHit
    when the first contact is a corner, and DomainError for points inside
    or on an obstacle.

    The point is taken to the lattice of scale n0, the lcm of its reduced
    denominators: the collision lattice of the slope, or, for an axis
    slope, N = 2*q*s*n0.  An axis ray runs along axis i at a fixed
    coordinate j and meets the obstacle of its row or column ahead if it
    flies in that obstacle's band, at a corner where it grazes the band's
    edge."""
    n0 = lcm(xd // gcd(xn, xd), yd // gcd(yn, yd))
    if slope.is_axis:
        N = 2 * params.q * params.s * n0
        half = (params.p * params.s * n0, params.r * params.q * n0)
    else:
        lat = _Lattice(params, slope, n0)
        N, half = lat.N, (lat.beta, lat.gamma)
    pos = (_scaled(N, xn, xd), _scaled(N, yn, yd))
    # the nearest lattice point; a point halfway between two is in no band
    cell = tuple((2 * c + N) // (2 * N) for c in pos)
    if all(abs(c - m * N) <= h for c, m, h in zip(pos, cell, half)):
        raise DomainError("launch point is inside or on an obstacle")
    if not slope.is_axis:
        res = _first_hit(lat, *pos, *orientation)
        if res is None:
            return None
        X, Y, side, m, n, sx, sy, _ = res
        return N, X, Y, side, (m, n), (sx, sy)
    i = 0 if slope.is_horizontal else 1
    j = 1 - i
    band = abs(pos[j] - cell[j] * N)
    if band > half[j]:
        return None  # corridor
    s = orientation[i]
    # the first obstacle ahead in the band: this one or the next
    k = cell[i] if (pos[i] - cell[i] * N) * s < -half[i] else cell[i] + s
    X, Y = _with_entry(pos, i, k * N - s * half[i])
    if band == half[j]:
        # grazing line along the side level: first contact is a corner
        raise CornerHit(Fraction(X, N), Fraction(Y, N))
    return (N, X, Y, _SIDE_AT[i, -s], _with_entry(cell, i, k),
            _with_entry(orientation, i, -s))


def _hit_orbit(params: Params, slope: Slope, hit: tuple) -> Orbit:
    """The orbit from a non-axis `_launch` hit, at the lattice scale that
    ``Orbit(launch(...), params)`` takes: the lcm of the reduced
    denominators of the point."""
    N, X, Y, side, cell, orientation = hit
    n0 = lcm(N // gcd(X, N), N // gcd(Y, N))
    # N is 2*q*s*u*v times the launch's scale, a multiple of n0
    scale = 2 * params.q * params.s * slope.u * slope.v * n0
    return Orbit.at(params, slope, n0, _scaled(scale, X, N),
                    _scaled(scale, Y, N), side, cell, orientation)
