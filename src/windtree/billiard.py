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
whose ray runs into a corner first; they are found by tracing the 4
corners back along the 3 directions that leave each one, at n0 = 1, and
each piece is read off from the first hits of two points just inside its
ends on the 3-times finer lattice, where no breakpoint lies.  The map is
built once per (params, slope), kept in a small LRU cache, and scaled by
n0 for each start: the table geometry, the breakpoints and the shifts all
scale with N.  A step is then one bisection and a few integer additions,
a start exactly on a breakpoint is a corner hit, and every quantity the
map produces is one `_first_hit` would produce, so exactness still holds.

Each orbit of a rational slope is a cycle of the map, and the starts that
take the same pieces fill an open interval: the leaves of one cylinder.
The first walk that closes on its start records the cycle (period, drift,
interval and a landmark every 32 collisions), and later starts on it are
answered by a walk of at most 32 collisions to a landmark.

Geometric lengths are reported as the exact rational number of copies of
the primitive direction vector (v, u) traversed; the Euclidean length is
that coefficient times sqrt(u^2 + v^2).  This keeps every length
comparison in the rationals.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import gcd
from typing import NamedTuple

from .errors import CornerHit, DomainError
from .exact import ORIENTATIONS, Params, PointQ, Slope

LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"
SIDES = (LEFT, RIGHT, BOTTOM, TOP)
VERTICAL_SIDES = (LEFT, RIGHT)
HORIZONTAL_SIDES = (BOTTOM, TOP)

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


@dataclass(frozen=True)
class ReducedState:
    """Collision state modulo the lattice translations of the table."""

    side: str
    offset: Fraction
    orientation: tuple


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
    pre_period: int  # always 0: every orbit's first reduced repeat is its start
    corner: PointQ | None = None
    repeat_cells: tuple | None = None  # (start cell, cell one period later)

    @property
    def is_periodic(self) -> bool:
        return self.kind is Outcome.PERIODIC


@dataclass(frozen=True)
class TracedPath:
    points: tuple
    singular: bool = False
    corner: PointQ | None = None


def side_length(params: Params, side: str) -> Fraction:
    return params.b if side in VERTICAL_SIDES else params.a


def reduced_state(state: BilliardState, params: Params) -> ReducedState:
    """Forget the lattice cell: side, offset along the side, sign class."""
    m, n = state.cell
    if state.side in VERTICAL_SIDES:
        offset = state.position.y - (n - params.b / 2)
    else:
        offset = state.position.x - (m - params.a / 2)
    return ReducedState(state.side, offset, state.orientation)


def leaving_orientation(side: str, orientation: tuple = (1, 1)) -> tuple:
    """The orientation that leaves ``side``: the side's outward normal sign,
    with the tangential sign taken from ``orientation``."""
    sx, sy = orientation
    if side == LEFT:
        return (-1, sy)
    if side == RIGHT:
        return (1, sy)
    if side == BOTTOM:
        return (sx, -1)
    if side == TOP:
        return (sx, 1)
    raise DomainError(f"unknown side {side!r}")


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
    m, n = cell
    a2, b2 = params.a / 2, params.b / 2
    if side == LEFT:
        pos = PointQ(m - a2, n - b2 + offset)
    elif side == RIGHT:
        pos = PointQ(m + a2, n - b2 + offset)
    elif side == BOTTOM:
        pos = PointQ(m - a2 + offset, n - b2)
    elif side == TOP:
        pos = PointQ(m - a2 + offset, n + b2)
    else:
        raise DomainError(f"unknown side {side!r}")
    state = BilliardState(pos, side, (m, n), tuple(orientation), slope.unsigned())
    validate_state(state, params)
    return state


def validate_state(state: BilliardState, params: Params) -> None:
    """Check the state invariants: on-side position, outgoing direction."""
    sx, sy = state.orientation
    if (sx, sy) not in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        raise DomainError(f"invalid orientation {state.orientation!r}")
    dx, dy = sx * state.slope.v, sy * state.slope.u
    m, n = state.cell
    x, y = state.position.x, state.position.y
    a2, b2 = params.a / 2, params.b / 2
    if state.side in VERTICAL_SIDES:
        want_x = m - a2 if state.side == LEFT else m + a2
        if x != want_x or not (n - b2 < y < n + b2):
            raise DomainError("position not interior to the named side")
        if dx == 0:
            raise DomainError("direction tangent to a vertical side")
        if (dx > 0) != (state.side == RIGHT):
            raise DomainError("direction points into the obstacle")
    elif state.side in HORIZONTAL_SIDES:
        want_y = n - b2 if state.side == BOTTOM else n + b2
        if y != want_y or not (m - a2 < x < m + a2):
            raise DomainError("position not interior to the named side")
        if dy == 0:
            raise DomainError("direction tangent to a horizontal side")
        if (dy > 0) != (state.side == TOP):
            raise DomainError("direction points into the obstacle")
    else:
        raise DomainError(f"unknown side {state.side!r}")


def midpoint_state(params: Params, cell: tuple, side: str, slope: Slope,
                   orientation: tuple) -> BilliardState:
    """State at the midpoint of an obstacle side (the E/F preimages)."""
    return make_state(params, cell, side, side_length(params, side) / 2,
                      slope, orientation)


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
            return (X, Y, BOTTOM if sy > 0 else TOP, (X + beta - w) // N,
                    (Y + sy * gamma) // N, sx, -sy, adx)
    if j is None:
        return None
    X, Y = X + sx * dx, Y + sy * lat._div(u * dx, v)
    w = (Y + gamma) % N
    if w in (0, 2 * gamma):
        raise CornerHit(Fraction(X, N), Fraction(Y, N))
    return (X, Y, LEFT if sx > 0 else RIGHT, (X + sx * beta) // N,
            (Y + gamma - w) // N, -sx, sy, dx)


# The 8 outgoing domains of the return map: each side with the two
# orientations that point away from the obstacle.  _Lattice.point relies on
# the order: vertical sides first, left before right, bottom before top.
DOMAINS = ((LEFT, (-1, 1)), (LEFT, (-1, -1)), (RIGHT, (1, 1)), (RIGHT, (1, -1)),
           (BOTTOM, (1, -1)), (BOTTOM, (-1, -1)), (TOP, (1, 1)), (TOP, (-1, 1)))
_DOMAIN_INDEX = {dom: k for k, dom in enumerate(DOMAINS)}


def _map_step(lat: _Lattice, k: int, t: int) -> tuple:
    """The first hit from (k, t) on the obstacle at cell (0, 0), as
    (k', t', m', n', adx)."""
    X, Y = lat.point(k, t, 0, 0)
    X, Y, side, m, n, sx, sy, adx = _first_hit(lat, X, Y, *DOMAINS[k][1])
    return (_DOMAIN_INDEX[side, (sx, sy)], lat.transverse(side, X, Y, m, n),
            m, n, adx)


# Fixed size: a run steps one slope (and its shadow) at a time, and a
# surface query a handful.
@lru_cache(maxsize=16)
def _return_map(params: Params, u: int, v: int) -> tuple:
    """The boundary return map of slope u/v at lattice scale n0 = 1.

    Returns (cuts, pieces, corners), each indexed by domain.  cuts[k] is
    the sorted list of breakpoints, then the side length as a sentinel;
    pieces[k][i] = (k', flip, shift, dm, dn, c0, c1) is the map on the
    open interval just below cuts[k][i]: t' = shift - t if flip else
    shift + t, in domain k', with the cell moved by (dm, dn) and
    |dX| = c0 + c1*t.  corners[k][i] is the corner, relative to the start
    cell, that breakpoint cuts[k][i] runs into.
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
    a2, b2 = params.a / 2, params.b / 2
    cuts, pieces, corners = [], [], []
    for k in range(len(DOMAINS)):
        length = 2 * (lat.gamma // u if k < 4 else lat.beta // v)
        ts = sorted(hits[k])
        cuts.append(tuple(ts) + (length,))
        corners.append(tuple(
            (dm + cx * a2, dn + cy * b2)
            for cx, cy, dm, dn in (hits[k][t] for t in ts)))
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


class Orbit:
    """The forward collisions of a non-axis start, stepped on the boundary
    return map.

    Iterating yields (k, t, m, n, adx) per collision: the outgoing domain
    ``DOMAINS[k]``, the transverse coordinate t, the obstacle cell and the
    X-extent |dX| of the flight to it, all in units of 1/N of ``lattice``.
    Raises CornerHit with the exact corner when the flow reaches one.
    Every iteration starts again from the start state; ``steps`` starts
    from any state of the map.
    """

    __slots__ = ("lattice", "n0", "k", "t", "cell", "_cuts", "_pieces",
                 "_corners")

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
        cuts, pieces, self._corners = _return_map(params, slope.u, slope.v)
        self._cuts = [[n0 * c for c in cs] for cs in cuts]
        self._pieces = [[(p[0], p[1], n0 * p[2], p[3], p[4], n0 * p[5], p[6])
                         for p in row] for row in pieces]

    def __iter__(self):
        return self.steps(self.k, self.t, *self.cell)

    def steps(self, k: int, t: int, m: int, n: int):
        """The collisions after state (k, t) in cell (m, n), as iterating
        yields them from the start."""
        cuts, pieces = self._cuts, self._pieces
        while True:
            cs = cuts[k]
            i = bisect_left(cs, t)
            if cs[i] == t:
                dx, dy = self._corners[k][i]
                raise CornerHit(m + dx, n + dy)
            k, flip, shift, dm, dn, c0, c1 = pieces[k][i]
            adx = c0 + c1 * t
            t = shift - t if flip else shift + t
            m += dm
            n += dn
            yield k, t, m, n, adx

    def position(self, k: int, t: int, m: int, n: int) -> PointQ:
        """Exact point of a collision the iteration yielded."""
        N = self.lattice.N
        X, Y = self.lattice.point(k, t, m, n)
        return PointQ(Fraction(X, N), Fraction(Y, N))


# -- cylinder cycles ------------------------------------------------------
#
# Every reduced orbit of a rational slope is a cycle of the return map, and
# the starts that follow the same pieces fill an open interval: the leaves
# of one cylinder.  They share the period, the drift and the period's
# flight extent, so the first walk that closes on its start records the
# cycle, and later starts on it are answered by a short walk to one of its
# landmarks instead of a period walk.

# A recorded cycle keeps a landmark at every this many phases; a lookup
# walks at most this many collisions to reach one.
_LANDMARK_EVERY = 32


class _Cycle:
    """A closed cycle of the return map, recorded at lattice scale n0 = 1.

    Every start in the open interval (lo, hi) of domain ``k[0]`` takes the
    same pieces and is back on itself after ``length`` collisions,
    ``drift`` cells away, having flown the X-extent ``extent``.  Landmark b
    sits at phase j = b*G, G = _LANDMARK_EVERY.  A phase-0 point tau, at
    lattice scale n0, is there at t = sign[b]*tau + n0*off[b] in domain
    k[b], in cell (cm[b], cn[b]) relative to its start cell, after the
    X-extent n0*ea[b] + _extent_slope(v, k[0], k[b])*tau.  The cells of
    phases j .. j+G-1 lie in the box cm[b] + mlo[b] <= m <= cm[b] + mhi[b],
    cn[b] + nlo[b] <= n <= cn[b] + nhi[b].  The columns are filled while
    the walk goes.
    """

    __slots__ = ("length", "drift", "extent", "lo", "hi", "k", "sign", "off",
                 "cm", "cn", "ea", "mlo", "mhi", "nlo", "nhi", "span")

    def __init__(self):
        self.k, self.sign = array("b"), array("b")
        self.off, self.cm, self.cn, self.ea = [], [], [], []
        self.mlo, self.mhi, self.nlo, self.nhi = [], [], [], []

    def mark(self, k, sign, off, cm, cn, ea):
        """Add a landmark."""
        self.off.append(off)
        self.ea.append(ea)
        self.cm.append(cm)
        self.cn.append(cn)
        self.k.append(k)
        self.sign.append(sign)

    def box(self, mlo, mhi, nlo, nhi):
        """Close the last landmark's block with the box of its cells."""
        m, n = self.cm[-1], self.cn[-1]
        self.mlo.append(mlo - m)
        self.mhi.append(mhi - m)
        self.nlo.append(nlo - n)
        self.nhi.append(nhi - n)

    def seal(self, length, drift, extent, lo, hi):
        self.length, self.drift, self.extent = length, drift, extent
        self.lo, self.hi = lo, hi
        # the box of every cell of the period
        self.span = (min(map(sum, zip(self.cm, self.mlo))),
                     max(map(sum, zip(self.cm, self.mhi))),
                     min(map(sum, zip(self.cn, self.nlo))),
                     max(map(sum, zip(self.cn, self.nhi))))

    def mirrored(self, fx: bool, fy: bool, lengths: list, v: int):
        """The image of the cycle under x -> -x (fx) and y -> -y (fy).

        A reflection maps domain k to _MIRRORS[fx, fy][k], the cell (m, n)
        to (-m, n) or (m, -n), keeps every flight's X-extent, and turns the
        coordinate t along a mirrored axis into lengths[k] - t.
        """
        image = _Cycle()
        kmap = _MIRRORS[fx, fy]
        k0 = self.k[0]
        mu0 = -1 if (fy if k0 < 4 else fx) else 1
        c0 = lengths[k0] if mu0 < 0 else 0
        for b, k in enumerate(self.k):
            mu = -1 if (fy if k < 4 else fx) else 1
            sign = mu * self.sign[b] * mu0
            slope = _extent_slope(v, k0, k)
            if sign != _LEAF[kmap[k0]] * _LEAF[kmap[k]] or \
                    mu0 * slope != _extent_slope(v, kmap[k0], kmap[k]):
                raise AssertionError("mirror image off the leaf geometry")
            image.mark(kmap[k], sign,
                       mu * self.off[b] + (lengths[k] if mu < 0 else 0)
                       - sign * c0,
                       -self.cm[b] if fx else self.cm[b],
                       -self.cn[b] if fy else self.cn[b],
                       self.ea[b] - slope * mu0 * c0)
            image.mlo.append(-self.mhi[b] if fx else self.mlo[b])
            image.mhi.append(-self.mlo[b] if fx else self.mhi[b])
            image.nlo.append(-self.nhi[b] if fy else self.nlo[b])
            image.nhi.append(-self.nlo[b] if fy else self.nhi[b])
        dm, dn = self.drift
        image.seal(self.length, (-dm if fx else dm, -dn if fy else dn),
                   self.extent,
                   *((c0 - self.hi, c0 - self.lo) if mu0 < 0
                     else (self.lo, self.hi)))
        return image

    def interval(self, b: int) -> tuple:
        """The open interval, at n0 = 1, that landmark b's phase covers."""
        off = self.off[b]
        if self.sign[b] > 0:
            return off + self.lo, off + self.hi
        return off - self.hi, off - self.lo


class _CycleStore:
    """The recorded cycles of one (params, slope), and for each domain the
    intervals of their landmarks: sorted, disjoint, at n0 = 1."""

    __slots__ = ("lengths", "v", "cycles", "los", "his", "refs")

    def __init__(self, lengths: list, v: int):
        self.lengths, self.v = lengths, v  # the domains' lengths at n0 = 1
        self.cycles = []
        self.los = [[] for _ in DOMAINS]
        self.his = [[] for _ in DOMAINS]
        self.refs = [[] for _ in DOMAINS]  # cycle << 32 | landmark

    def add(self, cyc: _Cycle):
        """Index a sealed cycle's landmarks."""
        ref = len(self.cycles) << 32
        for b, k in enumerate(cyc.k):
            lo, hi = cyc.interval(b)
            los, his = self.los[k], self.his[k]
            i = bisect_left(los, lo)
            if (i and his[i - 1] > lo) or (i < len(los) and los[i] < hi):
                raise AssertionError("two recorded cycles overlap")
            los.insert(i, lo)
            his.insert(i, hi)
            self.refs[k].insert(i, ref | b)
        self.cycles.append(cyc)

    def locate(self, walk: Orbit):
        """Walk the start of ``walk`` to the first landmark it reaches.

        Returns (cycle, landmark, steps, dm, dn, extent, t): the collisions
        walked, the cells and X-extent they moved by and the coordinate at
        the landmark; or None when the start lies on no recorded cycle.  A
        start on one reaches a landmark within G - 1 collisions.  Interval
        ends never match: they lie on saddle connections.

        The table is symmetric under x -> -x and y -> -y, so the mirror
        image of a recorded cycle is a cycle of the same slope.  A start
        whose image lies on a recorded cycle has that cycle's image
        recorded first.
        """
        if not self.cycles:
            return None
        seen = []
        found = self._find(walk, seen)
        if found is not None:
            return found
        # the images of the states walked walk the image of the orbit
        n0, lengths = walk.n0, self.lengths
        for (fx, fy), kmap in _MIRRORS.items():
            for k, t in seen:
                if fy if k < 4 else fx:
                    t = n0 * lengths[k] - t
                k = kmap[k]
                i = bisect_right(self.los[k], (t - 1) // n0) - 1
                if i >= 0 and t < n0 * self.his[k][i]:
                    self.add(self.cycles[self.refs[k][i] >> 32].mirrored(
                        fx, fy, lengths, self.v))
                    return self._find(walk, [])
        return None

    def _find(self, walk: Orbit, seen: list):
        """locate without the mirror images; ``seen`` gets the states
        walked, or nothing when the start lies on no cycle at all."""
        n0, k, t = walk.n0, walk.k, walk.t
        m = n = ext = 0
        steps = walk.steps(k, t, 0, 0)
        for s in range(_LANDMARK_EVERY):
            # the last interval with n0*lo < t, that is lo <= (t - 1)//n0
            i = bisect_right(self.los[k], (t - 1) // n0) - 1
            if i >= 0 and t < n0 * self.his[k][i]:
                ci, b = divmod(self.refs[k][i], 1 << 32)
                return self.cycles[ci], b, s, m, n, ext, t
            if s and t == walk.t and k == walk.k:
                return None  # a short cycle, walked whole
            seen.append((k, t))
            try:
                k, t, m, n, adx = next(steps)
            except CornerHit:
                seen.clear()
                return None
            ext += adx
        return None


@lru_cache(maxsize=16)
def _cycle_store(params: Params, u: int, v: int) -> _CycleStore:
    """The cycle store of slope u/v, shared by every caller (same size and
    reasoning as the return map's cache)."""
    return _CycleStore([cs[-1] for cs in _return_map(params, u, v)[0]], v)


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
    image is cut down to the next piece.  With ``to_cell``, the walk also
    stops on its first return to the start cell.  The sign the walk tracks
    is the one the leaf geometry fixes at every phase, so it is +1 when
    the walk closes: the period map on the interval is unflipped.
    """
    G = _LANDMARK_EVERY
    cuts, pieces, corners = walk._cuts, walk._pieces, walk._corners
    lows = [[0] + cs for cs in cuts]  # lows[k][i]: the low end of piece i
    k = k0 = walk.k
    t = t0 = walk.t
    m, n = sm, sn = walk.cell
    leaf0, n0 = _LEAF[k0], walk.n0
    sign, ext, steps = 1, 0, 0
    rec = _Cycle()
    closed, corner, returned = False, None, False
    cs = cuts[k]
    i = bisect_left(cs, t)
    below, above = t - lows[k][i], cs[i] - t
    if above == 0:
        dx, dy = corners[k][i]
        return _Walk(0, m, n, 0, CornerHit(m + dx, n + dy), None, False)
    mlo = mhi = m
    nlo = nhi = n
    while steps < limit:
        if steps:
            rec.box(mlo - sm, mhi - sm, nlo - sn, nhi - sn)
        # a landmark: the phase-0 point is at sign*t0 + off, and its
        # extent is ext + B*(tau - t0) with the slope B the leaf geometry
        # fixes
        if sign != leaf0 * _LEAF[k]:
            raise AssertionError("tracked sign off the leaf geometry")
        B = _extent_slope(walk.lattice.v, k0, k)
        rec.mark(k, sign, _down(t - sign * t0, n0), m - sm, n - sn,
                 _down(ext - B * t0, n0))
        mlo = mhi = m
        nlo = nhi = n
        for steps in range(steps + 1, min(steps + G, limit) + 1):
            k, flip, shift, dm, dn, c0, c1 = pieces[k][i]
            ext += c0 + c1 * t
            if flip:
                t = shift - t
                below, above = above, below
                sign = -sign
            else:
                t += shift
            m += dm
            n += dn
            if m < mlo:
                mlo = m
            elif m > mhi:
                mhi = m
            if n < nlo:
                nlo = n
            elif n > nhi:
                nhi = n
            if m == sm and n == sn and to_cell:
                returned = True
                closed = t == t0 and k == k0
                break
            if t == t0 and k == k0:
                closed = True
                break
            cs = cuts[k]
            i = bisect_left(cs, t)
            c = cs[i]
            if c == t:
                dx, dy = corners[k][i]
                corner = CornerHit(m + dx, n + dy)
                break
            if c - t < above:
                above = c - t
            c = t - lows[k][i]
            if c < below:
                below = c
        else:
            continue
        break
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned)
    if sign != 1:
        raise AssertionError("period map flipped on its interval")
    rec.box(mlo - sm, mhi - sm, nlo - sn, nhi - sn)
    rec.seal(steps, (m - sm, n - sn), _down(ext, n0),
             _down(t0 - below, n0), _down(t0 + above, n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned)


# Parallel leaves.  The flight of a start unfolds to a straight line of
# direction (v, u) whose transverse coordinate u*x - v*y moves with the
# start's t at the rate u*v*_LEAF[k] on domain k.  So a start moved by d
# crosses phase j moved by _LEAF[k0]*_LEAF[kj]*d, and its X-extent up to
# there changes by _extent_slope(v, k0, kj)*d: not at all between two
# vertical or two horizontal sides, whose unfolded x (resp. y) is fixed.
_LEAF = tuple(orientation[0] if side in HORIZONTAL_SIDES else -orientation[1]
              for side, orientation in DOMAINS)


def _mirror_domain(k: int, fx: bool, fy: bool) -> int:
    side, (sx, sy) = DOMAINS[k]
    if fx:
        side, sx = {LEFT: RIGHT, RIGHT: LEFT}.get(side, side), -sx
    if fy:
        side, sy = {BOTTOM: TOP, TOP: BOTTOM}.get(side, side), -sy
    return _DOMAIN_INDEX[side, (sx, sy)]


# The table's reflections x -> -x, y -> -y and both, as domain maps.
_MIRRORS = {(fx, fy): tuple(_mirror_domain(k, fx, fy) for k in range(8))
            for fx, fy in ((True, False), (False, True), (True, True))}


def _extent_slope(v: int, k0: int, k: int) -> int:
    """d(X-extent from domain k0 to domain k)/dt for parallel leaves."""
    return v * _LEAF[k0] * ((k >= 4) - (k0 >= 4))


def _down(x: int, n0: int) -> int:
    """x at lattice scale n0, taken to n0 = 1."""
    q, r = divmod(x, n0)
    if r:
        raise AssertionError("cycle data off the n0 = 1 lattice")
    return q


def _block(walk: Orbit, cyc: _Cycle, tau: int, b: int, rnd: int):
    """(m, n, extent) at each phase of landmark b's block in round ``rnd``
    (the phases rnd*L + b*G ..) of the cycle point whose phase-0
    coordinate is tau, in the frame where that point starts in cell (0, 0)
    with extent 0."""
    n0, k = walk.n0, cyc.k[b]
    m = cyc.cm[b] + rnd * cyc.drift[0]
    n = cyc.cn[b] + rnd * cyc.drift[1]
    ext = n0 * (cyc.ea[b] + rnd * cyc.extent) + \
        _extent_slope(walk.lattice.v, cyc.k[0], k) * tau
    yield m, n, ext
    count = min(_LANDMARK_EVERY, cyc.length - b * _LANDMARK_EVERY)
    steps = walk.steps(k, cyc.sign[b] * tau + n0 * cyc.off[b], m, n)
    for _, _, m, n, adx in islice(steps, count - 1):
        ext += adx
        yield m, n, ext


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
    whose boxes hold it are stepped from their landmark in order of phase,
    so the first match is the first return.
    """
    G = _LANDMARK_EVERY
    cyc, b, s, wm, wn, wext, t = found
    L, (dm, dn), n0 = cyc.length, cyc.drift, walk.n0
    tau = cyc.sign[b] * (t - n0 * cyc.off[b])
    # the start is at phase p, s collisions before landmark b's phase
    p = b * G - s
    rnd = 1 if p < 0 else 0
    p += rnd * L
    cm = cyc.cm[b] + rnd * dm - wm
    cn = cyc.cn[b] + rnd * dn - wn
    e0 = n0 * (cyc.ea[b] + rnd * cyc.extent) + \
        _extent_slope(walk.lattice.v, cyc.k[0], cyc.k[b]) * tau - wext
    first, last = p + 1, p + horizon
    # only rounds whose drift brings the start cell into the cycle's span
    lo_m, hi_m, lo_n, hi_n = cyc.span
    w0, w1 = _rounds(cm, dm, lo_m, hi_m, first // L, last // L)
    w0, w1 = _rounds(cn, dn, lo_n, hi_n, w0, w1)
    for rnd in range(w0, w1 + 1):
        tm, tn = cm - rnd * dm, cn - rnd * dn
        base = rnd * L
        for b in range(max(0, (first - base) // G),
                       min(len(cyc.k), (last - base) // G + 1)):
            if cyc.mlo[b] <= tm - cyc.cm[b] <= cyc.mhi[b] and \
                    cyc.nlo[b] <= tn - cyc.cn[b] <= cyc.nhi[b]:
                q = base + b * G
                for m, n, ext in _block(walk, cyc, tau, b, rnd):
                    if q > last:
                        break
                    if m == cm and n == cn and q >= first:
                        return q - p, (0, 0), ext - e0
                    q += 1
    rnd, r = divmod(last, L)
    b, j = divmod(r, G)
    m, n, ext = next(islice(_block(walk, cyc, tau, b, rnd), j, None))
    return None, (m - cm, n - cn), ext - e0


def first_return(start: BilliardState, params: Params, horizon: int):
    """The first return of an orbit to its start cell within ``horizon``
    collisions.

    Returns (collisions or None, cell, length, singular): the cell relative
    to the start cell and the length in primitive-vector units, at the
    return, at the corner or else at the horizon.  An axis orbit is back
    after its two flights.  A start on a recorded cycle is answered from
    it; otherwise the orbit is walked, and one that closes on its start
    within the horizon is recorded and answered from its cycle.
    """
    validate_state(start, params)
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
    found = store.locate(walk)
    if found is None:
        res = _walk_period(walk, horizon, store, to_cell=True)
        if res.returned:
            return res.steps, (0, 0), Fraction(res.extent, vN), False
        if res.cycle is None:
            sm, sn = start.cell
            return (None, (res.m - sm, res.n - sn), Fraction(res.extent, vN),
                    res.corner is not None and res.steps < horizon)
        found = res.cycle, 0, 0, 0, 0, 0, walk.t
    ret, cell, ext = _cycle_return(walk, found, horizon)
    return ret, cell, Fraction(ext, vN), False


def _direction_cycles(params: Params, slope: Slope) -> tuple:
    """Every cylinder of a non-axis rational direction on the table, from
    the billiard alone: the cycles that cover the 8 domains, and the
    straight corridors that meet no obstacle.

    Returns (cycles, corridor).  cycles lists (cycle, phases), phases[j] =
    (k, lo, hi) being the open interval, at n0 = 1, that phase j of the
    cycle covers in domain k.  corridor is the drift (v, u) of the
    corridors, or None when every line of the direction meets an obstacle
    (u*a + v*b >= 1).  The direction is completely periodic on the table
    exactly when there is no corridor and every cycle's drift is (0, 0);
    otherwise the escaping cycles and the corridors are its strips.
    """
    store = _cycle_store(params, slope.u, slope.v)
    cuts = _return_map(params, slope.u, slope.v)[0]
    limit = 2 * sum(cs[-1] for cs in cuts)  # reduced states at n0 = 2
    lat = _Lattice(params, slope, 2)
    found = []
    ends = [{} for _ in DOMAINS]  # ends[k][lo] = hi over the cycles found
    for k in range(len(DOMAINS)):
        pos = 0
        while pos < cuts[k][-1]:
            if pos in ends[k]:
                pos = ends[k][pos]
                continue
            # a point just above pos, on no cycle found yet
            X, Y = lat.point(k, 2 * pos + 1, 0, 0)
            side, orientation = DOMAINS[k]
            walk = Orbit(BilliardState(PointQ(Fraction(X, lat.N),
                                              Fraction(Y, lat.N)),
                                       side, (0, 0), orientation, slope),
                         params)
            hit = store.locate(walk)
            if hit is None:
                # odd points at n0 = 2 meet no corner, and they close
                # within the count of reduced states
                hit = (_walk_period(walk, limit, store).cycle,
                       0, 0, 0, 0, 0, walk.t)
            cyc, b, s = hit[:3]
            phases = _phases(walk, cyc)
            for kk, lo, hi in phases:
                if lo in ends[kk]:
                    raise AssertionError("two cycles share an interval")
                ends[kk][lo] = hi
            if phases[(b * _LANDMARK_EVERY - s) % cyc.length][:2] != (k, pos):
                raise AssertionError("cycle intervals do not tile a domain")
            found.append((cyc, phases))
    corridor = None
    if slope.u * params.a + slope.v * params.b < 1:
        corridor = (slope.v, slope.u)
    return found, corridor


def _phases(walk: Orbit, cyc: _Cycle) -> list:
    """(k, lo, hi) of each phase of a recorded cycle, walked from a phase-0
    point at the lattice scale of ``walk`` (which must be at least 2)."""
    n0, k0 = walk.n0, cyc.k[0]
    tau = n0 * cyc.lo + 1
    out = []
    for k, t, *_ in islice(chain([(k0, tau)], walk.steps(k0, tau, 0, 0)),
                           cyc.length):
        sign = _LEAF[k0] * _LEAF[k]  # as _walk_period checks at landmarks
        off = _down(t - sign * tau, n0)
        out.append((k, off + cyc.lo, off + cyc.hi) if sign > 0
                   else (k, off - cyc.hi, off - cyc.lo))
    return out


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
    a later start on a recorded cycle is answered from it.  An
    undetermined outcome has the length of exactly ``max_collisions``
    collisions.
    """
    validate_state(start, params)
    if max_collisions < 1:
        raise DomainError("max_collisions must be >= 1")
    if start.slope.is_axis:
        return TrajectoryOutcome(Outcome.PERIODIC, 2,
                                 2 * _axis_flight(start.slope, params),
                                 (0, 0), 0)

    walk = Orbit(start, params)
    store = _cycle_store(params, start.slope.u, start.slope.v)
    vN = start.slope.v * walk.lattice.N
    m0, n0 = start.cell
    found = store.locate(walk)
    if found is not None and found[0].length <= max_collisions:
        cyc = found[0]
        steps, (dm, dn), extent = cyc.length, cyc.drift, walk.n0 * cyc.extent
    else:
        res = _walk_period(walk, max_collisions, store)
        if res.corner is not None:
            # length up to the last collision
            return TrajectoryOutcome(Outcome.SINGULAR, res.steps,
                                     Fraction(res.extent, vN), (0, 0), 0,
                                     corner=PointQ(res.corner.x, res.corner.y))
        if res.cycle is None:
            return TrajectoryOutcome(Outcome.UNDETERMINED, max_collisions,
                                     Fraction(res.extent, vN), (0, 0), 0)
        steps, dm, dn, extent = res.steps, res.m - m0, res.n - n0, res.extent
    kind = Outcome.PERIODIC if (dm, dn) == (0, 0) else Outcome.ESCAPING
    return TrajectoryOutcome(kind, steps, Fraction(extent, vN), (dm, dn), 0,
                             repeat_cells=((m0, n0), (m0 + dm, n0 + dn)))


def _check_count(n_collisions: int):
    if n_collisions < 0:
        raise DomainError(f"n_collisions must be >= 0, got {n_collisions}")


def _collisions(start: BilliardState, params: Params):
    """(side, cell, orientation, position) of each forward collision, with
    the orientation that leaves it.  Raises CornerHit."""
    if start.slope.is_axis:
        # Trapped 2-bounce orbit: alternate between the two facing sides.
        x, y = start.position.x, start.position.y
        (m, n), (sx, sy) = start.cell, start.orientation
        gap = _axis_flight(start.slope, params)
        while True:
            if start.slope.is_horizontal:
                x += sx * gap
                m += sx
                side = LEFT if sx > 0 else RIGHT
                sx = -sx
            else:
                y += sy * gap
                n += sy
                side = BOTTOM if sy > 0 else TOP
                sy = -sy
            yield side, (m, n), (sx, sy), PointQ(x, y)
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
        return TracedPath(tuple(points), singular=True, corner=corner)
    return TracedPath(tuple(points))


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


def time_reversed(state: BilliardState) -> BilliardState:
    """State flowing backward along the incoming ray of this collision.

    Reversing time at a collision on a horizontal side mirrors the
    outgoing direction through the vertical axis; on a vertical side,
    through the horizontal axis.
    """
    sx, sy = state.orientation
    if state.side in HORIZONTAL_SIDES:
        orient = (-sx, sy)
    else:
        orient = (sx, -sy)
    return BilliardState(state.position, state.side, state.cell, orient,
                         state.slope)


def symmetry_check(start: BilliardState, params: Params, n_collisions: int) -> bool:
    """Mirror symmetry of the forward and backward orbits of a mid-side start.

    The start must sit at the midpoint of its obstacle side.  For a
    horizontal-side midpoint the two orbits must be exact mirror images
    through the vertical line through the start; for a vertical-side
    midpoint, through the horizontal line.  Singular truncations propagate
    as a failed check only if the two sides disagree.
    """
    length = side_length(params, start.side)
    mid = length / 2
    m, n = start.cell
    a2, b2 = params.a / 2, params.b / 2
    if start.side in HORIZONTAL_SIDES:
        if start.position.x != m - a2 + mid:
            raise DomainError("start is not a horizontal-side midpoint")
        axis = start.position.x
        mirror = lambda pt: PointQ(2 * axis - pt.x, pt.y)
    else:
        if start.position.y != n - b2 + mid:
            raise DomainError("start is not a vertical-side midpoint")
        axis = start.position.y
        mirror = lambda pt: PointQ(pt.x, 2 * axis - pt.y)
    fwd = trace(start, params, n_collisions)
    bwd = trace(time_reversed(start), params, n_collisions)
    if fwd.singular != bwd.singular or len(fwd.points) != len(bwd.points):
        return False
    return all(mirror(p) == q for p, q in zip(fwd.points, bwd.points))


def regular_start(params: Params, slope: Slope, orientation: tuple = (1, 1),
                  cell: tuple = (0, 0), attempts: int = 64,
                  max_collisions: int = DEFAULT_MAX_COLLISIONS):
    """A deterministic start whose orbit avoids corners, with its outcome.

    Walks a fixed ladder of side offsets until classify_trajectory comes
    back non-singular.  Returns (state, outcome).  Raises DomainError if
    every attempt is singular (not observed for desk-scale data).
    """
    sides = HORIZONTAL_SIDES if not slope.is_horizontal else VERTICAL_SIDES
    denom = 3
    for _ in range(attempts):
        for side in sides:
            length = side_length(params, side)
            try:
                state = make_state(params, cell, side,
                                   Fraction(1, denom) * length, slope,
                                   leaving_orientation(side, orientation))
            except DomainError:
                continue
            outcome = classify_trajectory(state, params, max_collisions)
            if outcome.kind is not Outcome.SINGULAR:
                return state, outcome
        denom = denom + 2
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
    a2, b2 = params.a / 2, params.b / 2
    if abs(x - m) <= a2 and abs(y - n) <= b2:
        raise DomainError("launch point is inside or on an obstacle")
    if slope.is_axis:
        if slope.is_horizontal:
            sxd = orientation[0]
            if abs(y - n) == b2:
                # grazing line along the side level: first contact is a corner
                mm = m if (x - m) * sxd < -a2 else m + sxd
                raise CornerHit(Fraction(mm - sxd * a2), y)
            if abs(y - n) > b2:
                return None  # corridor
            side = LEFT if sxd > 0 else RIGHT
            # first obstacle column ahead with the band occupied: adjacent
            mm = m if (x - m) * sxd < -a2 else m + sxd
            hit_x = mm - a2 if sxd > 0 else mm + a2
            pos = PointQ(Fraction(hit_x), y)
            return BilliardState(pos, side, (mm, n), (-sxd, orientation[1]), slope)
        else:
            syd = orientation[1]
            if abs(x - m) == a2:
                nn = n if (y - n) * syd < -b2 else n + syd
                raise CornerHit(x, Fraction(nn - syd * b2))
            if abs(x - m) > a2:
                return None
            side = BOTTOM if syd > 0 else TOP
            nn = n if (y - n) * syd < -b2 else n + syd
            hit_y = nn - b2 if syd > 0 else nn + b2
            pos = PointQ(x, Fraction(hit_y))
            return BilliardState(pos, side, (m, nn), (orientation[0], -syd), slope)
    lat = _Lattice(params, slope, _lcm(x.denominator, y.denominator))
    res = _first_hit(lat, *lat.encode(point), *orientation)
    if res is None:
        return None
    Xn, Yn, side, mm, nn, sxn, syn, _ = res
    pos = PointQ(Fraction(Xn, lat.N), Fraction(Yn, lat.N))
    return BilliardState(pos, side, (mm, nn), (sxn, syn), slope)
