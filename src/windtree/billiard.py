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
factors u*v in N absorb.  The grid-line stepper `_Engine` works in integer
multiples of 1/N throughout, so exactness is structural; the divisions it
performs are checked to be exact at runtime.

Orbits are stepped on the boundary return map instead.  A collision state
modulo the lattice is one of 8 outgoing domains k (a side with one of the
two orientations leaving it) and a transverse coordinate t: the offset
along the side in units of 1/N, divided by u on vertical sides and by v
on horizontal ones.  By the lattice invariant every collision has X a
multiple of v and Y a multiple of u, so t is an integer.  For a fixed
slope the first return to the boundary is a piecewise translation,
t' = +-t + shift with a constant cell displacement and a flight X-extent
affine in t, with about 20 pieces.  The breakpoints are the side points
whose ray runs into a corner first; they are found by tracing the 4
corners back along the 3 directions that leave each one, with `_Engine`
at n0 = 1, and each piece is read off from two engine steps just inside
its ends on the 3-times finer lattice, where no breakpoint lies.  The
map is built once per (params, slope), kept in a small LRU cache, and
scaled by n0 for each start: the table geometry, the breakpoints and the
shifts all scale with N.  A step is then one bisection and a few integer
additions, a start exactly on a breakpoint is a corner hit, and every
quantity the map produces is one the engine would produce, so exactness
still holds.  Pieces whose flights cross more grid lines than the build
allows (slopes close to a rational one on tables with open corridors)
are left unresolved; an orbit entering one takes that step with the
engine, from the orbit's own cell, so a corner hit there is exact too.

Geometric lengths are reported as the exact rational number of copies of
the primitive direction vector (v, u) traversed; the Euclidean length is
that coefficient times sqrt(u^2 + v^2).  This keeps every length
comparison in the rationals.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

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


class _Engine:
    """Integer-scaled collision stepper for a fixed slope u/v with u, v >= 1.

    Coordinates are integers counting multiples of 1/N.  Vertical side
    lines sit at k*N +- beta, horizontal ones at k*N +- gamma.
    """

    __slots__ = ("N", "beta", "gamma", "u", "v", "halfN", "cap")

    def __init__(self, params: Params, slope: Slope, n0: int):
        if slope.is_axis:
            raise DomainError("engine requires a non-axis slope")
        u, v = slope.u, slope.v
        N = 2 * params.q * params.s * u * v * n0
        self.N = N
        self.halfN = N // 2
        self.beta = params.p * (N // (2 * params.q))
        self.gamma = params.r * (N // (2 * params.s))
        self.u = u
        self.v = v
        # Torus-periodicity guard: a slope-u/v ray meets at most
        # 2*(u + v) + 4 grid lines per primitive period, so if nothing is
        # hit within a couple of periods nothing is ever hit.
        self.cap = 8 * (u + v) + 32

    @staticmethod
    def _next_grid(pos: int, sign: int, N: int, off: int) -> int:
        """Grid value {k*N - off, k*N + off} strictly beyond pos."""
        rem = pos % N
        if sign > 0:
            if rem < off:
                return pos + (off - rem)
            if rem < N - off:
                return pos + (N - off - rem)
            return pos + (N + off - rem)
        if rem > N - off:
            return pos - (rem - (N - off))
        if rem > off:
            return pos - (rem - off)
        return pos - (rem + off)

    def _div(self, num: int, den: int) -> int:
        quot, rem = divmod(num, den)
        if rem:
            raise AssertionError("lattice invariant violated (inexact division)")
        return quot

    def step(self, X: int, Y: int, sx: int, sy: int):
        """March to the next collision.

        Returns (X', Y', side, m, n, sx', sy', |dX|) or None when the ray
        provably never meets an obstacle (free flight).  Raises CornerHit.
        """
        N, beta, gamma, u, v = self.N, self.beta, self.gamma, self.u, self.v
        X0 = X
        for _ in range(self.cap):
            XV = self._next_grid(X, sx, N, beta)
            YH = self._next_grid(Y, sy, N, gamma)
            tx = u * abs(XV - X)
            ty = v * abs(YH - Y)
            if tx <= ty:
                Ynew = Y + sy * self._div(u * abs(XV - X), v)
                remx = XV % N
                if remx == beta:
                    side, m = RIGHT, (XV - beta) // N
                else:
                    side, m = LEFT, (XV + beta) // N
                n = (Ynew + self.halfN) // N
                d = abs(Ynew - n * N)
                if d < gamma:
                    return (XV, Ynew, side, m, n, -sx, sy, abs(XV - X0))
                if d == gamma:
                    raise CornerHit(Fraction(XV, N), Fraction(Ynew, N))
                X, Y = XV, Ynew
            else:
                Xnew = X + sx * self._div(v * abs(YH - Y), u)
                remy = YH % N
                if remy == gamma:
                    side, n = TOP, (YH - gamma) // N
                else:
                    side, n = BOTTOM, (YH + gamma) // N
                m = (Xnew + self.halfN) // N
                d = abs(Xnew - m * N)
                if d < beta:
                    return (Xnew, YH, side, m, n, sx, -sy, abs(Xnew - X0))
                if d == beta:
                    raise CornerHit(Fraction(Xnew, N), Fraction(YH, N))
                X, Y = Xnew, YH
        return None

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


# The 8 outgoing domains of the return map: each side with the two
# orientations that point away from the obstacle.  _Engine.point relies on
# the order: vertical sides first, left before right, bottom before top.
DOMAINS = ((LEFT, (-1, 1)), (LEFT, (-1, -1)), (RIGHT, (1, 1)), (RIGHT, (1, -1)),
           (BOTTOM, (1, -1)), (BOTTOM, (-1, -1)), (TOP, (1, 1)), (TOP, (-1, 1)))
_DOMAIN_INDEX = {dom: k for k, dom in enumerate(DOMAINS)}


def _map_step(eng: _Engine, k: int, t: int, m: int = 0, n: int = 0):
    """One engine step from (k, t) on the obstacle at cell (m, n), as
    (k', t', m', n', adx), or None past the engine's cap.  A CornerHit
    carries the true corner, so the cell must be the true one."""
    X, Y = eng.point(k, t, m, n)
    res = eng.step(X, Y, *DOMAINS[k][1])
    if res is None:
        return None
    X, Y, side, m, n, sx, sy, adx = res
    return (_DOMAIN_INDEX[side, (sx, sy)], eng.transverse(side, X, Y, m, n),
            m, n, adx)


# Grid lines a flight may cross while the map is built.  Only slopes very
# close to a rational one, on tables with open corridors, fly further; the
# pieces such flights cross are stepped by the engine.
_BUILD_CAP = 1024


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
    |dX| = c0 + c1*t; or None where a flight was too long to resolve.
    corners[k][i] is the corner, relative to the start cell, that
    breakpoint cuts[k][i] runs into.
    """
    slope = Slope(u, v)
    eng = _Engine(params, slope, 1)
    eng3 = _Engine(params, slope, 3)
    # Corner back-traces get a few more grid lines than piece probes; see
    # the probes below for why.
    eng3.cap = min(eng3.cap, _BUILD_CAP)
    eng.cap = min(eng.cap, _BUILD_CAP + 16)
    # A breakpoint is a side point whose ray runs into a corner first:
    # trace each corner back along every direction not pointing into its
    # obstacle.  A back-trace that meets another corner first belongs to
    # that corner.
    hits = [{} for _ in DOMAINS]
    for cx, cy in ORIENTATIONS:
        for rx, ry in ORIENTATIONS:
            if (rx, ry) == (-cx, -cy):
                continue
            try:
                res = eng.step(cx * eng.beta, cy * eng.gamma, rx, ry)
            except CornerHit:
                continue
            if res is None:
                continue
            X, Y, side, m, n = res[:5]
            k = _DOMAIN_INDEX[side, (-rx, -ry)]
            t = eng.transverse(side, X, Y, m, n)
            if hits[k].setdefault(t, (cx, cy, -m, -n)) != (cx, cy, -m, -n):
                raise AssertionError("two corners claim one breakpoint")
    # Probe each piece just inside both ends, on the three-times finer
    # lattice where breakpoints are multiples of 3.  When both probes land
    # on the same side of the same obstacle, any corner that cut the
    # piece would lie in the parallelogram their rays span, so its
    # back-trace would cross at most a few grid lines more than the longer
    # probe and its breakpoint would be known: the piece is one
    # translation, t' = +-t + shift with |dX| affine in t.  Otherwise a
    # breakpoint behind a long flight cuts it, and it is left unresolved.
    a2, b2 = params.a / 2, params.b / 2
    cuts, pieces, corners = [], [], []
    for k in range(len(DOMAINS)):
        length = 2 * (eng.gamma // u if k < 4 else eng.beta // v)
        ts = sorted(hits[k])
        cuts.append(tuple(ts) + (length,))
        corners.append(tuple(
            (dm + cx * a2, dn + cy * b2)
            for cx, cy, dm, dn in (hits[k][t] for t in ts)))
        row = []
        for lo, hi in zip([0] + ts, ts + [length]):
            t1, t2 = 3 * lo + 1, 3 * hi - 1
            ends = _map_step(eng3, k, t1), _map_step(eng3, k, t2)
            if None in ends:
                row.append(None)
                continue
            (k1, s1, m, n, adx1), (k2, s2, m2, n2, adx2) = ends
            if (k1, m, n) != (k2, m2, n2):
                row.append(None)
                continue
            flip = s2 - s1 == t1 - t2
            c1, rem = divmod(adx2 - adx1, t2 - t1)
            shift = s1 + t1 if flip else s1 - t1
            c0 = adx1 - c1 * t1
            if abs(s2 - s1) != t2 - t1 or rem or c1 not in (0, v, -v) \
                    or shift % 3 or c0 % 3:
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
    Every iteration starts again from the start state.
    """

    __slots__ = ("lattice", "k", "t", "cell", "_cuts", "_pieces", "_corners")

    def __init__(self, start: BilliardState, params: Params):
        slope = start.slope
        if slope.is_axis:
            raise DomainError("axis slopes are classified analytically, not stepped")
        k = _DOMAIN_INDEX.get((start.side, tuple(start.orientation)))
        if k is None:
            raise DomainError("direction does not leave the named side")
        n0 = _lcm(start.position.x.denominator, start.position.y.denominator)
        self.lattice = lat = _Engine(params, slope, n0)
        X, Y = lat.encode(start.position)
        self.k = k
        self.cell = start.cell
        self.t = lat.transverse(start.side, X, Y, *start.cell)
        cuts, pieces, self._corners = _return_map(params, slope.u, slope.v)
        self._cuts = [[n0 * c for c in cs] for cs in cuts]
        self._pieces = [[None if p is None else
                         (p[0], p[1], n0 * p[2], p[3], p[4], n0 * p[5], p[6])
                         for p in row] for row in pieces]

    def __iter__(self):
        cuts, pieces = self._cuts, self._pieces
        k, t = self.k, self.t
        m, n = self.cell
        while True:
            cs = cuts[k]
            i = bisect_left(cs, t)
            if cs[i] == t:
                dx, dy = self._corners[k][i]
                raise CornerHit(m + dx, n + dy)
            piece = pieces[k][i]
            if piece is None:  # a flight too long for the map build
                k, t, m, n, adx = _map_step(self.lattice, k, t, m, n)
            else:
                k, flip, shift, dm, dn, c0, c1 = piece
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


def next_collision(state: BilliardState, params: Params) -> BilliardState:
    """One exact collision step.  Raises CornerHit at corners."""
    walk = Orbit(state, params)
    k, t, m, n, _ = next(iter(walk))
    side, orientation = DOMAINS[k]
    return BilliardState(walk.position(k, t, m, n), side, (m, n), orientation,
                         state.slope)


def _classify_axis(state: BilliardState, params: Params) -> TrajectoryOutcome:
    """Axis-aligned flow from a side: trapped between two facing sides.

    A horizontal ray leaving a vertical side stays in the open band of its
    obstacle row, so it must hit the facing side of the neighboring
    obstacle: a 2-collision periodic orbit.  Same for vertical rays.
    """
    if state.slope.is_horizontal:
        lam = 2 * (1 - params.a)
    else:
        lam = 2 * (1 - params.b)
    return TrajectoryOutcome(Outcome.PERIODIC, 2, Fraction(lam), (0, 0), 0)


def classify_trajectory(start: BilliardState, params: Params,
                        max_collisions: int = DEFAULT_MAX_COLLISIONS) -> TrajectoryOutcome:
    """Classify the forward orbit as periodic, escaping or singular.

    The boundary return map is invertible (time reversal of a collision
    gives the unique earlier one), so on the finite set of reduced states
    (collision data modulo lattice translation) it is a permutation and
    the first reduced repeat of an orbit is its own start state.  The scan
    stops there, storing nothing: zero cell difference means the orbit is
    closed, a non-zero difference is the drift of an escaping orbit.
    ``pre_period`` is therefore always 0.
    """
    validate_state(start, params)
    if max_collisions < 1:
        raise DomainError("max_collisions must be >= 1")
    if start.slope.is_axis:
        return _classify_axis(start, params)

    walk = Orbit(start, params)
    k0, t0 = walk.k, walk.t
    m0, n0 = start.cell
    total_dx = 0
    i = 0
    vN = start.slope.v * walk.lattice.N
    try:
        for k, t, m, n, adx in walk:
            i += 1
            total_dx += adx
            if i > max_collisions:
                break
            if t == t0 and k == k0:
                drift = (m - m0, n - n0)
                kind = Outcome.PERIODIC if drift == (0, 0) else Outcome.ESCAPING
                return TrajectoryOutcome(kind, i, Fraction(total_dx, vN), drift,
                                         0, repeat_cells=((m0, n0), (m, n)))
    except CornerHit as hit:
        # length up to the last collision
        return TrajectoryOutcome(Outcome.SINGULAR, i, Fraction(total_dx, vN),
                                 (0, 0), 0, corner=PointQ(hit.x, hit.y))
    return TrajectoryOutcome(Outcome.UNDETERMINED, max_collisions,
                             Fraction(total_dx, vN), (0, 0), 0)


def _check_count(n_collisions: int):
    if n_collisions < 0:
        raise DomainError(f"n_collisions must be >= 0, got {n_collisions}")


def _collisions(start: BilliardState, params: Params):
    """(side, cell, position) of each forward collision.  Raises CornerHit."""
    if start.slope.is_axis:
        # Trapped 2-bounce orbit: alternate between the two facing sides.
        x, y = start.position.x, start.position.y
        (m, n), (sx, sy) = start.cell, start.orientation
        while True:
            if start.slope.is_horizontal:
                x += sx * (1 - params.a)
                m += sx
                side = LEFT if sx > 0 else RIGHT
                sx = -sx
            else:
                y += sy * (1 - params.b)
                n += sy
                side = BOTTOM if sy > 0 else TOP
                sy = -sy
            yield side, (m, n), PointQ(x, y)
    walk = Orbit(start, params)
    for k, t, m, n, _adx in walk:
        yield DOMAINS[k][0], (m, n), walk.position(k, t, m, n)


def collision_sequence(start: BilliardState, params: Params,
                       n_collisions: int) -> list:
    """The (side, cell) combinatorics of the first n collisions."""
    _check_count(n_collisions)
    return [(side, cell) for side, cell, _pos
            in islice(_collisions(start, params), n_collisions)]


def trace(start: BilliardState, params: Params, n_collisions: int) -> TracedPath:
    """Exact polyline of the first n collision points, start included.

    Truncated at a corner hit and tagged singular in that case.
    """
    _check_count(n_collisions)
    validate_state(start, params)
    points = [start.position]
    try:
        for _side, _cell, pos in islice(_collisions(start, params),
                                        n_collisions):
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
            orient = orientation
            if side == TOP:
                orient = (orientation[0], 1)
            elif side == BOTTOM:
                orient = (orientation[0], -1)
            elif side == RIGHT:
                orient = (1, orientation[1])
            elif side == LEFT:
                orient = (-1, orientation[1])
            try:
                state = make_state(params, cell, side,
                                   Fraction(1, denom) * length, slope, orient)
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
    n0 = _lcm(x.denominator, y.denominator)
    eng = _Engine(params, slope, n0)
    X, Y = eng.encode(point)
    sx, sy = orientation
    res = eng.step(X, Y, sx, sy)
    if res is None:
        return None
    Xn, Yn, side, mm, nn, sxn, syn, _ = res
    pos = PointQ(Fraction(Xn, eng.N), Fraction(Yn, eng.N))
    return BilliardState(pos, side, (mm, nn), (sxn, syn), slope)
