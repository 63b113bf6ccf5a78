"""Reference collision stepper for the engine-equivalence tests: a ray
marched across the side lines of the obstacle grid one line at a time.

This is the stepper the package used before first hits were found by
first entry (`windtree.billiard._first_hit`).  It shares no code with the
package beyond the table parameters and the side names.  The helpers
below it pick out the starts whose flights are long and check that a
return map has no unresolved piece.
"""

from fractions import Fraction
from math import lcm

from windtree.errors import CornerHit

LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"


class GridStepper:
    """Integer-scaled collision stepper for a fixed slope u/v with u, v >= 1.

    Coordinates are integers counting multiples of 1/N, with
    N = 2*q*s*u*v*n0.  Vertical side lines sit at k*N +- beta, horizontal
    ones at k*N +- gamma.  ``cap`` bounds the grid lines one step crosses;
    the default covers two primitive periods of the ray, past which
    nothing new is ever hit.
    """

    def __init__(self, params, slope, n0, cap=None):
        u, v = slope.u, slope.v
        N = 2 * params.q * params.s * u * v * n0
        self.N = N
        self.beta = params.p * (N // (2 * params.q))
        self.gamma = params.r * (N // (2 * params.s))
        self.u = u
        self.v = v
        self.cap = 8 * (u + v) + 32 if cap is None else cap

    @staticmethod
    def _next_grid(pos, sign, N, off):
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

    @staticmethod
    def _div(num, den):
        quot, rem = divmod(num, den)
        assert not rem, "inexact division"
        return quot

    def encode(self, point):
        X, Y = point.x * self.N, point.y * self.N
        assert X.denominator == Y.denominator == 1
        return int(X), int(Y)

    def step(self, X, Y, sx, sy):
        """March to the next collision.

        Returns (X', Y', side, m, n, sx', sy', |dX|), or None when no
        obstacle is met within ``cap`` grid lines.  Raises CornerHit.
        """
        N, beta, gamma, u, v = self.N, self.beta, self.gamma, self.u, self.v
        half = N // 2
        X0 = X
        for _ in range(self.cap):
            XV = self._next_grid(X, sx, N, beta)
            YH = self._next_grid(Y, sy, N, gamma)
            if u * abs(XV - X) <= v * abs(YH - Y):
                Ynew = Y + sy * self._div(u * abs(XV - X), v)
                if XV % N == beta:
                    side, m = RIGHT, (XV - beta) // N
                else:
                    side, m = LEFT, (XV + beta) // N
                n = (Ynew + half) // N
                d = abs(Ynew - n * N)
                if d < gamma:
                    return (XV, Ynew, side, m, n, -sx, sy, abs(XV - X0))
                if d == gamma:
                    raise CornerHit(Fraction(XV, N), Fraction(Ynew, N))
                X, Y = XV, Ynew
            else:
                Xnew = X + sx * self._div(v * abs(YH - Y), u)
                if YH % N == gamma:
                    side, n = TOP, (YH - gamma) // N
                else:
                    side, n = BOTTOM, (YH + gamma) // N
                m = (Xnew + half) // N
                d = abs(Xnew - m * N)
                if d < beta:
                    return (Xnew, YH, side, m, n, sx, -sy, abs(Xnew - X0))
                if d == beta:
                    raise CornerHit(Fraction(Xnew, N), Fraction(YH, N))
                X, Y = Xnew, YH
        return None


# Flights across more grid lines than this are long: slopes close to a
# rational one, on tables with open corridors, fly them along a corridor.
LONG_FLIGHT = 1024


def long_flight(params, state):
    """Whether the first flight of ``state`` crosses more than LONG_FLIGHT
    grid lines."""
    ref = GridStepper(params, state.slope,
                      lcm(state.position.x.denominator,
                          state.position.y.denominator), cap=LONG_FLIGHT)
    try:
        return ref.step(*ref.encode(state.position), *state.orientation) is None
    except CornerHit:
        return False


def assert_resolved(params, slope):
    """Every piece of the slope's return map is a translation."""
    from windtree.billiard import _return_map
    cuts, pieces, _ = _return_map(params, slope.u, slope.v)
    assert [len(row) for row in pieces] == [len(cs) for cs in cuts]
    assert all(len(p) == 7 for row in pieces for p in row)


def long_pieces(params, slope):
    """(k, i) of the pieces of the slope's return map whose flights are
    long, tested just above each piece's low end."""
    from windtree.billiard import DOMAINS, BilliardState, _Lattice, _return_map
    from windtree.exact import PointQ
    lat = _Lattice(params, slope, 3)
    out = []
    for k, cs in enumerate(_return_map(params, slope.u, slope.v)[0]):
        side, orientation = DOMAINS[k]
        for i in range(len(cs)):
            X, Y = lat.point(k, 3 * (cs[i - 1] if i else 0) + 1, 0, 0)
            state = BilliardState(PointQ(Fraction(X, lat.N), Fraction(Y, lat.N)),
                                  side, (0, 0), orientation, slope)
            if long_flight(params, state):
                out.append((k, i))
    return out
