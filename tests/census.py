"""The billiard census of a rational direction: every cylinder of the
table's flow in that direction, found by the billiard alone.

`direction_cycles` covers the 2 domains of the boundary return map on the
quotient by the table's reflections with recorded cycles, walking a start
in each gap between the cycles found so far, which the walk finds in the
cycle store or records; the tests check it against the
surface lift, which shares no code with it, and against the store's
bookkeeping.  Each quotient cycle stands for the cylinders that are its
images under the reflections.  It reads the package's private return-map
and cycle data, so a change to those updates it too.
"""

from fractions import Fraction
from itertools import chain, islice

from windtree.billiard import (DOMAINS, BilliardState, Orbit, _Cycle,
                               _cycle_store, _down, _Lattice, _return_map,
                               _walk_period)
from windtree.exact import Params, PointQ, Slope


def direction_cycles(params: Params, slope: Slope) -> tuple:
    """Every cylinder of a non-axis rational direction on the table, from
    the billiard alone: the quotient cycles that cover the 2 domains, and
    the straight corridors that meet no obstacle.

    Returns (cycles, corridor).  cycles lists (cycle, phases), phases[j] =
    (k, lo, hi, r) being the open interval, at n0 = 1, that phase j of the
    cycle covers in quotient domain k, and the frame r of the walk that
    recorded it there.  corridor is the drift (v, u) of the corridors, or
    None when every line of the direction meets an obstacle
    (u*a + v*b >= 1).  The direction is completely periodic on the table
    exactly when there is no corridor and every cycle's period drift
    (`_Cycle.orbit`) is (0, 0); otherwise the escaping cycles and the
    corridors are its strips.
    """
    store = _cycle_store(params, slope.u, slope.v)
    cuts = _return_map(params, slope.u, slope.v)[0]
    # twice the reduced quotient states at n0 = 2: a cycle closed with a
    # reflection needs twice its length
    limit = 4 * sum(cs[-1] for cs in cuts)
    lat = _Lattice(params, slope, 2)
    found = []
    ends = [{}, {}]  # ends[k][lo] = hi over the cycles found
    for k in (0, 1):
        pos = 0
        while pos < cuts[k][-1]:
            if pos in ends[k]:
                pos = ends[k][pos]
                continue
            # a point just above pos, on no cycle found yet: on domain 4 its
            # offset is the side's length less t
            t = 2 * pos + 1
            X, Y = lat.point(4 * k, 2 * cuts[k][-1] - t if k else t, 0, 0)
            side, orientation = DOMAINS[4 * k]
            walk = Orbit(BilliardState(PointQ(Fraction(X, lat.N),
                                              Fraction(Y, lat.N)),
                                       side, (0, 0), orientation, slope),
                         params)
            # the walk finds the point's cycle in the store or closes it:
            # odd points at n0 = 2 meet no corner, and they close within
            # the count of reduced states
            cyc, b, s = _walk_period(walk, limit, store).found[:3]
            phases = cycle_phases(walk, cyc)
            for kk, lo, hi, _ in phases:
                if lo in ends[kk]:
                    raise AssertionError("two cycles share an interval")
                ends[kk][lo] = hi
            if phases[(cyc.phase[b] - s) % cyc.length][:2] != (k, pos):
                raise AssertionError("cycle intervals do not tile a domain")
            found.append((cyc, phases))
    corridor = None
    if slope.u * params.a + slope.v * params.b < 1:
        corridor = (slope.v, slope.u)
    return found, corridor


def cycle_phases(walk: Orbit, cyc: _Cycle) -> list:
    """(k, lo, hi, r) of each phase of a recorded cycle, walked from a
    phase-0 point at the lattice scale of ``walk`` (which must be at least
    2), in the recorded frame."""
    n0, k0, r0 = walk.n0, cyc.k[0], cyc.r[0]
    tau = n0 * cyc.lo + 1
    out = []
    for k, t, r, *_ in islice(chain([(k0, tau, r0)],
                                    walk.steps(k0, tau, r0, 0, 0)),
                              cyc.length):
        [off] = _down([t - tau], n0)  # every phase moves with the start
        out.append((k, off + cyc.lo, off + cyc.hi, r))
    return out
