"""The billiard census of a rational direction: every cylinder of the
table's flow in that direction, found by the billiard alone.

`direction_cycles` covers the 8 outgoing domains of the boundary return map
with recorded cycles, walking each start the cycle store does not know
yet; the tests check it against the surface lift, which shares no code
with it, and against the store's bookkeeping.  It takes only answers of
`_CycleStore.locate` that need no reflection: a start whose reflection
lies on a recorded cycle still needs its own cycle walked and recorded,
so that the cycles found tile every domain.  `locate` answers without a
reflection whenever it can, so a reflected answer means that the start
itself lies on no recorded cycle.  It reads the package's
private return-map and cycle data, so a change to those updates it too.
"""

from fractions import Fraction
from itertools import chain, islice

from windtree.billiard import (_LEAF, DOMAINS, BilliardState, Orbit, _Cycle,
                               _cycle_store, _down, _Lattice, _return_map,
                               _walk_period)
from windtree.exact import Params, PointQ, Slope


def direction_cycles(params: Params, slope: Slope) -> tuple:
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
            if hit is None or hit[1] != (1, 1):
                # odd points at n0 = 2 meet no corner, and they close
                # within the count of reduced states
                hit = (_walk_period(walk, limit, store).cycle,
                       0, 0, 0, 0, 0, walk.t), (1, 1)
            cyc, b, s = hit[0][:3]
            phases = cycle_phases(walk, cyc)
            for kk, lo, hi in phases:
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
