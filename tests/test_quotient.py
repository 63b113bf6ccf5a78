"""The stepper on the quotient by the table's reflections against the
8-domain return map of `support`, which shares no stepping code with it:
single steps, corner hits, blocks of `Orbit.advance` on the power map with
stop cells, runs, and the answers of `classify_trajectory` and
`first_return` from recorded cycles, closed with and without a reflection.
"""

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from math import gcd

from windtree import billiard
from windtree.billiard import (BOTTOM, DOMAINS, LEFT, RIGHT, TOP,
                               BilliardState, Orbit, Outcome,
                               _cycle_store, classify_trajectory,
                               first_return, make_state)
from windtree.errors import CornerHit
from windtree.exact import (ParityClass, PointQ, Slope, classify_params,
                            mediant_enumerate)
from windtree.experiments import quantize_direction

from support import (eager_power_map, eight_domain_return_map,
                     eight_domain_state, eight_domain_steps, later_state,
                     located)

_FIBONACCI = ("233/377", "987/1597", "1597/2584", "4181/6765")


def _cases(seed):
    """(params, slope) pairs: random tables of all three parity classes,
    each with a Fibonacci ratio, a small mediant, and a 64- or 96-bit
    quantized slope."""
    rng = random.Random(seed)
    cases, classes = [], set()
    while len(cases) < 36 or classes != set(ParityClass):
        q, s = rng.randint(2, 9), rng.randint(2, 9)
        p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
        if gcd(p, q) != 1 or gcd(r, s) != 1:
            continue
        params = classify_params(p, q, r, s)
        classes.add(params.parity_class)
        kind = len(cases) % 3
        if kind == 0:
            slope = Slope.parse(rng.choice(_FIBONACCI))
        elif kind == 1:
            slope = rng.choice([m for m in mediant_enumerate(5)
                                if not m.is_axis])
        else:
            theta = Fraction(rng.randint(2**20, 2**22),
                             rng.randint(2**20, 2**22))
            slope = quantize_direction(theta, rng.choice((64, 96))).slope
        cases.append((params, slope))
    return cases


def _start(rng, params, slope):
    """A random start: a boundary point at a random lattice scale, or a
    breakpoint of the 8-domain map, whose orbit runs into a corner."""
    cell = (rng.randint(-3, 3), rng.randint(-3, 3))
    if rng.random() < 0.3:
        cuts = eight_domain_return_map(params, slope.u, slope.v)[0]
        k = rng.choice([k for k, cs in enumerate(cuts) if len(cs) > 1])
        lat = billiard._Lattice(params, slope, 1)
        X, Y = lat.point(k, rng.choice(cuts[k][:-1]), *cell)
        side, orientation = DOMAINS[k]
        return BilliardState(PointQ(Fraction(X, lat.N), Fraction(Y, lat.N)),
                             side, cell, orientation, slope)
    side = rng.choice((LEFT, RIGHT, BOTTOM, TOP))
    den = rng.randint(2, 2**10)
    offset = Fraction(rng.randint(1, den - 1), den) * \
        billiard.side_length(params, side)
    return make_state(params, cell, side, offset, slope,
                      billiard.leaving_orientation(side, (rng.choice((1, -1)),
                                                          rng.choice((1, -1)))))


def _oracle_block(params, start, count, stop_cell):
    """``count`` 8-domain steps from the start, up to a corner or the stop
    cell: (done, k, t, m, n, extent, mlo, mhi, nlo, nhi, corner point)."""
    _, k, t = eight_domain_state(params, start)
    m, n = start.cell
    ms, ns, ext, done, corner = [m], [n], 0, 0, None
    steps = eight_domain_steps(params, start)
    while done < count:
        try:
            k, t, m, n, adx = next(steps)
        except CornerHit as hit:
            corner = hit.point
            break
        done += 1
        ext += adx
        ms.append(m)
        ns.append(n)
        if (m, n) == stop_cell:
            break
    return (done, k, t, m, n, ext, min(ms), max(ms), min(ns), max(ns),
            corner)


def test_quotient_steps_equal_the_eight_domain_oracle():
    # single steps, their positions and corner hits, 150 collisions from
    # each of 4 starts per case
    rng = random.Random(26)
    seen = {"corners": 0, "frames": set(), "steps": 0}
    for params, slope in _cases(1):
        for _ in range(4):
            start = _start(rng, params, slope)
            walk = Orbit(start, params)
            seen["frames"].add(walk.r)
            lat = eight_domain_state(params, start)[0]
            assert lat.N == walk.lattice.N
            got, want = iter(walk), eight_domain_steps(params, start)
            for _ in range(150):
                try:
                    step = next(want)
                except CornerHit as hit:
                    try:
                        next(got)
                    except CornerHit as mine:
                        assert mine.point == hit.point
                    else:
                        raise AssertionError("missed a corner")
                    seen["corners"] += 1
                    break
                k, t, r, m, n, adx = next(got)
                assert (*walk.domain(k, t, r), m, n, adx) == step
                assert walk.point(k, t, r, m, n) == lat.point(*step[:4])
                seen["steps"] += 1
    assert seen["frames"] == {0, 1, 2, 3}
    assert seen["corners"] >= 20 and seen["steps"] >= 10000, seen


def test_quotient_advance_blocks_equal_the_eight_domain_oracle():
    # blocks of 64 to 600 collisions on the power map, free or with a stop
    # cell the orbit reaches inside a piece of T^8 (the cell of one of its
    # collisions past the first 8) or never reaches
    rng = random.Random(27)
    seen = {"stopped": 0, "corner": 0, "full": 0}
    for params, slope in _cases(2):
        for _ in range(3):
            start = _start(rng, params, slope)
            walk = Orbit(start, params)
            count = rng.randint(64, 600)
            free = _oracle_block(params, start, count, None)
            stops = [None]
            if free[0] > 8:
                cells = [s[2:4] for s in islice(
                    eight_domain_steps(params, start), 8, free[0])]
                stops += [rng.choice(cells), (free[7] + 1, free[9] + 1)]
            for stop_cell in stops:
                want = _oracle_block(params, start, count, stop_cell)
                got = walk.advance(walk.k, walk.t, walk.r, *start.cell,
                                   count, stop_cell)
                corner = got[11] and got[11].point
                assert (got[0], *walk.domain(*got[1:4]), *got[4:11],
                        corner) == want
                seen["stopped"] += want[0] < free[0]
                seen["corner"] += corner is not None
                seen["full"] += want[0] == count
    assert min(seen.values()) >= 10, seen


def _oracle_run(params, start, count):
    """The collisions of the run from the start on the 8-domain T^8, at
    most ``count``: 8 times the repeats of its piece where that piece maps
    its domain to itself unflipped, and 0 elsewhere."""
    slope = start.slope
    lat, k, t = eight_domain_state(params, start)
    n0 = lat.N // (2 * params.q * params.s * slope.u * slope.v)
    cuts, pieces = eager_power_map(params, slope.u, slope.v, n0)
    i = bisect_left(cuts[k], t)
    if cuts[k][i] == t:
        return 0
    k2, flip, shift = pieces[k][i][:3]
    if k2 != k or flip or not shift:
        return 0
    lo, hi = cuts[k][i - 1] if i else 0, cuts[k][i]
    reps = 0
    while reps < count // 8 and lo < t < hi:
        t += shift
        reps += 1
    return 8 * reps


def test_quotient_runs_equal_the_eight_domain_oracle():
    # 96-bit directions just above and below slope 1 on 2/3,2/3, whose
    # starts begin runs, and the cases above; starts in every frame
    rng = random.Random(28)
    cases = [(classify_params(2, 3, 2, 3),
              quantize_direction(Fraction(theta), 96).slope)
             for theta in ("1.0000003", "0.9999997", "1.0000005")]
    seen = {"runs": 0, "frames": set()}
    for params, slope in cases + _cases(3)[:12]:
        for _ in range(12):
            start = _start(rng, params, slope)
            walk = Orbit(start, params)
            count = rng.randint(0, 20000)
            want = _oracle_run(params, start, count)
            assert walk.run(walk.k, walk.t, count) == want
            if want:
                seen["runs"] += 1
                seen["frames"].add(walk.r)
    assert seen["runs"] >= 20 and seen["frames"] == {0, 1, 2, 3}, seen


def _mirror(state, fx, fy):
    """The image of a state under x -> -x (fx) and y -> -y (fy)."""
    swap = {LEFT: RIGHT, RIGHT: LEFT} if fx else {}
    swap.update({BOTTOM: TOP, TOP: BOTTOM} if fy else {})
    (x, y), (m, n), (sx, sy) = (state.position.x, state.position.y), \
        state.cell, state.orientation
    return BilliardState(PointQ(-x if fx else x, -y if fy else y),
                         swap.get(state.side, state.side),
                         (-m if fx else m, -n if fy else n),
                         (-sx if fx else sx, -sy if fy else sy), state.slope)


def _oracle_outcome(params, start, cap):
    """classify_trajectory on the 8 domains: the first return to the start
    state within ``cap`` collisions, a corner, or undetermined."""
    lat, k0, t0 = eight_domain_state(params, start)
    vN = start.slope.v * lat.N
    i = total = 0
    steps = eight_domain_steps(params, start)
    try:
        for k, t, m, n, adx in islice(steps, cap):
            i += 1
            total += adx
            if (k, t) == (k0, t0):
                drift = (m - start.cell[0], n - start.cell[1])
                kind = Outcome.PERIODIC if drift == (0, 0) \
                    else Outcome.ESCAPING
                return kind, i, Fraction(total, vN), drift
        next(steps)
    except CornerHit as hit:
        return Outcome.SINGULAR, i, Fraction(total, vN), hit.point
    return Outcome.UNDETERMINED, cap, Fraction(total, vN), (0, 0)


def _oracle_return(params, start, horizon):
    """first_return on the 8 domains, for a start that meets no corner."""
    vN = start.slope.v * eight_domain_state(params, start)[0].N
    total, cell = 0, None
    for i, (_, _, m, n, adx) in enumerate(
            islice(eight_domain_steps(params, start), horizon), 1):
        total += adx
        cell = (m - start.cell[0], n - start.cell[1])
        if cell == (0, 0):
            return i, cell, Fraction(total, vN), False
    return None, cell, Fraction(total, vN), False


def _outcome(out):
    return (out.kind, out.combinatorial_length, out.geometric_length,
            out.corner and (out.corner.x, out.corner.y)
            if out.kind is Outcome.SINGULAR else out.drift)


def test_quotient_cycle_answers_equal_the_eight_domain_oracle():
    # classify_trajectory and first_return from a cold store (the walk
    # that records) and from a warm one (the start and its 3 mirror
    # images, answered from the recorded cycle), with budgets below, at
    # and above the period; cycles closed with the identity and with a
    # reflection are both seen
    rng = random.Random(29)
    seen = {"identity": 0, "reflection": 0, "answered": 0}
    for params, slope in _cases(4):
        for _ in range(2):
            start = _start(rng, params, slope)
            want = _oracle_outcome(params, start, 30000)
            _cycle_store.cache_clear()
            assert _outcome(classify_trajectory(start, params, 30000)) == want
            if want[0] not in (Outcome.PERIODIC, Outcome.ESCAPING):
                continue
            for cyc in _cycle_store(params, slope.u, slope.v).cycles:
                seen["reflection" if cyc.reflection else "identity"] += 1
            period = want[1]
            images = [_mirror(start, fx, fy)
                      for fx, fy in ((0, 0), (1, 0), (0, 1), (1, 1))]
            for cap in (period - 1, period, 2 * period + 3):
                for image in images:
                    assert _outcome(classify_trajectory(image, params,
                                                        cap)) == \
                        _oracle_outcome(params, image, cap)
            for horizon in (1, period // 2, period, 3 * period + 1):
                for image in images:
                    assert first_return(image, params, horizon) == \
                        _oracle_return(params, image, horizon)
                    seen["answered"] += 1
    assert min(seen.values()) >= 10, seen


def test_quotient_first_returns_from_later_phases():
    # starts at later phases of a recorded cycle, and their mirror images,
    # which walk to a landmark before they are answered: first_return and
    # classify_trajectory from the store against the 8-domain oracle, at
    # horizons inside the first round, across rounds of both parities and
    # past the period
    rng = random.Random(30)
    seen = {"identity": 0, "reflection": 0, "walked": 0, "returned": 0}
    for params, slope in _cases(5) + _cases(6):
        start = _start(rng, params, slope)
        _cycle_store.cache_clear()
        period = _oracle_outcome(params, start, 30000)
        if period[0] not in (Outcome.PERIODIC, Outcome.ESCAPING):
            continue
        period = period[1]
        classify_trajectory(start, params, 30000)
        [cyc] = _cycle_store(params, slope.u, slope.v).cycles
        seen["reflection" if cyc.reflection else "identity"] += 1
        for j in rng.sample(range(1, 2 * period), min(4, 2 * period - 1)):
            later = later_state(params, start, j)
            for fx, fy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                image = _mirror(later, fx, fy)
                found = located(_cycle_store(params, slope.u, slope.v),
                                Orbit(image, params))
                seen["walked"] += found is not None and found[2] > 0
                assert _outcome(classify_trajectory(image, params, 30000)) \
                    == _oracle_outcome(params, image, 30000)
                for horizon in (1, rng.randint(2, period),
                                rng.randint(period, 3 * period), 4 * period):
                    want = _oracle_return(params, image, horizon)
                    assert first_return(image, params, horizon) == want
                    seen["returned"] += want[0] is not None
        assert len(_cycle_store(params, slope.u, slope.v).cycles) == 1
    assert min(seen.values()) >= 10, seen
