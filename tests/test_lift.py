import random
from fractions import Fraction
from math import gcd

import pytest

from windtree.billiard import (Orbit, Outcome, _direction_cycles,
                               _return_map, classify_trajectory, launch,
                               make_state, midpoint_state, regular_start)
from windtree.errors import CornerHit, DomainError
from windtree.exact import (Params, PointQ, Slope, classify_params,
                            mediant_enumerate)
from windtree import lift
from windtree.lift import (LiftKind, abc_strip_check, fold_cell_point,
                           fold_to_table, inverse_word, lift_direction,
                           transport_point, transport_points,
                           wpoint_orbit_partition)
from windtree.origami import (build_origami, decompose_table_direction,
                              scaled_direction_gcd, sl2z_act)

HALF = classify_params(1, 2, 1, 2)
TWO_THIRDS = classify_params(2, 3, 2, 3)


def reduced_slopes(limit):
    return [Slope(u, v) for u in range(1, limit + 1) for v in range(1, limit + 1)
            if gcd(u, v) == 1]


def _is_int(x):
    return x.denominator == 1


def _is_half_int(x):
    return x.denominator == 2


def test_fold_special_points_to_table():
    for params in (HALF, TWO_THIRDS, classify_params(1, 4, 1, 2)):
        og = build_origami(params)
        marked = og.marked_by_label()
        folded = {lab: fold_cell_point(params, mp.cell, mp.x, mp.y)
                  for lab, mp in marked.items()}
        a2, b2 = params.a / 2, params.b / 2
        # E is the midpoint of a horizontal obstacle side, F of a vertical one
        assert _is_int(folded["E"].x) and abs(folded["E"].y) % 1 in (b2, 1 - b2)
        assert _is_int(folded["F"].y) and abs(folded["F"].x) % 1 in (a2, 1 - a2)
        # D is an obstacle corner
        assert abs(folded["D"].x) % 1 in (a2, 1 - a2)
        assert abs(folded["D"].y) % 1 in (b2, 1 - b2)
        # A, B, C are the three centers of symmetry between obstacles
        assert _is_half_int(folded["A"].x) and _is_half_int(folded["A"].y)
        assert _is_int(folded["B"].x) and _is_half_int(folded["B"].y)
        assert _is_half_int(folded["C"].x) and _is_int(folded["C"].y)
    # frozen half-size representatives (fold lands in [-1/2, 1/2)^2)
    og = build_origami(HALF)
    marked = og.marked_by_label()
    folded = {lab: fold_cell_point(HALF, mp.cell, mp.x, mp.y)
              for lab, mp in marked.items()}
    assert folded["E"] == PointQ(Fraction(0), Fraction(1, 4))
    assert folded["F"] == PointQ(Fraction(1, 4), Fraction(0))
    assert folded["D"] == PointQ(Fraction(1, 4), Fraction(1, 4))
    assert folded["A"] == PointQ(Fraction(-1, 2), Fraction(-1, 2))


def test_transport_point_roundtrip():
    og = build_origami(TWO_THIRDS)
    rng = random.Random(3)
    for _ in range(20):
        word = "".join(rng.choice("TtSs") for _ in range(rng.randint(0, 8)))
        cell = rng.randrange(og.n)
        x, y = Fraction(rng.randrange(1, 7), 7), Fraction(rng.randrange(1, 5), 5)
        moved = transport_point(og, word, cell, x, y)
        ren = sl2z_act(og, word)
        back = transport_point(ren, inverse_word(word), *moved)
        assert back == (cell, x, y)


def test_transport_points_matches_one_point_at_a_time():
    rng = random.Random(11)
    for params in (HALF, TWO_THIRDS, classify_params(1, 5, 2, 7)):
        og = build_origami(params)
        for _ in range(10):
            word = "".join(rng.choice("TtSs") for _ in range(rng.randint(0, 10)))
            points = [(rng.randrange(og.n), Fraction(rng.randrange(4), 4),
                       Fraction(rng.randrange(3), 3)) for _ in range(6)]
            assert transport_points(og, word, points) == [
                transport_point(og, word, *pt) for pt in points]


def test_lift_direction_matches_per_point_transport(monkeypatch):
    cases = [(params, slope)
             for params in (HALF, TWO_THIRDS, classify_params(1, 3, 1, 3),
                            classify_params(1, 5, 2, 7))
             for slope in reduced_slopes(4)]
    batched = [lift_direction(p, s) for p, s in cases]
    one_at_a_time = transport_points

    def per_point(og, word, points):
        return [one_at_a_time(og, word, [pt])[0] for pt in points]

    monkeypatch.setattr(lift, "transport_points", per_point)
    assert [lift_direction(p, s) for p, s in cases] == batched


def test_good_directions_are_strongly_parabolic_with_factor_two():
    for slope in (Slope(1, 1), Slope(1, 3), Slope(3, 1), Slope(5, 3), Slope(3, 7)):
        report = lift_direction(HALF, slope)
        assert report.strongly_parabolic
        assert len(report.x_behavior) == 1
        assert report.x_behavior[0].kind is LiftKind.CLOSES
        assert report.x_behavior[0].factor == 2


def test_doubling_law_on_rectangular_tables():
    # the factor-2 law is not special to square obstacles; note the good
    # directions need not be odd/odd away from a = b = 1/2
    from windtree.origami import enumerate_good_directions
    expected = {
        (1, 2, 1, 4): ["1/2", "3/2"],
        (3, 4, 1, 2): ["2/5", "2/3", "2/1"],
        (1, 4, 3, 4): ["1/5", "1/3", "3/5", "1/1", "5/3", "3/1", "5/1"],
        (1, 2, 3, 4): ["1/2", "3/2", "5/2"],
    }
    for pqrs, dirs in expected.items():
        params = classify_params(*pqrs)
        good = enumerate_good_directions(params, 5)
        assert [str(s) for s in good] == dirs
        for slope in good:
            report = lift_direction(params, slope)
            assert report.strongly_parabolic
            assert report.x_behavior[0].factor == 2


def test_two_cylinder_directions_on_half_table_are_all_strips():
    # even-parity slopes: both cylinders stretch to infinite strips
    for slope in (Slope(1, 2), Slope(2, 1), Slope(3, 4)):
        report = lift_direction(HALF, slope)
        assert len(report.y_decomposition.cylinders) == 2
        assert not report.strongly_parabolic
        assert all(b.kind is LiftKind.STRIP for b in report.x_behavior)


def test_horizontal_direction_mixes_strip_and_double_cover():
    report = lift_direction(HALF, Slope(0, 1))
    kinds = sorted(b.kind.value for b in report.x_behavior)
    assert kinds == ["ClosesWithFactor", "Strip"]
    assert not report.strongly_parabolic
    for cyl, b in zip(report.y_decomposition.cylinders, report.x_behavior):
        if b.kind is LiftKind.CLOSES:
            assert b.factor == 2
            assert set(cyl.waist_marked_points) == {"C", "F"}
        else:
            assert set(cyl.waist_marked_points) == {"A", "B"}


def test_even_odd_class_has_no_completely_periodic_direction():
    for slope in reduced_slopes(7):
        report = lift_direction(TWO_THIRDS, slope)
        assert any(b.kind is LiftKind.STRIP for b in report.x_behavior), str(slope)


def test_no_completely_periodic_direction_on_more_even_odd_tables():
    for pqrs in ((2, 5, 2, 3), (2, 3, 2, 5), (4, 5, 2, 3)):
        params = classify_params(*pqrs)
        for slope in reduced_slopes(5):
            report = lift_direction(params, slope)
            assert any(b.kind is LiftKind.STRIP for b in report.x_behavior), \
                (str(params), str(slope))


def test_even_odd_one_cylinder_directions_kill_all_periodic_orbits():
    one_cyl = [sl for sl in reduced_slopes(5)
               if len(lift_direction(TWO_THIRDS, sl).y_decomposition.cylinders) == 1]
    assert one_cyl, "expected some one-cylinder directions"
    for slope in one_cyl:
        checked = 0
        for k in range(3, 40):
            if checked >= 10:
                break
            for side in ("top", "left"):
                length = TWO_THIRDS.a if side == "top" else TWO_THIRDS.b
                try:
                    state = make_state(TWO_THIRDS, (0, 0), side,
                                       Fraction(1, k) * length, slope,
                                       (1, 1) if side == "top" else (-1, 1))
                except DomainError:
                    continue
                out = classify_trajectory(state, TWO_THIRDS)
                if out.kind is Outcome.SINGULAR:
                    continue
                assert out.kind is Outcome.ESCAPING, (str(slope), side, k)
                checked += 1
        assert checked >= 10


def test_strongly_parabolic_implies_periodic_from_random_starts():
    rng = random.Random(11)
    report = lift_direction(HALF, Slope(3, 7))
    assert report.strongly_parabolic
    found = 0
    while found < 20:
        side = rng.choice(("top", "bottom", "left", "right"))
        length = HALF.a if side in ("top", "bottom") else HALF.b
        off = Fraction(rng.randrange(1, 64), 64) * length
        orient = (rng.choice((1, -1)), rng.choice((1, -1)))
        try:
            state = make_state(HALF, (0, 0), side, off, Slope(3, 7), orient)
        except DomainError:
            continue
        out = classify_trajectory(state, HALF)
        if out.kind is Outcome.SINGULAR:
            continue
        assert out.kind is Outcome.PERIODIC
        found += 1


def test_abc_strip_check_on_two_cylinder_directions():
    assert abc_strip_check(HALF, Slope(1, 2))
    assert abc_strip_check(HALF, Slope(2, 1))
    assert abc_strip_check(HALF, Slope(0, 1))
    with pytest.raises(DomainError):
        abc_strip_check(HALF, Slope(1, 1))  # one cylinder: waist holds E, F


def test_abc_strip_check_near_one_for_two_thirds():
    for slope in (Slope(16, 17), Slope(17, 16), Slope(9, 8)):
        try:
            assert abc_strip_check(TWO_THIRDS, slope)
        except DomainError:
            # some directions put only one block center on each waist
            report = lift_direction(TWO_THIRDS, slope)
            assert any(b.kind is LiftKind.STRIP for b in report.x_behavior)


def test_wpoint_orbit_partition():
    part = wpoint_orbit_partition(HALF)
    assert part == frozenset({frozenset({"A", "B", "C"}),
                              frozenset({"D"}),
                              frozenset({"E", "F"})})
    with pytest.raises(DomainError):
        wpoint_orbit_partition(TWO_THIRDS)


def test_wpoint_partition_invariant_under_random_words():
    rng = random.Random(5)
    base = wpoint_orbit_partition(HALF)
    for _ in range(10):
        extra = []
        for _ in range(rng.randint(1, 3)):
            # words in the two affine generators only
            extra.append("".join(rng.choice(("TT", "S"))
                                 for _ in range(rng.randint(1, 5))))
        part = wpoint_orbit_partition(HALF, words=("TT", "S", *extra))
        assert part == base


# The direction-sweep surfaces: all three parity classes, 3 to 1909 cells.
SWEEP_SURFACES = ("1/2,1/2", "2/3,2/3", "1/3,1/3", "1/5,2/7", "4/13,4/5",
                  "4/25,6/13", "3/44,9/44")


def _fold_cycle(params, slope, decomp, ci, cycles):
    """The census cycle that holds cylinder ci's fold point, the way
    lift_direction picks it (the first candidate that launches onto a
    regular orbit), or "corridor" when the fold point's ray meets no
    obstacle."""
    candidates = list(lift._cylinder_samples(decomp, ci, count=5))
    moved = transport_points(decomp.renormalized, inverse_word(decomp.word),
                             candidates)
    for ocell, ox, oy in moved:
        try:
            state = launch(params, fold_cell_point(params, ocell, ox, oy),
                           slope, (1, 1))
        except (CornerHit, DomainError):
            continue
        if state is None:
            return "corridor"
        walk = Orbit(state, params)
        n0 = walk.n0
        for cyc, phases in cycles:
            if any(k == walk.k and n0 * lo < walk.t < n0 * hi
                   for k, lo, hi in phases):
                return cyc
        # on an interval end: a singular fold, which lift also skips
    raise AssertionError(f"no regular fold point in cylinder {ci}")


@pytest.mark.parametrize("text", SWEEP_SURFACES)
def test_direction_cycles_match_the_lift(text):
    # the billiard census (cycles covering the 8 domains, plus corridors)
    # against the surface lift, which shares no code with it
    params = Params.parse(text)
    for slope in mediant_enumerate(4):
        if slope.is_axis:
            continue
        cycles, corridor = _direction_cycles(params, slope)
        # the cycles tile every domain
        length = [0] * 8
        for cyc, phases in cycles:
            assert len(phases) == cyc.length
            for k, lo, hi in phases:
                assert hi - lo == cyc.hi - cyc.lo
                length[k] += hi - lo
        assert length == [cs[-1] for cs in
                          _return_map(params, slope.u, slope.v)[0]]
        report = lift_direction(params, slope)
        periodic = corridor is None and all(c.drift == (0, 0)
                                            for c, _ in cycles)
        assert periodic == all(b.closes for b in report.x_behavior)
        decomp = decompose_table_direction(params, slope)
        g = scaled_direction_gcd(params, slope)
        unit = slope.v * 2 * params.q * params.s * slope.u * slope.v
        for ci, (cyl, beh) in enumerate(zip(decomp.cylinders,
                                            report.x_behavior)):
            cyc = _fold_cycle(params, slope, decomp, ci, cycles)
            if cyc == "corridor":
                assert corridor == beh.drift == (slope.v, slope.u)
                continue
            assert (cyc.drift == (0, 0)) == beh.closes
            if beh.closes:
                assert Fraction(cyc.extent, unit) == \
                    beh.factor * Fraction(cyl.circumference, g)
            else:
                assert cyc.drift == beh.drift
