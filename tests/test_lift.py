import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windtree.billiard import (Orbit, Outcome, _return_map,
                               classify_trajectory, launch, make_state,
                               regular_start)
from windtree.errors import CornerHit, DomainError
from windtree.exact import (Params, PointQ, Slope, classify_params,
                            mediant_enumerate)
from windtree import lift
from windtree.lift import (LiftKind, abc_strip_check, fold_cell_point,
                           fold_to_table, lift_direction,
                           wpoint_orbit_partition)
from windtree.origami import (MarkedPoint, Origami, _horizontal_cylinders,
                              build_origami, decompose_direction,
                              decompose_table_direction,
                              scaled_direction_gcd, sl2z_act)

from census import direction_cycles
from support import inverse_word, midpoint_state

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


def test_strip_drift_is_the_first_regular_samples():
    # 1/2,1/2 at 3/2: the samples of cylinder 1 fold onto two reflected
    # sheets of the table, whose drifts differ in the sign of m
    slope = Slope(3, 2)
    decomp = decompose_table_direction(HALF, slope)
    samples = decomp.pull_back(list(lift._cylinder_samples(decomp, 1)))
    drifts = [lift._classify_fold(HALF, slope,
                                  fold_cell_point(HALF, *pt))[1]
              for pt in samples]
    assert drifts == [(-1, 2), (1, 2), (1, 2), (1, 2), (1, 2)]
    assert lift_direction(HALF, slope).x_behavior[1].drift == (-1, 2)


def test_strip_samples_must_agree_up_to_signs(monkeypatch):
    def fake(drifts):
        it = iter(drifts)
        return lambda params, slope, point: ("strip", next(it))

    monkeypatch.setattr(lift, "_classify_fold",
                        fake([(2, -1), (-2, -1), (2, 1)] * 2))
    report = lift_direction(HALF, Slope(3, 4))
    assert [b.drift for b in report.x_behavior] == [(2, -1), (2, -1)]
    monkeypatch.setattr(lift, "_classify_fold",
                        fake([(1, 2), (-1, 2), (1, 4)]))
    with pytest.raises(AssertionError, match="beyond the signs"):
        lift_direction(HALF, Slope(3, 4))


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


@st.composite
def _random_tables(draw):
    q, s = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    p = draw(st.sampled_from([p for p in range(1, q) if gcd(p, q) == 1]))
    r = draw(st.sampled_from([r for r in range(1, s) if gcd(r, s) == 1]))
    return classify_params(p, q, r, s)


_IN_CELL = st.just(Fraction(0)) | st.integers(1, 13).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda k: Fraction(k, d)))


@pytest.mark.parametrize("table", SWEEP_SURFACES + ("random",))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pull_back_matches_transport_property(table, data):
    # pull_back against carrying the points as extra marked points of the
    # renormalized surface through the inverse word; lattice corners are
    # left out, because a checked surface re-expresses them
    params = data.draw(_random_tables()) if table == "random" \
        else Params.parse(table)
    u, v = data.draw(st.tuples(st.integers(0, 40), st.integers(0, 40))
                     .filter(lambda t: gcd(*t) == 1))
    decomp = decompose_table_direction(params, Slope(u, v))
    ren = sl2z_act(build_origami(params), decomp.word)
    points = data.draw(st.lists(
        st.tuples(st.integers(0, ren.n - 1), _IN_CELL, _IN_CELL)
        .filter(lambda pt: pt[1] or pt[2]), min_size=1, max_size=8))
    probes = tuple(MarkedPoint("_probe", *pt) for pt in points)
    back = sl2z_act(Origami(ren.h, ren.v, ren.marked + probes),
                    inverse_word(decomp.word))
    og = build_origami(params)
    assert (back.h, back.v, back.marked[:len(og.marked)]) == \
        (og.h, og.v, og.marked)
    assert decomp.pull_back(points) == [
        (mp.cell, mp.x, mp.y) for mp in back.marked[len(og.marked):]]


def _cylinders_of_checked_image(og, word):
    """(circumference, height, cells, waist labels) of each horizontal
    cylinder of the checked surface sl2z_act(og, word), whose marked
    lattice corners are re-expressed, in order of their smallest cell."""
    ren = sl2z_act(og, word)
    rows, stacks = _horizontal_cylinders(ren.h, ren.v)
    out = []
    for chain in stacks:
        level = {c: j for j, r in enumerate(chain) for c in rows[r]}
        waist = sorted(mp.label for mp in ren.marked if mp.cell in level
                       and 2 * (level[mp.cell] + mp.y) == len(chain))
        out.append((len(rows[chain[0]]), len(chain), frozenset(level),
                    tuple(waist)))
    return sorted(out, key=lambda cyl: min(cyl[2]))


def _assert_decompositions_match_checked_images(params):
    # decompose_direction reads the stepped gluings and leaves marked
    # lattice corners where they arrive; the checked image of its word
    # must give the same cylinders and waists
    og = build_origami(params)
    for slope in mediant_enumerate(6) + [Slope(0, 1), Slope(1, 0)]:
        decomp = decompose_direction(og, slope)
        got = [(cyl.circumference, cyl.height, cyl.cells,
                cyl.waist_marked_points) for cyl in decomp.cylinders]
        assert got == _cylinders_of_checked_image(og, decomp.word)


@pytest.mark.parametrize("table", SWEEP_SURFACES)
def test_decompositions_match_checked_images_on_sweep_surfaces(table):
    _assert_decompositions_match_checked_images(Params.parse(table))


@settings(max_examples=30, deadline=None)
@given(params=_random_tables())
def test_decompositions_match_checked_images_on_random_tables(params):
    _assert_decompositions_match_checked_images(params)


def _fold_cycle(params, slope, decomp, ci, cycles):
    """The census cycle that holds cylinder ci's fold point, the way
    lift_direction picks it (the first candidate that launches onto a
    regular orbit), or "corridor" when the fold point's ray meets no
    obstacle."""
    candidates = list(lift._cylinder_samples(decomp, ci))
    for ocell, ox, oy in decomp.pull_back(candidates):
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
        cycles, corridor = direction_cycles(params, slope)
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
