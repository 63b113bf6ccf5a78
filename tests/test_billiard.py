import random
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from windtree import billiard
from windtree.billiard import (BOTTOM, DOMAINS, LEFT, RIGHT, TOP, BilliardState,
                               Orbit, Outcome, TrajectoryOutcome, _Lattice,
                               _cycle_store, _return_map, classify_trajectory,
                               collision_sequence, first_return, launch,
                               leaving_orientation, make_state,
                               next_collision, regular_start,
                               side_length, side_offset, symmetry_check,
                               time_reversed, trace, validate_state)
from windtree.errors import CornerHit, DomainError
from windtree.exact import (Params, ParityClass, PointQ, Slope,
                            classify_params, mediant_enumerate)
from windtree.experiments import quantize_direction, sample_boundary_starts

from census import direction_cycles
from grid_stepper import (GridStepper, assert_resolved, long_flight,
                          long_pieces)
from oracles import scan_next_hit
from support import (eager_power_map, eight_domain_return_map,
                     eight_domain_state, eight_domain_steps, later_state,
                     located, midpoint_state, path_length, quotient_table,
                     scaled_return_map, two_probe_return_map)
from walk_reference import _walk_period as single_piece_walk

HALF = classify_params(1, 2, 1, 2)
TWO_THIRDS = classify_params(2, 3, 2, 3)


def _oracle_step(params, state):
    dx, dy = state.slope.direction(state.orientation)
    return scan_next_hit(params, state.position.x, state.position.y, dx, dy)


def _assert_matches_oracle(params, state):
    want = _oracle_step(params, state)
    assert want is not None
    if want[0] == "corner":
        with pytest.raises(CornerHit) as err:
            next_collision(state, params)
        assert (err.value.x, err.value.y) == want[1]
        return None
    nxt = next_collision(state, params)
    _, point, side, cell = want
    assert (nxt.position.x, nxt.position.y) == point
    assert nxt.side == side
    assert nxt.cell == cell
    # reflection flips exactly the normal sign
    sx, sy = state.orientation
    if side in (LEFT, RIGHT):
        assert nxt.orientation == (-sx, sy)
    else:
        assert nxt.orientation == (sx, -sy)
    return nxt


def test_single_step_from_top_midpoint():
    state = midpoint_state(HALF, (0, 0), TOP, Slope(1, 1), (1, 1))
    nxt = _assert_matches_oracle(HALF, state)
    # verified against the scan oracle once and frozen: the slope-1 ray from
    # (0, 1/4) first meets the left side of the obstacle at (1, 1)
    assert nxt.position == PointQ(Fraction(3, 4), Fraction(1, 1))
    assert nxt.side == LEFT and nxt.cell == (1, 1)


def test_single_step_oracle_sweep():
    slopes = [Slope(1, 1), Slope(1, 2), Slope(3, 4), Slope(2, 5), Slope(7, 3)]
    offsets = [Fraction(1, 7), Fraction(2, 5), Fraction(9, 13)]
    for params in (HALF, TWO_THIRDS, classify_params(1, 3, 1, 2)):
        for slope in slopes:
            for side in (LEFT, RIGHT, BOTTOM, TOP):
                for off_frac in offsets:
                    for orient in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        length = params.b if side in (LEFT, RIGHT) else params.a
                        try:
                            state = make_state(params, (0, 0), side,
                                               off_frac * length, slope, orient)
                        except DomainError:
                            continue
                        state = _assert_matches_oracle(params, state)
                        # follow the orbit a few more steps
                        for _ in range(3):
                            if state is None:
                                break
                            state = _assert_matches_oracle(params, state)


@settings(max_examples=60, deadline=None)
@given(
    pq=st.sampled_from([(1, 2, 1, 2), (2, 3, 2, 3), (1, 3, 1, 2), (3, 4, 1, 4)]),
    uv=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
    num=st.integers(1, 30),
    den=st.integers(2, 31),
    flip=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
def test_step_matches_oracle_property(pq, uv, side, num, den, flip):
    from math import gcd as _gcd
    u, v = uv
    g = _gcd(u, v)
    params = classify_params(*pq)
    slope = Slope(u // g, v // g)
    length = params.b if side in (LEFT, RIGHT) else params.a
    if num >= den:
        num = num % den or 1
    try:
        state = make_state(params, (0, 0), side, Fraction(num, den) * length,
                           slope, flip)
    except DomainError:
        return
    _assert_matches_oracle(params, state)


def test_corner_aim_is_corner_hit():
    # aim straight at the top-right corner (1/4, 1/4) from (0, 1/4 - 1/4):
    # start on the top side at x = -1/8 with slope 3/1 misses; construct an
    # exact corner shot instead from the top side of (0,0) toward the
    # bottom-left corner of obstacle (1, 1) at (3/4, 3/4): slope (3/4 - 1/4)
    # over (3/4 - 0) = 2/3 from the midpoint (0, 1/4).
    state = midpoint_state(HALF, (0, 0), TOP, Slope(2, 3), (1, 1))
    with pytest.raises(CornerHit) as err:
        next_collision(state, HALF)
    assert (err.value.x, err.value.y) == (Fraction(3, 4), Fraction(3, 4))


def test_classify_periodic_and_escaping_figure_slopes():
    for u, v in ((1, 1), (3, 7), (7, 9), (9, 11), (9, 29)):
        _, out = regular_start(HALF, Slope(u, v))
        assert out.kind is Outcome.PERIODIC, (u, v)
        assert out.drift == (0, 0)
    for u, v in ((3, 4), (10, 17), (14, 17), (16, 37), (16, 39)):
        _, out = regular_start(HALF, Slope(u, v))
        assert out.kind is Outcome.ESCAPING, (u, v)
        assert out.drift != (0, 0)


def test_classify_singular():
    state = midpoint_state(HALF, (0, 0), TOP, Slope(2, 3), (1, 1))
    out = classify_trajectory(state, HALF)
    assert out.kind is Outcome.SINGULAR
    assert out.corner == PointQ(Fraction(3, 4), Fraction(3, 4))


def test_classify_axis_trapped():
    state = midpoint_state(HALF, (0, 0), LEFT, Slope(0, 1), (-1, 1))
    out = classify_trajectory(state, HALF)
    assert out.kind is Outcome.PERIODIC
    assert out.combinatorial_length == 2
    assert out.geometric_length == 1  # 2 * (1 - a) with a = 1/2


def test_classify_axis_start_repeats_its_cell():
    # the 2-bounce orbit from cell (2, 3) is back there after one period
    state = make_state(HALF, (2, 3), RIGHT, Fraction(1, 4), Slope(0, 1),
                       (1, 1))
    out = classify_trajectory(state, HALF)
    assert (out.kind, out.combinatorial_length, out.geometric_length,
            out.drift) == (Outcome.PERIODIC, 2, 1, (0, 0))
    assert out.repeat_cells == ((2, 3), (2, 3))
    assert collision_sequence(state, HALF, 2)[-1][1] == (2, 3)


def test_classify_rejects_fewer_than_one_collision():
    state = midpoint_state(HALF, (0, 0), TOP, Slope(1, 1), (1, 1))
    with pytest.raises(DomainError, match="max_collisions must be >= 1"):
        classify_trajectory(state, HALF, max_collisions=0)


def test_regular_start_reports_an_invalid_orientation():
    # the orientation's error surfaces instead of "no regular start found"
    with pytest.raises(DomainError, match="invalid orientation"):
        regular_start(HALF, Slope(3, 5), (0, 1))


def test_e_preimage_period_doubles_known_value():
    # slope 1 orbit through the E preimage on the half-size table: period 4
    # collisions, length 3 primitive vectors (hand-checked).
    state = midpoint_state(HALF, (0, 0), TOP, Slope(1, 1), (1, 1))
    out = classify_trajectory(state, HALF)
    assert out.kind is Outcome.PERIODIC
    assert out.combinatorial_length == 4
    assert out.geometric_length == 3
    assert out.pre_period == 0


def test_trace_closes_on_periodic_orbit():
    state = make_state(HALF, (0, 0), TOP, Fraction(1, 7) * HALF.a,
                       Slope(3, 7), (1, 1))
    out = classify_trajectory(state, HALF)
    assert out.kind is Outcome.PERIODIC
    path = trace(state, HALF, out.combinatorial_length)
    assert path.points[0] == path.points[-1]
    assert path_length(path, state.slope) == out.geometric_length


def test_trace_zero_collisions_and_singular_tag():
    state = midpoint_state(HALF, (0, 0), TOP, Slope(1, 1), (1, 1))
    assert trace(state, HALF, 0).points == (state.position,)
    bad = midpoint_state(HALF, (0, 0), TOP, Slope(2, 3), (1, 1))
    path = trace(bad, HALF, 10)
    assert path.singular and path.corner is not None


def test_translation_equivariance():
    base = make_state(HALF, (0, 0), TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
    base_out = classify_trajectory(base, HALF)
    assert base_out.kind is Outcome.ESCAPING
    for cell in ((3, -2), (-5, 7)):
        state = make_state(HALF, cell, TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
        out = classify_trajectory(state, HALF)
        assert out.kind is base_out.kind
        assert out.drift == base_out.drift
        assert out.geometric_length == base_out.geometric_length
        assert out.combinatorial_length == base_out.combinatorial_length


def test_mirror_equivariance():
    state = make_state(HALF, (0, 0), TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
    out = classify_trajectory(state, HALF)
    # reflect through the vertical axis x = 0: the top side maps to itself
    # with the offset reversed, and sx flips.
    mirrored = make_state(HALF, (0, 0), TOP, HALF.a - Fraction(2, 11),
                          Slope(3, 4), (-1, 1))
    mout = classify_trajectory(mirrored, HALF)
    assert mout.kind is out.kind
    assert mout.drift == (-out.drift[0], out.drift[1])
    assert mout.geometric_length == out.geometric_length


def test_collision_lattice_denominators():
    # every collision coordinate lies on (1/N)Z with
    # N = 2*q*s*u*v*lcm(start denominators)
    params = TWO_THIRDS
    state = make_state(params, (0, 0), TOP, Fraction(3, 11) * params.a,
                       Slope(3, 4), (1, 1))
    n0 = 33  # lcm of start coordinate denominators (x = -1/3+6/33, y = 1/3)
    from math import lcm
    n0 = lcm(state.position.x.denominator, state.position.y.denominator)
    N = 2 * params.q * params.s * 3 * 4 * n0
    path = trace(state, params, 300)
    for pt in path.points:
        assert N % pt.x.denominator == 0
        assert N % pt.y.denominator == 0


def test_reversibility():
    state = make_state(HALF, (0, 0), TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
    nxt = next_collision(state, HALF)
    back = next_collision(time_reversed(nxt), HALF)
    assert back.position == state.position
    assert back.side == state.side and back.cell == state.cell
    assert time_reversed(back) == state


def test_symmetry_check_e_and_f():
    e_state = midpoint_state(HALF, (0, 0), TOP, Slope(1, 1), (1, 1))
    assert symmetry_check(e_state, HALF, 1)
    assert symmetry_check(e_state, HALF, 50)
    f_state = midpoint_state(HALF, (0, 0), LEFT, Slope(3, 4), (-1, 1))
    assert symmetry_check(f_state, HALF, 50)
    e23 = midpoint_state(TWO_THIRDS, (0, 0), BOTTOM, Slope(5, 3), (1, -1))
    assert symmetry_check(e23, TWO_THIRDS, 40)
    off = make_state(HALF, (0, 0), TOP, Fraction(1, 7), Slope(1, 1), (1, 1))
    with pytest.raises(DomainError):
        symmetry_check(off, HALF, 5)


def test_launch_from_interior():
    got = launch(HALF, PointQ(Fraction(1, 2), Fraction(1, 2)), Slope(1, 2), (1, 1))
    want = scan_next_hit(HALF, Fraction(1, 2), Fraction(1, 2), 2, 1)
    assert want[0] == "hit"
    assert (got.position.x, got.position.y) == want[1]
    assert got.side == want[2] and got.cell == want[3]
    with pytest.raises(DomainError):
        launch(HALF, PointQ(Fraction(0), Fraction(0)), Slope(1, 2), (1, 1))


def test_launch_free_flight_along_corridor():
    # horizontal corridor at height 1/2 never meets a half-size obstacle
    assert launch(HALF, PointQ(Fraction(1, 2), Fraction(1, 2)),
                  Slope(0, 1), (1, 1)) is None
    # but a horizontal ray inside the obstacle band bounces
    got = launch(HALF, PointQ(Fraction(1, 2), Fraction(1, 8)), Slope(0, 1), (1, 1))
    assert got is not None and got.side == LEFT and got.cell == (1, 0)
    # diagonal free flight exists for small obstacles: slope 1 through cell
    # corners of the (1/4, 1/4) table along x = y + 1/2
    small = classify_params(1, 4, 1, 4)
    assert launch(small, PointQ(Fraction(1, 2), Fraction(0)),
                  Slope(1, 1), (1, 1)) is None


def test_first_entry_matches_brute_force():
    # every modulus up to 40, every step, start and interval, against the
    # first visits of the rotation's orbit: the least j >= 0 with
    # a*j mod m in [lo, hi], and with (c + j*a) mod m in [0, width]
    for m in range(1, 41):
        for a in range(m):
            first = {}
            for j in range(m):
                first.setdefault(a * j % m, j)
            for lo in range(m):
                want = None
                for hi in range(lo, m):
                    j = first.get(hi)
                    if j is not None and (want is None or j < want):
                        want = j
                    assert billiard._first_entry(a, m, lo, hi) == want
            for c in range(m):
                want, low = [None] * m, m
                for j in range(m):
                    x = (c + j * a) % m
                    want[x:low] = [j] * max(0, low - x)
                    low = min(low, x)
                assert [billiard._band_entry(c, a, m, w)
                        for w in range(m)] == want


def test_launch_corridor_and_grazing_corner():
    # slope 1/2 on the (1/4, 1/4) table: the obstacles cover x - 2y within
    # 3/8 of an integer, so the line x - 2y = 1/2 is a corridor
    small = classify_params(1, 4, 1, 4)
    start = PointQ(Fraction(1, 2), Fraction(0))
    assert scan_next_hit(small, start.x, start.y, 2, 1) is None
    assert launch(small, start, Slope(1, 2), (1, 1)) is None
    # slope 1 from (1/2, 0) grazes the top-left corner (3/4, 1/4) of the
    # obstacle at (1, 0) without entering it; the flow stops there
    start = PointQ(Fraction(1, 2), Fraction(0))
    assert scan_next_hit(HALF, start.x, start.y, 1, 1) == \
        ("corner", (Fraction(3, 4), Fraction(1, 4)))
    with pytest.raises(CornerHit) as err:
        launch(HALF, start, Slope(1, 1), (1, 1))
    assert (err.value.x, err.value.y) == (Fraction(3, 4), Fraction(1, 4))


# The transposition x <-> y maps the (a, b) table to the (b, a) one, left
# sides to bottom ones and right sides to top ones.
_TRANSPOSED_SIDE = {LEFT: BOTTOM, RIGHT: TOP, BOTTOM: LEFT, TOP: RIGHT}
_TRANSPOSE_TABLES = [(1, 2, 1, 3), (1, 4, 3, 4), (2, 3, 1, 4)]


def _transposed(state):
    if state is None:
        return None
    return BilliardState(PointQ(state.position.y, state.position.x),
                         _TRANSPOSED_SIDE[state.side], state.cell[::-1],
                         state.orientation[::-1],
                         Slope(state.slope.v, state.slope.u))


def _launch_outcome(params, point, slope, orientation):
    try:
        return "state", launch(params, point, slope, orientation)
    except CornerHit as hit:
        return "corner", (hit.x, hit.y)
    except DomainError:
        return "inside", None


@pytest.mark.parametrize("pqrs", _TRANSPOSE_TABLES)
def test_axis_launch_is_transposition_symmetric(pqrs):
    # horizontal rays on (a, b) against vertical rays on (b, a), from every
    # point of a 1/24 grid in two cells: bounces, corridors and grazing
    # corners alike
    p, q, r, s = pqrs
    params, flipped = classify_params(p, q, r, s), classify_params(r, s, p, q)
    kinds = set()
    for m, n in ((0, 0), (2, -1)):
        for i in range(-12, 13):
            for j in range(-12, 13):
                x, y = m + Fraction(i, 24), n + Fraction(j, 24)
                for orientation in _SIGNS:
                    kind, got = _launch_outcome(params, PointQ(x, y),
                                                Slope(0, 1), orientation)
                    want = _launch_outcome(flipped, PointQ(y, x), Slope(1, 0),
                                           orientation[::-1])
                    if kind == "state":
                        kinds.add("corridor" if got is None else "bounce")
                        got = _transposed(got)
                    elif kind == "corner":
                        kinds.add(kind)
                        got = got[::-1]
                    assert (kind, got) == want
    assert kinds == {"bounce", "corridor", "corner"}


@pytest.mark.parametrize("pqrs", _TRANSPOSE_TABLES)
def test_axis_orbits_are_transposition_symmetric(pqrs):
    # trace and collision_sequence of horizontal starts on (a, b) are the
    # transposed ones of vertical starts on (b, a)
    p, q, r, s = pqrs
    params, flipped = classify_params(p, q, r, s), classify_params(r, s, p, q)
    for side in (LEFT, RIGHT):
        for hint in _SIGNS:
            for cell in ((0, 0), (-3, 2)):
                for i in (1, 2, 5):
                    offset = Fraction(i, 7) * params.b
                    orientation = leaving_orientation(side, hint)
                    start = make_state(params, cell, side, offset, Slope(0, 1),
                                       orientation)
                    other = make_state(flipped, cell[::-1],
                                       _TRANSPOSED_SIDE[side], offset,
                                       Slope(1, 0), orientation[::-1])
                    assert _transposed(start) == other
                    path = trace(start, params, 5)
                    assert not path.singular
                    assert [PointQ(pt.y, pt.x) for pt in path.points] == \
                        list(trace(other, flipped, 5).points)
                    assert [(_TRANSPOSED_SIDE[sd], c[::-1]) for sd, c in
                            collision_sequence(start, params, 5)] == \
                        collision_sequence(other, flipped, 5)


def test_make_state_rejects_corners_and_tangents():
    with pytest.raises(DomainError):
        make_state(HALF, (0, 0), TOP, Fraction(0), Slope(1, 1), (1, 1))
    with pytest.raises(DomainError):
        make_state(HALF, (0, 0), TOP, HALF.a, Slope(1, 1), (1, 1))
    with pytest.raises(DomainError):
        make_state(HALF, (0, 0), TOP, Fraction(1, 7), Slope(1, 1), (1, -1))
    with pytest.raises(DomainError):
        make_state(HALF, (0, 0), TOP, Fraction(1, 7), Slope(0, 1), (1, 1))
    with pytest.raises(DomainError):
        make_state(HALF, (0, 0), LEFT, Fraction(1, 7), Slope(1, 0), (-1, 1))


def test_bad_starts_are_refused_alike_as_fractions_and_on_the_lattice():
    # validate_state, Orbit(state), classify_trajectory and Orbit.at on the
    # state's lattice point refuse each bad start with the same message:
    # off the side's line by a lattice unit, at either end of the side or
    # beyond it, into the obstacle, a tangent direction, and an
    # orientation that is not a pair of signs
    params = classify_params(1, 3, 2, 5)  # a != b: the side lines differ
    slope = Slope(3, 5)
    good = make_state(params, (2, -1), LEFT, Fraction(1, 7), slope, (-1, 1))
    x, y = good.position.x, good.position.y
    lo, hi = y - Fraction(1, 7), y - Fraction(1, 7) + params.b
    unit = Fraction(1, 2 * params.q * params.s * 7)
    bad = {"position not interior to the named side": [
               PointQ(x + unit, y), PointQ(x - unit, y), PointQ(x, lo),
               PointQ(x, hi), PointQ(x, lo - unit), PointQ(x, hi + unit)],
           "direction points into the obstacle": [(1, 1), (1, -1)],
           "invalid orientation": [(0, 1), (-1, 2)]}
    for message, changes in bad.items():
        for change in changes:
            field = "position" if isinstance(change, PointQ) else \
                "orientation"
            state = replace(good, **{field: change})
            for check in (validate_state, Orbit, classify_trajectory):
                with pytest.raises(DomainError, match=message):
                    check(state, params)
            pos = state.position
            n0 = lcm(pos.x.denominator, pos.y.denominator)
            with pytest.raises(DomainError, match=message):
                Orbit.at(params, slope, n0,
                         *_Lattice(params, slope, n0).encode(pos),
                         state.side, state.cell, state.orientation)
    tangent = replace(good, slope=Slope(1, 0))
    for check in (validate_state, classify_trajectory):
        with pytest.raises(DomainError,
                           match="direction tangent to a vertical side"):
            check(tangent, params)
    validate_state(good, params)
    with pytest.raises(AssertionError, match="off the collision lattice"):
        _Lattice(params, slope, 1).encode(good.position)  # y has 7 in den


def test_reduced_state_forgets_the_cell():
    s1 = make_state(HALF, (0, 0), TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
    s2 = make_state(HALF, (5, -3), TOP, Fraction(2, 11), Slope(3, 4), (1, 1))
    assert side_offset(s1, HALF) == side_offset(s2, HALF)
    assert side_offset(s1, HALF) == Fraction(2, 11)
    s3 = make_state(HALF, (0, 0), TOP, Fraction(3, 11), Slope(3, 4), (1, 1))
    assert side_offset(s1, HALF) != side_offset(s3, HALF)


def test_collision_sequence_matches_trace():
    state = make_state(HALF, (0, 0), TOP, Fraction(1, 7), Slope(3, 4), (1, 1))
    seq = collision_sequence(state, HALF, 5)
    path = trace(state, HALF, 5)
    cur = state
    for (side, cell), pt in zip(seq, path.points[1:]):
        cur = next_collision(cur, HALF)
        assert (cur.side, cur.cell) == (side, cell)
        assert cur.position == pt


_small_params = st.tuples(st.integers(1, 11), st.integers(2, 12),
                          st.integers(1, 11), st.integers(2, 12)).filter(
    lambda t: t[0] < t[1] and t[2] < t[3]
    and gcd(t[0], t[1]) == 1 and gcd(t[2], t[3]) == 1)


def _big_slope(u, ratio):
    """A slope with 40- to 72-bit entries and a value in [1/4, 4], like a
    quantized direction."""
    return u, max(1, (u * ratio) >> 16)


# Tables with entries up to 12 have open corridors only in directions c/d
# with c + d < 12; a slope within 2^-10 of one can fly along a corridor
# for thousands of cells per collision, and one within 2^-60 for 2^60.
_CORRIDOR_SLOPES = [Fraction(c, d) for c in range(1, 12) for d in range(1, 12)
                    if c + d < 12]


def _clear_of_corridors(uv):
    value = Fraction(*uv)
    return all(abs(value - c) > Fraction(1, 1024) for c in _CORRIDOR_SLOPES)


def _random_start(pqrs, uv, side, num, den, tangent, cell):
    """(params, boundary start) from drawn data."""
    params = classify_params(*pqrs)
    g = gcd(*uv)
    slope = Slope(uv[0] // g, uv[1] // g)
    sign = {LEFT: (-1, tangent), RIGHT: (1, tangent),
            BOTTOM: (tangent, -1), TOP: (tangent, 1)}[side]
    length = params.b if side in (LEFT, RIGHT) else params.a
    offset = Fraction(num % den or 1, den) * length
    return params, make_state(params, cell, side, offset, slope, sign)


@settings(max_examples=150, deadline=None)
@given(pqrs=_small_params,
       uv=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                    st.builds(_big_slope, st.integers(2**40, 2**70),
                              st.integers(2**14, 2**18)).filter(
                                  _clear_of_corridors)),
       side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
       num=st.integers(1, 2**20), den=st.integers(2, 2**16),
       tangent=st.sampled_from([1, -1]),
       cell=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_return_map_matches_engine_property(pqrs, uv, side, num, den, tangent,
                                            cell):
    params, state = _random_start(pqrs, uv, side, num, den, tangent, cell)
    _assert_map_matches_engine(params, state, 60)


def _assert_recorded(start, params):
    """The cycle of a start that closes is in the store."""
    store = _cycle_store(params, start.slope.u, start.slope.v)
    assert located(store, Orbit(start, params)) is not None


def test_return_map_long_flight_matches_engine():
    # slope 1000/2001 on a table with open corridors near slope 1/2: rays
    # leaving the low end of a left side fly 1403 columns, and the map
    # resolves that piece like any other
    params = classify_params(1, 10, 1, 10)
    slope = Slope(1000, 2001)
    assert_resolved(params, slope)
    assert (0, 0) in long_pieces(params, slope)
    state = make_state(params, (0, 0), LEFT, Fraction(1, 4000), slope, (-1, 1))
    assert long_flight(params, state)
    first = next(iter(Orbit(state, params)))
    assert abs(first[3]) > 1000  # the first flight crosses 1403 columns
    _assert_map_matches_engine(params, state, 30)
    _cycle_store.cache_clear()
    out = classify_trajectory(state, params)
    assert out == _stepped_outcome(state, params, out.combinatorial_length)
    _assert_recorded(state, params)


def _assert_map_matches_engine(params, state, n_collisions):
    """The map against the grid-line stepper it replaces, collision by
    collision: same side, cell, orientation, position, |dX| and corners."""
    walk = Orbit(state, params)
    eng = GridStepper(params, state.slope,
                      lcm(state.position.x.denominator,
                          state.position.y.denominator))
    assert eng.N == walk.lattice.N
    X, Y = eng.encode(state.position)
    sx, sy = state.orientation
    steps = iter(walk)
    for _ in range(n_collisions):
        try:
            X, Y, side, m, n, sx, sy, adx = eng.step(X, Y, sx, sy)
        except CornerHit as hit:
            with pytest.raises(CornerHit) as err:
                next(steps)
            assert (err.value.x, err.value.y) == (hit.x, hit.y)
            return
        kq, tq, r, mm, nn, adx_map = next(steps)
        k, t = walk.domain(kq, tq, r)
        assert DOMAINS[k] == (side, (sx, sy))
        assert (mm, nn) == (m, n)
        assert adx_map == adx
        assert walk.lattice.point(k, t, mm, nn) == (X, Y)


@settings(max_examples=60, deadline=None)
@given(pqrs=_small_params,
       uv=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
       num=st.integers(1, 200), den=st.integers(2, 64),
       tangent=st.sampled_from([1, -1]))
def test_return_map_matches_scan_oracle_property(pqrs, uv, side, num, den,
                                                 tangent):
    # one orbit walked on the map, each collision checked by the ray scan
    params, state = _random_start(pqrs, uv, side, num, den, tangent, (0, 0))
    walk = Orbit(state, params)
    x, y = state.position.x, state.position.y
    sx, sy = state.orientation
    steps = iter(walk)
    for _ in range(8):
        want = scan_next_hit(params, x, y, sx * state.slope.v,
                             sy * state.slope.u)
        if want[0] == "corner":
            with pytest.raises(CornerHit) as err:
                next(steps)
            assert (err.value.x, err.value.y) == want[1]
            return
        k, t, r, m, n, _adx = next(steps)
        side, (sx, sy) = DOMAINS[walk.domain(k, t, r)[0]]
        pos = walk.position(k, t, r, m, n)
        x, y = pos.x, pos.y
        assert ("hit", (x, y), side, (m, n)) == want


def _corner_aimed_start(params, slope, corner, cell, back):
    """The boundary start whose ray runs straight into ``corner`` (a sign
    pair) of the obstacle at ``cell``: that corner traced back along the
    orientation ``back`` to the side the ray leaves from.  None when the
    trace meets another corner first or never lands."""
    eng = GridStepper(params, slope, 1)
    m, n = cell
    try:
        res = eng.step(m * eng.N + corner[0] * eng.beta,
                       n * eng.N + corner[1] * eng.gamma, *back)
    except CornerHit:
        return None
    if res is None:
        return None
    X, Y, side, mm, nn = res[:5]
    return BilliardState(PointQ(Fraction(X, eng.N), Fraction(Y, eng.N)), side,
                         (mm, nn), (-back[0], -back[1]), slope)


def test_return_map_corner_behind_long_flight():
    # the top-right corner of obstacle (3, -2), traced back along (1, -1),
    # reaches a left side 1401 columns away; the start there lies on a
    # breakpoint behind a long flight, and the map reports that corner,
    # relative to the start's own cell
    params = classify_params(1, 10, 1, 10)
    slope = Slope(1000, 2001)
    assert_resolved(params, slope)
    start = _corner_aimed_start(params, slope, (1, 1), (3, -2), (1, -1))
    assert start.cell == (1404, -702)
    assert long_flight(params, start)
    corner = (3 + params.a / 2, -2 + params.b / 2)
    with pytest.raises(CornerHit) as err:
        next_collision(start, params)
    assert err.value.point == corner
    outcome = classify_trajectory(start, params, 10)
    assert outcome.kind == Outcome.SINGULAR
    assert outcome.corner == PointQ(*corner)
    path = trace(start, params, 5)
    assert path.singular and path.points[-1] == PointQ(*corner)
    _assert_map_matches_engine(params, start, 1)


# Slopes (cK + e)/(dK + f) with ed - fc = +-1, within 1/(d(dK + f)) of a
# corridor direction c/d, on tables with obstacles at most 1/4 wide and
# high, where the corridors of slopes 1, 1/2 and 2 are open: flights run
# along a corridor for hundreds to thousands of cells.
_NEAR_CORRIDOR = [(1, 1, 1, 0), (1, 1, 0, 1), (1, 2, 1, 1), (1, 2, 0, 1),
                  (2, 1, 1, 0), (2, 1, 1, 1)]
_small_obstacles = st.tuples(st.integers(4, 12), st.integers(4, 12)).flatmap(
    lambda qs: st.tuples(st.integers(1, qs[0] // 4), st.just(qs[0]),
                         st.integers(1, qs[1] // 4), st.just(qs[1]))).filter(
    lambda t: gcd(t[0], t[1]) == 1 and gcd(t[2], t[3]) == 1)
_SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


@settings(max_examples=40, deadline=None)
@given(pqrs=_small_obstacles, cdef=st.sampled_from(_NEAR_CORRIDOR),
       K=st.integers(600, 3000), aim=st.booleans(), pick=st.integers(0, 2**16),
       cell=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_return_map_near_corridor_matches_engine_property(pqrs, cdef, K, aim,
                                                          pick, cell):
    # starts aimed at a corner of obstacle ``cell``, behind a long flight
    # when there is one; or inside a piece of long flights, on a random cell
    params = classify_params(*pqrs)
    c, d, e, f = cdef
    slope = Slope(c * K + e, d * K + f)
    assert_resolved(params, slope)
    aimed = [s for s in (_corner_aimed_start(params, slope, corner, cell, back)
                         for corner in _SIGNS for back in _SIGNS
                         if back != (-corner[0], -corner[1]))
             if s is not None]
    far = [s for s in aimed if long_flight(params, s)]
    if aim and aimed:
        starts = far or aimed
        start = starts[pick % len(starts)]
    else:
        cuts = eight_domain_return_map(params, slope.u, slope.v)[0]
        gaps = long_pieces(params, slope) or [(pick % 8, 0)]
        k, i = gaps[pick % len(gaps)]
        lo = cuts[k][i - 1] if i else 0
        t3 = 3 * lo + 1 + pick % (3 * (cuts[k][i] - lo) - 1)
        start = _state_at(params, slope, k, t3, 3, cell)
    _assert_map_matches_engine(params, start, 12)


def _assert_one_probe_build(params, slope):
    """The 8-domain build from corner flights equals the two-probe build,
    and `_return_map`, built afresh, equals their quotient."""
    want = two_probe_return_map(params, slope.u, slope.v)
    assert eight_domain_return_map.__wrapped__(params, slope.u,
                                               slope.v) == want
    assert billiard._return_map.__wrapped__(params, slope.u, slope.v) == \
        quotient_table(*want)


@settings(max_examples=40, deadline=None)
@given(pqrs=_small_obstacles, cdef=st.sampled_from(_NEAR_CORRIDOR),
       K=st.integers(600, 3000))
def test_return_map_near_corridor_equals_the_two_probe_build_property(
        pqrs, cdef, K):
    # cuts, pieces and corners on the near-corridor slopes above, whose
    # pieces of long flights fly hundreds to thousands of cells
    c, d, e, f = cdef
    _assert_one_probe_build(classify_params(*pqrs),
                            Slope(c * K + e, d * K + f))


def test_return_map_equals_the_two_probe_build():
    # cuts, pieces and corners against the two-probe build, which checks
    # that every piece is a translation: seeded random tables of all three
    # parity classes with slopes up to 99, and directions of the quantized
    # workloads and the sweep's approximation searches quantized at 36,
    # 64, 96 and 128 bits (a 64-bit run's shadow)
    rng = random.Random(21)
    cases = []
    while len(cases) < 150:
        q, s = rng.randint(2, 12), rng.randint(2, 12)
        pqrs = (rng.randint(1, q - 1), q, rng.randint(1, s - 1), s)
        uv = (rng.randint(1, 99), rng.randint(1, 99))
        if gcd(*pqrs[:2]) == gcd(*pqrs[2:]) == gcd(*uv) == 1:
            cases.append((classify_params(*pqrs), Slope(*uv)))
    thetas = [(HALF, f"0.6{rng.randrange(10**19):019}") for _ in range(3)]
    thetas += [(TWO_THIRDS,
                f"1.000000{rng.randrange(2, 6)}{rng.randrange(10**23):023}")
               for _ in range(3)]
    thetas += [(HALF, theta) for theta in (
        "0.6180339887498948", "0.41421356237309515", "0.7071067811865476",
        "0.3183098861837907")]
    for params, theta in thetas:
        for bits in (36, 64, 96, 128):
            cases.append((params,
                          quantize_direction(Fraction(theta), bits).slope))
    classes = set()
    for params, slope in cases:
        _assert_one_probe_build(params, slope)
        classes.add(params.parity_class)
    assert classes == set(ParityClass)
    assert max(slope.v for _, slope in cases) > 2**120


def test_return_map_build_traces_three_corner_flights(monkeypatch):
    # a build traces the 3 flights from one corner and no probe per piece:
    # the table's reflections give the other 9 flights
    calls = []
    first_hit = billiard._first_hit

    def counted_first_hit(*args):
        calls.append(args)
        return first_hit(*args)

    monkeypatch.setattr(billiard, "_first_hit", counted_first_hit)
    classes = set()
    for pqrs, uv in _LONG_CYCLE_TABLES + (((1, 2, 1, 2), (987, 1597)),
                                          ((2, 3, 2, 3), (13, 8))):
        params = classify_params(*pqrs)
        calls.clear()
        billiard._return_map.__wrapped__(params, *uv)
        assert len(calls) == 3
        classes.add(params.parity_class)
    assert classes == set(ParityClass)


def _traced_corner_flights(lat):
    """The 12 flights of `billiard._corner_traces`, each traced by
    `_first_hit` from its own corner."""
    N, beta, gamma = lat.N, lat.beta, lat.gamma
    flights = {}
    for cx, cy in _SIGNS:
        for rx, ry in _SIGNS:
            if (rx, ry) == (-cx, -cy):
                continue
            try:
                X, Y, side, m, n, sx, sy, adx = billiard._first_hit(
                    lat, cx * beta, cy * gamma, rx, ry)
            except CornerHit as hit:
                X, Y = lat.encode(PointQ(hit.x, hit.y))
                # X = m*N + cx'*beta and Y = n*N + cy'*gamma
                (cx1, m), = [(c, (X - c * beta) // N) for c in (-1, 1)
                             if (X - c * beta) % N == 0]
                (cy1, n), = [(c, (Y - c * gamma) // N) for c in (-1, 1)
                             if (Y - c * gamma) % N == 0]
                flights[cx, cy, rx, ry] = (None, (cx1, cy1), m, n,
                                           abs(X - cx * beta))
                continue
            flights[cx, cy, rx, ry] = (
                billiard._DOMAIN_INDEX[side, (sx, sy)],
                lat.transverse(side, X, Y, m, n), m, n, adx)
    return flights


def test_reflected_corner_flights_equal_the_traced_ones():
    # the 9 flights that `_corner_traces` reflects from corner (1, 1)'s 3,
    # and those 3, against 12 first hits on seeded random tables of all
    # three parity classes; small slopes make flights that end in a corner
    rng = random.Random(22)
    classes, ends = set(), set()
    for case in range(120):
        q, s = rng.randint(2, 12), rng.randint(2, 12)
        p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
        top = 5 if case % 2 else 60
        u, v = rng.randint(1, top), rng.randint(1, top)
        if not gcd(p, q) == gcd(r, s) == gcd(u, v) == 1:
            continue
        params = classify_params(p, q, r, s)
        lat = _Lattice(params, Slope(u, v), 1)
        lengths = (2 * (lat.gamma // u), 2 * (lat.beta // v))
        flights = billiard._corner_traces(lat, lengths)
        assert flights == _traced_corner_flights(lat)
        classes.add(params.parity_class)
        ends.update(k is None for k, *_ in flights.values())
    assert classes == set(ParityClass)
    assert ends == {False, True}


def test_corner_flight_into_free_flight_is_an_error(monkeypatch):
    # a flight from a corner meets its corner's translate by (v, u) cells
    # at the latest; a first hit that finds no obstacle is a fault
    monkeypatch.setattr(billiard, "_first_hit", lambda *args: None)
    with pytest.raises(AssertionError, match="corner trace found no obstacle"):
        billiard._return_map.__wrapped__(HALF, 3, 5)


class _LoggedFlights(dict):
    """Corner flights that log each read of one that runs into a further
    corner: a saddle connection the return map build follows."""

    def __init__(self, flights, log):
        super().__init__(flights)
        self.log = log

    def __getitem__(self, key):
        flight = super().__getitem__(key)
        if flight[0] is None:
            self.log.append(key)
        return flight


def test_return_map_follows_corner_to_corner_flights(monkeypatch):
    # rays that pass a corner and fly on to a further corner before they
    # land: the direction-sweep workload's surfaces with the slopes up to
    # 4, and seeded random tables with slopes up to 5, against the
    # two-probe build
    onward = []
    corner_traces = billiard._corner_traces
    monkeypatch.setattr(billiard, "_corner_traces", lambda lat, lengths:
                        _LoggedFlights(corner_traces(lat, lengths), onward))
    cases = [(Params.parse(surface), slope)
             for surface in ("1/2,1/2", "2/3,2/3", "1/3,1/3", "1/5,2/7",
                             "4/13,4/5", "4/25,6/13", "3/44,9/44")
             for slope in mediant_enumerate(4)]
    rng = random.Random(23)
    while len(cases) < 160:
        q, s = rng.randint(2, 12), rng.randint(2, 12)
        pqrs = (rng.randint(1, q - 1), q, rng.randint(1, s - 1), s)
        uv = (rng.randint(1, 5), rng.randint(1, 5))
        if gcd(*pqrs[:2]) == gcd(*pqrs[2:]) == gcd(*uv) == 1:
            cases.append((classify_params(*pqrs), Slope(*uv)))
    for params, slope in cases:
        assert billiard._return_map.__wrapped__(params, slope.u, slope.v) == \
            quotient_table(*two_probe_return_map(params, slope.u, slope.v))
    assert onward


def _corner_bound_start(params, slope, cell, back, rng):
    """A start whose orbit runs into a corner: a random breakpoint of the
    return map, placed in ``cell``, traced back up to ``back`` collisions
    with the grid-line stepper.  Returns (start, collisions before the
    corner)."""
    cuts = eight_domain_return_map(params, slope.u, slope.v)[0]
    k = rng.choice([k for k, cs in enumerate(cuts) if len(cs) > 1])
    lat = _Lattice(params, slope, 1)
    X, Y = lat.point(k, rng.choice(cuts[k][:-1]), *cell)
    side, orientation = DOMAINS[k]
    state = BilliardState(PointQ(Fraction(X, lat.N), Fraction(Y, lat.N)),
                          side, cell, orientation, slope)
    # the backward orbit of the breakpoint, stepped forward
    eng = GridStepper(params, slope, 1)
    X, Y = eng.encode(state.position)
    sx, sy = time_reversed(state).orientation
    before = 0
    for _ in range(back):
        try:
            hit = eng.step(X, Y, sx, sy)
        except CornerHit:
            break
        if hit is None:
            break
        X, Y, side, m, n, sx, sy, _ = hit
        state = time_reversed(BilliardState(
            PointQ(Fraction(X, eng.N), Fraction(Y, eng.N)), side, (m, n),
            (sx, sy), slope))
        before += 1
    return state, before


def _stepped_block(params, start, count, stop_cell):
    """``Orbit.advance`` from the start, written out with the grid-line
    stepper one collision at a time: (done, k, t, m, n, extent, mlo, mhi,
    nlo, nhi, corner point or None)."""
    n0 = lcm(start.position.x.denominator, start.position.y.denominator)
    eng = GridStepper(params, start.slope, n0)
    X, Y = eng.encode(start.position)
    sx, sy = start.orientation
    side = start.side
    m, n = start.cell
    ms, ns, ext = [m], [n], 0
    corner = None
    for _ in range(count):
        try:
            X, Y, side, m, n, sx, sy, adx = eng.step(X, Y, sx, sy)
        except CornerHit as hit:
            corner = (hit.x, hit.y)
            break
        ms.append(m)
        ns.append(n)
        ext += adx
        if (m, n) == stop_cell:
            break
    done = len(ms) - 1
    k = DOMAINS.index((side, (sx, sy)))
    t = _Lattice(params, start.slope, n0).transverse(side, X, Y, m, n)
    return (done, k, t, m, n, ext, min(ms), max(ms), min(ns), max(ns),
            corner)


class _LoggedList(list):
    """A list that logs every read of an entry."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return list.__getitem__(self, i)


class _LoggedRow:
    """A view of a row of map pieces that logs every read as (table, k, i,
    piece); the row itself may still grow."""

    def __init__(self, row, log, table, k):
        self.row, self.log, self.tag = row, log, (table, k)

    def __getitem__(self, i):
        piece = self.row[i]
        self.log.append((*self.tag, i, piece))
        return piece


class _LoggedTables:
    """An orbit's table as `Orbit.advance` reads it, with every read of a
    piece of level j logged with the table j: single pieces (level 0) and
    pieces of T^8 (level `billiard._TOP`, from `level`); `find` still
    composes into the table itself."""

    def __init__(self, tables, log):
        self.find, self.edges = tables.find, tables.edges
        self.corners = tables.corners
        self.rows = [[_LoggedRow(row, log, 0, k)
                      for k, row in enumerate(tables.rows[0])]]
        self.tables, self.log = tables, log

    def level(self, j):
        edges, rows = self.tables.level(j)
        return edges, [_LoggedRow(row, self.log, j, k)
                       for k, row in enumerate(rows)]


def _in_frame(piece, f):
    """A piece of a quotient table, as a state in frame f applies it: its
    label composed with f, its cell move and box reflected by f."""
    k, r, shift, dm, dn, c0, c1, mlo, mhi, nlo, nhi, *rest = piece
    if f & 1:
        dm, mlo, mhi = -dm, -mhi, -mlo
    if f & 2:
        dn, nlo, nhi = -dn, -nhi, -nlo
    return (k, r ^ f, shift, dm, dn, c0, c1, mlo, mhi, nlo, nhi, *rest)


def _framed_row(row, run):
    """Rows of a quotient table as `billiard._PowerMap` keeps them: after
    the domain's low end, each piece in the 4 frames, with its run flag."""
    return [None, *(tuple(_in_frame((*p, run(p)), f) for f in range(4))
                    for p in row)]


def test_a_block_of_64_starts_on_the_power_map():
    # a call of exactly _BLOCK collisions reads a piece of T^8 first, from
    # a start inside a piece of T^8; one collision fewer reads only single
    # pieces
    slope = quantize_direction(Fraction("0.31830988618379067154"), 64).slope
    for seed in range(1, 6):
        s = sample_boundary_starts(HALF, slope, 1, seed)[0]
        walk = Orbit(make_state(HALF, (0, 0), s.side, s.offset, slope,
                                s.orientation), HALF)
        log = []
        walk.tables = _LoggedTables(walk.tables, log)
        for count, first in ((billiard._BLOCK, billiard._TOP),
                             (billiard._BLOCK - 1, 0)):
            log.clear()
            walk.advance(walk.k, walk.t, walk.r, 0, 0, count)
            assert log[0][0] == first
            assert first or {read[0] for read in log} == {first}


def _run_of(k):
    """Whether a quotient piece of domain k is a run piece: back in its
    domain with label 0 and a shift."""
    return lambda p: p[0] == k and p[1] == 0 and p[2] != 0


def _replay_reads(log, single, power, state, stop_cell):
    """Follow the piece reads of one `Orbit.advance` call from ``state``
    on the scaled single map ``single`` and the eager T^8 table ``power``,
    both (cuts, pieces) on the quotient (`support.quotient_table`).

    A read of T^8 that finds no piece and is read again is a miss, where
    `find` composed the piece.  Otherwise it is a fallback where t is on a
    breakpoint of T^8 or the stop cell lies in the piece's box, and a power
    step else; one that `_repeats` extended to r > 1 repeats is taken here
    one repeat at a time, each on the piece the table holds at its t.
    Every piece read must be the one the tables hold at t, in every frame.
    Returns the counts of power steps, both fallbacks and the repeats
    after a run's first, and the state and extent the steps reach."""
    k, t, r, m, n = state
    ext = 0
    counts = {"power": 0, "breakpoint": 0, "box": 0, "repeat": 0}
    for at, (table, *read) in enumerate(log):
        follow = log[at + 1] if at + 1 < len(log) else (None,)
        if table == "repeats" or table == billiard._TOP and read[2] is None \
                and follow[0] == billiard._TOP:
            continue
        kk, i, piece = read
        cuts, pieces = power if table else single
        j = bisect_left(cuts[k], t)
        assert kk == k
        reps = 1
        if table == 0:
            # level 0 of the orbit's table starts with the domain's low end
            assert i == j + 1
            assert piece == _framed_row([pieces[k][j]], lambda p: False)[1]
        elif cuts[k][j] == t:
            counts["breakpoint"] += 1
            continue
        else:
            assert piece == _framed_row([pieces[k][j]], _run_of(k))[1]
            plo, phi, qlo, qhi = piece[r][7:11]
            if stop_cell is not None and \
                    plo <= stop_cell[0] - m <= phi and \
                    qlo <= stop_cell[1] - n <= qhi:
                counts["box"] += 1
                continue
            if follow[0] == "repeats":
                reps = follow[1]
            counts["power"] += 1
            counts["repeat"] += reps - 1
        for _ in range(reps):
            assert bisect_left(cuts[k], t) == j
            k2, r2, shift, dm, dn, c0, c1 = _in_frame(pieces[k][j], r)[:7]
            ext += c0 + c1 * t
            k, t, r, m, n = k2, t + shift, r2, m + dm, n + dn
    return counts, (k, t, r, m, n), ext


def _power_steps(walk, table, state, count, stop_cell):
    """`Orbit.advance` of ``count`` collisions from ``state`` with every
    piece of T^8 taken one at a time, from the eager quotient table
    ``table``: single pieces for the 8 collisions after a breakpoint of
    T^8 or a piece whose box holds the stop cell, and for a remainder."""
    cuts, pieces = table
    k, t, r, m, n = state
    mlo = mhi = m
    nlo = nhi = n
    ext = done = 0
    corner = None
    while done < count:
        if count - done >= 8:
            i = bisect_left(cuts[k], t)
            k2, r2, shift, dm, dn, c0, c1, plo, phi, qlo, qhi = \
                _in_frame(pieces[k][i], r)
            if cuts[k][i] != t and (
                    stop_cell is None
                    or not plo <= stop_cell[0] - m <= phi
                    or not qlo <= stop_cell[1] - n <= qhi):
                ext += c0 + c1 * t
                k, t, r = k2, t + shift, r2
                mlo, mhi = min(mlo, m + plo), max(mhi, m + phi)
                nlo, nhi = min(nlo, n + qlo), max(nhi, n + qhi)
                m, n = m + dm, n + dn
                done += 8
                continue
        want = min(8, count - done)
        got, k, t, r, m, n, adx, a, b, c, d, corner = walk.advance(
            k, t, r, m, n, want, stop_cell)
        done += got
        ext += adx
        mlo, mhi, nlo, nhi = min(mlo, a), max(mhi, b), min(nlo, c), max(nhi, d)
        if got < want or (m, n) == stop_cell:
            break
    return done, k, t, r, m, n, ext, mlo, mhi, nlo, nhi, corner


def test_advance_matches_stepping_one_collision_at_a_time(monkeypatch):
    # one call of the block walker against the grid-line stepper, collision
    # by collision: random tables of all three parity classes, exact slopes
    # and directions quantized at 16-96 bits (N up to about 2^211), counts
    # 0-500 with and without a stop cell, and starts that run into a corner
    # inside the block.  Calls of 64 collisions or more step on the power
    # map: the pieces the call reads and the runs it applies are logged and
    # followed on the eager tables, to count its power steps, both kinds of
    # fallback to single pieces and the repeats of its runs.
    log = []
    repeats = billiard._repeats

    def logged_repeats(*args):
        r = repeats(*args)
        log.append(("repeats", r))
        return r

    monkeypatch.setattr(billiard, "_repeats", logged_repeats)
    rng = random.Random(20261019)
    seen = {"classes": set(), "corner": 0, "stopped": 0, "full": 0,
            "bits": 0, "power": 0, "breakpoint": 0, "box": 0, "repeat": 0,
            "frames": set()}
    for case in range(160):
        while True:
            q, s = rng.randint(2, 12), rng.randint(2, 12)
            p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
            if gcd(p, q) == gcd(r, s) == 1:
                break
        params = classify_params(p, q, r, s)
        if case % 2:
            value = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        else:
            value = Fraction(rng.randint(2**20, 2**22),
                             rng.randint(2**20, 2**22))
            bits = rng.randint(16, 96)
            value = Fraction(round(value * 2**bits), 2**bits)
            if not _clear_of_corridors((value.numerator, value.denominator)):
                continue
        slope = Slope(value.numerator, value.denominator)
        cell = (rng.randint(-5, 5), rng.randint(-5, 5))
        count = rng.randint(0, 500)
        if case % 3 == 0:
            start, before = _corner_bound_start(params, slope, cell,
                                                rng.randint(0, 150), rng)
        else:
            side = rng.choice((LEFT, RIGHT, BOTTOM, TOP))
            tangent = rng.choice((1, -1))
            den = rng.randint(2, 2**12)
            start = _random_start((p, q, r, s), (slope.u, slope.v), side,
                                  rng.randint(1, den - 1), den, tangent,
                                  cell)[1]
        free = _stepped_block(params, start, count, None)
        stop_cell = None
        if case % 4 < 2 and free[0]:
            # a cell the orbit reaches, or one it never does
            stop_cell = rng.choice([(free[3], free[4]),
                                    (free[7] + 1, free[9] + 1)])
        want = _stepped_block(params, start, count, stop_cell)
        walk = Orbit(start, params)
        walk.tables = _LoggedTables(walk.tables, log)
        log.clear()
        state = (walk.k, walk.t, walk.r, *start.cell)
        got = walk.advance(*state, count, stop_cell)
        corner = got[11] and (got[11].x, got[11].y)
        assert (got[0], *walk.domain(*got[1:4]), *got[4:11], corner) == want
        counts, end, ext = _replay_reads(
            log, quotient_table(*scaled_return_map(params, slope.u, slope.v,
                                                   walk.n0)[:2]),
            quotient_table(*eager_power_map(params, slope.u, slope.v,
                                            walk.n0)),
            state, stop_cell)
        assert end == got[1:6] and ext == got[6]
        if count < billiard._BLOCK:
            assert all(table == 0 for table, *_ in log)
        seen["classes"].add(params.parity_class)
        seen["frames"].add(walk.r)
        seen["corner"] += want[10] is not None and 0 < want[0] < count
        seen["stopped"] += want[0] < free[0]
        seen["full"] += want[0] == count > 0
        seen["bits"] = max(seen["bits"], walk.lattice.N.bit_length())
        for key in counts:
            seen[key] += counts[key]
    assert seen["classes"] == set(ParityClass)
    assert seen["frames"] == {0, 1, 2, 3}
    assert seen["corner"] >= 10 and seen["stopped"] >= 10, seen
    assert seen["full"] >= 10 and seen["bits"] > 200, seen
    assert seen["power"] >= 10 and seen["breakpoint"] >= 10, seen
    assert seen["box"] >= 10 and seen["repeat"] >= 10, seen


def _eight_steps(walk, k, t, r):
    """8 single steps from state (k, t, r) in cell (0, 0), as a piece of
    the power map reports them: (k, t, r, m, n, extent, mlo, mhi, nlo,
    nhi), the box over the cells arrived in."""
    ms, ns, ext = [], [], 0
    for k, t, r, m, n, adx in islice(walk.steps(k, t, r, 0, 0), 8):
        ms.append(m)
        ns.append(n)
        ext += adx
    return k, t, r, m, n, ext, min(ms), max(ms), min(ns), max(ns)


def _random_table_and_direction(rng, case):
    """A random table (of any parity class) and an exact slope on odd
    cases, a direction quantized at 16-96 bits on even ones."""
    while True:
        q, s = rng.randint(2, 12), rng.randint(2, 12)
        p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
        if gcd(p, q) == gcd(r, s) == 1:
            break
    if case % 2:
        value = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    else:
        value = Fraction(rng.randint(2**20, 2**22), rng.randint(2**20, 2**22))
        bits = rng.randint(16, 96)
        value = Fraction(round(value * 2**bits), 2**bits)
    return (p, q, r, s), Slope(value.numerator, value.denominator)


def test_power_map_pieces_match_eight_single_steps():
    # every piece of the eager T^8 table on the quotient, in each of the 4
    # frames, against 8 single steps just inside both ends of its interval,
    # and every breakpoint of T^8 against a corner within 8 steps: random
    # tables of all three parity classes, exact slopes and directions
    # quantized at 16-96 bits, at the lattice scales of starts with random
    # offsets
    rng = random.Random(8)
    seen = {"classes": set(), "pieces": 0, "breakpoints": 0, "bits": 0}
    for case in range(60):
        pqrs, slope = _random_table_and_direction(rng, case)
        params = classify_params(*pqrs)
        den = rng.randint(2, 2**12)
        start = _random_start(pqrs, (slope.u, slope.v),
                              rng.choice((LEFT, RIGHT, BOTTOM, TOP)),
                              rng.randint(1, den - 1), den, 1, (0, 0))[1]
        walk = Orbit(start, params)
        cuts, pieces = quotient_table(*eager_power_map(params, slope.u,
                                                       slope.v, walk.n0))
        assert [len(row) for row in pieces] == [len(cs) for cs in cuts]
        for k in (0, 1):
            lo = 0
            for hi, piece in zip(cuts[k], pieces[k]):
                assert lo < hi and piece[6] % slope.v == 0
                for f in range(4):
                    k2, r, shift, dm, dn, c0, c1, *box = _in_frame(piece, f)
                    for t in {lo + 1, hi - 1}:
                        if lo < t < hi:
                            assert _eight_steps(walk, k, t, f) == (
                                k2, t + shift, r, dm, dn, c0 + c1 * t, *box)
                            seen["pieces"] += 1
                    if hi < cuts[k][-1]:
                        with pytest.raises(CornerHit):
                            _eight_steps(walk, k, hi, f)
                        seen["breakpoints"] += 1
                lo = hi
        seen["classes"].add(params.parity_class)
        seen["bits"] = max(seen["bits"], walk.lattice.N.bit_length())
    assert seen["classes"] == set(ParityClass) and seen["bits"] > 180, seen
    assert seen["pieces"] >= 1000 and seen["breakpoints"] >= 1000, seen


def _assert_lazy_equals_eager(params, slope, n0, rng):
    """Every piece and breakpoint of the lazy power map against the eager
    table on the quotient, looked up in random order at random points;
    then the intervals the lazy map knows are all of the eager table's,
    each piece in the 4 frames.  Returns the counts of (piece, frame)
    entries and of run pieces compared."""
    cuts, pieces = quotient_table(*eager_power_map(params, slope.u, slope.v,
                                                   n0))
    lazy = billiard._PowerMap(params, slope.u, slope.v, n0)
    probes = []
    for k in (0, 1):
        lo = 0
        for hi, piece in zip(cuts[k], pieces[k]):
            probes.append((k, rng.randint(lo + 1, hi - 1),
                           (lo, hi, (*piece, _run_of(k)(piece)))))
            if hi < cuts[k][-1]:
                probes.append((k, hi, None))
            lo = hi
    rng.shuffle(probes)
    for k, t, want in probes:
        assert lazy.lookup(k, t) == want
        # a piece from a domain to itself flies the same extent from any t
        assert want is None or not want[2][-1] or want[2][6] == 0
    edges, rows = lazy.level(billiard._TOP)
    assert edges == [[0, *cs] for cs in cuts]
    assert rows == [_framed_row(row, _run_of(k))
                    for k, row in enumerate(pieces)]
    return 4 * sum(map(len, cuts)), sum(p[0][-1] for row in rows
                                        for p in row[1:])


def test_table_level_zero_is_the_return_map_scaled():
    # level 0 of the table an orbit steps on, and its corners, against the
    # 8-domain return map scaled by n0 > 1 in the tests' own code, on the
    # quotient: random tables of all three parity classes, exact slopes
    # and directions quantized at 16-96 bits
    rng = random.Random(20)
    classes = set()
    for case in range(30):
        pqrs, slope = _random_table_and_direction(rng, case)
        params = classify_params(*pqrs)
        n0 = rng.randint(2, 2**12)
        cuts, pieces, corners = quotient_table(
            *scaled_return_map(params, slope.u, slope.v, n0))
        tables = billiard._power_map(params, slope.u, slope.v, n0)
        assert tables.edges[0] == [[0, *cs] for cs in cuts]
        assert tables.rows[0] == [_framed_row(row, lambda p: False)
                                  for row in pieces]
        assert tables.corners == [(None, *cs) for cs in corners]
        # every breakpoint has a corner, the side length none
        assert [len(cs) for cs in tables.corners] == [len(cs) for cs in cuts]
        classes.add(params.parity_class)
    assert classes == set(ParityClass)


def test_lazy_power_pieces_equal_the_eager_table():
    # random tables of all three parity classes, exact slopes and
    # directions quantized at 16-96 bits, at lattice scales n0 from 1 to
    # 2^12; and the bench slopes: the Fibonacci ratios on 1/2,1/2, 64-bit
    # directions on 1/2,1/2 and 96-bit ones just above slope 1 on 2/3,2/3
    rng = random.Random(19)
    seen = {"classes": set(), "n0": 0, "pieces": 0, "runs": 0}
    cases = []
    for case in range(40):
        pqrs, slope = _random_table_and_direction(rng, case)
        cases.append((classify_params(*pqrs), slope, rng.randint(1, 2**12)))
    for slope in ("233/377", "1597/2584", "4181/6765", "10946/17711"):
        cases.append((HALF, Slope.parse(slope), 1))
    for theta in ("0.31830988618379067154", "0.61803398874989484820"):
        cases.append((HALF, quantize_direction(Fraction(theta), 64).slope, 1))
    for theta in ("1.0000003", "1.0000005"):
        cases.append((TWO_THIRDS,
                      quantize_direction(Fraction(theta), 96).slope, 3))
    for params, slope, n0 in cases:
        pieces, runs = _assert_lazy_equals_eager(params, slope, n0, rng)
        seen["classes"].add(params.parity_class)
        seen["n0"] += n0 > 1
        seen["pieces"] += pieces
        seen["runs"] += runs
    assert seen["classes"] == set(ParityClass)
    assert seen["n0"] >= 20 and seen["pieces"] >= 3000, seen
    assert seen["runs"] >= 4, seen


def test_run_equals_its_repeats_one_power_step_at_a_time():
    # every run piece of T^8 on the quotient (back in its domain with
    # label 0) taken by one `Orbit.advance` against its repeats taken one
    # at a time: on 96-bit directions just above and just below slope 1 on
    # 2/3,2/3, the Fibonacci slopes on 1/2,1/2 and random tables; in a
    # random frame, from random points of the piece's interval and from
    # points a few repeats from its edge, so that runs end at the edge and
    # the orbit goes on past it; with counts that cut the run short and
    # with stop cells inside and outside the repeats' boxes
    rng = random.Random(1907)
    seen = {"negative": 0, "positive": 0, "edge": 0, "count": 0, "stop": 0,
            "stop_outside": 0}
    frames = set()
    cases = []
    for theta in ("1.0000003", "0.9999997", "1.0000005", "0.99999931"):
        cases.append((TWO_THIRDS,
                      quantize_direction(Fraction(theta), 96).slope))
    for slope in ("233/377", "4181/6765", "6765/10946"):
        cases.append((HALF, Slope.parse(slope)))
    for case in range(20):
        pqrs, slope = _random_table_and_direction(rng, case)
        cases.append((classify_params(*pqrs), slope))
    for case, (params, slope) in enumerate(cases):
        # a regular start's lattice scale, or a sampled one's (n0 > 1)
        if case % 2:
            start = regular_start(params, slope)[0]
        else:
            s = sample_boundary_starts(params, slope, 1, case)[0]
            start = make_state(params, (0, 0), s.side, s.offset, slope,
                               s.orientation)
        walk = Orbit(start, params)
        table = quotient_table(*eager_power_map(params, slope.u, slope.v,
                                                walk.n0))
        for k, (cs, row) in enumerate(zip(*table)):
            for i, (lo, hi) in enumerate(zip((0, *cs), cs)):
                if not _run_of(k)(row[i]):
                    continue
                shift = row[i][2]
                length = (hi - lo - 1) // abs(shift)  # repeats across
                for _ in range(8):
                    if rng.random() < 0.5:
                        # a few repeats from the edge it moves to
                        j = rng.randint(0, min(length, 6))
                        t = hi - 1 - j * shift if shift > 0 \
                            else lo + 1 - j * shift
                    else:
                        t = rng.randint(lo + 1, hi - 1)
                    f = rng.randrange(4)
                    _, _, _, dm, dn, _, _, plo, phi, qlo, qhi = \
                        _in_frame(row[i], f)
                    cell = (rng.randint(-9, 9), rng.randint(-9, 9))
                    left = ((hi - 1 - t) // shift if shift > 0
                            else (t - lo - 1) // -shift) + 1
                    count = 8 * rng.randint(8, min(left + 12, 3000)) + \
                        rng.randint(0, 7)
                    stop_cell = None
                    if rng.random() < 0.4:
                        # a cell of a later repeat's box, or one beside the
                        # whole run
                        j = rng.randint(1, max(1, min(left, 400) - 1))
                        if rng.random() < 0.7:
                            stop_cell = (cell[0] + j * dm
                                         + rng.randint(plo, phi),
                                         cell[1] + j * dn
                                         + rng.randint(qlo, qhi))
                        else:
                            stop_cell = (cell[0] + left * abs(dm) + 99,
                                         cell[1] - left * abs(dn) - 99)
                    state = (k, t, f, *cell)
                    want = _power_steps(walk, table, state, count, stop_cell)
                    assert walk.advance(*state, count, stop_cell)[:11] == \
                        want[:11]
                    frames.add(f)
                    seen["negative" if shift < 0 else "positive"] += 1
                    reps = count // 8
                    if stop_cell is not None:
                        seen["stop" if want[0] < count else
                             "stop_outside"] += 1
                    elif left < reps:
                        seen["edge"] += 1
                    else:
                        seen["count"] += 1
    assert frames == {0, 1, 2, 3}
    assert min(seen.values()) >= 10, seen


def test_first_return_rejects_a_horizon_below_one():
    # an axis start as a non-axis one: no flight is answered
    axis = make_state(HALF, (0, 0), LEFT, Fraction(1, 4), Slope(0, 1),
                      leaving_orientation(LEFT))
    slanted = midpoint_state(HALF, (0, 0), TOP, Slope(3, 4), (1, 1))
    for state in (axis, slanted):
        for horizon in (0, -3):
            with pytest.raises(DomainError, match="horizon must be >= 1"):
                first_return(state, HALF, horizon)
        assert first_return(state, HALF, 1)[0] is None


def test_negative_collision_count_is_rejected():
    state = midpoint_state(HALF, (0, 0), TOP, Slope(3, 4), (1, 1))
    for run in (trace, collision_sequence):
        with pytest.raises(DomainError):
            run(state, HALF, -1)
    assert trace(state, HALF, 0).points == (state.position,)
    assert collision_sequence(state, HALF, 0) == []


def _classify_reference(start, params, cap):
    """The first reduced repeat within ``cap`` collisions on the 8
    domains, found by storing every reduced state: (outcome, step of the
    repeated state's first visit), or (None, None) when nothing
    repeats."""
    lat, k0, t0 = eight_domain_state(params, start)
    vN = start.slope.v * lat.N
    seen = {(k0, t0): (0, start.cell, 0)}
    i = total = 0
    try:
        for k, t, m, n, adx in islice(eight_domain_steps(params, start), cap):
            i += 1
            total += adx
            if (k, t) in seen:
                i0, (m0, n0), dx0 = seen[k, t]
                drift = (m - m0, n - n0)
                kind = Outcome.PERIODIC if drift == (0, 0) else Outcome.ESCAPING
                return TrajectoryOutcome(
                    kind, i - i0, Fraction(total - dx0, vN), drift,
                    repeat_cells=((m0, n0), (m, n))), i0
            seen[k, t] = (i, (m, n), total)
    except CornerHit as hit:
        return TrajectoryOutcome(Outcome.SINGULAR, i, Fraction(total, vN),
                                 (0, 0), corner=PointQ(hit.x, hit.y)), 0
    return None, None


def _assert_classify_matches_reference(start, params, cap):
    want, first_visit = _classify_reference(start, params, cap)
    got = classify_trajectory(start, params, cap)
    if want is None:
        assert got.kind is Outcome.UNDETERMINED
        assert got.combinatorial_length == cap
        return
    # the return map is a bijection: the first repeat is the start state
    assert first_visit == 0
    assert got == want


@settings(max_examples=120, deadline=None)
@given(pqrs=_small_params,
       uv=st.tuples(st.integers(1, 60), st.integers(1, 60)),
       side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
       num=st.integers(1, 2**20), den=st.integers(2, 2**16),
       tangent=st.sampled_from([1, -1]),
       cell=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_first_reduced_repeat_is_the_start_property(pqrs, uv, side, num, den,
                                                    tangent, cell):
    params, state = _random_start(pqrs, uv, side, num, den, tangent, cell)
    _assert_classify_matches_reference(state, params, 20000)


@settings(max_examples=20, deadline=None)
@given(pqrs=_small_obstacles, cdef=st.sampled_from(_NEAR_CORRIDOR),
       K=st.integers(600, 3000), pick=st.integers(0, 2**16),
       cell=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_first_reduced_repeat_near_corridor_property(pqrs, cdef, K, pick, cell):
    # starts inside a piece of long flights, which the orbit takes every
    # time it passes there; a closed orbit's cycle is recorded
    params = classify_params(*pqrs)
    c, d, e, f = cdef
    slope = Slope(c * K + e, d * K + f)
    assert_resolved(params, slope)
    cuts = eight_domain_return_map(params, slope.u, slope.v)[0]
    gaps = long_pieces(params, slope)
    if not gaps:
        return
    k, i = gaps[pick % len(gaps)]
    lo = cuts[k][i - 1] if i else 0
    if cuts[k][i] - lo < 2:
        return
    start = _state_at(params, slope, k, lo + 1 + pick % (cuts[k][i] - lo - 1),
                      1, cell)
    assert long_flight(params, start)
    _cycle_store.cache_clear()
    _assert_classify_matches_reference(start, params, 5000)
    if classify_trajectory(start, params, 5000).kind in (Outcome.PERIODIC,
                                                         Outcome.ESCAPING):
        _assert_recorded(start, params)


@pytest.mark.parametrize("slope", [Slope(0, 1), Slope(1, 0)])
def test_collision_sequence_of_axis_slopes(slope):
    state, outcome = regular_start(HALF, slope)
    assert outcome.kind is Outcome.PERIODIC
    # the 2-bounce orbit: the facing side of the neighbor, then the start
    seq = collision_sequence(state, HALF, 4)
    assert seq == [seq[0], (state.side, state.cell)] * 2
    assert trace(state, HALF, 4).points[2::2] == (state.position,) * 2


@pytest.mark.parametrize("slope", [Slope(0, 1), Slope(1, 0), Slope(3, 7)])
def test_next_collision_is_the_first_traced_point(slope):
    # axis slopes step too, and every step can be stepped again
    params = classify_params(1, 3, 1, 2)
    state, _ = regular_start(params, slope)
    path = trace(state, params, 4)
    cur = state
    for point in path.points[1:]:
        cur = next_collision(cur, params)
        assert cur.position == point
    assert next_collision(state, params).position == \
        trace(state, params, 1).points[1]


def test_undetermined_length_is_that_of_the_cap():
    # the length of exactly max_collisions collisions, not one more
    state, _ = regular_start(HALF, Slope(4181, 6765))
    out = classify_trajectory(state, HALF, 10)
    assert out.kind is Outcome.UNDETERMINED
    assert out.combinatorial_length == 10
    assert out.geometric_length == Fraction(28, 20295)
    assert out.geometric_length == path_length(trace(state, HALF, 10),
                                               state.slope)


@pytest.mark.parametrize("side", [LEFT, RIGHT, BOTTOM, TOP])
def test_leaving_orientation_points_off_the_side(side):
    for hint in _SIGNS:
        orient = leaving_orientation(side, hint)
        # the normal sign leaves the side, the tangential one is the hint's
        assert (side, orient) in DOMAINS
        assert orient[0 if side in (BOTTOM, TOP) else 1] == \
            hint[0 if side in (BOTTOM, TOP) else 1]
    with pytest.raises(DomainError):
        leaving_orientation("front")


@settings(max_examples=100, deadline=None)
@given(pqrs=_small_params, side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
       cell=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       num=st.integers(1, 200), den=st.integers(2, 64),
       slope=st.sampled_from([Slope(1, 1), Slope(3, 4), Slope(7, 2)]),
       hint=st.sampled_from(_SIGNS))
def test_side_offset_inverts_make_state_property(pqrs, side, cell, num, den,
                                                 slope, hint):
    params = classify_params(*pqrs)
    offset = Fraction(num % den or 1, den) * side_length(params, side)
    state = make_state(params, cell, side, offset, slope,
                       leaving_orientation(side, hint))
    assert side_offset(state, params) == offset


# -- cylinder cycles ----------------------------------------------------------


def _stepped_outcome(start, params, cap):
    """classify_trajectory by plain stepping on the 8 domains: back on the
    start state, a corner, or exactly ``cap`` collisions (a corner right
    after the cap still counts)."""
    lat, k0, t0 = eight_domain_state(params, start)
    vN = start.slope.v * lat.N
    steps = eight_domain_steps(params, start)
    i = total = 0
    try:
        for k, t, m, n, adx in islice(steps, cap):
            i += 1
            total += adx
            if (k, t) == (k0, t0):
                drift = (m - start.cell[0], n - start.cell[1])
                kind = Outcome.PERIODIC if drift == (0, 0) else Outcome.ESCAPING
                return TrajectoryOutcome(kind, i, Fraction(total, vN), drift,
                                         repeat_cells=(start.cell, (m, n)))
        next(steps)
    except CornerHit as hit:
        return TrajectoryOutcome(Outcome.SINGULAR, i, Fraction(total, vN),
                                 (0, 0), corner=PointQ(hit.x, hit.y))
    return TrajectoryOutcome(Outcome.UNDETERMINED, cap, Fraction(total, vN),
                             (0, 0))


def _state_at(params, slope, k, t, n0, cell=(0, 0)):
    """The boundary state at transverse coordinate t (lattice scale n0) of
    domain k."""
    lat = _Lattice(params, slope, n0)
    X, Y = lat.point(k, t, *cell)
    side, orientation = DOMAINS[k]
    return BilliardState(PointQ(Fraction(X, lat.N), Fraction(Y, lat.N)), side,
                         cell, orientation, slope)


def _quotient_state_at(params, slope, k, t, n0, cell=(0, 0)):
    """The boundary state at quotient state (k, t, 0) (lattice scale n0):
    offset t on domain 0, or the side's length less t on domain 4."""
    length = n0 * _return_map(params, slope.u, slope.v)[0][k][-1]
    return _state_at(params, slope, 4 * k, length - t if k else t, n0, cell)


def _interval_end_starts(params, slope):
    """Starts on both ends of every landmark interval the store holds
    (domain ends excluded): each lies on a saddle connection."""
    store = _cycle_store(params, slope.u, slope.v)
    cuts = _return_map(params, slope.u, slope.v)[0]
    return [_quotient_state_at(params, slope, k, t, 1)
            for k in (0, 1)
            for t in sorted(set(store.los[k]) | set(store.his[k]))
            if 0 < t < cuts[k][-1]]


_start_data = st.tuples(st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
                        st.integers(1, 2**20), st.integers(2, 2**12),
                        st.sampled_from([1, -1]),
                        st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@settings(max_examples=40, deadline=None)
@given(pqrs=_small_params,
       uv=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       data=st.lists(_start_data, min_size=2, max_size=8),
       cap=st.sampled_from([20000, 20000, 7, 150]), order=st.randoms())
def test_cycle_store_classify_matches_stepping_property(pqrs, uv, data, cap,
                                                        order):
    # starts at mixed lattice scales, some on one cycle, answered by a walk
    # that records (cold) and from the store in a shuffled fill (warm);
    # then the ends of every recorded interval, which must not match
    params = classify_params(*pqrs)
    starts = [_random_start(pqrs, uv, *d)[1] for d in data]
    want = [_stepped_outcome(s, params, cap) for s in starts]
    slope = starts[0].slope
    for s, w in zip(starts, want):
        _cycle_store.cache_clear()
        assert classify_trajectory(s, params, cap) == w
    _cycle_store.cache_clear()
    idx = list(range(len(starts)))
    order.shuffle(idx)
    for i in idx + idx:
        assert classify_trajectory(starts[i], params, cap) == want[i]
    for s in _interval_end_starts(params, slope)[:60]:
        assert classify_trajectory(s, params, cap) == \
            _stepped_outcome(s, params, cap)


def _only_found_walks(monkeypatch):
    """Let `_walk_period` run only as the walk of a start on a recorded
    cycle: one that stops at a landmark within one landmark block and
    records nothing.  Any other walk fails the test."""
    walk_period = billiard._walk_period

    def found_walk(walk, limit, store, to_cell=False):
        cycles = len(store.cycles)
        res = walk_period(walk, limit, store, to_cell)
        if res.found is None or res.cycle is not None or \
                res.steps >= billiard._LANDMARK_EVERY or \
                len(store.cycles) != cycles:
            raise AssertionError("walked a recorded cycle")
        return res

    monkeypatch.setattr(billiard, "_walk_period", found_walk)


def test_cycle_store_answers_a_second_start_without_a_walk(monkeypatch):
    # two starts on the 21,892-collision cycle of 4181/6765, closed at half
    # its period, a lattice scale apart; the second is answered by a walk
    # to a landmark
    slope = Slope(4181, 6765)
    _cycle_store.cache_clear()
    first, out = regular_start(HALF, slope)
    assert out.combinatorial_length == 21892
    store = _cycle_store(HALF, slope.u, slope.v)
    assert len(store.cycles) == 1
    cyc = store.cycles[0]
    assert cyc.length == 10946 and cyc.reflection
    assert cyc.orbit(0)[:2] == (21892, (0, 0))
    # the same leaf family, 1/3 of the way into the recorded interval
    k = cyc.k[0]
    n0 = 3
    second = _quotient_state_at(HALF, slope, k,
                                n0 * cyc.lo + (cyc.hi - cyc.lo), n0,
                                cell=(2, -1))

    _only_found_walks(monkeypatch)
    got = classify_trajectory(second, HALF)
    assert got.combinatorial_length == 21892
    assert got.repeat_cells == ((2, -1), (2, -1))
    assert got.geometric_length == out.geometric_length
    monkeypatch.undo()
    assert got == _stepped_outcome(second, HALF, 30000)


def _mirror_state(state, fx, fy):
    """The image of a state under x -> -x (fx) and y -> -y (fy), which map
    the table to itself."""
    swap = {LEFT: RIGHT, RIGHT: LEFT} if fx else {}
    swap.update({BOTTOM: TOP, TOP: BOTTOM} if fy else {})
    (x, y), (m, n), (sx, sy) = (state.position.x, state.position.y), \
        state.cell, state.orientation
    return BilliardState(PointQ(-x if fx else x, -y if fy else y),
                         swap.get(state.side, state.side),
                         (-m if fx else m, -n if fy else n),
                         (-sx if fx else sx, -sy if fy else sy), state.slope)


def _stepped_first_return(start, params, horizon):
    """first_return of a start that meets no corner, by plain stepping on
    the 8 domains."""
    vN = start.slope.v * eight_domain_state(params, start)[0].N
    total = 0
    for i, (_k, _t, m, n, adx) in enumerate(
            islice(eight_domain_steps(params, start), horizon), 1):
        total += adx
        cell = (m - start.cell[0], n - start.cell[1])
        if cell == (0, 0):
            return i, cell, Fraction(total, vN), False
    return None, cell, Fraction(total, vN), False


# Starts on drifting cycles (data as in `_RESIDUE_STARTS`), with a horizon,
# whose first return to the start cell comes two or more rounds of the
# recorded cycle after the start; the cycles drift by (14, 0), (-2, 0),
# (0, -8), (0, 2), (2, 23), (6, 0) and (0, -2) per period, and the last
# three were picked so that a wrong count of drifts per round misses
# their return.
_LATE_RETURNS = (
    (((1, 4, 2, 5), (12, 11), LEFT, 1, 19, 1, (0, 0)), 222),
    (((1, 2, 4, 7), (7, 4), RIGHT, 29, 31, 1, (0, 3)), 684),
    (((1, 3, 3, 7), (4, 3), RIGHT, 4, 31, 1, (1, 2)), 330),
    (((4, 7, 1, 2), (4, 7), RIGHT, 18, 60, 1, (-2, 1)), 342),
    (((2, 7, 5, 6), (13, 4), RIGHT, 35, 54, -1, (3, 0)), 444),
    (((1, 6, 4, 5), (13, 9), TOP, 4, 9, -1, (3, 0)), 1170),
    (((5, 7, 5, 6), (13, 11), BOTTOM, 1, 9, -1, (-1, -3)), 6300))


@pytest.mark.parametrize("data, horizon", _LATE_RETURNS)
def test_first_return_rounds_later_on_a_drifting_cycle(data, horizon):
    # the store answers a return in the second pair of rounds or later,
    # where the start cell sits one drift per pair of rounds further along
    # the recorded cycle, as stepping does
    params, start = _random_start(*data)
    _cycle_store.cache_clear()
    classify_trajectory(start, params, 5000)
    [cyc] = _cycle_store(params, start.slope.u, start.slope.v).cycles
    want = _stepped_first_return(start, params, horizon)
    assert first_return(start, params, horizon) == want
    assert want[0] >= 2 * cyc.length and cyc.orbit(0)[1] != (0, 0)


def test_locate_one_lattice_unit_inside_a_landmark_interval():
    # states at n0 > 1 one lattice unit above the low end and below the
    # high end of each landmark's interval are on the cycle at that
    # landmark, with no step walked
    cases = [(HALF, Slope(4181, 6765), 1), (HALF, Slope(1597, 2584), 8),
             (classify_params(1, 2, 1, 3), Slope(13, 29), 2)]
    for params, slope, seed in cases:
        s = sample_boundary_starts(params, slope, 1, seed)[0]
        walk = Orbit(make_state(params, (0, 0), s.side, s.offset, slope,
                                s.orientation), params)
        store = billiard._CycleStore()
        cyc = billiard._walk_period(walk, 10**6, store).cycle
        n0 = walk.n0
        assert n0 > 1 and cyc is not None
        for b, (k, r, (lo, hi)) in enumerate(zip(cyc.k, cyc.r,
                                                cyc.intervals())):
            for t in (n0 * lo + 1, n0 * hi - 1):
                walk.k, walk.t, walk.r = k, t, r
                res = billiard._walk_period(walk, 10**6, store)
                assert res.found == (cyc, b, 0, 0, 0, 0, t, r)
                assert res.steps == 0 and res.cycle is None
        assert store.cycles == [cyc]


# 13/29 escapes with drift (-2, 1), so a wrong sign on either axis shows;
# its samples are lost before collision 49 and back in their cell at 49
@pytest.mark.parametrize("uv", [(1597, 2584), (4181, 6765), (5, 7), (13, 29)])
def test_cycle_store_answers_mirror_images_without_a_walk(uv, monkeypatch):
    # one walk records a cycle; the images of its start under the table's
    # reflections lie on the images of that cycle, and the store answers
    # them from the recorded cycle, reflected, instead of walking them
    params = classify_params(1, 2, 1, 3)
    start = make_state(params, (1, -2), BOTTOM, Fraction(3, 17) * params.a,
                       Slope(*uv), (1, -1))
    images = [_mirror_state(start, fx, fy)
              for fx, fy in ((1, 0), (0, 1), (1, 1))]
    want = [_stepped_outcome(s, params, 50000) for s in images]
    horizons = (10, 48, 49, 700)
    returns = [[_stepped_first_return(s, params, h) for h in horizons]
               for s in images]
    _cycle_store.cache_clear()
    assert classify_trajectory(start, params) == \
        _stepped_outcome(start, params, 50000)

    _only_found_walks(monkeypatch)
    for image, w in zip(images, want):
        assert classify_trajectory(image, params) == w
    for image, rets in zip(images, returns):
        assert [first_return(image, params, h) for h in horizons] == rets
    store = _cycle_store(params, *uv)
    assert len(store.cycles) == 1


def _located_by_walking(store, walk):
    """What locating the start of ``walk`` answers when it is walked on
    single steps to the first state inside a landmark interval: None where
    it reaches none within a landmark block, a corner or its own
    return."""
    n0, k0, t0 = walk.n0, walk.k, walk.t
    k, t, r = k0, t0, walk.r
    steps = walk.steps(k, t, r, 0, 0)
    m = n = ext = 0
    for s in range(billiard._LANDMARK_EVERY):
        for i, (lo, hi) in enumerate(zip(store.los[k], store.his[k])):
            if n0 * lo < t < n0 * hi:
                ci, b = divmod(store.refs[k][i], 1 << 32)
                return store.cycles[ci], b, s, m, n, ext, t, r
        if s and (k, t) == (k0, t0):
            return None
        try:
            k, t, r, m, n, adx = next(steps)
        except CornerHit:
            return None
        ext += adx
    return None


def test_locate_walks_once_and_answers_as_four_walks():
    # the start and its three images under the table's reflections are one
    # state of the quotient: locating each answers what walking the start
    # to its first landmark does, with the cells walked reflected and the
    # frame composed with the reflection.  Stores filled by the census
    # (every cycle of the direction) and by a few classified starts
    rng = random.Random(37)
    seen = {"found": 0, "none": 0, "reflected cycle": 0}

    def random_start(params, slope):
        side = rng.choice((LEFT, RIGHT, BOTTOM, TOP))
        den = rng.randint(2, 64)
        return _random_start(params, (slope.u, slope.v), side,
                             rng.randint(1, den - 1), den,
                             rng.choice((1, -1)),
                             (rng.randint(-3, 3), rng.randint(-3, 3)))[1]

    for case in range(40):
        while True:
            q, s = rng.randint(2, 9), rng.randint(2, 9)
            p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
            if gcd(p, q) == gcd(r, s) == 1:
                break
        pqrs = (p, q, r, s)
        params = classify_params(*pqrs)
        value = Fraction(rng.randint(1, 13), rng.randint(1, 13))
        slope = Slope(value.numerator, value.denominator)
        _cycle_store.cache_clear()
        if case % 2:
            direction_cycles(params, slope)
        else:
            for _ in range(3):
                classify_trajectory(random_start(pqrs, slope), params, 5000)
        store = _cycle_store(params, slope.u, slope.v)
        for _ in range(20):
            start = random_start(pqrs, slope)
            want = _located_by_walking(store, Orbit(start, params))
            for fx, fy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                got = located(store, Orbit(_mirror_state(start, fx, fy),
                                           params))
                if want is None:
                    assert got is None
                    continue
                cyc, b, s, m, n, ext, t, r = want
                assert got == (cyc, b, s, -m if fx else m, -n if fy else n,
                               ext, t, r ^ (fx | 2 * fy))
            if want is None:
                seen["none"] += 1
                continue
            seen["found"] += 1
            seen["reflected cycle"] += bool(want[0].reflection)
    assert min(seen.values()) >= 10, seen


def test_direction_cycles_are_recorded_whole():
    # every cycle of a direction lands in the store, whose landmark
    # intervals stay sorted and disjoint in every domain
    params = classify_params(4, 13, 4, 5)
    slope = Slope(3, 4)
    _cycle_store.cache_clear()
    cycles, corridor = direction_cycles(params, slope)
    assert corridor is None
    store = _cycle_store(params, slope.u, slope.v)
    assert len(store.cycles) == len(cycles)
    for los, his in zip(store.los, store.his):
        pairs = list(zip(los, his))
        assert all(lo < hi for lo, hi in pairs)
        assert all(h0 <= l1 for (_, h0), (l1, _) in zip(pairs, pairs[1:]))
    for cyc, phases in cycles:
        assert len(phases) == cyc.length
        for q, k, r, interval in zip(cyc.phase, cyc.k, cyc.r,
                                     cyc.intervals()):
            assert phases[q] == (k, *interval, r)


def _long_flight_starts(params, slope, count):
    """Starts inside the first ``count`` pieces of long flights, at
    lattice scale 3."""
    cuts = eight_domain_return_map(params, slope.u, slope.v)[0]
    return [_state_at(params, slope, k, (cuts[k][i - 1] if i else 0) * 3 + 2,
                      3) for k, i in long_pieces(params, slope)[:count]]


def test_cycle_store_records_long_flight_cycles():
    # 1/4,2/9 at 952/951 runs along the slope-1 corridor: orbits through
    # the pieces of long flights escape after a few hundred collisions,
    # their cycles are recorded, and every call matches stepping
    params = classify_params(1, 4, 2, 9)
    slope = Slope(952, 951)
    assert_resolved(params, slope)
    starts = _long_flight_starts(params, slope, 3)
    assert starts and all(long_flight(params, s) for s in starts)
    want = [_stepped_outcome(s, params, 3000) for s in starts]
    assert {w.kind for w in want} <= {Outcome.ESCAPING, Outcome.SINGULAR}
    assert any(w.kind is Outcome.ESCAPING for w in want)
    _cycle_store.cache_clear()
    for s, w in zip(starts + starts, want + want):
        assert classify_trajectory(s, params, 3000) == w
    for s, w in zip(starts, want):
        if w.kind is Outcome.ESCAPING:
            _assert_recorded(s, params)


# The direction-sweep surfaces: all three parity classes, 3 to 1909 cells.
_SWEEP_TABLES = ("1/2,1/2", "2/3,2/3", "1/3,1/3", "1/5,2/7", "4/13,4/5",
                 "4/25,6/13", "3/44,9/44")


def test_cycles_meet_a_reflection_of_their_start_only_at_half_the_period():
    # the fact the recording walk closes on: every cycle of the census,
    # stepped on the 8 domains from a start inside it, meets one of the
    # three reflections S of its start at most once, at half its period,
    # and its drift is then d + S*d with d the cell there; every closed
    # cycle meets one, no strip with an oblique drift does.  The recording
    # walk closed at its first return to the quotient start, so its cycle
    # is that half, with the reflection S, or the whole period, with none
    G = billiard._LANDMARK_EVERY
    seen = {"closed": 0, "axis strip": 0, "axis strip meets": 0,
            "oblique strip": 0}
    closes = {"at half": 0, "whole": 0}
    for text in _SWEEP_TABLES:
        params = Params.parse(text)
        for slope in mediant_enumerate(9):
            if slope.is_axis:
                continue
            _cycle_store.cache_clear()
            for cyc, _ in direction_cycles(params, slope)[0]:
                start = _quotient_state_at(params, slope, cyc.k[0],
                                           2 * cyc.lo + 1, 2)
                images = {eight_domain_state(
                    params, _mirror_state(start, fx, fy))[1:]: (fx, fy)
                    for fx, fy in ((1, 0), (0, 1), (1, 1))}
                home = eight_domain_state(params, start)[1:]
                met = []
                for j, (k, t, m, n, _) in enumerate(
                        eight_domain_steps(params, start), 1):
                    if (k, t) == home:
                        break
                    if (k, t) in images:
                        met.append((j, m, n, images[k, t]))
                L, (dm, dn), _ = cyc.orbit(cyc.r[0])
                assert (j, m, n) == (L, dm, dn)
                if met:
                    [(j, m, n, (fx, fy))] = met
                    assert 2 * j == L and cyc.length == j
                    assert (dm, dn) == (0 if fx else 2 * m, 0 if fy else 2 * n)
                    assert cyc.reflection == fx | 2 * fy
                    closes["at half"] += 1
                else:
                    assert cyc.length == L and cyc.reflection == 0
                    closes["whole"] += 1
                assert cyc.phase == list(range(0, cyc.length, G))
                if (dm, dn) == (0, 0):
                    assert met
                    seen["closed"] += 1
                elif dm and dn:
                    assert not met
                    seen["oblique strip"] += 1
                else:
                    seen["axis strip"] += 1
                    seen["axis strip meets"] += bool(met)
    assert min(seen.values()) >= 50, seen
    assert seen["axis strip meets"] < seen["axis strip"], seen
    assert min(closes.values()) >= 50, closes


# The start of a closed cycle and of a strip of the rational-orbits round:
# (slope, sample seed, period).
_HALF_CLOSES = (((4181, 6765), 1, 21892), ((1597, 2584), 8, 2794))


@pytest.mark.parametrize("uv, seed, L", _HALF_CLOSES)
def test_walk_budgets_around_half_the_period(uv, seed, L):
    # a walk closes at L/2 only when the whole period fits its budget;
    # every budget around L/2 and L answers as stepping does
    slope = Slope(*uv)
    s = sample_boundary_starts(HALF, slope, 1, seed)[0]
    start = make_state(HALF, (0, 0), s.side, s.offset, slope, s.orientation)
    whole = _stepped_outcome(start, HALF, L)
    assert whole.combinatorial_length == L and whole.drift in ((0, 0),
                                                               (720, 0))
    for cap in (L // 2 - 1, L // 2, L // 2 + 1, L - 1, L):
        _cycle_store.cache_clear()
        assert classify_trajectory(start, HALF, cap) == \
            _stepped_outcome(start, HALF, cap)
        _cycle_store.cache_clear()
        assert first_return(start, HALF, cap) == \
            _stepped_first_return(start, HALF, cap)


class _Taken(tuple):
    """A piece in one frame that logs its level when it is unpacked, which
    `_walk_period` does only to take it."""

    def __iter__(self):
        self.log.append(self.level)
        return tuple.__iter__(self)


class _TakenRow:
    """A view of a row of map pieces of one level whose pieces log when
    they are taken; the row itself may still grow."""

    def __init__(self, row, log, level):
        self.row, self.log, self.level = row, log, level

    def __getitem__(self, i):
        piece = self.row[i]
        if piece is None:
            return None
        frames = tuple(map(_Taken, piece))
        for frame in frames:
            frame.log, frame.level = self.log, self.level
        return frames


class _TakenTables:
    """An orbit's table as `_walk_period` reads it, with every piece the
    walk takes logged by its level j, a step of 2^j collisions; `find`
    still composes into the table itself."""

    def __init__(self, tables, log):
        self.find, self.edges = tables.find, tables.edges
        self.corners = tables.corners
        self.rows = [[_TakenRow(row, log, 0) for row in tables.rows[0]]]
        self.tables, self.log = tables, log

    def level(self, j):
        edges, rows = self.tables.level(j)
        return edges, [_TakenRow(row, self.log, j) for row in rows]


@pytest.mark.parametrize("uv, seed, L", _HALF_CLOSES)
def test_walk_steps_half_the_period(uv, seed, L, monkeypatch):
    # the recording walk takes pieces worth exactly L/2 collisions, on
    # every level of the tower from single pieces to T^32; the short walk
    # back from the start to its predecessors (`Orbit.advance`) is not
    # counted
    slope = Slope(*uv)
    s = sample_boundary_starts(HALF, slope, 1, seed)[0]
    walk = Orbit(make_state(HALF, (0, 0), s.side, s.offset, slope,
                            s.orientation), HALF)
    log = []
    walk.tables = _TakenTables(walk.tables, log)
    advance = Orbit.advance

    def unlogged_advance(self, *args):
        logged, self.tables = self.tables, self.tables.tables
        try:
            return advance(self, *args)
        finally:
            self.tables = logged

    monkeypatch.setattr(Orbit, "advance", unlogged_advance)
    res = billiard._walk_period(walk, 10**6, billiard._CycleStore())
    assert res.cycle.length == res.steps == L // 2
    assert res.cycle.reflection and res.cycle.orbit(0)[0] == L
    taken = Counter(log)
    assert sum(count << j for j, count in taken.items()) == L // 2
    assert set(taken) == set(range(6)), taken


# -- the recording walk on the power map ---------------------------------

# The collisions from which a recording walk steps on T^32, one landmark
# block (T^P from _CLIMB*P).
_TOP_FROM = billiard._CLIMB * billiard._LANDMARK_EVERY

_CYCLE_COLUMNS = ("length", "reflection", "drift", "extent", "lo", "hi",
                  "span", "phase", "k", "r", "off", "cm", "cn", "ea", "mlo",
                  "mhi", "nlo", "nhi")


def _cycle_record(cyc):
    """A `_Cycle` as plain data: every column."""
    return [list(getattr(cyc, c)) if c in ("k", "r") else getattr(cyc, c)
            for c in _CYCLE_COLUMNS]


def _walk_record(res):
    """A `_Walk` as plain data: every field, with the corner as its point
    and each cycle, recorded or found, as every column."""
    corner = res.corner and (res.corner.x, res.corner.y)
    cycle = res.cycle and _cycle_record(res.cycle)
    found = res.found and (_cycle_record(res.found[0]), *res.found[1:])
    return res._replace(corner=corner, cycle=cycle, found=found)


def _walk_both_ways(params, start, limit, to_cell=False, cycles=()):
    """The walks of `_walk_period` and of the single-piece reference from
    one start, each looking up and recording into a store of its own that
    holds ``cycles`` to begin with, as plain data."""
    out = []
    for walk in (billiard._walk_period, single_piece_walk):
        store = billiard._CycleStore()
        for cyc in cycles:
            store.add(cyc)
        out.append(_walk_record(walk(Orbit(start, params), limit, store,
                                     to_cell)))
    return out


_BENCH_SLOPES = ("233/377", "987/1597", "1597/2584", "2584/4181",
                 "4181/6765", "6765/10946", "10946/17711")


@pytest.mark.parametrize("slope", _BENCH_SLOPES)
def test_power_walk_records_the_bench_slopes_as_single_steps(slope):
    # the rational-orbits slopes on 1/2,1/2: periodic and escaping cycles
    # of 1,220 to 21,892 collisions, walked whole and to the start cell
    slope = Slope.parse(slope)
    for seed in (1, 2):
        s = sample_boundary_starts(HALF, slope, 1, seed)[0]
        start = make_state(HALF, (0, 0), s.side, s.offset, slope,
                           s.orientation)
        for to_cell in (False, True):
            got, want = _walk_both_ways(HALF, start, 24000, to_cell)
            assert got == want
            assert want.steps > _TOP_FROM
            assert want.cycle is not None or want.returned


def test_power_walk_stops_in_the_start_cell_on_a_box_edge():
    # a walk to the start cell, past its first _TOP_FROM collisions, whose
    # return falls inside a piece of T^8 whose box has the start cell on
    # its edge
    params = classify_params(2, 7, 3, 4)
    start = make_state(params, (-1, 2), RIGHT, Fraction(103111, 917504),
                       Slope(66, 47), (1, 1))
    got, want = _walk_both_ways(params, start, 30000, to_cell=True)
    assert got == want
    assert want.returned and want.steps > _TOP_FROM


def test_power_walk_reports_a_corner_right_at_its_limit():
    # a walk whose last allowed collision lands on a breakpoint reports
    # the corner the next step runs into, and classify_trajectory calls
    # the start singular, as stepping does
    rng = random.Random(5)
    for pqrs, uv in _LONG_CYCLE_TABLES:
        params, slope = classify_params(*pqrs), Slope(*uv)
        start, before = _corner_bound_start(params, slope, (1, -1), 700,
                                            rng)
        got, want = _walk_both_ways(params, start, before)
        assert got == want and want.steps == before
        assert want.corner is not None and want.cycle is None
        _cycle_store.cache_clear()
        out = classify_trajectory(start, params, before)
        assert out.kind is Outcome.SINGULAR
        assert out == _stepped_outcome(start, params, before)


# Walks to the start cell whose first return falls inside a piece of T^P,
# P = 2^j, whose box has the start cell on its low or high n edge, where
# the walk first meets such a piece: (j, edge, start as in
# `_RESIDUE_STARTS`, collisions to the return).
_N_EDGE_RETURNS = (
    (1, "low", ((1, 2, 8, 9), (43, 59), TOP, 1, 12, -1, (-3, 3)), 50),
    (1, "high", ((3, 7, 5, 9), (61, 52), LEFT, 7, 12, -1, (2, 0)), 264),
    (2, "low", ((1, 7, 5, 8), (54, 47), LEFT, 5, 8, 1, (-1, 3)), 88),
    (2, "high", ((1, 7, 5, 8), (54, 47), LEFT, 6, 11, -1, (-1, -2)), 88),
    (3, "low", ((3, 7, 7, 8), (23, 89), LEFT, 4, 6, 1, (-1, -3)), 696),
    (3, "high", ((3, 7, 7, 8), (23, 89), LEFT, 1, 3, -1, (-2, -3)), 696),
    (4, "low", ((2, 7, 3, 4), (66, 47), RIGHT, 4, 5, 1, (-3, -3)), 644),
    (4, "high", ((2, 7, 3, 4), (66, 47), BOTTOM, 3, 10, -1, (1, 0)), 644),
    (5, "low", ((1, 5, 5, 7), (16, 97), TOP, 4, 7, 1, (-2, 3)), 1020),
    (5, "high", ((3, 7, 7, 8), (23, 89), BOTTOM, 4, 5, -1, (1, 3)), 698))


@pytest.mark.parametrize("j, edge, data, steps", _N_EDGE_RETURNS,
                         ids=[f"T{1 << j}-{edge}"
                              for j, edge, *_ in _N_EDGE_RETURNS])
def test_power_walk_stops_in_the_start_cell_on_an_n_edge(j, edge, data,
                                                          steps):
    # a piece of T^P that would pass over the return is refused even with
    # the start cell on the edge of its box, on every level of the tower
    params, start = _random_start(*data)
    got, want = _walk_both_ways(params, start, 30000, to_cell=True)
    assert got == want
    assert want.returned and want.steps == steps > billiard._CLIMB << j


def _indexed_one_landmark_at_a_time(cycles):
    """The per-domain intervals of the cycles' landmarks, each landmark
    bisected into place and checked against its neighbours: (los, his,
    refs) as `_CycleStore` keeps them."""
    los, his, refs = ([[], []] for _ in range(3))
    for c, cyc in enumerate(cycles):
        for b, (k, (lo, hi)) in enumerate(zip(cyc.k, cyc.intervals())):
            i = bisect_left(los[k], lo)
            assert not (i and his[k][i - 1] > lo)
            assert not (i < len(los[k]) and los[k][i] < hi)
            los[k].insert(i, lo)
            his[k].insert(i, hi)
            refs[k].insert(i, c << 32 | b)
    return los, his, refs


def test_cycle_store_merges_landmarks_as_one_at_a_time_inserts():
    # the cycles of the rational-orbits slopes on 1/2,1/2, recorded from
    # sampled starts, indexed by merging each cycle's sorted landmarks and
    # by inserting them one at a time; a cycle that overlaps a recorded
    # one, whole or by one landmark, is refused and changes nothing
    recorded = 0
    for slope in _BENCH_SLOPES:
        slope = Slope.parse(slope)
        store = billiard._CycleStore()
        for seed in range(1, 9):
            s = sample_boundary_starts(HALF, slope, 1, seed)[0]
            walk = Orbit(make_state(HALF, (0, 0), s.side, s.offset, slope,
                                    s.orientation), HALF)
            billiard._walk_period(walk, 10**5, store)
        recorded += len(store.cycles)
        index = (store.los, store.his, store.refs)
        assert index == _indexed_one_landmark_at_a_time(store.cycles)
        before = [[list(col) for col in cols] for cols in index]
        twin = billiard._Cycle()
        for col in _CYCLE_COLUMNS:
            setattr(twin, col, getattr(store.cycles[0], col))
        with pytest.raises(AssertionError, match="overlap"):
            store.add(twin)
        # a cycle of one landmark, half an interval off a recorded one
        cyc = store.cycles[-1]
        part = billiard._Cycle()
        part.k.append(cyc.k[-1])
        part.r.append(cyc.r[-1])
        part.off = [cyc.off[-1] + (cyc.hi - cyc.lo) // 2]
        part.lo, part.hi = cyc.lo, cyc.hi
        with pytest.raises(AssertionError, match="overlap"):
            store.add(part)
        assert [[list(col) for col in cols]
                for cols in (store.los, store.his, store.refs)] == before
    assert recorded >= 10, recorded


# Tables with cycles longer than 512 collisions, where walks step on T^32:
# of each even length mod 8 on the 8 domains, and of odd lengths on the
# quotient (closed at half).
_LONG_CYCLE_TABLES = (((5, 7, 5, 9), (5, 4)), ((2, 7, 3, 4), (66, 47)),
                      ((8, 9, 7, 8), (38, 51)), ((1, 2, 8, 9), (43, 59)),
                      ((1, 7, 5, 8), (54, 47)), ((3, 7, 5, 9), (61, 52)),
                      ((3, 7, 7, 8), (23, 89)), ((5, 12, 4, 5), (98, 9)))

# Starts (table, slope, side, offset num/den of the side, tangent sign,
# cell) at n0 > 1 whose cycles close after 513 to 612 collisions, one for
# each residue mod 32: the close cuts the last block at every offset.
_RESIDUE_STARTS = (
    ((4, 9, 3, 11), (99, 20), LEFT, 1, 9, 1, (-1, 1)),
    ((5, 11, 1, 3), (73, 57), LEFT, 5, 7, -1, (-1, 1)),
    ((5, 8, 3, 4), (37, 79), LEFT, 2, 7, -1, (3, -1)),
    ((7, 10, 3, 7), (14, 17), LEFT, 7, 8, -1, (-3, 3)),
    ((2, 3, 3, 4), (71, 19), BOTTOM, 6, 10, -1, (0, 3)),
    ((7, 9, 1, 4), (41, 1), LEFT, 1, 2, 1, (3, 3)),
    ((2, 3, 1, 11), (79, 15), TOP, 2, 7, -1, (0, -3)),
    ((1, 2, 1, 5), (91, 82), RIGHT, 3, 10, -1, (0, 2)),
    ((9, 10, 1, 5), (75, 19), TOP, 1, 7, 1, (1, 3)),
    ((5, 8, 2, 9), (94, 57), TOP, 2, 7, 1, (0, -1)),
    ((3, 7, 2, 5), (50, 1), RIGHT, 2, 5, -1, (-3, 0)),
    ((1, 2, 8, 11), (50, 31), LEFT, 1, 12, -1, (3, 3)),
    ((4, 7, 1, 2), (55, 57), LEFT, 5, 6, 1, (-2, -1)),
    ((1, 2, 11, 12), (99, 23), LEFT, 1, 3, -1, (3, 2)),
    ((1, 8, 2, 7), (67, 23), LEFT, 1, 3, 1, (-3, -2)),
    ((3, 5, 8, 11), (35, 37), BOTTOM, 1, 2, 1, (1, 1)),
    ((9, 10, 1, 2), (13, 95), RIGHT, 1, 2, 1, (2, 2)),
    ((1, 3, 1, 7), (64, 27), RIGHT, 7, 12, -1, (-3, 2)),
    ((1, 8, 1, 3), (19, 88), RIGHT, 8, 12, -1, (2, -2)),
    ((1, 2, 5, 8), (76, 69), RIGHT, 1, 6, -1, (-2, -2)),
    ((2, 11, 2, 3), (41, 13), TOP, 6, 10, -1, (1, -3)),
    ((1, 2, 7, 10), (61, 76), BOTTOM, 2, 4, 1, (-1, 0)),
    ((7, 10, 1, 8), (31, 79), RIGHT, 2, 11, 1, (2, -1)),
    ((1, 2, 7, 9), (73, 58), TOP, 3, 5, -1, (2, -3)),
    ((11, 12, 2, 9), (7, 46), LEFT, 11, 12, -1, (3, -1)),
    ((5, 8, 4, 5), (23, 99), RIGHT, 7, 10, 1, (2, -2)),
    ((3, 10, 4, 9), (1, 19), TOP, 3, 10, 1, (-1, 2)),
    ((4, 9, 5, 6), (41, 50), LEFT, 6, 12, -1, (2, -3)),
    ((1, 2, 10, 11), (20, 43), LEFT, 4, 9, -1, (0, 3)),
    ((1, 2, 4, 11), (1, 73), BOTTOM, 2, 5, -1, (2, -3)),
    ((2, 7, 2, 3), (32, 25), TOP, 3, 5, 1, (1, 0)),
    ((1, 3, 6, 7), (97, 82), RIGHT, 1, 2, 1, (3, 1)))


def test_power_walk_equals_single_piece_walk_on_random_tables(monkeypatch):
    # random tables of all three parity classes and slopes up to 99, and
    # tables with long cycles; starts at lattice scales n0 > 1 in random
    # cells, walked whole or to the start cell, with limits that cut a
    # walk mid-block or at a non-multiple of 8; starts that run into a
    # corner inside a power piece; then a start closing at each residue
    # mod 32.  Periods on the 8 domains are even (each orientation sign
    # flips an even number of times), but a cycle closed at half its
    # period on the quotient can be odd: closed cycles of every residue
    # mod 32 are seen; returns to the start cell and corners come inside
    # pieces of T^8, T^16 and T^32 too, and each of those levels is read.
    for k, (side, (sx, sy)) in enumerate(DOMAINS):
        # the walk finds the start's predecessors by time reversal
        assert DOMAINS[k ^ 1] == (side, leaving_orientation(side, (-sx, -sy)))
    reads, tables = {3: [], 4: [], 5: []}, {}
    power_map = billiard._power_map

    def logged_power_map(*key):
        # tables of the test's own, not the module cache's, whose levels
        # T^8, T^16 and T^32, made at once, log every read of their rows
        if key not in tables:
            tables[key] = billiard._PowerMap(*key)
            tables[key].level(5)
            for j, log in reads.items():
                rows = tables[key].rows[j]
                rows[:] = [_LoggedList(row, log) for row in rows]
        return tables[key]

    monkeypatch.setattr(billiard, "_power_map", logged_power_map)
    rng = random.Random(16)
    seen = {"classes": set(), "residues": set(), "n0": 0, "returned8": 0,
            "returned16": 0, "returned32": 0, "corner8": 0, "corner16": 0,
            "corner32": 0, "limit": 0, "mid-block": 0}
    for case in range(320):
        if case % 2:
            pqrs, uv = rng.choice(_LONG_CYCLE_TABLES)
        else:
            while True:
                q, s = rng.randint(2, 12), rng.randint(2, 12)
                pqrs = (rng.randint(1, q - 1), q, rng.randint(1, s - 1), s)
                uv = (rng.randint(1, 99), rng.randint(1, 99))
                if gcd(*pqrs[:2]) == gcd(*pqrs[2:]) == gcd(*uv) == 1:
                    break
        params, slope = classify_params(*pqrs), Slope(*uv)
        cell = (rng.randint(-3, 3), rng.randint(-3, 3))
        if case % 3 == 2:
            start = _corner_bound_start(params, slope, cell,
                                        rng.randint(520, 700), rng)[0]
        else:
            den = rng.randint(2, 12)
            start = _random_start(pqrs, uv,
                                  rng.choice((LEFT, RIGHT, BOTTOM, TOP)),
                                  rng.randint(1, den - 1), den,
                                  rng.choice((1, -1)), cell)[1]
        limit = rng.choice((10**6, rng.randint(_TOP_FROM, 2000),
                            8 * rng.randint(65, 250)))
        to_cell = rng.random() < 0.5
        got, want = _walk_both_ways(params, start, limit, to_cell)
        assert got == want, case
        seen["classes"].add(params.parity_class)
        steps = want.steps
        if want.cycle is not None and not want.returned:
            if steps > _TOP_FROM:
                seen["residues"].add(steps % 32)
                seen["n0"] += Orbit(start, params).n0 > 1
        elif want.returned or want.corner is not None:
            # inside a piece of T^P, which a walk steps on from _CLIMB*P on
            stop = "returned" if want.returned else "corner"
            for p in (8, 16, 32):
                seen[f"{stop}{p}"] += (steps > billiard._CLIMB * p and
                                       steps % p != 0)
        elif steps == limit and steps > _TOP_FROM:
            seen["limit"] += limit % 8 != 0
            seen["mid-block"] += limit % 8 == 0 != limit % 32
    for data in _RESIDUE_STARTS:
        params, start = _random_start(*data)
        got, want = _walk_both_ways(params, start, 10**6)
        assert got == want and want.cycle is not None, data
        assert Orbit(start, params).n0 > 1
        seen["residues"].add(want.steps % 32)
    assert seen.pop("classes") == set(ParityClass)
    assert seen.pop("residues") == set(range(32))
    assert min(seen.values()) >= 5, seen
    # every level is read, T^8 no less than when it was the top
    assert len(reads[3]) > 5000 and len(reads[4]) > 2000 and \
        len(reads[5]) > 2000, {j: len(log) for j, log in reads.items()}
    # the module cache's tables for the same keys log nothing
    for key in tables:
        assert not any(isinstance(row, _LoggedList)
                       for level in power_map(*key).rows for row in level)


def _with_an_empty_store(monkeypatch, answer, *args):
    """answer(*args) with a new, empty cycle store for each call: the answer
    of a walk that finds no recorded cycle."""
    with monkeypatch.context() as patched:
        patched.setattr(billiard, "_cycle_store",
                        lambda *key: billiard._CycleStore())
        return answer(*args)


def _assert_found_as_with_an_empty_store(params, start, rng, monkeypatch):
    """Record the cycle of ``start``; then check starts on it, at lattice
    scales 1 to 5 and up to 40 collisions past a landmark, each with its
    images under the table's reflections.  Each walk stops at a landmark
    within one landmark block, or in the start cell before it, and records
    nothing, as the single-piece reference does, walking whole or to the
    start cell; first_return and
    classify_trajectory, at the period's cap and below it, answer what
    they answer with an empty store.  Returns the lattice scales and the
    collisions walked to a landmark, or None where the start has no cycle
    within 30,000 collisions."""
    slope = start.slope
    _cycle_store.cache_clear()
    out = classify_trajectory(start, params, 30000)
    if out.kind not in (Outcome.PERIODIC, Outcome.ESCAPING):
        return None
    period = out.combinatorial_length
    store = _cycle_store(params, slope.u, slope.v)
    [cyc] = store.cycles
    seen = []
    for _ in range(2):
        b = rng.randrange(len(cyc.phase))
        lo, hi = cyc.intervals()[b]
        n0 = rng.randint(1, 5)
        state = _quotient_state_at(params, slope, cyc.k[b],
                                   rng.randint(n0 * lo + 1, n0 * hi - 1), n0,
                                   (rng.randint(-3, 3), rng.randint(-3, 3)))
        j = rng.randint(0, 40)
        state = later_state(params, state, j) if j else state
        for fx, fy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            image = _mirror_state(state, fx, fy)
            for to_cell in (False, True):
                got, want = _walk_both_ways(params, image, 30000, to_cell,
                                            [cyc])
                assert got == want and want.cycle is None
                if want.returned:  # back in its cell before a landmark
                    assert to_cell and want.found is None
                    assert want.steps < billiard._LANDMARK_EVERY
                    continue
                assert want.found[0] == _cycle_record(cyc)
                assert want.steps == want.found[2] < billiard._LANDMARK_EVERY
            for horizon in (1, rng.randint(2, period),
                            rng.randint(period, 3 * period)):
                assert first_return(image, params, horizon) == \
                    _with_an_empty_store(monkeypatch, first_return, image,
                                         params, horizon)
            for cap in (30000, period, period - 1):
                assert classify_trajectory(image, params, cap) == \
                    _with_an_empty_store(monkeypatch, classify_trajectory,
                                         image, params, cap)
            res = billiard._walk_period(Orbit(image, params), 30000, store)
            assert res.found[0] is cyc and res.cycle is None
            seen.append((Orbit(image, params).n0, res.steps))
    assert store.cycles == [cyc]
    return seen


@pytest.mark.parametrize("slope", _BENCH_SLOPES)
def test_found_walks_answer_the_bench_slopes_as_an_empty_store(slope,
                                                               monkeypatch):
    # the rational-orbits slopes on 1/2,1/2, whose cycles are walked on
    # every level of the tower
    rng = random.Random(slope)
    slope = Slope.parse(slope)
    s = sample_boundary_starts(HALF, slope, 1, 1)[0]
    start = make_state(HALF, (0, 0), s.side, s.offset, slope, s.orientation)
    seen = _assert_found_as_with_an_empty_store(HALF, start, rng,
                                                monkeypatch)
    assert any(steps for _, steps in seen)


def test_found_walks_answer_random_tables_as_an_empty_store(monkeypatch):
    # random tables of all three parity classes and slopes up to 40, with
    # walks to a landmark of every length below one landmark block
    rng = random.Random(28)
    seen, classes, lengths = [], set(), set(range(billiard._LANDMARK_EVERY))
    while len(classes) < 3 or {steps for _, steps in seen} != lengths:
        pqrs, slope = _random_table_and_direction(rng, 1)
        side = rng.choice((LEFT, RIGHT, BOTTOM, TOP))
        den = rng.randint(2, 12)
        params, start = _random_start(pqrs, (slope.u, slope.v), side,
                                      rng.randint(1, den - 1), den,
                                      rng.choice((1, -1)), (0, 0))
        found = _assert_found_as_with_an_empty_store(params, start, rng,
                                                     monkeypatch)
        if found:
            seen += found
            classes.add(params.parity_class)
    assert len({n0 for n0, _ in seen}) >= 3


@pytest.mark.parametrize("slope", _BENCH_SLOPES)
def test_found_cycle_above_the_cap_answers_as_a_fresh_store_walk(
        slope, monkeypatch):
    # a start on a recorded cycle whose period exceeds the cap is
    # undetermined, with its extent at the cap read off the cycle: what a
    # walk with a fresh store answers, at caps of the period less 1, about
    # half the period, 33 and 31, from starts at several phases of the
    # cycle and their images under the table's reflections
    rng = random.Random(slope)
    slope = Slope.parse(slope)
    s = sample_boundary_starts(HALF, slope, 1, 1)[0]
    start = make_state(HALF, (0, 0), s.side, s.offset, slope, s.orientation)
    _cycle_store.cache_clear()
    period = classify_trajectory(start, HALF, 30000).combinatorial_length
    store = _cycle_store(HALF, slope.u, slope.v)
    [cyc] = store.cycles
    for j in (0, rng.randint(1, 40), rng.randint(41, period - 1)):
        state = _mirror_state(later_state(HALF, start, j) if j else start,
                              rng.randint(0, 1), rng.randint(0, 1))
        walk = billiard._walk_period(Orbit(state, HALF), 33, store)
        assert walk.found[0] is cyc
        for cap in (period - 1, period // 2 + rng.randint(-3, 3), 33, 31):
            got = classify_trajectory(state, HALF, cap)
            fresh = billiard._walk_period(Orbit(state, HALF), cap,
                                          billiard._CycleStore())
            assert fresh.steps == cap and fresh.corner is None
            assert got == TrajectoryOutcome(
                Outcome.UNDETERMINED, cap,
                Fraction(fresh.extent, slope.v * Orbit(state, HALF).lattice.N),
                (0, 0))
            assert got == _with_an_empty_store(
                monkeypatch, classify_trajectory, state, HALF, cap)
    assert store.cycles == [cyc]
