import math
import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from windtree import billiard, experiments
from windtree.billiard import (BOTTOM, DOMAINS, LEFT, RIGHT, TOP, Orbit,
                               Outcome, _cycle_store, _return_map,
                               classify_trajectory, make_state)
from windtree.errors import CornerHit, DomainError, PrecisionError
from windtree.exact import Params, ParityClass, Slope, classify_params
from windtree.experiments import (Approximant, DiffusionSample, DirectionSpec,
                                  SampleResult, SampleStart,
                                  _diffusion_sample, _run_sample,
                                  approximation_search, diffusion_experiment,
                                  exact_direction, iterated_log,
                                  quantize_direction, recurrence_experiment,
                                  sample_boundary_starts, stability_check)

from grid_stepper import assert_resolved, long_pieces
from support import path_length

HALF = classify_params(1, 2, 1, 2)
TWO_THIRDS = classify_params(2, 3, 2, 3)


def golden_truncation(depth=12):
    """Continued-fraction truncation of the golden-ratio slope."""
    val = Fraction(1)
    for _ in range(depth):
        val = 1 / (1 + val)
    return exact_direction(val)


def test_sampler_is_deterministic_and_on_boundary():
    a = sample_boundary_starts(HALF, Slope(1, 2), 50, seed=9)
    b = sample_boundary_starts(HALF, Slope(1, 2), 50, seed=9)
    assert a == b
    c = sample_boundary_starts(HALF, Slope(1, 2), 50, seed=10)
    assert a != c
    for st in a:
        length = HALF.a if st.side in ("bottom", "top") else HALF.b
        assert 0 < st.offset < length


def test_recurrence_good_direction_everything_returns():
    report = recurrence_experiment(HALF, exact_direction(Fraction(3, 7)),
                                   n_samples=40, horizon=5000, seed=1)
    assert report.returned_fraction == 1
    for s in report.samples:
        assert s.outcome == "returned"
        assert s.drift == (0, 0)


def test_recurrence_axis_corridor_fraction_below_one():
    report = recurrence_experiment(HALF, exact_direction(0),
                                   n_samples=60, horizon=100, seed=2)
    outcomes = {s.outcome for s in report.samples}
    assert "corridor" in outcomes and "returned" in outcomes
    assert 0 < report.returned_fraction < 1


@pytest.mark.parametrize("table,slope", [("1/2,1/2", Slope(0, 1)),
                                         ("1/3,1/2", Slope(0, 1)),
                                         ("1/3,1/2", Slope(1, 0))])
def test_recurrence_axis_samples_respect_a_horizon_of_one(table, slope):
    # one collision reaches the facing side of the neighbor, not the
    # origin obstacle: lost one cell away after a flight of 1 - a (slope
    # 0) or 1 - b (slope 1/0); a second collision comes back
    params = Params.parse(table)
    direction = DirectionSpec(slope)
    report = recurrence_experiment(params, direction, n_samples=8,
                                   horizon=1, seed=11)
    assert report.returned_fraction == report.returned_fraction_at(1) == 0
    starts = sample_boundary_starts(params, slope, 8, 11)
    lost = 0
    for s, st0 in zip(report.samples, starts):
        if s.outcome == "corridor":
            continue
        assert s.outcome == "lost" and s.first_return is None
        state = make_state(params, (0, 0), st0.side, st0.offset, slope,
                           st0.orientation)
        assert s.drift == billiard.next_collision(state, params).cell
        assert s.geometric_length == path_length(
            billiard.trace(state, params, 1), slope)
        lost += 1
    assert lost > 0
    longer = recurrence_experiment(params, direction, n_samples=8,
                                   horizon=2, seed=11)
    assert {s.outcome for s in longer.samples} <= {"returned", "corridor"}


def test_recurrence_golden_direction_mostly_returns():
    report = recurrence_experiment(HALF, golden_truncation(), n_samples=50,
                                   horizon=20000, seed=3)
    assert report.returned_fraction >= Fraction(95, 100)
    fr = [report.returned_fraction_at(h) for h in (10, 100, 1000, 20000)]
    assert fr == sorted(fr)


def test_recurrence_csv_deterministic():
    kw = dict(n_samples=20, horizon=2000, seed=5)
    r1 = recurrence_experiment(HALF, golden_truncation(), **kw)
    r2 = recurrence_experiment(HALF, golden_truncation(), **kw)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_csv().splitlines()[0].startswith("sample_id,")


def test_recurrence_parallel_jobs_agree():
    kw = dict(n_samples=12, horizon=2000, seed=6)
    serial = recurrence_experiment(HALF, golden_truncation(), **kw)
    parallel = recurrence_experiment(HALF, golden_truncation(), jobs=2, **kw)
    assert serial.to_csv() == parallel.to_csv()


def test_recurrence_jobs_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures
    import os
    workers = []

    class FakePool:
        # records the pool size and maps in-process: no worker starts
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    kw = dict(n_samples=4, horizon=500, seed=6)
    report = recurrence_experiment(HALF, golden_truncation(), jobs=64, **kw)
    assert workers == [3]
    assert report.to_csv() == \
        recurrence_experiment(HALF, golden_truncation(), **kw).to_csv()


def test_shadow_guard_passes_on_consistent_direction():
    # a value quantized from plenty of precision: shadow agrees
    import math
    direction = quantize_direction(Fraction(math.isqrt(2 * 10**40), 10**20), 64)
    report = recurrence_experiment(HALF, direction, n_samples=3, horizon=600,
                                   seed=7, shadow=True)
    assert len(report.samples) == 3


def test_shadow_guard_detects_coarse_direction():
    # quantizing a direction from far too few bits must eventually diverge
    coarse = quantize_direction(Fraction(1, 3) + Fraction(1, 2**12), 14)
    with pytest.raises(PrecisionError):
        recurrence_experiment(HALF, coarse, n_samples=5, horizon=50000,
                              seed=8, shadow=True)


def _sample_reference(params, slope, start, horizon):
    """The recurrence sample stepped collision by collision to the first
    return or the horizon."""
    walk = Orbit(make_state(params, (0, 0), start.side, start.offset, slope,
                            start.orientation), params)
    vN = slope.v * walk.lattice.N
    total = m = n = 0

    def result(outcome, first, drift):
        return SampleResult(start.sample_id, start.side, start.offset, outcome,
                            first, drift, Fraction(total, vN))
    try:
        for i, (_k, _t, m, n, adx) in enumerate(islice(walk, horizon), 1):
            total += adx
            if m == 0 and n == 0:
                return result("returned", i, (0, 0))
    except CornerHit:
        return result("singular", None, (m, n))
    return result("lost", None, (m, n))


_tables = st.tuples(st.integers(1, 11), st.integers(2, 12),
                    st.integers(1, 11), st.integers(2, 12)).filter(
    lambda t: t[0] < t[1] and t[2] < t[3]
    and gcd(t[0], t[1]) == 1 and gcd(t[2], t[3]) == 1)


@settings(max_examples=150, deadline=None)
@given(pqrs=_tables, uv=st.tuples(st.integers(1, 60), st.integers(1, 60)),
       side=st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
       num=st.integers(1, 2**16), den=st.integers(2, 2**12),
       tangent=st.sampled_from([1, -1]),
       periods=st.integers(0, 4), extra=st.sampled_from([-1, 0, 1, None]),
       free=st.integers(1, 3000))
def test_run_sample_matches_stepping_to_the_horizon_property(
        pqrs, uv, side, num, den, tangent, periods, extra, free):
    # horizons below, at and at multiples of the period, and free ones
    params = classify_params(*pqrs)
    g = gcd(*uv)
    slope = Slope(uv[0] // g, uv[1] // g)
    length = params.b if side in (LEFT, RIGHT) else params.a
    orient = {LEFT: (-1, tangent), RIGHT: (1, tangent),
              BOTTOM: (tangent, -1), TOP: (tangent, 1)}[side]
    start = SampleStart(0, side, Fraction(num % den or 1, den) * length,
                        orient)
    period = classify_trajectory(
        make_state(params, (0, 0), side, start.offset, slope, orient),
        params, 20000).combinatorial_length
    horizon = free if extra is None else \
        min(max(1, periods * period + extra), 40000)
    assert _run_sample(params, slope, start, horizon, None) == \
        _sample_reference(params, slope, start, horizon)


def test_recurrence_return_after_the_first_period():
    # On 4/5,1/12 at slope 2 the third start of seed 464203021 is back on
    # its start state after 178 collisions, one period's drift away from
    # the origin.  Its cell after 18 collisions is two drifts back (a
    # return at 2*178 + 18 = 374), the one after 156 a single drift
    # back: the first return is 178 + 156 = 334.
    params = classify_params(4, 5, 1, 12)
    slope = Slope(2, 1)
    seed = 464203021
    start = sample_boundary_starts(params, slope, 3, seed)[2]
    state = make_state(params, (0, 0), start.side, start.offset, slope,
                       start.orientation)
    assert classify_trajectory(state, params).combinatorial_length == 178
    for horizon, first in ((177, None), (178, None), (333, None), (334, 334),
                           (356, 334), (374, 334), (534, 334), (2000, 334)):
        got = recurrence_experiment(params, exact_direction(2), 3, horizon,
                                    seed).samples[2]
        assert got.first_return == first
        assert got == _sample_reference(params, slope, start, horizon)


def test_recurrence_lost_at_a_multiple_of_a_short_period():
    # 1/4,1/2 at slope 24/11: the second start of seed 161260831 repeats
    # after 6 collisions and first returns at 10
    params = classify_params(1, 4, 1, 2)
    slope = Slope(24, 11)
    start = sample_boundary_starts(params, slope, 2, 161260831)[1]
    for horizon in range(1, 25):
        got = _run_sample(params, slope, start, horizon, None)
        assert got == _sample_reference(params, slope, start, horizon)
        assert got.first_return == (10 if horizon >= 10 else None)


def test_shadow_guard_checks_past_the_period():
    # theta quantized at 8 bits is slope 1/2, whose orbits repeat after 2
    # collisions with a drift; the 16-bit shadow leaves them, so the guard
    # must keep comparing to the end rather than finish from the period
    coarse = quantize_direction(Fraction(1, 2) + Fraction(1, 2**12), 8)
    plain = recurrence_experiment(HALF, coarse, 1, 5000, 0)
    assert plain.samples[0].outcome == "lost"
    with pytest.raises(PrecisionError):
        recurrence_experiment(HALF, coarse, 1, 5000, 0, shadow=True)


def _reference_shadowed_sample(params, slope, start, horizon, shadow_slope):
    # the lockstep loop: primary and shadow one collision at a time
    walk = Orbit(make_state(params, (0, 0), start.side, start.offset, slope,
                            start.orientation), params)
    vN = slope.v * walk.lattice.N
    sh_walk = Orbit(make_state(params, (0, 0), start.side, start.offset,
                               shadow_slope, start.orientation), params)
    shadow = iter(sh_walk)

    def check_shadow(i, cur, sh_cur):
        p, q = walk.position(*cur), sh_walk.position(*sh_cur)
        dx, dy = abs(p.x - q.x), abs(p.y - q.y)
        tolerance = experiments.SHADOW_TOLERANCE
        if dx > tolerance or dy > tolerance:
            raise PrecisionError(
                f"shadow divergence {float(max(dx, dy)):.3e} at "
                f"collision {i} exceeds 2^-30")

    steps = iter(walk)
    total_dx = 0
    m = n = 0
    for i in range(1, horizon + 1):
        try:
            k, t, m, n, adx = next(steps)
        except CornerHit:
            return SampleResult(start.sample_id, start.side, start.offset,
                                "singular", None, (m, n),
                                Fraction(total_dx, vN))
        total_dx += adx
        try:
            sh_cur = next(shadow)[:4]
        except CornerHit:
            raise PrecisionError("shadow run became singular; the "
                                 "direction precision cannot be trusted")
        if i % experiments.CHECKPOINT_EVERY == 0:
            check_shadow(i, (k, t, m, n), sh_cur)
        if m == 0 and n == 0:
            check_shadow(i, (k, t, m, n), sh_cur)
            return SampleResult(start.sample_id, start.side, start.offset,
                                "returned", i, (0, 0), Fraction(total_dx, vN))
    check_shadow(horizon, (k, t, m, n), sh_cur)
    return SampleResult(start.sample_id, start.side, start.offset,
                        "lost", None, (m, n), Fraction(total_dx, vN))


def _result_or_refusal(run, *args):
    try:
        return run(*args)
    except PrecisionError as exc:
        return str(exc)


def test_shadowed_sample_matches_the_lockstep_loop():
    # the block walk changes no result, refusal message or collision index:
    # random tables and directions quantized at 12-64 bits, shadowed at
    # twice the bits, free horizons (most not multiples of 64); pinned
    # returns at 512 and 1024; and exact slope pairs whose primary and
    # shadow both run into a corner inside one block, in either order
    rng = random.Random(20261020)
    cases = []
    for pqrs, theta, seed, ids in (
            ((1, 2, 1, 3), Fraction(757934627689, 10**12), 772498424, (2, 3)),
            ((4, 5, 3, 8), Fraction(1589563692827, 500000000000), 258144167,
             (0, 3))):
        params = classify_params(*pqrs)
        direction = quantize_direction(theta, 64)
        starts = sample_boundary_starts(params, direction.slope, 30, seed)
        for i in ids:
            for horizon in (511, 512, 1023, 1024, 1100):
                cases.append((params, direction.slope, starts[i], horizon,
                              quantize_direction(theta, 128).slope))
    # the shadow runs into a corner at collision 5, the primary at 8;
    # then the primary at 2, the shadow at 4
    for pqrs, slope, shadow, side, offset, orientation in (
            ((1, 7, 1, 2), Slope(8, 5), Slope(1, 3), BOTTOM, Fraction(1, 14),
             (-1, -1)),
            ((1, 2, 1, 2), Slope(5, 6), Slope(11, 14), RIGHT, Fraction(1, 4),
             (1, 1))):
        for horizon in (1, 4, 5, 8, 64, 700):
            cases.append((classify_params(*pqrs), slope,
                          SampleStart(0, side, offset, orientation), horizon,
                          shadow))
    for _ in range(60):
        params = _random_table(rng)
        theta = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        bits = rng.choice((12, 16, 24, 32, 64))
        direction = quantize_direction(theta, bits)
        shadow = quantize_direction(theta, 2 * bits).slope
        horizon = int(math.exp(rng.uniform(0, math.log(6000))))
        for start in sample_boundary_starts(params, direction.slope, 3,
                                            rng.randrange(1 << 30)):
            cases.append((params, direction.slope, start, horizon, shadow))
    seen = {"outcomes": set(), "corner refusal": 0, "divergence": 0,
            "at 512": 0, "ragged": 0}
    for params, slope, start, horizon, shadow in cases:
        want = _result_or_refusal(_reference_shadowed_sample, params, slope,
                                  start, horizon, shadow)
        assert _result_or_refusal(_run_sample, params, slope, start, horizon,
                                  shadow) == want
        if isinstance(want, str):
            seen["corner refusal" if "singular" in want else "divergence"] += 1
        else:
            seen["outcomes"].add(want.outcome)
            seen["at 512"] += (want.first_return or 1) % 512 == 0
        seen["ragged"] += horizon % 64 != 0
    assert seen["outcomes"] == {"returned", "lost", "singular"}, seen
    assert seen["corner refusal"] >= 3 and seen["divergence"] >= 5, seen
    assert seen["at 512"] >= 10 and seen["ragged"] >= 100, seen


@pytest.mark.parametrize("jobs", [0, -2])
def test_recurrence_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="jobs must be >= 1"):
        recurrence_experiment(HALF, golden_truncation(), 2, 100, 0, jobs=jobs)


def test_diffusion_requires_even_over_odd_class():
    with pytest.raises(DomainError):
        diffusion_experiment(HALF, exact_direction(Fraction(1, 2)), 1, 100, 0)
    report = diffusion_experiment(HALF, exact_direction(Fraction(1, 2)), 1,
                                  100, 0, allow_any_class=True)
    assert report.off_class_warning


def test_diffusion_strip_direction_statistic_grows():
    # slope 1 lifts to strips on the even-over-odd table: ballistic growth
    report = diffusion_experiment(TWO_THIRDS, exact_direction(1), k=1,
                                  horizon=4000, seed=4, n_samples=5)
    assert not report.off_class_warning
    assert all(s.statistic > 5 for s in report.samples)
    # sup over a longer horizon only grows
    longer = diffusion_experiment(TWO_THIRDS, exact_direction(1), k=1,
                                  horizon=40000, seed=4, n_samples=5)
    for s1, s2 in zip(report.samples, longer.samples):
        assert s2.statistic >= s1.statistic


def test_diffusion_bounded_on_periodic_direction():
    # on the odd-over-even table a good direction closes everything:
    # displacement stays bounded, so the statistic shrinks with time
    report = diffusion_experiment(HALF, exact_direction(1), k=1,
                                  horizon=30000, seed=4, n_samples=4,
                                  allow_any_class=True)
    for s in report.samples:
        assert s.statistic < 20
        assert s.sup_time < 100  # the sup is attained early, then decays


def test_diffusion_tiny_horizon_statistic_finite():
    # before the log window opens (t <= 1) no quotient is evaluated, so a
    # very short run still yields a well-defined finite statistic
    report = diffusion_experiment(TWO_THIRDS, exact_direction(1), k=1,
                                  horizon=2, seed=0, n_samples=3)
    for s in report.samples:
        assert s.statistic >= 0.0
        assert s.statistic == s.statistic  # not NaN


def test_diffusion_early_stop():
    report = diffusion_experiment(TWO_THIRDS, exact_direction(1), k=1,
                                  horizon=10**6, seed=4, n_samples=1,
                                  stop_at=10.0)
    assert report.samples[0].statistic >= 10.0
    assert report.samples[0].collisions < 10**6


def _reference_diffusion_sample(params, slope, start, k, horizon, stop_at):
    # the step-by-step loop: the exact statistic at every step
    walk = Orbit(make_state(params, (0, 0), start.side, start.offset, slope,
                            start.orientation), params)
    lattice = walk.lattice
    N = lattice.N
    X0, Y0 = lattice.point(walk.k, walk.t, 0, 0)
    speed = math.hypot(slope.u, slope.v) / slope.v  # time per unit of X-extent
    best = 0.0
    best_t = 0.0
    witnesses = []
    total_dx = 0
    steps = iter(walk)
    i = 0
    for i in range(1, horizon + 1):
        try:
            dom, tr, m, n, adx = next(steps)
        except CornerHit:
            break
        total_dx += adx
        t = total_dx / N * speed
        denom = iterated_log(k, t)
        if denom is None:
            continue
        X, Y = lattice.point(dom, tr, m, n)
        dist = math.hypot((X - X0) / N, (Y - Y0) / N)
        stat = dist / denom
        if stat > best:
            best, best_t = stat, t
            if len(witnesses) < 64:
                witnesses.append((t, dist, stat))
            if stop_at is not None and best >= stop_at:
                break
    return DiffusionSample(start.sample_id, best, best_t, i, tuple(witnesses))


def _assert_same_sample(got, want):
    assert got.sample_id == want.sample_id
    assert got.statistic.hex() == want.statistic.hex()
    assert got.sup_time.hex() == want.sup_time.hex()
    assert got.collisions == want.collisions
    assert [[x.hex() for x in w] for w in got.witnesses] == \
        [[x.hex() for x in w] for w in want.witnesses]


def _random_table(rng):
    while True:
        q, s = rng.randint(2, 13), rng.randint(2, 13)
        p, r = rng.randint(1, q - 1), rng.randint(1, s - 1)
        if gcd(p, q) == gcd(r, s) == 1:
            return classify_params(p, q, r, s)


def _diffusion_case(rng, kind):
    """(params, direction, starts) of one randomized equivalence case."""
    params = _random_table(rng)
    if kind == "quantized":
        theta = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**8))
        direction = quantize_direction(theta, rng.randint(16, 96))
    elif kind == "near-one":
        theta = 1 + Fraction(rng.randint(1, 10**6), 10**rng.randint(9, 13))
        direction = quantize_direction(theta, rng.randint(64, 96))
    else:
        u, v = rng.randint(1, 15), rng.randint(1, 15)
        g = gcd(u, v)
        direction = exact_direction(Fraction(u // g, v // g))
    slope = direction.slope
    starts = sample_boundary_starts(params, slope, rng.randint(1, 3),
                                    rng.randrange(1 << 30))
    if kind == "exact":
        # offsets at sixteenths of a side: some of these starts hit corners
        sides = ((BOTTOM, params.a), (TOP, params.a), (LEFT, params.b),
                 (RIGHT, params.b))
        for sid in range(len(starts), len(starts) + 3):
            side, length = rng.choice(sides)
            coin = rng.choice((1, -1))
            starts.append(SampleStart(
                sid, side, length * Fraction(rng.randint(1, 15), 16),
                billiard.leaving_orientation(side, (coin, coin))))
    return params, direction, starts


def test_diffusion_matches_the_step_by_step_loop(monkeypatch):
    # the certified skip changes no bit of any sample: random tables of all
    # three parity classes, quantized directions at 16-96 bits, directions
    # just above slope 1, exact slopes with corner hits, k = 1..3, stop_at
    # None / 2 / 10, horizons 2..20,000; plus corner hits after the
    # witnesses are full; the edges and 10 random starts with full
    # witnesses again with at most 0 or 1 blocks waiting
    rng = random.Random(20261018)
    seen = {"classes": set(), "corner": 0, "deferred_corner": 0, "stopped": 0,
            "full": 0, "cases": 0}
    late_corners = [
        (classify_params(5, 12, 4, 13), Slope(7, 10),
         SampleStart(0, LEFT, Fraction(2, 13), (-1, -1))),
        (classify_params(7, 12, 4, 7), Slope(5, 12),
         SampleStart(0, RIGHT, Fraction(11, 28), (1, -1))),
    ]
    cases = [(params, DirectionSpec(slope), [start], k, 20000, None)
             for params, slope, start in late_corners for k in (1, 2)]
    kinds = ("quantized", "near-one", "exact") * 30
    random_cases = range(len(cases), len(cases) + len(kinds))
    for kind in kinds:
        params, direction, starts = _diffusion_case(rng, kind)
        horizon = int(math.exp(rng.uniform(math.log(2), math.log(20000))))
        cases.append((params, direction, starts, rng.randint(1, 3), horizon,
                      rng.choice((None, 2.0, 10.0))))
    # edges of the 64-collision blocks, pinned by search: the 64th witness
    # at collision 1344, the end of a block (stop_at reached at 3808); a
    # corner at collision 147, inside a block deferred after 18 collisions;
    # stop_at reached at collision 1637, inside a block whose bound reached
    # it, with two deferred blocks before it
    edges = [
        ((9, 10, 5, 12), Slope(1346359521499, 137438953472),
         SampleStart(0, RIGHT, Fraction(315935, 786432), (1, 1)), 1, 30.0,
         3808),
        ((8, 11, 2, 5), Slope(7, 9), SampleStart(0, TOP, Fraction(1, 11),
                                                 (-1, 1)), 1, 100.0, 147),
        ((4, 11, 9, 10), Slope(618973166987635716796799917,
                               618970019642690137449562112),
         SampleStart(0, BOTTOM, Fraction(13, 22528), (-1, -1)), 2, 100.0,
         1637)]
    edge_cases = range(len(cases), len(cases) + len(edges))
    for pqrs, slope, start, k, stop_at, collisions in edges:
        params = classify_params(*pqrs)
        assert _reference_diffusion_sample(params, slope, start, k, 20000,
                                           stop_at).collisions == collisions
        cases.append((params, DirectionSpec(slope), [start], k, 20000,
                      stop_at))
    # a block whose box, without the + 1 of the obstacle and start sizes,
    # would be skipped although one of its steps sets a new sup
    cases.append((classify_params(3, 8, 7, 13), DirectionSpec(Slope(6, 13)),
                  [SampleStart(0, LEFT, Fraction(3639, 65536), (-1, 1))], 1,
                  1666, None))
    # bounded orbits: closed on the odd-over-even table, the sup is reached
    # early and the witnesses never fill
    for slope in (Slope(1, 1), Slope(3, 7)):
        starts = sample_boundary_starts(HALF, slope, 3, 9)
        for start in starts:
            assert len(_reference_diffusion_sample(
                HALF, slope, start, 1, 30000, None).witnesses) < 64
        cases.append((HALF, DirectionSpec(slope), starts, 1, 30000, None))
    reruns = []  # (params, slope, start, k, horizon, stop_at, want)
    for case, (params, direction, starts, k, horizon, stop_at) in \
            enumerate(cases):
        slope = direction.slope
        seen["classes"].add(params.parity_class)
        for start in starts:
            want = _reference_diffusion_sample(params, slope, start, k,
                                               horizon, stop_at)
            _assert_same_sample(_diffusion_sample(params, slope, start, k,
                                                  horizon, stop_at), want)
            if case in edge_cases or (case in random_cases
                                      and len(want.witnesses) == 64
                                      and len(reruns) < 10):
                reruns.append((params, slope, start, k, horizon, stop_at,
                               want))
            seen["cases"] += 1
            stopped = stop_at is not None and want.statistic >= stop_at
            seen["stopped"] += stopped
            seen["full"] += len(want.witnesses) == 64
            if want.collisions < horizon and not stopped:
                seen["corner"] += 1
                seen["deferred_corner"] += len(want.witnesses) == 64
        report = diffusion_experiment(params, direction, k, horizon, 0,
                                      n_samples=2, stop_at=stop_at,
                                      allow_any_class=True)
        for got, start in zip(report.samples, sample_boundary_starts(
                params, slope, 2, 0)):
            _assert_same_sample(got, _reference_diffusion_sample(
                params, slope, start, k, horizon, stop_at))
    assert seen["classes"] == set(ParityClass)
    assert seen["corner"] >= 5 and seen["deferred_corner"] >= 2
    assert seen["stopped"] >= 10 and seen["full"] >= 10, seen
    # more than _DEFER waiting blocks are settled at once: at 0 each kept
    # block is settled as it comes, at 1 any two that wait are
    assert len(reruns) == 10 + len(edges)
    for defer in (0, 1):
        monkeypatch.setattr(experiments, "_DEFER", defer)
        for params, slope, start, k, horizon, stop_at, want in reruns:
            _assert_same_sample(_diffusion_sample(params, slope, start, k,
                                                  horizon, stop_at), want)


def test_diffusion_over_runs_matches_the_step_by_step_loop(monkeypatch):
    # past the 64 witnesses, a run of one piece of T^8 is one block, which
    # settle bisects: 96-bit directions just above and just below slope 1
    # on 2/3,2/3 and near-one directions on random tables, k = 1..3,
    # horizons of 5*10^4, a multiple of 8 or not, stop_at None or
    # reached inside a run; and two of them again with at most 0 or 1
    # blocks waiting
    runs = []
    run = Orbit.run

    def logged_run(self, k, t, count):
        found = run(self, k, t, count)
        runs.append(found)
        return found

    monkeypatch.setattr(Orbit, "run", logged_run)
    rng = random.Random(1107)
    cases = []
    for theta in ("1.0000003", "0.9999997", "1.00000051"):
        direction = quantize_direction(Fraction(theta), 96)
        for start in sample_boundary_starts(TWO_THIRDS, direction.slope, 2,
                                            rng.randrange(1 << 30)):
            cases.append((TWO_THIRDS, direction.slope, start))
    while len(cases) < 9:
        params, direction, starts = _diffusion_case(rng, "near-one")
        runs.clear()
        _diffusion_sample(params, direction.slope, starts[0], 1, 30000, None)
        if max(runs, default=0) > 1000:
            cases.append((params, direction.slope, starts[0]))
    seen = {"long": 0, "stopped": 0, "classes": set()}
    reruns = []
    for case, (params, slope, start) in enumerate(cases):
        k = case % 3 + 1
        horizon = rng.choice((50000, 49997))
        for stop_at in (None, 0.0):
            if stop_at is not None:
                # reached inside a run, well past the witnesses
                stop_at = want.statistic * rng.uniform(0.3, 0.9)
            want = _reference_diffusion_sample(params, slope, start, k,
                                               horizon, stop_at)
            runs.clear()
            _assert_same_sample(_diffusion_sample(params, slope, start, k,
                                                  horizon, stop_at), want)
            seen["long"] += max(runs, default=0) > 10000
            seen["stopped"] += want.collisions < horizon
            seen["classes"].add(params.parity_class)
            if case < 2:
                reruns.append((params, slope, start, k, horizon, stop_at,
                               want))
    assert seen.pop("classes") == set(ParityClass)
    assert seen["long"] >= 10 and seen["stopped"] >= 8, seen
    for defer in (0, 1):
        monkeypatch.setattr(experiments, "_DEFER", defer)
        for params, slope, start, k, horizon, stop_at, want in reruns:
            _assert_same_sample(_diffusion_sample(params, slope, start, k,
                                                  horizon, stop_at), want)


def test_diffusion_evaluates_few_steps_exactly(monkeypatch):
    # a ballistic orbit just above slope 1 sets a new sup at about every
    # second step; past the 64 witnesses, the statistic is evaluated only
    # at every 64th deferred step and at the survivors of the last batch,
    # and a run of one piece of T^8 is bisected, which evaluates O(log)
    # of its steps: the count of logs taken stays below 1,000 at 10^6
    # collisions too
    calls = []

    def counted(k, t):
        calls.append(t)
        return iterated_log(k, t)

    monkeypatch.setattr(experiments, "iterated_log", counted)
    direction = quantize_direction(Fraction("1.0000003"), 96)
    for horizon in (10000, 10**6):
        for seed in range(3):
            calls.clear()
            report = diffusion_experiment(TWO_THIRDS, direction, 1, horizon,
                                          seed)
            assert report.samples[0].collisions == horizon
            assert len(report.samples[0].witnesses) == 64
            assert len(calls) < 1000, len(calls)


def test_approximation_search_exact_member():
    got = approximation_search(exact_direction(1), HALF, 1)
    assert got == [Approximant(1, 1, Fraction(0))]


def test_approximation_search_rejects_fewer_than_one_term():
    golden = quantize_direction(Fraction("0.61803398874989484820"), 64)
    for n_terms in (0, -1):
        with pytest.raises(DomainError, match="n_terms must be >= 1"):
            approximation_search(golden, HALF, n_terms)
    assert len(approximation_search(golden, HALF, 1)) == 1


def test_approximation_search_filters_to_odd_odd():
    import math
    theta = quantize_direction(Fraction(math.isqrt(2 * 10**40), 10**20) - 1, 80)
    approxs = approximation_search(theta, HALF, 6)
    assert len(approxs) == 6
    for ap in approxs:
        assert ap.p % 2 == 1 and ap.q % 2 == 1
        assert ap.quality < 2


def test_approximation_search_even_over_odd_uses_one_cylinder_set():
    theta = quantize_direction(Fraction(9, 8) + Fraction(1, 2**40), 80)
    approxs = approximation_search(theta, TWO_THIRDS, 3)
    assert approxs, "expected one-cylinder approximants"
    from windtree.origami import decompose_table_direction
    for ap in approxs:
        decomp = decompose_table_direction(TWO_THIRDS, Slope(ap.p, ap.q))
        assert len(decomp.cylinders) == 1
    with pytest.raises(DomainError):
        approximation_search(theta, classify_params(1, 3, 1, 2), 2)


def test_approximation_quality_bounded_over_random_directions():
    # empirical constant: the worst quality observed over this sweep is
    # ~12.3, so 16 is a stable cap for the fixed seed
    import random
    rng = random.Random(13)
    for _ in range(20):
        value = Fraction(rng.randrange(1, 2**48), 2**48) + Fraction(1, 3)
        approxs = approximation_search(DirectionSpec(
            Slope(value.numerator, value.denominator)), HALF, 10)
        assert len(approxs) == 10
        assert all(ap.quality < 16 for ap in approxs)


def test_stability_check_basic():
    assert stability_check(HALF, Slope(1, 1), Fraction(0), 4)
    assert stability_check(HALF, Slope(1, 1), Fraction(1, 1000), 8)
    with pytest.raises(DomainError):
        stability_check(HALF, Slope(3, 4), Fraction(1, 1000), 4)


def test_stability_check_survives_smaller_deltas_on_other_slopes():
    assert stability_check(HALF, Slope(3, 7), Fraction(1, 10000), 8)


def test_stability_asymmetric_probes_fail_at_fixed_slope():
    # moving a and b apart while freezing the slope provably breaks the
    # orbit's closing condition: the check must report that honestly
    d = Fraction(1, 1000)
    assert not stability_check(HALF, Slope(1, 1), d, 2,
                               displacements=[(d, -d), (-d, d)])
    assert not stability_check(HALF, Slope(1, 1), d, 2,
                               displacements=[(d, Fraction(0)),
                                              (Fraction(0), d)])


# -- recurrence samples answered from recorded cylinder cycles --------------


def _period(params, slope, start):
    return classify_trajectory(
        make_state(params, (0, 0), start.side, start.offset, slope,
                   start.orientation), params, 20000).combinatorial_length


_sample_data = st.tuples(st.sampled_from([LEFT, RIGHT, BOTTOM, TOP]),
                         st.integers(1, 2**16), st.integers(2, 2**12),
                         st.sampled_from([1, -1]), st.integers(0, 4),
                         st.sampled_from([-1, 0, 1, None]),
                         st.integers(1, 3000))


@settings(max_examples=40, deadline=None)
@given(pqrs=_tables, uv=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       data=st.lists(_sample_data, min_size=2, max_size=8),
       order=st.randoms())
def test_run_sample_from_the_store_matches_stepping_property(pqrs, uv, data,
                                                             order):
    # several starts of one table and slope, at mixed lattice scales, with
    # horizons below, at and at multiples of their period, and free ones:
    # answered by a walk that records (cold), then from a store filled in
    # a shuffled order, where every sample is a lookup (warm)
    params = classify_params(*pqrs)
    g = gcd(*uv)
    slope = Slope(uv[0] // g, uv[1] // g)
    cases = []
    for i, (side, num, den, tangent, periods, extra, free) in enumerate(data):
        length = params.b if side in (LEFT, RIGHT) else params.a
        orient = {LEFT: (-1, tangent), RIGHT: (1, tangent),
                  BOTTOM: (tangent, -1), TOP: (tangent, 1)}[side]
        start = SampleStart(i, side, Fraction(num % den or 1, den) * length,
                            orient)
        horizon = free if extra is None else min(
            max(1, periods * _period(params, slope, start) + extra), 40000)
        cases.append((start, horizon))
    want = [_sample_reference(params, slope, st_, h) for st_, h in cases]
    for (start, horizon), w in zip(cases, want):
        _cycle_store.cache_clear()
        assert _run_sample(params, slope, start, horizon, None) == w
    _cycle_store.cache_clear()
    idx = list(range(len(cases)))
    order.shuffle(idx)
    for i in idx:
        _period(params, slope, cases[i][0])
    order.shuffle(idx)
    for i in idx:
        assert _run_sample(params, slope, *cases[i], None) == want[i]


def test_run_sample_returns_inside_its_own_block():
    # 1/2,1/2 at slope 1/3: a closed 8-collision cycle.  From a warm store
    # every phase is a lookup, and the first return lies in the start's
    # own landmark block, before the next period
    params, slope = HALF, Slope(1, 3)
    starts = sample_boundary_starts(params, slope, 24, 5)
    _cycle_store.cache_clear()
    for start in starts:
        _period(params, slope, start)
    assert all(c.length < 32 for c in _cycle_store(params, 1, 3).cycles)
    for start in starts:
        for horizon in (1, 3, 8, 9, 40):
            assert _run_sample(params, slope, start, horizon, None) == \
                _sample_reference(params, slope, start, horizon)


def _long_flight_start(params, slope, k, i, sample_id=0):
    """The sample start 2/3 above the low end (at n0 = 1) of piece i of
    domain k."""
    cuts = _return_map(params, slope.u, slope.v)[0]
    side, orient = DOMAINS[k]
    unit = Fraction(slope.u if k < 4 else slope.v,
                    2 * params.q * params.s * slope.u * slope.v)
    return SampleStart(sample_id, side,
                       ((cuts[k][i - 1] if i else 0) + Fraction(2, 3)) * unit,
                       orient)


def _recorded(params, slope, start):
    store = _cycle_store(params, slope.u, slope.v)
    return store.locate(Orbit(make_state(params, (0, 0), start.side,
                                         start.offset, slope,
                                         start.orientation), params))


def test_run_sample_through_long_flight_pieces():
    # 1/4,2/9 at 952/951: starts inside pieces of long flights, along the
    # slope-1 corridor, escape after a few hundred collisions; cold and
    # warm samples match stepping, and the cycles are recorded
    params = classify_params(1, 4, 2, 9)
    slope = Slope(952, 951)
    assert_resolved(params, slope)
    starts = [_long_flight_start(params, slope, k, i, j)
              for j, (k, i) in enumerate(long_pieces(params, slope)[:3])]
    assert starts
    _cycle_store.cache_clear()
    for start in starts + starts:
        for horizon in (50, 700, 2500):
            assert _run_sample(params, slope, start, horizon, None) == \
                _sample_reference(params, slope, start, horizon)
    assert all(_recorded(params, slope, start) is not None
               for start in starts)


def test_run_sample_on_mirror_images_of_a_recorded_cycle():
    # the images of a start under the table's reflections lie on the images
    # of its cycle, and the store answers them from the recorded one,
    # reflected: their returns, cells and lengths must match stepping.
    # 1597/2584 is lost at every horizon; 13/29 escapes with drift (-2, 1),
    # so a wrong sign on either axis shows, and its samples are lost before
    # collision 49 and back in their cell at 49
    params = classify_params(1, 2, 1, 3)
    start = SampleStart(0, BOTTOM, Fraction(3, 17) * params.a, (1, -1))
    images = [SampleStart(0, TOP, start.offset, (1, 1)),
              SampleStart(0, BOTTOM, params.a - start.offset, (-1, -1)),
              SampleStart(0, TOP, params.a - start.offset, (-1, 1))]
    for slope, horizons in ((Slope(1597, 2584), (10, 700, 5000, 40000)),
                            (Slope(13, 29), (10, 48, 49, 700))):
        _cycle_store.cache_clear()
        _period(params, slope, start)
        for image in images:
            for horizon in horizons:
                assert _run_sample(params, slope, image, horizon, None) == \
                    _sample_reference(params, slope, image, horizon)
        assert len(_cycle_store(params, slope.u, slope.v).cycles) == 1
    assert [_sample_reference(params, Slope(13, 29), images[0], h).outcome
            for h in (48, 49)] == ["lost", "returned"]


def _count_stepped(monkeypatch):
    """A list that gets the collisions every period walk and every orbit
    iteration steps."""
    stepped = []
    walk_period, orbit_iter = billiard._walk_period, Orbit.__iter__

    def counted_walk(*args, **kwargs):
        res = walk_period(*args, **kwargs)
        stepped.append(res.steps)
        return res

    def counted_iter(self):
        for step in orbit_iter(self):
            stepped.append(1)
            yield step

    monkeypatch.setattr(billiard, "_walk_period", counted_walk)
    monkeypatch.setattr(Orbit, "__iter__", counted_iter)
    return stepped


def test_long_flight_cycle_is_walked_once(monkeypatch):
    # 1/4,2/9 at 952/951: a start inside a piece of long flights closes on
    # an escaping cycle.  Its first sample walks that period once and
    # records it; every sample, however far its horizon lies, is answered
    # from the cycle
    params = classify_params(1, 4, 2, 9)
    slope = Slope(952, 951)
    assert_resolved(params, slope)
    start = _long_flight_start(params, slope, *long_pieces(params, slope)[0])
    out = classify_trajectory(make_state(params, (0, 0), start.side,
                                         start.offset, slope,
                                         start.orientation), params, 5000)
    assert out.kind is Outcome.ESCAPING
    period = out.combinatorial_length
    stepped = _count_stepped(monkeypatch)
    _cycle_store.cache_clear()
    for cold, horizon in ((True, 10**5), (False, 10**5),
                          (False, 3 * period + 7)):
        stepped.clear()
        got = _run_sample(params, slope, start, horizon, None)
        assert got.outcome == "lost"
        assert cold == (sum(stepped) > 0) and sum(stepped) <= 2 * period
        assert _recorded(params, slope, start) is not None
    monkeypatch.undo()
    assert got == _sample_reference(params, slope, start, 3 * period + 7)


def test_cold_sample_stops_at_its_first_return(monkeypatch):
    # 4/5,1/12 at 34/55: a start back in its cell after 6 collisions on an
    # escaping cycle of 2,938; a cold sample steps those 6, whatever the
    # horizon, and records nothing
    params = classify_params(4, 5, 1, 12)
    slope = Slope(34, 55)
    start = SampleStart(0, BOTTOM, Fraction(206647, 491520), (-1, -1))
    stepped = _count_stepped(monkeypatch)
    for horizon in (6, 2000, 10**5):
        _cycle_store.cache_clear()
        stepped.clear()
        got = _run_sample(params, slope, start, horizon, None)
        assert (got.outcome, got.first_return) == ("returned", 6)
        assert sum(stepped) == 6
        assert not _cycle_store(params, slope.u, slope.v).cycles
    monkeypatch.undo()
    assert got == _sample_reference(params, slope, start, 6)
    assert classify_trajectory(make_state(params, (0, 0), BOTTOM, start.offset,
                                          slope, (-1, -1)),
                               params).combinatorial_length == 2938
