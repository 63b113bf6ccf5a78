"""Acceptance suite: one test per exit criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time
from fractions import Fraction
from math import gcd

from windtree.billiard import (Outcome, classify_trajectory, make_state,
                               regular_start)
from windtree.errors import DomainError
from windtree.exact import ParityClass, Slope, classify_params, mediant_enumerate
from windtree.experiments import (approximation_search, diffusion_experiment,
                                  exact_direction, quantize_direction,
                                  recurrence_experiment, stability_check)
from windtree.lift import LiftKind, lift_direction, wpoint_orbit_partition
from windtree.origami import (build_origami, ceil_sqrt2_times,
                              decompose_direction, decompose_table_direction,
                              enumerate_good_directions,
                              integer_weierstrass_count, orbit_invariant,
                              OrbitClass, scaled_weierstrass_coords,
                              sl2z_act, table_to_scaled_slope)

from oracles import separatrix_cylinders
from support import flow_first_hit

HALF = classify_params(1, 2, 1, 2)
TWO_THIRDS = classify_params(2, 3, 2, 3)


def _report(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def _reduced_slopes(limit):
    return [Slope(u, v) for u in range(1, limit + 1)
            for v in range(1, limit + 1) if gcd(u, v) == 1]


def test_criterion_01_periodic_figure_slopes():
    for u, v in ((1, 1), (3, 7), (7, 9), (9, 11), (9, 29)):
        t0 = time.monotonic()
        _, out = regular_start(HALF, Slope(u, v))
        assert out.kind is Outcome.PERIODIC, (u, v)
        assert out.drift == (0, 0)
        assert time.monotonic() - t0 < 1.0, f"slope {u}/{v} took too long"
    _report(1, "slopes 1, 3/7, 7/9, 9/11, 9/29 are periodic on the "
               "half-size table (exact, < 1 s each)")


def test_criterion_02_escaping_figure_slopes():
    for u, v in ((3, 4), (10, 17), (14, 17), (16, 37), (16, 39)):
        t0 = time.monotonic()
        _, out = regular_start(HALF, Slope(u, v))
        assert out.kind is Outcome.ESCAPING, (u, v)
        assert out.drift != (0, 0)
        assert time.monotonic() - t0 < 1.0, f"slope {u}/{v} took too long"
    _report(2, "slopes 3/4, 10/17, 14/17, 16/37, 16/39 escape with "
               "non-zero drift (exact, < 1 s each)")


def test_criterion_03_odd_odd_dichotomy():
    # Direction-level dichotomy: a direction counts as periodic when every
    # sampled regular start closes up.  Odd-over-even or even-over-odd
    # slopes may still carry isolated periodic orbits (slope 5/6 has an
    # exact 6-collision one, confirmed against the scan oracle), but they
    # are never completely periodic; both halves are checked on a grid of
    # at least 10 regular starts per slope.
    t0 = time.monotonic()
    for slope in _reduced_slopes(9):
        want_all_periodic = slope.u % 2 == 1 and slope.v % 2 == 1
        outcomes = []
        denom = 3
        while len(outcomes) < 10:
            for side, orient in (("top", (1, 1)), ("left", (-1, 1))):
                length = HALF.a if side == "top" else HALF.b
                try:
                    state = make_state(HALF, (0, 0), side,
                                       Fraction(1, denom) * length, slope, orient)
                except DomainError:
                    continue
                out = classify_trajectory(state, HALF)
                if out.kind is Outcome.SINGULAR:
                    continue
                outcomes.append(out.kind is Outcome.PERIODIC)
            denom += 2
        assert all(outcomes) == want_all_periodic, (str(slope), outcomes)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(3, f"u,v <= 9: completely periodic on a 10+ start grid iff u and "
               f"v are both odd ({elapsed:.1f} s)")


def test_criterion_04_doubling_law():
    good = [sl for sl in enumerate_good_directions(HALF, 7)]
    assert good
    for slope in good:
        report = lift_direction(HALF, slope)
        assert len(report.y_decomposition.cylinders) == 1
        assert report.x_behavior[0].factor == 2, str(slope)
    _report(4, f"billiard period = exactly twice the cylinder circumference "
               f"for all {len(good)} good one-cylinder slopes with u,v <= 7")


def test_criterion_05_even_over_odd_strips():
    t0 = time.monotonic()
    for slope in _reduced_slopes(7):
        report = lift_direction(TWO_THIRDS, slope)
        assert any(b.kind is LiftKind.STRIP for b in report.x_behavior), str(slope)
        if len(report.y_decomposition.cylinders) == 1:
            checked = 0
            denom = 3
            while checked < 10:
                for side, orient in (("top", (1, 1)), ("left", (-1, 1))):
                    length = TWO_THIRDS.a if side == "top" else TWO_THIRDS.b
                    try:
                        state = make_state(TWO_THIRDS, (0, 0), side,
                                           Fraction(1, denom) * length,
                                           slope, orient)
                    except DomainError:
                        continue
                    out = classify_trajectory(state, TWO_THIRDS)
                    if out.kind is Outcome.SINGULAR:
                        continue
                    assert out.kind is not Outcome.PERIODIC, (str(slope), denom)
                    checked += 1
                denom += 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(5, f"dimensions 2/3: every direction u,v <= 7 has a strip and "
               f"one-cylinder directions have no periodic orbit ({elapsed:.1f} s)")


E_PAIRS = ((1, 2, 1, 4), (1, 4, 1, 2), (3, 4, 1, 2), (1, 2, 3, 4), (3, 4, 3, 4))
EP_PAIRS = ((2, 3, 2, 3), (2, 5, 2, 3), (2, 3, 2, 5), (2, 5, 2, 5), (4, 5, 2, 5))


def test_criterion_06_integer_point_invariant():
    import random
    rng = random.Random(2026)
    for pairs, want_kind, want_count in ((E_PAIRS, OrbitClass.ORBIT_A, 1),
                                         (EP_PAIRS, OrbitClass.ORBIT_B, 3)):
        for pqrs in pairs:
            params = classify_params(*pqrs)
            og = build_origami(params)
            inv = orbit_invariant(og)
            assert inv.kind is want_kind, (pqrs, inv)
            assert inv.integer_count == want_count
            for _ in range(10):
                word = "".join(rng.choice("TtSs")
                               for _ in range(rng.randint(1, 10)))
                img = sl2z_act(og, word)
                assert integer_weierstrass_count(img) == want_count, (pqrs, word)
    _report(6, "integer special-point count: 1 on five odd-over-even tables, "
               "3 on five even-over-odd tables, invariant under 10 random "
               "shear/turn words each")


def test_criterion_07_torus_projection():
    half = Fraction(1, 2)
    for pqrs in E_PAIRS + ((1, 2, 1, 2),):
        params = classify_params(*pqrs)
        assert params.parity_class is ParityClass.E
        coords = scaled_weierstrass_coords(params)
        for label in "ABC":
            x, y = coords[label]
            assert (x % 1, y % 1) == (half, half), (pqrs, label)
    _report(7, "block centers A, B, C project to the torus half-point for "
               "odd-over-even dimensions")


def test_criterion_08_cylinder_bounds():
    og = build_origami(HALF)
    cap = ceil_sqrt2_times(og.n)
    for q in range(1, 21):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            decomp = decompose_direction(og, Slope(p, q))
            for cyl in decomp.cylinders:
                c, h = cyl.circumference, cyl.height
                # geometric circumference c*sqrt(p^2+q^2) <= cap*q, squared
                assert c * c * (p * p + q * q) <= cap * cap * q * q, (p, q)
                # geometric height h/sqrt(p^2+q^2) >= 1/(cap*q), squared
                assert h * h * cap * cap * q * q >= p * p + q * q, (p, q)
    _report(8, f"cylinder length/height bounds hold for all slopes p/q <= 1, "
               f"q <= 20 with cap {cap}")


def test_criterion_09_e_to_f_half_period():
    og = build_origami(HALF)
    marked = og.marked_by_label()
    e, f = marked["E"], marked["F"]
    for slope in (Slope(1, 1), Slope(1, 3), Slope(3, 1), Slope(5, 3), Slope(3, 7)):
        scaled = table_to_scaled_slope(HALF, slope)
        decomp = decompose_direction(og, scaled)
        assert len(decomp.cylinders) == 1
        circ = decomp.cylinders[0].circumference
        lam = flow_first_hit(og, (e.cell, e.x, e.y), (scaled.v, scaled.u),
                             (f.cell, f.x, f.y))
        assert lam == Fraction(circ, 2), str(slope)
    _report(9, "the straight flow from E reaches F after exactly half the "
               "cylinder circumference in 5 good directions")


def test_criterion_10_orbit_partition():
    part = wpoint_orbit_partition(HALF)
    assert part == frozenset({frozenset({"A", "B", "C"}), frozenset({"D"}),
                              frozenset({"E", "F"})})
    _report(10, "special-point orbits are {A,B,C} | {D} | {E,F} on the "
                "half-size table")


def golden_truncation(depth=18):
    val = Fraction(1)
    for _ in range(depth):
        val = 1 / (1 + val)
    return exact_direction(val)


def test_criterion_11_recurrence():
    t0 = time.monotonic()
    report = recurrence_experiment(HALF, golden_truncation(), n_samples=200,
                                   horizon=10**5, seed=2026)
    frac = report.returned_fraction
    assert frac >= Fraction(95, 100), float(frac)
    fr = [report.returned_fraction_at(h) for h in (10**3, 10**4, 10**5)]
    assert fr == sorted(fr)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(11, f"golden-direction recurrence: {float(frac):.3f} of 200 "
                f"boundary starts return within 1e5 collisions, fraction "
                f"non-decreasing in the horizon ({elapsed:.1f} s)")


def test_criterion_12_diffusion():
    t0 = time.monotonic()
    # 665857/470832 approximates sqrt(2) to ~12 digits, so theta sits an
    # irrational-like 2^-20 offset above slope 1, which is a one-cylinder
    # direction of the 2/3-dimensions surface
    theta = quantize_direction(1 + (Fraction(665857, 470832) - 1) / 2**20, 96)
    approxs = approximation_search(theta, TWO_THIRDS, 1)
    assert approxs, "direction admits no good approximants"
    report = diffusion_experiment(TWO_THIRDS, theta, k=1, horizon=10**6,
                                  seed=2026, n_samples=50, stop_at=10.0)
    hits = sum(1 for s in report.samples if s.statistic > 10.0)
    assert hits >= 40, hits
    shorter = diffusion_experiment(TWO_THIRDS, theta, k=1, horizon=10**4,
                                   seed=99, n_samples=1)
    longer = diffusion_experiment(TWO_THIRDS, theta, k=1, horizon=10**5,
                                  seed=99, n_samples=1)
    assert longer.samples[0].statistic > shorter.samples[0].statistic
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report(12, f"displacement statistic exceeds 10 for {hits}/50 starts and "
                f"keeps growing when the horizon is multiplied by 10 "
                f"({elapsed:.1f} s)")


def test_criterion_13_oracle_equivalence():
    n_params = 0
    for q in range(2, 10):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            for s in range(2, 10):
                for r in range(1, s):
                    if gcd(r, s) != 1 or q * s - p * r > 8:
                        continue
                    params = classify_params(p, q, r, s)
                    og = build_origami(params)
                    n_params += 1
                    for u in range(1, 6):
                        for v in range(1, 6):
                            if gcd(u, v) != 1:
                                continue
                            got = sorted(
                                (c.circumference, c.height)
                                for c in decompose_direction(og, Slope(u, v)).cylinders)
                            assert got == separatrix_cylinders(og.h, og.v, v, u), \
                                (str(params), u, v)
    _report(13, f"renormalization decomposition matches the separatrix oracle "
                f"on {n_params} surfaces with <= 8 cells, slopes u,v <= 5")


def test_criterion_14_stability():
    assert stability_check(HALF, Slope(1, 1), Fraction(1, 1000), 8)
    _report(14, "the slope-1 periodic orbit survives 8 parameter probes at "
                "delta 1e-3 with identical collision combinatorics")


def test_criterion_15_determinism(tmp_path):
    from windtree.cli import main
    outputs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        csv = tmp_path / f"{tag}.csv"
        assert main(["render", "--params", "1/2,1/2", "--slope", "3/4",
                     "--out", str(svg)]) == 0
        assert main(["recur", "--params", "1/2,1/2", "--theta", "13/21",
                     "--samples", "20", "--horizon", "2000", "--seed", "7",
                     "--csv", str(csv)]) == 0
        outputs.append((svg.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    _report(15, "SVG and CSV artifacts are byte-identical across two runs "
                "with the same config and seed")
