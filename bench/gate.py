"""Output-correctness gate, run by run.py after the timed repetitions.

Every item of a round is checked, and every failed check marks the item
failed in every repetition, so it counts in `failed` and `failed_frac`:

- the item must not raise, and the digest of its exact record must be
  identical in every repetition (outcomes, drifts, first returns, cylinder
  lists, lift kinds and factors, SVG bytes, ...);
- workload invariants: cylinder areas sum to the cell count, the returned
  fraction does not decrease with the horizon, periodic orbits come back,
  the criterion-11 direction 4181/6765 returns after 21,892 collisions,
  good directions have one cylinder with E and F on the waist, ...;
- a seeded subsample is cross-checked against the independent oracles in
  `tests/oracles.py`: `scan_next_hit` for collisions, and
  `separatrix_cylinders` on surfaces with at most 8 cells;
- quantized recurrence samples are re-derived by an independent shadow
  reference (both precisions traced, divergence checked at every
  collision): a sample must be refused exactly when the reference sees
  the 2^-30 divergence, no later than the reference's checkpoint trip;
- one diffusion sample per round is recomputed from its exact polyline.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from math import floor

import workloads as W

TOLERANCE = Fraction(1, 2**30)   # documented shadow tolerance
CHECKPOINT = 512                 # documented checkpoint spacing
SCAN_STEPS = 12                  # collisions cross-checked per sampled item
HALF = Fraction(1, 2)
PARTITION_HALF = [["A", "B", "C"], ["D"], ["E", "F"]]


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def run_gate(workload: str, seed: int, specs: list, reps: list) -> dict:
    """Check all repetitions of one round.

    ``reps`` holds one ``(records, errors)`` pair per repetition.  Returns
    ``{item id: [reasons]}`` for the failed items and the number of checks
    made.
    """
    fails = {}

    def fail(item, reason):
        fails.setdefault(item, []).append(reason)

    for spec in specs:
        i = spec["id"]
        errs = {errors[i] for _, errors in reps if errors[i]}
        for err in sorted(errs):
            fail(i, f"raised {err}")
        if len({digest(records[i]) for records, _ in reps}) != 1:
            fail(i, "result differs across repetitions")
    records = reps[0][0]
    checker = {"rational-orbits": _check_rational,
               "quantized-orbits": _check_quantized,
               "direction-sweep": _check_sweep}[workload]
    checks = checker(specs, records, random.Random(f"gate/{seed}"), fail)
    return {"failures": fails, "checks": checks}


# -- shared helpers -----------------------------------------------------------


def _cell(x: Fraction, y: Fraction) -> tuple:
    return floor(x + HALF), floor(y + HALF)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _scan_check(params, slope, points, orientation, singular=False,
                steps=SCAN_STEPS):
    """Walk a polyline against the ray-scan oracle; None when it agrees.

    A singular polyline ends at the corner it ran into."""
    from oracles import scan_next_hit

    sx, sy = orientation
    segments = list(zip(points, points[1:]))
    for k, (p, q) in enumerate(segments[:steps]):
        if (_sign(q[0] - p[0]), _sign(q[1] - p[1])) != (sx, sy):
            return f"segment from {p} leaves in the wrong direction"
        hit = scan_next_hit(params, p[0], p[1], sx * slope.v, sy * slope.u)
        want = "corner" if singular and k == len(segments) - 1 else "hit"
        if hit is None or hit[0] != want or tuple(hit[1]) != tuple(q):
            return f"collision after {p} disagrees with the scan oracle"
        if hit[2] in ("left", "right"):
            sx = -sx
        else:
            sy = -sy
    return None


def start_state(params, slope, sample_seed):
    from windtree.billiard import make_state
    from windtree.experiments import sample_boundary_starts

    st = sample_boundary_starts(params, slope, 1, sample_seed)[0]
    return st, make_state(params, (0, 0), st.side, st.offset, slope,
                          st.orientation)


def _traced_points(params, state, n):
    from windtree.billiard import trace

    path = trace(state, params, n)
    return [(p.x, p.y) for p in path.points], path.singular


def _monotone_returns(samples: list, horizon: int) -> bool:
    fracs = [sum(1 for s in samples if s["first_return"] is not None
                 and s["first_return"] <= h) for h in
             (horizon // 100, horizon // 16, horizon // 4, horizon)]
    return fracs == sorted(fracs)


# -- rational-orbits ----------------------------------------------------------


def _check_rational(specs, records, rng, fail) -> int:
    from windtree.billiard import make_state
    from windtree.exact import Params, Slope

    checks = 0
    samples = []
    for spec, rec in zip(specs, records):
        if rec is None:
            continue
        i, horizon = spec["id"], spec["horizon"]
        s, c = rec["sample"], rec["classify"]
        samples.append(s)
        checks += 1
        if (s["side"], s["offset"]) != (rec["start"]["side"],
                                        rec["start"]["offset"]):
            fail(i, "recurrence and classification used different starts")
        if s["outcome"] == "returned" and not (
                1 <= s["first_return"] <= horizon and s["drift"] == [0, 0]):
            fail(i, "returned sample with a bad return time or drift")
        if s["outcome"] not in ("returned", "lost", "singular"):
            fail(i, f"unexpected sample outcome {s['outcome']}")
        if c["kind"] == "Periodic" and c["drift"] != [0, 0]:
            fail(i, "periodic outcome with a drift")
        if c["kind"] == "Escaping" and c["drift"] == [0, 0]:
            fail(i, "escaping outcome without a drift")
        if c["kind"] == "Periodic" and c["pre_period"] == 0 \
                and c["length"] <= horizon and not (
                    s["outcome"] == "returned"
                    and s["first_return"] <= c["length"]):
            fail(i, "periodic start did not return within its period")
        if c["kind"] == "Singular" and c["length"] < horizon \
                and s["outcome"] != "singular" and not (
                    s["outcome"] == "returned"
                    and s["first_return"] <= c["length"]):
            fail(i, "corner hit missed by the recurrence run")
        if s["outcome"] == "singular" and c["kind"] != "Singular":
            fail(i, "recurrence run hit a corner the classification missed")
        if spec["slope"] == W.CRITERION_SLOPE and not (
                c["kind"] == "Periodic" and c["length"] == W.CRITERION_RETURN
                and s["outcome"] == "returned"
                and s["first_return"] <= W.CRITERION_RETURN):
            fail(i, "4181/6765 is not periodic with 21,892-collision returns")
    if samples and not _monotone_returns(samples, specs[0]["horizon"]):
        for spec in specs:
            fail(spec["id"], "returned fraction decreases with the horizon")
    live = [sp for sp, rec in zip(specs, records) if rec is not None]
    for spec in rng.sample(live, min(2, len(live))):
        rec = records[spec["id"]]
        params = Params.parse(spec["params"])
        slope = Slope.parse(spec["slope"])
        st = rec["start"]
        state = make_state(params, (0, 0), st["side"],
                           Fraction(st["offset"]), slope,
                           tuple(st["orientation"]))
        points, singular = _traced_points(params, state, SCAN_STEPS)
        err = _scan_check(params, slope, points, state.orientation, singular)
        checks += 1
        if err:
            fail(spec["id"], err)
    return checks


# -- quantized-orbits ---------------------------------------------------------


def trip_index(message: str):
    m = re.search(r"at collision (\d+)", message)
    return int(m.group(1)) if m else None


def shadow_reference(spec) -> dict:
    """Independent replay of a shadowed recurrence sample.

    Both precisions are traced exactly; the divergence is checked at every
    collision.  Returns the sample as an unguarded run ends it, the first
    divergent collision, and where a checkpoint guard trips.
    """
    from windtree.exact import Params
    from windtree.experiments import quantize_direction

    params = Params.parse(spec["params"])
    horizon = spec["horizon"]
    direction = quantize_direction(Fraction(spec["theta"]), spec["bits"])
    shadow = quantize_direction(direction.source, 2 * spec["bits"])
    st, state = start_state(params, direction.slope, spec["sample_seed"])
    _, sh_state = start_state(params, shadow.slope, spec["sample_seed"])
    pts, singular = _traced_points(params, state, horizon)
    sh_pts, sh_singular = _traced_points(params, sh_state, horizon)
    done = len(pts) - 1 - singular        # collisions the run completed
    sh_done = len(sh_pts) - 1 - sh_singular
    first_div = trip = None
    outcome, end = "lost", horizon
    for i in range(1, horizon + 1):
        if i > done:
            outcome, end = "singular", i - 1
            break
        if i > sh_done:                    # the shadow ran into a corner
            first_div = first_div or i
            trip = trip or i
            end = i
            break
        (x, y), (xs, ys) = pts[i], sh_pts[i]
        diverged = abs(x - xs) > TOLERANCE or abs(y - ys) > TOLERANCE
        if diverged and first_div is None:
            first_div = i
        returned = _cell(x, y) == (0, 0)
        if diverged and trip is None and (i % CHECKPOINT == 0 or returned
                                          or i == horizon):
            trip = i
        if returned:
            outcome, end = "returned", i
            break
    x_end, y_end = pts[min(end, done)]
    drift = [0, 0] if outcome == "returned" else list(_cell(x_end, y_end))
    length = sum(abs(q[0] - p[0])
                 for p, q in zip(pts[:end + 1], pts[1:end + 1]))
    return {"outcome": outcome, "first_return": end if outcome == "returned"
            else None, "drift": drift,
            "geometric_length": W.frac(length / direction.slope.v),
            "first_divergence": first_div, "trip": trip, "end": end}


def _check_shadowed(spec, rec, fail):
    ref = shadow_reference(spec)
    i = spec["id"]
    if "refused" in rec:
        at = trip_index(rec["refused"])
        lo = ref["first_divergence"]
        hi = ref["trip"] if ref["trip"] is not None else ref["end"]
        if lo is None or (at is not None and not lo <= at <= hi):
            fail(i, f"shadow guard refused at {at}; reference divergence "
                    f"window is {lo}..{ref['trip']}")
        return
    if ref["trip"] is not None:
        fail(i, f"shadow guard missed the divergence that trips at "
                f"collision {ref['trip']}")
        return
    got = rec["sample"]
    want = {k: ref[k] for k in ("outcome", "first_return", "drift",
                                "geometric_length")}
    if {k: got[k] for k in want} != want:
        fail(i, "shadowed sample disagrees with the reference replay")


def diffusion_reference(spec) -> dict:
    """The displacement statistic recomputed from the exact polyline."""
    from windtree.exact import Params
    from windtree.experiments import quantize_direction

    params = Params.parse(spec["params"])
    slope = quantize_direction(Fraction(spec["theta"]), spec["bits"]).slope
    _, state = start_state(params, slope, spec["sample_seed"])
    pts, singular = _traced_points(params, state, spec["horizon"])
    speed = math.hypot(slope.u, slope.v) / slope.v
    x0, y0 = pts[0]
    best = best_t = 0.0
    travelled = Fraction(0)
    witnesses = []
    for (px, _), (x, y) in zip(pts, pts[1:len(pts) - singular]):
        travelled += abs(x - px)
        t = float(travelled) * speed
        if t <= 0 or math.log(t) <= 0:
            continue
        dist = math.hypot(float(x - x0), float(y - y0))
        stat = dist / math.log(t)
        if stat > best:
            best, best_t = stat, t
            if len(witnesses) < 64:
                witnesses.append([t.hex(), dist.hex(), stat.hex()])
    return {"statistic": best.hex(), "sup_time": best_t.hex(),
            "witnesses": witnesses}


def _check_quantized(specs, records, rng, fail) -> int:
    from windtree.exact import Params
    from windtree.experiments import quantize_direction

    checks = 0
    recur = [sp for sp in specs if sp["kind"] == "recur"
             and records[sp["id"]] is not None]
    diffuse = [sp for sp in specs if sp["kind"] == "diffuse"
               and records[sp["id"]] is not None]
    samples = []
    for spec in recur:
        rec = records[spec["id"]]
        if "sample" in rec:
            s = rec["sample"]
            samples.append(s)
            checks += 1
            if s["outcome"] == "returned" and not (
                    1 <= s["first_return"] <= spec["horizon"]
                    and s["drift"] == [0, 0]):
                fail(spec["id"], "returned sample with a bad return time")
    for spec in diffuse:
        d = records[spec["id"]]["diffusion"]
        stats = [float.fromhex(w[2]) for w in d["witnesses"]]
        checks += 1
        if d["collisions"] > spec["horizon"] or stats != sorted(set(stats)) \
                or (stats and float.fromhex(d["statistic"]) < stats[-1]):
            fail(spec["id"], "diffusion statistic is not a running maximum")
    if samples and not _monotone_returns(samples, recur[0]["horizon"]):
        for spec in recur:
            fail(spec["id"], "returned fraction decreases with the horizon")
    plain = [sp for sp in recur if not sp["guard"]]
    chosen = [sp for sp in recur if sp["guard"]] + rng.sample(
        plain, min(1, len(plain)))
    for spec in chosen:
        _check_shadowed(spec, records[spec["id"]], fail)
        checks += 1
    for spec in rng.sample(diffuse, min(1, len(diffuse))):
        got = records[spec["id"]]["diffusion"]
        want = diffusion_reference(spec)
        checks += 1
        if {k: got[k] for k in want} != want:
            fail(spec["id"], "diffusion statistic disagrees with the "
                             "recomputation from the exact polyline")
    for spec in rng.sample(plain, min(1, len(plain))) + \
            rng.sample(diffuse, min(1, len(diffuse))):
        params = Params.parse(spec["params"])
        slope = quantize_direction(Fraction(spec["theta"]), spec["bits"]).slope
        _, state = start_state(params, slope, spec["sample_seed"])
        points, singular = _traced_points(params, state, 4)
        err = _scan_check(params, slope, points, state.orientation, singular,
                          steps=4)
        checks += 1
        if err:
            fail(spec["id"], err)
    return checks


# -- direction-sweep ----------------------------------------------------------


def _check_sweep(specs, records, rng, fail) -> int:
    from oracles import separatrix_cylinders
    from windtree.exact import Params, Slope, mediant_enumerate
    from windtree.experiments import quantize_direction
    from windtree.origami import build_origami, table_to_scaled_slope

    checks = 0
    slopes = {}
    for spec, rec in zip(specs, records):
        if rec is None:
            continue
        i = spec["id"]
        params = Params.parse(spec["params"])
        n = params.n_cells
        checks += 1
        if spec["kind"] == "wpoint":
            if rec["partition"] != PARTITION_HALF:
                fail(i, "special-point orbits are not {A,B,C} | {D} | {E,F}")
            continue
        if spec["kind"] == "approx":
            theta = quantize_direction(Fraction(spec["theta"]), spec["bits"])
            value = Fraction(theta.slope.u, theta.slope.v)
            qs = [q for _, q, _ in rec["approximants"]]
            if len(qs) != spec["terms"] or qs != sorted(set(qs)) or any(
                    Fraction(qual)
                    != Fraction(q) ** 2 * abs(value - Fraction(p, q))
                    for p, q, qual in rec["approximants"]):
                fail(i, "approximants are not ordered best approximations")
            if n <= 8 and params.parity_class.name == "E_PRIME":
                og = build_origami(params)
                for p, q, _ in rec["approximants"]:
                    sc = table_to_scaled_slope(params, Slope(p, q))
                    if len(separatrix_cylinders(og.h, og.v, sc.v, sc.u)) != 1:
                        fail(i, f"approximant {p}/{q} is not one-cylinder")
            continue
        limit = spec["slope_limit"]
        if limit not in slopes:
            slopes[limit] = mediant_enumerate(limit)
        slope = slopes[limit][spec["slope_index"]]
        cyls = rec["cylinders"]
        if sum(c * h for c, h, _ in cyls) != n:
            fail(i, "cylinder areas do not sum to the cell count")
        if rec["lift_cylinders"] != [[c, h] for c, h, _ in cyls] \
                or len(rec["lift"]) != len(cyls):
            fail(i, "lift used another decomposition")
        for kind, factor, drift in rec["lift"]:
            if (kind == "ClosesWithFactor" and not factor >= 1) or \
                    (kind == "Strip" and drift in (None, [0, 0])):
                fail(i, "lift behaviour without a factor or a drift")
        good = len(cyls) == 1 and {"E", "F"} <= set(cyls[0][2])
        if rec["good"] != good:
            fail(i, "good-direction test disagrees with the decomposition")
        out = rec["outcome"]
        if out["kind"] not in ("Periodic", "Escaping") or \
                (out["drift"] == [0, 0]) != (out["kind"] == "Periodic"):
            fail(i, "regular start with a singular or inconsistent outcome")
        if spec["cold"]:
            kind, count = rec["invariant"]
            want = {"E": ("OrbitA", 1), "E_PRIME": ("OrbitB", 3)}.get(
                params.parity_class.name)
            if rec["cells"] != n or (n >= 5 and n % 2 and want
                                     and (kind, count) != want):
                fail(i, "orbit invariant or cell count is wrong")
        if n <= 8:
            og = build_origami(params)
            sc = table_to_scaled_slope(params, slope)
            checks += 1
            if sorted([c, h] for c, h, _ in cyls) != [
                    list(ch) for ch in separatrix_cylinders(og.h, og.v,
                                                            sc.v, sc.u)]:
                fail(i, "cylinders disagree with the separatrix oracle")
        if spec["svg"]:
            checks += 1
            pts = [(Fraction(x), Fraction(y))
                   for x, y in rec["trace"]["points"]]
            st = rec["start"]
            if not rec["svg"]["well_formed"] or \
                    pts[0] != (Fraction(st["x"]), Fraction(st["y"])):
                fail(i, "SVG is malformed or the trace left the start")
            err = _scan_check(params, slope, pts, tuple(st["orientation"]),
                              rec["trace"]["singular"])
            if err:
                fail(i, err)
    return checks
