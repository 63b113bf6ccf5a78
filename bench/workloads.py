"""Seeded inputs, item runners and result records of the three workloads.

`make_specs` turns a workload name and seed into a list of item specs
made of text only (obstacle dimensions "p/q,r/s", slopes "u/v", decimal
directions, sample seeds), which the correctness gate regenerates from the
seed.  `prepare` parses them with the
package's own `exact` and `experiments` entry points, `run_item` runs one
item through the public layer functions, and `to_record` turns its output
into plain JSON values after the item's timer has stopped.

rational-orbits   1/2,1/2 table, exact Fibonacci-ratio slopes near the
                  golden mean; one item is one seeded boundary start: its
                  first return (one-sample recurrence run) and its exact
                  outcome (make_state + classify_trajectory).
quantized-orbits  alternating shadowed 64-bit recurrence samples on
                  1/2,1/2 and full-horizon 96-bit diffusion samples on
                  2/3,2/3 near slope 1; a few recurrence items use a
                  direction quantized too coarsely, which the shadow guard
                  must refuse.
direction-sweep   surfaces of all three parity classes (3 to 1909 cells)
                  crossed with mediant_enumerate slopes; one item is one
                  (surface, direction) query, plus one approximation
                  search per E / E' surface and the special-point orbit
                  partition of 1/2,1/2.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("rational-orbits", "quantized-orbits", "direction-sweep")
SIZES = ("full", "tiny")

# rational-orbits: (slope, starts per round).  Odd/odd ratios are periodic
# on the half-size table (4181/6765 returns after 21,892 collisions), the
# others escape.  The multiplicities put the median in the middle of the
# 1597/2584 group and the 90th percentile inside the 4181/6765 group.
RATIONAL = {
    "full": {"slopes": (("233/377", 3), ("987/1597", 3), ("1597/2584", 4),
                        ("2584/4181", 1), ("4181/6765", 3),
                        ("6765/10946", 1), ("10946/17711", 1)),
             "horizon": 24000},
    "tiny": {"slopes": (("233/377", 1), ("987/1597", 1), ("1597/2584", 1)),
             "horizon": 6000},
}
CRITERION_SLOPE, CRITERION_RETURN = "4181/6765", 21892

QUANTIZED = {
    "full": {"pairs": 40, "guards": (3, 13, 23, 33), "recur_horizon": 4096,
             "diff_horizon": 10000},
    "tiny": {"pairs": 2, "guards": (1,), "recur_horizon": 1024,
             "diff_horizon": 2000},
}
RECUR_PARAMS, RECUR_BITS, GUARD_BITS = "1/2,1/2", 64, 36
DIFF_PARAMS, DIFF_BITS, DIFF_K = "2/3,2/3", 96, 1

SWEEP = {
    # cells: 3 (E), 5 (E'), 8 (other), 33 (other), 49 (E'), 301 (E'),
    # 1909 (E)
    "full": {"surfaces": ("1/2,1/2", "2/3,2/3", "1/3,1/3", "1/5,2/7",
                          "4/13,4/5", "4/25,6/13", "3/44,9/44"),
             "slope_limit": 4},
    "tiny": {"surfaces": ("1/2,1/2", "2/3,2/3", "1/3,1/3"),
             "slope_limit": 2},
}
SWEEP_TRACE_COLLISIONS = 200
APPROX_THETAS = ("0.6180339887498948", "0.41421356237309515",
                 "0.7071067811865476", "0.3183098861837907")
APPROX_BITS, APPROX_TERMS = 64, 2
ORIENTATIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _digits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.randrange(10)) for _ in range(n))


def make_specs(workload: str, seed: int, size: str = "full") -> list:
    """The item specs of one round; the same seed gives the same specs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "rational-orbits":
        cfg = RATIONAL[size]
        specs = [{"kind": "orbit", "params": "1/2,1/2", "slope": slope,
                  "horizon": cfg["horizon"],
                  "sample_seed": rng.randrange(1 << 30)}
                 for slope, count in cfg["slopes"] for _ in range(count)]
        rng.shuffle(specs)
    elif workload == "quantized-orbits":
        cfg = QUANTIZED[size]
        specs = []
        for i in range(cfg["pairs"]):
            guard = i in cfg["guards"]
            specs.append({"kind": "recur", "params": RECUR_PARAMS,
                          "theta": "0.6" + _digits(rng, 19),
                          "bits": GUARD_BITS if guard else RECUR_BITS,
                          "guard": guard, "horizon": cfg["recur_horizon"],
                          "sample_seed": rng.randrange(1 << 30)})
            specs.append({"kind": "diffuse", "params": DIFF_PARAMS,
                          "theta": ("1.000000" + str(rng.randrange(2, 6))
                                    + _digits(rng, 23)),
                          "bits": DIFF_BITS, "k": DIFF_K,
                          "horizon": cfg["diff_horizon"],
                          "sample_seed": rng.randrange(1 << 30)})
    elif workload == "direction-sweep":
        specs = _sweep_specs(SWEEP[size], rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for idx, spec in enumerate(specs):
        spec["id"] = idx
    return specs


def _sweep_specs(cfg: dict, rng: random.Random) -> list:
    from windtree.exact import Params, ParityClass

    surfaces = cfg["surfaces"]
    limit = cfg["slope_limit"]
    n_slopes = sum(1 for u in range(1, limit + 1) for v in range(1, limit + 1)
                   if gcd(u, v) == 1)
    specs = []
    for si, params in enumerate(surfaces):
        for j in range(n_slopes):
            specs.append({"kind": "query", "params": params,
                          "slope_limit": limit, "slope_index": j,
                          "orientation": list(rng.choice(ORIENTATIONS)),
                          "svg": j == (3 * si) % n_slopes, "cold": j == 0})
        if Params.parse(params).parity_class is not ParityClass.OTHER:
            specs.append({"kind": "approx", "params": params,
                          "theta": APPROX_THETAS[si % len(APPROX_THETAS)],
                          "bits": APPROX_BITS, "terms": APPROX_TERMS})
        if params == "1/2,1/2":
            specs.append({"kind": "wpoint", "params": params})
    rng.shuffle(specs)
    # the first item on each surface is its slope-0 query, which pays the
    # cold surface construction and orbit invariant
    for params in surfaces:
        idxs = [i for i, sp in enumerate(specs) if sp["params"] == params]
        cold = next(i for i in idxs if specs[i].get("cold"))
        specs[idxs[0]], specs[cold] = specs[cold], specs[idxs[0]]
    return specs


# -- running items (inside the worker process) ------------------------------


def prepare(specs: list, tr) -> list:
    """Parse the text inputs through the package, once per distinct text."""
    from windtree.exact import Params, Slope, mediant_enumerate
    from windtree.experiments import exact_direction, quantize_direction

    params, slopes, directions, sweeps = {}, {}, {}, {}
    inputs = []
    for spec in specs:
        text = spec["params"]
        if text not in params:
            params[text] = tr.call("exact.Params.parse", Params.parse, text)
        inp = {"params": params[text]}
        if "slope" in spec:
            if spec["slope"] not in slopes:
                sl = tr.call("exact.Slope.parse", Slope.parse, spec["slope"])
                slopes[spec["slope"]] = (sl, tr.call(
                    "experiments.exact_direction", exact_direction,
                    Fraction(sl.u, sl.v)))
            inp["slope"], inp["direction"] = slopes[spec["slope"]]
        if "theta" in spec:
            key = (spec["theta"], spec["bits"])
            if key not in directions:
                directions[key] = tr.call(
                    "experiments.quantize_direction", quantize_direction,
                    Fraction(spec["theta"]), spec["bits"])
            inp["direction"] = directions[key]
        if "slope_index" in spec:
            limit = spec["slope_limit"]
            if limit not in sweeps:
                sweeps[limit] = tr.call("exact.mediant_enumerate",
                                        mediant_enumerate, limit)
            inp["slope"] = sweeps[limit][spec["slope_index"]]
        inputs.append(inp)
    return inputs


def run_item(spec: dict, inp: dict, tr) -> dict:
    """Run one item; returns the raw package outputs it produced."""
    from windtree import billiard, experiments, lift, origami, svg
    from windtree.errors import PrecisionError

    kind, P = spec["kind"], inp["params"]
    if kind == "orbit":
        slope = inp["slope"]
        rep = tr.call("experiments.recurrence_experiment",
                      experiments.recurrence_experiment, P, inp["direction"],
                      1, spec["horizon"], spec["sample_seed"])
        start = tr.call("experiments.sample_boundary_starts",
                        experiments.sample_boundary_starts, P, slope, 1,
                        spec["sample_seed"])[0]
        state = tr.call("billiard.make_state", billiard.make_state, P, (0, 0),
                        start.side, start.offset, slope, start.orientation)
        out = tr.call("billiard.classify_trajectory",
                      billiard.classify_trajectory, state, P)
        return {"recurrence": rep, "start": start, "classify": out}
    if kind == "recur":
        try:
            rep = tr.call("experiments.recurrence_experiment",
                          experiments.recurrence_experiment, P,
                          inp["direction"], 1, spec["horizon"],
                          spec["sample_seed"], shadow=True)
        except PrecisionError as exc:  # the guard's refusal is a result
            return {"refused": str(exc)}
        return {"recurrence": rep}
    if kind == "diffuse":
        rep = tr.call("experiments.diffusion_experiment",
                      experiments.diffusion_experiment, P, inp["direction"],
                      spec["k"], spec["horizon"], spec["sample_seed"])
        return {"diffusion": rep}
    if kind == "query":
        slope = inp["slope"]
        raw = {}
        if spec["cold"]:
            og = tr.call("origami.build_origami", origami.build_origami, P)
            raw["invariant"] = tr.call("origami.orbit_invariant",
                                       origami.orbit_invariant, og)
            raw["cells"] = og.n
        raw["decomposition"] = tr.call(
            "origami.decompose_table_direction",
            origami.decompose_table_direction, P, slope)
        raw["good"] = tr.call("origami.is_good_one_cylinder",
                              origami.is_good_one_cylinder, P, slope)
        raw["lift"] = tr.call("lift.lift_direction", lift.lift_direction,
                              P, slope)
        state, outcome = tr.call("billiard.regular_start",
                                 billiard.regular_start, P, slope,
                                 tuple(spec["orientation"]))
        raw["state"], raw["outcome"] = state, outcome
        if spec["svg"]:
            path = tr.call("billiard.trace", billiard.trace, state, P,
                           SWEEP_TRACE_COLLISIONS)
            highlight = (outcome.repeat_cells or ()) \
                if outcome.kind is billiard.Outcome.ESCAPING else ()
            raw["path"] = path
            raw["svg"] = tr.call("svg.render_trajectory",
                                 svg.render_trajectory, P, path,
                                 highlight_cells=highlight)
        return raw
    if kind == "approx":
        return {"approximants": tr.call(
            "experiments.approximation_search",
            experiments.approximation_search, inp["direction"], P,
            spec["terms"])}
    if kind == "wpoint":
        return {"partition": tr.call("lift.wpoint_orbit_partition",
                                     lift.wpoint_orbit_partition, P)}
    raise ValueError(f"unknown item kind {kind!r}")


# -- records ------------------------------------------------------------------


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _outcome(out) -> dict:
    return {"kind": out.kind.value, "length": out.combinatorial_length,
            "geometric_length": frac(out.geometric_length),
            "drift": list(out.drift), "pre_period": out.pre_period,
            "corner": None if out.corner is None else
            [frac(out.corner.x), frac(out.corner.y)]}


def _sample(s) -> dict:
    return {"side": s.side, "offset": frac(s.offset), "outcome": s.outcome,
            "first_return": s.first_return, "drift": list(s.drift),
            "geometric_length": frac(s.geometric_length)}


def _state(state) -> dict:
    return {"side": state.side, "cell": list(state.cell),
            "x": frac(state.position.x), "y": frac(state.position.y),
            "orientation": list(state.orientation)}


def to_record(spec: dict, raw: dict) -> dict:
    """Plain-JSON record of an item's exact results."""
    rec = {}
    if "recurrence" in raw:
        rep = raw["recurrence"]
        rec["sample"] = _sample(rep.samples[0])
        rec["slope"] = str(rep.direction.slope)
    if "refused" in raw:
        rec["refused"] = raw["refused"]
    if "start" in raw:
        st = raw["start"]
        rec["start"] = {"side": st.side, "offset": frac(st.offset),
                        "orientation": list(st.orientation)}
    if "classify" in raw:
        rec["classify"] = _outcome(raw["classify"])
    if "diffusion" in raw:
        rep = raw["diffusion"]
        s = rep.samples[0]
        rec["slope"] = str(rep.direction.slope)
        rec["diffusion"] = {
            "statistic": s.statistic.hex(), "sup_time": s.sup_time.hex(),
            "collisions": s.collisions,
            "witnesses": [[t.hex(), d.hex(), st.hex()]
                          for t, d, st in s.witnesses]}
    if "invariant" in raw:
        rec["invariant"] = [raw["invariant"].kind.value,
                            raw["invariant"].integer_count]
        rec["cells"] = raw["cells"]
    if "decomposition" in raw:
        dec = raw["decomposition"]
        rec["cylinders"] = [[c.circumference, c.height,
                             list(c.waist_marked_points)]
                            for c in dec.cylinders]
        rec["word"] = [list(tok) for tok in dec.word]
        rec["good"] = raw["good"]
        rep = raw["lift"]
        rec["lift"] = [[b.kind.value, b.factor,
                        None if b.drift is None else list(b.drift)]
                       for b in rep.x_behavior]
        rec["lift_cylinders"] = [[c.circumference, c.height]
                                 for c in rep.y_decomposition.cylinders]
        rec["strongly_parabolic"] = rep.strongly_parabolic
        rec["start"] = _state(raw["state"])
        rec["outcome"] = _outcome(raw["outcome"])
    if "svg" in raw:
        doc = raw["svg"].encode("utf-8")
        path = raw["path"]
        rec["trace"] = {"points": [[frac(p.x), frac(p.y)]
                                   for p in path.points],
                        "singular": path.singular}
        rec["svg"] = {"sha256": hashlib.sha256(doc).hexdigest(),
                      "bytes": len(doc),
                      "well_formed": doc.startswith(b"<?xml")
                      and doc.rstrip().endswith(b"</svg>")}
    if "approximants" in raw:
        rec["approximants"] = [[a.p, a.q, frac(a.quality)]
                               for a in raw["approximants"]]
    if "partition" in raw:
        rec["partition"] = sorted(sorted(g) for g in raw["partition"])
    return rec
