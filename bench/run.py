#!/usr/bin/env python3
"""Benchmark of the windtree package, end to end and layer by layer.

    python3 bench/run.py --workload rational-orbits --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client in a closed loop: a single process runs one item at a time, the
next starting when the previous one has finished.  A run repeats the
workload's round of seeded items, each repetition in a fresh worker
process (cold interpreter, cold `build_origami` cache), until `--seconds`
of wall time have passed, at least three repetitions were made and at
least 100 items were timed.  The correctness gate (gate.py) then checks
every item outside the timed spans.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` the repetitions alternate untraced
and traced, and it holds the per-layer metrics measured on the traced
ones.  A human-readable table is printed above that line, and the full
record (run metadata, metrics, gate result, per-layer self times and, when
tracing, the spans) is written to `.bench_out/` in the checkout.

`--workload all` runs every workload in both modes and prints every metric.
Seed 1 is the development seed; seed 7919 is held out for confirming a
claim on inputs that were not looked at while the claim was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LAYERS, busy_by_name, self_times  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
MIN_REPS = 3
MIN_ITEMS = 100          # so that at least ten items lie beyond p90
START_LIMIT_S = 140.0    # no repetition starts after this much wall time
CALIBRATION_REF_S = 0.002     # calibration kernel time at reference speed
CALIBRATION_WINDOW_S = 0.05   # item time a latency's calibration covers
WORKER_TIMEOUT_S = 170.0

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("exact.calls", "count"), ("exact.busy_s", "s"),
    ("billiard.calls", "count"), ("billiard.busy_s", "s"),
    ("billiard.collisions", "count"), ("billiard.collisions_per_s", "1/s"),
    ("billiard.singular_frac", "1"),
    ("experiments.calls", "count"), ("experiments.busy_s", "s"),
    ("experiments.collisions", "count"),
    ("experiments.shadow_collisions", "count"),
    ("experiments.collisions_per_s", "1/s"),
    ("experiments.returned_frac", "1"), ("experiments.n_bits_max", "bits"),
    ("origami.calls", "count"), ("origami.busy_s", "s"),
    ("origami.build_s", "s"), ("origami.invariant_s", "s"),
    ("origami.decompose_s", "s"), ("origami.cells_max", "cells"),
    ("origami.word_tokens", "count"), ("origami.good_frac", "1"),
    ("lift.calls", "count"), ("lift.busy_s", "s"), ("lift.closes_frac", "1"),
    ("svg.calls", "count"), ("svg.busy_s", "s"), ("svg.bytes", "bytes"),
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("billiard.share", "1"), ("experiments.share", "1"),
    ("origami.share", "1"), ("lift.share", "1"), ("svg.share", "1"),
    ("failed_frac", "1"), ("trace.overhead_frac", "1"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- repetitions --------------------------------------------------------------


def run_rep(workload: str, seed: int, size: str, traced: bool,
            setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-2000:])
    rep = json.loads(proc.stdout)
    rep["setup_s"] = rep["first_call"] - launch
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             size: str) -> tuple:
    """Repeat the round in fresh processes; in trace mode alternate
    untraced and traced repetitions.  After each repetition one more
    process is launched that stops at its first timed call, so that
    `setup_s` is the median of twice as many set-ups."""
    min_reps = 4 if trace else MIN_REPS
    min_items = MIN_ITEMS if size == "full" and not trace else 1
    reps, probes = [], []
    t0 = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, size, traced))
        probes.append(run_rep(workload, seed, size, False, setup_only=True))
        elapsed = time.monotonic() - t0
        timed = sum(len(r["latencies"]) for r in reps if not r["traced"])
        if elapsed >= START_LIMIT_S or (
                len(reps) >= min_reps and elapsed >= seconds
                and timed >= min_items):
            return reps, probes


# -- metrics ------------------------------------------------------------------


def calibrated(rep: dict) -> list:
    """Item latencies at the reference machine speed.

    Each latency is scaled by CALIBRATION_REF_S over the median of the
    calibration times around the item: the ones taken just before and just
    after it, widened one item at a time on both sides until the window
    covers CALIBRATION_WINDOW_S of item time, so that short items are not
    scaled by the noise of two kernel timings alone."""
    cal, lat = rep["calibration"], rep["latencies"]
    out = []
    for i, x in enumerate(lat):
        lo, hi = i, i + 1  # calibration i is taken before item i
        while sum(lat[lo:hi]) < CALIBRATION_WINDOW_S and (
                lo > 0 or hi < len(lat)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(lat))
        out.append(x * CALIBRATION_REF_S / statistics.median(cal[lo:hi + 1]))
    return out


def speed_factor(rep: dict) -> float:
    """Reference over measured machine speed for a whole repetition."""
    return CALIBRATION_REF_S / statistics.median(rep["calibration"])


def calibrated_setup(rep: dict) -> float:
    """Set-up time at the reference speed, from the first calibration
    kernel timings after the first timed call."""
    first = rep["calibration"][:worker.SETUP_CALIBRATIONS]
    return rep["setup_s"] * CALIBRATION_REF_S / statistics.median(first)


def latency_metrics(lat: list) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {"items_per_s": len(lat) / sum(lat),
            "item_p50_ms": 1000 * statistics.median(lat),
            "item_p90_ms": 1000 * p90,
            "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90)}


def end_to_end(reps: list, probes: list) -> dict:
    m = latency_metrics([x for r in reps for x in calibrated(r)])
    m["raw"] = latency_metrics([x for r in reps for x in r["latencies"]])
    m["setup_s"] = statistics.median(calibrated_setup(r)
                                     for r in reps + probes)
    m["raw"]["setup_s"] = statistics.median(r["setup_s"]
                                            for r in reps + probes)
    m["peak_rss_mb"] = statistics.median(r["rss_kb"] for r in reps) / 1024
    m["calibration_ms"] = 1000 * statistics.median(
        c for r in reps for c in r["calibration"])
    return m


def _steps(outcome: dict) -> int:
    """Collisions a classification stepped before deciding."""
    if outcome["kind"] in ("Periodic", "Escaping"):
        return outcome["pre_period"] + outcome["length"]
    return outcome["length"]


def _sample_steps(sample: dict, horizon: int, classified) -> int:
    if sample["outcome"] == "returned":
        return sample["first_return"]
    if sample["outcome"] == "lost":
        return horizon
    # singular: the exact classification of the same start knows where
    return classified["length"] if classified else 0


def lattice_bits(spec: dict) -> int:
    """Bit length of the collision lattice scale N of an orbit item:
    N = 2*q*s*u*v*lcm(den(x0), den(y0))."""
    from windtree.exact import Params, Slope
    from windtree.experiments import quantize_direction

    params = Params.parse(spec["params"])
    if "slope" in spec:
        slope = Slope.parse(spec["slope"])
    else:
        slope = quantize_direction(Fraction(spec["theta"]), spec["bits"]).slope
    _, state = gate.start_state(params, slope, spec["sample_seed"])
    n0 = lcm(state.position.x.denominator, state.position.y.denominator)
    return (2 * params.q * params.s * slope.u * slope.v * n0).bit_length()


def round_counts(specs: list, records: list) -> dict:
    """Work counts of one round, read from the outputs of the layer calls."""
    c = Counter()
    bits, cells = [], []
    for spec, rec in zip(specs, records):
        if rec is None:
            continue
        kind = spec["kind"]
        outcomes = []
        if kind in ("orbit", "recur", "diffuse"):
            bits.append(lattice_bits(spec))
        if kind == "orbit":
            outcomes.append(rec["classify"])
        if kind in ("orbit", "recur") and "sample" in rec:
            s = rec["sample"]
            steps = _sample_steps(s, spec["horizon"], rec.get("classify"))
            c["experiments.collisions"] += steps
            if kind == "recur":
                c["experiments.shadow_collisions"] += steps
            c["samples"] += 1
            c["returned"] += s["outcome"] == "returned"
        if "refused" in rec:
            steps = gate.trip_index(rec["refused"]) or 0
            c["experiments.collisions"] += steps
            c["experiments.shadow_collisions"] += steps
        if kind == "diffuse":
            c["experiments.collisions"] += rec["diffusion"]["collisions"]
        if kind == "query":
            outcomes.append(rec["outcome"])
            c["origami.word_tokens"] += len(rec["word"])
            c["queries"] += 1
            c["good"] += rec["good"]
            c["lifted"] += len(rec["lift"])
            c["closes"] += sum(1 for b in rec["lift"]
                               if b[0] == "ClosesWithFactor")
            if "cells" in rec:
                cells.append(rec["cells"])
        if "svg" in rec:
            c["svg.bytes"] += rec["svg"]["bytes"]
            c["billiard.collisions"] += (len(rec["trace"]["points"]) - 1
                                         - rec["trace"]["singular"])
        for out in outcomes:
            c["billiard.collisions"] += _steps(out)
            c["outcomes"] += 1
            c["singular"] += out["kind"] == "Singular"

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {"billiard.collisions": c["billiard.collisions"],
            "billiard.singular_frac": ratio("singular", "outcomes"),
            "experiments.collisions": c["experiments.collisions"],
            "experiments.shadow_collisions":
                c["experiments.shadow_collisions"],
            "experiments.returned_frac": ratio("returned", "samples"),
            "experiments.n_bits_max": max(bits, default=0),
            "experiments.n_bits_min": min(bits, default=0),
            "origami.cells_max": max(cells, default=0),
            "origami.cells": sorted(cells),
            "origami.word_tokens": c["origami.word_tokens"],
            "origami.good_frac": ratio("good", "queries"),
            "lift.closes_frac": ratio("closes", "lifted"),
            "svg.bytes": c["svg.bytes"]}


def per_layer(reps: list, counts: dict, failed_frac: float) -> tuple:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    busy = [busy_by_name(r["spans"]) for r in traced]

    def calls(prefixes):
        return sum(n for name, (n, _) in busy[0].items()
                   if name.startswith(prefixes))

    def busy_s(prefixes):
        return statistics.median(
            speed_factor(r) * sum(b for name, (_, b) in by_name.items()
                                  if name.startswith(prefixes))
            for r, by_name in zip(traced, busy))

    shares = [self_times(r["spans"]) for r in traced]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls(layer + ".")
        m[f"{layer}.busy_s"] = busy_s(layer + ".")
    for layer in ("billiard", "experiments"):
        m[f"{layer}.collisions"] = counts[f"{layer}.collisions"]
        m[f"{layer}.collisions_per_s"] = (
            counts[f"{layer}.collisions"] / m[f"{layer}.busy_s"]
            if m[f"{layer}.busy_s"] else 0.0)
    for key in ("billiard.singular_frac", "experiments.shadow_collisions",
                "experiments.returned_frac", "experiments.n_bits_max",
                "origami.cells_max", "origami.word_tokens",
                "origami.good_frac", "lift.closes_frac", "svg.bytes"):
        m[key] = counts[key]
    m["origami.build_s"] = busy_s("origami.build_origami")
    m["origami.invariant_s"] = busy_s("origami.orbit_invariant")
    m["origami.decompose_s"] = busy_s(("origami.decompose_table_direction",
                                       "origami.is_good_one_cylinder"))
    m["setup.import_s"] = statistics.median(r["import_s"] for r in reps)
    m["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in reps)
    share_table = {}
    for layer in LAYERS + ("bench",):
        share_table[layer] = {
            "self_s": statistics.median(speed_factor(r)
                                        * s["self_s"].get(layer, 0.0)
                                        for r, s in zip(traced, shares)),
            "share": statistics.median(s["self_s"].get(layer, 0.0)
                                       / s["items_s"] for s in shares)}
    for layer in ("billiard", "experiments", "origami", "lift", "svg"):
        m[f"{layer}.share"] = share_table[layer]["share"]
    m["failed_frac"] = failed_frac
    ips_plain = latency_metrics([x for r in plain
                                 for x in calibrated(r)])["items_per_s"]
    ips_traced = latency_metrics([x for r in traced
                                  for x in calibrated(r)])["items_per_s"]
    m["trace.overhead_frac"] = 1 - ips_traced / ips_plain
    overhead = {"items_per_s_untraced": ips_plain,
                "items_per_s_traced": ips_traced,
                "overhead_frac": m["trace.overhead_frac"]}
    return m, share_table, overhead


# -- run metadata -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(result: dict, seconds: float, size: str) -> dict:
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "workload": result["workload"], "seed": result["seed"],
            "held_out_seed": HELD_OUT_SEED, "seconds": seconds,
            "trace": int(result["trace"]), "size": size,
            "repetitions": len(result["reps"]),
            "closed_loop": "one client, one process, one thread, jobs=1"}


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    specs = W.make_specs(workload, seed, size)
    reps, probes = run_reps(workload, seed, seconds, trace, size)
    verdict = gate.run_gate(workload, seed, specs,
                            [(r["records"], r["errors"]) for r in reps])
    attempted = len(specs) * len(reps)
    failed = len(verdict["failures"]) * len(reps)
    counts = round_counts(specs, reps[0]["records"])
    result = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "gate": verdict,
              "counts": counts, "reps": reps, "probes": probes,
              "specs": specs}
    if trace:
        metrics, shares, overhead = per_layer(reps, counts, failed / attempted)
        result.update(metrics=metrics, shares=shares, overhead=overhead,
                      units=dict(PER_LAYER))
    else:
        result.update(metrics=end_to_end(reps, probes),
                      units=dict(END_TO_END))
    return result


def print_table(result: dict, meta: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"({meta['repetitions']} repetitions, each a fresh process)")
    print(f"   {meta['cpu']}, nproc {meta['nproc']}, Python {meta['python']}, "
          f"rev {meta['git_revision'][:12]}")
    c = result["counts"]
    print(f"   inputs: N bit length {c['experiments.n_bits_min']}.."
          f"{c['experiments.n_bits_max']}, surface cells {c['origami.cells']}")
    m, units = result["metrics"], result["units"]
    for name, unit in units.items():
        print(f"   {name:32s} {m[name]:>16.6g} {unit}")
    if not result["trace"]:
        print(f"   {'failed_frac':32s} {result['failed_frac']:>16.6g} 1")
        print(f"   latency samples {m['samples']}, "
              f"{m['beyond_p90']} beyond p90")
        raw = m["raw"]
        print(f"   uncalibrated wall time: {raw['items_per_s']:.4g} items/s, "
              f"p50 {raw['item_p50_ms']:.4g} ms, p90 {raw['item_p90_ms']:.4g}"
              f" ms, set-up {raw['setup_s']:.4g} s; calibration kernel "
              f"median {m['calibration_ms']:.4g} ms (reference "
              f"{1000 * CALIBRATION_REF_S:g} ms)")
    else:
        print("   layer self time per round (median of traced repetitions):")
        for layer, row in result["shares"].items():
            print(f"     {layer:12s} {row['self_s']:10.4f} s "
                  f"{row['share']:8.1%}")
        o = result["overhead"]
        print(f"   tracing overhead: {o['overhead_frac']:.1%} of items_per_s "
              f"({o['items_per_s_untraced']:.4g} untraced, "
              f"{o['items_per_s_traced']:.4g} traced)")
    print(f"   attempted {result['attempted']}, failed {result['failed']}")
    for item, reasons in sorted(result["gate"]["failures"].items()):
        print(f"   FAILED item {item}: {'; '.join(reasons)}")


def write_record(result: dict, meta: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{int(result['trace'])}.json")
    record = {"metadata": meta,
              "metrics": {k: {"value": result["metrics"][k], "unit": u}
                          for k, u in result["units"].items()},
              "attempted": result["attempted"], "failed": result["failed"],
              "failed_frac": result["failed_frac"],
              "gate": result["gate"], "counts": result["counts"],
              "repetitions": [{k: r[k] for k in ("traced", "setup_s",
                                                 "import_s", "inputs_s",
                                                 "rss_kb", "latencies",
                                                 "calibration")}
                              for r in result["reps"]],
              "setup_probes": [{k: p[k] for k in ("setup_s", "calibration")}
                               for p in result["probes"]]}
    if not result["trace"]:
        record["uncalibrated"] = result["metrics"]["raw"]
    if result["trace"]:
        record.update(shares=result["shares"], overhead=result["overhead"],
                      spans=[r["spans"] for r in result["reps"]
                             if r["traced"]])
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                         f"held-out confirmation seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=W.SIZES, default="full",
                    help="'tiny' is for the smoke test only")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "windtree" / "__init__.py",
                           ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"bench: not a windtree checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    modes = [(w, t) for w in W.WORKLOADS for t in (False, True)] \
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    summary = {}
    for workload, trace in modes:
        try:
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  args.size)
        except BenchError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        meta = metadata(result, args.seconds, args.size)
        print_table(result, meta)
        print(f"   record: {write_record(result, meta).relative_to(ROOT)}")
        summary.setdefault(workload, {}).update(
            {k: {"value": result["metrics"][k], "unit": u}
             for k, u in result["units"].items()})
        last = {"correct": result["failed"] == 0,
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: {"value": result["metrics"][k], "unit": u}
                            for k, u in result["units"].items()}}
    print(json.dumps(last if args.workload != "all" else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
