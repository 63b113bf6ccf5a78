"""One repetition of a workload in a fresh process.

Run by run.py, once per repetition, so that every repetition starts with
a cold interpreter and a cold `build_origami` cache, as a command-line
user does.  Imports the package from the checkout's `src/`, prepares the
seeded inputs, runs every item once in order (one thread, the next item
starts when the previous one has finished) and writes one JSON object to
stdout: set-up stamps, per-item latencies, calibration times, per-item
result records and errors, peak RSS and, when tracing, the spans.

    python3 bench/worker.py --workload NAME --seed N [--size full|tiny]
                            [--trace 0|1] [--setup-only]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_CALIBRATIONS = 5  # kernel timings that calibrate a set-up time


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of big-integer stepping
    and dict stores, with no package code.  Timed before the first item
    and after every item, it tracks how fast the machine runs this kind of
    code at that moment; run.py scales each item's latency by it."""
    t0 = time.perf_counter()
    modulus, x, seen = (1 << 130) + 12345, 987654321987654321, {}
    for i in range(3000):
        x = (x * 6765 + 4181) % modulus
        q, r = divmod(x, 1 << 42)
        seen[(r & 1023, i & 7)] = q
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    `ru_maxrss` is not used where the kernel reports VmHWM: on Linux it
    keeps the parent's peak across fork and exec, so it would report the
    memory of run.py, the parent, whenever that is the larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed call (set-up probe), "
                         "after timing the calibration kernel")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import windtree  # noqa: F401  (timed: the package import users pay)
    import_s = time.perf_counter() - t0

    import workloads
    from tracing import Tracer

    tr = Tracer(bool(args.trace))
    t0 = time.perf_counter()
    specs = workloads.make_specs(args.workload, args.seed, args.size)
    inputs = workloads.prepare(specs, tr)
    inputs_s = time.perf_counter() - t0

    first_call = time.monotonic()
    calibration = [calibrate()]
    if args.setup_only:
        calibration += [calibrate() for _ in range(SETUP_CALIBRATIONS - 1)]
        json.dump({"import_s": import_s, "inputs_s": inputs_s,
                   "first_call": first_call, "calibration": calibration},
                  sys.stdout)
        return 0
    latencies, records, errors = [], [], []
    for spec, inp in zip(specs, inputs):
        t0 = time.perf_counter()
        with tr.item(spec["id"], spec["kind"]):
            try:
                raw, err = workloads.run_item(spec, inp, tr), None
            except Exception as exc:  # counted as a failed item
                raw, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        rec = None
        if raw is not None:
            try:
                rec = workloads.to_record(spec, raw)
            except Exception as exc:  # an output the record cannot read
                err = f"unreadable result: {type(exc).__name__}: {exc}"
        records.append(rec)
        errors.append(err)
        del raw
        calibration.append(calibrate())
    rss_kb = peak_rss_kb()

    json.dump({"import_s": import_s, "inputs_s": inputs_s,
               "first_call": first_call, "latencies": latencies,
               "calibration": calibration,
               "records": records, "errors": errors, "rss_kb": rss_kb,
               "traced": tr.enabled, "spans": tr.spans}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
