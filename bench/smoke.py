#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload with `--size tiny`, untraced and traced, and asserts
that the last line is the result object, that every end-to-end and
per-layer metric is printed by name with its unit, and that the outputs
passed the correctness gate.  Then feeds the gate corrupted results and
asserts that it trips on each.  Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def check_printed(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in expected}
    table = "\n".join(lines[:-1])
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit, name
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         table, re.M), f"{name} [{unit}] not in the table"
    if not trace:
        assert re.search(r"^\s+failed_frac\s+0 1$", table, re.M)
    print(f"ok  {workload} trace {trace}: "
          f"{len(expected)} metrics printed with units")


def worker_records(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "1", "--size", "tiny"], cwd=ROOT, capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["records"], out["errors"]


def corrupt_rational(specs, records):
    c = records[0]["classify"]
    c["drift"] = [0, 0] if c["kind"] == "Escaping" else [1, 0]


def corrupt_quantized_guard(specs, records):
    guard = next(sp for sp in specs if sp["kind"] == "recur" and sp["guard"])
    records[guard["id"]] = {"sample": {
        "side": "bottom", "offset": "1/4", "outcome": "lost",
        "first_return": None, "drift": [0, 0], "geometric_length": "1/1"}}


def corrupt_quantized_diffusion(specs, records):
    for sp in specs:
        if sp["kind"] == "diffuse":
            d = records[sp["id"]]["diffusion"]
            d["statistic"] = (float.fromhex(d["statistic"]) * 2).hex()
            d["witnesses"][-1][2] = d["statistic"]


def corrupt_sweep(specs, records):
    item = next(sp["id"] for sp in specs if sp["kind"] == "query")
    cyl = records[item]["cylinders"][0]
    cyl[1] += 1  # one cylinder one row taller


CORRUPTIONS = (("rational-orbits", corrupt_rational),
               ("quantized-orbits", corrupt_quantized_guard),
               ("quantized-orbits", corrupt_quantized_diffusion),
               ("direction-sweep", corrupt_sweep))


def check_gate_trips() -> None:
    cache = {}
    for workload, corrupt in CORRUPTIONS:
        specs = W.make_specs(workload, 1, "tiny")
        if workload not in cache:
            cache[workload] = worker_records(workload)
        records, errors = cache[workload]
        clean = gate.run_gate(workload, 1, specs, [(records, errors)] * 2)
        assert not clean["failures"], clean
        bad = copy.deepcopy(records)
        corrupt(specs, bad)
        # the corruption is caught by the invariants and oracles even when
        # every repetition agrees, and by the digest when only one is hit
        for reps in ([(bad, errors)] * 2, [(records, errors), (bad, errors)]):
            verdict = gate.run_gate(workload, 1, specs, reps)
            assert verdict["failures"], (workload, corrupt.__name__)
        print(f"ok  gate trips on {corrupt.__name__}")
    raised = list(errors)
    raised[0] = "RuntimeError: injected"
    verdict = gate.run_gate("direction-sweep", 1,
                            W.make_specs("direction-sweep", 1, "tiny"),
                            [(records, raised)])
    assert 0 in verdict["failures"]
    print("ok  gate counts an item that raised")


def main() -> int:
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            check_printed(workload, trace)
    check_gate_trips()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
