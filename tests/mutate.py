"""Operator mutation harness for named functions of the package.

Usage::

    python3 tests/mutate.py --target windtree/billiard.py:Orbit.advance \
        --target windtree/billiard.py:_repeats \
        --tests "tests/test_billiard.py -k advance" --timeout 300 \
        --out mutants.json

For each target function it applies one mutation at a time:

- ``<`` <-> ``<=`` and ``>`` <-> ``>=``;
- ``+`` <-> ``-``, in expressions and augmented assignments;
- an integer constant (not a bool) plus or minus 1;
- ``and`` <-> ``or``;
- the condition of an ``if`` statement or expression negated;
- the branch of an ``if`` statement dropped (its body made ``pass``), and
  its ``else`` branch dropped where it has one.

Each mutant is written into a temporary copy of ``src/`` (the function
replaced by its mutated, unparsed form, the rest of the file untouched).
The named pytest subset and ``windtree selftest`` then run against that
copy, one subprocess at a time, each under the timeout and a 2 GB cap on
its address space.  A mutant is killed when either exits non-zero, timed
out when either overruns, and survived otherwise.  The report lists each
mutant with its function, line, operator and verdict; the unmutated copy
is run first and must pass.

Standard library only.  Not part of tier-1 and not a CI gate: a run costs
(mutants + 1) times the subset's time, so pick a subset that takes seconds.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

_COMPARE_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
                 ast.GtE: ast.Gt}
_BINOP_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BOOL_SWAP = {ast.And: ast.Or, ast.Or: ast.And}


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function or method named ``qualname`` (``Class.method``)."""
    body, node = tree.body, None
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(
            n, (ast.FunctionDef, ast.ClassDef)) and n.name == part), None)
        if node is None:
            raise SystemExit(f"no {qualname!r} in the module")
        body = node.body
    return node


def _sites(func: ast.FunctionDef) -> list:
    """(node index in ast.walk order, operator name, line, variant) of every
    mutation the function admits."""
    sites = []
    for idx, node in enumerate(ast.walk(func)):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in _COMPARE_SWAP:
                    sites.append((idx, f"compare {type(op).__name__}->"
                                  f"{_COMPARE_SWAP[type(op)].__name__}",
                                  line, j))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                type(node.op) in _BINOP_SWAP:
            sites.append((idx, f"binop {type(node.op).__name__}->"
                          f"{_BINOP_SWAP[type(node.op)].__name__}", line, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((idx, f"constant {node.value}+1", line, 1))
            sites.append((idx, f"constant {node.value}-1", line, -1))
        elif isinstance(node, ast.BoolOp):
            sites.append((idx, f"boolop {type(node.op).__name__}->"
                          f"{_BOOL_SWAP[type(node.op)].__name__}", line, 0))
        elif isinstance(node, (ast.If, ast.IfExp)):
            sites.append((idx, "negate if", line, 0))
            if isinstance(node, ast.If):
                sites.append((idx, "drop if branch", line, 0))
                if node.orelse:
                    sites.append((idx, "drop else branch", line, 1))
    return sites


def _mutate(node: ast.AST, variant: int, name: str) -> None:
    if name.startswith("compare"):
        node.ops[variant] = _COMPARE_SWAP[type(node.ops[variant])]()
    elif name.startswith("binop"):
        node.op = _BINOP_SWAP[type(node.op)]()
    elif name.startswith("constant"):
        node.value += variant
    elif name.startswith("boolop"):
        node.op = _BOOL_SWAP[type(node.op)]()
    elif name.startswith("drop"):
        if variant:
            node.orelse = []
        else:
            node.body = [ast.Pass()]
    else:
        node.test = ast.UnaryOp(ast.Not(), node.test)


def _mutant_source(source: str, qualname: str, site: tuple) -> str:
    """``source`` with the function rewritten by one mutation."""
    tree = ast.parse(source)
    func = _find(tree, qualname)
    idx, name, _, variant = site
    _mutate(next(n for i, n in enumerate(ast.walk(func)) if i == idx),
            variant, name)
    ast.fix_missing_locations(func)
    lines = source.splitlines(keepends=True)
    indent = " " * func.col_offset
    body = "".join(indent + ln + "\n" if ln else "\n"
                   for ln in ast.unparse(func).splitlines())
    # the unparsed function starts with its decorators
    first = min([func.lineno, *(d.lineno for d in func.decorator_list)])
    return "".join(lines[:first - 1]) + body + \
        "".join(lines[func.end_lineno:])


# the address space of each subprocess: a mutant that loops while it
# appends dies of a MemoryError well before the machine runs out
_MEMORY_CAP = 2 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_CAP, _MEMORY_CAP))


def _run(commands: list, env: dict, timeout: float) -> str:
    """'survived' when every command exits 0, else 'killed' or 'timeout'."""
    for cmd in commands:
        try:
            proc = subprocess.run(cmd, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "timeout"
        if proc.returncode:
            return "killed"
    return "survived"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="package source root")
    ap.add_argument("--target", action="append", required=True,
                    help="FILE:QUALNAME, FILE relative to --src")
    ap.add_argument("--tests", required=True,
                    help="pytest arguments of the subset, one string")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="seconds per subprocess")
    ap.add_argument("--out", required=True, help="JSON report path")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns(
            "__pycache__"))
        env = {**os.environ, "PYTHONPATH": copy,
               "PYTHONDONTWRITEBYTECODE": "1"}
        commands = [
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", f"pythonpath={copy}",
             *shlex.split(args.tests)],
            [sys.executable, "-m", "windtree.cli", "selftest"]]
        started = time.time()
        if _run(commands, env, args.timeout) != "survived":
            raise SystemExit("the unmutated copy fails its checks")
        report = {"tests": args.tests, "timeout_s": args.timeout,
                  "mutants": []}
        for target in args.target:
            rel, qualname = target.split(":")
            path = os.path.join(copy, rel)
            with open(path) as fh:
                original = fh.read()
            for site in _sites(_find(ast.parse(original), qualname)):
                with open(path, "w") as fh:
                    fh.write(_mutant_source(original, qualname, site))
                verdict = _run(commands, env, args.timeout)
                report["mutants"].append({
                    "function": qualname, "line": site[2],
                    "operator": site[1], "verdict": verdict})
                print(f"{verdict:9s} {qualname}:{site[2]} {site[1]}",
                      flush=True)
            with open(path, "w") as fh:
                fh.write(original)
        counts = {}
        for mutant in report["mutants"]:
            counts[mutant["verdict"]] = counts.get(mutant["verdict"], 0) + 1
        report["counts"] = counts
        report["elapsed_s"] = round(time.time() - started, 1)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report["counts"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
