"""Command-line interface: classification, rendering, decompositions, good
directions, lifting reports, and the statistical experiments.

Slopes are entered as exact 'u/v' strings and obstacle dimensions as
'p/q,r/s'; no decimal parsing of rationals anywhere.  Exit codes: 0 for a
definite result, 1 for usage or domain errors, 2 for an undetermined
classification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from . import billiard, experiments, lift, origami, svg
from .billiard import Outcome
from .errors import CornerHit, DomainError, PrecisionError
from .exact import Params, Slope

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


@dataclass
class RunConfig:
    """Everything a run needs; serializable so runs are reproducible."""

    command: str = ""
    params: str = dataclasses.field(default="1/2,1/2", metadata={
        "help": "obstacle dimensions p/q,r/s"})
    slope: str = dataclasses.field(default="", metadata={
        "help": "exact slope u/v"})
    theta: str = dataclasses.field(default="", metadata={
        "help": "direction for experiments: u/v or decimal"})
    start: str = dataclasses.field(default="", metadata={
        "help": "start as m,n,side,offset (offset exact)"})
    origami_file: str = dataclasses.field(default="", metadata={
        "flag": "--origami", "help": "serialized origami file (decompose)"})
    n_collisions: int = dataclasses.field(default=200, metadata={
        "help": "collisions to draw (render); a periodic orbit is drawn "
                "for one full period instead"})
    max_collisions: int = billiard.DEFAULT_MAX_COLLISIONS
    limit: int = 9
    samples: int = 50
    horizon: int = 10000
    k: int = 1
    delta: str = "1/1000"
    probes: int = 8
    seed: int = 0
    precision_bits: int = 64
    scale: int = 60
    jobs: int = 1
    out: str = ""
    csv: str = ""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        try:
            values = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"malformed JSON config: {exc}") from exc
        if not isinstance(values, dict):
            raise DomainError("a JSON config must be an object")
        return RunConfig._checked(values)

    def to_text(self) -> str:
        lines = [f"{field.name}={getattr(self, field.name)}"
                 for field in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        for key in [field.name for field in dataclasses.fields(RunConfig)
                    if field.type == "int" and field.name in values]:
            try:
                values[key] = int(values[key])
            except ValueError:
                raise DomainError(f"config key {key} needs an integer, "
                                  f"got {values[key]!r}") from None
        return RunConfig._checked(values)

    @staticmethod
    def _checked(values: dict) -> "RunConfig":
        """A config from parsed key/value pairs; unknown keys and values of
        the wrong type raise DomainError."""
        fields = {field.name: field for field in dataclasses.fields(RunConfig)}
        unknown = sorted(set(values) - set(fields))
        if unknown:
            raise DomainError(f"unknown config keys: {unknown}")
        cfg = RunConfig()
        for key, val in values.items():
            if fields[key].type == "int":
                if not isinstance(val, int) or isinstance(val, bool):
                    raise DomainError(f"config key {key} needs an integer, "
                                      f"got {val!r}")
            elif not isinstance(val, str):
                raise DomainError(f"config key {key} needs a string, "
                                  f"got {val!r}")
            setattr(cfg, key, val)
        return cfg


def _parse_fraction(text: str, what: str) -> Fraction:
    """An exact fraction typed by the user, such as '3/7' or '0.25'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse {what} {text!r} "
                          "(expected num/den or a decimal)") from None


def _parse_start(params: Params, text: str, slope: Slope):
    """'m,n,side,offset' with the offset an exact fraction along the side."""
    try:
        ms, ns, side, off = text.split(",")
        cell = (int(ms), int(ns))
    except ValueError as exc:
        raise DomainError(f"cannot parse start {text!r} "
                          "(expected m,n,side,num/den)") from exc
    offset = _parse_fraction(off, "start offset")
    return billiard.make_state(params, cell, side, offset, slope,
                               billiard.leaving_orientation(side))


def _state_for(cfg: RunConfig, params: Params, slope: Slope):
    if cfg.start:
        state = _parse_start(params, cfg.start, slope)
        return state, billiard.classify_trajectory(state, params,
                                                   cfg.max_collisions)
    return billiard.regular_start(params, slope,
                                  max_collisions=cfg.max_collisions)


def _write(path: str, data: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def cmd_classify(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    slope = Slope.parse(cfg.slope)
    if slope.is_axis and not cfg.start:
        gap = params.b if slope.is_horizontal else params.a
        axis = "horizontal" if slope.is_horizontal else "vertical"
        print(f"{axis} direction: straight corridors of width {1 - gap} "
              f"escape; rays entering an obstacle band bounce between two "
              f"facing sides (2-collision periodic orbit)")
        return EXIT_OK
    state, outcome = _state_for(cfg, params, slope)
    if outcome.kind is Outcome.PERIODIC:
        print(f"Periodic: {outcome.combinatorial_length} collisions, "
              f"length {outcome.geometric_length} direction vectors")
        return EXIT_OK
    if outcome.kind is Outcome.ESCAPING:
        print(f"Escaping: drift {outcome.drift} every "
              f"{outcome.combinatorial_length} collisions")
        return EXIT_OK
    if outcome.kind is Outcome.SINGULAR:
        print(f"Singular: corner hit at ({outcome.corner.x}, {outcome.corner.y}) "
              f"after {outcome.combinatorial_length} collisions")
        return EXIT_OK
    print(f"Undetermined after {outcome.combinatorial_length} collisions "
          f"(raise --max-collisions)")
    return EXIT_UNDETERMINED


def cmd_render(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    slope = Slope.parse(cfg.slope)
    if not cfg.out:
        raise DomainError("render needs --out FILE.svg")
    if cfg.n_collisions < 0:
        raise DomainError(f"n_collisions must be >= 0, got {cfg.n_collisions}")
    state, outcome = _state_for(cfg, params, slope)
    n = cfg.n_collisions
    highlight = ()
    if outcome.kind is Outcome.PERIODIC:
        n = outcome.combinatorial_length
    elif outcome.kind is Outcome.ESCAPING and outcome.repeat_cells:
        highlight = outcome.repeat_cells
        n = min(n, 2 * outcome.combinatorial_length)
    path = billiard.trace(state, params, n)
    _write(cfg.out, svg.render_trajectory(params, path, scale=cfg.scale,
                                          highlight_cells=highlight))
    print(f"wrote {cfg.out}: {outcome.kind.value}, {len(path.points)} points")
    return EXIT_OK


def _decomposition(cfg: RunConfig) -> tuple:
    """(slope, decomposition, frame): the slope decomposed on the
    ``--origami`` surface as written, else as a table slope on the
    quotient surface of ``--params``."""
    params = Params.parse(cfg.params)
    slope = Slope.parse(cfg.slope)
    if cfg.origami_file:
        with open(cfg.origami_file, encoding="utf-8") as fh:
            surface = origami.Origami.deserialize(fh.read())
        return slope, origami.decompose_direction(surface, slope), \
            "origami frame"
    return slope, origami.decompose_table_direction(params, slope), \
        "table frame"


def cmd_decompose(cfg: RunConfig) -> int:
    slope, decomp, frame = _decomposition(cfg)
    print(f"direction {slope} ({frame}): {len(decomp.cylinders)} cylinder(s), "
          f"word {origami.format_word(decomp.word)}")
    rows = ["cylinder,circumference,height,modulus,cells,waist_points"]
    for i, cyl in enumerate(decomp.cylinders):
        waist = " ".join(cyl.waist_marked_points) or "-"
        print(f"  #{i}: circumference {cyl.circumference}, height {cyl.height}, "
              f"modulus {cyl.modulus}, waist points: {waist}")
        cells = " ".join(str(c) for c in sorted(cyl.cells))
        rows.append(f"{i},{cyl.circumference},{cyl.height},"
                    f"{cyl.modulus.numerator}/{cyl.modulus.denominator},"
                    f"{cells},{waist}")
    if cfg.csv:
        _write(cfg.csv, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_classify_direction(cfg: RunConfig) -> int:
    slope, decomp, frame = _decomposition(cfg)
    good = decomp.good_one_cylinder
    kinds = "one-cylinder" if len(decomp.cylinders) == 1 else \
        f"{len(decomp.cylinders)}-cylinder"
    print(f"slope {slope} ({frame}): {kinds}; "
          f"good one-cylinder: {'yes' if good else 'no'}")
    return EXIT_OK


def cmd_good_dirs(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    slopes = origami.enumerate_good_directions(params, cfg.limit)
    print(f"good one-cylinder directions with entries up to {cfg.limit}: "
          f"{len(slopes)}")
    for sl in slopes:
        print(f"  {sl}")
    if cfg.csv:
        rows = ["u,v"] + [f"{sl.u},{sl.v}" for sl in slopes]
        _write(cfg.csv, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_lift(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    slope = Slope.parse(cfg.slope)
    report = lift.lift_direction(params, slope)
    label = "strongly parabolic" if report.strongly_parabolic else \
        "not strongly parabolic"
    print(f"slope {slope} on the infinite table: {label}")
    rows = ["cylinder,circumference,height,behavior,factor,drift_m,drift_n"]
    for i, (cyl, beh) in enumerate(zip(report.y_decomposition.cylinders,
                                       report.x_behavior)):
        if beh.closes:
            print(f"  #{i} (c={cyl.circumference}, h={cyl.height}): closes "
                  f"with factor {beh.factor}")
            rows.append(f"{i},{cyl.circumference},{cyl.height},closes,"
                        f"{beh.factor},,")
        else:
            print(f"  #{i} (c={cyl.circumference}, h={cyl.height}): strip "
                  f"with drift {beh.drift}")
            rows.append(f"{i},{cyl.circumference},{cyl.height},strip,,"
                        f"{beh.drift[0]},{beh.drift[1]}")
    if cfg.csv:
        _write(cfg.csv, "\n".join(rows) + "\n")
    return EXIT_OK


def _parse_theta(cfg: RunConfig) -> experiments.DirectionSpec:
    text = cfg.theta.strip()
    if not text:
        raise DomainError("this command needs --theta")
    theta = _parse_fraction(text, "theta")
    if "/" in text or "." not in text:
        return experiments.exact_direction(theta)
    return experiments.quantize_direction(theta, cfg.precision_bits)


def cmd_recur(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    direction = _parse_theta(cfg)
    report = experiments.recurrence_experiment(
        params, direction, cfg.samples, cfg.horizon, cfg.seed, jobs=cfg.jobs,
        shadow=direction.quantized)
    hits = sum(1 for s in report.samples if s.outcome == "returned")
    print(f"returned {hits} of {cfg.samples} starts "
          f"({float(report.returned_fraction):.4f}) "
          f"within {cfg.horizon} collisions")
    if cfg.csv:
        _write(cfg.csv, report.to_csv())
    return EXIT_OK


def cmd_diffuse(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    direction = _parse_theta(cfg)
    report = experiments.diffusion_experiment(
        params, direction, cfg.k, cfg.horizon, cfg.seed, n_samples=cfg.samples)
    stats = sorted(s.statistic for s in report.samples)
    print(f"displacement statistic over {cfg.samples} starts: "
          f"median {stats[len(stats) // 2]:.3f}, max {stats[-1]:.3f}")
    if cfg.csv:
        _write(cfg.csv, report.to_csv())
    return EXIT_OK


def cmd_stability(cfg: RunConfig) -> int:
    params = Params.parse(cfg.params)
    slope = Slope.parse(cfg.slope)
    ok = experiments.stability_check(
        params, slope, _parse_fraction(cfg.delta, "delta"), cfg.probes)
    print(f"stability at delta {cfg.delta} over {cfg.probes} probes: "
          f"{'stable' if ok else 'broken'}")
    return EXIT_OK if ok else EXIT_UNDETERMINED


def cmd_selftest(cfg: RunConfig) -> int:
    params = Params.parse("1/2,1/2")
    checks = []
    _, out = billiard.regular_start(params, Slope(9, 29))
    checks.append(("slope 9/29 periodic", out.kind is Outcome.PERIODIC))
    _, out = billiard.regular_start(params, Slope(16, 39))
    checks.append(("slope 16/39 escaping", out.kind is Outcome.ESCAPING))
    checks.append(("slope 1 good one-cylinder",
                   origami.is_good_one_cylinder(params, Slope(1, 1))))
    report = lift.lift_direction(params, Slope(1, 1))
    checks.append(("slope 1 doubles", report.x_behavior[0].factor == 2))
    part = lift.wpoint_orbit_partition(params)
    checks.append(("orbit partition",
                   frozenset({"A", "B", "C"}) in part
                   and frozenset({"D"}) in part))
    # the shadow guard: a 64-bit direction passes, a 14-bit one is refused
    checks.append(("64-bit shadowed recurrence passes", _guard_passes(
        params, Fraction("0.31830988618379067154"), 64, 12, 920, 4)))
    checks.append(("14-bit direction refused", not _guard_passes(
        params, Fraction(1, 3) + Fraction(1, 2**12), 14, 5, 50000, 8)))
    slope = experiments.quantize_direction(
        Fraction("0.31830988618379067154"), 64).slope
    checks.append(("64-bit return map equals first hits in every piece",
                   _return_map_matches_first_hits(params, slope)))
    walk = _sample_orbit(params, slope, 7)
    checks.append(("4096 collisions in one block equal single steps",
                   _advance_matches_single_steps(walk, 4096)))
    checks.append(("4181/6765 cycle on the power map equals single steps",
                   _cycle_matches_single_steps(params, Slope(4181, 6765))))
    # a 96-bit direction just above slope 1, whose start begins a run of
    # one piece of T^8
    walk = _sample_orbit(Params.parse("2/3,2/3"),
                         experiments.quantize_direction(Fraction("1.0000003"),
                                                        96).slope, 1)
    checks.append(("run on the power map equals its repeats",
                   walk.run(walk.k, walk.t, 8000) > billiard._POWER
                   and _advance_matches_single_steps(walk, 8000)))
    ballistic = [experiments.diffusion_experiment(
        Params.parse("2/3,2/3"), experiments.exact_direction(1), 1, horizon,
        4).samples[0].statistic for horizon in (1000, 4000)]
    checks.append(("slope 1 diffusion on 2/3,2/3 grows",
                   5 < ballistic[0] < ballistic[1]))
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_ERROR


def _sample_orbit(params: Params, slope: Slope, seed: int) -> billiard.Orbit:
    start = experiments.sample_boundary_starts(params, slope, 1, seed)[0]
    return billiard.Orbit(billiard.make_state(
        params, (0, 0), start.side, start.offset, slope, start.orientation),
        params)


def _return_map_matches_first_hits(params: Params, slope: Slope) -> bool:
    """Whether each piece of the return map of ``slope`` maps a point
    inside it where the first-hit engine takes it: t = 3*lo + 1 on the
    three-times finer lattice, where the breakpoints are multiples of 3,
    from the obstacle at cell (0, 0), with the piece's domain, image, cell
    and |dX|."""
    lat = billiard._Lattice(params, slope, 3)
    cuts, pieces, _ = billiard._return_map(params, slope.u, slope.v)
    for k, (cs, row) in enumerate(zip(cuts, pieces)):
        for lo, (k1, flip, shift, dm, dn, c0, c1) in zip((0, *cs), row):
            t = 3 * lo + 1
            X, Y, side, m, n, sx, sy, adx = billiard._first_hit(
                lat, *lat.point(k, t, 0, 0), *billiard.DOMAINS[k][1])
            if (billiard._DOMAIN_INDEX[side, (sx, sy)],
                    lat.transverse(side, X, Y, m, n), m, n, adx) != \
                    (k1, 3 * shift - t if flip else 3 * shift + t, dm, dn,
                     3 * c0 + c1 * t):
                return False
    return True


def _advance_matches_single_steps(walk: billiard.Orbit, count: int) -> bool:
    """Whether one `Orbit.advance` of ``count`` collisions from the start of
    ``walk``, which steps on the power map, ends as ``count`` single-piece
    steps do: state, extent and box of cells."""
    k, t, m, n = walk.k, walk.t, 0, 0
    ms, ns, ext = [m], [n], 0
    try:
        for k, t, m, n, adx in islice(walk, count):
            ms.append(m)
            ns.append(n)
            ext += adx
    except CornerHit:
        return False
    return walk.advance(walk.k, walk.t, 0, 0, count) == (
        count, k, t, m, n, ext, min(ms), max(ms), min(ns), max(ns), None)


def _cycle_matches_single_steps(params: Params, slope: Slope) -> bool:
    """Whether the cycle `_walk_period` records on the power map is the
    one single steps give: the state and extent at every landmark, at
    most _LANDMARK_EVERY phases after the one before, the box of every
    landmark block (an `Orbit.advance` of fewer than _BLOCK), the
    drift, the extent and the interval of starts on the same pieces: phase
    j moves by +-d when the start moves by d, the sign fixed by the leaf
    geometry."""
    walk = _sample_orbit(params, slope, 1)
    cuts, leaf = walk.tables.edges[0], billiard._LEAF
    cyc = billiard._walk_period(walk, 10**6, billiard._CycleStore()).cycle
    if cyc is None or cyc.length <= billiard._POWER_FROM:
        return False
    k0, t0, n0, L = walk.k, walk.t, walk.n0, cyc.length
    state = (k0, t0, 0, 0, 0)
    for b, (q, q1) in enumerate(zip(cyc.phase, [*cyc.phase[1:], L])):
        if not 0 < q1 - q <= billiard._LANDMARK_EVERY:
            return False
        k, t, m, n, ext = state
        _, k, t, m, n, adx, *box, _ = walk.advance(k, t, m, n, q1 - q)
        cm, cn = cyc.cm[b], cyc.cn[b]
        if billiard._landmark(walk, cyc, t0, b, 0) != state or box != [
                cm + cyc.mlo[b], cm + cyc.mhi[b], cn + cyc.nlo[b],
                cn + cyc.nhi[b]]:
            return False
        state = (k, t, m, n, ext + adx)
    dlo, dhi = -t0, cuts[k0][-1] - t0
    for k, t, *_ in chain([(k0, t0)], islice(walk.steps(k0, t0, 0, 0), L - 1)):
        i = bisect_left(cuts[k], t)
        lo, hi = cuts[k][i - 1] - t, cuts[k][i] - t
        if leaf[k0] * leaf[k] < 0:
            lo, hi = -hi, -lo
        dlo, dhi = max(dlo, lo), min(dhi, hi)
    return state == (k0, t0, *cyc.drift, n0 * cyc.extent) and \
        (t0 + dlo, t0 + dhi) == (n0 * cyc.lo, n0 * cyc.hi)


def _guard_passes(params: Params, theta: Fraction, bits: int, samples: int,
                  horizon: int, seed: int) -> bool:
    """Whether a shadowed recurrence run of theta quantized at ``bits``
    completes instead of being refused."""
    try:
        experiments.recurrence_experiment(
            params, experiments.quantize_direction(theta, bits), samples,
            horizon, seed, shadow=True)
    except PrecisionError:
        return False
    return True


_COMMANDS = {
    "classify": cmd_classify,
    "render": cmd_render,
    "decompose": cmd_decompose,
    "classify-direction": cmd_classify_direction,
    "good-dirs": cmd_good_dirs,
    "lift": cmd_lift,
    "recur": cmd_recur,
    "diffuse": cmd_diffuse,
    "stability": cmd_stability,
    "selftest": cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are domain errors: exit 1
    with one line on stderr, not argparse's usage text and exit 2, which
    is the code of an undetermined classification.  Subcommand parsers
    inherit the class."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="windtree",
        description="Exact experiments on the periodic wind-tree billiard")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        # one option per config field; an option given on the command line
        # overrides a config file even where it equals the default
        for fld in dataclasses.fields(RunConfig):
            if fld.name == "command":
                continue
            p.add_argument(fld.metadata.get("flag",
                                            "--" + fld.name.replace("_", "-")),
                           dest=fld.name, default=argparse.SUPPRESS,
                           type=int if fld.type == "int" else str,
                           help=fld.metadata.get("help"))
        p.add_argument("--config", default="",
                       help="key=value config file overriding defaults")
        p.add_argument("--json-config", default="",
                       help="JSON config file overriding defaults")
        p.add_argument("--dump-config", default="",
                       help="write the effective config (key=value) and run")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.json_config:
        with open(args.json_config, encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
    elif args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_text(fh.read())
    else:
        cfg = RunConfig()
    for fld in dataclasses.fields(RunConfig):
        if hasattr(args, fld.name):  # the command and every option given
            setattr(cfg, fld.name, getattr(args, fld.name))
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        if args.dump_config:
            _write(args.dump_config, cfg.to_text())
        return _COMMANDS[cfg.command](cfg)
    except (DomainError, PrecisionError, CornerHit, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
