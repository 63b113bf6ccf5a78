"""Statistical experiments on the table: recurrence fractions, displacement
growth, approximation of a direction by good periodic ones, and stability
of periodic orbits under parameter perturbation.

Directions that are not rational at desk scale are represented by dyadic
quantization: the slope is rounded to k/2^bits and simulated exactly.
Every quantized recurrence run can be shadowed by a re-run at doubled
precision; a positional divergence beyond 2^-30 at a checkpoint raises
PrecisionError instead of reporting corrupted statistics.

Quantized orbits are stepped in blocks with `Orbit.advance`, which reports
a block's end state, X-extent and box of cells without a yield per
collision, and takes a block of 64 or more collisions 8 at a time on the
8th power of the return map, a run of one self-mapping piece at once.  A
shadowed recurrence sample advances the primary to the next checkpoint
(each 512th collision) or to the horizon, stopping early before a corner
or back in the origin cell, then the shadow by as many collisions, and
compares the two where a block ends other than before a corner; the
checks, their order and the collision they name are those of stepping
the two runs in lockstep.  Diffusion samples advance in blocks of 64.

A diffusion sample is the running sup of dist / log_k(t) along an orbit,
dist the distance from the start and t the time flown, with its first 64
record updates as witnesses.  The float statistic is computed only at
steps that can change these.  Every other step is ruled out by a
certified upper bound made of small integers and one stored float: the
obstacle of cell (m, n) lies within a/2, b/2 of the cell's centre and the
start within a/2, b/2 of the origin, so dist <= hypot(|m| + 1, |n| + 1);
t never decreases, so the last exact log_k(t), times 1 - 2^-40 and less
2^-40 for the rounding of t and of the logs, is below every later
denominator.  A block's bound takes the largest |m| and |n| of its box
and the log known before its first step.  A block whose bound is at most
the bar (a statistic reached before the block) is skipped; every other
block is deferred: its start, extent and bound are kept.  Once the 64
witnesses are recorded, a deferred block whose bound is below stop_at
has its last step evaluated exactly, which raises the bar and drops the
deferred blocks whose bound is below it.  Before that, or when its bound
reaches stop_at, the block settles the waiting blocks, itself the last;
so do more than 64 waiting blocks, the horizon and a corner.  Settling
replays the blocks in step order, one step at a time, each step with its
own bound, and evaluates a step whose bound beats the best statistic; a
block whose bound does not is skipped whole, as it holds no step that
could change the best, the witnesses or the stop.
Once the witnesses are recorded, a run of one self-mapping piece of the
8th power is advanced as one block, however long, and settling bisects a
block longer than 64: it advances both halves again from their own
starts, which takes a run O(1) steps, evaluates the block's last step,
which raises a bar of its own (capped at stop_at), and bounds each half
with the log of its own start time.  A half whose bound is below that
bar, or at most the best, is dropped, and the others are decided in step
order, so a run costs O(log) exact evaluations.
A skipped step is beaten strictly by some step, or tied by an earlier
one, and reaches no stop_at that an earlier step does not, so the sup,
its time, the witnesses and the collision count equal those of
evaluating every step bit for bit.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice

from .billiard import (_BLOCK, _POWER, BOTTOM, LEFT, RIGHT, TOP, Orbit,
                       Outcome, _side_state, classify_trajectory,
                       collision_sequence, first_return, leaving_orientation,
                       regular_start, side_length, side_offset)
from .errors import (CornerHit, DomainError, PrecisionError, check_count,
                     check_precision_bits)
from .exact import (Params, ParityClass, Slope, classify_params,
                    fraction_text)
from .origami import decompose_table_direction, is_good_one_cylinder

SHADOW_TOLERANCE = Fraction(1, 2**30)
CHECKPOINT_EVERY = 512


@dataclass(frozen=True)
class DirectionSpec:
    """A flow direction for experiments: an exact slope, possibly obtained
    by dyadic quantization of a higher-precision value.

    ``source`` keeps the pre-quantization value so that shadow runs can
    re-quantize it at doubled precision.
    """

    slope: Slope
    precision_bits: int | None = None  # None: the slope is the exact input
    source: Fraction | None = None

    @property
    def quantized(self) -> bool:
        return self.precision_bits is not None


def quantize_direction(value, bits: int) -> DirectionSpec:
    """Round a positive slope value to the dyadic grid 2^-bits, for bits
    within `errors.check_precision_bits`."""
    check_precision_bits(bits)
    return _quantized(value, bits)


def _quantized(value, bits: int) -> DirectionSpec:
    """`quantize_direction` at any bits: a shadow run's are twice those
    checked."""
    val = Fraction(value)
    if val <= 0:
        raise DomainError("experiment directions must be positive slopes")
    num = round(val * (1 << bits))
    if num == 0:
        raise DomainError("direction underflows the requested precision")
    frac = Fraction(num, 1 << bits)
    return DirectionSpec(Slope(frac.numerator, frac.denominator), bits, val)


def exact_direction(value) -> DirectionSpec:
    val = Fraction(value)
    if val < 0:
        raise DomainError("experiment directions must be non-negative slopes")
    return DirectionSpec(Slope(val.numerator, val.denominator), None)


# -- start sampling on the boundary of the origin obstacle ---------------


@dataclass(frozen=True)
class SampleStart:
    sample_id: int
    side: str
    offset: Fraction          # along the side, from its lower/left end
    orientation: tuple


def sample_boundary_starts(params: Params, slope: Slope, n_samples: int,
                           seed: int) -> list:
    """Starts distributed by arc length on the origin obstacle's boundary.

    Offsets are uniform on the grid of 2^16 parts of the perimeter (exact
    rationals); the outgoing orientation is the side's outward normal sign
    combined with a fair coin for the tangential sign.
    """
    rng = random.Random(seed)
    per = 2 * (params.a + params.b)
    out = []
    for sid in range(n_samples):
        offset = Fraction(rng.randrange(1, 1 << 16), 1 << 16) * per
        # offset < 2(a + b), so the left side takes what the others leave
        for side, length in ((BOTTOM, params.a), (RIGHT, params.b),
                             (TOP, params.a), (LEFT, params.b)):
            if offset < length:
                break
            offset -= length
        if offset == 0:
            offset = length / 2
        coin = 1 if rng.random() < 0.5 else -1
        out.append(SampleStart(sid, side, offset,
                               leaving_orientation(side, (coin, coin))))
    return out


# -- recurrence -----------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    sample_id: int
    side: str
    offset: Fraction
    outcome: str              # returned | lost | singular | corridor
    first_return: int | None  # collisions to the first return, if any
    drift: tuple              # net cell displacement when the run stopped
    geometric_length: Fraction


@dataclass(frozen=True)
class RecurrenceReport:
    params: Params
    direction: DirectionSpec
    horizon: int
    seed: int
    samples: tuple

    @property
    def returned_fraction(self) -> Fraction:
        hits = sum(1 for s in self.samples if s.outcome == "returned")
        return Fraction(hits, len(self.samples))

    def returned_fraction_at(self, horizon: int) -> Fraction:
        hits = sum(1 for s in self.samples
                   if s.first_return is not None and s.first_return <= horizon)
        return Fraction(hits, len(self.samples))

    def to_csv(self) -> str:
        rows = ["sample_id,start_side,start_offset,outcome,"
                "first_return_collisions,drift_m,drift_n,geometric_length"]
        for s in self.samples:
            fr = "" if s.first_return is None else str(s.first_return)
            rows.append(
                f"{s.sample_id},{s.side},{fraction_text(s.offset)},"
                f"{s.outcome},{fr},{s.drift[0]},{s.drift[1]},"
                f"{fraction_text(s.geometric_length)}")
        return "\n".join(rows) + "\n"


def _run_sample(params: Params, slope: Slope, start: SampleStart, horizon: int,
                shadow_slope: Slope | None):
    """First return of one sample to the origin obstacle, exact stepping.

    With a shadow slope given (the same direction re-quantized at doubled
    precision), both runs advance from checkpoint to checkpoint and their
    positions are compared at each, up to the end.  Without one,
    the sample is answered from its recorded cylinder cycle
    (`billiard.first_return`).
    """
    result = partial(SampleResult, start.sample_id, start.side, start.offset)
    if slope.is_axis and slope.is_horizontal == (start.side in (BOTTOM, TOP)):
        # tangent: slides along the corridor, never meets a side again
        return result("corridor", None, (0, 0), Fraction(0))
    state = _side_state(params, (0, 0), start.side, start.offset, slope,
                        start.orientation)
    if shadow_slope is None:
        ret, drift, length, singular = first_return(state, params, horizon)
        outcome = "singular" if singular else \
            "lost" if ret is None else "returned"
        return result(outcome, ret, drift, length)
    walk = Orbit(state, params)
    vN = slope.v * walk.lattice.N
    sh_walk = Orbit(_side_state(params, (0, 0), start.side, start.offset,
                                shadow_slope, start.orientation), params)
    # A block runs to the next checkpoint or to the horizon, so every block
    # starts at a checkpoint.  The primary stops short only before a corner
    # or back in the origin cell; the shadow then makes as many collisions.
    # A block that does not stop before a corner ends at a checkpoint, the
    # horizon or the return: each a place the lockstep loop checks.
    k, t, r, m, n = walk.k, walk.t, walk.r, 0, 0
    sh_cur = (sh_walk.k, sh_walk.t, sh_walk.r, 0, 0)
    total_dx = i = 0
    while i < horizon:
        done, k, t, r, m, n, adx, *_, corner = walk.advance(
            k, t, r, m, n, min(CHECKPOINT_EVERY, horizon - i), (0, 0))
        total_dx += adx
        shadow = sh_walk.advance(*sh_cur, done)
        if shadow[0] < done:
            raise PrecisionError("shadow run became singular; the "
                                 "direction precision cannot be trusted")
        sh_cur = shadow[1:6]
        i += done
        if corner is not None:
            return result("singular", None, (m, n), Fraction(total_dx, vN))
        p, q = walk.position(k, t, r, m, n), sh_walk.position(*sh_cur)
        dx, dy = abs(p.x - q.x), abs(p.y - q.y)
        if dx > SHADOW_TOLERANCE or dy > SHADOW_TOLERANCE:
            raise PrecisionError(
                f"shadow divergence {float(max(dx, dy)):.3e} at "
                f"collision {i} exceeds 2^-30")
        if m == 0 and n == 0:
            return result("returned", i, (0, 0), Fraction(total_dx, vN))
    return result("lost", None, (m, n), Fraction(total_dx, vN))


def recurrence_experiment(params: Params, direction: DirectionSpec,
                          n_samples: int, horizon: int, seed: int,
                          jobs: int = 1, shadow: bool = False) -> RecurrenceReport:
    """Fraction of boundary starts whose orbit comes back to the origin
    obstacle within the collision budget."""
    check_count("horizon", horizon)
    check_count("n_samples", n_samples)
    check_count("jobs", jobs)
    slope = direction.slope
    starts = sample_boundary_starts(params, slope, n_samples, seed)
    shadow_slope = None
    if shadow and direction.quantized:
        if direction.source is None:
            raise DomainError("shadow runs need the pre-quantization value")
        shadow_slope = _quantized(direction.source,
                                  2 * direction.precision_bits).slope
    args = [(params, slope, st, horizon, shadow_slope) for st in starts]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_sample, *zip(*args)))
    else:
        results = [_run_sample(*a) for a in args]
    return RecurrenceReport(params, direction, horizon, seed, tuple(results))


# -- diffusion ------------------------------------------------------------


def iterated_log(k: int, t: float) -> float | None:
    """log applied k times, None where undefined or non-positive."""
    val = t
    for _ in range(k):
        if val <= 0:
            return None
        val = math.log(val)
    return val if val > 0 else None


@dataclass(frozen=True)
class DiffusionSample:
    sample_id: int
    statistic: float          # sup of dist / prod log_j(t) over the run
    sup_time: float           # time at which the sup was attained
    collisions: int
    witnesses: tuple          # (t, dist, statistic) at record updates


@dataclass(frozen=True)
class DiffusionReport:
    params: Params
    direction: DirectionSpec
    k: int
    horizon: int
    seed: int
    samples: tuple

    @property
    def off_class_warning(self) -> bool:
        """The parameters lie outside the even-over-odd class the growth
        statement concerns."""
        return self.params.parity_class is not ParityClass.E_PRIME

    def to_csv(self) -> str:
        """Per sample: its witness rows, then its sup, time and collisions."""
        rows = ["sample_id,row,t,dist,statistic,collisions",
                "# floats: ieee754-binary64, hexadecimal"]
        for s in self.samples:
            for t, dist, stat in s.witnesses:
                rows.append(f"{s.sample_id},witness,{t.hex()},{dist.hex()},"
                            f"{stat.hex()},")
            rows.append(f"{s.sample_id},sup,{s.sup_time.hex()},,"
                        f"{s.statistic.hex()},{s.collisions}")
        return "\n".join(rows) + "\n"


_WITNESSES = 64  # record updates kept as witnesses
_DEFER = 64      # deferred blocks held before they are decided
# An exact log_k(t) times _LOG_SHRINK, less _LOG_SLACK, is below the
# computed log_k of every later t; the slack covers the rounding of t and
# of the k logs.
_LOG_SHRINK, _LOG_SLACK = 1 - 2.0**-40, 2.0**-40


def _diffusion_sample(params: Params, slope: Slope, start: SampleStart, k: int,
                      horizon: int, stop_at: float | None):
    """The running sup of dist / log_k(t) along one orbit, exact where it
    can change the result (module docstring).

    A step is decided in step order, as a step-by-step run decides it,
    unless its bound is at most the statistic of an earlier step, or below
    the statistic of any step and stop_at; neither can change the sup, its
    time, the witnesses or the step where stop_at is reached.
    """
    walk = Orbit(_side_state(params, (0, 0), start.side, start.offset, slope,
                             start.orientation), params)
    N = walk.lattice.N
    X0, Y0 = walk.point(walk.k, walk.t, walk.r, 0, 0)
    speed = math.hypot(slope.u, slope.v) / slope.v  # time per unit of X-extent
    best = 0.0
    best_t = 0.0
    witnesses = []
    lo = 0.0   # below the denominator of every step after those evaluated
    bar = 0.0  # a statistic reached by a step before the current block

    def floor_log(total_dx):
        """log_k of the time at X-extent total_dx, shrunk below that of
        every later time; 0.0 where it is not positive."""
        denom = iterated_log(k, total_dx / N * speed)
        return 0.0 if denom is None else denom * _LOG_SHRINK - _LOG_SLACK

    def exact(kq, tq, r, m, n, total_dx):
        """(t, dist, statistic, low) of a step, low its log_k(t) shrunk;
        no statistic before log_k(t) > 0."""
        nonlocal lo
        t = total_dx / N * speed
        denom = iterated_log(k, t)
        if denom is None:
            return t, None, None, 0.0
        low = denom * _LOG_SHRINK - _LOG_SLACK
        lo = max(lo, low)
        X, Y = walk.point(kq, tq, r, m, n)
        dist = math.hypot((X - X0) / N, (Y - Y0) / N)
        return t, dist, dist / denom, low

    def block(i, low, state, total_dx, count):
        """Advance ``count`` steps from step i; the block as settle takes
        it, (i, bound, low, state, total_dx, count), and the state, X-extent
        and corner at its end."""
        done, *end, adx, mlo, mhi, nlo, nhi, corner = walk.advance(*state,
                                                                   count)
        # the obstacle of cell (m, n) lies within a/2, b/2 of its centre,
        # and the start within a/2, b/2 of the origin
        bound = math.hypot(max(-mlo, mhi) + 1, max(-nlo, nhi) + 1) / low \
            if low > 0 else math.inf
        return (i, bound, low, state, total_dx, done), tuple(end), adx, corner

    def settle(blocks):
        """Decide the steps of ``blocks`` in step order; the step at which
        stop_at is reached, or None.  A block whose bound is at most the
        best, or below the bar, is skipped.  With the witnesses full, a
        block of more than _BLOCK steps is bisected: its last step raises
        the bar, and each half is advanced again and bounded with the log
        of its own start time."""
        nonlocal best, best_t
        # below stop_at and the statistic of step ``judged``; with the
        # witnesses full, a step below both changes nothing
        bar, judged = 0.0, None
        todo = blocks[::-1]  # the next block last
        while todo:
            i, bound, low, state, total_dx, count = todo.pop()
            if bound <= best or bound < bar:
                continue
            if count > _BLOCK and len(witnesses) == _WITNESSES:
                # halves on the power map's steps, so a run's are runs
                half = _POWER * (count // (2 * _POWER))
                low = max(low, floor_log(total_dx))
                first, mid, adx, _ = block(i, low, state, total_dx, half)
                total_dx += adx
                second, end, adx, _ = block(
                    i + half, max(low, floor_log(total_dx)), mid, total_dx,
                    count - half)
                if i + count != judged:  # the last step raises the bar
                    judged = i + count
                    stat = exact(*end, total_dx + adx)[2]
                    if stat is not None:
                        bar = max(bar, stat if stop_at is None
                                  else min(stat, stop_at))
                todo += [second, first]
                continue
            for kq, tq, r, m, n, adx in islice(walk.steps(*state), count):
                i += 1
                total_dx += adx
                if low > 0:
                    reach = math.hypot(abs(m) + 1, abs(n) + 1) / low
                    if reach <= best or reach < bar:
                        continue
                t, dist, stat, step_low = exact(kq, tq, r, m, n, total_dx)
                low = max(low, step_low)
                if stat is not None and stat > best:
                    best, best_t = stat, t
                    if len(witnesses) < _WITNESSES:
                        witnesses.append((t, dist, stat))
                    if stop_at is not None and best >= stop_at:
                        return i
        return None

    deferred = []  # blocks in step order, as settle takes them
    stop = None
    state = (walk.k, walk.t, walk.r, 0, 0)
    total_dx = i = 0
    while i < horizon:
        count = min(_BLOCK, horizon - i)
        if len(witnesses) == _WITNESSES:  # a run of the power map is a block
            count = max(count, walk.run(*state[:2], horizon - i))
        blk, end, adx, corner = block(i, lo, state, total_dx, count)
        done, bound = blk[5], blk[1]
        if done and bound > bar:
            deferred.append(blk)
            keep = len(witnesses) == _WITNESSES and (stop_at is None
                                                     or bound < stop_at)
            if keep:  # its last step raises the bar
                stat = exact(*end, total_dx + adx)[2]
                if stat is not None and stat > bar:
                    bar = stat
                    deferred = [d for d in deferred if d[1] >= bar]
            if not keep or len(deferred) > _DEFER:
                stop = settle(deferred)
                deferred, bar = [], best
                if stop is not None:
                    break
        i += done
        total_dx += adx
        state = end
        if corner is not None:
            i += 1  # the step that runs into the corner
            break
    if stop is None:  # the horizon or a corner ended the run
        stop = settle(deferred)
    return DiffusionSample(start.sample_id, best, best_t,
                           i if stop is None else stop, tuple(witnesses))


def diffusion_experiment(params: Params, direction: DirectionSpec, k: int,
                         horizon: int, seed: int, n_samples: int = 1,
                         stop_at: float | None = None,
                         allow_any_class: bool = False) -> DiffusionReport:
    """Running sup of displacement over iterated-log time along orbits.

    The growth statement concerns the even-over-odd parameter class; other
    classes are refused unless allow_any_class is set, in which case the
    report carries a warning flag.
    """
    check_count("k", k)
    check_count("horizon", horizon)
    check_count("n_samples", n_samples)
    if params.parity_class is not ParityClass.E_PRIME and not allow_any_class:
        raise DomainError("displacement growth is stated for the "
                          "even-over-odd parameter class; pass "
                          "allow_any_class=True to explore others")
    slope = direction.slope
    if slope.is_axis:
        raise DomainError("axis directions have no displacement statistic")
    starts = sample_boundary_starts(params, slope, n_samples, seed)
    samples = tuple(_diffusion_sample(params, slope, st, k, horizon, stop_at)
                    for st in starts)
    return DiffusionReport(params, direction, k, horizon, seed, samples)


# -- approximation by good directions -------------------------------------


@dataclass(frozen=True)
class Approximant:
    p: int
    q: int
    quality: Fraction  # q^2 * |theta - p/q|


def _semiconvergents(value: Fraction):
    """Convergents and intermediate fractions of a positive rational, in
    continued-fraction order (the value itself appears last)."""
    a, b = value.numerator, value.denominator
    p0, q0, p1, q1 = 1, 0, 0, 1  # previous and second-previous convergents
    while b:
        digit, rem = divmod(a, b)
        for j in range(1, digit + 1):
            yield (p0 * j + p1, q0 * j + q1)
        p0, p1 = digit * p0 + p1, p0
        q0, q1 = digit * q0 + q1, q0
        a, b = b, rem


def approximation_search(direction: DirectionSpec, params: Params,
                         n_terms: int) -> list:
    """Best approximations of the direction by members of the good set.

    The good set is the good one-cylinder directions for odd-over-even
    parameters, and the one-cylinder directions of the quotient surface
    for even-over-odd parameters.  Candidates are the convergents and
    intermediate fractions of the direction's value.
    """
    check_count("n_terms", n_terms)
    if params.parity_class is ParityClass.E:
        member = lambda sl: is_good_one_cylinder(params, sl)
    elif params.parity_class is ParityClass.E_PRIME:
        member = lambda sl: len(
            decompose_table_direction(params, sl).cylinders) == 1
    else:
        raise DomainError("no good direction set for this parameter class")
    theta = Fraction(direction.slope.u, direction.slope.v)
    out = []
    for p, q in _semiconvergents(theta):
        if direction.quantized and q > (1 << (direction.precision_bits // 2)):
            if len(out) < n_terms:
                raise PrecisionError(
                    "the direction's precision cannot certify approximants "
                    f"with denominators beyond 2^{direction.precision_bits // 2}")
            break
        g = math.gcd(p, q)
        cand = Slope(p // g, q // g)
        if member(cand):
            out.append(Approximant(cand.u, cand.v,
                                   Fraction(cand.v)**2 * abs(theta - Fraction(p, q))))
            if len(out) >= n_terms:
                break
    return out


# -- stability of periodic orbits ------------------------------------------


# Default probe displacements: the diagonal family (a and b moved
# together), at geometrically shrinking depths.  With the slope held
# fixed, as this operation's interface demands, a perturbation that
# breaks the table's aspect symmetry adds a translation proportional to
# the asymmetry to the orbit's transversal return map, so the offset
# marches off its side instead of closing, at every depth; the underlying
# stability statement compensates by adjusting the slope.  Equal-move
# probes keep the return map closed and are the honest fixed-slope family
# to test.  Pass explicit displacements to probe anything else.
_DIAGONAL_PROBES = ((1, 1), (-1, -1))


def default_probe_displacements(delta: Fraction, n_probes: int) -> list:
    out = []
    depth = Fraction(delta)
    while len(out) < n_probes:
        for dxs, dys in _DIAGONAL_PROBES:
            if len(out) >= n_probes:
                break
            out.append((dxs * depth, dys * depth))
        depth /= 2
    return out


def stability_check(params: Params, table_slope: Slope, delta,
                    n_probes: int, displacements=None) -> bool:
    """Does the periodic orbit survive every parameter perturbation probed?

    The start is carried to the perturbed table by keeping its side and
    its relative offset along the side; the perturbed orbit must be
    periodic and repeat the base orbit's cyclic (side, cell) collision
    word (possibly several times, when the exact closing time grows).
    Raises DomainError when the unperturbed slope is not periodic.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise DomainError("delta must be non-negative")
    check_count("n_probes", n_probes)
    state, base = regular_start(params, table_slope)
    if base.kind is not Outcome.PERIODIC:
        raise DomainError(f"slope {table_slope} is not periodic at {params}")
    frac_off = side_offset(state, params) / side_length(params, state.side)
    base_len = base.combinatorial_length
    base_comb = collision_sequence(state, params, base_len)
    if displacements is None:
        displacements = default_probe_displacements(delta, n_probes)
    for da, db in displacements[:n_probes]:
        if max(abs(da), abs(db)) > delta:
            raise DomainError("probe displacement exceeds delta")
        a2 = params.a + da
        b2 = params.b + db
        if not (0 < a2 < 1 and 0 < b2 < 1):
            return False
        probe = classify_params(a2.numerator, a2.denominator,
                                b2.numerator, b2.denominator)
        plen = side_length(probe, state.side)
        try:
            pstate = _side_state(probe, state.cell, state.side,
                                 frac_off * plen, table_slope,
                                 state.orientation)
            pout = classify_trajectory(pstate, probe)
        except (DomainError, CornerHit):
            return False
        if pout.kind is not Outcome.PERIODIC:
            return False
        if pout.combinatorial_length % base_len != 0:
            return False
        reps = pout.combinatorial_length // base_len
        if collision_sequence(pstate, probe, pout.combinatorial_length) != \
                base_comb * reps:
            return False
    return True
