"""Between the two pictures: fold points of the compact quotient surface
into billiard data on the infinite table, classify how each cylinder
behaves out there (closing up with an integer length factor or stretching
into an infinite strip), and compute the affine orbits of the six special
points.

Folding convention: the stretched L-polygon shrinks back by (1/q, 1/s)
to the unit fundamental square whose removed block sits at the top-right
corner; translating by ((1-a)/2, (1-b)/2) mod 1 centers the block, and
the centered unit square is the table cell around the origin obstacle.
The four reflected sheets of the unfolding correspond to the four
orientation sign classes; folding with the identity sheet means the
billiard direction keeps both signs positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .billiard import (DEFAULT_MAX_COLLISIONS, Outcome, _axis_flight,
                       _classify, _hit_orbit, _launch)
from .errors import CornerHit, DomainError
from .exact import Params, PointQ, Slope
from .origami import (CylinderDecomposition, Origami, _integer_point,
                      _l_shape_position, build_origami,
                      decompose_table_direction, scaled_direction_gcd,
                      sl2z_act)


class LiftKind(enum.Enum):
    CLOSES = "ClosesWithFactor"
    STRIP = "Strip"


@dataclass(frozen=True)
class CylinderLift:
    kind: LiftKind
    factor: int | None       # billiard period / cylinder circumference
    drift: tuple | None      # lattice vector of the strip repeat

    @property
    def closes(self) -> bool:
        return self.kind is LiftKind.CLOSES


@dataclass(frozen=True)
class LiftReport:
    direction: Slope
    y_decomposition: CylinderDecomposition
    x_behavior: tuple

    @property
    def strongly_parabolic(self) -> bool:
        """Every cylinder closes, all with the same lifted circumference and
        height."""
        return all(b.closes for b in self.x_behavior) and len({
            (cyl.circumference * b.factor, cyl.height)
            for cyl, b in zip(self.y_decomposition.cylinders,
                              self.x_behavior)}) == 1


def _fold(num: int, den: int, q: int, p: int) -> int:
    """(X/q - (1 - p/q)/2) mod 1 - 1/2 for X = num/den, over 2*q*den: the
    residue of 2*num - (q - p)*den modulo 2*q*den, less q*den."""
    return (2 * num - (q - p) * den) % (2 * q * den) - q * den


def fold_to_table(params: Params, X: Fraction, Y: Fraction) -> PointQ:
    """Map absolute stretched-polygon coordinates to the table cell at the
    origin (coordinates in [-1/2, 1/2) around the obstacle at (0, 0)).

    Each coordinate shrinks by q (or s), moves by -(1 - a)/2 (or
    -(1 - b)/2), reduces mod 1 and moves by -1/2, in one integer `%`."""
    q, s = params.q, params.s
    return PointQ(
        Fraction(_fold(X.numerator, X.denominator, q, params.p),
                 2 * q * X.denominator),
        Fraction(_fold(Y.numerator, Y.denominator, s, params.r),
                 2 * s * Y.denominator))


def fold_cell_point(params: Params, cell: int, x: Fraction, y: Fraction) -> PointQ:
    col, row = _l_shape_position(params, cell)
    return fold_to_table(params, col + x, row + y)


def _fold_sample(params: Params, cell: int, X: int, Y: int, d: int) -> tuple:
    """fold_cell_point of the point (X/d, Y/d) of ``cell``, in integers:
    (xn, xd, yn, yd), the table point (xn/xd, yn/yd)."""
    col, row = _l_shape_position(params, cell)
    q, s = params.q, params.s
    return (_fold(col * d + X, d, q, params.p), 2 * q * d,
            _fold(row * d + Y, d, s, params.r), 2 * s * d)


_SAMPLE_OFFSETS = (Fraction(1, 5), Fraction(1, 3), Fraction(2, 7),
                   Fraction(3, 11), Fraction(4, 13))
# Regular samples that decide a cylinder; the two offsets beyond them are
# retries for singular folds.
_SAMPLES_PER_CYLINDER = 3


def _cylinder_samples(decomp: CylinderDecomposition, ci: int):
    """Interior points of one cylinder, one per sample offset, in
    renormalized coordinates: they lie on one horizontal leaf, halfway up
    the smallest cell of the cylinder's bottom row."""
    levels = decomp.cell_levels
    cell = min(c for c in decomp.cylinders[ci].cells if levels[c][1] == 0)
    for off in _SAMPLE_OFFSETS:
        yield cell, off, Fraction(1, 2)


def _classify_fold(params: Params, table_slope: Slope, point: tuple):
    """Launch the folded point (xn, xd, yn, yd) on the table and classify
    its orbit, in integers up to the closed length.

    Returns a CylinderLift payload precursor: ('closes', period_length) or
    ('strip', drift), or None when the classification runs out of its
    collision budget.
    """
    hit = _launch(params, table_slope, *point, (1, 1))
    if hit is None:
        # straight corridor: the whole line repeats with the primitive step
        return ("strip", (table_slope.v, table_slope.u))
    if table_slope.is_axis:  # back after its two flights
        return ("closes", 2 * _axis_flight(table_slope, params))
    walk = _hit_orbit(params, table_slope, hit)
    kind, _, extent, drift, corner = _classify(walk, DEFAULT_MAX_COLLISIONS)
    if kind is Outcome.PERIODIC:
        return ("closes", Fraction(extent, table_slope.v * walk.lattice.N))
    if kind is Outcome.ESCAPING:
        return ("strip", drift)
    if kind is Outcome.SINGULAR:
        raise corner
    return None


def _budget_error(what: str) -> DomainError:
    return DomainError(f"{what}: classification exhausted its budget of "
                       f"{DEFAULT_MAX_COLLISIONS} collisions")


def lift_direction(params: Params, table_slope: Slope) -> LiftReport:
    """How the cylinders of a rational direction behave on the infinite table.

    One interior start per cylinder decides it (all its leaves are
    parallel translates); a few extra samples guard against bookkeeping
    errors.  Singular folds are retried with perturbed offsets, up to 5.
    The samples of a strip must agree on its drift up to the signs of its
    coordinates: the reported drift is the first regular sample's, and its
    signs depend on the reflected sheet of the table the fold lands in.
    A sample that runs out of the collision budget raises DomainError: a
    retry would not decide the cylinder either.
    """
    decomp = decompose_table_direction(params, table_slope)
    g = scaled_direction_gcd(params, table_slope)
    # every candidate start of every cylinder goes back through the
    # decomposition's own stages
    candidates = [list(_cylinder_samples(decomp, ci))
                  for ci in range(decomp.n_cylinders)]
    moved = iter(decomp._pull_back(
        [pt for cand in candidates for pt in cand]))
    behaviors = []
    for ci, cyl in enumerate(decomp.cylinders):
        lam_cyl = Fraction(cyl.circumference, g)
        results = []
        for sample in [next(moved) for _ in candidates[ci]]:
            if len(results) >= _SAMPLES_PER_CYLINDER:
                break
            try:
                result = _classify_fold(params, table_slope,
                                        _fold_sample(params, *sample))
            except (CornerHit, DomainError):
                continue  # singular or on-boundary fold: perturb and retry
            if result is None:
                raise _budget_error(f"cylinder {ci}")
            results.append(result)
        if not results:
            raise DomainError(f"no regular start found in cylinder {ci}")
        kinds = {r[0] for r in results}
        if len(kinds) != 1:
            raise AssertionError("samples of one cylinder disagree")
        if kinds == {"closes"}:
            lengths = {r[1] for r in results}
            if len(lengths) != 1:
                raise AssertionError("closed lifts of one cylinder differ in length")
            factor = Fraction(results[0][1], lam_cyl)
            if factor.denominator != 1:
                raise AssertionError("closed lift length is not a multiple "
                                     "of the cylinder circumference")
            behaviors.append(CylinderLift(LiftKind.CLOSES, int(factor), None))
        else:
            if len({(abs(m), abs(n)) for _, (m, n) in results}) != 1:
                raise AssertionError("strip samples of one cylinder differ "
                                     "beyond the signs of their drift")
            behaviors.append(CylinderLift(LiftKind.STRIP, None, results[0][1]))
    return LiftReport(table_slope, decomp, tuple(behaviors))


def abc_strip_check(params: Params, table_slope: Slope) -> bool:
    """The closed geodesic through two of the block centers A, B, C must
    unfold to an infinite billiard trajectory; True when it does.

    Raises DomainError when no cylinder of the direction carries two of
    A, B, C on its central leaf, or when the classification runs out of
    its collision budget.
    """
    decomp = decompose_table_direction(params, table_slope)
    target = None
    for cyl in decomp.cylinders:
        abc = [lab for lab in cyl.waist_marked_points if lab in ("A", "B", "C")]
        if len(abc) >= 2:
            target = abc[0]
            break
    if target is None:
        raise DomainError("no central leaf through two of A, B, C in this direction")
    # the same special point, as marked on the surface before the word
    mp = build_origami(params).marked_by_label()[target]
    result = _classify_fold(params, table_slope, _fold_sample(
        params, *_integer_point(mp.cell, mp.x, mp.y)))
    if result is None:
        raise _budget_error(f"the orbit of {target}")
    return result[0] == "strip"


def _label_permutation(origami: Origami, word: str) -> dict:
    """Label permutation induced by an affine self-map with derivative
    given by the generator word."""
    from .origami import isomorphisms
    img = sl2z_act(origami, word)
    isos = isomorphisms(img, origami)
    if len(isos) != 1:
        raise DomainError(f"expected a unique relabeling, found {len(isos)}")
    psi = isos[0]
    by_pos = {}
    for mp in origami.marked:
        by_pos[(mp.cell, mp.x, mp.y)] = mp.label
    perm = {}
    for mp in img.marked:
        cell = psi[mp.cell]
        if mp.is_integer:
            cell = origami.vertex_rep(cell)
        label = by_pos.get((cell, mp.x, mp.y))
        if label is None:
            raise AssertionError("transported point missed the marked set")
        perm[mp.label] = label
    return perm


def wpoint_orbit_partition(params: Params, words: tuple = ("TT", "S")) -> frozenset:
    """Orbits of the six special points under the affine self-maps of the
    half-size quotient surface (generated by the double shear and the
    quarter turn).

    Only defined for obstacle dimensions (1/2, 1/2).
    """
    if (params.p, params.q, params.r, params.s) != (1, 2, 1, 2):
        raise DomainError("the orbit partition is specific to dimensions (1/2, 1/2)")
    origami = build_origami(params)
    perms = [_label_permutation(origami, w) for w in words]
    labels = sorted(mp.label for mp in origami.marked)
    # orbit closure under the generated group
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for a, b in perm.items():
            parent[find(a)] = find(b)
    groups = {}
    for lab in labels:
        groups.setdefault(find(lab), set()).add(lab)
    return frozenset(frozenset(g) for g in groups.values())
