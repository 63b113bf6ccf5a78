"""Square-tiled model of the finite quotient surface, with the integer
shear/rotation action, cylinder decompositions, and the special points of
the hyperelliptic involution.

An origami is a pair of permutations on the unit cells of a square tiling:
``sigma_h[i]`` is the cell glued to the right of cell ``i`` and
``sigma_v[i]`` the cell glued above it.  The quotient surface of the table
with obstacle dimensions (p/q, r/s) becomes, after stretching by q
horizontally and s vertically, the L-shaped polygon obtained by removing a
p x r block from the top-right corner of a q x s rectangle, with facing
sides glued; its area is q*s - p*r unit cells.

Slopes handed to the billiard layer are in table units; on the stretched
tiling the same direction has slope (u * s) / (v * q).  All user-facing
slopes are table-frame and converted internally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError
from .exact import Params, ParityClass, Slope

WEIERSTRASS_LABELS = ("A", "B", "C", "D", "E", "F")


def _invert(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _cycles(perm: tuple, starts=None) -> tuple:
    """The cycle index of a permutation: (cycles, where, pos), with
    element c at cycles[where[c]][pos[c]].

    Each cycle starts at its smallest element, in the order of those.
    With ``starts`` given, only the cycles through those elements are
    walked, each from the first of them met; the other entries of
    ``where`` stay -1.
    """
    n = len(perm)
    where = [-1] * n
    pos = [0] * n
    cycles = []
    for i in range(n) if starts is None else starts:
        if where[i] >= 0:
            continue
        k = len(cycles)
        where[i] = k
        cyc = [i]
        j = perm[i]
        while j != i:
            where[j] = k
            pos[j] = len(cyc)
            cyc.append(j)
            j = perm[j]
        cycles.append(cyc)
    return cycles, where, pos


def _along(index: tuple, cell: int, k: int) -> int:
    """The cell k places further along its cycle of an index (any k)."""
    cycles, where, pos = index
    cyc = cycles[where[cell]]
    return cyc[(pos[cell] + k) % len(cyc)]


@dataclass(frozen=True)
class MarkedPoint:
    label: str
    cell: int
    x: Fraction
    y: Fraction

    @property
    def is_integer(self) -> bool:
        return self.x == 0 and self.y == 0


class Origami:
    """Connected square-tiled surface with optional marked points."""

    __slots__ = ("n", "h", "v", "h_inv", "v_inv", "marked")

    def __init__(self, h, v, marked=()):
        h = tuple(h)
        v = tuple(v)
        n = len(h)
        if n == 0 or len(v) != n or sorted(h) != list(range(n)) \
                or sorted(v) != list(range(n)):
            raise DomainError("sigma_h and sigma_v must be permutations of the same cells")
        self.n = n
        self.h = h
        self.v = v
        self.h_inv = _invert(h)
        self.v_inv = _invert(v)
        self.marked = self._checked_points(marked)
        if not self._connected():
            raise DomainError("the cell permutations do not act transitively")

    def _checked_points(self, points) -> tuple:
        """Marked points inside the tiling, lattice corners re-expressed."""
        points = tuple(points)
        for mp in points:
            if not (0 <= mp.cell < self.n and 0 <= mp.x < 1 and 0 <= mp.y < 1):
                raise DomainError(f"marked point {mp} outside the tiling")
        if not any(mp.is_integer for mp in points):
            return points
        # a lattice corner is shared by every cell around its vertex;
        # store the smallest cell of the class so equality is decidable
        classes, where, _ = _cycles(self.vertex_rotation())
        return tuple(MarkedPoint(mp.label, classes[where[mp.cell]][0], mp.x, mp.y)
                     if mp.is_integer else mp for mp in points)

    def _discovery(self, root: int) -> list:
        """The cells reachable from root in breadth-first order, following
        right, up, then the inverses."""
        h, v, h_inv, v_inv = self.h, self.v, self.h_inv, self.v_inv
        seen = [False] * self.n
        seen[root] = True
        order = [root]
        for i in order:
            for j in (h[i], v[i], h_inv[i], v_inv[i]):
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
        return order

    def _connected(self) -> bool:
        return len(self._discovery(0)) == self.n

    def __eq__(self, other):
        return (isinstance(other, Origami) and self.h == other.h
                and self.v == other.v and self.marked == other.marked)

    def __hash__(self):
        return hash((self.h, self.v, self.marked))

    def __repr__(self):
        return f"Origami(n={self.n}, h={self.h}, v={self.v})"

    def marked_by_label(self) -> dict:
        return {mp.label: mp for mp in self.marked}

    # -- vertices and stratum ------------------------------------------

    def vertex_rotation(self) -> tuple:
        """Map sending cell i to the next cell around its bottom-left vertex."""
        return tuple(self.v[self.h[self.v_inv[self.h_inv[i]]]]
                     for i in range(self.n))

    def vertex_classes(self) -> list:
        """Cells grouped by the vertex at their bottom-left corner, each
        class starting at its smallest cell."""
        return _cycles(self.vertex_rotation())[0]

    def vertex_class_index(self) -> tuple:
        return tuple(_cycles(self.vertex_rotation())[1])

    def vertex_rep(self, cell: int) -> int:
        """The smallest cell of the vertex class of ``cell``."""
        classes, where, _ = _cycles(self.vertex_rotation())
        return classes[where[cell]][0]

    def stratum_signature(self) -> tuple:
        """Sorted cone orders: a vertex with k cells around it has angle
        2*pi*k; only k >= 2 contributes (order k - 1)."""
        return tuple(sorted(len(c) - 1 for c in self.vertex_classes() if len(c) > 1))

    def cone_angles(self) -> tuple:
        """Cone angles of the singularities, in multiples of pi."""
        return tuple(sorted(2 * (o + 1) for o in self.stratum_signature()))

    def is_h2(self) -> bool:
        return self.stratum_signature() == (2,)

    # -- canonical labeling --------------------------------------------

    def canonical_form(self) -> tuple:
        """Lexicographically minimal (sigma_h, sigma_v) over the relabelings
        rooted at a cell of a largest vertex class.

        A relabeling carries vertex classes to vertex classes of the same
        size, so the cells of the largest ones form a set every relabeling
        preserves (the three cells around the cone point on H(2)), and two
        equivalent surfaces get the same minimum.  The relabeling from a
        root is found by breadth-first discovery, following right then up
        then the inverses, which reaches every cell of a transitive pair.
        """
        classes = self.vertex_classes()
        top = max(map(len, classes))
        best = None
        for base in (c for cyc in classes if len(cyc) == top for c in cyc):
            order = self._discovery(base)
            pos = [0] * self.n
            for k, c in enumerate(order):
                pos[c] = k
            hh = tuple(pos[self.h[c]] for c in order)
            vv = tuple(pos[self.v[c]] for c in order)
            if best is None or (hh, vv) < best:
                best = (hh, vv)
        return best

    def equivalent(self, other: "Origami") -> bool:
        return self.canonical_form() == other.canonical_form()

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        lines = [str(self.n)]
        for i in range(self.n):
            lines.append(f"{self.h[i]} {self.v[i]}")
        for mp in self.marked:
            lines.append(f"{mp.label} {mp.cell} "
                         f"{mp.x.numerator}/{mp.x.denominator} "
                         f"{mp.y.numerator}/{mp.y.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "Origami":
        rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
        try:
            n = int(rows[0])
            if len(rows) < 1 + n:
                raise DomainError("fewer cell lines than the declared count")
            h, v = [], []
            for ln in rows[1:1 + n]:
                hi, vi = ln.split()
                h.append(int(hi))
                v.append(int(vi))
            marked = []
            for ln in rows[1 + n:]:
                label, cell, xs, ys = ln.split()
                marked.append(MarkedPoint(label, int(cell),
                                          Fraction(xs), Fraction(ys)))
        except (IndexError, ValueError) as exc:
            raise DomainError(f"malformed origami text: {exc}") from exc
        return Origami(h, v, marked)


def _propagate(origami: Origami, target_h: tuple, target_v: tuple,
               root: int, img: int):
    """The cell bijection psi with psi[root] = img and
    psi[h[i]] = target_h[psi[i]], psi[v[i]] = target_v[psi[i]], or None.

    Transitivity makes the propagation from one cell total; None means the
    two rules conflict somewhere or the result is not injective.
    """
    n, h, v = origami.n, origami.h, origami.v
    psi = [-1] * n
    psi[root] = img
    stack = [root]
    while stack:
        i = stack.pop()
        j = psi[i]
        for nbr, im in ((h[i], target_h[j]), (v[i], target_v[j])):
            if psi[nbr] < 0:
                psi[nbr] = im
                stack.append(nbr)
            elif psi[nbr] != im:
                return None
    if len(set(psi)) != n:
        return None
    return tuple(psi)


def isomorphisms(source: Origami, target: Origami) -> list:
    """Cell bijections carrying one gluing pair onto the other.

    A candidate is determined by the image of cell 0 and propagates along
    both permutations.
    """
    if source.n != target.n:
        return []
    out = []
    for img0 in range(source.n):
        psi = _propagate(source, target.h, target.v, 0, img0)
        if psi is not None:
            out.append(psi)
    return out


# -- construction of the quotient surface ------------------------------


def scaled_weierstrass_coords(params: Params) -> dict:
    """Absolute coordinates of the six involution-fixed points on the
    stretched L-polygon.

    The singular point sits at the lattice corners; the three block
    centers and the two outer edge midpoints make up the rest.
    """
    q, s, p, r = params.q, params.s, params.p, params.r
    return {
        "D": (Fraction(0), Fraction(0)),
        "E": (q - Fraction(p, 2), Fraction(0)),
        "F": (Fraction(q - p), s - Fraction(r, 2)),
        "A": (Fraction(q - p, 2), Fraction(s - r, 2)),
        "B": (q - Fraction(p, 2), Fraction(s - r, 2)),
        "C": (Fraction(q - p, 2), s - Fraction(r, 2)),
    }


@dataclass(frozen=True)
class WeierstrassSet:
    """The six labeled fixed points of the hyperelliptic involution, with
    exact coordinates on the stretched L-polygon."""

    coords: tuple  # ((label, (X, Y)), ...) in scaled units
    integer_count: int

    def coord(self, label: str):
        for lab, xy in self.coords:
            if lab == label:
                return xy
        raise KeyError(label)

    def integer_labels(self) -> tuple:
        return tuple(lab for lab, (x, y) in self.coords
                     if x.denominator == 1 and y.denominator == 1)


def _l_shape_position(params: Params, cell: int) -> tuple:
    """(col, row) of a cell of the L-polygon, indexed row-major from the
    bottom row: q cells in each row below the block, q - p above it."""
    q, s, p, r = params.q, params.s, params.p, params.r
    low = q * (s - r)  # cells in the full-width rows below the block
    if cell < low:
        return cell % q, cell // q
    row, col = divmod(cell - low, q - p)
    return col, s - r + row


def _l_shape_cell(params: Params, col: int, row: int) -> int:
    """Inverse of _l_shape_position."""
    q, s, p, r = params.q, params.s, params.p, params.r
    if row < s - r:
        return row * q + col
    return q * (s - r) + (row - (s - r)) * (q - p) + col


def _place_on_l(params: Params, X: Fraction, Y: Fraction):
    """Canonical (cell, in-cell offset) of an absolute L-polygon point."""
    q, s, p, r = params.q, params.s, params.p, params.r
    row = int(Y)
    if row == s and Y == s:
        row, Y = 0, Fraction(0)
    width = q if row < s - r else q - p
    X = X % width
    col = int(X)
    return _l_shape_cell(params, col, row), X - col, Y - row


def locate_weierstrass(params: Params) -> WeierstrassSet:
    coords = scaled_weierstrass_coords(params)
    integer = sum(1 for x, y in coords.values()
                  if x.denominator == 1 and y.denominator == 1)
    return WeierstrassSet(tuple(sorted(coords.items())), integer)


@lru_cache(maxsize=None)
def build_origami(params: Params) -> Origami:
    """The stretched quotient surface as an origami with the six special
    points marked.

    Rows wrap within their row width and columns within their column
    height; the result is checked to be connected, to lie in the
    single-cone-point genus-2 stratum, and to carry its marked points
    exactly at the fixed points of the hyperelliptic involution.
    """
    q, s, p, r = params.q, params.s, params.p, params.r
    n = params.n_cells
    h = [0] * n
    v = [0] * n
    for idx in range(n):
        col, row = _l_shape_position(params, idx)
        width = q if row < s - r else q - p
        h[idx] = _l_shape_cell(params, (col + 1) % width, row)
        height = s if col < q - p else s - r
        v[idx] = _l_shape_cell(params, col, (row + 1) % height)
    marked = []
    for label, (X, Y) in sorted(scaled_weierstrass_coords(params).items()):
        cell, x, y = _place_on_l(params, X, Y)
        marked.append(MarkedPoint(label, cell, x, y))
    origami = Origami(h, v, marked)
    if not origami.is_h2():
        raise AssertionError("quotient surface left the expected stratum")
    _verify_marked_against_involution(origami)
    return origami


# -- hyperelliptic involution ------------------------------------------


def hyperelliptic_involution(origami: Origami) -> tuple:
    """Cell permutation of the affine involution with derivative -id.

    It must conjugate both gluing permutations to their inverses, square
    to the identity, and fix exactly six surface points.  For the
    primitive surfaces handled here it is unique; anything else (tori,
    other strata, surfaces with extra symmetry) raises DomainError.

    A candidate is fixed by the image of one cell, and the search roots
    at a cell of a largest vertex class.  A map with derivative -id sends
    cone points to cone points of the same angle, and a cell's
    bottom-left corner to its image's top-right corner, so only the cells
    whose top-right vertex class has the root's size can be the root's
    image.  On the single-cone-point stratum those are the three cells
    around the cone point, which makes the search linear in the cells.
    """
    n, h, v = origami.n, origami.h, origami.v
    classes, where, _ = _cycles(origami.vertex_rotation())
    class_size = [len(classes[k]) for k in where]
    root = max(range(n), key=class_size.__getitem__)
    sols = []
    for img in range(n):
        if class_size[v[h[img]]] != class_size[root]:
            continue
        iota = _propagate(origami, origami.h_inv, origami.v_inv, root, img)
        if iota is None or any(iota[iota[i]] != i for i in range(n)):
            continue
        if len(involution_fixed_points(origami, iota)) == 6:
            sols.append(iota)
    if len(sols) != 1:
        raise DomainError(f"expected a unique involution, found {len(sols)}")
    return sols[0]


def involution_fixed_points(origami: Origami, iota: tuple) -> list:
    """Fixed surface points of the involution's point map.

    Entries are ('center', cell), ('hmid', cell), ('vmid', cell) for cell
    centers and edge midpoints, and ('vertex', class_index) for fixed
    lattice vertices (the cone point always among them).
    """
    h, v = origami.h, origami.v
    classes, cls, _ = _cycles(origami.vertex_rotation())
    out = []
    for i in range(origami.n):
        if iota[i] == i:
            out.append(("center", i))
        if v[iota[i]] == i:
            out.append(("hmid", i))
        if h[iota[i]] == i:
            out.append(("vmid", i))
    for k, cyc in enumerate(classes):
        # the cone point is always fixed
        if len(cyc) > 1 or cls[v[h[iota[cyc[0]]]]] == k:
            out.append(("vertex", k))
    return out


def _marked_point_kind(mp: MarkedPoint, vertex_class: tuple):
    half = Fraction(1, 2)
    if (mp.x, mp.y) == (half, half):
        return ("center", mp.cell)
    if (mp.x, mp.y) == (half, Fraction(0)):
        return ("hmid", mp.cell)
    if (mp.x, mp.y) == (Fraction(0), half):
        return ("vmid", mp.cell)
    if (mp.x, mp.y) == (Fraction(0), Fraction(0)):
        return ("vertex", vertex_class[mp.cell])
    return None


def _verify_marked_against_involution(origami: Origami) -> None:
    iota = hyperelliptic_involution(origami)
    fixed = set(involution_fixed_points(origami, iota))
    cls = origami.vertex_class_index()
    got = set()
    for mp in origami.marked:
        kind = _marked_point_kind(mp, cls)
        if kind is None:
            raise AssertionError(f"marked point {mp} is not a 2-torsion position")
        got.add(kind)
    if got != fixed:
        raise AssertionError("marked points disagree with the involution's fixed points")


class OrbitClass(enum.Enum):
    ORBIT_A = "OrbitA"
    ORBIT_B = "OrbitB"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class OrbitInvariant:
    kind: OrbitClass
    integer_count: int


def integer_weierstrass_count(origami: Origami) -> int:
    """Number of involution-fixed points sitting at tiling corners."""
    iota = hyperelliptic_involution(origami)
    return sum(1 for kind in involution_fixed_points(origami, iota)
               if kind[0] == "vertex")


def orbit_invariant(origami: Origami) -> OrbitInvariant:
    """Integer-count invariant separating the two families of odd
    square-tiled surfaces with a single 6-pi cone point.

    The count is computed from the involution itself, so it does not rely
    on transported markings.  With fewer than 5 cells (or an even count)
    the two-family classification does not apply and only the raw count is
    reported.
    """
    if not origami.is_h2():
        raise DomainError("orbit invariant is defined on the genus-2 "
                          "single-cone-point stratum only")
    count = integer_weierstrass_count(origami)
    if origami.n < 5 or origami.n % 2 == 0:
        return OrbitInvariant(OrbitClass.NOT_APPLICABLE, count)
    if count == 1:
        return OrbitInvariant(OrbitClass.ORBIT_A, count)
    if count == 3:
        return OrbitInvariant(OrbitClass.ORBIT_B, count)
    raise AssertionError(f"unexpected integer point count {count}")


# -- integer linear action ---------------------------------------------
#
# Words are either strings over T, S (lowercase for inverses) or tuples of
# (generator, power) tokens; shear powers apply in O(n) via cycle
# rotation, so Euclidean reduction words with huge partial quotients stay
# cheap.


def as_tokens(word) -> tuple:
    if isinstance(word, tuple):
        return word
    tokens = []
    for ch in word:
        if ch == "T":
            gen, k = "T", 1
        elif ch == "t":
            gen, k = "T", -1
        elif ch == "S":
            gen, k = "S", 1
        elif ch == "s":
            gen, k = "S", -1
        else:
            raise DomainError(f"unknown generator {ch!r}")
        if tokens and tokens[-1][0] == gen:
            tokens[-1] = (gen, tokens[-1][1] + k)
        else:
            tokens.append((gen, k))
    return tuple((g, k) for g, k in tokens if k != 0)


def format_word(word) -> str:
    parts = []
    for gen, k in as_tokens(word):
        parts.append(gen if k == 1 else f"{gen}^{k}")
    return " ".join(parts) if parts else "1"


def inverse_word(word) -> tuple:
    return tuple((g, -k) for g, k in reversed(as_tokens(word)))


def _shear(h: tuple, v: tuple, marked: list, k: int):
    """T^k on raw gluings: rows keep their order; the cell above i becomes
    the cell above the k-th left neighbor."""
    index = _cycles(h)
    new_v = [0] * len(v)
    for row in index[0]:
        s = -k % len(row)
        for c, d in zip(row, row[s:] + row[:s]):
            new_v[c] = v[d]
    out = []
    for label, cell, x, y in marked:
        x = x + k * y
        shift = x.numerator // x.denominator  # floor
        out.append((label, _along(index, cell, shift), x - shift, y))
    return h, tuple(new_v), out


def _quarter_turn(h: tuple, v: tuple, marked: list):
    """S on raw gluings: (h, v) becomes (v^-1, h), so the new right neighbor
    is the old cell below.  A point whose turned in-cell x reaches 1 moves
    on to the next cell."""
    new_h = _invert(v)
    zero = Fraction(0)
    out = []
    for label, cell, x, y in marked:
        x, y = 1 - y, x
        if x == 1:
            x, cell = zero, new_h[cell]
        out.append((label, cell, x, y))
    return new_h, h, out


def _act(origami: Origami, tokens: tuple):
    """The raw (h, v, marked, stages) that tokens step origami to.

    marked holds (label, cell, x, y) tuples, lattice corners left in the
    cell they arrive in.  A stage is (k, perm): a shear T^k with the right
    gluing it keeps, or, with k None, one quarter turn with the inverse of
    the right gluing it makes (the vertical gluing before the turn).  The
    stages hold references to tuples the stepping computes anyway.
    """
    h, v = origami.h, origami.v
    marked = [(mp.label, mp.cell, mp.x, mp.y) for mp in origami.marked]
    stages = []
    for gen, k in tokens:
        if gen == "T":
            stages.append((k, h))
            h, v, marked = _shear(h, v, marked, k)
        else:
            for _ in range(k % 4):  # the quarter turn has order four
                stages.append((None, v))
                h, v, marked = _quarter_turn(h, v, marked)
    return h, v, marked, tuple(stages)


def sl2z_act(origami: Origami, word) -> Origami:
    """Apply a word over the shear T and quarter-turn S, left to right.

    Accepts either a string (lowercase letters are inverse generators) or
    a tuple of (generator, power) tokens.  Cell count, stratum and the
    integer point count are preserved; marked points are transported and
    re-expressed in the new tiling.

    The raw gluings and marked points step through the tokens and one
    checked Origami is built at the end, which also re-expresses marked
    lattice corners by the smallest cell of their vertex class.  Skipping
    that step in between changes nothing: every cell around a vertex
    carries the same surface point through T and S.
    """
    h, v, marked, _ = _act(origami, as_tokens(word))
    return Origami(h, v, [MarkedPoint(*mp) for mp in marked])


def word_matrix(word) -> tuple:
    """2x2 integer matrix of a generator word (as ((a, b), (c, d)))."""
    a, b, c, d = 1, 0, 0, 1
    for gen, k in as_tokens(word):
        if gen == "T":
            e, f, g2, k2 = 1, k, 0, 1
        elif k % 4 == 1:
            e, f, g2, k2 = 0, -1, 1, 0
        elif k % 4 == 2:
            e, f, g2, k2 = -1, 0, 0, -1
        elif k % 4 == 3:
            e, f, g2, k2 = 0, 1, -1, 0
        else:
            continue
        a, b, c, d = e * a + f * c, e * b + f * d, g2 * a + k2 * c, g2 * b + k2 * d
    return ((a, b), (c, d))


def direction_to_horizontal_word(slope: Slope) -> tuple:
    """Generator word whose matrix sends the direction (v, u) to (+-1, 0).

    Euclidean algorithm: shear powers reduce the run modulo the rise, the
    quarter turn swaps them.  Reduced integer input cannot tie at a
    half-integer, so no tie-breaking is needed.
    """
    x, y = slope.v, slope.u
    word = []
    guard = 0
    while y != 0:
        guard += 1
        if guard > 10000:
            raise AssertionError("direction reduction did not terminate")
        if x == 0 or abs(x) < abs(y):
            word.append(("S", 1))
            x, y = -y, x
        else:
            k = x // y if (x % y == 0 or (x > 0) == (y > 0)) else x // y + 1
            word.append(("T", -k))
            x -= k * y
    return tuple(word)


# -- cylinder decompositions -------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    circumference: int
    height: int
    cells: frozenset
    waist_marked_points: tuple

    @property
    def modulus(self) -> Fraction:
        return Fraction(self.height, self.circumference)


@dataclass(frozen=True)
class CylinderDecomposition:
    direction: Slope
    cylinders: tuple
    word: tuple               # renormalizing generator word, as tokens
    cell_levels: tuple        # per renormalized cell: (cylinder index, row from bottom)
    # the elementary stages of the word, as recorded by _act
    stages: tuple = field(compare=False, repr=False)

    @property
    def n_cylinders(self) -> int:
        return len(self.cylinders)

    def pull_back(self, points) -> list:
        """Carry points (cell, x, y) of the renormalized surface back to the
        decomposed one, through the recorded stages in reverse order.

        A shear T^k moves x back by k*y and the cell along its row by the
        whole cells crossed; a quarter turn maps (x, y) to (y, 1 - x), and
        a point on a cell's left edge (x = 0) lands on the bottom edge of
        the cell to its left.  The result equals the points marked on
        sl2z_act(origami, word) and carried by inverse_word(word), except
        at lattice corners, which are left in the cell they arrive in.
        """
        out = [(cell, Fraction(x), Fraction(y)) for cell, x, y in points]
        for k, perm in reversed(self.stages):
            if k is None:
                out = [(perm[cell], y, Fraction(0)) if x == 0
                       else (cell, y, 1 - x) for cell, x, y in out]
                continue
            # only the rows the points are on: a full index costs O(n)
            # per stage
            index = _cycles(perm, [cell for cell, _, _ in out])
            moved = []
            for cell, x, y in out:
                x -= k * y
                shift = x.numerator // x.denominator  # floor
                moved.append((_along(index, cell, shift), x - shift, y))
            out = moved
        return out

    def total_area(self) -> int:
        return sum(c.circumference * c.height for c in self.cylinders)


def _horizontal_cylinders(h: tuple, v: tuple):
    """Group the rows (right-neighbor cycles) of the gluings h, v into
    horizontal cylinders.

    A row continues into the row above when v[h[c]] == h[v[c]] for each of
    its cells c: every vertex on its top edge is regular, and then the
    up-gluing maps it onto a single row.  A wrap back to the starting row
    (possible only without singularities, e.g. on torus covers) closes
    the stack.
    """
    rows, row_id, _ = _cycles(h)
    up = [row_id[v[cyc[0]]] if all(v[h[c]] == h[v[c]] for c in cyc) else None
          for cyc in rows]
    down = {}
    for src, tgt in enumerate(up):
        if tgt is not None:
            down[tgt] = src

    assigned = [False] * len(rows)
    stacks = []
    for start in range(len(rows)):
        if assigned[start]:
            continue
        # walk down to the bottom row; a revisit means the stack wraps
        bottom = start
        walked = {start}
        while bottom in down and down[bottom] not in walked:
            bottom = down[bottom]
            walked.add(bottom)
        chain = [bottom]
        assigned[bottom] = True
        nxt = up[bottom]
        while nxt is not None and not assigned[nxt]:
            chain.append(nxt)
            assigned[nxt] = True
            nxt = up[nxt]
        stacks.append(chain)
    return rows, stacks


def decompose_direction(origami: Origami, slope: Slope) -> CylinderDecomposition:
    """Cylinder decomposition in a rational direction of the origami frame.

    The direction is renormalized to horizontal by a generator word; the
    cylinders are read off as stacked rows of the stepped gluings, and the
    transported marked points are tested against each cylinder's central
    closed leaf (height exactly half the cylinder height from its bottom
    boundary).  The renormalized surface, sl2z_act(origami, word), is not
    built.  It would move marked lattice corners to another cell of their
    vertex class, which changes no waist: a regular vertex has one cell,
    and every cell at a cone point sits at level 0 (a row with a singular
    vertex on its top edge never links upward).
    """
    word = direction_to_horizontal_word(slope)
    h, v, marked, stages = _act(origami, word)
    rows, stacks = _horizontal_cylinders(h, v)
    # deterministic order: by smallest cell in the stack (a row starts
    # at its smallest cell)
    keyed = sorted(stacks, key=lambda ch: min(rows[r][0] for r in ch))
    cell_levels = [None] * len(h)
    for ci, chain in enumerate(keyed):
        for level, ridx in enumerate(chain):
            for c in rows[ridx]:
                cell_levels[c] = (ci, level)
    waists = [[] for _ in keyed]
    for label, cell, _, y in marked:
        ci, level = cell_levels[cell]
        if 2 * (level + y) == len(keyed[ci]):
            waists[ci].append(label)
    cylinders = tuple(
        Cylinder(len(rows[chain[0]]), len(chain),
                 frozenset(c for ridx in chain for c in rows[ridx]),
                 tuple(sorted(labels)))
        for chain, labels in zip(keyed, waists))
    decomp = CylinderDecomposition(slope, cylinders, word,
                                   tuple(cell_levels), stages)
    if decomp.total_area() != origami.n:
        raise AssertionError("cylinder areas do not sum to the surface area")
    return decomp


def table_to_scaled_slope(params: Params, slope: Slope) -> Slope:
    """Convert a table-frame slope to the stretched-tiling frame."""
    nu, de = slope.u * params.s, slope.v * params.q
    g = gcd(nu, de)
    return Slope(nu // g, de // g)


def scaled_direction_gcd(params: Params, slope: Slope) -> int:
    """gcd(q*v, s*u): one stretched primitive vector equals 1/g of them
    per table primitive vector."""
    return gcd(slope.u * params.s, slope.v * params.q)


@lru_cache(maxsize=4)
def decompose_table_direction(params: Params, table_slope: Slope) -> CylinderDecomposition:
    """Decomposition of a table-frame direction on the quotient surface.

    A query asks for the same (params, slope) several times in a row
    (goodness, lifting, the strip check); a few cached entries serve them
    without holding many large surfaces alive.
    """
    return decompose_direction(build_origami(params),
                               table_to_scaled_slope(params, table_slope))


def is_good_one_cylinder(params: Params, table_slope: Slope) -> bool:
    """One cylinder, with both outer-edge midpoints E and F on its waist."""
    decomp = decompose_table_direction(params, table_slope)
    if len(decomp.cylinders) != 1:
        return False
    waist = decomp.cylinders[0].waist_marked_points
    return "E" in waist and "F" in waist


def enumerate_good_directions(params: Params, denominator_limit: int) -> list:
    """Table-frame slopes (u, v <= limit) whose decomposition is a single
    cylinder with E and F on the waist."""
    from .exact import mediant_enumerate
    return [sl for sl in mediant_enumerate(denominator_limit)
            if is_good_one_cylinder(params, sl)]


def ceil_sqrt2_times(d: int) -> int:
    """ceil(d * sqrt(2)) by integer arithmetic."""
    root = isqrt(2 * d * d)
    return root if root * root == 2 * d * d else root + 1


def cylinder_bounds_constant(origami: Origami, slope_limit: int) -> Fraction:
    """Empirical waist/height constant over slopes p/q in (0,1], q <= limit.

    For each direction the ratios are taken in combinatorial units: the
    waist crosses circumference * q cells horizontally, so circumference/q
    means the renormalized circumference itself, and the height ratio is
    1/(height * q).  The result may not exceed ceil(n * sqrt(2)).
    """
    if slope_limit < 1:
        raise DomainError("slope_limit must be >= 1")
    best = Fraction(0)
    for v in range(1, slope_limit + 1):
        for u in range(1, v + 1):
            if gcd(u, v) != 1:
                continue
            decomp = decompose_direction(origami, Slope(u, v))
            for cyl in decomp.cylinders:
                best = max(best, Fraction(cyl.circumference),
                           Fraction(1, cyl.height * v))
    if best > ceil_sqrt2_times(origami.n):
        raise AssertionError("cylinder bound constant exceeded the proven cap")
    return best


# -- exact straight-line flow on the polygon ---------------------------


def flow_first_hit(origami: Origami, start: tuple, direction: tuple,
                   target: tuple, max_segments: int = 100000):
    """Length (in primitive direction vectors) at which the straight flow
    from ``start`` first reaches ``target``, or None.

    ``start`` and ``target`` are (cell, x, y) with in-cell coordinates;
    the direction (V, U) must have positive components.  Reaching the cone
    point stops the flow.
    """
    V, U = direction
    if V <= 0 or U <= 0:
        raise DomainError("flow direction must have positive components")
    h, v = origami.h, origami.v

    def regular_ne(c):
        return v[h[c]] == h[v[c]]

    cell, x, y = start
    tcell, tx, ty = target
    lam = Fraction(0)
    for _ in range(max_segments):
        # target on the forward segment inside `cell`?  (canonical in-cell
        # coordinates are < 1, so collinear ahead-of-us means this segment)
        if cell == tcell and tx >= x and (tx - x) * U == (ty - y) * V:
            return lam + Fraction(tx - x, V)
        t_right = Fraction(1 - x, V)
        t_top = Fraction(1 - y, U)
        if t_right < t_top:
            lam += t_right
            cell, x, y = h[cell], Fraction(0), y + t_right * U
        elif t_top < t_right:
            lam += t_top
            cell, x, y = v[cell], x + t_top * V, Fraction(0)
        else:
            if not regular_ne(cell):
                return None  # ran into the cone point
            lam += t_right
            cell, x, y = v[h[cell]], Fraction(0), Fraction(0)
    return None
