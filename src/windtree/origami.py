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
from dataclasses import dataclass
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


def _cycles(perm: tuple) -> list:
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        out.append(cyc)
    return out


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

    def with_points(self, extra) -> "Origami":
        """This surface with the points ``extra`` marked after its own.

        Equal to ``Origami(h, v, marked + extra)``; the gluings were checked
        when this surface was built and are shared, only the new points are
        checked.
        """
        out = object.__new__(Origami)
        out.n, out.h, out.v = self.n, self.h, self.v
        out.h_inv, out.v_inv = self.h_inv, self.v_inv
        out.marked = self.marked + self._checked_points(extra)
        return out

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
        rep = {}
        for cyc in self.vertex_classes():
            low = min(cyc)
            for c in cyc:
                rep[c] = low
        return tuple(MarkedPoint(mp.label, rep[mp.cell], mp.x, mp.y)
                     if mp.is_integer else mp for mp in points)

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in (self.h[i], self.v[i], self.h_inv[i], self.v_inv[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n

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
        """Cells grouped by the vertex at their bottom-left corner."""
        return _cycles(self.vertex_rotation())

    def vertex_class_index(self) -> tuple:
        idx = [0] * self.n
        for k, cyc in enumerate(self.vertex_classes()):
            for c in cyc:
                idx[c] = k
        return tuple(idx)

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
            order = [base]
            pos = {base: 0}
            k = 0
            while k < len(order):
                i = order[k]
                k += 1
                for j in (self.h[i], self.v[i], self.h_inv[i], self.v_inv[i]):
                    if j not in pos:
                        pos[j] = len(order)
                        order.append(j)
            hh = tuple(pos[self.h[order[i]]] for i in range(self.n))
            vv = tuple(pos[self.v[order[i]]] for i in range(self.n))
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
    class_size = [0] * n
    for cyc in origami.vertex_classes():
        for c in cyc:
            class_size[c] = len(cyc)
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
    cls = origami.vertex_class_index()
    out = []
    for i in range(origami.n):
        if iota[i] == i:
            out.append(("center", i))
        if v[iota[i]] == i:
            out.append(("hmid", i))
        if h[iota[i]] == i:
            out.append(("vmid", i))
    for k, cyc in enumerate(origami.vertex_classes()):
        j = cyc[0]
        if len(cyc) > 1:
            out.append(("vertex", k))  # the cone point is always fixed
        elif cls[v[h[iota[j]]]] == k:
            out.append(("vertex", k))
    return out


def _marked_point_kind(origami: Origami, mp: MarkedPoint):
    half = Fraction(1, 2)
    if (mp.x, mp.y) == (half, half):
        return ("center", mp.cell)
    if (mp.x, mp.y) == (half, Fraction(0)):
        return ("hmid", mp.cell)
    if (mp.x, mp.y) == (Fraction(0), half):
        return ("vmid", mp.cell)
    if (mp.x, mp.y) == (Fraction(0), Fraction(0)):
        return ("vertex", origami.vertex_class_index()[mp.cell])
    return None


def _verify_marked_against_involution(origami: Origami) -> None:
    iota = hyperelliptic_involution(origami)
    fixed = set(involution_fixed_points(origami, iota))
    got = set()
    for mp in origami.marked:
        kind = _marked_point_kind(origami, mp)
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


def _perm_power(perm: tuple, k: int) -> tuple:
    """perm^k via cycle rotation, any integer k."""
    n = len(perm)
    out = [0] * n
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        ln = len(cyc)
        shift = k % ln
        for idx, c in enumerate(cyc):
            out[c] = cyc[(idx + shift) % ln]
    return tuple(out)


def _shear(h: tuple, v: tuple, marked: list, k: int):
    """T^k on raw gluings: rows keep their order; the cell above i becomes
    the cell above the k-th left neighbor."""
    new_v = tuple(map(v.__getitem__, _perm_power(h, -k)))
    h_fwd = {}
    out = []
    for label, cell, x, y in marked:
        x = x + k * y
        shift = x.numerator // x.denominator  # floor
        out.append((label, _perm_power_cell(h, cell, shift, h_fwd),
                    x - shift, y))
    return h, new_v, out


def _perm_power_cell(perm: tuple, cell: int, k: int, cache: dict) -> int:
    if k == 0:
        return cell
    cyc = cache.get(cell)
    if cyc is None:
        cyc = [cell]
        j = perm[cell]
        while j != cell:
            cyc.append(j)
            j = perm[j]
        for idx, c in enumerate(cyc):
            cache[c] = (cyc, idx)
        cyc = cache[cell]
    cycle, idx = cyc
    return cycle[(idx + k) % len(cycle)]


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
    tokens = as_tokens(word)
    if not tokens:
        return origami
    h, v = origami.h, origami.v
    marked = [(mp.label, mp.cell, mp.x, mp.y) for mp in origami.marked]
    for gen, k in tokens:
        if gen == "T":
            h, v, marked = _shear(h, v, marked, k)
        else:
            for _ in range(k % 4):  # the quarter turn has order four
                h, v, marked = _quarter_turn(h, v, marked)
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
    renormalized: Origami     # horizontal model the cylinders were read from
    cell_levels: tuple        # per renormalized cell: (cylinder index, row from bottom)

    @property
    def n_cylinders(self) -> int:
        return len(self.cylinders)

    def total_area(self) -> int:
        return sum(c.circumference * c.height for c in self.cylinders)


def _horizontal_cylinders(origami: Origami):
    """Group the rows (right-neighbor cycles) into horizontal cylinders.

    A row continues into the row above when the up-gluing maps it onto a
    single row bijectively and every vertex on the interface is regular;
    a wrap back to the starting row (possible only without singularities,
    e.g. on torus covers) closes the stack.
    """
    h, v = origami.h, origami.v
    h_inv, v_inv = origami.h_inv, origami.v_inv
    rows = _cycles(h)
    row_id = [0] * origami.n
    for k, cyc in enumerate(rows):
        for c in cyc:
            row_id[c] = k

    def regular(j):
        return v[h[v_inv[h_inv[j]]]] == j

    up = []
    for cyc in rows:
        imgs = {v[c] for c in cyc}
        tgt = row_id[v[cyc[0]]]
        if (all(row_id[c] == tgt for c in imgs)
                and len(imgs) == len(rows[tgt])
                and all(regular(c) for c in imgs)):
            up.append(tgt)
        else:
            up.append(None)
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

    The direction is renormalized to horizontal by a generator word, the
    horizontal cylinders are read off as stacked rows, and the transported
    marked points are tested against each cylinder's central closed leaf
    (height exactly half the cylinder height from its bottom boundary).
    """
    word = direction_to_horizontal_word(slope)
    ren = sl2z_act(origami, word)
    rows, stacks = _horizontal_cylinders(ren)
    # deterministic order: by smallest cell in the stack
    keyed = sorted(stacks, key=lambda ch: min(min(rows[r]) for r in ch))
    cell_levels = [None] * ren.n
    cylinders = []
    for ci, chain in enumerate(keyed):
        cells = set()
        for level, ridx in enumerate(chain):
            for c in rows[ridx]:
                cells.add(c)
                cell_levels[c] = (ci, level)
        circ = len(rows[chain[0]])
        height = len(chain)
        half = Fraction(height, 2)
        waist = tuple(sorted(
            mp.label for mp in ren.marked
            if cell_levels[mp.cell] is not None
            and cell_levels[mp.cell][0] == ci
            and cell_levels[mp.cell][1] + mp.y == half))
        cylinders.append(Cylinder(circ, height, frozenset(cells), waist))
    decomp = CylinderDecomposition(slope, tuple(cylinders), word, ren,
                                   tuple(cell_levels))
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
