"""Exact arithmetic substrate: rationals, planar points, slopes, and the
parity classification of obstacle dimensions.

Everything in this module is an immutable value with decidable equality.
`Rational` is an alias for the standard-library `fractions.Fraction`, which
already guarantees canonical (reduced, positive-denominator) form and exact
arithmetic with arbitrary-precision integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DomainError, check_count

Rational = Fraction

# Orientation sign classes for a direction (sign of dx, sign of dy).
ORIENTATIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class PointQ:
    """Exact planar point in table units."""

    x: Rational
    y: Rational

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Slope:
    """Unsigned reduced slope u/v.

    ``u`` is the rise and ``v`` the run, both non-negative with gcd 1 and
    not both zero; the magnitude of the slope is conserved by reflections
    in the obstacle sides, so it carries no orientation: the pair of signs
    of (dx, dy) belongs to a billiard state.  Horizontal is (u, v) =
    (0, 1), vertical is (1, 0).
    """

    u: int
    v: int

    def __post_init__(self):
        if self.u < 0 or self.v < 0 or (self.u == 0 and self.v == 0):
            raise DomainError(f"invalid slope {self.u}/{self.v}")
        if gcd(self.u, self.v) != 1:
            raise DomainError(f"slope {self.u}/{self.v} is not reduced")

    @property
    def is_horizontal(self) -> bool:
        return self.u == 0

    @property
    def is_vertical(self) -> bool:
        return self.v == 0

    @property
    def is_axis(self) -> bool:
        return self.u == 0 or self.v == 0

    def value(self) -> Rational:
        if self.v == 0:
            raise DomainError("vertical slope has no finite value")
        return Fraction(self.u, self.v)

    def direction(self, orientation: tuple) -> tuple:
        """Direction vector (dx, dy) for the given sign class."""
        sx, sy = orientation
        return (sx * self.v, sy * self.u)

    def __str__(self):
        return f"{self.u}/{self.v}"

    @staticmethod
    def parse(text: str) -> "Slope":
        """Parse 'u/v' (or a bare integer 'u' meaning u/1)."""
        text = text.strip()
        try:
            if "/" in text:
                us, vs = text.split("/")
                u, v = int(us), int(vs)
            else:
                u, v = int(text), 1
        except ValueError as exc:
            raise DomainError(f"cannot parse slope {text!r} "
                              "(expected u/v)") from exc
        if u < 0 or v < 0:
            raise DomainError(f"slope must be non-negative: {text!r}")
        g = gcd(u, v)
        if g == 0:
            raise DomainError("slope 0/0 is meaningless")
        return Slope(u // g, v // g)


class ParityClass(enum.Enum):
    """Parity pattern of the reduced obstacle dimensions (p/q, r/s)."""

    E = "E"               # p, r odd and q, s even
    E_PRIME = "E_PRIME"   # p, r even and q, s odd
    OTHER = "OTHER"


@dataclass(frozen=True)
class Params:
    """Reduced obstacle dimensions a = p/q, b = r/s in (0, 1).

    Built only valid: gcd(p, q) = gcd(r, s) = 1, 0 < p < q and 0 < r < s,
    else DomainError.  The parity class and a, b are derived once, here;
    equality and hashing read p, q, r, s only.
    """

    p: int
    q: int
    r: int
    s: int
    parity_class: ParityClass = field(init=False, compare=False)
    a: Rational = field(init=False, compare=False, repr=False)
    b: Rational = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, q, r, s = self.p, self.q, self.r, self.s
        for num, den, name in ((p, q, "a"), (r, s, "b")):
            if not (0 < num < den):
                raise DomainError(f"dimension {name} = {num}/{den} outside (0,1)")
            if gcd(num, den) != 1:
                raise DomainError(f"dimension {name} = {num}/{den} not reduced")
        if p % 2 == 1 and r % 2 == 1 and q % 2 == 0 and s % 2 == 0:
            cls = ParityClass.E
        elif p % 2 == 0 and r % 2 == 0 and q % 2 == 1 and s % 2 == 1:
            cls = ParityClass.E_PRIME
        else:
            cls = ParityClass.OTHER
        object.__setattr__(self, "parity_class", cls)
        object.__setattr__(self, "a", Fraction(p, q))
        object.__setattr__(self, "b", Fraction(r, s))

    @property
    def n_cells(self) -> int:
        """Number of unit cells of the scaled quotient surface."""
        return self.q * self.s - self.p * self.r

    def __str__(self):
        return f"{self.p}/{self.q},{self.r}/{self.s}"

    @staticmethod
    def parse(text: str) -> "Params":
        """Parse 'p/q,r/s'."""
        try:
            left, right = text.strip().split(",")
            ps, qs = left.split("/")
            rs, ss = right.split("/")
            return Params(int(ps), int(qs), int(rs), int(ss))
        except DomainError:
            raise
        except Exception as exc:
            raise DomainError(f"cannot parse params {text!r}") from exc


classify_params = Params  # validates the dimensions and classifies parity


def fraction_text(x: Fraction) -> str:
    """``x`` as 'num/den', however many digits its terms have."""
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _int_text(n: int) -> str:
    """The decimal text of an integer of any length.  Python converts at
    most sys.get_int_max_str_digits() digits at once (4,300 by default,
    never fewer than 640), so a longer integer is written as two halves."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    low = n.bit_length() * 3 // 20  # about half of n's digits
    high, rest = divmod(n, 10**low)
    return _int_text(high) + _int_text(rest).zfill(low)


def mediant_enumerate(limit: int) -> list:
    """All reduced positive slopes u/v with u <= limit and v <= limit,
    in increasing order, each exactly once.

    Walks the Stern-Brocot tree between 0/1 and 1/0; a subtree can be
    pruned as soon as its mediant exceeds the limit in either coordinate,
    because mediants are component-wise minimal over their subtree.
    """
    check_count("limit", limit)
    out = []
    # In-order traversal with an explicit stack: entries are either
    # ('span', left, right) still to expand, or ('emit', node).
    stack = [("span", (0, 1), (1, 0))]
    while stack:
        kind, *rest = stack.pop()
        if kind == "emit":
            out.append(rest[0])
            continue
        (lu, lv), (ru, rv) = rest
        mu, mv = lu + ru, lv + rv
        if mu > limit or mv > limit:
            continue
        stack.append(("span", (mu, mv), (ru, rv)))
        stack.append(("emit", Slope(mu, mv)))
        stack.append(("span", (lu, lv), (mu, mv)))
    return out
