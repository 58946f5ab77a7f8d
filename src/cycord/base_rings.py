"""Exact arithmetic in the three norm-Euclidean base rings Z, Z[i], Z[w].

Elements are stored as integer pairs (a, b) meaning a + b*delta, where delta
is 0 for Z, the imaginary unit i for the Gaussian integers, and the primitive
cube root of unity w = (-1 + sqrt(-3))/2 for the Eisenstein integers.  One
product rule serves all three: delta^2 = t0 + t1*delta, with (t0, t1) in
`BaseRing.delta_square`; it also gives the conjugate and the norm, since
delta + conj(delta) = t1 and delta*conj(delta) = -t0.  All three rings are
principal and carry a multiplicative Euclidean function (the squared complex
modulus), so gcds, modular inverses, and canonical residues mod alpha^s are
all computed exactly with integer arithmetic.

Each residue ring O_F/(m) is one `ResidueTable`, shared through
`residue_table`: its modulus, sorted canonical representatives, `reduce`,
and the lookup tables that let the quotient layers above run on
small-integer indices instead of object arithmetic.  This bottom module
also holds the package's only copies of six generic mechanisms:
`Keyed`, the value equality of every ring, table and spec on its `key`;
`RingElement`, the base of every element class; `power`, the
square-and-multiply; `cofactor_det`, the cofactor determinant;
`radix_encode`/`radix_decode`, the integer codec of residue coordinates;
and `one_hot`, the coordinate tuple of a scalar or basis element.
"""

from __future__ import annotations

import enum
import operator
import re
from functools import lru_cache

from .errors import (
    DivisionByZero,
    IncompatibleAlgebras,
    IncompatibleRings,
    UnsupportedSize,
    VerificationFailed,
)

# Largest residue ring we are willing to materialize as tables.
TABLE_LIMIT = 4096


class RingKind(enum.Enum):
    RATIONAL = "Z"
    GAUSSIAN = "Z[i]"
    EISENSTEIN = "Z[w]"


_DELTA_COMPLEX = {
    RingKind.RATIONAL: 0.0 + 0.0j,
    RingKind.GAUSSIAN: 1.0j,
    RingKind.EISENSTEIN: -0.5 + 0.8660254037844386j,
}

# delta^2 = t0 + t1*delta: the one product rule of all three rings
_DELTA_SQUARE = {
    RingKind.RATIONAL: (0, 0),
    RingKind.GAUSSIAN: (-1, 0),
    RingKind.EISENSTEIN: (-1, -1),  # w^2 = -1 - w
}

_DELTA_NAME = {
    RingKind.RATIONAL: "",
    RingKind.GAUSSIAN: "i",
    RingKind.EISENSTEIN: "w",
}


class Keyed:
    """A ring, table or spec: equal to another of its type with an equal `key`."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self.key == other.key)

    def __hash__(self):
        return hash(self.key)


class BaseRing(Keyed):
    """One of the rings Z, Z[i], Z[w]; a stateless element factory."""

    __slots__ = ("kind", "delta_square")

    def __init__(self, kind: RingKind):
        self.kind = kind
        self.delta_square = _DELTA_SQUARE[kind]

    key = property(operator.attrgetter("kind"))

    def __repr__(self):
        return f"BaseRing({self.kind.value})"

    @property
    def delta_complex(self) -> complex:
        return _DELTA_COMPLEX[self.kind]

    def element(self, a: int, b: int = 0) -> "BaseElement":
        if self.kind is RingKind.RATIONAL and b != 0:
            raise ValueError("rational ring elements have no delta part")
        return BaseElement(self, int(a), int(b))

    @property
    def zero(self) -> "BaseElement":
        return BaseElement(self, 0, 0)

    @property
    def one(self) -> "BaseElement":
        return BaseElement(self, 1, 0)

    def units(self) -> tuple["BaseElement", ...]:
        if self.kind is RingKind.RATIONAL:
            raw = [(1, 0), (-1, 0)]
        elif self.kind is RingKind.GAUSSIAN:
            raw = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        else:
            raw = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        return tuple(BaseElement(self, a, b) for a, b in raw)

    def parse(self, text: str) -> "BaseElement":
        return parse_element(self, text)


RATIONAL = BaseRing(RingKind.RATIONAL)
GAUSSIAN = BaseRing(RingKind.GAUSSIAN)
EISENSTEIN = BaseRing(RingKind.EISENSTEIN)

_BY_NAME = {
    "rational": RATIONAL,
    "Z": RATIONAL,
    "gaussian": GAUSSIAN,
    "Z[i]": GAUSSIAN,
    "eisenstein": EISENSTEIN,
    "Z[w]": EISENSTEIN,
}


def ring_by_name(name: str) -> BaseRing:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown base ring {name!r}") from None


def power(x, e: int, one, mul=operator.mul):
    """x**e by square-and-multiply, for any associative `mul` with identity `one`."""
    if e < 0:
        raise ValueError(f"negative exponent {e} needs an explicit inverse")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def cofactor_det(rows, dot, neg=operator.neg):
    """Determinant of a square matrix over a commutative ring, by cofactor expansion.

    Expands along the first row and skips falsy (zero) pivots.  Each level
    is one sum of products: `dot` takes the (+-pivot, minor determinant)
    pairs and returns their sum (the ring's zero for no pairs), so a ring
    with a fused kernel such as `ExtensionSpec.dot` applies its table once
    per level.  `neg` gives the odd columns' sign and defaults to unary minus.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    pairs = []
    for c in range(n):
        pivot = rows[0][c]
        if not pivot:
            continue
        minor = [[rows[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        pairs.append((neg(pivot) if c % 2 else pivot, cofactor_det(minor, dot, neg)))
    return dot(pairs)


def one_hot(n: int, i: int, value, zero) -> tuple:
    """The length-n tuple holding `value` at position i and `zero` elsewhere."""
    return (zero,) * i + (value,) + (zero,) * (n - 1 - i)


def radix_encode(digits, base: int) -> int:
    """The integer with base-`base` digits `digits`, least significant first."""
    total = 0
    for d in reversed(digits):
        total = total * base + d
    return total


def radix_decode(code: int, base: int, count: int) -> list[int]:
    """The `count` base-`base` digits of `code`, least significant first."""
    digits = []
    for _ in range(count):
        code, d = divmod(code, base)
        digits.append(d)
    return digits


class RingElement:
    """The arithmetic that every element class shares.

    An element keeps its parent in `ring`.  A subclass supplies its
    constructor, `key` (what identifies it within its ring), `__add__`,
    `__neg__` and `__mul__`; subtraction, int and base-ring scalars on the
    left, powers, equality, hashing and the zero test follow from those.
    An operand of another ring raises the class's `error`.  `__bool__`
    reads a key of coordinates that are falsy exactly when zero;
    `residue.CodeElement` supplies all but `_mul` for residue-table codes.
    These methods run in the innermost loops, so rings are compared by
    identity first, and `key` and `is_zero` are properties over C callables.
    """

    __slots__ = ("ring",)
    error = IncompatibleAlgebras

    def _check(self, other) -> None:
        if not isinstance(other, type(self)) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise self.error(f"cannot combine {self!r} with {other!r}")

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, other):
        if isinstance(other, (int, BaseElement)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        return power(self, e, self.ring.one)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and (self.ring is other.ring or self.ring == other.ring)
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __bool__(self):
        return any(self.key)

    is_zero = property(operator.not_)


class BaseElement(RingElement):
    """Immutable element a + b*delta of a base ring."""

    __slots__ = ("a", "b")
    error = IncompatibleRings

    def __init__(self, ring: BaseRing, a: int, b: int):
        self.ring = ring
        self.a = a
        self.b = b

    key = property(operator.attrgetter("a", "b"))

    def __add__(self, other):
        self._check(other)
        return BaseElement(self.ring, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return BaseElement(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return BaseElement(self.ring, self.a * other, self.b * other)
        if not isinstance(other, BaseElement):
            return NotImplemented  # let richer elements handle alpha * x
        self._check(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        t0, t1 = self.ring.delta_square
        bd = b * d
        return BaseElement(self.ring, a * c + t0 * bd, a * d + b * c + t1 * bd)

    def conjugate(self) -> "BaseElement":
        """a + b*conj(delta) = (a + t1*b) - b*delta, as delta + conj(delta) = t1."""
        return BaseElement(self.ring, self.a + self.ring.delta_square[1] * self.b, -self.b)

    def norm(self) -> int:
        """Squared complex modulus a^2 + t1*ab - t0*b^2, as delta*conj(delta) = -t0."""
        a, b = self.a, self.b
        t0, t1 = self.ring.delta_square
        return a * a + t1 * a * b - t0 * b * b

    def ideal_norm(self) -> int:
        """Number of residue classes mod self: |a| for Z, the norm otherwise."""
        if self.ring.kind is RingKind.RATIONAL:
            return abs(self.a)
        return self.norm()

    def is_unit(self) -> bool:
        return self.norm() == 1

    def complex(self) -> complex:
        try:
            return self.a + self.b * self.ring.delta_complex
        except OverflowError:  # the size goes unprinted: it can be any length
            raise UnsupportedSize("a coordinate is beyond the float range") from None

    def __repr__(self):
        return f"<{self} in {self.ring.kind.value}>"

    def __str__(self):
        return format_element(self)


def format_element(x: BaseElement) -> str:
    name = _DELTA_NAME[x.ring.kind]
    if x.b == 0 or not name:
        return str(x.a)
    if x.b == 1:
        bpart = name
    elif x.b == -1:
        bpart = "-" + name
    else:
        bpart = f"{x.b}{name}"
    if x.a == 0:
        return bpart
    sign = "+" if x.b > 0 else ""
    return f"{x.a}{sign}{bpart}"


_ELEMENT_RE = re.compile(
    r"""^\s*
        (?P<first>[+-]?\s*(?:\d+|\d*\s*[iw]))
        \s*(?P<second>[+-]\s*(?:\d+|\d*\s*[iw]))?
        \s*$""",
    re.VERBOSE,
)


def parse_element(ring: BaseRing, text: str) -> BaseElement:
    """Parse strings like '2', '-1+i', '3-2w' into a base ring element;
    anything else, a non-string included, raises ValueError."""
    match = isinstance(text, str) and _ELEMENT_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse base ring element from {text!r}")
    a = 0
    b = 0
    symbol = _DELTA_NAME[ring.kind]
    for part in (match.group("first"), match.group("second")):
        if part is None:
            continue
        part = part.replace(" ", "")
        if part[-1] in "iw":
            if part[-1] != symbol:
                raise ValueError(f"symbol {part[-1]!r} does not belong to {ring.kind.value}")
            digits = part[:-1]
            if digits in ("", "+"):
                coeff = 1
            elif digits == "-":
                coeff = -1
            else:
                coeff = int(digits)
            b += coeff
        else:
            a += int(part)
    return ring.element(a, b)


def euclidean_divmod(x: BaseElement, m: BaseElement) -> tuple[BaseElement, BaseElement]:
    """Return (q, r) with x = q*m + r and norm(r) < norm(m).

    The quotient is the nearest-integer rounding of x/m coordinatewise; on
    half-integer ties every candidate rounding is tried and the remainder
    with the smallest (a, b) is kept, so the representative is canonical.
    """
    if x.ring != m.ring:
        raise IncompatibleRings("divmod operands come from different rings")
    if m.is_zero:
        raise DivisionByZero("division by zero in base ring")
    ring = x.ring
    num = x * m.conjugate()
    den = m.norm()

    def roundings(p: int) -> tuple[int, ...]:
        q0, rem = divmod(p, den)
        if 2 * rem < den:
            return (q0,)
        if 2 * rem > den:
            return (q0 + 1,)
        return (q0, q0 + 1)

    # candidate remainders x - q*m on int pairs; elements only for the winner
    t0, t1 = ring.delta_square
    xa, xb, ma, mb = x.a, x.b, m.a, m.b
    best = None
    for qa in roundings(num.a):
        for qb in roundings(num.b):  # over Z, num.b = 0 rounds to 0 alone
            bd = qb * mb
            key = (xa - qa * ma - t0 * bd, xb - qa * mb - qb * ma - t1 * bd)
            if best is None or key < best[0]:
                best = (key, qa, qb)
    (ra, rb), qa, qb = best
    q, r = BaseElement(ring, qa, qb), BaseElement(ring, ra, rb)
    if not r.norm() < m.norm():
        raise VerificationFailed(f"{x} mod {m} leaves a remainder {r} of no smaller norm")
    return q, r


def divides(d: BaseElement, x: BaseElement) -> bool:
    if d.is_zero:
        return x.is_zero
    _, r = euclidean_divmod(x, d)
    return r.is_zero


def xgcd(x: BaseElement, y: BaseElement) -> tuple[BaseElement, BaseElement, BaseElement]:
    """Extended gcd: returns (g, s, t) with s*x + t*y = g."""
    ring = x.ring
    r0, r1 = x, y
    s0, s1 = ring.one, ring.zero
    t0, t1 = ring.zero, ring.one
    while not r1.is_zero:
        q, r = euclidean_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def invert_mod(x: BaseElement, m: BaseElement) -> BaseElement:
    """Inverse of x modulo m; raises DivisionByZero when gcd(x, m) is not a unit."""
    g, s, _ = xgcd(x, m)
    if not g.is_unit():
        raise DivisionByZero(f"{x} is not invertible mod {m}")
    for unit in x.ring.units():
        if g * unit == x.ring.one:
            return euclidean_divmod(s * unit, m)[1]
    raise DivisionByZero(f"gcd {g} is not a unit")  # pragma: no cover


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_element(x: BaseElement) -> bool:
    """Exact primality in the base ring via the norm classification."""
    kind = x.ring.kind
    if kind is RingKind.RATIONAL:
        return _is_prime_int(abs(x.a))
    n = x.norm()
    if _is_prime_int(n):
        return True
    # inert rational primes: norm p^2 with x an associate of p
    root = int(round(n ** 0.5))
    while root * root < n:
        root += 1
    if root * root != n or not _is_prime_int(root):
        return False
    p = x.ring.element(root)
    if not (divides(p, x) and divides(x, p)):
        return False
    if kind is RingKind.GAUSSIAN:
        return root % 4 == 3
    return root % 3 == 2


class ResidueTable(Keyed):
    """The finite ring O_F/(m) with canonical euclidean representatives.

    Elements are integers 0..size-1 indexing `reps`, the canonical
    representatives sorted by (a, b); addition and multiplication become
    list lookups, which keeps the quotient layers fast and hashable.  Tables
    compare by value, on (base, modulus).
    """

    __slots__ = ("base", "modulus", "reps", "index", "add", "mul", "neg", "inv",
                 "zero", "one", "char", "size")

    def __init__(self, base: BaseRing, modulus: BaseElement):
        if modulus.ring != base:
            raise IncompatibleRings("modulus does not live in the stated ring")
        if modulus.is_zero:
            raise DivisionByZero("zero modulus")
        self.size = size = modulus.ideal_norm()
        if size > TABLE_LIMIT:
            raise UnsupportedSize(
                f"residue ring of size {size} exceeds the table limit {TABLE_LIMIT}"
            )
        self.base = base
        self.modulus = modulus
        red = self.reduce
        reps = {red(pt) for pt in self._transversal()}
        if len(reps) != size:
            raise VerificationFailed(
                f"transversal reduces to {len(reps)} residues, not {size}")
        self.reps = reps = tuple(sorted(reps, key=lambda e: (e.a, e.b)))
        self.index = idx = {(e.a, e.b): i for i, e in enumerate(reps)}

        def code(e: BaseElement) -> int:
            return idx[(e.a, e.b)]

        self.add = [[code(red(x + y)) for y in reps] for x in reps]
        self.mul = [[code(red(x * y)) for y in reps] for x in reps]
        self.neg = [code(red(-x)) for x in reps]
        self.zero = code(red(base.zero))
        self.one = code(red(base.one))
        self.inv = [row.index(self.one) if self.one in row else None for row in self.mul]
        # additive order of 1
        k, acc = 1, self.one
        while acc != self.zero:
            acc = self.add[acc][self.one]
            k += 1
        self.char = k

    key = property(operator.attrgetter("base", "modulus"))

    def __repr__(self):
        return f"ResidueTable({self.base.kind.value} mod {self.modulus})"

    def reduce(self, x: BaseElement) -> BaseElement:
        _, r = euclidean_divmod(x, self.modulus)
        return r

    def _transversal(self):
        m = self.modulus
        if self.base.kind is RingKind.RATIONAL:
            return [self.base.element(a) for a in range(abs(m.a))]
        # Hermite form of the lattice spanned by m and m*delta gives an exact
        # box transversal {(a, b): 0 <= a < d0, 0 <= b < d1}.
        delta = self.base.element(0, 1)
        c1 = [m.a, m.b]
        c2v = m * delta
        c2 = [c2v.a, c2v.b]
        while c2[1] != 0:
            if c1[1] == 0 or (c2[1] != 0 and abs(c2[1]) < abs(c1[1])):
                c1, c2 = c2, c1
            if c1[1] != 0 and c2[1] != 0:
                q = c2[1] // c1[1]
                c2 = [c2[0] - q * c1[0], c2[1] - q * c1[1]]
        d0 = abs(c2[0])
        d1 = abs(c1[1])
        if d0 * d1 != self.size:
            raise VerificationFailed(f"Hermite box {d0} x {d1} does not have {self.size} points")
        return [
            self.base.element(a, b) for b in range(d1) for a in range(d0)
        ]

    def encode(self, x: BaseElement) -> int:
        """Index of x mod m; a canonical residue is looked up, not divided."""
        if x.ring == self.base:
            i = self.index.get((x.a, x.b))
            if i is not None:
                return i
        r = self.reduce(x)
        return self.index[(r.a, r.b)]

    def decode(self, i: int) -> BaseElement:
        return self.reps[i]


@lru_cache(maxsize=None)
def residue_table(base: BaseRing, modulus: BaseElement) -> ResidueTable:
    """The shared table of O_F/(modulus), so each is built once."""
    return ResidueTable(base, modulus)
