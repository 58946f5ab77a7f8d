"""Exact arithmetic in the three norm-Euclidean base rings Z, Z[i], Z[w].

Elements are stored as integer pairs (a, b) meaning a + b*delta, where delta
is 0 for Z, the imaginary unit i for the Gaussian integers, and the primitive
cube root of unity w = (-1 + sqrt(-3))/2 for the Eisenstein integers.  One
product rule serves all three: delta^2 = t0 + t1*delta, with (t0, t1) in
`BaseRing.delta_square`; it also gives the conjugate and the norm, since
delta + conj(delta) = t1 and delta*conj(delta) = -t0.  All three rings are
principal and carry a multiplicative Euclidean function (the squared complex
modulus), so gcds and canonical residues mod alpha^s are computed exactly
with integer arithmetic.

Each residue ring O_F/(m) is one `ResidueTable`, shared through
`residue_table`: its modulus, sorted canonical representatives, `reduce`, and
the arithmetic on codes (`combine`, `inverse`) that lets the quotient layers
above run on small-integer indices instead of object arithmetic.  A residue
gets its code by floor arithmetic into the Hermite box of (m) and one lookup,
so a table divides once per residue, and `reduce` divides not at all;
`combine` builds each sum and product row on its first read.  This bottom
module also holds the package's only copies of six generic mechanisms:
`Keyed`, the value equality of every ring, table and spec on its `key`;
`RingElement`, the base of every element class; `power`, the
square-and-multiply; `cofactor_det`, the cofactor determinant;
`radix_encode`/`radix_decode`, the integer codec of residue coordinates; and
`one_hot`, the coordinate tuple of a scalar or basis element.
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
    per level.  A minor is fixed by its column set, so each one is expanded
    once per call: n = 4 takes 11 `dot` calls, not 17.  `neg` gives the odd
    columns' sign and defaults to unary minus.
    """
    return _minor_det(rows, tuple(range(len(rows))), dot, neg, {})


def _minor_det(rows, cols, dot, neg, minors):
    """The minor of `cofactor_det` on the last len(cols) rows and the columns
    `cols`, kept in `minors` by its column set; a module function, not a
    closure, so no reference cycle holds the minors after the call."""
    r = len(rows) - len(cols)
    if r == len(rows) - 1:
        return rows[r][cols[0]]
    if cols not in minors:
        minors[cols] = dot([(neg(rows[r][c]) if k % 2 else rows[r][c],
                             _minor_det(rows, cols[:k] + cols[k + 1:], dot, neg, minors))
                            for k, c in enumerate(cols) if rows[r][c]])
    return minors[cols]


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
    representatives sorted by (a, b), which keeps the quotient layers fast and
    hashable.  A residue gets its code with no division: on (a, b) coordinates
    the ideal (m) has the Hermite basis (d0, 0), (c, d1), so integer floor
    arithmetic moves x into the box [0, d0) x [0, d1), and `_box` holds the
    code of each box point.  The table divides once per residue, for the
    representative of each box point; every other code, and every `encode`, is
    that box lookup.  When d0 is prime, the box coordinates are also F_p
    coordinates of the additive group (`residue.fp_table_digits`).  Codes add
    and multiply only in `combine`, which builds a row of the sum or product
    list on its first read.  Tables compare by value, on (base, modulus).
    """

    __slots__ = ("base", "modulus", "reps", "_hermite", "_box", "zero", "one", "minus_one",
                 "char", "size", "_sums", "_products")

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
        self.base, self.modulus = base, modulus
        self._hermite = d0, _, d1 = _hermite_basis(modulus)
        if d0 * d1 != size:
            raise VerificationFailed(f"Hermite box {d0} x {d1} does not have {size} points")
        box = [euclidean_divmod(BaseElement(base, a, b), modulus)[1].key
               for b in range(d1) for a in range(d0)]
        keys = sorted(set(box))
        if len(keys) != size:
            raise VerificationFailed(f"Hermite box reduces to {len(keys)} residues, not {size}")
        self.reps = tuple(BaseElement(base, a, b) for a, b in keys)
        codes = {key: i for i, key in enumerate(keys)}
        self._box = [codes[key] for key in box]
        self.zero, self.one, self.minus_one = self._code(0, 0), self._code(1, 0), self._code(-1, 0)
        # the lattice points with b = 0 are the multiples of (d0, 0): 1 has additive order d0
        self.char = d0
        self._sums, self._products = [None] * size, [None] * size

    def _sum_row(self, i: int) -> list[int]:
        (a, b), code = self.reps[i].key, self._code
        self._sums[i] = row = [code(a + x.a, b + x.b) for x in self.reps]
        return row

    def _product_row(self, i: int) -> list[int]:  # by the delta rule
        (a, b), code, (t0, t1) = self.reps[i].key, self._code, self.base.delta_square
        self._products[i] = row = [code(a * x.a + t0 * b * x.b, a * x.b + b * x.a + t1 * b * x.b)
                                   for x in self.reps]
        return row

    def combine(self, acc, terms) -> tuple[int, ...]:
        """acc + sum of c * v over the (code c, code vector v) terms, entry by
        entry; a zero coefficient is skipped."""
        sums, products, zero = self._sums, self._products, self.zero
        for c, v in terms:
            if c != zero:
                row = products[c] or self._product_row(c)
                acc = [(sums[a] or self._sum_row(a))[row[b]] for a, b in zip(acc, v)]
        return tuple(acc)

    def inverse(self, code: int) -> int | None:
        """The code of x^-1 for the residue x of `code`, None for a non-unit:
        with s*x + t*m = g, x is a unit when g has norm 1, and x^-1 = s*conj(g)."""
        g, s, _ = xgcd(self.reps[code], self.modulus)
        return self.encode(s * g.conjugate()) if g.norm() == 1 else None

    key = property(operator.attrgetter("base", "modulus"))

    def __repr__(self):
        return f"ResidueTable({self.base.kind.value} mod {self.modulus})"

    def encode(self, x: BaseElement) -> int:
        """Code of x mod m: x moved into the Hermite box, then looked up."""
        if x.ring is not self.base and x.ring != self.base:
            raise IncompatibleRings(f"{x!r} is not in {self.base!r}")
        return self._code(x.a, x.b)

    def _code(self, a: int, b: int) -> int:
        """Code of a + b*delta: subtract k(c, d1) to bring b into [0, d1),
        then a multiple of (d0, 0) to bring a into [0, d0)."""
        d0, c, d1 = self._hermite
        k, b = divmod(b, d1)
        return self._box[(a - k * c) % d0 + b * d0]

    def reduce(self, x: BaseElement) -> BaseElement:
        return self.reps[self.encode(x)]

    def decode(self, i: int) -> BaseElement:
        return self.reps[i]


def _hermite_basis(m: BaseElement) -> tuple[int, int, int]:
    """(d0, c, d1) with d0, d1 > 0 and (m) = <(d0, 0), (c, d1)> on (a, b)
    coordinates.  Over Z the b coordinate is always 0, so d1 = 1."""
    if m.ring.kind is RingKind.RATIONAL:
        return abs(m.a), 0, 1
    t0, t1 = m.ring.delta_square
    # the rows m and m*delta, brought to (c, f), (e, 0) by Euclid on b
    u, v = (m.a, m.b), (t0 * m.b, m.a + t1 * m.b)
    while v[1]:
        q = u[1] // v[1]
        u, v = v, (u[0] - q * v[0], u[1] - q * v[1])
    sign = 1 if u[1] > 0 else -1
    return abs(v[0]), sign * u[0], sign * u[1]


@lru_cache(maxsize=None)
def residue_table(base: BaseRing, modulus: BaseElement) -> ResidueTable:
    """The shared table of O_F/(modulus), so each is built once."""
    return ResidueTable(base, modulus)
