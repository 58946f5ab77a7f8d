"""Rings of integers O_K of cyclic extensions K/F, given by structure data.

An extension is described entirely by exact data over the base ring O_F: a
free module basis b_0 = 1, ..., b_{n-1}, the multiplication table of that
basis, the matrix of a generating automorphism sigma (which fixes O_F, so it
acts coordinatewise through the matrix), and n numeric complex embeddings
listed along the sigma-orbit so that emb_j = emb_0 . sigma^j.

Everything algebraic here is exact integer arithmetic; the embeddings are the
only floating-point surface and feed the numeric determinant layer.

The O_K kernels (`ExtensionSpec.dot`, `mul`, `sigma`, `sigma_orbit`) run on
plain ints: each spec keeps the nonzero entries of its multiplication table
and sigma matrix as integer terms, and a base-ring product is the one rule
delta^2 = t0 + t1*delta of `BaseRing.delta_square`.  `BaseElement`s are built
only for the output coordinates, so the object classes stay the exact API
while the inner loops create and type-check no objects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import attrgetter

from .base_rings import (
    TABLE_LIMIT,
    BaseElement,
    BaseRing,
    Keyed,
    RingElement,
    is_prime_element,
    one_hot,
    ring_by_name,
)
from .errors import IncompatibleRings, UnsupportedSize

EMBED_TOL = 1e-9


class ExtensionSpec(Keyed):
    """A cyclic extension O_K/O_F of degree n with generator sigma."""

    __slots__ = (
        "base", "n", "basis_names", "mult_table", "sigma_matrix",
        "embeddings", "min_poly", "name", "notes",
        "_mul_terms", "_sigma_terms", "_hash",
    )

    def __init__(
        self,
        base: BaseRing,
        n: int,
        mult_table,
        sigma_matrix,
        embeddings,
        basis_names=None,
        min_poly=None,
        name: str = "",
        notes: str = "",
    ):
        self.base = base
        self.n = n
        self.mult_table = tuple(tuple(tuple(cell) for cell in row) for row in mult_table)
        self.sigma_matrix = tuple(tuple(row) for row in sigma_matrix)
        self.embeddings = tuple(tuple(row) for row in embeddings)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"b{i}" for i in range(n)
        )
        self.min_poly = tuple(min_poly) if min_poly else None
        self.name = name
        self.notes = notes
        tables = (self.mult_table, self.sigma_matrix, self.embeddings, *self.mult_table)
        if any(len(t) != n or any(len(v) != n for v in t) for t in tables):
            raise ValueError(f"structure tables must be {n} x {n} (x {n})")
        # _mul_terms[i*n + j]: the (r, a, b) with b_i*b_j = sum (a + b*delta) b_r;
        # _sigma_terms[r]: the (j, a, b) with sigma(x)_r = sum (a + b*delta) x_j
        self._mul_terms = tuple(
            tuple((r, c.a, c.b) for r, c in enumerate(cell) if c)
            for row in self.mult_table for cell in row)
        self._sigma_terms = tuple(
            tuple((j, c.a, c.b) for j, c in enumerate(row) if c)
            for row in self.sigma_matrix)
        self._hash = hash(self.key)  # every cached factory hashes the spec

    key = property(attrgetter("base", "mult_table", "sigma_matrix"))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ExtensionSpec({self.name or 'anonymous'}, degree {self.n})"

    # -- element constructors -------------------------------------------------

    def element(self, coords) -> "OKElement":
        coords = tuple(coords)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        for c in coords:
            if not isinstance(c, BaseElement) or (
                    c.ring is not self.base and c.ring != self.base):
                raise IncompatibleRings("coordinates must come from the base ring")
        return OKElement(self, coords)

    def from_ints(self, *rows) -> "OKElement":
        """Coordinates as ints or (a, b) pairs, for tests and quick scripts."""
        coords = []
        for r in rows:
            if isinstance(r, tuple):
                coords.append(self.base.element(*r))
            else:
                coords.append(self.base.element(r))
        return self.element(coords)

    def from_base(self, c: BaseElement) -> "OKElement":
        return self.element(one_hot(self.n, 0, c, self.base.zero))

    @property
    def zero(self) -> "OKElement":
        return self.from_base(self.base.zero)

    @property
    def one(self) -> "OKElement":
        return self.from_base(self.base.one)

    def basis_element(self, i: int) -> "OKElement":
        return self.element(one_hot(self.n, i, self.base.one, self.base.zero))

    # -- arithmetic -----------------------------------------------------------

    def mul(self, x: "OKElement", y: "OKElement") -> "OKElement":
        """x*y by the int kernel in `dot`.

        Only the n output coordinates become `BaseElement`s: building and
        type-checking one object per term, not the integer products, was
        the cost of O_K arithmetic.
        """
        return self.dot(((x, y),))

    def dot(self, pairs) -> "OKElement":
        """Sum of x*y over the (x, y) pairs, accumulated in plain ints.

        Two phases.  First the base-ring products x_i*y_j of every pair are
        summed into one (a, b) cell per basis pair (i, j), each product taken
        by delta^2 = t0 + t1*delta.  Then each nonzero cell's table terms
        (r, ta, tb) add cell*(ta + tb*delta) to coordinate r.  The
        multiplication table is applied once per call, not once per pair, so
        a matrix entry sum_k A_rk*B_kc or a cofactor level costs one table
        pass; one `BaseElement` is built per output coordinate, none per term.
        """
        n = self.n
        t0, t1 = self.base.delta_square
        cell_a = [0] * (n * n)
        cell_b = [0] * (n * n)
        for x, y in pairs:
            ys = [(j, c.a, c.b) for j, c in enumerate(y.coords) if c.a or c.b]
            for i, xc in enumerate(x.coords):
                a, b = xc.a, xc.b
                if not (a or b):
                    continue
                for j, c, d in ys:
                    k = i * n + j
                    bd = b * d
                    cell_a[k] += a * c + t0 * bd
                    cell_b[k] += a * d + b * c + t1 * bd
        acc_a = [0] * n
        acc_b = [0] * n
        for sa, sb, terms in zip(cell_a, cell_b, self._mul_terms):
            if not (sa or sb):
                continue
            for r, ta, tb in terms:
                sbtb = sb * tb
                acc_a[r] += sa * ta + t0 * sbtb
                acc_b[r] += sa * tb + sb * ta + t1 * sbtb
        return self._from_ints(zip(acc_a, acc_b))

    def _from_ints(self, pairs) -> "OKElement":
        base = self.base
        return OKElement(self, tuple(BaseElement(base, a, b) for a, b in pairs))

    def sigma(self, x: "OKElement", power: int = 1) -> "OKElement":
        return self.sigma_orbit(x, power % self.n + 1)[-1]

    def sigma_orbit(self, x: "OKElement", count: int | None = None) -> list["OKElement"]:
        """[x, sigma(x), ..., sigma^(count-1)(x)], count = n by default.

        sigma is stepped once per entry on int pairs, never raised from
        sigma^0 for each power; a count past n steps on, so entry n is
        sigma^n computed, not reduced to x.
        """
        v = [(c.a, c.b) for c in x.coords]
        orbit = [OKElement(self, x.coords)]
        for _ in range(1, self.n if count is None else count):
            v = self._sigma_once(v)
            orbit.append(self._from_ints(v))
        return orbit

    def _sigma_once(self, v):
        """sigma on a list of (a, b) int pairs, through the sigma-matrix terms."""
        t0, t1 = self.base.delta_square
        out = []
        for row in self._sigma_terms:
            ra = rb = 0
            for j, sa, sb in row:
                a, b = v[j]
                bd = sb * b
                ra += sa * a + t0 * bd
                rb += sa * b + sb * a + t1 * bd
            out.append((ra, rb))
        return out

    def embed(self, x: "OKElement", which: int = 0) -> complex:
        row = self.embeddings[which]
        return sum(c.complex() * row[i] for i, c in enumerate(x.coords))

    def field_norm(self, x: "OKElement") -> "OKElement":
        """Product of all n automorphism conjugates; lands in O_F * b_0."""
        acc = self.one
        for y in self.sigma_orbit(x):
            acc = self.mul(acc, y)
        return acc

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Exact structural checks; raises ValueError on any violation."""
        n = self.n
        one = self.one
        b = [self.basis_element(i) for i in range(n)]
        for i in range(n):
            if self.mul(b[0], b[i]) != b[i]:
                raise ValueError("b0 is not a multiplicative identity")
        for i in range(n):
            for j in range(n):
                if self.mul(b[i], b[j]) != self.mul(b[j], b[i]):
                    raise ValueError(f"multiplication table not commutative at ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.mul(self.mul(b[i], b[j]), b[k])
                    right = self.mul(b[i], self.mul(b[j], b[k]))
                    if left != right:
                        raise ValueError(f"multiplication not associative at ({i},{j},{k})")
        # sigma is a ring homomorphism of order exactly n; orbits[i][d] is
        # sigma^d(b_i), each orbit walked once out to the stepped sigma^n
        orbits = [self.sigma_orbit(bi, n + 1) for bi in b]
        for i in range(n):
            for j in range(n):
                if self.sigma(self.mul(b[i], b[j])) != self.mul(orbits[i][1], orbits[j][1]):
                    raise ValueError(f"sigma is not multiplicative at ({i},{j})")
        for d in range(1, n):
            if all(orbit[d] == orbit[0] for orbit in orbits):
                raise ValueError(f"sigma has order {d} < n")
        for orbit in orbits:
            if orbit[n] != orbit[0]:
                raise ValueError("sigma^n is not the identity")
        # numeric embeddings: multiplicative, and listed along the sigma orbit
        for e in range(n):
            for i in range(n):
                for j in range(n):
                    lhs = self.embed(self.mul(b[i], b[j]), e)
                    rhs = self.embed(b[i], e) * self.embed(b[j], e)
                    if abs(lhs - rhs) > EMBED_TOL:
                        raise ValueError(f"embedding {e} is not multiplicative")
        for j in range(n):
            for i in range(n):
                lhs = self.embed(b[i], j)
                rhs = self.embed(orbits[i][j], 0)
                if abs(lhs - rhs) > EMBED_TOL:
                    raise ValueError("embeddings are not in sigma-orbit order")
        # the designated generator satisfies the stated minimal polynomial
        if self.min_poly and n > 1:
            acc = self.zero
            power = one
            theta = b[1]
            for c in self.min_poly:
                acc = acc + self.mul(self.from_base(c), power)
                power = self.mul(power, theta)
            if acc != self.zero:
                raise ValueError("basis generator does not satisfy the minimal polynomial")


class OKElement(RingElement):
    """Element of O_K as a coordinate vector over the base ring."""

    __slots__ = ("coords",)
    error = IncompatibleRings

    def __init__(self, ext: ExtensionSpec, coords):
        self.ring = ext
        self.coords = tuple(coords)

    @property
    def ext(self) -> ExtensionSpec:
        return self.ring

    key = property(attrgetter("coords"))

    def __add__(self, other):
        self._check(other)
        return OKElement(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return OKElement(self.ring, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, BaseElement)):
            return OKElement(self.ring, tuple(c * other for c in self.coords))
        if not isinstance(other, OKElement):
            return NotImplemented  # let order elements handle k * x
        self._check(other)
        return self.ring.mul(self, other)

    def sigma(self, power: int = 1) -> "OKElement":
        return self.ring.sigma(self, power)

    def embed(self, which: int = 0) -> complex:
        return self.ring.embed(self, which)

    def scalar_part(self) -> BaseElement | None:
        """The O_F value when the element is a base-ring multiple of 1."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def __str__(self):
        parts = []
        for name, c in zip(self.ring.basis_names, self.coords):
            if c.is_zero:
                continue
            text = str(c)
            if name != "1":
                text = f"({text})*{name}" if (c.b != 0 or c.a < 0 or c.a > 1) else (
                    name if c.a == 1 else f"{text}*{name}"
                )
            parts.append(text)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in O_K({self.ring.name or 'anon'})>"


@dataclass(frozen=True)
class IdealSpec:
    """A prime power q^s of the base ring, q = (alpha)."""

    alpha: BaseElement
    s: int = 1

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("exponent must be at least 1")
        # every prime has norm >= 2: an s past log2(TABLE_LIMIT) is refused unbuilt
        if self.s >= TABLE_LIMIT.bit_length() or self.alpha.ideal_norm() ** self.s > TABLE_LIMIT:
            raise UnsupportedSize(f"O_F/{self} exceeds the table limit {TABLE_LIMIT}")
        if not is_prime_element(self.alpha):
            raise ValueError(f"{self.alpha} is not prime in its ring")

    @property
    def modulus(self) -> BaseElement:
        return self.alpha ** self.s

    def __str__(self):
        if self.s == 1:
            return f"({self.alpha})"
        return f"({self.alpha})^{self.s}"


_REQUIRED = object()


def read_field(data: dict, key: str, kind, default=_REQUIRED, least=None, shape=()):
    """`data[key]` of a JSON spec: the one reader of algebra and code specs.

    `kind` is a JSON type, compared by `type()` (true is no integer, null is
    no type), or a function that converts an entry or raises ValueError.  A
    `shape` makes the value nested lists of those lengths, `kind` applying to
    each entry.  An absent key gives `default`, required when not given.
    Refusals raise ValueError naming the key.
    """
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"spec field {key!r} is missing")
        return default
    try:
        return _read(data[key], kind, least, shape)
    except ValueError as exc:
        raise ValueError(f"spec field {key!r}: {exc}") from None


def _read(value, kind, least=None, shape=()):
    if shape:
        if type(value) is not list or len(value) != shape[0]:
            raise ValueError(f"expected a list of {shape[0]} entries, got {value!r}")
        return [_read(v, kind, least, shape[1:]) for v in value]
    if not isinstance(kind, type):
        return kind(value)
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"expected at least {least}, got {value}")
    return value


def _real(value) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def extension_from_dict(data: dict) -> ExtensionSpec:
    """Build and validate an ExtensionSpec from parsed JSON data.

    Each key is read once by `read_field`, which checks its type and its
    dimensions against `degree` and converts it; `validate` then checks
    the algebra.
    """
    if type(data) is not dict:
        raise ValueError("an algebra spec must be a JSON object")
    base = ring_by_name(read_field(data, "base_ring", str))
    n = read_field(data, "degree", int, least=1)
    ext = ExtensionSpec(
        base,
        n,
        read_field(data, "mult_table", base.parse, shape=(n, n, n)),
        read_field(data, "sigma_matrix", base.parse, shape=(n, n)),
        [[complex(*c) for c in row]
         for row in read_field(data, "embeddings", _real, shape=(n, n, 2))],
        basis_names=read_field(data, "basis", str, None, shape=(n,)),
        min_poly=read_field(data, "min_poly", base.parse, None, shape=(n + 1,)),
        name=read_field(data, "name", str, ""),
        notes=read_field(data, "notes", str, ""),
    )
    ext.validate()
    return ext
