"""Rings of integers O_K of cyclic extensions K/F, given by structure data.

An extension is described entirely by exact data over the base ring O_F: a
free module basis b_0 = 1, ..., b_{n-1}, the multiplication table of that
basis, the matrix of a generating automorphism sigma (which fixes O_F, so it
acts coordinatewise through the matrix), and n numeric complex embeddings
listed along the sigma-orbit so that emb_j = emb_0 . sigma^j.

Everything algebraic here is exact integer arithmetic; the embeddings are the
only floating-point surface and feed the numeric determinant layer.

The O_K kernels (`ExtensionSpec.dot`, `mul`, `sigma`) run on plain ints: each
spec keeps the nonzero entries of its multiplication table and sigma matrix
as integer terms, and a base-ring product is the one rule
delta^2 = t0 + t1*delta of `BaseRing.delta_square`.  `BaseElement`s are built
only for the output coordinates, so the object classes stay the exact API
while the inner loops create and type-check no objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .base_rings import (
    BaseElement,
    BaseRing,
    RingElement,
    divides,
    is_prime_element,
    one_hot,
    ring_by_name,
)
from .errors import IncompatibleRings

EMBED_TOL = 1e-9


class ExtensionSpec:
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
        tables = (self.mult_table, self.sigma_matrix, *self.mult_table)
        if any(len(t) != n or any(len(v) != n for v in t) for t in tables):
            raise ValueError(f"structure tables must be {n} x {n} (x {n})")
        # _mul_terms[i][j]: the (r, a, b) with b_i*b_j = sum (a + b*delta) b_r;
        # _sigma_terms[r]: the (j, a, b) with sigma(x)_r = sum (a + b*delta) x_j
        self._mul_terms = tuple(
            tuple(tuple((r, c.a, c.b) for r, c in enumerate(cell) if c) for cell in row)
            for row in self.mult_table)
        self._sigma_terms = tuple(
            tuple((j, c.a, c.b) for j, c in enumerate(row) if c)
            for row in self.sigma_matrix)
        self._hash = hash((base, n, self.mult_table, self.sigma_matrix))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtensionSpec)
            and self.base == other.base
            and self.mult_table == other.mult_table
            and self.sigma_matrix == other.sigma_matrix
        )

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

        With x_i = a + b*delta, y_j = c + d*delta and a table term
        (r, ta, tb), coordinate r gains (x_i*y_j)*(ta + tb*delta), each product
        taken by delta^2 = t0 + t1*delta.  One `BaseElement` is built per
        output coordinate, none per term, so a matrix entry sum_k A_rk*B_kc
        costs one call and n objects.
        """
        n = self.n
        t0, t1 = self.base.delta_square
        acc_a = [0] * n
        acc_b = [0] * n
        for x, y in pairs:
            ys = [(j, c.a, c.b) for j, c in enumerate(y.coords) if c.a or c.b]
            for row, xc in zip(self._mul_terms, x.coords):
                a, b = xc.a, xc.b
                if not (a or b):
                    continue
                for j, c, d in ys:
                    bd = b * d
                    sa = a * c + t0 * bd
                    sb = a * d + b * c + t1 * bd
                    for r, ta, tb in row[j]:
                        sbtb = sb * tb
                        acc_a[r] += sa * ta + t0 * sbtb
                        acc_b[r] += sa * tb + sb * ta + t1 * sbtb
        return self._from_ints(zip(acc_a, acc_b))

    def _from_ints(self, pairs) -> "OKElement":
        base = self.base
        return OKElement(self, tuple(BaseElement(base, a, b) for a, b in pairs))

    def sigma(self, x: "OKElement", power: int = 1) -> "OKElement":
        power %= self.n
        if not power:
            return OKElement(self, x.coords)
        v = [(c.a, c.b) for c in x.coords]
        for _ in range(power):
            v = self._sigma_once(v)
        return self._from_ints(v)

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
        y = x
        for _ in range(self.n):
            acc = self.mul(acc, y)
            y = self.sigma(y)
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
        # sigma is a ring homomorphism of order exactly n
        for i in range(n):
            for j in range(n):
                if self.sigma(self.mul(b[i], b[j])) != self.mul(self.sigma(b[i]), self.sigma(b[j])):
                    raise ValueError(f"sigma is not multiplicative at ({i},{j})")
        for d in range(1, n):
            if all(self.sigma(b[i], d) == b[i] for i in range(n)):
                raise ValueError(f"sigma has order {d} < n")
        for i in range(n):
            if self.sigma(self.sigma(b[i], n - 1)) != b[i]:  # sigma(b, n) reduces to power 0
                raise ValueError("sigma^n is not the identity")
        # numeric embeddings: multiplicative, and listed along the sigma orbit
        if len(self.embeddings) != n:
            raise ValueError("need one embedding per automorphism power")
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
                rhs = self.embed(self.sigma(b[i], j), 0)
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
        if not is_prime_element(self.alpha):
            raise ValueError(f"{self.alpha} is not prime in its ring")

    @property
    def modulus(self) -> BaseElement:
        return self.alpha ** self.s

    def contains(self, x: BaseElement) -> bool:
        return divides(self.alpha, x)

    def __str__(self):
        if self.s == 1:
            return f"({self.alpha})"
        return f"({self.alpha})^{self.s}"


def extension_from_dict(data: dict) -> ExtensionSpec:
    """Build and validate an ExtensionSpec from parsed JSON data."""
    base = ring_by_name(data["base_ring"])
    n = int(data["degree"])
    mult_table = [
        [[base.parse(c) for c in cell] for cell in row] for row in data["mult_table"]
    ]
    sigma_matrix = [[base.parse(c) for c in row] for row in data["sigma_matrix"]]
    embeddings = [
        [complex(re, im) for re, im in row] for row in data["embeddings"]
    ]
    min_poly = [base.parse(c) for c in data["min_poly"]] if "min_poly" in data else None
    ext = ExtensionSpec(
        base,
        n,
        mult_table,
        sigma_matrix,
        embeddings,
        basis_names=data.get("basis"),
        min_poly=min_poly,
        name=data.get("name", ""),
        notes=data.get("notes", ""),
    )
    ext.validate()
    return ext
