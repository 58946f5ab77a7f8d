"""The natural order of a cyclic algebra and its matrix embedding.

An algebra spec is (K/F, sigma, u): a cyclic extension together with a
nonzero u in O_F.  The natural order is the free left O_K-module with basis
1, z, ..., z^(n-1), where z*k = sigma(k)*z for k in O_K and z^n = u.  The
matrix embedding sends x = sum x_k z^k to the n x n matrix over O_K whose
column c holds sigma^c applied to the coefficients of x, with the wrapped
entries above the diagonal multiplied by u:

    M[r][c] = sigma^c(x[(r - c) mod n]) * (u if r < c else 1)

M(x) is the matrix of right multiplication by x on the module above, acting
on column coordinate vectors.  Right actions compose in reverse, so the
embedding satisfies M(x*y) == M(y)*M(x) exactly; the transposed map
x -> M(x)^T, rows and columns swapped, is multiplicative in the familiar
order.  Determinants do not see the difference.

The determinant of M(x) is fixed by sigma, hence lies in O_F; it is computed
exactly by cofactor expansion.
"""

from __future__ import annotations

import functools
import itertools
import json
from importlib import resources
from operator import attrgetter

import numpy as np

from .base_rings import BaseElement, Keyed, RingElement, cofactor_det, one_hot
from .errors import IncompatibleAlgebras, NotInBaseRing
from .extension import ExtensionSpec, OKElement, extension_from_dict, read_field

SHIPPED_ALGEBRAS = (
    "golden_u_i",
    "golden_u_1pi",
    "q7_cubic",
    "q15_quartic",
    "gauss_over_Q",
)


class TwistedRing(Keyed):
    """sum_j C z^j with z*c = sigma(c)*z and z^n = ubar, over a ring C.

    The natural order (C = O_K, ubar = u) and its quotients Lambda/I Lambda
    (C = O_K/mO_K, ubar = u mod m) are this one construction, with n the
    degree of C over its base ring.  `coeffs` supplies n, zero, one, mul and
    sigma; subclasses supply the checked constructor `element` and `key`.
    """

    __slots__ = ("coeffs", "ubar")

    @property
    def n(self) -> int:
        return self.coeffs.n

    def _scalar(self, c):
        return self.element(one_hot(self.n, 0, c, self.coeffs.zero))

    @property
    def zero(self):
        return self._scalar(self.coeffs.zero)

    @property
    def one(self):
        return self._scalar(self.coeffs.one)

    @property
    def z(self):
        if self.n == 1:
            return self._scalar(self.ubar)
        return self.element(one_hot(self.n, 1, self.coeffs.one, self.coeffs.zero))

    def mul(self, x, y):
        """x*y, each z-power's (x_i, sigma^i(y_j)) pairs summed by one `coeffs.dot`;
        a wrapped pair (i + j >= n) has its second factor multiplied by ubar.
        Each nonzero y_j steps on from sigma^at to sigma^i: n - 1 steps in all."""
        n, C = self.n, self.coeffs
        pairs = [[] for _ in range(n)]
        ys, at = [(j, yj) for j, yj in enumerate(y.zcoords) if yj], 0
        for i, xi in enumerate(x.zcoords):
            if not xi:
                continue
            ys, at = [(j, C.sigma(yj, i - at)) for j, yj in ys], i
            for j, term in ys:
                k = i + j
                if k >= n:
                    k -= n
                    term = C.mul(term, self.ubar)
                pairs[k].append((xi, term))
        return type(x)(self, tuple(C.dot(p) for p in pairs))


class TwistedElement(RingElement):
    """Element sum c_k z^k of a `TwistedRing`."""

    __slots__ = ("zcoords",)

    def __init__(self, ring: TwistedRing, zcoords):
        self.ring = ring
        self.zcoords = tuple(zcoords)

    key = property(attrgetter("zcoords"))

    def __add__(self, other):
        self._check(other)
        return type(self)(
            self.ring, tuple(a + b for a, b in zip(self.zcoords, other.zcoords)))

    def __neg__(self):
        return type(self)(self.ring, tuple(-a for a in self.zcoords))

    def __mul__(self, other):
        if isinstance(other, (int, BaseElement)):
            return type(self)(self.ring, tuple(c * other for c in self.zcoords))
        if isinstance(other, TwistedElement):
            self._check(other)
            return self.ring.mul(self, other)
        return self.ring.mul(self, self.ring._scalar(other))

    def __rmul__(self, other):
        if isinstance(other, (int, BaseElement)):
            return self.__mul__(other)
        return self.ring.mul(self.ring._scalar(other), self)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.zcoords):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(f"{c}")
            else:
                zk = "z" if k == 1 else f"z^{k}"
                parts.append(f"({c})*{zk}")
        return " + ".join(parts) if parts else "0"


class AlgebraSpec(TwistedRing):
    """A cyclic algebra (K/F, sigma, u) restricted to its natural order."""

    __slots__ = ("ext", "u", "claims_division", "name", "notes", "_positions")

    def __init__(
        self,
        ext: ExtensionSpec,
        u: BaseElement,
        claims_division: bool = False,
        name: str = "",
        notes: str = "",
    ):
        if u.ring != ext.base:
            raise IncompatibleAlgebras("u must live in the base ring of the extension")
        if u.is_zero:
            raise ValueError("u must be nonzero")
        self.ext = self.coeffs = ext
        self.u = u
        self.ubar = ext.from_base(u)
        self.claims_division = claims_division
        self.name = name or ext.name
        self.notes = notes
        self._positions = self.int_positions()  # read by every `from_draws`

    key = property(attrgetter("ext", "u"))

    def __repr__(self):
        return f"AlgebraSpec({self.name}, u={self.u})"

    # -- constructors ----------------------------------------------------------

    def element(self, zcoords) -> "OrderElement":
        zcoords = tuple(zcoords)
        if len(zcoords) != self.n:
            raise ValueError(f"expected {self.n} z-coordinates")
        for c in zcoords:
            if not isinstance(c, OKElement) or c.ring != self.ext:
                raise IncompatibleAlgebras("z-coordinates must come from O_K")
        return OrderElement(self, zcoords)

    from_ok = TwistedRing._scalar

    def from_flat_ints(self, flat) -> "OrderElement":
        """Inverse of `OrderElement.flat_ints`: (z-power, basis, a, b) order."""
        ext, base = self.ext, self.ext.base
        pairs = iter(zip(flat[0::2], flat[1::2]))
        return self.element([
            ext.element([base.element(a, b)
                         for a, b in itertools.islice(pairs, ext.n)])
            for _ in range(self.n)])

    def int_positions(self, z_slots=None) -> list[int]:
        """Indices into `flat_ints` of the integer coordinates of the given
        z-slots (all by default): (z-power, basis, a, b) order, no b over Z."""
        m = self.ext.n
        width = 1 if self.ext.base.kind.name == "RATIONAL" else 2
        slots = range(self.n) if z_slots is None else z_slots
        return [(zp * m + bi) * 2 + w
                for zp in slots for bi in range(m) for w in range(width)]

    def from_positions(self, positions, values) -> "OrderElement":
        """Element with `values` at the `flat_ints` `positions`, 0 elsewhere."""
        flat = [0] * (2 * self.n * self.ext.n)
        for pos, v in zip(positions, values):
            flat[pos] = v
        return self.from_flat_ints(flat)

    def from_draws(self, draw) -> "OrderElement":
        """Element whose integer coordinates are successive `draw()` values,
        in `int_positions` order."""
        return self.from_positions(self._positions, [draw() for _ in self._positions])

    # -- matrix embedding -------------------------------------------------------

    def matrix(self, x: "OrderElement") -> "OrderMatrix":
        """Matrix of right multiplication by x; M(x*y) == M(y)*M(x).

        Column c holds sigma^c of the z-coordinates, so each coordinate's
        orbit is walked once by `ExtensionSpec.sigma_orbit`, not raised from
        sigma^0 per entry.  The wrapped entries above the diagonal take u as
        a base-ring scalar, coordinate by coordinate: ubar = u*b_0 and
        b_0 = 1, which `ExtensionSpec.validate` checks, so no O_K product.
        """
        n, u = self.n, self.u
        rows = [[None] * n for _ in range(n)]
        for k, xk in enumerate(x.zcoords):
            for c, entry in enumerate(self.ext.sigma_orbit(xk)):
                r = (k + c) % n
                rows[r][c] = entry * u if r < c else entry
        return OrderMatrix(self.ext, rows)

    def reduced_det(self, x: "OrderElement") -> BaseElement:
        """Exact determinant of the matrix embedding, as an element of O_F."""
        det = self.matrix(x).det()
        if det.sigma() != det:
            raise NotInBaseRing(f"determinant {det} is not fixed by sigma")
        scalar = det.scalar_part()
        if scalar is None:
            raise NotInBaseRing(f"determinant {det} has nonzero coordinates beyond b0")
        return scalar

    def abs_det_sq(self, x: "OrderElement") -> int:
        """|det M(x)|^2 under the fixed complex embedding; exact integer."""
        return self.reduced_det(x).norm()

    def charpoly(self, x: "OrderElement") -> tuple[BaseElement, ...]:
        """Coefficients (low degree first) of det(t*I - M(x)); all in O_F."""
        ext = self.ext
        n = self.n
        mat = self.matrix(x)
        # polynomial entries: list of OKElement coefficients, low degree first
        entries = [
            [[-mat.entries[r][c], ext.one] if r == c else [-mat.entries[r][c]]
             for c in range(n)]
            for r in range(n)
        ]
        poly = cofactor_det(entries, functools.partial(_poly_dot, ext),
                            neg=lambda p: [-t for t in p])
        coeffs = []
        for c in poly:
            scalar = c.scalar_part()
            if scalar is None or c.sigma() != c:
                raise NotInBaseRing(f"characteristic coefficient {c} is not in O_F")
            coeffs.append(scalar)
        return tuple(coeffs)


def _poly_dot(ext, pairs):
    """Sum of p*q over pairs of polynomials over O_K, low degree first:
    each coefficient is one `ext.dot` over every pair."""
    return [ext.dot((p[i], q[k - i]) for p, q in pairs
                    for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1))
            for k in range(max((len(p) + len(q) - 1 for p, q in pairs), default=0))]


class OrderMatrix(Keyed):
    """An n x n matrix over O_K (the image of the matrix embedding)."""

    __slots__ = ("ext", "entries")

    def __init__(self, ext: ExtensionSpec, entries):
        self.ext = ext
        self.entries = tuple(tuple(row) for row in entries)

    key = property(attrgetter("ext", "entries"))

    def __mul__(self, other):
        if not isinstance(other, OrderMatrix) or other.ext != self.ext:
            raise IncompatibleAlgebras("matrix operands do not match")
        cols = tuple(zip(*other.entries))
        return OrderMatrix(self.ext, tuple(
            tuple(self.ext.dot(zip(row, col)) for col in cols)
            for row in self.entries))

    def __add__(self, other):
        if not isinstance(other, OrderMatrix) or other.ext != self.ext:
            raise IncompatibleAlgebras("matrix operands do not match")
        rows = [
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ]
        return OrderMatrix(self.ext, tuple(rows))

    def det(self) -> OKElement:
        return cofactor_det(self.entries, self.ext.dot)

    def numeric(self) -> list[list[complex]]:
        """Entrywise image under the fixed embedding."""
        return [[e.embed() for e in row] for row in self.entries]

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        ) + "]"


class OrderElement(TwistedElement):
    """Element sum x_k z^k of the natural order."""

    __slots__ = ()

    def matrix(self) -> OrderMatrix:
        return self.ring.matrix(self)

    def reduced_det(self) -> BaseElement:
        return self.ring.reduced_det(self)

    def abs_det_sq(self) -> int:
        return self.ring.abs_det_sq(self)

    def flat_ints(self) -> tuple[int, ...]:
        """All integer coordinates, flattened in (z-power, basis, a, b) order."""
        out = []
        for ok in self.zcoords:
            for c in ok.coords:
                out.append(c.a)
                out.append(c.b)
        return tuple(out)

    def __repr__(self):
        return f"<{self} in order({self.ring.name})>"


# -- shipped data -----------------------------------------------------------


def load_algebra(source: str, u: str | BaseElement | None = None) -> AlgebraSpec:
    """Load an algebra spec from a shipped name or a JSON file path.

    `u` overrides the u recorded in the file (string forms like '5' or '1+i'
    are parsed in the base ring); overriding clears the division-algebra flag
    unless the override equals the recorded value.
    """
    if source in SHIPPED_ALGEBRAS:
        text = resources.files("cycord.data").joinpath(f"{source}.json").read_text()
    else:
        with open(source) as fh:
            text = fh.read()
    data = json.loads(text)
    ext = extension_from_dict(data)
    recorded_u = read_field(data, "u", ext.base.parse)
    claims = read_field(data, "claims_division", bool, False)
    if u is None:
        u_val = recorded_u
    else:
        u_val = ext.base.parse(u) if isinstance(u, str) else u
        if u_val != recorded_u:
            claims = False
    return AlgebraSpec(ext, u_val, claims_division=claims, notes=ext.notes)


def box_values(bound: int) -> list[int]:
    """Integer digits ordered 0, 1, -1, 2, -2, ... out to the bound."""
    out = [0]
    for v in range(1, bound + 1):
        out.append(v)
        out.append(-v)
    return out


def digit_rows(base: int, count: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The base-`base` digits of lo, ..., hi - 1 (default base**count - 1),
    one int64 row each, lowest digit in column 0: `radix_decode` row by row."""
    idx = np.arange(lo, base ** count if hi is None else hi, dtype=np.int64)
    rows = idx[:, None] // base ** np.arange(count, dtype=np.int64)
    rows %= base  # in place: a second rows-sized temporary would raise peak RSS
    return rows


def box_digits(bound: int, count: int) -> np.ndarray:
    """Every point of [-bound, bound]^count, one row each, coordinate 0 fastest:
    row i holds `box_values(bound)[(i // d^m) % d]` at coordinate m.  The rows
    have the narrowest signed dtype that holds -bound - 1, and so +bound as
    well (int8 at bound 1); widen them before summing."""
    values = np.array(box_values(bound), dtype=np.min_scalar_type(-bound - 1))
    return values[digit_rows(len(values), count)]


def box_elements(algebra: AlgebraSpec, bound: int) -> list[OrderElement]:
    """All order elements whose integer coordinates lie in [-bound, bound].

    The list is ordered lexicographically over the `int_positions`
    coordinates with digit order 0, 1, -1, ...: the zero element comes first
    and elements with later or fewer nonzero digits come earlier: the
    `box_digits` rows with the columns reversed, placed by `from_positions`.
    """
    positions = algebra.int_positions()
    rows = box_digits(bound, len(positions))[:, ::-1].tolist()
    return [algebra.from_positions(positions, row) for row in rows]
