"""Rings of integers O_K of cyclic extensions K/F, given by structure data.

An extension is described entirely by exact data over the base ring O_F: a
free module basis b_0 = 1, ..., b_{n-1}, the multiplication table of that
basis, the matrix of a generating automorphism sigma (which fixes O_F, so it
acts coordinatewise through the matrix), and n numeric complex embeddings
listed along the sigma-orbit so that emb_j = emb_0 . sigma^j.

Everything algebraic here is exact integer arithmetic; the embeddings are the
only floating-point surface and feed the numeric determinant layer.

The O_K kernels (`ExtensionSpec.dot`, `mul`, `sigma`, `sigma_orbit`) are
compiled per spec: `_compile_kernels` writes the multiplication table and
the sigma matrix out as two straight-line functions, with delta^2 = t0 +
t1*delta of `BaseRing.delta_square` and every table entry folded into
integer literals, and caches them on the table.  They unpack and return
the flat int tuples `OKElement.ints` and build no `BaseElement`, which an
element builds only for its `coords` view, for printing and embedding.
The same builder writes a second flavour for the residue rings O_K/mO_K
of `residue`: it reads coordinates as residue-table codes and returns the
codes of the output coordinates, so the package has one O_K product formula.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .base_rings import (
    TABLE_LIMIT,
    BaseElement,
    BaseRing,
    Keyed,
    RingElement,
    RingKind,
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
        "_dot", "_sigma_step", "_hash",
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
        self._dot, self._sigma_step = _compile_kernels(base, self.mult_table,
                                                       self.sigma_matrix)
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
        return OKElement(self, tuple([v for c in coords for v in (c.a, c.b)]))

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
        if not isinstance(c, BaseElement) or (c.ring is not self.base and c.ring != self.base):
            raise IncompatibleRings("coordinates must come from the base ring")
        return OKElement(self, (c.a, c.b) + (0,) * (2 * self.n - 2))

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
        """x*y, the one-pair `dot`."""
        return self.dot(((x, y),))

    def dot(self, pairs) -> "OKElement":
        """Sum of x*y over the (x, y) pairs, by the spec's compiled kernel.

        The kernel sums the base-ring products x_i*y_j of every pair into
        one (a, b) cell per basis pair (i, j), in locals, and applies the
        multiplication table once after the last pair, so a matrix entry
        sum_k A_rk*B_kc or a cofactor level costs one table pass.  The two
        cells of (i, j) and (j, i) are one when their table entries agree.
        The kernel reads and returns `ints` tuples and builds no `BaseElement`.
        """
        return self._dot(self, pairs)

    def sigma(self, x: "OKElement", power: int = 1) -> "OKElement":
        return self.sigma_orbit(x, power % self.n + 1)[-1]

    def sigma_orbit(self, x: "OKElement", count: int | None = None) -> list["OKElement"]:
        """[x, sigma(x), ..., sigma^(count-1)(x)], count = n by default.

        Each entry is one step of the compiled sigma kernel from the entry
        before, never raised from sigma^0 for each power; a count past n
        steps on, so entry n is sigma^n computed, not reduced to x.
        """
        step = self._sigma_step
        orbit = [OKElement(self, x.ints)]
        for _ in range(1, self.n if count is None else count):
            orbit.append(step(self, orbit[-1]))
        return orbit

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
    """Element of O_K stored and keyed as `ints` = (a0, b0, a1, b1, ...), its
    coordinate i being a_i + b_i*delta in O_F (every b_i 0 over Z); `coords`
    builds `BaseElement`s on read.  `ints` is built from a list: a tuple built
    from an iterator is resized, and CPython keeps freed tuples per length."""

    __slots__ = ("ints",)
    error = IncompatibleRings

    def __init__(self, ext: ExtensionSpec, ints: tuple):
        self.ring = ext
        self.ints = ints

    @property
    def ext(self) -> ExtensionSpec:
        return self.ring

    key = property(attrgetter("ints"))

    @property
    def coords(self) -> tuple[BaseElement, ...]:
        base, ints = self.ring.base, self.ints
        return tuple(BaseElement(base, a, b) for a, b in zip(ints[0::2], ints[1::2]))

    def __add__(self, other):
        self._check(other)
        return OKElement(self.ring, tuple([a + b for a, b in zip(self.ints, other.ints)]))

    def __neg__(self):
        return OKElement(self.ring, tuple([-v for v in self.ints]))

    def __mul__(self, other):
        if isinstance(other, int):
            return OKElement(self.ring, tuple([v * other for v in self.ints]))
        if isinstance(other, BaseElement):  # one ring check, then ints
            base = self.ring.base
            if other.ring is not base and other.ring != base:
                raise IncompatibleRings(f"cannot scale {self!r} by {other!r}")
            c, d = other.a, other.b
            t0, t1 = base.delta_square
            ints, out = self.ints, []
            for a, b in zip(ints[0::2], ints[1::2]):
                out += (a * c + t0 * b * d, a * d + b * c + t1 * b * d)
            return OKElement(self.ring, tuple(out))
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
        if any(self.ints[2:]):
            return None
        return BaseElement(self.ring.base, *self.ints[:2])

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


def _add_product(acc, p, q, t0, t1) -> None:
    """acc += p*q by delta^2 = t0 + t1*delta, on (a, b) pairs of forms: a form
    maps a monomial, a tuple of local names, to its int coefficient."""
    (pa, pb), (qa, qb) = p, q
    for part, f, g, k in ((0, pa, qa, 1), (0, pb, qb, t0), (1, pa, qb, 1),
                          (1, pb, qa, 1), (1, pb, qb, t1)):
        for m, c in f.items():
            for m2, c2 in g.items():
                acc[part][m + m2] = acc[part].get(m + m2, 0) + k * c * c2


def _source(form) -> str:
    """A form as Python source: zero terms left out, +-1 ones added or subtracted."""
    text = "".join(("-" if c < 0 else "+") + "*".join((str(abs(c)),) * (abs(c) != 1) + m)
                   for m, c in form.items() if c)
    return text.lstrip("+") or "0"


@lru_cache(maxsize=None)
def _compile_kernels(base: BaseRing, mult_table, sigma_matrix, codes: bool = False):
    """The `dot(ext, pairs)` and sigma-step `(ext, x)` kernels of one table.

    Each is one straight-line function: the coordinates and the cells of
    `dot` are locals, and the table and sigma entries, multiplied out with
    delta^2 = t0 + t1*delta, are int literals, so a zero term is left out
    and a +-1 term is an add or a subtract.  Over Z the delta parts of the
    coordinates are read as zero.  Only those literals and fixed names
    enter the source.  Cached on the tables, so equal specs share kernels.
    Each operand's `OKElement.ints` is unpacked in one line.

    With `codes` the kernels serve O_K/mO_K: they take a `ResidueTable` of
    O_F/(m) in place of `ext`, read each coordinate as a table code lifted
    to its representative in `table.reps`, and return the tuple of the
    output coordinates' codes, each reduced by `table._code`.
    """
    n = len(sigma_matrix)
    t0, t1 = base.delta_square
    parts = "a" if base.kind is RingKind.RATIONAL else "ab"
    if codes:
        owner, head = "table", ["reps, code = table.reps, table._code"]
        out, coord = "({})", "code({}, {}), "
    else:
        owner, head, out, coord = "ext", [], "OKElement(ext, ({}))", "{}, {}, "

    def read(v):  # lines loading the coordinates of local v, and their (a, b) forms
        if codes:  # each coordinate's code, lifted to its representative's (a, b)
            lines = [f"{v}{f', {v}'.join(map(str, range(n)))}, = {v}.codes"]
            lines += [f"{v}{p}{i} = reps[{v}{i}].{p}" for i in range(n) for p in parts]
        else:
            lines = ["".join(f"{v}{p}{i}, " if p in parts else "_, "
                             for i in range(n) for p in "ab") + f"= {v}.ints"]
        return lines, [tuple({(f"{v}{p}{i}",): 1} if p in parts else {} for p in "ab")
                       for i in range(n)]

    def apply(table, cells):  # output r is the sum over k of table[k][r] * cells[k]
        outs = [({}, {}) for _ in range(n)]
        for row, cell in zip(table, cells):
            for r, t in enumerate(row):
                _add_product(outs[r], ({(): int(t.a)}, {(): int(t.b)}), cell, t0, t1)
        return ["return " + out.format("".join(
            coord.format(_source(a), _source(b)) for a, b in outs))]

    xs, x = read("x")
    ys, y = read("y")
    cells = {}  # (i, j) -> the (a, b) forms of its cell, (j, i) folded in
    for i in range(n):
        for j in range(n):
            if any(mult_table[i][j]):
                k = (j, i) if j < i and mult_table[j][i] == mult_table[i][j] else (i, j)
                _add_product(cells.setdefault(k, ({}, {})), x[i], y[j], t0, t1)
    sums, cell_forms = [], []
    for (i, j), forms in cells.items():
        names = [f"c{p}{i * n + j}" if form else None for p, form in zip("ab", forms)]
        sums += [f"{name} += {_source(form)}" for name, form in zip(names, forms) if name]
        cell_forms.append(tuple({(name,): 1} if name else {} for name in names))
    dot = [*head, " = ".join([line.split()[0] for line in sums] + ["0"]), "for x, y in pairs:",
           *(f"    {line}" for line in xs + ys + sums),
           *apply([mult_table[i][j] for i, j in cells], cell_forms)]
    step = [*head, *xs, *apply(zip(*sigma_matrix), x)]
    namespace = {"OKElement": OKElement}
    for name, args, body in (("dot", "pairs", dot), ("sigma_step", "x", step)):
        source = f"def {name}({owner}, {args}):\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, f"<O_K {name} kernel>", "exec"), namespace)
    return namespace["dot"], namespace["sigma_step"]


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
