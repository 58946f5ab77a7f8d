"""Finite quotients of the natural order.

This layer turns the exact objects of `order` into finite rings:

* `ResidueRing` is S = O_K/mO_K on the shipped power basis, with coordinates
  living in the residue table of O_F/(m).  Multiplication and sigma run the
  spec's compiled O_K kernels in their code flavour: each code is lifted to
  its representative, and each output coordinate is reduced to its code.
* `QuotientRing` is the generalized cyclic algebra Lambda/I Lambda =
  sum_j S z^j with z*s = sigma(s)*z and z^n = ubar, together with the
  reduction map from the order and its canonical section.
* `factor_prime` decides how a prime of O_F splits in O_K by enumerating the
  idempotents of O_K/qO_K, and orders the primitive ones into a sigma cycle.
* `crt_decompose`/`crt_recombine` split a composite-modulus quotient into its
  prime-power components and glue it back exactly.
* `brute_force_ideals` enumerates every two-sided ideal of a small quotient
  from the principal ideals Q x Q of all its elements, read off the F_p
  structure tensor alone.  It exists as an independent check for the
  structural classification and is deliberately naive.
* `FpView` linearizes a finite ring of prime characteristic over F_p, and
  serves quotient rings and the matrix rings of `structure` alike; a ring
  keeps one (`FpView.of`).  The F_p digits of a residue-table code are its
  coordinates in the table's Hermite box (`fp_table_digits`).  The bulk
  kernels (products of digit batches, the encodings of a subspace) work in
  bounded row blocks, each product mod p an exact float BLAS product
  (`matmul_mod_p`) that returns digits of the narrowest dtype holding
  p - 1; every base-p digit row comes from `order.digit_rows`.  One mod-p
  row reduction, `rref_mod_p`, reduces whole stacks of matrices at once in
  a narrow signed dtype; it backs the ideal spans (`ideal_elements`) and
  the rank, kernel and inverse helpers.
* `quotient_ideal` builds every entry of an ideal lattice; an entry finds its
  size (from the rank) and its element set only when asked.  The
  `skew_poly_ideal_chain` of an inert nilpotent-u quotient is one such list.

Elements of S, like the matrices of `structure`, are `CodeElement`s: tuples of
residue-table codes, added and scaled by `ResidueTable.combine`, which encode to
integers (mixed-radix), so sets of ring elements are cheap and deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .base_rings import (
    BaseElement,
    Keyed,
    ResidueTable,
    RingElement,
    _is_prime_int,
    cofactor_det,
    divides,
    one_hot,
    radix_decode,
    radix_encode,
    residue_table,
)
from .errors import (
    DivisionByZero,
    IncompatibleAlgebras,
    NotInBaseRing,
    RamifiedPrime,
    RepeatedPrime,
    TooLargeToEnumerate,
    UnsupportedCase,
    VerificationFailed,
    WrongCase,
)
from .extension import ExtensionSpec, IdealSpec, OKElement, _compile_kernels
from .order import AlgebraSpec, OrderElement, TwistedElement, TwistedRing, digit_rows

# Largest quotient ring we will stream element-by-element.
ENUM_LIMIT = 1 << 16
# Largest ring for the brute-force two-sided-ideal oracle.
IDEAL_BRUTE_LIMIT = 1 << 12
# Largest commutative residue ring scanned for idempotents.
IDEMPOTENT_SCAN_LIMIT = 1 << 20
# Entries of the largest intermediate of one block (at most 1 MB: a float64
# entry takes 8 bytes, float32 4, an F_2 digit 1): the (rows, dim, dim) float
# products of `FpView.mul_digits`, whose blocks have max(1, FP_BLOCK_ENTRIES //
# dim**2) rows, and the (elements, dim**2, dim) sandwich stacks of
# `brute_force_ideals`, float products reduced to digits.
FP_BLOCK_ENTRIES = 1 << 17
# Rows per block when enumerating subspace members and checking product pairs.
ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class CompositeIdeal:
    """A product of prime-power ideals with pairwise distinct primes."""

    factors: tuple[IdealSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("composite ideal needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        for i, f in enumerate(self.factors):
            for g in self.factors[i + 1:]:
                if divides(f.alpha, g.alpha) and divides(g.alpha, f.alpha):
                    raise RepeatedPrime(
                        f"factors {f} and {g} share an associate prime"
                    )

    @property
    def modulus(self) -> BaseElement:
        m = self.factors[0].modulus
        for f in self.factors[1:]:
            m = m * f.modulus
        return m

    def __str__(self):
        return " * ".join(str(f) for f in self.factors)


class ResidueRing(Keyed):
    """S = O_K/mO_K: power-basis coordinates over the table of O_F/(m)."""

    __slots__ = ("ext", "modulus", "table", "size", "_dot", "_sigma_step")

    def __init__(self, ext: ExtensionSpec, modulus: BaseElement):
        self.ext = ext
        self.modulus = modulus
        self.table = residue_table(ext.base, modulus)
        self.size = self.table.size ** ext.n
        self._dot, self._sigma_step = _compile_kernels(ext.base, ext.mult_table,
                                                       ext.sigma_matrix, True)

    @property
    def n(self) -> int:
        return self.ext.n

    key = property(attrgetter("ext", "modulus"))

    def __repr__(self):
        return f"ResidueRing(O_K({self.ext.name or 'anon'}) mod {self.modulus})"

    # -- constructors -----------------------------------------------------------

    def element(self, codes) -> "ResidueElement":
        codes = tuple(int(c) for c in codes)
        if len(codes) != self.n:
            raise ValueError(f"expected {self.n} coordinates")
        return ResidueElement(self, codes)

    def from_ok(self, x: OKElement) -> "ResidueElement":
        if x.ring != self.ext:
            raise IncompatibleAlgebras("element comes from a different extension")
        return ResidueElement(self, tuple(self.table.encode(c) for c in x.coords))

    def from_base(self, c: BaseElement) -> "ResidueElement":
        return ResidueElement(self, one_hot(self.n, 0, self.table.encode(c), self.table.zero))

    @property
    def zero(self) -> "ResidueElement":
        return ResidueElement(self, (self.table.zero,) * self.n)

    @property
    def one(self) -> "ResidueElement":
        return self.basis(0)

    def basis(self, i: int) -> "ResidueElement":
        return ResidueElement(self, one_hot(self.n, i, self.table.one, self.table.zero))

    # -- arithmetic -------------------------------------------------------------

    def mul(self, x: "ResidueElement", y: "ResidueElement") -> "ResidueElement":
        return self.dot(((x, y),))

    def dot(self, pairs) -> "ResidueElement":
        """Sum of x*y over the (x, y) pairs, by the spec's compiled code kernel."""
        return ResidueElement(self, self._dot(self.table, pairs))

    def sigma(self, x: "ResidueElement", power: int = 1) -> "ResidueElement":
        for _ in range(power % self.n):
            x = ResidueElement(self, self._sigma_step(self.table, x))
        return x

    # -- enumeration and encoding -------------------------------------------------

    def elements(self, limit: int = ENUM_LIMIT):
        if self.size > limit:
            raise TooLargeToEnumerate(
                f"residue ring has {self.size} elements (limit {limit})"
            )
        for codes in itertools.product(range(self.table.size), repeat=self.n):
            yield ResidueElement(self, codes)


class CodeElement(RingElement):
    """Element stored as a flat tuple of codes of its ring's residue `table`.

    Everything but `_mul`, the product of two elements, acts code by code."""

    __slots__ = ("codes",)

    def __init__(self, ring, codes):
        self.ring = ring
        self.codes = codes

    key = property(attrgetter("codes"))

    def __add__(self, other):
        self._check(other)
        table = self.ring.table
        return type(self)(self.ring, table.combine(self.codes, [(table.one, other.codes)]))

    def __neg__(self):
        return self.scale(self.ring.table.minus_one)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.table.base.element(other)
        if isinstance(other, BaseElement):
            return self.scale(self.ring.table.encode(other))
        self._check(other)
        return self._mul(other)

    def __bool__(self):  # the table's zero code need not be 0
        zero = self.ring.table.zero
        return any(c != zero for c in self.codes)

    def scale(self, code: int):
        """Code-by-code multiplication by a residue-table scalar."""
        table = self.ring.table
        zero = (table.zero,) * len(self.codes)
        return type(self)(self.ring, table.combine(zero, [(code, self.codes)]))

    def encode(self) -> int:
        return radix_encode(self.codes, self.ring.table.size)


class ResidueElement(CodeElement):
    """Element of O_K/mO_K: the table codes of its power-basis coordinates."""

    __slots__ = ()

    def _mul(self, other):
        return self.ring.mul(self, other)

    def sigma(self, power: int = 1) -> "ResidueElement":
        return self.ring.sigma(self, power)

    def lift(self) -> OKElement:
        dec = self.ring.table.decode
        return self.ring.ext.element([dec(c) for c in self.codes])

    def __str__(self):
        return str(self.lift())

    def __repr__(self):
        return f"<{self} mod {self.ring.modulus}>"


@functools.cache
def residue_ring(ext: ExtensionSpec, modulus: BaseElement) -> ResidueRing:
    return ResidueRing(ext, modulus)


class QuotientRing(TwistedRing):
    """Lambda/I Lambda = sum_j S z^j with z s = sigma(s) z and z^n = ubar."""

    __slots__ = ("algebra", "ideal", "S", "_crt", "_fp_view")

    def __init__(self, algebra: AlgebraSpec, ideal):
        if not isinstance(ideal, (IdealSpec, CompositeIdeal)):
            raise TypeError("ideal must be an IdealSpec or CompositeIdeal")
        self.algebra = algebra
        self.ideal = ideal
        self.S = self.coeffs = residue_ring(algebra.ext, ideal.modulus)
        self.ubar = self.S.from_base(algebra.u)
        self._crt = self._fp_view = None

    @property
    def cardinality(self) -> int:
        return self.S.size ** self.n

    @property
    def char(self) -> int:
        return self.S.table.char

    @property
    def table(self) -> ResidueTable:
        return self.S.table

    key = property(attrgetter("algebra", "ideal"))

    def __repr__(self):
        return f"QuotientRing({self.algebra.name} mod {self.ideal})"

    # -- constructors -----------------------------------------------------------

    def element(self, zcoords) -> "GcaElement":
        zcoords = tuple(zcoords)
        if len(zcoords) != self.n:
            raise ValueError(f"expected {self.n} z-coordinates")
        for c in zcoords:
            if not isinstance(c, ResidueElement) or c.ring != self.S:
                raise IncompatibleAlgebras("z-coordinates must come from S")
        return GcaElement(self, zcoords)

    from_residue = TwistedRing._scalar

    # -- the reduction map and its canonical section ------------------------------

    def reduce(self, x: OrderElement) -> "GcaElement":
        if x.ring != self.algebra:
            raise IncompatibleAlgebras("element comes from a different algebra")
        return GcaElement(self, tuple(self.S.from_ok(c) for c in x.zcoords))

    def lift(self, g: "GcaElement") -> OrderElement:
        return self.algebra.element([c.lift() for c in g.zcoords])

    # -- enumeration and encoding -------------------------------------------------

    def elements(self, limit: int = ENUM_LIMIT):
        if self.cardinality > limit:
            raise TooLargeToEnumerate(
                f"quotient has {self.cardinality} elements (limit {limit})"
            )
        size = self.S.table.size
        for flat in itertools.product(range(size), repeat=self.n * self.S.n):
            yield self.from_flat_codes(flat)

    def flat_codes(self, g: "GcaElement") -> list[int]:
        """Residue-table codes of all coordinates, z-power major."""
        return [code for c in g.zcoords for code in c.codes]

    def from_flat_codes(self, codes) -> "GcaElement":
        m = self.S.n
        return GcaElement(
            self,
            tuple(ResidueElement(self.S, tuple(codes[i * m:(i + 1) * m]))
                  for i in range(self.n)),
        )

    def random_element(self, rng) -> "GcaElement":
        size = self.S.table.size
        return self.from_flat_codes(
            [rng.randrange(size) for _ in range(self.n * self.S.n)]
        )


class GcaElement(TwistedElement):
    """Element sum s_j z^j of a quotient ring."""

    __slots__ = ()

    def encode(self) -> int:
        return radix_encode(self.ring.flat_codes(self), self.ring.table.size)

    def lift(self) -> OrderElement:
        return self.ring.lift(self)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


@functools.cache
def quotient_of(algebra: AlgebraSpec, ideal) -> QuotientRing:
    return QuotientRing(algebra, ideal)


# -- CRT over composite moduli ---------------------------------------------------


def _crt_data(ring: QuotientRing):
    """Per-factor quotients and the base-ring glue idempotents for recombine."""
    if ring._crt is not None:
        return ring._crt
    ideal = ring.ideal
    factors = (ideal,) if isinstance(ideal, IdealSpec) else ideal.factors
    base = ring.algebra.ext.base
    M = ideal.modulus
    components = tuple(quotient_of(ring.algebra, f) for f in factors)
    glue = []
    for f, comp in zip(factors, components):
        M_i = base.one
        for gf in factors:
            if gf is not f:
                M_i = M_i * gf.modulus
        # the factors are distinct primes, so M_i is a unit mod m_i
        table = comp.table
        glue.append(M_i * table.decode(table.inverse(table.encode(M_i))))
    # the glue elements form a complete system mod M
    total = sum(glue, base.zero)
    if not divides(M, total - base.one):
        raise VerificationFailed(f"CRT glue elements sum to {total}, not 1 mod {M}")
    ring._crt = (components, tuple(glue))
    return ring._crt


def invert_unipotent(Q: QuotientRing, x: GcaElement) -> GcaElement:
    """Inverse of x = 1 + m with m nilpotent, via the geometric series.

    In a quotient where u lands inside the ideal, elements like 1 + c z
    satisfy (c z)^(n s) = 0, so the series 1 - m + m^2 - ... terminates.
    Raises DivisionByZero when x - 1 fails to be nilpotent.
    """
    m = x - Q.one
    acc = Q.one
    term = Q.one
    for _ in range(Q.n * Q.ideal.s + 1):
        term = Q.zero - term * m
        if term == Q.zero:
            break
        acc = acc + term
    if not x * acc == Q.one:
        raise DivisionByZero(f"{x} is not unipotent in {Q}")
    return acc


def crt_decompose(x: GcaElement) -> tuple[GcaElement, ...]:
    """Split an element of a composite quotient into prime-power components."""
    components, _ = _crt_data(x.ring)
    lifted = x.lift()
    return tuple(comp.reduce(lifted) for comp in components)


def crt_recombine(parts, target: QuotientRing) -> GcaElement:
    """Inverse of crt_decompose: glue components back together mod the product."""
    components, glue = _crt_data(target)
    parts = tuple(parts)
    if len(parts) != len(components):
        raise ValueError(f"expected {len(components)} components")
    for part, comp in zip(parts, components):
        if part.ring != comp:
            raise IncompatibleAlgebras("component belongs to the wrong factor")
    acc = target.algebra.zero
    for part, e in zip(parts, glue):
        acc = acc + part.lift() * e
    return target.reduce(acc)


# -- prime splitting --------------------------------------------------------------


@dataclass(frozen=True)
class Splitting:
    """How a prime q of O_F splits in O_K: q O_K = Q_1 ... Q_g, f = n/g."""

    g: int
    f: int
    idempotents: tuple[ResidueElement, ...] = field(repr=False)


def trace_form_discriminant(ext: ExtensionSpec) -> BaseElement:
    """det(Tr(b_i b_j)): the discriminant of the power basis over O_F."""
    n = ext.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = ext.mul(ext.basis_element(i), ext.basis_element(j))
            tr = sum(ext.sigma_orbit(prod), ext.zero)
            scalar = tr.scalar_part()
            if scalar is None:
                raise NotInBaseRing(f"trace {tr} left the base ring")
            row.append(scalar)
        rows.append(row)
    return cofactor_det(rows, lambda pairs: sum((a * b for a, b in pairs), ext.base.zero))


@functools.cache
def factor_prime(ext: ExtensionSpec, alpha: BaseElement) -> Splitting:
    """Splitting data of the prime (alpha) in O_K.

    Enumerates all idempotents of O_K/alpha O_K and picks out the primitive
    ones (minimal in the order e <= f iff e*f = e), then orders them so that
    sigma cycles v_1 -> v_2 -> ... -> v_g -> v_1.  Raises RamifiedPrime when
    alpha divides the trace-form discriminant.
    """
    if divides(alpha, trace_form_discriminant(ext)):
        raise RamifiedPrime(f"({alpha}) ramifies in this extension")
    S = residue_ring(ext, alpha)
    if S.size > IDEMPOTENT_SCAN_LIMIT:
        raise TooLargeToEnumerate(
            f"idempotent scan over {S.size} elements exceeds the limit"
        )
    idems = [e for e in S.elements(limit=IDEMPOTENT_SCAN_LIMIT)
             if not e.is_zero and S.mul(e, e) == e]
    prims = []
    for e in idems:
        if all(f == e or S.mul(e, f) != f for f in idems):
            prims.append(e)
    g = len(prims)
    if g == 0 or ext.n % g:
        raise RamifiedPrime(
            f"idempotent count {g} does not divide the degree; ({alpha}) is not unramified"
        )
    v1 = min(prims, key=lambda e: e.encode())
    chain = [v1]
    for _ in range(g - 1):
        chain.append(chain[-1].sigma())
    if chain[-1].sigma() != v1 or len({c.encode() for c in chain}) != g:
        raise VerificationFailed("sigma does not cycle the idempotents")
    if sum(chain, S.zero) != S.one:
        raise VerificationFailed("primitive idempotents do not sum to 1")
    return Splitting(g=g, f=ext.n // g, idempotents=tuple(chain))


# -- ideal bookkeeping -------------------------------------------------------------


@dataclass(frozen=True)
class QuotientIdeal:
    """The two-sided ideal of `quotient` generated by `generators`, on demand.

    No generators: the zero ideal, size 1 and {0}.  Otherwise `size` is p^rank
    and `elements` the span, None above ENUM_LIMIT; both None without F_p.
    """

    label: str
    quotient: QuotientRing
    generators: tuple

    def __str__(self):
        return self.label

    @functools.cached_property
    def _basis(self):  # (view, `_ideal_rows`), or None without F_p structure
        try:
            view = FpView.of(self.quotient)
        except UnsupportedCase:
            return None
        return view, _ideal_rows(view, self.generators)

    @functools.cached_property
    def size(self) -> int | None:
        if not self.generators:
            return 1
        return None if self._basis is None else self._basis[0].p ** len(self._basis[1])

    @functools.cached_property
    def elements(self) -> frozenset | None:
        if not self.generators:
            return frozenset({self.quotient.zero.encode()})
        if self.quotient.cardinality > ENUM_LIMIT or self._basis is None:
            return None
        return self._basis[0].span_encodings(self._basis[1])


def _ideal_rows(view: FpView, generators) -> np.ndarray:
    """Reduced rows spanning the ideal of `generators`: the rank step, by `_sandwiches`."""
    d = view.dim
    X = np.array([view.digits(g) for g in generators], dtype=np.int64).reshape(-1, d)
    R, rank = rref_mod_p(_sandwiches(view, X).reshape(1, -1, d), view.p)
    return R[0, :rank[0]]


def ideal_elements(Q: QuotientRing, generators, limit: int = ENUM_LIMIT) -> frozenset:
    """Element encodings of the two-sided ideal generated by `generators`.

    Needs prime characteristic.  Raises TooLargeToEnumerate when the ideal
    has more than `limit` elements.
    """
    view = FpView.of(Q)
    rows = _ideal_rows(view, generators)
    if view.p ** len(rows) > limit:
        raise TooLargeToEnumerate(f"ideal has {view.p ** len(rows)} elements (limit {limit})")
    return view.span_encodings(rows)


def quotient_ideal(Q: QuotientRing, label: str, generators) -> QuotientIdeal:
    """The lattice entry `label`, which computes nothing until read (`QuotientIdeal`)."""
    return QuotientIdeal(label, Q, tuple(generators))


def skew_poly_ideal_chain(Q: QuotientRing) -> list[QuotientIdeal]:
    """The ideals <z^i>, i = 1..n, of an inert nilpotent-u quotient.

    The quotient by <z^i> is the truncated twisted polynomial ring spanned by
    1, z, ..., z^(i-1) over the residue field.  Each entry comes from
    `quotient_ideal`, so its size and element set are computed on demand.
    Raises WrongCase unless the modulus is an inert prime containing u.
    """
    ideal = Q.ideal
    if not isinstance(ideal, IdealSpec) or ideal.s != 1:
        raise WrongCase("the chain classification needs a prime modulus (s = 1)")
    if not Q.ubar.is_zero:
        raise WrongCase("the chain classification needs u in q")
    split = factor_prime(Q.algebra.ext, ideal.alpha)
    if split.g != 1:
        raise WrongCase("the chain classification needs an inert prime")
    return [quotient_ideal(Q, f"<z^{i}>" if i > 1 else "<z>", [Q.z ** i])
            for i in range(1, Q.n + 1)]


# -- F_p linearization -------------------------------------------------------------


def fp_table_digits(table: ResidueTable):
    """F_p coordinates of a residue table's additive group: its Hermite box.

    Returns (p, k, digits, codes): digits[x] is the length-k digit tuple of
    table code x, and codes (the table's `_box`) inverts it on base-p
    integers, codes[radix_encode(digits[x], p)] == x.  Needs the
    characteristic p = d0 prime.  Then (0, p) lies in (m), so d1 is 1 or p,
    and if d1 = p then c = 0 mod p: box coordinates add coordinatewise mod p.
    """
    p = table.char
    if not _is_prime_int(p):
        raise UnsupportedCase(
            f"characteristic {p} is not prime; no F_p structure available"
        )
    _, c, d1 = table._hermite
    k = 1 if d1 == 1 else 2
    if not (table.size == p ** k and (d1 == 1 or c % p == 0)):
        raise VerificationFailed(
            f"additive group of {table.size} elements is not F_{p}^{k}"
        )
    digits = [()] * table.size
    for i, code in enumerate(table._box):
        digits[code] = tuple(radix_decode(i, p, k))
    return p, k, digits, table._box


def exact_float(bound: int):
    """Float dtype exact on all integers below `bound`: float32 under 2**24, float64 under 2**53."""
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise UnsupportedCase(f"integer sums up to {bound} exceed the exact float64 range")


def _to_digits(F: np.ndarray, bound: int, p: int) -> np.ndarray:
    """Exact float integers below `bound`, mod p, as `np.min_scalar_type(p - 1)`
    digits: the remainder runs on the narrowest integer dtype that holds them."""
    out = F.astype(np.min_scalar_type(max(bound, p)))
    out -= out // p * p  # the remainder: numpy's `%` by a scalar is several times slower
    return out.astype(np.min_scalar_type(p - 1), copy=False)


def matmul_mod_p(A, B, p: int) -> np.ndarray:
    """A @ B mod p as narrow digits for digits in [0, p), by one BLAS float
    product: each partial sum is a nonnegative integer no larger than the full
    sum, below inner * (p - 1)**2 + 1, so the `exact_float` product is exact in
    any order.  Digits are unsigned: widen them before subtracting."""
    bound = np.shape(A)[-1] * (p - 1) ** 2 + 1
    f = exact_float(bound)
    return _to_digits(np.asarray(A, dtype=f) @ np.asarray(B, dtype=f), bound, p)


class FpView:
    """F_p vector coordinates for a finite ring of prime characteristic.

    Serves quotient rings and matrix rings alike: the ring supplies its
    residue `table`, its `zero`, the flat table codes of an element
    (`flat_codes`) and the element with given flat codes (`from_flat_codes`).
    Elements become length-dim digit tuples; ring multiplication becomes the
    cubic structure tensor, so bulk products and additive-map ranks reduce to
    numpy arithmetic mod p.  The bulk kernels run over row blocks:
    `mul_digits` over `block_rows` rows, so that no intermediate exceeds
    FP_BLOCK_ENTRIES float entries, and `span_encodings` over ROW_BLOCK rows.
    `FpView.of(ring)` is the view a ring keeps: one structure tensor a ring.
    """

    __slots__ = ("ring", "p", "k", "dim", "_digits", "_codes", "_tensor", "_float_tensor")

    def __init__(self, ring):
        self.ring = ring
        self.p, self.k, self._digits, self._codes = fp_table_digits(ring.table)
        self.dim = len(ring.flat_codes(ring.zero)) * self.k
        self._tensor = None
        self._float_tensor = None

    @classmethod
    def of(cls, ring) -> "FpView":  # the view kept on `ring`, built on first use
        if ring._fp_view is None:
            ring._fp_view = cls(ring)
        return ring._fp_view

    def digits(self, x) -> tuple[int, ...]:
        out = []
        for code in self.ring.flat_codes(x):
            out.extend(self._digits[code])
        return tuple(out)

    def element(self, digs):
        p, k = self.p, self.k
        digs = [int(d) % p for d in digs]
        return self.ring.from_flat_codes(
            [self._codes[radix_encode(digs[pos:pos + k], p)] for pos in range(0, self.dim, k)]
        )

    def basis_elements(self) -> list:
        return [self.element(one_hot(self.dim, a, 1, 0)) for a in range(self.dim)]

    @property
    def block_rows(self) -> int:
        """Rows per `mul_digits` block."""
        return max(1, FP_BLOCK_ENTRIES // self.dim ** 2)

    def tensor(self) -> np.ndarray:
        """T[a, b, :] = digits(e_a * e_b), the structure tensor over F_p."""
        if self._tensor is None:
            basis, d = self.basis_elements(), self.dim
            self._tensor = np.array([self.digits(a * b) for a in basis for b in basis],
                                    dtype=np.int64).reshape(d, d, d)
        return self._tensor

    def mul_digits(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise products of digit batches (shape (batch, dim)), mod p, as
        digits of dtype `np.min_scalar_type(p - 1)`, as `matmul_mod_p` returns.

        Contracts each block of X with the flattened tensor, then each row
        with the matching row of Y, as BLAS float products.  With digits in
        [0, p) every partial sum is a nonnegative integer of at most
        dim**2 * (p - 1)**3, so in the `exact_float` dtype of that bound
        (float32 for every certify quotient, chosen when the float tensor is
        built) the result is the exact integer contraction.  Blocks are
        converted and reduced one at a time: a float or int64 copy of the
        whole batch would raise peak memory.
        """
        d, step, p = self.dim, self.block_rows, self.p
        bound = d * d * (p - 1) ** 3 + 1
        T = self._float_tensor
        if T is None:
            T = self._float_tensor = self.tensor().reshape(d, d * d).astype(exact_float(bound))
        out = np.empty((X.shape[0], d), dtype=np.min_scalar_type(p - 1))
        for lo in range(0, X.shape[0], step):
            XT = (X[lo:lo + step].astype(T.dtype) @ T).reshape(-1, d, d)
            YXT = (Y[lo:lo + step, None, :].astype(T.dtype) @ XT)[:, 0]
            out[lo:lo + step] = _to_digits(YXT, bound, p)
        return out

    def span_encodings(self, rows: np.ndarray) -> frozenset:
        """Element encodings of the span of independent digit rows (small spaces only).

        Member i of the span has coefficient digits i in base p (`digit_rows`).
        Each k-digit slot, read as a base-p integer, indexes the table codes
        of `fp_table_digits`, and slot j weighs table.size**j, which is
        `encode` in `flat_codes` order.  An empty set of rows spans the zero
        element, whose table code need not be 0.
        """
        p, k, d, r = self.p, self.k, self.dim, len(rows)
        size, slots = self.ring.table.size, d // k
        rows = np.asarray(rows, dtype=np.int64).reshape(r, d)
        place = p ** np.arange(k, dtype=np.int64)
        code_at = np.array(self._codes, dtype=np.int64)
        # encodings exceed int64 only for rings of 2**63 elements or more
        weights = np.array([size ** j for j in range(slots)],
                           dtype=np.int64 if size ** slots < 1 << 63 else object)
        out: set = set()
        for lo in range(0, p ** r, ROW_BLOCK):
            digs = matmul_mod_p(digit_rows(p, r, lo, min(p ** r, lo + ROW_BLOCK)), rows, p)
            codes = code_at[digs.reshape(-1, slots, k) @ place]
            out.update((codes @ weights).tolist())
        return frozenset(out)


def rref_mod_p(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms over F_p of a stack of matrices (batch, rows, cols).

    Returns (R, rank): R[i, :rank[i]] are the nonzero reduced rows of A[i]
    by increasing pivot column, and the rows below them are zero.  Each
    column takes one set of numpy steps over the whole stack: every matrix
    picks its first row at or below its rank with a nonzero entry there,
    moves it up to the rank, scales the pivot to 1 (inverting only the
    distinct pivot values of the column) and clears the column in every
    other row.  The reduced form is unique, so R depends only on the
    row space of each matrix.  R has the signed dtype `np.min_scalar_type(-p * p)`,
    which holds -(p - 1)**2, the least value of a clearing step before its
    remainder: a stack of F_2 matrices is reduced in int8.
    """
    dt = np.min_scalar_type(-p * p)
    R = np.mod(A, p).astype(dt)
    batch, rows, cols = R.shape
    rank = np.zeros(batch, dtype=np.int64)
    below = np.arange(rows)
    for c in range(cols):
        cand = (R[:, :, c] != 0) & (below >= rank[:, None])
        found = np.nonzero(cand.any(axis=1))[0]
        if not found.size:
            continue
        src, dst = cand[found].argmax(axis=1), rank[found]
        pivot = R[found, src]
        R[found, src] = R[found, dst]
        lead = pivot[:, c].tolist()
        inv = {v: pow(v, -1, p) for v in set(lead)}
        pivot = pivot * np.array([inv[v] for v in lead], dtype=dt)[:, None] % p
        R[found, dst] = pivot
        factor = R[found, :, c]
        factor[np.arange(found.size), dst] = 0
        R[found] = (R[found] - factor[:, :, None] * pivot[:, None, :]) % p
        rank[found] += 1
    return R, rank


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of A over F_p."""
    return int(rref_mod_p(A[None], p)[1][0])


def kernel_vector_mod_p(A: np.ndarray, p: int):
    """A nonzero v with A v = 0 over F_p (first free column set to 1), or None."""
    R, rank = rref_mod_p(A[None], p)
    rows = R[0, :rank[0]]
    pivots = [int(c) for c in (rows != 0).argmax(axis=1)]
    free = next((c for c in range(A.shape[1]) if c not in pivots), None)
    if free is None:
        return None
    v = np.zeros(A.shape[1], dtype=np.int64)
    v[free] = 1
    v[pivots] = -rows[:, free] % p
    return v


def inverse_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p, read off the reduced rows of [A | I]."""
    n = A.shape[0]
    R = rref_mod_p(np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)[None], p)[0][0]
    if not np.array_equal(R[:, :n], np.eye(n)):  # the pivots are not columns 0..n-1
        raise ValueError("matrix is singular mod p")
    return R[:, n:]


def _sandwiches(view: FpView, X: np.ndarray) -> np.ndarray:
    """Digits of e_a * x * e_b over basis pairs (a, b), per row x of X.

    Returns a (len(X), dim**2, dim) stack.  The e_a span the ring, so the
    rows of one matrix span the two-sided ideal generated by its x.  Two
    contractions with the structure tensor build them: e_a * x, then its
    products with every e_b, each one `matmul_mod_p`.
    """
    T, d, p = view.tensor(), view.dim, view.p
    left = matmul_mod_p(X, T.transpose(1, 0, 2).reshape(d, d * d), p)
    return matmul_mod_p(left.reshape(-1, d), T.reshape(d, d * d), p).reshape(len(X), d * d, d)


def brute_force_ideals(Q: QuotientRing) -> list[frozenset]:
    """Every two-sided ideal of Q, as element-encoding sets.

    Independent of the structural classification: it reads only the F_p
    structure tensor.  The principal ideal Q x Q of every element x is
    reduced in stacked blocks of FP_BLOCK_ENTRIES // dim**3 elements, so no
    block intermediate exceeds FP_BLOCK_ENTRIES entries; ideals are told
    apart by their reduced rows, and the lattice is completed under
    pairwise joins, reduced in stacks the same way.  Requires prime
    characteristic and at most IDEAL_BRUTE_LIMIT elements.
    """
    if Q.cardinality > IDEAL_BRUTE_LIMIT:
        raise TooLargeToEnumerate(
            f"{Q.cardinality} elements exceed the brute-force limit {IDEAL_BRUTE_LIMIT}"
        )
    view = FpView.of(Q)
    d, p = view.dim, view.p
    seen = {}

    def collect(stack):
        for rows in stack:
            seen.setdefault(rows.tobytes(), rows)

    # an ideal has dimension at most dim: rows from dim on reduce to zero
    E = digit_rows(p, d)
    step = max(1, FP_BLOCK_ENTRIES // d ** 3)
    for lo in range(0, len(E), step):
        collect(rref_mod_p(_sandwiches(view, E[lo:lo + step]), p)[0][:, :d])
    # join closure: join each new ideal with every earlier one
    items, joined = list(seen.values()), 1
    step = max(1, FP_BLOCK_ENTRIES // (2 * d * d))
    while joined < len(items):
        pairs = [(i, j) for j in range(joined, len(items)) for i in range(j)]
        joined = len(items)
        for lo in range(0, len(pairs), step):
            stack = np.array([np.concatenate([items[i], items[j]]) for i, j in pairs[lo:lo + step]])
            collect(rref_mod_p(stack, p)[0][:, :d])
        items = list(seen.values())
    out = [view.span_encodings(rows[rows.any(axis=1)]) for rows in items]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


# -- abstract finite fields ---------------------------------------------------------


def _poly_divmod_p(num, den, p):
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * inv_lead % p
        quot[i - dn] = c
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_irreducible_p(coeffs, p) -> bool:
    m = len(coeffs) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod_p(coeffs, den, p)
            if rem == [0]:
                return False
    return True


class FiniteField(Keyed):
    """F_{p^m} as F_p[t]/(modulus); elements encode as base-p integers.

    The modulus is the lexicographically smallest monic irreducible of
    degree m (coefficients compared low degree first), so fields are
    reproducible across runs.
    """

    __slots__ = ("p", "m", "size", "modulus", "_gen")

    def __init__(self, p: int, m: int):
        if m < 1:
            raise ValueError("extension degree must be positive")
        # size first, as a prime test of a huge p is slow; p >= 2 bounds m unbuilt
        if m >= ENUM_LIMIT.bit_length() or p ** m > ENUM_LIMIT:
            raise ValueError(f"F_{p}^{m} exceeds the enumeration limit {ENUM_LIMIT}")
        if not _is_prime_int(p):
            raise ValueError(f"the characteristic {p} is not prime")
        self.p = p
        self.m = m
        self.size = p ** m
        for tail in itertools.product(range(p), repeat=m):
            # candidate coefficients, low degree first, monic
            if _poly_irreducible_p(list(tail) + [1], p):
                self.modulus = tail + (1,)
                break
        else:  # pragma: no cover
            raise ValueError("no irreducible polynomial found")
        self._gen = None

    key = property(attrgetter("p", "modulus"))

    def __repr__(self):
        return f"FiniteField(F_{self.size})"

    def element(self, val: int) -> "FFElement":
        if not 0 <= val < self.size:
            raise ValueError(f"value {val} outside field of size {self.size}")
        return FFElement(self, val)

    @property
    def zero(self) -> "FFElement":
        return FFElement(self, 0)

    @property
    def one(self) -> "FFElement":
        return FFElement(self, 1)

    def elements(self):
        return (FFElement(self, v) for v in range(self.size))

    def generator(self) -> "FFElement":
        """Smallest element (by encoding) generating the multiplicative group."""
        if self._gen is None:
            self._gen = smallest_generator(
                list(self.elements())[1:], self.size - 1, pow, self.one)
        return self._gen


def smallest_generator(nonzero, order: int, pow, one):
    """First x of `nonzero` of multiplicative order `order`.

    x generates the cyclic group of that order when x^(order/q) != one for
    every prime q dividing it; with order 1 the first element qualifies.
    Shared by `FiniteField` and `structure.ComponentField`.
    """
    primes = _prime_factors(order)
    for x in nonzero:
        if all(pow(x, order // q) != one for q in primes):
            return x
    raise WrongCase(f"no element of multiplicative order {order}")


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class FFElement(RingElement):
    """Element of an abstract finite field, encoded as a base-p integer."""

    __slots__ = ("val",)

    def __init__(self, field: FiniteField, val: int):
        self.ring = field
        self.val = val

    @property
    def key(self) -> tuple[int]:
        return (self.val,)

    def __add__(self, other):
        self._check(other)
        F = self.ring
        a, b = radix_decode(self.val, F.p, F.m), radix_decode(other.val, F.p, F.m)
        return FFElement(F, radix_encode([(u + v) % F.p for u, v in zip(a, b)], F.p))

    def __neg__(self):
        F = self.ring
        return FFElement(F, radix_encode([-c % F.p for c in radix_decode(self.val, F.p, F.m)], F.p))

    def __mul__(self, other):
        if isinstance(other, int):
            other = FFElement(self.ring, other % self.ring.p)
        self._check(other)
        F = self.ring
        a, b = radix_decode(self.val, F.p, F.m), radix_decode(other.val, F.p, F.m)
        prod = [0] * (2 * F.m - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    prod[i + j] = (prod[i + j] + u * v) % F.p
        _, rem = _poly_divmod_p(prod + [0], list(F.modulus), F.p)
        rem += [0] * (F.m - len(rem))
        return FFElement(F, radix_encode(rem, F.p))

    def __pow__(self, e: int):
        """x^e; a negative exponent inverts through x^(q-2)."""
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero has no inverse")
            return super().__pow__(self.ring.size - 2) ** -e
        return super().__pow__(e)

    def __str__(self):
        coeffs = radix_decode(self.val, self.ring.p, self.ring.m)
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in F_{self.ring.size}>"
