"""Structure of the finite quotients Lambda/q^s Lambda.

Each quotient of the natural order by a prime power of the base ring falls
into one of six shapes, split along two axes: whether the prime is inert or
split in O_K, and whether the twisting unit u stays invertible in the
residue ring.  When u is invertible the quotient is a full matrix ring and
we produce an explicit isomorphism certificate:

* s = 1: solve a norm equation to replace z by an element y with y^n = 1,
  then send x to its multiplication action on the residue ring of O_K
  (`build_matrix_iso_s1`).
* s > 1: pull the matrix units of the s = 1 image back, lift them through
  the nilpotent kernel by idempotent refinement and corner corrections, and
  read matrix entries off the lifted units (`lift_matrix_iso_power`).

When u falls into the prime the quotient is never a matrix ring; instead its
two-sided ideals form a completely explicit lattice: a chain of powers of z
in the inert case, and a cyclic staircase of monomial ideals in the split
case (`enumerate_monomial_ideals`).  Every lattice entry, the q^t chain of
the unit cases included, is built by `residue.quotient_ideal`; its size and
element set are computed when read, and `StructureReport.to_dict` reads sizes.

`verify_isomorphism` checks certificates against nothing but ring axioms:
exact spot products, a kernel rank over the prime field, cardinality count,
and bulk product checks run through numpy on the structure tensors of both
sides.  Both sides are linearized over F_p by `residue.FpView`; matrices are
`MatElement`s, `residue.CodeElement`s of entry codes.  A certificate is never
trusted until it has survived this.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .base_rings import Keyed, ResidueTable, divides, one_hot, power
from .errors import (
    IncompatibleAlgebras,
    LiftDivergence,
    TooLargeToEnumerate,
    UnsupportedCase,
    VerificationFailed,
    WrongCase,
    ZeroTarget,
)
from .extension import IdealSpec
from .order import AlgebraSpec, digit_rows
from .residue import (
    ENUM_LIMIT,
    ROW_BLOCK,
    CodeElement,
    FpView,
    GcaElement,
    QuotientRing,
    ResidueElement,
    ResidueRing,
    Splitting,
    factor_prime,
    inverse_mod_p,
    kernel_vector_mod_p,
    matmul_mod_p,
    quotient_ideal,
    quotient_of,
    rank_mod_p,
    skew_poly_ideal_chain,
    smallest_generator,
)

# Pair-product checks switch from all pairs to sampling above this count.
PAIR_EXHAUSTIVE_LIMIT = 1 << 18
# Sampled pair counts for the two verification modes.
PAIR_SAMPLE_EXHAUSTIVE = 100_000
PAIR_SAMPLE = 10_000
# Object-level (non-linearized) product checks per verification run.
SPOT_CHECKS = 200
# Largest residue ring O_K/qO_K whose component-field elements are listed,
# which the generator search of the norm equation needs.
NORM_SCAN_LIMIT = 1 << 16


class QuotientCase(enum.Enum):
    """The six classified shapes of Lambda/q^s Lambda for unramified q."""

    INERT_UNIT = "InertUnit"
    INERT_NILPOTENT = "InertNilpotent"
    INERT_UNIT_POWER = "InertUnitPower"
    SPLIT_UNIT = "SplitUnit"
    SPLIT_NILPOTENT = "SplitNilpotent"
    SPLIT_UNIT_POWER = "SplitUnitPower"


# -- matrix rings over a residue table ----------------------------------------------


class MatRing(Keyed):
    """Square matrices over the residue ring O_F/(alpha^s), entries as table codes."""

    __slots__ = ("table", "n", "label", "_fp_view")

    def __init__(self, table: ResidueTable, n: int, label: str | None = None):
        self.table = table
        self.n = n
        self.label = label or f"M_{n}(R_{table.size})"
        self._fp_view = None

    @property
    def cardinality(self) -> int:
        return self.table.size ** (self.n * self.n)

    key = property(attrgetter("n", "table"))

    def __repr__(self):
        return f"MatRing({self.label})"

    def element(self, entries) -> "MatElement":
        rows = [tuple(int(c) for c in row) for row in entries]
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"expected a {self.n} x {self.n} matrix")
        return MatElement(self, sum(rows, ()))

    @property
    def zero(self) -> "MatElement":
        return MatElement(self, (self.table.zero,) * self.n ** 2)

    @property
    def one(self) -> "MatElement":
        return self.scalar(self.table.one)

    def scalar(self, code: int) -> "MatElement":
        n, z = self.n, self.table.zero
        return MatElement(self, tuple(z if k % (n + 1) else code for k in range(n * n)))

    def unit(self, i: int, j: int) -> "MatElement":
        """The matrix unit e_ij (single one at row i, column j)."""
        n = self.n
        return MatElement(self, one_hot(n * n, i * n + j, self.table.one, self.table.zero))

    def flat_codes(self, m: "MatElement") -> tuple[int, ...]:
        return m.codes

    def from_flat_codes(self, codes) -> "MatElement":
        return MatElement(self, tuple(codes))


class MatElement(CodeElement):
    """Matrix over a residue table: the table codes of its entries, row-major."""

    __slots__ = ()

    def _mul(self, other):
        n = self.ring.n
        add, mul = self.ring.table.add, self.ring.table.mul
        a, b = self.codes, other.codes
        out = []
        for r in range(0, n * n, n):
            for c in range(n):
                acc = self.ring.table.zero
                for k in range(n):
                    acc = add[acc][mul[a[r + k]][b[k * n + c]]]
                out.append(acc)
        return MatElement(self.ring, tuple(out))

    def __str__(self):
        dec, n = self.ring.table.decode, self.ring.n
        rows = ", ".join(
            "[" + ", ".join(str(dec(c)) for c in self.codes[r:r + n]) + "]"
            for r in range(0, n * n, n)
        )
        return f"[{rows}]"

    def __repr__(self):
        return f"<{self} in {self.ring.label}>"


# -- norm equations in component fields ---------------------------------------------


class ComponentField:
    """One simple component v*S of a residue ring S = O_K/qO_K.

    v is a primitive idempotent acting as the component identity; sigma^step
    stabilizes the component and generates its automorphisms over the base
    residue field F_P, so the component is a field with P^f elements.
    """

    __slots__ = ("S", "v", "f", "step")

    def __init__(self, S: ResidueRing, v: ResidueElement, f: int, step: int):
        self.S = S
        self.v = v
        self.f = f
        self.step = step

    @property
    def size(self) -> int:
        return self.S.table.size ** self.f

    def elements(self) -> list[ResidueElement]:
        if self.S.size > NORM_SCAN_LIMIT:
            raise TooLargeToEnumerate(
                f"component of a ring with {self.S.size} elements"
            )
        seen = {}
        for s in self.S.elements(limit=NORM_SCAN_LIMIT):
            x = self.S.mul(self.v, s)
            seen.setdefault(x.encode(), x)
        out = [seen[k] for k in sorted(seen)]
        _require(len(out) == self.size, "component has unexpected cardinality")
        return out

    def pow(self, x: ResidueElement, e: int) -> ResidueElement:
        return power(x, e, self.v, self.S.mul)

    def inv(self, x: ResidueElement) -> ResidueElement:
        if x.is_zero:
            raise ZeroDivisionError("zero has no inverse in the component field")
        return self.pow(x, self.size - 2)

    def norm(self, x: ResidueElement) -> ResidueElement:
        """Product of the f conjugates of x under sigma^step."""
        acc = self.v
        y = x
        for _ in range(self.f):
            acc = self.S.mul(acc, y)
            y = y.sigma(self.step)
        return acc

    def generator(self) -> ResidueElement:
        """Smallest multiplicative generator of the component, by encoding."""
        return smallest_generator(
            (x for x in self.elements() if not x.is_zero), self.size - 1, self.pow, self.v)


def solve_norm_equation(component: ComponentField, target: ResidueElement) -> ResidueElement:
    """Find k in the component field whose norm to F_P equals target.

    Walks k = g^e for e = 0, 1, ... over the powers of the generator g and
    returns the first k whose product of conjugates is target.  On the
    cyclic unit group the norm is the power map x -> x^M with
    M = (Q-1)/(P-1), so N(g^e) = g^(M e) depends only on e mod P-1, and
    g^0, ..., g^(M (P-2)) are the P-1 distinct units of F_P.  A unit target
    in F_P is therefore met with e < P-1.  WrongCase is raised once all Q-1
    units are walked, which happens only for a target outside F_P.
    """
    if target.is_zero:
        raise ZeroTarget("norm equations are only posed for unit targets")
    g, k = component.generator(), component.v
    for _ in range(component.size - 1):
        if component.norm(k) == target:
            return k
        k = component.S.mul(k, g)
    raise WrongCase("target is outside the image of the component norm")


# -- isomorphism certificates -------------------------------------------------------


@dataclass
class IsoCertificate:
    """Images of the quotient generators in a matrix ring, plus evaluation.

    The forward map is determined by the images of the residue power basis
    (sitting at z^0) and of z: it is additive, O_F/(alpha^s)-linear on
    coefficients, and multiplicative, so
    forward(sum_j s_j z^j) = sum_j lambda(s_j) * z_image^j.
    """

    source: QuotientRing
    target: MatRing
    basis_images: tuple
    z_image: MatElement
    verified: bool = False

    def __post_init__(self):
        terms, zj = [], self.target.one
        for _ in range(self.source.n):
            terms.append([b * zj for b in self.basis_images])
            zj = zj * self.z_image
        self._terms = terms

    def forward(self, x: GcaElement) -> MatElement:
        """sum c_ij * (basis_images[i] * z_image^j) over x = sum c_ij b_i z^j.

        The products are cached; scalar matrices are central, so scaling a
        product scales its left factor.  The sum runs on one flat list of
        entry codes, through the table's `mul` and `add` rows.  The map is
        F_p-linear: the c_ij in O_F/(alpha^s) are additive in x, scaling
        distributes over sums, and F_p is the prime subring of O_F/(alpha^s).
        So the images of an F_p basis fix it, which `verify_isomorphism`
        linearizes.
        """
        if x.ring != self.source:
            raise IncompatibleAlgebras("element is not in the certificate's source")
        zero, table = self.source.S.table.zero, self.target.table
        add, acc = table.add, self.target.zero.codes
        for terms, s in zip(self._terms, x.zcoords):
            for term, code in zip(terms, s.codes):
                if code != zero:
                    mul = table.mul[code]
                    acc = [add[a][mul[b]] for a, b in zip(acc, term.codes)]
        return MatElement(self.target, tuple(acc))

    def linearization(self) -> tuple[FpView, FpView, np.ndarray]:
        """(source view, target view, Phi): the F_p matrix of `forward`, whose
        column a holds the target digits of the image of source basis e_a."""
        sview, tview = FpView.of(self.source), FpView.of(self.target)
        images = [tview.digits(self.forward(e)) for e in sview.basis_elements()]
        return sview, tview, np.array(images, dtype=np.int64).T


def _mult_matrix(mat: MatRing, S: ResidueRing, s: ResidueElement) -> MatElement:
    """Matrix of multiplication by s on S, columns = coordinates of s * b_c."""
    return mat.element(zip(*(S.mul(s, S.basis(c)).codes for c in range(S.n))))


def _require(holds: bool, message: str) -> None:
    """A certificate invariant, checked under every interpreter flag."""
    if not holds:
        raise VerificationFailed(message)


def build_matrix_iso_s1(algebra: AlgebraSpec, ideal: IdealSpec) -> IsoCertificate:
    """Certificate Lambda/q Lambda = M_n(F_P) when u is a unit mod q.

    Solves the norm equation N(k) = 1/u in the first component field, sets
    w = k on that component and 1 elsewhere, and replaces z by y = w z which
    satisfies y^n = 1.  The quotient then acts on S = O_K/qO_K by
    multiplication and sigma, which is everything M_n(F_P) has.
    """
    if ideal.s != 1:
        raise WrongCase("expected a prime ideal, not a proper power")
    Q = quotient_of(algebra, ideal)
    S = Q.S
    table = S.table
    n = Q.n
    ucode = table.encode(algebra.u)
    if table.inv[ucode] is None:
        raise WrongCase("u is not a unit modulo the prime")
    split = factor_prime(algebra.ext, ideal.alpha)
    v1 = split.idempotents[0]
    comp = ComponentField(S, v1, split.f, split.g)
    target = v1 * table.decode(table.inv[ucode])
    k = solve_norm_equation(comp, target)
    rest = S.one - v1
    w = k + rest
    w_inv = comp.inv(k) + rest
    _require(S.mul(w, w_inv) == S.one, "w is not invertible")
    y = Q.from_residue(w) * Q.z
    _require(y ** n == Q.one, "y = w z does not have y^n = 1")

    mat = MatRing(table, n, label=f"M_{n}(F_{table.size})")
    T = mat.element(zip(*(S.basis(j).sigma().codes for j in range(n))))
    basis_images = tuple(_mult_matrix(mat, S, S.basis(i)) for i in range(n))
    z_image = _mult_matrix(mat, S, w_inv) * T

    # crossed-product relations, all exact
    _require(T ** n == mat.one, "sigma matrix does not have order dividing n")
    for i in range(n):
        bi = S.basis(i)
        _require(T * _mult_matrix(mat, S, bi) == _mult_matrix(mat, S, bi.sigma()) * T,
                 f"sigma matrix does not twist basis element {i}")
    _require(z_image ** n == mat.scalar(ucode), "z image does not satisfy z^n = u")

    cert = IsoCertificate(
        source=Q,
        target=mat,
        basis_images=basis_images,
        z_image=z_image,
    )
    _require(cert.forward(Q.one) == mat.one, "1 must map to the identity")
    _require(cert.forward(y) == T, "y must map to the sigma matrix")
    return cert


def _lift_idempotent(x: GcaElement, s: int) -> GcaElement:
    """Refine x to an exact idempotent; its reduction mod q must already be one."""
    for _ in range(s + 2):
        if x * x == x:
            return x
        x2 = x * x
        x = 3 * x2 - 2 * (x2 * x)
    raise LiftDivergence("idempotent refinement did not stabilize")


def lift_matrix_iso_power(algebra: AlgebraSpec, ideal: IdealSpec) -> IsoCertificate:
    """Certificate Lambda/q^s Lambda = M_n(O_F/q^s) for s > 1, u a unit mod q.

    The kernel of reduction to the s = 1 quotient is nilpotent, so the
    matrix units of the s = 1 image lift: diagonal idempotents by the
    3e^2 - 2e^3 refinement inside shrinking corners, off-diagonal units by
    correcting one factor of each e_1j, e_j1 pair with the inverse of their
    product on the corner (a finite geometric series).  Matrix entries of
    the lifted map are read off by corner extraction.
    """
    if ideal.s < 2:
        raise WrongCase("expected a proper prime power")
    cert1 = build_matrix_iso_s1(algebra, IdealSpec(alpha=ideal.alpha, s=1))
    Q1 = cert1.source
    Qs = quotient_of(algebra, ideal)
    S = Qs.S
    table = S.table
    n = Qs.n

    # pull the s = 1 matrix units back through the linear inverse of cert1
    sview, tview, Phi = cert1.linearization()
    p = sview.p
    try:
        Phi_inv = inverse_mod_p(Phi, p)
    except ValueError as exc:  # pragma: no cover - cert1 is checked at build
        raise VerificationFailed("s = 1 certificate is not bijective") from exc
    ebar = {}
    for i in range(n):
        for j in range(n):
            digs = matmul_mod_p(Phi_inv, tview.digits(cert1.target.unit(i, j)), p)
            ebar[(i, j)] = sview.element(digs)

    def up(x1: GcaElement) -> GcaElement:
        return Qs.reduce(Q1.lift(x1))

    def down(xs: GcaElement) -> GcaElement:
        return Q1.reduce(Qs.lift(xs))

    # diagonal idempotents, lifted inside shrinking corners so they stay orthogonal
    es = []
    corner = Qs.one
    for i in range(n - 1):
        x = corner * up(ebar[(i, i)]) * corner
        x = _lift_idempotent(x, ideal.s)
        if down(x) != ebar[(i, i)]:
            raise LiftDivergence("lifted idempotent left its reduction class")
        es.append(x)
        corner = corner - x
    if corner * corner != corner or down(corner) != ebar[(n - 1, n - 1)]:
        raise LiftDivergence("final corner idempotent is inconsistent")
    es.append(corner)

    units = [[Qs.zero] * n for _ in range(n)]
    units[0][0] = es[0]
    for j in range(1, n):
        units[j][j] = es[j]
        a = es[0] * up(ebar[(0, j)]) * es[j]
        b = es[j] * up(ebar[(j, 0)]) * es[0]
        t = a * b
        delta = es[0] - t
        inv = es[0]
        term = es[0]
        for _ in range(ideal.s):
            term = term * delta
            inv = inv + term
        if t * inv != es[0] or inv * t != es[0]:
            raise LiftDivergence("corner product is not invertible")
        units[0][j] = a
        units[j][0] = b * inv
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                units[i][j] = units[i][0] * units[0][j]

    # exact matrix-unit relations
    if sum((units[i][i] for i in range(n)), Qs.zero) != Qs.one:
        raise LiftDivergence("lifted diagonal units do not sum to 1")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    prod = units[i][j] * units[k][l]
                    expect = units[i][l] if j == k else Qs.zero
                    if prod != expect:
                        raise LiftDivergence(
                            f"matrix unit relation e{i}{j} e{k}{l} failed"
                        )

    # corner extraction: e_1k x e_l1 = r * e_11 with r in O_F/(alpha^s)
    e00 = units[0][0]
    flat00 = Qs.flat_codes(e00)
    pos = next(
        (idx for idx, c in enumerate(flat00) if table.inv[c] is not None), None
    )
    if pos is None:
        raise LiftDivergence("corner idempotent has no unit coordinate")
    inv0 = table.inv[flat00[pos]]

    def extract(c: GcaElement) -> int:
        ccode = Qs.flat_codes(c)[pos]
        r = table.mul[ccode][inv0]
        if c != e00 * table.decode(r):
            raise VerificationFailed("corner element is not a scalar multiple of e11")
        return r

    mat = MatRing(
        table,
        n,
        label=f"M_{n}({table.base.kind.value} mod {ideal})",
    )

    def phi(x: GcaElement) -> MatElement:
        return MatElement(mat, tuple(extract(units[0][r] * x * units[c][0])
                                     for r in range(n) for c in range(n)))

    basis_images = tuple(phi(Qs.from_residue(S.basis(i))) for i in range(n))
    z_image = phi(Qs.z)
    _require(basis_images[0] == mat.one, "1 must map to the identity")
    _require(z_image ** n == mat.scalar(table.encode(algebra.u)),
             "z image does not satisfy z^n = u")

    cert = IsoCertificate(
        source=Qs,
        target=mat,
        basis_images=basis_images,
        z_image=z_image,
    )
    # the linear evaluation must agree with direct corner extraction
    rng = random.Random(7)
    for _ in range(20):
        x = Qs.random_element(rng)
        if cert.forward(x) != phi(x):
            raise VerificationFailed("linear evaluation disagrees with extraction")
    return cert


# -- monomial ideals in the split nilpotent case ------------------------------------


def stairwell_contains(anchor, probe, g: int, n: int) -> bool:
    """Is the monomial v_p z^q in the two-sided ideal generated by v_i z^j?

    Components are indexed 1..g cyclically (v_{p+g} = v_p), powers 0..n-1.
    Multiplying v_i z^j by z on the left moves to v_{i+1} z^{j+1}, so the
    ideal reaches (p, q) exactly when q >= j + ((p - i) mod g).
    """
    i, j = anchor
    p, q = probe
    if not 0 <= q < n:
        return False
    d = (p - i) % g
    return j + d <= q


@dataclass(frozen=True)
class MonomialIdeal:
    """A two-sided ideal generated by monomials v_i z^j.

    generators holds the minimal generating monomials sorted by (i, j);
    thresholds[p-1] is the least q with v_p z^q in the ideal (n if none).
    """

    g: int
    n: int
    generators: tuple
    thresholds: tuple

    @property
    def symbol_count(self) -> int:
        """Number of monomials in the ideal (its component-field dimension)."""
        return sum(self.n - t for t in self.thresholds)

    def __str__(self):
        if not self.generators:
            return "0"
        if all(t == 0 for t in self.thresholds):
            return "ring"
        parts = []
        for i, j in self.generators:
            if j == 0:
                parts.append(f"v{i}")
            elif j == 1:
                parts.append(f"v{i} z")
            else:
                parts.append(f"v{i} z^{j}")
        return "<" + ", ".join(parts) + ">"


def enumerate_monomial_ideals(algebra: AlgebraSpec, ideal: IdealSpec) -> list[MonomialIdeal]:
    """All two-sided ideals of Lambda/q Lambda when u lies in the split prime q.

    Every ideal is spanned by the monomials v_p z^q it contains, and the set
    of thresholds t_p = min q is an arbitrary vector in {0..n}^g subject to
    the cyclic staircase condition t_{p+1} <= t_p + 1.  Enumerating those
    vectors directly produces each ideal exactly once; minimal generators
    are the anchors no other anchor's stairwell covers.
    """
    if ideal.s != 1:
        raise WrongCase("monomial lattices are classified at s = 1 only")
    Q = quotient_of(algebra, ideal)
    if not Q.ubar.is_zero:
        raise WrongCase("u is a unit modulo the prime; the quotient is a matrix ring")
    split = factor_prime(algebra.ext, ideal.alpha)
    g, n = split.g, Q.n
    out = []
    for t in itertools.product(range(n + 1), repeat=g):
        if any(t[(p + 1) % g] > t[p] + 1 for p in range(g)):
            continue
        anchors = [(p + 1, t[p]) for p in range(g) if t[p] < n]
        minimal = tuple(
            sorted(
                a
                for a in anchors
                if not any(
                    b != a and stairwell_contains(b, a, g, n) for b in anchors
                )
            )
        )
        out.append(
            MonomialIdeal(g=g, n=n, generators=minimal, thresholds=tuple(t))
        )
    out.sort(key=lambda m: (-m.symbol_count, m.generators))
    return out


def monomial_generator_elements(Q: QuotientRing, split: Splitting, mi: MonomialIdeal):
    """The generators of a monomial ideal as actual quotient elements."""
    out = []
    for i, j in mi.generators:
        out.append(Q.from_residue(split.idempotents[i - 1]) * Q.z ** j)
    return tuple(out)


# -- verification -------------------------------------------------------------------


class VerifyMode(enum.Enum):
    EXHAUSTIVE = "Exhaustive"
    SAMPLED = "Sampled"


@dataclass(frozen=True)
class VerificationReport:
    """What a certificate check actually looked at."""

    mode: VerifyMode
    source_cardinality: int
    target_cardinality: int
    rank: int
    dim: int
    elements_enumerated: int
    pairs_checked: int
    pairs_exhaustive: bool
    exact_spot_checks: int
    passed: bool


def _fail(message: str, pair=None):
    err = VerificationFailed(message)
    err.pair = pair
    raise err


def sampled_pair_blocks(p: int, dim: int, count: int, seed: int):
    """`count` random digit pairs (X, Y) in ROW_BLOCK-row blocks of dtype
    `np.min_scalar_type(p - 1)`: the stream of drawing X and then Y whole from
    `np.random.default_rng(seed)`.  Y's own generator first skips X's draws in
    the same int64 chunks, whose stream is the whole draw's (uint8 chunks' is not)."""
    sizes = [min(ROW_BLOCK, count - lo) for lo in range(0, count, ROW_BLOCK)]
    gx, gy = np.random.default_rng(seed), np.random.default_rng(seed)
    for rows in sizes:
        gy.integers(0, p, size=(rows, dim), dtype=np.int64)
    narrow = np.min_scalar_type(p - 1)
    for rows in sizes:
        yield (gx.integers(0, p, size=(rows, dim), dtype=np.int64).astype(narrow),
               gy.integers(0, p, size=(rows, dim), dtype=np.int64).astype(narrow))


def exhaustive_pair_blocks(E: np.ndarray):
    """Every pair (E[i // N], E[i % N]) of the N rows of E, ROW_BLOCK pairs a block."""
    N = len(E)
    for lo in range(0, N * N, ROW_BLOCK):
        i = np.arange(lo, min(N * N, lo + ROW_BLOCK))
        yield E[i // N], E[i % N]


def verify_isomorphism(
    cert: IsoCertificate,
    mode: VerifyMode = VerifyMode.EXHAUSTIVE,
    seed: int = 0,
) -> VerificationReport:
    """Check an isomorphism certificate against ring axioms only.

    Always performed: exact object-level product/sum spot checks, agreement
    of the exact map with its F_p linearization, kernel rank of the
    linearization (injectivity), and cardinality equality (surjectivity).
    Exhaustive mode additionally maps every element and insists the images
    are pairwise distinct, and checks every product pair when there are at
    most PAIR_EXHAUSTIVE_LIMIT of them; otherwise products are sampled.
    Last, Phi(e_a * e_b) = Phi(e_a) * Phi(e_b) on the dim**2 basis pairs
    and Phi(1) = 1: as Phi is F_p-linear and both products are bilinear,
    they prove multiplicativity, so every mode proves a ring isomorphism.
    Behind that basis-pair proof and the rank check, the image check and
    the bulk pair check are defence in depth.  Only the N int64 image keys,
    and one sorted copy of them, are held at full size; image rows, pairs
    (`exhaustive_pair_blocks`, `sampled_pair_blocks`) and products exist one
    block of ROW_BLOCK rows at a time, as digits of the narrowest dtype that
    holds p - 1.  Every product mod p is a BLAS float
    product (`matmul_mod_p`, `FpView.mul_digits`) in the `exact_float` dtype
    of its largest integer sum, float32 for every certify quotient: sums of
    nonnegative integers below 2**24 are exact in float32 in any order.
    Raises VerificationFailed carrying a counterexample pair, the lowest
    failing one for the product checks.
    """
    Q = cert.source
    N = Q.cardinality
    if mode is VerifyMode.EXHAUSTIVE and N > ENUM_LIMIT:
        raise TooLargeToEnumerate(
            f"{N} elements exceed the exhaustive verification limit {ENUM_LIMIT}"
        )
    sview, tview, Phi = cert.linearization()
    p = sview.p
    dim = sview.dim

    # exact spot checks: the certificate map itself, no linearization shortcuts
    rng = random.Random(seed)
    spots = 0
    for _ in range(SPOT_CHECKS):
        x = Q.random_element(rng)
        y = Q.random_element(rng)
        fx, fy = cert.forward(x), cert.forward(y)
        if cert.forward(x + y) != fx + fy:
            _fail(f"additivity fails at x = {x}, y = {y}", (x, y))
        if cert.forward(x * y) != fx * fy:
            _fail(f"multiplicativity fails at x = {x}, y = {y}", (x, y))
        if tuple(matmul_mod_p(Phi, sview.digits(x), p).tolist()) != tview.digits(fx):
            _fail(f"linearization disagrees with the map at x = {x}", (x, x))
        spots += 1

    rank = rank_mod_p(Phi, p)
    if rank < dim:
        kv = kernel_vector_mod_p(Phi, p)
        xk = sview.element(kv)
        _fail(f"map has nontrivial kernel containing {xk}", (xk, Q.zero))

    tcard = cert.target.cardinality
    if N != tcard:
        _fail(f"cardinalities differ: source {N}, target {tcard}")

    elements_enumerated = 0
    if mode is VerifyMode.EXHAUSTIVE:
        _require(N == p ** dim, "prime-characteristic digit count must match")
        # most significant digit first: keys sort like the image rows
        place = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        keys = np.empty(N, dtype=np.int64)
        for lo in range(0, N, ROW_BLOCK):
            imgs = matmul_mod_p(digit_rows(p, dim, lo, min(N, lo + ROW_BLOCK)), Phi.T, p)
            keys[lo:lo + len(imgs)] = imgs @ place
        sorted_keys = np.sort(keys)
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            # on failure only: the stable order names the two lowest indices
            # that share the smallest shared key
            order = np.argsort(keys, kind="stable")
            dup = np.nonzero(keys[order[1:]] == keys[order[:-1]])[0]
            x1, x2 = (sview.element(digit_rows(p, dim, j, j + 1)[0])
                      for j in order[dup[0]:dup[0] + 2])
            _fail(f"two elements share an image: {x1} and {x2}", (x1, x2))
        del imgs, keys, sorted_keys
        elements_enumerated = N

    # bulk product checks over the linearized tensors, pairs made one block at a time
    pairs_exhaustive = mode is VerifyMode.EXHAUSTIVE and N * N <= PAIR_EXHAUSTIVE_LIMIT
    if pairs_exhaustive:
        count = N * N
        pairs = exhaustive_pair_blocks(digit_rows(p, dim).astype(np.min_scalar_type(p - 1)))
    else:
        count = PAIR_SAMPLE_EXHAUSTIVE if mode is VerifyMode.EXHAUSTIVE else PAIR_SAMPLE
        pairs = sampled_pair_blocks(p, dim, count, seed)

    def check_products(blocks, what):
        # in index order, so the first failing block holds the lowest failing pair;
        # only a block's mismatch mask outlives it, which lowers the peak memory
        for Xb, Yb in blocks:
            lhs = matmul_mod_p(sview.mul_digits(Xb, Yb), Phi.T, p)
            rhs = tview.mul_digits(matmul_mod_p(Xb, Phi.T, p), matmul_mod_p(Yb, Phi.T, p))
            bad = np.nonzero((lhs != rhs).any(axis=1))[0]
            if bad.size:
                x = sview.element(Xb[bad[0]])
                y = sview.element(Yb[bad[0]])
                _fail(f"{what} fails at x = {x}, y = {y}", (x, y))

    check_products(pairs, "product check")
    eye = np.eye(dim, dtype=np.int64)
    check_products([(np.repeat(eye, dim, axis=0), np.tile(eye, (dim, 1)))], "basis product check")
    if tuple(matmul_mod_p(Phi, sview.digits(Q.one), p).tolist()) != tview.digits(cert.target.one):
        _fail("1 does not map to the identity", (Q.one, Q.one))

    cert.verified = True
    return VerificationReport(
        mode=mode,
        source_cardinality=N,
        target_cardinality=tcard,
        rank=rank,
        dim=dim,
        elements_enumerated=elements_enumerated,
        pairs_checked=count,
        pairs_exhaustive=pairs_exhaustive,
        exact_spot_checks=spots,
        passed=True,
    )


# -- classification -----------------------------------------------------------------


@dataclass
class StructureReport:
    """Classification of one quotient: case, target shape, proof artifacts."""

    case: QuotientCase
    quotient: QuotientRing
    splitting: Splitting
    target: str
    certificate: IsoCertificate | None
    ideal_lattice: list

    @property
    def cardinality(self) -> int:
        return self.quotient.cardinality

    def to_dict(self) -> dict:
        big = self.cardinality > ENUM_LIMIT  # then the JSON keeps null for a generated ideal
        lattice = [{"label": I.label, "size": None if I.generators and big else I.size,
                    "generators": [str(x) for x in I.generators]} for I in self.ideal_lattice]
        cert = None
        if self.certificate is not None:
            cert = {
                "target": self.certificate.target.label,
                "z_image": str(self.certificate.z_image),
                "basis_images": [str(b) for b in self.certificate.basis_images],
                "verified": self.certificate.verified,
            }
        return {
            "case": self.case.value,
            "ideal": str(self.quotient.ideal),
            "g": self.splitting.g,
            "f": self.splitting.f,
            "cardinality": self.cardinality,
            "characteristic": self.quotient.char,
            "target": self.target,
            "certificate": cert,
            "ideal_lattice": lattice,
        }


def identify_quotient(algebra: AlgebraSpec, ideal: IdealSpec) -> StructureReport:
    """Classify Lambda/q^s Lambda and build its certificate or ideal lattice.

    Dispatches on whether q is inert or split (RamifiedPrime propagates from
    the splitting computation) and whether u is a unit mod q.  Unit cases
    come back with an unverified matrix-ring certificate; nilpotent cases
    come back with the full two-sided ideal lattice instead.
    """
    split = factor_prime(algebra.ext, ideal.alpha)
    Q = quotient_of(algebra, ideal)
    u_in_q = divides(ideal.alpha, algebra.u)
    g, n, s = split.g, Q.n, ideal.s

    if u_in_q and s > 1:
        raise UnsupportedCase(
            "u lies in q and s > 1: outside the classified cases"
        )

    if u_in_q:
        if g == 1:
            return StructureReport(
                case=QuotientCase.INERT_NILPOTENT,
                quotient=Q,
                splitting=split,
                target=f"F_{Q.S.size}[z; sigma] / (z^{n})",
                certificate=None,
                ideal_lattice=[quotient_ideal(Q, "ring", [Q.one])] + skew_poly_ideal_chain(Q),
            )
        monomials = enumerate_monomial_ideals(algebra, ideal)
        return StructureReport(
            case=QuotientCase.SPLIT_NILPOTENT,
            quotient=Q,
            splitting=split,
            target=(
                f"generalized cyclic algebra on {g} components "
                f"with {len(monomials)} monomial ideals"
            ),
            certificate=None,
            ideal_lattice=[quotient_ideal(Q, str(mi), monomial_generator_elements(Q, split, mi))
                           for mi in monomials],
        )

    if s == 1:
        cert = build_matrix_iso_s1(algebra, ideal)
        case = QuotientCase.INERT_UNIT if g == 1 else QuotientCase.SPLIT_UNIT
    else:
        cert = lift_matrix_iso_power(algebra, ideal)
        case = (
            QuotientCase.INERT_UNIT_POWER if g == 1 else QuotientCase.SPLIT_UNIT_POWER
        )
    return StructureReport(
        case=case,
        quotient=Q,
        splitting=split,
        target=cert.target.label,
        certificate=cert,
        # the chain ring > q > ... > q^s = 0, generated by the images of q^t
        ideal_lattice=[
            quotient_ideal(Q, "ring" if t == 0 else "0" if t == s else f"q^{t}",
                           [Q.one * ideal.alpha ** t])
            for t in range(s + 1)
        ],
    )
