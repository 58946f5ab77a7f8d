"""Coset codes over order quotients and minimum-determinant studies.

The pipeline: an outer code constrains tuples of quotient-ring symbols, a
lift pulls each symbol back to the order, and the resulting matrix tuples
are scored by the determinant of the summed Gram matrix.  Lower bounds for
that score come in four closed forms, and exhaustive box searches confirm
them on small instances.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .base_rings import BaseElement, divides
from .errors import (
    BadMessageLength,
    EmptyCode,
    FormulaMismatch,
    SearchBudgetExceeded,
    SingularInput,
    TooLargeToEnumerate,
    WrongCase,
)
from .extension import IdealSpec
from .order import AlgebraSpec, OrderElement, box_values
from .residue import (
    FiniteField,
    GcaElement,
    QuotientRing,
    ResidueElement,
    ResidueRing,
    quotient_of,
    residue_ring,
)

# determinant evaluations an exhaustive search may spend
SEARCH_BUDGET = 10 ** 8
# codewords an outer-code enumeration may visit
CODE_ENUM_LIMIT = 1 << 20
# matrices below this |det| are rejected as singular
SINGULAR_TOL = 1e-12
# slack allowed when comparing floating determinant scores
SCORE_TOL = 1e-9


# ---------------------------------------------------------------------------
# determinant-sum inequality
# ---------------------------------------------------------------------------

def det_inequality_check(mats) -> dict:
    """Check det(sum X_i X_i^*) >= (sum |det X_i|)^2 for square matrices.

    Returns {"lhs", "rhs", "holds", "margin"}.  Matrices with |det| below
    1e-12 are rejected with SingularInput so that the right hand side is
    built from genuinely invertible summands.
    """
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    if not arrs:
        raise ValueError("need at least one matrix")
    n = arrs[0].shape[0]
    for a in arrs:
        if a.ndim != 2 or a.shape != (n, n):
            raise ValueError(f"expected square {n}x{n} matrices, got {a.shape}")
    dets = [np.linalg.det(a) for a in arrs]
    for d in dets:
        if abs(d) <= SINGULAR_TOL:
            raise SingularInput(f"matrix determinant {abs(d):.3e} is numerically zero")
    gram = sum(a @ a.conj().T for a in arrs)
    lhs = abs(np.linalg.det(gram))
    rhs = sum(abs(d) for d in dets) ** 2
    holds = bool(lhs >= rhs - SCORE_TOL * max(1.0, rhs))
    return {"lhs": float(lhs), "rhs": float(rhs), "holds": holds,
            "margin": float(lhs - rhs)}


def run_lemma_trials(trials: int, n: int | None = None, k: int | None = None,
                     seed: int = 0) -> dict:
    """Monte Carlo sweep of det_inequality_check on random complex matrices.

    When n or k is omitted the trials cycle over sizes 2..4 and summand
    counts 1..3.  k = 1 trials additionally demand equality to 1e-12
    relative error, since both sides then compute |det X|^2.
    """
    rng = np.random.default_rng(seed)
    sizes = [n] if n is not None else [2, 3, 4]
    counts = [k] if k is not None else [1, 2, 3]
    violations = 0
    k1_trials = 0
    k1_failures = 0
    min_margin = float("inf")
    for t in range(trials):
        nn = sizes[t % len(sizes)]
        kk = counts[(t // len(sizes)) % len(counts)]
        mats = []
        while len(mats) < kk:
            a = rng.normal(size=(nn, nn)) + 1j * rng.normal(size=(nn, nn))
            if abs(np.linalg.det(a)) > SINGULAR_TOL:
                mats.append(a)
        rep = det_inequality_check(mats)
        if not rep["holds"]:
            violations += 1
        rel = rep["margin"] / max(1.0, rep["rhs"])
        min_margin = min(min_margin, rel)
        if kk == 1:
            k1_trials += 1
            if abs(rep["margin"]) > 1e-12 * max(1.0, rep["rhs"]):
                k1_failures += 1
    return {
        "trials": trials,
        "violations": violations,
        "k1_trials": k1_trials,
        "k1_equality_failures": k1_failures,
        "min_relative_margin": min_margin,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# outer codes
# ---------------------------------------------------------------------------

def _alphabet(ring):
    """(size, element iterator factory, zero) for a supported symbol ring."""
    if isinstance(ring, QuotientRing):
        return ring.cardinality, (lambda: ring.elements(ring.cardinality)), ring.zero
    if isinstance(ring, ResidueRing):
        return ring.size, (lambda: ring.elements(ring.size)), ring.zero
    if isinstance(ring, FiniteField):
        return ring.size, ring.elements, ring.zero
    raise TypeError(f"unsupported symbol ring {type(ring).__name__}")


def _min_parity_weight(symbols, zero, length: int) -> int:
    """Minimum Hamming weight over nonzero parity codewords, by enumeration."""
    best = length + 1
    for msg in itertools.product(symbols, repeat=length - 1):
        total = msg[0]
        for s in msg[1:]:
            total = total + s
        word = msg + (total,)
        weight = sum(1 for s in word if not (s == zero))
        if 0 < weight < best:
            best = weight
            if best == 1:
                break
    if best > length:
        raise EmptyCode("parity code has no nonzero codeword")
    return best


class ParityCode:
    """Length-L code whose last symbol is the sum of the first L - 1."""

    kind = "ParityOverRing"

    def __init__(self, ring, length: int):
        if length < 2:
            raise ValueError("parity code needs length at least 2")
        _alphabet(ring)  # validates the ring type
        self.ring = ring
        self.length = length

    @property
    def message_length(self) -> int:
        return self.length - 1

    def encode(self, message):
        if len(message) != self.length - 1:
            raise BadMessageLength(
                f"expected {self.length - 1} symbols, got {len(message)}")
        total = message[0]
        for s in message[1:]:
            total = total + s
        return tuple(message) + (total,)

    def codewords(self, limit: int = CODE_ENUM_LIMIT):
        size, elems, _zero = _alphabet(self.ring)
        total = size ** (self.length - 1)
        if total > limit:
            raise TooLargeToEnumerate(
                f"{total} codewords exceed the enumeration limit {limit}")
        pool = list(elems())
        for msg in itertools.product(pool, repeat=self.length - 1):
            yield self.encode(msg)

    def hamming_distance(self, limit: int = CODE_ENUM_LIMIT) -> int:
        size, elems, zero = _alphabet(self.ring)
        if size ** (self.length - 1) > limit:
            raise TooLargeToEnumerate(
                f"{size ** (self.length - 1)} codewords exceed the limit {limit}")
        return _min_parity_weight(list(elems()), zero, self.length)


class ReedSolomonCode:
    """Evaluation code over a finite field at the points 0, 1, g, g^2, ...

    Messages are polynomial coefficients in increasing degree; codewords
    are the evaluations at the first `length` points of the sequence.
    """

    kind = "ReedSolomon"

    def __init__(self, ff: FiniteField, length: int, dimension: int):
        if not 1 <= dimension <= length:
            raise ValueError("need 1 <= dimension <= length")
        if length > ff.size:
            raise ValueError(
                f"length {length} exceeds the field size {ff.size}")
        self.field = ff
        self.length = length
        self.dimension = dimension
        pts = [ff.zero]
        acc = ff.one
        gen = ff.generator()
        while len(pts) < length:
            pts.append(acc)
            acc = acc * gen
        self.points = tuple(pts)

    @property
    def message_length(self) -> int:
        return self.dimension

    def encode(self, message):
        if len(message) != self.dimension:
            raise BadMessageLength(
                f"expected {self.dimension} coefficients, got {len(message)}")
        out = []
        for p in self.points:
            val = self.field.zero
            for c in reversed(message):
                val = val * p + c
            out.append(val)
        return tuple(out)

    def codewords(self, limit: int = CODE_ENUM_LIMIT):
        total = self.field.size ** self.dimension
        if total > limit:
            raise TooLargeToEnumerate(
                f"{total} codewords exceed the enumeration limit {limit}")
        pool = list(self.field.elements())
        for msg in itertools.product(pool, repeat=self.dimension):
            yield self.encode(msg)

    def hamming_distance(self) -> int:
        # L - k + 1: evaluation codes at distinct points are MDS
        return self.length - self.dimension + 1


class FirstCoefficientCode:
    """Quotient-ring codewords whose constant coefficients form an inner
    codeword while every other coefficient ranges freely.

    The design distance is the inner code's distance, realized on the
    subcode with all free coefficients zero.  Codewords with a zero inner
    part but nonzero free coefficients can have smaller weight, which is
    what hamming_distance reports when asked to enumerate.
    """

    kind = "FirstCoefficientScheme"

    def __init__(self, quotient: QuotientRing, inner, symbol_map=None):
        self.quotient = quotient
        self.inner = inner
        self.symbol_map = symbol_map or (lambda s: s)
        self.length = inner.length

    @property
    def design_distance(self) -> int:
        return self.inner.hamming_distance()

    def _place(self, sym, free_row):
        s = self.symbol_map(sym)
        if not isinstance(s, ResidueElement) or s.ring is not self.quotient.S:
            raise WrongCase("inner symbols must map into the quotient's residue ring")
        return self.quotient.element([s] + list(free_row))

    def encode(self, message, free=None):
        word = self.inner.encode(message)
        n = self.quotient.n
        if free is None:
            free = [[self.quotient.S.zero] * (n - 1) for _ in word]
        if len(free) != len(word) or any(len(r) != n - 1 for r in free):
            raise BadMessageLength(
                f"free part must be {len(word)} rows of {n - 1} residues")
        return tuple(self._place(s, r) for s, r in zip(word, free))

    def codewords(self, limit: int = CODE_ENUM_LIMIT):
        n = self.quotient.n
        free_size = self.quotient.S.size ** ((n - 1) * self.length)
        size, _e, _z = _alphabet(self.inner.ring if hasattr(self.inner, "ring")
                                 else self.inner.field)
        inner_total = size ** self.inner.message_length
        if inner_total * free_size > limit:
            raise TooLargeToEnumerate(
                f"{inner_total * free_size} codewords exceed the limit {limit}")
        pool = list(self.quotient.S.elements(self.quotient.S.size))
        rows = list(itertools.product(pool, repeat=n - 1))
        for word in self.inner.codewords(limit):
            for combo in itertools.product(rows, repeat=self.length):
                yield tuple(self._place(s, list(r)) for s, r in zip(word, combo))

    def hamming_distance(self, limit: int = CODE_ENUM_LIMIT) -> int:
        zero = self.quotient.zero
        best = self.length + 1
        for word in self.codewords(limit):
            weight = sum(1 for s in word if not (s == zero))
            if 0 < weight < best:
                best = weight
        if best > self.length:
            raise EmptyCode("code has no nonzero codeword")
        return best


def hamming_distance(outer) -> int:
    """Minimum Hamming distance of an outer code."""
    return outer.hamming_distance()


# ---------------------------------------------------------------------------
# lifting outer codewords into the order
# ---------------------------------------------------------------------------

class LiftStrategy(enum.Enum):
    CANONICAL_ZERO = "CanonicalZero"
    FIRST_COEFFICIENT = "FirstCoefficient"
    RANDOMIZED = "Randomized"


@dataclass(frozen=True)
class CosetCodeword:
    """A tuple of order elements together with its outer image."""

    components: tuple
    outer_image: tuple

    def __len__(self):
        return len(self.components)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _seeded_box_element(algebra: AlgebraSpec, rng, bound: int) -> OrderElement:
    ext = algebra.ext
    rational = ext.base.kind.name == "RATIONAL"
    zcoords = []
    for _ in range(algebra.n):
        coords = []
        for _ in range(ext.n):
            a = int(rng.integers(-bound, bound + 1))
            if rational:
                coords.append(ext.base.element(a))
            else:
                b = int(rng.integers(-bound, bound + 1))
                coords.append(ext.base.element(a, b))
        zcoords.append(ext.element(coords))
    return algebra.element(zcoords)


def lift_codeword(outer_word, strategy: LiftStrategy = LiftStrategy.CANONICAL_ZERO,
                  *, algebra: AlgebraSpec | None = None, seed: int = 0,
                  box_bound: int = 1) -> CosetCodeword:
    """Lift an outer codeword to order elements, one per symbol.

    GcaElement symbols lift through their quotient ring; ResidueElement
    symbols (constant-coefficient data) land in the z^0 slot of `algebra`.
    Every strategy is a section: reducing the lift returns the symbol.
    """
    outer_word = tuple(outer_word)
    if not outer_word:
        raise BadMessageLength("cannot lift an empty codeword")
    rng = np.random.default_rng(seed)
    comps = []
    for sym in outer_word:
        if isinstance(sym, GcaElement):
            Q = sym.ring
            if strategy is LiftStrategy.FIRST_COEFFICIENT:
                if any(not c.is_zero for c in sym.zcoords[1:]):
                    raise WrongCase(
                        "FirstCoefficient lifts only constant-coefficient symbols")
                lifted = Q.algebra.from_ok(sym.zcoords[0].lift())
            else:
                lifted = Q.lift(sym)
                if strategy is LiftStrategy.RANDOMIZED:
                    lifted = lifted + _seeded_box_element(
                        Q.algebra, rng, box_bound) * Q.ideal.modulus
            if not Q.reduce(lifted) == sym:
                raise WrongCase("lift failed to be a section")
            comps.append(lifted)
        elif isinstance(sym, ResidueElement):
            if algebra is None:
                raise WrongCase("residue symbols need an explicit algebra")
            lifted = algebra.from_ok(sym.lift())
            if strategy is LiftStrategy.RANDOMIZED:
                # noise with zero constant coefficient, plus a modulus multiple;
                # z*noise would wrap u*sigma(top) back into the z^0 slot
                noise = _seeded_box_element(algebra, rng, box_bound)
                lifted = lifted + noise - algebra.from_ok(noise.zcoords[0])
                lifted = lifted + _seeded_box_element(
                    algebra, rng, box_bound) * sym.ring.modulus
            back = sym.ring.from_ok(lifted.zcoords[0])
            if not back == sym:
                raise WrongCase("lift failed to be a section")
            comps.append(lifted)
        else:
            raise TypeError(f"cannot lift symbol of type {type(sym).__name__}")
    return CosetCodeword(tuple(comps), outer_word)


def monomial_project(algebra: AlgebraSpec, prime: IdealSpec, power: int,
                     x: OrderElement):
    """Image of x in Lambda / <z^power> for a nilpotent-u prime quotient."""
    if not divides(prime.alpha, algebra.u):
        raise WrongCase("monomial projection needs u inside the prime")
    if not 1 <= power <= algebra.n:
        raise WrongCase(f"power must lie in 1..{algebra.n}")
    S = residue_ring(algebra.ext, prime.modulus)
    return tuple(S.from_ok(x.zcoords[t]) for t in range(power))


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

class BoundFormula(enum.Enum):
    GENERAL = "General"
    PRINCIPAL = "Principal"
    PRINCIPAL_POWER = "PrincipalPower"
    NILPOTENT_U = "NilpotentU"


@dataclass
class DeltaReport:
    """Lower bound and, once a search ran, the observed minimum."""

    lower_bound: float
    bound_formula: BoundFormula
    search_min: float | None = None
    argmin: CosetCodeword | None = None
    evaluated: int = 0
    notes: str = ""

    def to_dict(self) -> dict:
        out = {
            "lower_bound": self.lower_bound,
            "bound_formula": self.bound_formula.value,
            "search_min": self.search_min,
            "evaluated": self.evaluated,
            "notes": self.notes,
        }
        if self.argmin is not None:
            out["argmin"] = {
                "components": [str(c) for c in self.argmin.components],
                "coordinates": [list(c.flat_ints()) for c in self.argmin.components],
                "outer_image": [str(s) for s in self.argmin.outer_image],
            }
        else:
            out["argmin"] = None
        return out


def delta_lower_bound(algebra: AlgebraSpec, ideal: IdealSpec, d_h: int,
                      min_det_sq: float, *, monomial_power: int | None = None,
                      in_ideal_min: float | None = None,
                      formula: BoundFormula | None = None) -> DeltaReport:
    """Closed-form lower bound for the minimum Gram determinant of a coset
    code with outer distance d_h and inner minimum min_det_sq.

    The formula is chosen from the ideal's shape unless forced: principal
    ideals use |alpha|^(2n) (or |alpha|^(2sn) for higher powers), monomial
    ideals <z^j> with u in the prime use |u|^(2j), and General takes an
    explicit minimum over the nonzero ideal elements.
    """
    if formula is None:
        if monomial_power is not None:
            formula = BoundFormula.NILPOTENT_U
        elif ideal.s == 1:
            formula = BoundFormula.PRINCIPAL
        else:
            formula = BoundFormula.PRINCIPAL_POWER
    n = algebra.n
    if formula is BoundFormula.GENERAL:
        if in_ideal_min is None:
            raise FormulaMismatch(
                "General needs the minimum over nonzero ideal elements")
        value = min(d_h ** 2 * min_det_sq, in_ideal_min)
    elif formula is BoundFormula.PRINCIPAL:
        if monomial_power is not None:
            raise FormulaMismatch("Principal does not apply to monomial ideals")
        if ideal.s != 1:
            raise FormulaMismatch("use PrincipalPower when the exponent exceeds 1")
        value = min_det_sq * min(d_h ** 2, float(ideal.alpha.norm()) ** n)
    elif formula is BoundFormula.PRINCIPAL_POWER:
        if monomial_power is not None:
            raise FormulaMismatch(
                "PrincipalPower does not apply to monomial ideals")
        value = min_det_sq * min(d_h ** 2, float(ideal.alpha.norm()) ** (ideal.s * n))
    elif formula is BoundFormula.NILPOTENT_U:
        if monomial_power is None:
            raise FormulaMismatch("NilpotentU needs the z-power of the ideal")
        if not divides(ideal.alpha, algebra.u):
            raise FormulaMismatch("NilpotentU needs u inside the prime")
        value = min_det_sq * min(d_h ** 2, float(algebra.u.norm()) ** monomial_power)
    else:  # pragma: no cover
        raise FormulaMismatch(f"unknown formula {formula}")
    return DeltaReport(lower_bound=float(value), bound_formula=formula)


# ---------------------------------------------------------------------------
# box tables for exhaustive searches
# ---------------------------------------------------------------------------

# rows a single enumeration axis may hold
AXIS_LIMIT = 1 << 20


class _BoxTable:
    """Box elements along chosen z-slots, coordinate 0 varying fastest.

    Enumerating least significant coordinate first puts the scalar 1
    immediately after 0, so ties in a strict-improvement search resolve
    to the simplest witness.
    """

    def __init__(self, algebra: AlgebraSpec, bound: int, z_slots=None):
        ext = algebra.ext
        self.algebra = algebra
        self.bound = bound
        rational = ext.base.kind.name == "RATIONAL"
        width = 1 if rational else 2
        if z_slots is None:
            z_slots = list(range(algebra.n))
        # positions into the flat_ints layout (z-power, basis, a, b)
        positions = []
        for zp in z_slots:
            for bi in range(ext.n):
                for w in range(width):
                    positions.append((zp * ext.n + bi) * 2 + w)
        digits = box_values(bound)
        d = len(digits)
        count = d ** len(positions)
        if count > AXIS_LIMIT:
            raise TooLargeToEnumerate(
                f"{count} axis elements exceed the limit {AXIS_LIMIT}")
        dig = np.array(digits, dtype=np.int64)
        idx = np.arange(count, dtype=np.int64)
        full = np.zeros((count, 2 * algebra.n * ext.n), dtype=np.int64)
        for m, pos in enumerate(positions):
            full[:, pos] = dig[(idx // d ** m) % d]
        self.coords = full
        self.elements = [self._build(row, rational, ext) for row in full]
        mats = np.array(
            [el.matrix().numeric() for el in self.elements], dtype=complex)
        self.mats = mats
        self.hmats = np.einsum("rij,rkj->rik", mats, mats.conj())

    def _build(self, flat, rational, ext):
        zcoords = []
        pos = 0
        for _ in range(self.algebra.n):
            coords = []
            for _ in range(ext.n):
                a, b = int(flat[pos]), int(flat[pos + 1])
                pos += 2
                coords.append(ext.base.element(a) if rational
                              else ext.base.element(a, b))
            zcoords.append(ext.element(coords))
        return self.algebra.element(zcoords)

    def __len__(self):
        return len(self.elements)


def min_det_sq_in_box(algebra: AlgebraSpec, bound: int = 1):
    """Exact minimum of |det M(x)|^2 over nonzero box elements.

    Returns (value, argmin).  Candidates are ranked numerically and the
    reported value is recomputed exactly on the winner.
    """
    table = _BoxTable(algebra, bound)
    if len(table) <= 1:
        raise EmptyCode("box contains no nonzero element")
    vals = np.abs(np.linalg.det(table.mats)) ** 2
    vals[0] = np.inf  # zero element
    order = np.argsort(vals, kind="stable")
    best_idx = int(order[0])
    exact = table.elements[best_idx].abs_det_sq()
    # the numeric winner must agree with its exact score
    assert abs(vals[best_idx] - exact) <= 1e-6 * max(1.0, exact)
    # prefer the earliest element attaining the exact minimum
    ties = np.nonzero(vals <= exact + 1e-6)[0]
    for t in ties:
        if table.elements[int(t)].abs_det_sq() == exact:
            best_idx = int(t)
            break
    return float(exact), table.elements[best_idx]


# ---------------------------------------------------------------------------
# search studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumClosedStudy:
    """Family (x_1, ..., x_{L-1}, sum x_i) inside the coset code of a
    principal quotient with a parity outer code.

    Every component ranges over the coordinate box; tuples whose forced
    sum leaves the box are skipped.
    """

    algebra: AlgebraSpec
    ideal: IdealSpec
    length: int = 3
    box_bound: int = 1

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("need length at least 2")

    def outer_distance(self) -> int:
        return ParityCode(quotient_of(self.algebra, self.ideal),
                          self.length).hamming_distance()

    def bound_report(self, min_det_sq: float) -> DeltaReport:
        return delta_lower_bound(self.algebra, self.ideal,
                                 self.outer_distance(), min_det_sq)

    def outer_image(self, components):
        Q = quotient_of(self.algebra, self.ideal)
        return tuple(Q.reduce(c) for c in components)


@dataclass(frozen=True)
class MonomialOffsetStudy:
    """Family (c_1, ..., c_{L-1}, sum c_i + w) inside the coset code of a
    monomial ideal <z^power> with a parity outer code.

    Messages c_i carry only z-coefficients below `power`; the offset w
    carries only the remaining coefficients, so it projects to zero.
    """

    algebra: AlgebraSpec
    prime: IdealSpec
    power: int = 1
    length: int = 3
    box_bound: int = 1

    def __post_init__(self):
        if self.prime.s != 1:
            raise WrongCase("monomial ideals live over a prime quotient")
        if not divides(self.prime.alpha, self.algebra.u):
            raise WrongCase("monomial ideals need u inside the prime")
        if not 1 <= self.power <= self.algebra.n - 1:
            raise WrongCase(f"power must lie in 1..{self.algebra.n - 1}")
        if self.length < 2:
            raise ValueError("need length at least 2")

    def outer_distance(self) -> int:
        S = residue_ring(self.algebra.ext, self.prime.modulus)
        pool = list(S.elements(S.size))
        symbols = list(itertools.product(pool, repeat=self.power))
        if len(symbols) ** (self.length - 1) > CODE_ENUM_LIMIT:
            raise TooLargeToEnumerate("outer alphabet too large to enumerate")

        class _Tup(tuple):
            def __add__(self, other):
                return _Tup(a + b for a, b in zip(self, other))

        zero = _Tup([S.zero] * self.power)
        return _min_parity_weight([_Tup(s) for s in symbols], zero, self.length)

    def bound_report(self, min_det_sq: float) -> DeltaReport:
        return delta_lower_bound(self.algebra, self.prime,
                                 self.outer_distance(), min_det_sq,
                                 monomial_power=self.power)

    def outer_image(self, components):
        return tuple(monomial_project(self.algebra, self.prime, self.power, c)
                     for c in components)


def _det_abs(stack: np.ndarray) -> np.ndarray:
    """|det| over a stack of small complex matrices."""
    n = stack.shape[-1]
    if n == 2:
        d = (stack[..., 0, 0] * stack[..., 1, 1]
             - stack[..., 0, 1] * stack[..., 1, 0])
        return np.abs(d)
    return np.abs(np.linalg.det(stack))


def _first_min(vals: np.ndarray) -> int:
    """Earliest index within SCORE_TOL of the minimum.

    Plain argmin could prefer a later entry whose floating value dips
    below an exact tie by rounding dust; searches must report the first
    codeword attaining the minimum.
    """
    low = vals.min()
    return int(np.nonzero(vals <= low + SCORE_TOL)[0][0])


def _search_sum_closed(study: SumClosedStudy, budget: int, seed, samples):
    table = _BoxTable(study.algebra, study.box_bound)
    n_el = len(table)
    total = n_el ** (study.length - 1)
    if n_el <= 1:
        raise EmptyCode("box contains only the zero element")
    if total > budget:
        if seed is None:
            raise SearchBudgetExceeded(
                f"{total} codewords exceed the budget {budget}; "
                "pass a seed for a randomized search")
        return _sample_sum_closed(study, table, seed, samples)
    best = np.inf
    best_idx = None
    valid = 0
    slow_count = study.length - 2
    bound = study.box_bound
    for slow in itertools.product(range(n_el), repeat=slow_count):
        slow_mat = sum((table.mats[q] for q in slow),
                       np.zeros_like(table.mats[0]))
        slow_h = sum((table.hmats[q] for q in slow),
                     np.zeros_like(table.hmats[0]))
        slow_c = sum((table.coords[q] for q in slow),
                     np.zeros_like(table.coords[0]))
        ssum = table.mats + slow_mat
        gram = table.hmats + slow_h + np.einsum("rij,rkj->rik", ssum, ssum.conj())
        vals = _det_abs(gram)
        mask = np.all(np.abs(table.coords + slow_c) <= bound, axis=1)
        if not any(slow):
            mask = mask.copy()
            mask[0] = False  # the all-zero codeword
        vals = np.where(mask, vals, np.inf)
        valid += int(mask.sum())
        local = _first_min(vals)
        if vals[local] < best - SCORE_TOL:
            best = float(vals[local])
            best_idx = (local,) + slow
    if best_idx is None:
        raise EmptyCode("no codeword stayed inside the box")
    msgs = [table.elements[i] for i in best_idx]
    last = msgs[0]
    for m in msgs[1:]:
        last = last + m
    comps = tuple(msgs) + (last,)
    return best, comps, total, valid


def _sample_sum_closed(study, table, seed, samples):
    rng = np.random.default_rng(seed)
    n_el = len(table)
    idx = rng.integers(0, n_el, size=(samples, study.length - 1))
    mats = table.mats[idx]            # (samples, L-1, n, n)
    ssum = mats.sum(axis=1)
    gram = table.hmats[idx].sum(axis=1) + np.einsum(
        "rij,rkj->rik", ssum, ssum.conj())
    vals = _det_abs(gram)
    coords = table.coords[idx].sum(axis=1)
    mask = np.all(np.abs(coords) <= study.box_bound, axis=1)
    mask &= ~(idx == 0).all(axis=1)
    vals = np.where(mask, vals, np.inf)
    if not mask.any():
        raise EmptyCode("no sampled codeword stayed inside the box")
    local = _first_min(vals)
    msgs = [table.elements[int(i)] for i in idx[local]]
    last = msgs[0]
    for m in msgs[1:]:
        last = last + m
    return float(vals[local]), tuple(msgs) + (last,), samples, int(mask.sum())


def _search_monomial_offset(study: MonomialOffsetStudy, budget: int, seed, samples):
    low = list(range(study.power))
    high = list(range(study.power, study.algebra.n))
    msg_table = _BoxTable(study.algebra, study.box_bound, z_slots=low)
    off_table = _BoxTable(study.algebra, study.box_bound, z_slots=high)
    n_msg, n_off = len(msg_table), len(off_table)
    total = n_msg ** (study.length - 1) * n_off
    if total > budget:
        if seed is None:
            raise SearchBudgetExceeded(
                f"{total} codewords exceed the budget {budget}; "
                "pass a seed for a randomized search")
        return _sample_monomial_offset(study, msg_table, off_table, seed, samples)
    best = np.inf
    best_idx = None
    valid = 0
    bound = study.box_bound
    slow_count = study.length - 2
    for o in range(n_off):
        for slow in itertools.product(range(n_msg), repeat=slow_count):
            slow_mat = sum((msg_table.mats[q] for q in slow),
                           np.zeros_like(msg_table.mats[0]))
            slow_h = sum((msg_table.hmats[q] for q in slow),
                         np.zeros_like(msg_table.hmats[0]))
            slow_c = sum((msg_table.coords[q] for q in slow),
                         np.zeros_like(msg_table.coords[0]))
            last = msg_table.mats + slow_mat + off_table.mats[o]
            gram = msg_table.hmats + slow_h + np.einsum(
                "rij,rkj->rik", last, last.conj())
            vals = _det_abs(gram)
            mask = np.all(np.abs(msg_table.coords + slow_c) <= bound, axis=1)
            if o == 0 and not any(slow):
                mask = mask.copy()
                mask[0] = False
            vals = np.where(mask, vals, np.inf)
            valid += int(mask.sum())
            local = _first_min(vals)
            if vals[local] < best - SCORE_TOL:
                best = float(vals[local])
                best_idx = ((local,) + slow, o)
    if best_idx is None:
        raise EmptyCode("no codeword stayed inside the box")
    msg_ids, o = best_idx
    msgs = [msg_table.elements[i] for i in msg_ids]
    last = off_table.elements[o]
    for m in msgs:
        last = last + m
    comps = tuple(msgs) + (last,)
    return best, comps, total, valid


def _sample_monomial_offset(study, msg_table, off_table, seed, samples):
    rng = np.random.default_rng(seed)
    n_msg, n_off = len(msg_table), len(off_table)
    idx = rng.integers(0, n_msg, size=(samples, study.length - 1))
    offs = rng.integers(0, n_off, size=samples)
    mats = msg_table.mats[idx]
    last = mats.sum(axis=1) + off_table.mats[offs]
    gram = msg_table.hmats[idx].sum(axis=1) + np.einsum(
        "rij,rkj->rik", last, last.conj())
    vals = _det_abs(gram)
    coords = msg_table.coords[idx].sum(axis=1)
    mask = np.all(np.abs(coords) <= study.box_bound, axis=1)
    mask &= ~((idx == 0).all(axis=1) & (offs == 0))
    vals = np.where(mask, vals, np.inf)
    if not mask.any():
        raise EmptyCode("no sampled codeword stayed inside the box")
    local = _first_min(vals)
    msgs = [msg_table.elements[int(i)] for i in idx[local]]
    out = off_table.elements[int(offs[local])]
    for m in msgs:
        out = out + m
    return float(vals[local]), tuple(msgs) + (out,), samples, int(mask.sum())


def delta_min_search(study, *, budget: int = SEARCH_BUDGET,
                     seed: int | None = None,
                     samples: int = 10 ** 6) -> DeltaReport:
    """Exhaustive (or, over budget with a seed, randomized) minimum of the
    Gram determinant over a study's code family, with its lower bound.

    The returned report carries the closed-form bound, the observed
    minimum, and the first codeword attaining it in enumeration order.
    """
    inner_min, inner_arg = min_det_sq_in_box(study.algebra, study.box_bound)
    report = study.bound_report(inner_min)
    if isinstance(study, SumClosedStudy):
        best, comps, evaluated, valid = _search_sum_closed(
            study, budget, seed, samples)
    elif isinstance(study, MonomialOffsetStudy):
        best, comps, evaluated, valid = _search_monomial_offset(
            study, budget, seed, samples)
    else:
        raise TypeError(f"unsupported study {type(study).__name__}")
    if best < report.lower_bound - SCORE_TOL:
        raise FormulaMismatch(
            f"search minimum {best} violates the lower bound {report.lower_bound}")
    report.search_min = best
    report.argmin = CosetCodeword(comps, study.outer_image(comps))
    report.evaluated = evaluated
    report.notes = (f"inner |det|^2 minimum {inner_min} at {inner_arg}; "
                    f"outer distance {study.outer_distance()}; "
                    f"{valid} codewords inside the box")
    return report
