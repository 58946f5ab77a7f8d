"""Coset codes over order quotients and minimum-determinant studies.

The pipeline: an outer code constrains tuples of quotient-ring symbols, a
lift pulls each symbol back to the order, and the resulting matrix tuples
are scored by the determinant of the summed Gram matrix.  Lower bounds for
that score come in four closed forms, and exhaustive box searches confirm
them on small instances.  Every study family is searched by one kernel,
`_search`, which enumerates (x_1, ..., x_{L-1}, sum x_i + w) over box
tables and prunes with the Minkowski determinant inequality; over budget
it hands the same tables to one sampler, `_sample`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .base_rings import divides
from .errors import (
    BadMessageLength,
    EmptyCode,
    FormulaMismatch,
    InvalidCount,
    NumericMismatch,
    SearchBudgetExceeded,
    SingularInput,
    TooLargeToEnumerate,
    UnsupportedSize,
    WrongCase,
)
from .extension import IdealSpec
from .order import AlgebraSpec, OrderElement, box_digits, box_values
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
# candidates a seeded search draws when the enumeration exceeds its budget
SEARCH_SAMPLES = 10 ** 6
# codewords an outer-code enumeration may visit
CODE_ENUM_LIMIT = 1 << 20
# indices a randomized search may draw, samples x (length - 1): 64 MB of int64
SAMPLE_LIMIT = 1 << 23
# matrices below this |det| are rejected as singular
SINGULAR_TOL = 1e-12
# slack allowed when comparing floating determinant scores
SCORE_TOL = 1e-9
# rows one vectorised step holds: lemma trials drawn together (the value fixes
# their draw stream), box-table rows, search candidates and samples scored
BLOCK = 1024


# ---------------------------------------------------------------------------
# determinant-sum inequality
# ---------------------------------------------------------------------------

def _lemma_dets(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summand and Gram determinants of stacked trials.

    X holds trials of k complex n x n summands, shape (trials, k, n, n).
    Returns det X_i, shape (trials, k), and det(sum_i X_i X_i^*), shape
    (trials,).  numpy runs each LAPACK factorisation and BLAS product one
    matrix at a time, so a trial's values do not depend on the stack it
    sits in, and the Gram sum keeps the summation order of one trial.
    """
    gram = X @ X.conj().swapaxes(-1, -2)
    return np.linalg.det(X), np.linalg.det(sum(gram[:, i] for i in range(X.shape[1])))


def _lemma_report(dets, gram_det) -> dict:
    """The det_inequality_check report from Python complex determinants."""
    for d in dets:
        if abs(d) <= SINGULAR_TOL:
            raise SingularInput(f"matrix determinant {abs(d):.3e} is numerically zero")
    lhs = abs(gram_det)
    rhs = sum(abs(d) for d in dets) ** 2
    holds = lhs >= rhs - SCORE_TOL * max(1.0, rhs)
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "margin": lhs - rhs}


def det_inequality_check(mats) -> dict:
    """Check det(sum X_i X_i^*) >= (sum |det X_i|)^2 for square matrices.

    Returns {"lhs", "rhs", "holds", "margin"}.  Matrices with |det| below
    1e-12 are rejected with SingularInput so that the right hand side is
    built from genuinely invertible summands.  The inequality needs n >= 2:
    at n = 1 it reads |x_1|^2 + |x_2|^2 >= (|x_1| + |x_2|)^2, which is false.
    """
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    if not arrs:
        raise ValueError("need at least one matrix")
    n = arrs[0].shape[0]
    for a in arrs:
        if a.ndim != 2 or a.shape != (n, n):
            raise ValueError(f"expected square {n}x{n} matrices, got {a.shape}")
    dets, gram_dets = _lemma_dets(np.stack(arrs)[None])
    return _lemma_report(dets[0].tolist(), gram_dets[0].item())


def _lemma_trial(rng, n: int, k: int) -> tuple:
    """One trial drawn matrix by matrix, redrawing singular summands.

    Returns (summand dets, Gram det, cond X_1 or None) as Python numbers.
    """
    mats = []
    while len(mats) < k:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if abs(np.linalg.det(a)) > SINGULAR_TOL:
            mats.append(a)
    X = np.stack(mats)[None]
    dets, gram_dets = _lemma_dets(X)
    cond = np.linalg.cond(X[0, 0]).item() if k == 1 else None
    return dets[0].tolist(), gram_dets[0].item(), cond


def _lemma_block(rng, shapes: list) -> list | None:
    """Trials of the given (n, k) shapes from one draw of normals.

    A trial takes 2 k n^2 consecutive normals, the real then the imaginary
    part of each summand, as `_lemma_trial` draws them; each (n, k) group is
    then checked on stacked arrays.  Returns `_lemma_trial`'s triples in
    trial order, or None if a summand is singular: that one would have been
    redrawn, which shifts every later draw.
    """
    lengths = np.array([2 * k * n * n for n, k in shapes])
    starts = np.cumsum(lengths) - lengths
    flat = rng.normal(size=int(lengths.sum()))
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    out: list = [None] * len(shapes)
    for (n, k), idx in groups.items():
        draws = flat[starts[idx][:, None] + np.arange(2 * k * n * n)]
        draws = draws.reshape(-1, k, 2, n, n)
        X = draws[:, :, 0] + 1j * draws[:, :, 1]
        dets, gram_dets = _lemma_dets(X)
        # np.hypot, not np.abs: it rounds as the scalar abs of _lemma_trial
        if (np.hypot(dets.real, dets.imag) <= SINGULAR_TOL).any():
            return None
        conds = np.linalg.cond(X[:, 0]).tolist() if k == 1 else [None] * len(idx)
        for i, trial in zip(idx, zip(dets.tolist(), gram_dets.tolist(), conds)):
            out[i] = trial
    return out


def run_lemma_trials(trials: int, n: int | None = None, k: int | None = None,
                     seed: int = 0) -> dict:
    """Monte Carlo sweep of det_inequality_check on random complex matrices.

    When n or k is omitted the trials cycle over sizes 2..4 and summand
    counts 1..3.  The inequality needs n >= 2 (see det_inequality_check).
    k = 1 trials additionally demand equality up to rounding, since both
    sides then compute |det X|^2:

        |lhs - rhs| <= (2 n^3 cond(X)^2 + 12 + 2 |ln rhs|) eps rhs,

    with eps the machine epsilon and cond the 2-norm condition number.  To
    first order, forming X X^* and factoring it perturb the Gram matrix by
    about n^2 eps ||X||^2 in norm, and that moves its determinant by at
    most n cond(X X^*) = n cond(X)^2 times the relative perturbation; the
    factor 2 covers the factorisation of X on the right hand side.  A fixed
    relative tolerance would flag ill-conditioned X whose Gram determinant
    is as accurate as double precision allows.

    The other terms do not grow with n.  numpy returns a determinant as
    sign * exp(sum log |u_ii|) over the LU pivots u_ii, with sign the
    product of the u_ii / |u_ii|, so the rounding of |u_ii| cancels between
    the two factors to first order.  Counting eps per rounding, |det X|
    takes 4 eps (the quotient, exp, the complex product and the final
    hypot) and the square doubles that and adds 1, 9 eps on the right; on
    the left the Gram determinant is a positive real, and its two-rounding
    diagonal and exp give 3 eps.  A log with relative error eps shifts each
    side's exponent by eps |ln rhs|.  At n = 1, where the first term is only
    2 eps, these terms keep |x conj(x)| = |x|^2 from being flagged.

    Trials run in blocks of BLOCK that draw their normals in one call
    (consecutive draws continue one stream) and are checked per (n, k) on
    stacked arrays; a block with a singular draw reruns trial by trial, so
    the redraws happen in order.  The scalar epilogue stays in Python
    floats: array abs and array squares round differently.  Raises
    InvalidCount unless trials, n and k (when given) are at least 1, and at
    n = 1 unless k = 1 (an unset k cycles through k >= 2 as well).
    """
    for name, value in (("trials", trials), ("n", n), ("k", k)):
        if value is not None and value < 1:
            raise InvalidCount(f"{name} must be at least 1, got {value}")
    if n == 1 and k != 1:
        got = "no k" if k is None else f"k = {k}"
        raise InvalidCount(f"n = 1 needs k = 1 (the inequality is false for k >= 2), got {got}")
    rng = np.random.default_rng(seed)
    sizes = [n] if n is not None else [2, 3, 4]
    counts = [k] if k is not None else [1, 2, 3]
    eps = float(np.finfo(float).eps)
    violations = 0
    k1_trials = 0
    k1_failures = 0
    min_margin = float("inf")
    for lo in range(0, trials, BLOCK):
        shapes = [(sizes[t % len(sizes)], counts[(t // len(sizes)) % len(counts)])
                  for t in range(lo, min(trials, lo + BLOCK))]
        state = rng.bit_generator.state
        results = _lemma_block(rng, shapes)
        if results is None:
            rng.bit_generator.state = state
            results = [_lemma_trial(rng, nn, kk) for nn, kk in shapes]
        for (nn, kk), (dets, gram_det, cond) in zip(shapes, results):
            rep = _lemma_report(dets, gram_det)
            if not rep["holds"]:
                violations += 1
            rhs = rep["rhs"]
            rel = rep["margin"] / max(1.0, rhs)
            min_margin = min(min_margin, rel)
            if kk == 1:
                k1_trials += 1
                tol = 2 * nn ** 3 * eps * cond ** 2 + (12 + 2 * abs(math.log(rhs))) * eps
                if abs(rep["margin"]) > tol * rhs:
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
    """(size, element iterator factory) for a supported symbol ring."""
    if isinstance(ring, QuotientRing):
        return ring.cardinality, (lambda: ring.elements(ring.cardinality))
    if isinstance(ring, ResidueRing):
        return ring.size, (lambda: ring.elements(ring.size))
    if isinstance(ring, FiniteField):
        return ring.size, ring.elements
    raise TypeError(f"unsupported symbol ring {type(ring).__name__}")


class _MessageCode:
    """A code whose codewords are the encodings of all messages over `ring`."""

    def codewords(self, limit: int = CODE_ENUM_LIMIT):
        size, elems = _alphabet(self.ring)
        total = size ** self.message_length
        if total > limit:
            raise TooLargeToEnumerate(
                f"{total} codewords exceed the enumeration limit {limit}")
        pool = list(elems())
        for msg in itertools.product(pool, repeat=self.message_length):
            yield self.encode(msg)


class ParityCode(_MessageCode):
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

    def hamming_distance(self) -> int:
        """2, without enumeration.

        A lone nonzero message symbol forces a nonzero parity symbol, so no
        nonzero codeword has weight 1; and (x, 0, ..., 0, x) is a codeword
        for every x.
        """
        return 2


class ReedSolomonCode(_MessageCode):
    """Evaluation code over a finite field `ring` at the points 0, 1, g, g^2, ...

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
        self.ring = ff
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
            val = self.ring.zero
            for c in reversed(message):
                val = val * p + c
            out.append(val)
        return tuple(out)

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

    def __init__(self, quotient: QuotientRing, inner):
        self.quotient = quotient
        self.inner = inner
        self.length = inner.length

    def _place(self, s, free_row):
        if not isinstance(s, ResidueElement) or s.ring is not self.quotient.S:
            raise WrongCase("inner symbols must lie in the quotient's residue ring")
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
        size, _elems = _alphabet(self.inner.ring)
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
    if strategy is LiftStrategy.RANDOMIZED:
        if box_bound >= 2 ** 63:
            raise UnsupportedSize(f"box bound {box_bound} exceeds the int64 draws")
        rng = np.random.default_rng(seed)  # only here: it imports numpy.random

        def draw():
            return int(rng.integers(-box_bound, box_bound + 1))

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
                    lifted = lifted + Q.algebra.from_draws(draw) * Q.ideal.modulus
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
                noise = algebra.from_draws(draw)
                lifted = lifted + noise - algebra.from_ok(noise.zcoords[0])
                lifted = lifted + algebra.from_draws(draw) * sym.ring.modulus
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
    to the simplest witness.  The rows are those of `box_digits`, over the
    algebra's `int_positions` of the slots, and `from_positions` builds
    their elements.

    The digits are `box_digits`' narrow ints.  The matrix embedding is
    Z-linear, M(x) = sum_k x_k E_k, so the numeric matrices come from
    products with the unit-coordinate matrices E_k, one BLOCK of rows at a
    time: each product casts only its block of digits to complex.  Order
    elements are built only for the rows asked for.
    """

    def __init__(self, algebra: AlgebraSpec, bound: int, z_slots=None):
        self.algebra = algebra
        self.bound = bound
        self.positions = algebra.int_positions(z_slots)
        d, p = 2 * max(bound, 0) + 1, len(self.positions)
        count = d ** p
        if count > AXIS_LIMIT:  # before box_values, which lists all d digits
            raise TooLargeToEnumerate(
                f"{d}^{p} axis elements exceed the limit {AXIS_LIMIT}")
        self.values = np.array(box_values(bound), dtype=np.int64)
        # coordinate values at the varying positions, one row per element
        self.digits = box_digits(bound, p)
        n = algebra.n
        E = np.array([algebra.from_positions(self.positions, u).matrix().numeric()
                      for u in np.eye(p, dtype=np.int64).tolist()], dtype=complex)
        self.mats = np.empty((count, n, n), dtype=complex)
        for lo in range(0, count, BLOCK):
            self.mats[lo:lo + BLOCK] = (
                self.digits[lo:lo + BLOCK] @ E.reshape(p, n * n)).reshape(-1, n, n)

    def element(self, i: int) -> OrderElement:
        return self.algebra.from_positions(self.positions, self.digits[i].tolist())

    def __len__(self):
        return len(self.digits)


def min_det_sq_in_box(algebra: AlgebraSpec, bound: int = 1):
    """Exact minimum of |det M(x)|^2 over nonzero box elements.

    Returns (value, argmin).  Candidates are ranked numerically and the
    reported value is recomputed exactly on the winner.
    """
    return _box_minimum(_BoxTable(algebra, bound))


def _box_minimum(table: _BoxTable):
    if len(table) <= 1:
        raise EmptyCode("box contains no nonzero element")
    vals = np.abs(np.linalg.det(table.mats)) ** 2
    vals[0] = np.inf  # zero element
    best_idx = int(np.argmin(vals))
    exact = table.element(best_idx).abs_det_sq()
    if abs(vals[best_idx] - exact) > 1e-6 * max(1.0, exact):
        raise NumericMismatch(
            f"numeric minimum {vals[best_idx]} at box row {best_idx} "
            f"disagrees with its exact |det|^2 {exact}")
    # prefer the earliest element attaining the exact minimum
    for t in np.nonzero(vals <= exact + 1e-6)[0]:
        if table.element(int(t)).abs_det_sq() == exact:
            best_idx = int(t)
            break
    return float(exact), table.element(best_idx)


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
        # parity over S^power symbols; a parity code's distance does not
        # depend on its alphabet
        return ParityCode(residue_ring(self.algebra.ext, self.prime.modulus),
                          self.length).hamming_distance()

    def bound_report(self, min_det_sq: float) -> DeltaReport:
        return delta_lower_bound(self.algebra, self.prime,
                                 self.outer_distance(), min_det_sq,
                                 monomial_power=self.power)

    def outer_image(self, components):
        return tuple(monomial_project(self.algebra, self.prime, self.power, c)
                     for c in components)


def _gram(mats: np.ndarray) -> np.ndarray:
    """X X^* for each matrix X of a stack."""
    return np.einsum("...ij,...kj->...ik", mats, mats.conj())


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


def _tuple_sums(values: np.ndarray, count: int) -> np.ndarray:
    """values[q_1] + ... + values[q_count] for every index tuple, in
    itertools.product order (q_1 slowest).  Integer values are summed in
    int64, so narrow box digits cannot overflow."""
    out = np.zeros(1, dtype=np.promote_types(values.dtype, np.int64))
    for _ in range(count):
        out = np.add.outer(out, values).ravel()
    return out


def _codeword(msg: _BoxTable, off: _BoxTable, msg_ids, o: int) -> tuple:
    msgs = [msg.element(int(i)) for i in msg_ids]
    last = off.element(o)
    for m in msgs:
        last = last + m
    return tuple(msgs) + (last,)


def _search(length: int, msg: _BoxTable, off: _BoxTable, min_root: float,
            budget: int, seed, samples):
    """Minimum Gram determinant over (x_1, ..., x_{L-1}, sum x_i + w).

    The messages x_i range over `msg` and the offset w over `off`; a
    sum-closed family is the case where `off` holds only zero.  Rows are
    (w, x_2, ..., x_{L-1}) with w outermost and the slow messages in
    itertools.product order, and each row scores its x_1 in ascending
    order, keeping only those whose sum stays inside the box.  The scores
    are computed BLOCK candidates at a time into one array per row, so the
    Gram stacks stay small whatever the row length.

    A row is skipped unscored when the Minkowski bound
    (sum_i |det X_i|^(2/n))^n rules it out: the slow messages add their
    roots, and `min_root`, the least root of a nonzero box element, is
    added when w or the slow sum is nonzero or every slow message is zero,
    since one of x_1 and the last component is then nonzero.
    """
    n_msg, n_off = len(msg), len(off)
    # n_msg >= 3, so capping the exponent at the budget's bits keeps this exact
    total = n_msg ** min(length - 1, budget.bit_length()) * n_off
    if total > budget:
        if seed is None:
            raise SearchBudgetExceeded(
                f"{n_msg}^{length - 1} x {n_off} codewords exceed the budget "
                f"{budget}; pass a seed for a randomized search")
        return _sample(length, msg, off, seed, samples)
    n = msg.algebra.n
    slow_count = length - 2
    reach = slow_count * msg.bound
    d = len(msg.values)
    digits = msg.digits
    # fits[s + reach]: digit indices j with values[j] + s inside the box
    fits = [np.nonzero(np.abs(msg.values + s) <= msg.bound)[0]
            for s in range(-reach, reach + 1)]
    fit_counts = np.array([len(f) for f in fits], dtype=np.int64)
    slow_root = _tuple_sums(np.abs(np.linalg.det(msg.mats)) ** (2.0 / n),
                            slow_count)
    row_words = np.ones(len(slow_root), dtype=np.int64)
    forced = np.zeros(len(slow_root), dtype=bool)
    for m in range(digits.shape[1]):
        s = _tuple_sums(digits[:, m], slow_count)
        row_words *= fit_counts[s + reach]
        forced |= s != 0
    forced[0] = True  # every slow message zero: x_1 must be nonzero
    valid = n_off * int(row_words.sum()) - 1  # less the all-zero codeword
    shape = (n_msg,) * slow_count
    zero_mat = np.zeros_like(msg.mats[0])
    best = np.inf
    best_idx = None
    for o in range(n_off):
        extra = min_root if o else np.where(forced, min_root, 0.0)
        floor = (slow_root + extra) ** n * (1 - 1e-12)
        for r in np.nonzero(floor < best - SCORE_TOL)[0]:
            if floor[r] >= best - SCORE_TOL:
                continue
            slow = tuple(int(q) for q in np.unravel_index(r, shape))
            s = digits[list(slow)].sum(axis=0, dtype=np.int64)
            x1 = np.zeros(1, dtype=np.int64)
            for m in reversed(range(len(s))):
                x1 = (x1[:, None] + fits[s[m] + reach] * d ** m).ravel()
            if o == 0 and r == 0:
                x1 = x1[1:]  # the all-zero codeword
            if not len(x1):
                continue
            slow_mat = sum((msg.mats[q] for q in slow), zero_mat)
            slow_h = sum((_gram(msg.mats[q]) for q in slow), zero_mat)
            vals = np.empty(len(x1))
            for lo in range(0, len(x1), BLOCK):
                ids = x1[lo:lo + BLOCK]
                last = msg.mats[ids] + slow_mat + off.mats[o]
                vals[lo:lo + BLOCK] = _det_abs(_gram(msg.mats[ids]) + slow_h + _gram(last))
            local = _first_min(vals)
            if vals[local] < best - SCORE_TOL:
                best = float(vals[local])
                best_idx = ((x1[local],) + slow, o)
    if best_idx is None:
        raise EmptyCode("no codeword stayed inside the box")
    return best, _codeword(msg, off, *best_idx), total, valid


def _sample(length: int, msg: _BoxTable, off: _BoxTable, seed, samples):
    """`_search` over seeded draws: message then offset indices are drawn
    whole from one generator, and the inside-the-box mask and the Gram scores
    of the kept draws are computed BLOCK rows at a time, so only the indices,
    the mask and one score per kept draw are full size."""
    if samples * (length - 1) > SAMPLE_LIMIT:
        raise TooLargeToEnumerate(f"{samples} x {length - 1} draws exceed {SAMPLE_LIMIT}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(msg), size=(samples, length - 1))
    offs = rng.integers(0, len(off), size=samples)
    inside = np.empty(samples, dtype=bool)
    for lo in range(0, samples, BLOCK):
        ids = idx[lo:lo + BLOCK]
        inside[lo:lo + BLOCK] = (
            np.all(np.abs(msg.digits[ids].sum(axis=1, dtype=np.int64)) <= msg.bound, axis=1)
            & ~((ids == 0).all(axis=1) & (offs[lo:lo + BLOCK] == 0)))
    keep = np.nonzero(inside)[0]
    if not len(keep):
        raise EmptyCode("no sampled codeword stayed inside the box")
    vals = np.empty(len(keep))
    for lo in range(0, len(keep), BLOCK):
        ids = idx[keep[lo:lo + BLOCK]]
        last = msg.mats[ids].sum(axis=1) + off.mats[offs[keep[lo:lo + BLOCK]]]
        vals[lo:lo + BLOCK] = _det_abs(_gram(msg.mats[ids]).sum(axis=1) + _gram(last))
    local = _first_min(vals)
    pick = keep[local]
    return (float(vals[local]), _codeword(msg, off, idx[pick], int(offs[pick])),
            samples, len(keep))


def delta_min_search(study, *, budget: int = SEARCH_BUDGET,
                     seed: int | None = None,
                     samples: int = SEARCH_SAMPLES) -> DeltaReport:
    """Exhaustive (or, over budget with a seed, randomized) minimum of the
    Gram determinant over a study's code family, with its lower bound.

    The returned report carries the closed-form bound, the observed
    minimum, and the first codeword attaining it in enumeration order.
    `evaluated` counts the candidates: the whole enumeration space
    n_msg^(L-1) * n_off, or the samples drawn.  The notes give how many of
    them are codewords inside the box.  Only codewords are scored, and a
    row of the enumeration is skipped when the Minkowski determinant
    inequality det(sum A_i)^(1/n) >= sum det(A_i)^(1/n), for the PSD
    summands A_i = X_i X_i^* of the Gram matrix, shows that none of its
    codewords can beat the best score so far.  Candidates and samples are
    scored BLOCK at a time, so memory does not grow with a row's length,
    and for a randomized search it grows only by the indices, a mask and one
    score per draw.  Raises InvalidCount when `samples` is below 1.
    """
    if samples < 1:
        raise InvalidCount(f"samples must be at least 1, got {samples}")
    full = _BoxTable(study.algebra, study.box_bound)
    inner_min, inner_arg = _box_minimum(full)
    report = study.bound_report(inner_min)
    if isinstance(study, SumClosedStudy):
        msg, off = full, _BoxTable(study.algebra, study.box_bound, z_slots=[])
    elif isinstance(study, MonomialOffsetStudy):
        slots = range(study.algebra.n)
        msg = _BoxTable(study.algebra, study.box_bound, slots[:study.power])
        off = _BoxTable(study.algebra, study.box_bound, slots[study.power:])
    else:
        raise TypeError(f"unsupported study {type(study).__name__}")
    best, comps, evaluated, valid = _search(
        study.length, msg, off, inner_min ** (1.0 / study.algebra.n),
        budget, seed, samples)
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
