"""Tests for the determinant inequality, outer codes, lifts, and searches."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import cycord.coding as coding
from cycord.coding import (
    SCORE_TOL,
    BoundFormula,
    CosetCodeword,
    FirstCoefficientCode,
    LiftStrategy,
    MonomialOffsetStudy,
    ParityCode,
    ReedSolomonCode,
    SumClosedStudy,
    delta_lower_bound,
    delta_min_search,
    det_inequality_check,
    lift_codeword,
    min_det_sq_in_box,
    monomial_project,
    run_lemma_trials,
    _BoxTable,
)
from cycord.errors import (
    BadMessageLength,
    EmptyCode,
    FormulaMismatch,
    InvalidCount,
    NumericMismatch,
    SearchBudgetExceeded,
    SingularInput,
    TooLargeToEnumerate,
    WrongCase,
)
from cycord.extension import IdealSpec
from cycord.order import OrderElement
from cycord.residue import FiniteField, quotient_of, residue_ring


def ideal_of(algebra, a, b=0, s=1):
    return IdealSpec(algebra.ext.base.element(a, b), s)


@pytest.fixture(scope="module")
def q_gold(golden):
    return quotient_of(golden, ideal_of(golden, 1, 1))


@pytest.fixture(scope="module")
def q_nilp(golden_1pi):
    return quotient_of(golden_1pi, ideal_of(golden_1pi, 1, 1))


# -- determinant inequality ------------------------------------------------------


def test_det_inequality_identity_matrices():
    rep = det_inequality_check([np.eye(2), np.eye(2)])
    assert rep["holds"]
    assert rep["lhs"] == pytest.approx(4.0)
    assert rep["rhs"] == pytest.approx(4.0)
    assert rep["margin"] == pytest.approx(0.0, abs=1e-12)


def test_det_inequality_single_matrix_equality():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rep = det_inequality_check([a])
    assert rep["holds"]
    assert abs(rep["margin"]) <= 1e-12 * max(1.0, rep["rhs"])


def test_det_inequality_strict_for_generic_pairs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rep = det_inequality_check([a, b])
        assert rep["holds"]


def test_det_inequality_rejects_singular():
    with pytest.raises(SingularInput):
        det_inequality_check([np.zeros((2, 2))])
    with pytest.raises(SingularInput):
        det_inequality_check([np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])])


def test_det_inequality_rejects_bad_shapes():
    with pytest.raises(ValueError):
        det_inequality_check([])
    with pytest.raises(ValueError):
        det_inequality_check([np.ones((2, 3))])
    with pytest.raises(ValueError):
        det_inequality_check([np.eye(2), np.eye(3)])


def test_lemma_trials_clean_sweep():
    rep = run_lemma_trials(500, seed=3)
    assert rep["trials"] == 500
    assert rep["violations"] == 0
    assert rep["k1_equality_failures"] == 0
    assert rep["min_relative_margin"] >= -1e-9
    assert rep["k1_trials"] > 0


def test_lemma_trials_fixed_size():
    rep = run_lemma_trials(60, n=2, k=1, seed=4)
    assert rep["k1_trials"] == 60
    assert rep["violations"] == 0
    assert rep["k1_equality_failures"] == 0


def test_lemma_trials_flag_perturbed_k1_pairs(monkeypatch):
    # a 1e-6 relative error is far above the rounding bound of every trial;
    # it enters at the stacked determinant stage, which both the batched and
    # the trial-by-trial path go through
    exact = coding._lemma_dets

    def perturbed(X):
        dets, gram_dets = exact(X)
        return dets, gram_dets * (1 + 1e-6)

    monkeypatch.setattr(coding, "_lemma_dets", perturbed)
    rep = run_lemma_trials(300, k=1, seed=2)
    assert rep["k1_trials"] == 300
    assert rep["k1_equality_failures"] == 300


def test_lemma_trials_no_false_k1_failures_at_n1():
    # det(x conj(x)) = |x|^2 exactly; rounding in numpy's log/exp
    # determinant once flagged 4 of these 500 trials
    rep = run_lemma_trials(500, n=1, k=1, seed=0)
    assert rep["k1_trials"] == 500
    assert rep["k1_equality_failures"] == 0
    assert run_lemma_trials(5000, n=1, k=1, seed=11)["k1_equality_failures"] == 0


@pytest.mark.parametrize("k", [None, 2, 3])
def test_lemma_trials_refuse_n1_unless_k1(k):
    # at n = 1 the inequality reads |x1|^2 + |x2|^2 >= (|x1| + |x2|)^2, false
    with pytest.raises(InvalidCount, match="n = 1 needs k = 1"):
        run_lemma_trials(10, n=1, k=k)


def lemma_trials_one_by_one(trials, n=None, k=None, seed=0):
    """The per-trial loop: each matrix drawn, checked and scored on its own."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    sizes = [n] if n is not None else [2, 3, 4]
    counts = [k] if k is not None else [1, 2, 3]
    violations = k1_trials = k1_failures = 0
    min_margin = float("inf")
    for t in range(trials):
        nn = sizes[t % len(sizes)]
        kk = counts[(t // len(sizes)) % len(counts)]
        mats = []
        while len(mats) < kk:
            a = rng.normal(size=(nn, nn)) + 1j * rng.normal(size=(nn, nn))
            if abs(np.linalg.det(a)) > coding.SINGULAR_TOL:
                mats.append(a)
        dets = [np.linalg.det(a) for a in mats]
        lhs = abs(np.linalg.det(sum(a @ a.conj().T for a in mats)))
        rhs = sum(abs(d) for d in dets) ** 2
        if not lhs >= rhs - SCORE_TOL * max(1.0, rhs):
            violations += 1
        margin = float(lhs - rhs)
        min_margin = min(min_margin, margin / max(1.0, float(rhs)))
        if kk == 1:
            k1_trials += 1
            tol = (2 * nn ** 3 * eps * np.linalg.cond(mats[0]) ** 2
                   + (12 + 2 * abs(math.log(rhs))) * eps)
            if abs(margin) > tol * rhs:
                k1_failures += 1
    return {"trials": trials, "violations": violations, "k1_trials": k1_trials,
            "k1_equality_failures": k1_failures, "min_relative_margin": min_margin,
            "seed": seed}


@pytest.fixture
def rerun_trials(monkeypatch):
    """The trials that run_lemma_trials reruns one by one, as they happen."""
    calls = []
    one_trial = coding._lemma_trial
    monkeypatch.setattr(coding, "_lemma_trial", lambda *a: calls.append(a) or one_trial(*a))
    return calls


@pytest.mark.parametrize("trials, n, k, seed", [
    (1, None, None, 0),
    (100, None, None, 1),
    (coding.BLOCK + 5, None, None, 2),
    (2 * coding.BLOCK + 14, None, None, 3),
    (203, 3, None, 4),
    (157, None, 2, 5),
    (311, 2, 1, 6),
    (250, 4, 3, 7),
    (97, 1, 1, 8),
])
def test_batched_lemma_trials_match_the_per_trial_loop(rerun_trials, trials, n, k, seed):
    got = run_lemma_trials(trials, n=n, k=k, seed=seed)
    assert not rerun_trials  # no singular draw: every block ran batched
    assert repr(got) == repr(lemma_trials_one_by_one(trials, n=n, k=k, seed=seed))


@pytest.mark.parametrize("trials, n, k, seed", [
    (coding.BLOCK + 7, None, None, 0), (130, 2, 2, 1)])
def test_lemma_trials_redraw_singular_summands_in_order(
        monkeypatch, rerun_trials, trials, n, k, seed):
    # |det| <= 0.2 is common for these draws, so the first block holds a
    # rejected summand and reruns trial by trial; a short last block may run
    # batched from where the reruns left the generator
    monkeypatch.setattr(coding, "SINGULAR_TOL", 0.2)
    got = run_lemma_trials(trials, n=n, k=k, seed=seed)
    assert len(rerun_trials) >= min(trials, coding.BLOCK)
    assert repr(got) == repr(lemma_trials_one_by_one(trials, n=n, k=k, seed=seed))


# -- outer codes -----------------------------------------------------------------


def test_parity_code_over_quotient(q_gold):
    code = ParityCode(q_gold, 3)
    assert code.kind == "ParityOverRing"
    assert code.message_length == 2
    assert code.hamming_distance() == 2
    words = list(code.codewords())
    assert len(words) == 16 ** 2
    for w in words:
        assert w[-1] == w[0] + w[1]
    with pytest.raises(BadMessageLength):
        code.encode([q_gold.one])


def test_parity_code_over_residue_ring(golden):
    S = residue_ring(golden.ext, golden.ext.base.element(1, 1))
    code = ParityCode(S, 4)
    assert code.hamming_distance() == 2


def _min_parity_weight(symbols, zero, length):
    """Minimum weight of the nonzero parity codewords, by enumeration."""
    weights = []
    for msg in itertools.product(symbols, repeat=length - 1):
        word = msg + (sum(msg[1:], msg[0]),)
        weights.append(sum(1 for s in word if s != zero))
    return min(w for w in weights if w)


class _Tuple(tuple):
    """S^k symbols, added coordinatewise."""

    def __add__(self, other):
        return _Tuple(a + b for a, b in zip(self, other))


@pytest.mark.parametrize("alphabet, length", [
    ("quotient", 2), ("quotient", 3), ("residue", 4), ("residue_pairs", 3),
])
def test_parity_distance_matches_enumeration(golden_1pi, q_gold, alphabet, length):
    S = q_gold.S
    if alphabet == "quotient":
        distance = ParityCode(q_gold, length).hamming_distance()
        symbols, zero = list(q_gold.elements()), q_gold.zero
    elif alphabet == "residue":
        distance = ParityCode(S, length).hamming_distance()
        symbols, zero = list(S.elements()), S.zero
    else:
        # the monomial study's outer code: parity over tuples of residues
        study = MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1),
                                    power=1, length=length)
        distance = study.outer_distance()
        symbols = [_Tuple(p) for p in itertools.product(S.elements(), repeat=2)]
        zero = _Tuple((S.zero, S.zero))
    assert distance == _min_parity_weight(symbols, zero, length) == 2


def test_parity_code_validation(q_gold, golden):
    with pytest.raises(ValueError):
        ParityCode(q_gold, 1)
    Q3 = quotient_of(golden, ideal_of(golden, 3))
    big = ParityCode(Q3, 3)
    with pytest.raises(TooLargeToEnumerate):
        list(big.codewords())


def test_reed_solomon_pinned_small_field():
    ff = FiniteField(2, 2)
    code = ReedSolomonCode(ff, 4, 2)
    assert code.kind == "ReedSolomon"
    gen = ff.generator()
    assert code.points == (ff.zero, ff.one, gen, gen * gen)
    assert code.hamming_distance() == 3
    # MDS distance confirmed by full enumeration
    weights = []
    for w in code.codewords():
        weight = sum(1 for s in w if not s.is_zero)
        if weight:
            weights.append(weight)
    assert len(weights) == ff.size ** 2 - 1
    assert min(weights) == 3


def test_reed_solomon_encode_is_evaluation():
    ff = FiniteField(5, 1)
    code = ReedSolomonCode(ff, 5, 2)
    a, b = ff.element(2), ff.element(3)
    word = code.encode([a, b])
    for point, val in zip(code.points, word):
        assert val == a + b * point


def test_reed_solomon_degenerate_dimensions():
    ff = FiniteField(2, 2)
    rep = ReedSolomonCode(ff, 3, 1)
    assert rep.hamming_distance() == 3
    for w in rep.codewords():
        weight = sum(1 for s in w if not s.is_zero)
        assert weight in (0, 3)  # repetition code
    full = ReedSolomonCode(ff, 3, 3)
    assert full.hamming_distance() == 1


def test_reed_solomon_validation():
    ff = FiniteField(2, 2)
    with pytest.raises(ValueError):
        ReedSolomonCode(ff, 3, 0)
    with pytest.raises(ValueError):
        ReedSolomonCode(ff, 5, 2)  # length beyond the field size
    code = ReedSolomonCode(ff, 4, 2)
    with pytest.raises(BadMessageLength):
        code.encode([ff.one])


def test_first_coefficient_code(q_nilp):
    S = q_nilp.S
    inner = ParityCode(S, 3)
    code = FirstCoefficientCode(q_nilp, inner)
    assert code.kind == "FirstCoefficientScheme"
    assert inner.hamming_distance() == 2
    word = code.encode([S.one, S.one])
    assert len(word) == 3
    assert word[2].zcoords[0] == S.one + S.one
    assert all(w.zcoords[1].is_zero for w in word)
    # free coefficients admit weight-1 codewords, and enumeration says so
    assert code.hamming_distance() == 1


def test_first_coefficient_free_rows(q_nilp):
    S = q_nilp.S
    inner = ParityCode(S, 3)
    code = FirstCoefficientCode(q_nilp, inner)
    free = [[S.one], [S.zero], [S.zero]]
    word = code.encode([S.zero, S.zero], free=free)
    assert word[0].zcoords[1] == S.one
    with pytest.raises(BadMessageLength):
        code.encode([S.zero, S.zero], free=[[S.one]])


def test_first_coefficient_rejects_bad_symbols(q_nilp, golden_1pi):
    # an inner code over O_K/3O_K yields symbols outside q_nilp's residue ring
    other = residue_ring(golden_1pi.ext, golden_1pi.ext.base.element(3))
    code = FirstCoefficientCode(q_nilp, ParityCode(other, 3))
    with pytest.raises(WrongCase):
        code.encode([other.one, other.one])


# -- lifting ---------------------------------------------------------------------


def test_lift_canonical_zero_is_section(q_gold):
    for q in q_gold.elements():
        cw = lift_codeword([q])
        assert len(cw) == 1
        assert q_gold.reduce(cw.components[0]) == q
        assert cw.outer_image == (q,)


def test_lift_first_coefficient(q_gold):
    sym = q_gold.from_residue(q_gold.S.basis(1))
    cw = lift_codeword([sym], LiftStrategy.FIRST_COEFFICIENT)
    lifted = cw.components[0]
    assert lifted.zcoords[1].is_zero
    assert q_gold.reduce(lifted) == sym
    with pytest.raises(WrongCase):
        lift_codeword([q_gold.z], LiftStrategy.FIRST_COEFFICIENT)


def test_lift_randomized_is_section(q_gold):
    syms = [q_gold.z + q_gold.one, q_gold.from_residue(q_gold.S.basis(1))]
    plain = lift_codeword(syms)
    seen_different = False
    for seed in range(6):
        cw = lift_codeword(syms, LiftStrategy.RANDOMIZED, seed=seed)
        for lifted, sym in zip(cw.components, syms):
            assert q_gold.reduce(lifted) == sym
        if cw.components != plain.components:
            seen_different = True
    assert seen_different


def test_lift_randomized_reproducible(q_gold):
    syms = [q_gold.z, q_gold.one]
    a = lift_codeword(syms, LiftStrategy.RANDOMIZED, seed=9)
    b = lift_codeword(syms, LiftStrategy.RANDOMIZED, seed=9)
    assert a.components == b.components


def test_lift_residue_symbols(golden, q_gold):
    S = q_gold.S
    sym = S.basis(1)
    cw = lift_codeword([sym], algebra=golden)
    lifted = cw.components[0]
    assert S.from_ok(lifted.zcoords[0]) == sym
    assert lifted.zcoords[1].is_zero
    rnd = lift_codeword([sym], LiftStrategy.RANDOMIZED, algebra=golden, seed=2)
    assert S.from_ok(rnd.components[0].zcoords[0]) == sym
    with pytest.raises(WrongCase):
        lift_codeword([sym])  # residue symbols need the ambient algebra


def test_lift_rejects_junk(q_gold):
    with pytest.raises(BadMessageLength):
        lift_codeword([])
    with pytest.raises(TypeError):
        lift_codeword([1, 2, 3])


def test_monomial_project(golden_1pi, golden):
    prime = ideal_of(golden_1pi, 1, 1)
    S = residue_ring(golden_1pi.ext, prime.modulus)
    x = golden_1pi.z + golden_1pi.one
    proj = monomial_project(golden_1pi, prime, 1, x)
    assert proj == (S.one,)
    assert monomial_project(golden_1pi, prime, 1, golden_1pi.z) == (S.zero,)
    with pytest.raises(WrongCase):
        monomial_project(golden, ideal_of(golden, 1, 1), 1, golden.one)
    with pytest.raises(WrongCase):
        monomial_project(golden_1pi, prime, 0, x)


# -- lower bounds -----------------------------------------------------------------


def test_delta_lower_bound_principal(golden):
    rep = delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0)
    assert rep.bound_formula is BoundFormula.PRINCIPAL
    assert rep.lower_bound == 4.0


def test_delta_lower_bound_principal_power(golden):
    rep = delta_lower_bound(golden, ideal_of(golden, 1, 1, s=2), 2, 1.0)
    assert rep.bound_formula is BoundFormula.PRINCIPAL_POWER
    assert rep.lower_bound == 4.0  # d_H^2 = 4 is smaller than |1+i|^8 = 16
    rep = delta_lower_bound(golden, ideal_of(golden, 1, 1, s=2), 5, 1.0)
    assert rep.lower_bound == 16.0


def test_delta_lower_bound_nilpotent(golden_1pi):
    rep = delta_lower_bound(golden_1pi, ideal_of(golden_1pi, 1, 1), 2, 1.0,
                            monomial_power=1)
    assert rep.bound_formula is BoundFormula.NILPOTENT_U
    assert rep.lower_bound == 2.0


def test_delta_lower_bound_general(golden):
    rep = delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0,
                            in_ideal_min=3.0, formula=BoundFormula.GENERAL)
    assert rep.lower_bound == 3.0


def test_delta_lower_bound_mismatches(golden, golden_1pi):
    with pytest.raises(FormulaMismatch):
        delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0,
                          formula=BoundFormula.GENERAL)
    with pytest.raises(FormulaMismatch):
        delta_lower_bound(golden, ideal_of(golden, 1, 1, s=2), 2, 1.0,
                          formula=BoundFormula.PRINCIPAL)
    with pytest.raises(FormulaMismatch):
        delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0,
                          monomial_power=1, formula=BoundFormula.PRINCIPAL)
    with pytest.raises(FormulaMismatch):
        delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0,
                          formula=BoundFormula.NILPOTENT_U)
    with pytest.raises(FormulaMismatch):
        # u = i is a unit mod (1+i), so the nilpotent formula does not apply
        delta_lower_bound(golden, ideal_of(golden, 1, 1), 2, 1.0,
                          monomial_power=1, formula=BoundFormula.NILPOTENT_U)


# -- box minima and searches --------------------------------------------------------


def test_min_det_sq_in_box(golden):
    value, arg = min_det_sq_in_box(golden, 1)
    assert value == 1.0
    assert arg == golden.one
    with pytest.raises(EmptyCode):
        min_det_sq_in_box(golden, 0)


def test_min_det_sq_in_box_rejects_numeric_disagreement(golden, monkeypatch):
    monkeypatch.setattr(OrderElement, "abs_det_sq", lambda self: 7)
    with pytest.raises(NumericMismatch):
        min_det_sq_in_box(golden, 1)


@pytest.mark.parametrize("name, z_slots", [
    ("golden", None), ("golden_1pi", None), ("gauss", None),
    ("q7", [0]), ("q15", [0]),
])
def test_box_table_linear_embedding(request, name, z_slots):
    algebra = request.getfixturevalue(name)
    if z_slots is not None:
        with pytest.raises(TooLargeToEnumerate):
            _BoxTable(algebra, 1)
    table = _BoxTable(algebra, 1, z_slots)
    ref = np.empty_like(table.mats)
    for i in range(len(table)):
        el = table.element(i)
        assert tuple(np.array(el.flat_ints())[table.positions]) == tuple(table.digits[i])
        ref[i] = el.matrix().numeric()
    if z_slots is None:
        assert np.array_equal(table.mats, ref)
    else:
        assert np.allclose(table.mats, ref, rtol=0, atol=1e-12)


def test_sum_closed_study_short_code(golden):
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=2)
    assert study.outer_distance() == 2
    report = delta_min_search(study)
    assert report.lower_bound == 4.0
    assert report.search_min == pytest.approx(4.0, abs=1e-6)
    # the family repeats one symbol, so the witness is (1, 1)
    assert report.argmin.components == (golden.one, golden.one)
    assert report.evaluated == 6561
    assert report.argmin.outer_image == study.outer_image(report.argmin.components)


def test_sum_closed_budget_exceeded(golden):
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=2)
    with pytest.raises(SearchBudgetExceeded):
        delta_min_search(study, budget=10)


def test_sum_closed_randomized_fallback(golden):
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=2)
    report = delta_min_search(study, budget=10, seed=0, samples=2000)
    assert report.evaluated == 2000
    assert report.search_min >= report.lower_bound - 1e-9


def test_search_skips_rows_the_minkowski_bound_rules_out(golden, monkeypatch):
    # every Gram score goes through _det_abs, one block of candidates at a
    # time.  The first row finds (1, 0, 1) with score 4; every later row has
    # a bound of at least (1 + 1)^2 = 4, so only the first row is scored
    scored = []
    det_abs = coding._det_abs
    monkeypatch.setattr(coding, "_det_abs",
                        lambda stack: scored.append(len(stack)) or det_abs(stack))
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=3)
    report = delta_min_search(study)
    assert report.search_min == pytest.approx(4.0, abs=1e-6)
    assert report.evaluated == 6561 ** 2
    assert sum(scored) == 6561 - 1  # x_1 = 0 would be the all-zero codeword
    assert max(scored) <= coding.BLOCK


def test_monomial_offset_study_short_code(golden_1pi):
    study = MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1), length=2)
    assert study.outer_distance() == 2
    report = delta_min_search(study)
    assert report.lower_bound == 2.0
    assert report.search_min == pytest.approx(2.0, abs=1e-6)
    assert report.argmin.components == (golden_1pi.zero, golden_1pi.z)


def test_monomial_offset_study_validations(golden, golden_1pi):
    with pytest.raises(WrongCase):
        MonomialOffsetStudy(golden, ideal_of(golden, 1, 1))  # u is a unit
    with pytest.raises(WrongCase):
        MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1, s=2))
    with pytest.raises(WrongCase):
        MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1), power=2)
    with pytest.raises(ValueError):
        SumClosedStudy(golden, ideal_of(golden, 1, 1), length=1)


def test_delta_report_to_dict(golden):
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=2)
    report = delta_min_search(study)
    d = report.to_dict()
    assert d["lower_bound"] == 4.0
    assert d["bound_formula"] == "Principal"
    assert d["search_min"] == pytest.approx(4.0)
    assert d["argmin"]["coordinates"][0] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert "inner |det|^2 minimum" in d["notes"]


def _unpruned_search(study):
    """Reference for delta_min_search: every codeword scored, nothing skipped.

    Same enumeration order, tie rule and float operations as the search,
    but each row scores all of its x_1 and masks the ones outside the box.
    It forms each X X^* from `msg.mats` with an einsum per stack shape, not
    through `coding._gram`.
    Returns (minimum, witness components, candidates, codewords).
    """
    alg, bound = study.algebra, study.box_bound
    if isinstance(study, SumClosedStudy):
        msg, off = _BoxTable(alg, bound), _BoxTable(alg, bound, [])
    else:
        msg = _BoxTable(alg, bound, range(study.power))
        off = _BoxTable(alg, bound, range(study.power, alg.n))
    assert alg.n == 2
    zero = np.zeros_like(msg.mats[0])
    grams = np.einsum("rij,rkj->rik", msg.mats, msg.mats.conj())
    best, best_ids, candidates, codewords = np.inf, None, 0, 0
    for o in range(len(off)):
        for slow in itertools.product(range(len(msg)), repeat=study.length - 2):
            slow_mat = sum((msg.mats[q] for q in slow), zero)
            slow_h = sum((np.einsum("ij,kj->ik", msg.mats[q], msg.mats[q].conj())
                          for q in slow), zero)
            last = msg.mats + slow_mat + off.mats[o]
            g = grams + slow_h + np.einsum("rij,rkj->rik", last, last.conj())
            vals = np.abs(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0])
            slow_c = sum((msg.digits[q] for q in slow), np.zeros_like(msg.digits[0]))
            inside = np.all(np.abs(msg.digits + slow_c) <= bound, axis=1)
            if o == 0 and not any(slow):
                inside[0] = False
            candidates += len(msg)
            codewords += int(inside.sum())
            vals[~inside] = np.inf
            local = int(np.nonzero(vals <= vals.min() + SCORE_TOL)[0][0])
            if vals[local] < best - SCORE_TOL:
                best, best_ids = float(vals[local]), ((local,) + slow, o)
    ids, o = best_ids
    msgs = [msg.element(i) for i in ids]
    last = off.element(o)
    for m in msgs:
        last = last + m
    return best, tuple(msgs) + (last,), candidates, codewords


@pytest.mark.parametrize("name, study_kind, length", [
    ("golden", "sum", 2),
    ("golden_1pi", "monomial", 2),
    ("golden_1pi", "monomial", 3),
    ("gauss", "sum", 3),
    ("gauss", "sum", 4),  # slow rows such as (x, -x) cancel
    ("gauss_u5", "sum", 3),  # zero divisors: the least nonzero root is 0
    ("gauss_u5", "sum", 4),
])
def test_pruned_search_matches_unpruned(request, name, study_kind, length):
    algebra = request.getfixturevalue(name)
    if study_kind == "sum":
        ideal = ideal_of(algebra, 1, 1) if name.startswith("golden") else IdealSpec(
            algebra.ext.base.element(3))
        study = SumClosedStudy(algebra, ideal, length=length)
    else:
        study = MonomialOffsetStudy(algebra, ideal_of(algebra, 1, 1), length=length)
    report = delta_min_search(study)
    best, comps, candidates, codewords = _unpruned_search(study)
    assert report.search_min == best
    assert report.argmin.components == comps
    assert report.evaluated == candidates
    found = re.search(r"(\d+) codewords inside the box", report.notes)
    assert int(found.group(1)) == codewords


def test_tuple_sums_widen_narrow_digits():
    values = np.array([0, 100, -100, 127], dtype=np.int8)
    sums = coding._tuple_sums(values, 3)
    assert sums.dtype == np.int64
    assert sums.tolist() == [sum(t) for t in itertools.product(values.tolist(), repeat=3)]
    roots = coding._tuple_sums(np.array([0.5, 1.25]), 2)
    assert roots.dtype == np.float64 and roots.tolist() == [1.0, 1.75, 1.75, 2.5]


def blocked_reports(monkeypatch, study, **kw):
    """delta_min_search at the module's BLOCK and at 37 rows a block."""
    whole = delta_min_search(study, **kw)
    monkeypatch.setattr(coding, "BLOCK", 37)
    return whole, delta_min_search(study, **kw)


def assert_same_report(a, b):
    assert a.search_min == b.search_min
    assert a.argmin.components == b.argmin.components
    assert a.evaluated == b.evaluated
    assert a.notes == b.notes


@pytest.mark.parametrize("name, study_kind, length", [
    ("golden", "sum", 3),
    ("golden_1pi", "monomial", 2),
    ("golden_1pi", "monomial", 3),
])
def test_search_scores_rows_block_by_block(request, monkeypatch, name, study_kind, length):
    algebra = request.getfixturevalue(name)
    ideal = ideal_of(algebra, 1, 1)
    if study_kind == "sum":
        study = SumClosedStudy(algebra, ideal, length=length)
        # _unpruned_search(study) takes about 20 s here; these are its values
        best, comps, candidates, codewords = (
            4.0, (algebra.one, algebra.zero, algebra.one), 6561 ** 2, 5764800)
    else:
        study = MonomialOffsetStudy(algebra, ideal, length=length)
        best, comps, candidates, codewords = _unpruned_search(study)
    whole, small = blocked_reports(monkeypatch, study)
    assert_same_report(whole, small)
    assert whole.search_min == best
    assert whole.argmin.components == comps
    assert whole.evaluated == candidates
    assert whole.notes.endswith(f"; {codewords} codewords inside the box")


def whole_array_sample(length, msg, off, seed, samples):
    """The sampler as it scored every kept draw in one stack."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(msg), size=(samples, length - 1))
    offs = rng.integers(0, len(off), size=samples)
    inside = np.all(np.abs(msg.digits[idx].sum(axis=1)) <= msg.bound, axis=1)
    inside &= ~((idx == 0).all(axis=1) & (offs == 0))
    keep = np.nonzero(inside)[0]
    mats = msg.mats[idx[keep]]
    last = mats.sum(axis=1) + off.mats[offs[keep]]
    gram = np.einsum("rlij,rlkj->rlik", mats, mats.conj()).sum(axis=1) + np.einsum(
        "rij,rkj->rik", last, last.conj())
    vals = coding._det_abs(gram)
    local = coding._first_min(vals)
    pick = keep[local]
    return (float(vals[local]), coding._codeword(msg, off, idx[pick], int(offs[pick])),
            samples, len(keep))


@pytest.mark.parametrize("seed", range(3))
def test_sampled_search_scores_draws_block_by_block(golden, monkeypatch, seed):
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=4)  # over budget
    best, comps, evaluated, codewords = whole_array_sample(
        4, _BoxTable(golden, 1), _BoxTable(golden, 1, []), seed, 10 ** 4)
    whole, small = blocked_reports(monkeypatch, study, seed=seed, samples=10 ** 4)
    assert_same_report(whole, small)
    assert whole.search_min == best
    assert whole.argmin.components == comps
    assert whole.evaluated == evaluated
    assert whole.notes.endswith(f"; {codewords} codewords inside the box")


def traced_peak(run):
    """Peak bytes that tracemalloc sees while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_holds_blocks_not_rows(golden):
    # row-length Gram stacks put the warm peak near 3.1 MiB, blocks of
    # BLOCK candidates and a table built block by block near 1.47 MiB, and
    # tables that hold no Gram parts near 1.07 MiB
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=3)
    delta_min_search(study)
    assert traced_peak(lambda: delta_min_search(study)) < 2.5 * 2 ** 20


def test_monomial_search_holds_no_gram_tables(golden_1pi):
    # tables that precomputed X X^* for every row put the warm peak near
    # 1.11 MiB, though this search reads Gram parts of its message table
    # only; Gram parts formed from `mats` where they are scored, near 0.64 MiB
    study = MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1), length=3)
    delta_min_search(study)
    assert traced_peak(lambda: delta_min_search(study)) < 0.9 * 2 ** 20


def test_sampled_search_holds_blocks_not_samples(golden):
    # gathers of every kept draw put the peak near 28.7 MiB at 10^5
    # samples; scoring BLOCK draws at a time, near 4.4 MiB
    study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=4)
    delta_min_search(study, seed=0, samples=10)
    assert traced_peak(lambda: delta_min_search(study, seed=0, samples=10 ** 5)) < 10 << 20


def test_coset_codeword_basics(golden, q_gold):
    cw = lift_codeword([q_gold.one, q_gold.z])
    assert len(cw) == 2
    assert isinstance(cw, CosetCodeword)
    assert str(cw).startswith("(")
