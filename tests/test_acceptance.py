"""Acceptance gate: the eleven pinned end-to-end criteria.

Each test prints one `ACCEPTANCE n: PASS/FAIL - description` line (visible
with pytest -s and in failure reports) and enforces the pinned values,
tolerances, and wall-clock budgets.
"""

import time
from contextlib import contextmanager

import pytest

from cycord.cli import main as cli_main
from cycord.coding import (
    MonomialOffsetStudy,
    SumClosedStudy,
    delta_min_search,
    min_det_sq_in_box,
    run_lemma_trials,
)
from cycord.extension import IdealSpec
from cycord.residue import brute_force_ideals, factor_prime, ideal_elements, quotient_of
from cycord.structure import (
    QuotientCase,
    VerifyMode,
    enumerate_monomial_ideals,
    identify_quotient,
    stairwell_contains,
    verify_isomorphism,
)


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} [{elapsed:.2f}s]")


def ideal_of(algebra, a, b=0, s=1):
    return IdealSpec(algebra.ext.base.element(a, b), s)


def test_criterion_01_golden_inert_unit(golden):
    with criterion(1, "golden mod (1+i) is M_2(F_2), exhaustively verified", 1.0):
        rep = identify_quotient(golden, ideal_of(golden, 1, 1))
        assert rep.case is QuotientCase.INERT_UNIT
        assert rep.target == "M_2(F_2)"
        ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
        assert ver.passed
        assert ver.elements_enumerated == 16
        assert ver.pairs_checked == 256 and ver.pairs_exhaustive
        assert [I.label for I in rep.ideal_lattice] == ["ring", "0"]
        sets = [I.elements for I in rep.ideal_lattice]
        assert sorted(map(len, sets)) == [1, 16]
        assert {frozenset(s) for s in brute_force_ideals(rep.quotient)} == {
            frozenset(s) for s in sets
        }


def test_criterion_02_q7_sampled_matrix_ring(q7):
    with criterion(2, "q7 mod (2) is M_3(F_4), sampled certificate", 30.0):
        rep = identify_quotient(q7, ideal_of(q7, 2))
        assert rep.target == "M_3(F_4)"
        assert rep.cardinality == 2 ** 18
        ver = verify_isomorphism(rep.certificate, VerifyMode.SAMPLED)
        assert ver.passed
        assert ver.pairs_checked == 10_000
        assert ver.rank == ver.dim  # additive kernel is trivial
        assert ver.source_cardinality == ver.target_cardinality == 2 ** 18


def test_criterion_03_q15_exhaustive_matrix_ring(q15):
    with criterion(3, "q15 mod (1+i) is M_4(F_2), exhaustive over 2^16", 60.0):
        rep = identify_quotient(q15, ideal_of(q15, 1, 1))
        assert rep.target == "M_4(F_2)"
        assert rep.cardinality == 2 ** 16
        ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
        assert ver.passed
        assert ver.elements_enumerated == 2 ** 16
        assert ver.pairs_checked == 100_000
        assert ver.rank == ver.dim


def test_criterion_04_inert_nilpotent_chain(golden_1pi):
    with criterion(4, "golden u=1+i mod (1+i): skew chain matches brute force", 1.0):
        rep = identify_quotient(golden_1pi, ideal_of(golden_1pi, 1, 1))
        assert rep.case is QuotientCase.INERT_NILPOTENT
        Q = rep.quotient
        chain = {I.label: I.elements for I in rep.ideal_lattice}
        assert set(chain) == {"ring", "<z>", "<z^2>"}
        assert len(chain["<z>"]) == 4 and len(chain["<z^2>"]) == 1
        found = brute_force_ideals(Q)
        assert {frozenset(s) for s in found} == {frozenset(s) for s in chain.values()}
        # the quotient by <z> is the residue field with four elements:
        # images of S form a transversal and multiply like S
        S = Q.S
        reps = [Q.from_residue(s) for s in S.elements()]
        zset = chain["<z>"]
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert ((a - b).encode() in zset) == (i == j)
        for sa in S.elements():
            for sb in S.elements():
                delta = Q.from_residue(sa) * Q.from_residue(sb) - Q.from_residue(
                    S.mul(sa, sb))
                assert delta.encode() in zset


def test_criterion_05_lifted_power_certificate(golden):
    with criterion(5, "golden mod (1+i)^2 is M_2(Z[i]/(1+i)^2), verified", 5.0):
        rep = identify_quotient(golden, ideal_of(golden, 1, 1, s=2))
        assert rep.case is QuotientCase.INERT_UNIT_POWER
        assert rep.target == "M_2(Z[i] mod (1+i)^2)"
        assert rep.cardinality == 256
        ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
        assert ver.passed
        assert [I.label for I in rep.ideal_lattice] == ["ring", "q^1", "0"]
        sets = [I.elements for I in rep.ideal_lattice]
        assert all(s is not None for s in sets)
        assert {frozenset(s) for s in brute_force_ideals(rep.quotient)} == {
            frozenset(s) for s in sets
        }


def test_criterion_06_split_unit(gauss):
    with criterion(6, "gauss mod (5) is M_2(F_5) with g=2, verified", 5.0):
        rep = identify_quotient(gauss, ideal_of(gauss, 5))
        assert rep.case is QuotientCase.SPLIT_UNIT
        assert rep.splitting.g == 2
        assert rep.target == "M_2(F_5)"
        ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
        assert ver.passed and ver.rank == ver.dim
        sets = [I.elements for I in rep.ideal_lattice]
        assert sorted(map(len, sets)) == [1, 625]
        assert {frozenset(s) for s in brute_force_ideals(rep.quotient)} == {
            frozenset(s) for s in sets
        }


def test_criterion_07_split_nilpotent_monomials(gauss_u5):
    with criterion(7, "gauss u=5 mod (5): monomial lattice matches brute force", 10.0):
        ideal = ideal_of(gauss_u5, 5)
        Q = quotient_of(gauss_u5, ideal)
        split = factor_prime(gauss_u5.ext, ideal.alpha)
        monomials = enumerate_monomial_ideals(gauss_u5, ideal)
        rep = identify_quotient(gauss_u5, ideal)
        assert rep.case is QuotientCase.SPLIT_NILPOTENT
        lattice_sets = {frozenset(I.elements) for I in rep.ideal_lattice}
        assert lattice_sets == {frozenset(s) for s in brute_force_ideals(Q)}
        assert len(monomials) == len(rep.ideal_lattice) == 7
        # every generating set is minimal
        for mi in monomials:
            for a in mi.generators:
                assert not any(
                    stairwell_contains(b, a, mi.g, mi.n)
                    for b in mi.generators if b != a
                )
        # stairwell membership == actual ideal containment, all monomial pairs
        g, n = split.g, Q.n
        pool = [(i, j) for i in range(1, g + 1) for j in range(n)]

        def elem(m):
            i, j = m
            return Q.from_residue(split.idempotents[i - 1]) * Q.z ** j

        sets = {m: ideal_elements(Q, [elem(m)]) for m in pool}
        for a in pool:
            for b in pool:
                assert stairwell_contains(a, b, g, n) == (
                    elem(b).encode() in sets[a])


def test_criterion_08_determinant_inequality_lemma():
    with criterion(8, "10^4 random determinant inequality trials, k=1 exact", 120.0):
        rep = run_lemma_trials(10_000, seed=0)
        assert rep["trials"] == 10_000
        assert rep["violations"] == 0
        assert rep["min_relative_margin"] >= -1e-9
        assert rep["k1_trials"] > 0
        assert rep["k1_equality_failures"] == 0


def test_criterion_09_delta_min_parity_golden(golden):
    with criterion(9, "parity coset code over golden mod (1+i): delta_min = 4", 10.0):
        inner_min, inner_arg = min_det_sq_in_box(golden, 1)
        assert inner_min == 1.0
        assert inner_arg == golden.one
        study = SumClosedStudy(golden, ideal_of(golden, 1, 1), length=3, box_bound=1)
        report = delta_min_search(study)
        assert report.lower_bound == 4.0
        assert report.search_min == pytest.approx(4.0, abs=1e-6)
        comps = report.argmin.components
        # witness has the sum-closed shape (x1, 0, x1) with x1 = 1
        assert comps[1].is_zero
        assert comps[0] == comps[2] == golden.one


def test_criterion_10_delta_min_z_code(golden_1pi):
    with criterion(10, "z-monomial coset code over golden u=1+i: delta_min = 2", 10.0):
        study = MonomialOffsetStudy(golden_1pi, ideal_of(golden_1pi, 1, 1),
                                    power=1, length=3, box_bound=1)
        report = delta_min_search(study)
        assert report.lower_bound == 2.0
        assert report.search_min == pytest.approx(2.0, abs=1e-6)
        comps = report.argmin.components
        assert comps[0].is_zero and comps[1].is_zero
        assert comps[2] == golden_1pi.z


def test_criterion_11_selftest_suites(capsys):
    with criterion(11, "cli selftest runs all five exact property suites", 120.0):
        code = cli_main(["selftest", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        for suite in ("embedding_law", "crt_round_trip", "canonical_section",
                      "unipotent_inverse", "det_scaling"):
            assert f"{suite}:" in out and "passed" in out
