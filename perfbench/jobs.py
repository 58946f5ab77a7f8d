"""Workload definitions: which algebras each workload loads and which jobs it runs.

Every job re-checks the pinned acceptance values of `tests/test_acceptance.py`
and returns a record of its observable results.  A pinned value that is
missed, or an exception, fails the job without stopping the pass; the
record is compared across passes so that a result that changes between
runs of the same seed also fails.

`cycord` is imported inside the job functions, so that `run.py` can read the
workload table without importing the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

# name -> (algebras loaded at set-up, as (key, spec name, u override); jobs)
WORKLOADS = {
    # criteria 9 and 10: the only workload where `coding` dominates
    "search": (
        (("golden", "golden_u_i", None), ("golden_1pi", "golden_u_1pi", None)),
        ("c09_parity_golden", "c10_zcode_golden_1pi"),
    ),
    # criteria 1-7: residue, structure and the F_p tensor views
    "certify": (
        (("golden", "golden_u_i", None), ("golden_1pi", "golden_u_1pi", None),
         ("q7", "q7_cubic", None), ("q15", "q15_quartic", None),
         ("gauss", "gauss_over_Q", None), ("gauss_u5", "gauss_over_Q", "5")),
        ("c01_golden_inert_unit", "c02_q7_sampled", "c03_q15_exhaustive",
         "c04_inert_nilpotent_chain", "c05_lifted_power", "c06_split_unit",
         "c07_split_nilpotent_monomials"),
    ),
    # criterion 11: object arithmetic of base_rings and extension
    "exact": ((), ("c11_selftest",)),
    # one process per subcommand: interpreter start-up and `import cycord`
    "cli": ((), ("describe", "reduce", "structure_golden", "structure_q7",
                 "ideals", "encode", "deltamin", "check-lemma")),
}

ZCODE_SPEC = "perfbench/zcode.json"

# job -> argument list of one `cycord` call; the job name up to the first
# underscore is the subcommand
CLI_ARGS = {
    "describe": ["describe", "--algebra", "golden_u_i.json"],
    "reduce": ["reduce", "--algebra", "golden_u_i.json", "--ideal", "(1+i),(3)",
               "--element", "1, 2; 3, 4"],
    "structure_golden": ["structure", "--algebra", "golden_u_i.json",
                         "--ideal", "1+i", "--verify"],
    "structure_q7": ["structure", "--algebra", "q7_cubic.json", "--ideal", "2",
                     "--verify", "--mode", "sampled"],
    "ideals": ["ideals", "--algebra", "golden_u_1pi.json", "--ideal", "1+i"],
    "encode": ["encode", "--code-spec", ZCODE_SPEC, "--message", '["1,0", "0,1"]'],
    "deltamin": ["deltamin", "--code-spec", ZCODE_SPEC],
    # criterion 8 is pinned at seed 0: with 10^4 trials, some other seeds
    # (2, for one) report a k=1 equality failure, because run_lemma_trials
    # holds a float determinant to 1e-12 relative error
    "check-lemma": ["check-lemma", "--trials", "10000", "--seed", "0"],
}


def load_algebras(workload: str) -> dict:
    from cycord.order import load_algebra

    return {key: load_algebra(name, u) for key, name, u in WORKLOADS[workload][0]}


class Checks:
    """Collects the pinned values a job missed and the results it observed."""

    def __init__(self):
        self.misses: list[str] = []
        self.record: dict = {}  # deterministic for a given seed
        self.extra: dict = {}  # timings and spans, which vary between runs

    def expect(self, label: str, condition) -> None:
        if not condition:
            self.misses.append(label)


def run_job(workload: str, name: str, algebras: dict, seed: int,
            child_cmd: list[str] | None = None) -> dict:
    """Run one job; never raises for a failure of the program under test."""
    ck = Checks()
    error = None
    try:
        if workload == "cli":
            _cli_job(name, seed, child_cmd, ck)
        else:
            _JOBS[name](algebras, seed, ck)
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    return {"name": name, "ok": error is None and not ck.misses,
            "misses": ck.misses, "error": error, "record": ck.record, **ck.extra}


def _ideal(algebra, a, b=0, s=1):
    from cycord.extension import IdealSpec

    return IdealSpec(algebra.ext.base.element(a, b), s)


def _sets(ideals):
    return {frozenset(s) for s in ideals}


def _structure_record(ck, rep, ver=None):
    ck.record.update(case=rep.case.value, target=rep.target,
                     cardinality=rep.cardinality,
                     lattice=[I.label for I in rep.ideal_lattice])
    if ver is not None:
        ck.record.update(pairs_checked=ver.pairs_checked,
                         elements_enumerated=ver.elements_enumerated,
                         rank=ver.rank, dim=ver.dim)


def c01_golden_inert_unit(al, seed, ck):
    from cycord.residue import brute_force_ideals
    from cycord.structure import QuotientCase, VerifyMode, identify_quotient, verify_isomorphism

    g = al["golden"]
    rep = identify_quotient(g, _ideal(g, 1, 1))
    ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE, seed)
    _structure_record(ck, rep, ver)
    ck.expect("case", rep.case is QuotientCase.INERT_UNIT)
    ck.expect("target", rep.target == "M_2(F_2)")
    ck.expect("passed", ver.passed)
    ck.expect("elements_enumerated", ver.elements_enumerated == 16)
    ck.expect("pairs_checked", ver.pairs_checked == 256 and ver.pairs_exhaustive)
    ck.expect("lattice labels", ck.record["lattice"] == ["ring", "0"])
    sets = [I.elements for I in rep.ideal_lattice]
    ck.expect("lattice sizes", sorted(map(len, sets)) == [1, 16])
    ck.expect("lattice = brute force", _sets(brute_force_ideals(rep.quotient)) == _sets(sets))


def c02_q7_sampled(al, seed, ck):
    from cycord.structure import VerifyMode, identify_quotient, verify_isomorphism

    q7 = al["q7"]
    rep = identify_quotient(q7, _ideal(q7, 2))
    ver = verify_isomorphism(rep.certificate, VerifyMode.SAMPLED, seed)
    _structure_record(ck, rep, ver)
    ck.expect("target", rep.target == "M_3(F_4)")
    ck.expect("cardinality", rep.cardinality == 2 ** 18)
    ck.expect("passed", ver.passed)
    ck.expect("pairs_checked", ver.pairs_checked == 10_000)
    ck.expect("rank", ver.rank == ver.dim)
    ck.expect("cardinalities",
              ver.source_cardinality == ver.target_cardinality == 2 ** 18)


def c03_q15_exhaustive(al, seed, ck):
    from cycord.structure import VerifyMode, identify_quotient, verify_isomorphism

    q15 = al["q15"]
    rep = identify_quotient(q15, _ideal(q15, 1, 1))
    ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE, seed)
    _structure_record(ck, rep, ver)
    ck.expect("target", rep.target == "M_4(F_2)")
    ck.expect("cardinality", rep.cardinality == 2 ** 16)
    ck.expect("passed", ver.passed)
    ck.expect("elements_enumerated", ver.elements_enumerated == 2 ** 16)
    ck.expect("pairs_checked", ver.pairs_checked == 100_000)
    ck.expect("rank", ver.rank == ver.dim)


def c04_inert_nilpotent_chain(al, seed, ck):
    from cycord.residue import brute_force_ideals
    from cycord.structure import QuotientCase, identify_quotient

    g1 = al["golden_1pi"]
    rep = identify_quotient(g1, _ideal(g1, 1, 1))
    _structure_record(ck, rep)
    Q = rep.quotient
    chain = {I.label: I.elements for I in rep.ideal_lattice}
    ck.expect("case", rep.case is QuotientCase.INERT_NILPOTENT)
    ck.expect("chain labels", set(chain) == {"ring", "<z>", "<z^2>"})
    ck.expect("chain sizes", len(chain.get("<z>", ())) == 4 and len(chain.get("<z^2>", ())) == 1)
    ck.expect("chain = brute force", _sets(brute_force_ideals(Q)) == _sets(chain.values()))
    # the quotient by <z> is the residue field: images of S are a transversal
    # that multiplies like S
    S = Q.S
    reps = [Q.from_residue(s) for s in S.elements()]
    zset = chain.get("<z>", frozenset())
    ck.expect("transversal", all(
        ((a - b).encode() in zset) == (i == j)
        for i, a in enumerate(reps) for j, b in enumerate(reps)))
    ck.expect("residue products", all(
        (Q.from_residue(sa) * Q.from_residue(sb) - Q.from_residue(S.mul(sa, sb))).encode() in zset
        for sa in S.elements() for sb in S.elements()))


def c05_lifted_power(al, seed, ck):
    from cycord.residue import brute_force_ideals
    from cycord.structure import QuotientCase, VerifyMode, identify_quotient, verify_isomorphism

    g = al["golden"]
    rep = identify_quotient(g, _ideal(g, 1, 1, s=2))
    ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE, seed)
    _structure_record(ck, rep, ver)
    ck.expect("case", rep.case is QuotientCase.INERT_UNIT_POWER)
    ck.expect("target", rep.target == "M_2(Z[i] mod (1+i)^2)")
    ck.expect("cardinality", rep.cardinality == 256)
    ck.expect("passed", ver.passed)
    ck.expect("lattice labels", ck.record["lattice"] == ["ring", "q^1", "0"])
    sets = [I.elements for I in rep.ideal_lattice]
    ck.expect("lattice enumerated", all(s is not None for s in sets))
    ck.expect("lattice = brute force",
              None not in sets and _sets(brute_force_ideals(rep.quotient)) == _sets(sets))


def c06_split_unit(al, seed, ck):
    from cycord.residue import brute_force_ideals
    from cycord.structure import QuotientCase, VerifyMode, identify_quotient, verify_isomorphism

    gauss = al["gauss"]
    rep = identify_quotient(gauss, _ideal(gauss, 5))
    ver = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE, seed)
    _structure_record(ck, rep, ver)
    ck.expect("case", rep.case is QuotientCase.SPLIT_UNIT)
    ck.expect("g", rep.splitting.g == 2)
    ck.expect("target", rep.target == "M_2(F_5)")
    ck.expect("passed", ver.passed and ver.rank == ver.dim)
    sets = [I.elements for I in rep.ideal_lattice]
    ck.expect("lattice sizes", sorted(map(len, sets)) == [1, 625])
    ck.expect("lattice = brute force", _sets(brute_force_ideals(rep.quotient)) == _sets(sets))


def c07_split_nilpotent_monomials(al, seed, ck):
    from cycord.residue import brute_force_ideals, factor_prime, ideal_elements, quotient_of
    from cycord.structure import (
        QuotientCase,
        enumerate_monomial_ideals,
        identify_quotient,
        stairwell_contains,
    )

    gu5 = al["gauss_u5"]
    ideal = _ideal(gu5, 5)
    Q = quotient_of(gu5, ideal)
    split = factor_prime(gu5.ext, ideal.alpha)
    monomials = enumerate_monomial_ideals(gu5, ideal)
    rep = identify_quotient(gu5, ideal)
    _structure_record(ck, rep)
    ck.record["monomial_ideals"] = len(monomials)
    ck.expect("case", rep.case is QuotientCase.SPLIT_NILPOTENT)
    ck.expect("lattice = brute force",
              {frozenset(I.elements) for I in rep.ideal_lattice} == _sets(brute_force_ideals(Q)))
    ck.expect("seven monomial ideals", len(monomials) == len(rep.ideal_lattice) == 7)
    ck.expect("minimal generators", not any(
        stairwell_contains(b, a, mi.g, mi.n)
        for mi in monomials for a in mi.generators for b in mi.generators if b != a))
    g, n = split.g, Q.n
    pool = [(i, j) for i in range(1, g + 1) for j in range(n)]

    def elem(m):
        i, j = m
        return Q.from_residue(split.idempotents[i - 1]) * Q.z ** j

    sets = {m: ideal_elements(Q, [elem(m)]) for m in pool}
    ck.expect("stairwell = containment", all(
        stairwell_contains(a, b, g, n) == (elem(b).encode() in sets[a])
        for a in pool for b in pool))


def _delta_record(ck, report):
    ck.record.update(lower_bound=report.lower_bound, search_min=report.search_min,
                     argmin=[str(c) for c in report.argmin.components])


def c09_parity_golden(al, seed, ck):
    from cycord.coding import SumClosedStudy, delta_min_search, min_det_sq_in_box

    g = al["golden"]
    inner_min, inner_arg = min_det_sq_in_box(g, 1)
    ck.expect("inner minimum", inner_min == 1.0 and inner_arg == g.one)
    study = SumClosedStudy(g, _ideal(g, 1, 1), length=3, box_bound=1)
    report = delta_min_search(study)
    _delta_record(ck, report)
    ck.expect("lower bound", report.lower_bound == 4.0)
    ck.expect("delta_min", abs(report.search_min - 4.0) <= 1e-6)
    comps = report.argmin.components
    ck.expect("witness (1, 0, 1)",
              comps[1].is_zero and comps[0] == comps[2] == g.one)


def c10_zcode_golden_1pi(al, seed, ck):
    from cycord.coding import MonomialOffsetStudy, delta_min_search

    g1 = al["golden_1pi"]
    study = MonomialOffsetStudy(g1, _ideal(g1, 1, 1), power=1, length=3, box_bound=1)
    report = delta_min_search(study)
    _delta_record(ck, report)
    ck.expect("lower bound", report.lower_bound == 2.0)
    ck.expect("delta_min", abs(report.search_min - 2.0) <= 1e-6)
    comps = report.argmin.components
    ck.expect("witness (0, 0, z)",
              comps[0].is_zero and comps[1].is_zero and comps[2] == g1.z)


SELFTEST_SUITES = ("embedding_law", "crt_round_trip", "canonical_section",
                   "unipotent_inverse", "det_scaling")


def c11_selftest(al, seed, ck):
    from cycord.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selftest", "--seed", str(seed), "--output", "json"])
    suites = json.loads(out.getvalue())["suites"]
    ck.record.update(exit=code, suites=suites)
    ck.expect("exit code 0", code == 0)
    for suite in SELFTEST_SUITES:
        ck.expect(f"{suite} passed", suites.get(suite, {}).get("passed") is True)


_JOBS = {f.__name__: f for f in (
    c01_golden_inert_unit, c02_q7_sampled, c03_q15_exhaustive,
    c04_inert_nilpotent_chain, c05_lifted_power, c06_split_unit,
    c07_split_nilpotent_monomials, c09_parity_golden, c10_zcode_golden_1pi,
    c11_selftest)}


# -- cli: one child process per call ----------------------------------------

def _cli_job(name, seed, child_cmd, ck):
    argv = CLI_ARGS[name] + ["--output", "json"]
    if "--seed" not in argv:
        argv += ["--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(child_cmd + argv, capture_output=True, text=True,
                          timeout=170)
    ck.extra["seconds"] = time.perf_counter() - start
    ck.record["stdout"] = proc.stdout
    # a traced child reports its spans on the last line of stderr
    tail = proc.stderr.rstrip().rsplit("\n", 1)[-1]
    if tail.startswith("{"):
        ck.extra["trace"] = json.loads(tail)
    ck.expect(f"exit code 0 (got {proc.returncode}: {proc.stderr[-300:]!r})",
              proc.returncode == 0)
    if proc.returncode != 0:
        return
    payload = json.loads(proc.stdout)
    _CLI_CHECKS[name](payload, ck)


def _check_describe(p, ck):
    ck.expect("name", p["name"] == "golden_u_i")
    ck.expect("degree", p["degree"] == 2)


def _check_reduce(p, ck):
    ck.expect("crt round trip", p["crt_round_trip"] is True)
    ck.expect("components", [c["ideal"] for c in p["components"]] == ["(1+i)", "(3)"])


def _check_structure_golden(p, ck):
    ck.expect("target", p["target"] == "M_2(F_2)")
    ck.expect("cardinality", p["cardinality"] == 16)
    v = p["verification"]
    ck.expect("verified", v["passed"] is True and v["pairs_checked"] == 256)


def _check_structure_q7(p, ck):
    ck.expect("target", p["target"] == "M_3(F_4)")
    ck.expect("cardinality", p["cardinality"] == 2 ** 18)
    v = p["verification"]
    ck.expect("verified", v["passed"] is True and v["pairs_checked"] == 10_000)
    ck.expect("rank", v["rank"] == v["dim"])


def _check_ideals(p, ck):
    ck.expect("chain", [(e["label"], e["size"]) for e in p["ideal_lattice"]]
              == [("ring", 16), ("<z>", 4), ("<z^2>", 1)])


def _check_encode(p, ck):
    ck.expect("codeword length", len(p["outer_codeword"]) == 3)
    ck.expect("lifted", len(p["components"]) == 3 and p["section_check"] is True)


def _check_deltamin(p, ck):
    ck.expect("lower bound", p["lower_bound"] == 2.0)
    ck.expect("delta_min", abs(p["search_min"] - 2.0) <= 1e-6)
    ck.expect("witness (0, 0, z)", p["argmin"]["components"] == ["0", "0", "(1)*z"])


def _check_lemma(p, ck):
    ck.expect("trials", p["trials"] == 10_000)
    ck.expect("no violations", p["violations"] == 0)
    ck.expect("margin", p["min_relative_margin"] >= -1e-9)
    ck.expect("k=1 trials", p["k1_trials"] > 0)
    ck.expect("k=1 equality", p["k1_equality_failures"] == 0)


_CLI_CHECKS = {
    "describe": _check_describe, "reduce": _check_reduce,
    "structure_golden": _check_structure_golden, "structure_q7": _check_structure_q7,
    "ideals": _check_ideals, "encode": _check_encode, "deltamin": _check_deltamin,
    "check-lemma": _check_lemma,
}


def cli_child_cmd(instrument: str) -> list[str]:
    """The command that runs one `cycord` call, as the installed script would."""
    worker = Path(__file__).with_name("worker.py")
    return [sys.executable, str(worker), "cli-child", "--instrument", instrument, "--"]
