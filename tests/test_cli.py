"""End-to-end tests of the command line interface, run in process.

Tests of interpreter flags start a fresh interpreter.
"""

import copy
import functools
import hashlib
import json
import operator
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cycord.cli as cli
from cycord.base_rings import GAUSSIAN, ResidueTable, residue_table
from cycord.errors import VerificationFailed
from cycord.order import SHIPPED_ALGEBRAS, load_algebra
from cycord.residue import quotient_of

SRC_DIR = str(Path(cli.__file__).resolve().parents[1])


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, _err = run(argv + ["--output", "json"], capsys)
    return code, (json.loads(out) if out.strip() else None)


def run_python(args, timeout=120):
    """Run a fresh interpreter on the package under test; returns the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


# -- describe ----------------------------------------------------------------


def test_describe(capsys):
    code, payload = run_json(["describe", "--algebra", "golden_u_i"], capsys)
    assert code == 0
    assert payload["name"] == "golden_u_i"
    assert payload["degree"] == 2
    assert payload["u"] == "i"
    assert payload["claims_division"] is True


def test_describe_u_override(capsys):
    code, payload = run_json(
        ["describe", "--algebra", "golden_u_i", "--u", "3"], capsys)
    assert code == 0
    assert payload["u"] == "3"
    assert payload["claims_division"] is False


def test_describe_accepts_json_suffix(capsys):
    code, payload = run_json(
        ["describe", "--algebra", "golden_u_i.json"], capsys)
    assert code == 0
    assert payload["name"] == "golden_u_i"


def test_describe_human_output(capsys):
    code, out, _ = run(["describe", "--algebra", "golden_u_i"], capsys)
    assert code == 0
    assert "algebra golden_u_i" in out
    assert "degree n:  2" in out


# -- reduce ------------------------------------------------------------------


def test_reduce_simple(capsys):
    code, payload = run_json(
        ["reduce", "--algebra", "golden_u_i", "--ideal", "(1+i)",
         "--element", "3, 0; 0, 1"], capsys)
    assert code == 0
    assert payload["ideal"] == "(1+i)"
    assert "canonical_lift_coordinates" in payload
    assert len(payload["canonical_lift_coordinates"]) == 8


def test_reduce_composite(capsys):
    code, payload = run_json(
        ["reduce", "--algebra", "golden_u_i", "--ideal", "(1+i),(3)",
         "--element", "3, 0; 0, 1"], capsys)
    assert code == 0
    assert payload["crt_round_trip"] is True
    assert [c["ideal"] for c in payload["components"]] == ["(1+i)", "(3)"]


@pytest.mark.parametrize("s", range(1, 11))
def test_reduce_prime_powers_up_to_1024_residues(capsys, s):
    ideal = f"(1+i)^{s}"
    code, payload = run_json(
        ["reduce", "--algebra", "golden_u_i", "--ideal", ideal,
         "--element", "37+5i, -11; 4-9i, 1000+77i"], capsys)
    assert code == 0
    assert payload["ideal"] == ("(1+i)" if s == 1 else ideal)
    Q = quotient_of(load_algebra("golden_u_i"), cli.parse_ideal(GAUSSIAN, ideal))
    lift = Q.algebra.from_flat_ints(payload["canonical_lift_coordinates"])
    assert str(Q.reduce(lift)) == payload["residue"]


@pytest.mark.parametrize("s", range(1, 13))
def test_reduce_builds_no_table_arithmetic(capsys, monkeypatch, s):
    # `combine` is the one reader of a table's sum and product rows, each of
    # which it builds on first read; reduce never calls it, up to TABLE_LIMIT.
    # No other test builds a row of the shared tables of s = 11 and 12, so
    # every row slot of both lists must still be empty afterwards
    calls = []
    combine = ResidueTable.combine
    monkeypatch.setattr(ResidueTable, "combine",
                        lambda self, acc, terms: calls.append(self) or combine(self, acc, terms))
    code, _ = run_json(
        ["reduce", "--algebra", "golden_u_i", "--ideal", f"(1+i)^{s}",
         "--element", "37+5i, -11; 4-9i, 1000+77i"], capsys)
    assert code == 0 and calls == []
    table = residue_table(GAUSSIAN, GAUSSIAN.parse("1+i") ** s)
    assert table.size == 2 ** s
    if s > 10:
        assert table._sums == table._products == [None] * table.size


def test_structure_near_the_table_limit_builds_only_the_rows_it_reads(capsys, monkeypatch):
    # golden_u_i mod (1+i)^11: its stdout is the one printed before the rows
    # were built on first read, and it reads fewer than the 2048 rows of
    # each list.  The shared table gets empty row lists for this test alone,
    # so the rows counted are this run's and no other test sees them
    table = residue_table(GAUSSIAN, GAUSSIAN.parse("1+i") ** 11)
    for name in ("_sums", "_products"):
        monkeypatch.setattr(table, name, [None] * table.size)
    code, out, _err = run(["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)^11",
                           "--output", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38943b143c0b5c9f1670cda638cff57cd669bb20bc4368d5bcd397b2d6b93308")
    for rows in (table._sums, table._products):
        assert 0 < sum(row is not None for row in rows) < table.size == 2048


@pytest.mark.parametrize("command", ["structure", "ideals"])
def test_structure_and_ideals_past_the_table_limit_exit_1(capsys, command):
    code, payload = run_json(
        [command, "--algebra", "golden_u_i", "--ideal", "(1+i)^13"], capsys)
    assert code == 1
    assert payload == {"error": "O_F/(1+i)^13 exceeds the table limit 4096"}


def test_reduce_past_the_table_limit_exits_1(capsys):
    code, payload = run_json(
        ["reduce", "--algebra", "golden_u_i", "--ideal", "(1+i)^13",
         "--element", "1, 0; 0, 1"], capsys)
    assert code == 1
    assert payload == {"error": "O_F/(1+i)^13 exceeds the table limit 4096"}


def test_reduce_bad_element_exits_1(capsys):
    code, _out, err = run(
        ["reduce", "--algebra", "golden_u_i", "--ideal", "(1+i)",
         "--element", "3, 0"], capsys)
    assert code == 1
    assert "error" in err


# -- structure ---------------------------------------------------------------


def test_structure_verified(capsys):
    code, payload = run_json(
        ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)",
         "--verify"], capsys)
    assert code == 0
    assert payload["case"] == "InertUnit"
    assert payload["target"] == "M_2(F_2)"
    assert payload["verification"]["passed"] is True
    assert payload["verification"]["pairs_checked"] == 256


def test_structure_nilpotent_has_no_certificate(capsys):
    code, payload = run_json(
        ["structure", "--algebra", "golden_u_1pi", "--ideal", "(1+i)",
         "--verify"], capsys)
    assert code == 0
    assert payload["case"] == "InertNilpotent"
    assert payload["verification"] is None


def test_structure_composite(capsys):
    code, payload = run_json(
        ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i),(3)"],
        capsys)
    assert code == 0
    cases = [c["case"] for c in payload["components"]]
    assert cases == ["InertUnit", "SplitUnit"]


def test_structure_counterexample_exit_2(capsys, monkeypatch):
    def explode(cert, mode=None, seed=0):
        err = VerificationFailed("forced failure")
        err.pair = ("x", "y")
        raise err

    monkeypatch.setattr(cli, "verify_isomorphism", explode)
    code, payload = run_json(
        ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)",
         "--verify"], capsys)
    assert code == 2
    assert payload["verification"]["passed"] is False
    assert "x" in payload["verification"]["counterexample"]


def test_structure_sampled_mode(capsys):
    code, payload = run_json(
        ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)",
         "--verify", "--mode", "sampled"], capsys)
    assert code == 0
    assert payload["verification"]["mode"] == "Sampled"


# -- ideals ------------------------------------------------------------------


def test_ideals_listing(capsys):
    code, payload = run_json(
        ["ideals", "--algebra", "golden_u_1pi", "--ideal", "(1+i)"], capsys)
    assert code == 0
    labels = [e["label"] for e in payload["ideal_lattice"]]
    assert labels == ["ring", "<z>", "<z^2>"]
    assert [e["size"] for e in payload["ideal_lattice"]] == [16, 4, 1]


def test_ideals_rejects_composite(capsys):
    code, payload = run_json(
        ["ideals", "--algebra", "golden_u_i", "--ideal", "(1+i),(3)"], capsys)
    assert code == 1
    assert "error" in payload


# -- encode ------------------------------------------------------------------


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def test_encode_parity(capsys, tmp_path):
    spec = write_spec(tmp_path, "parity.json", {
        "algebra_spec": "golden_u_i",
        "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": "CanonicalZero",
        "box_bound": 1,
        "seed": 0,
    })
    code, payload = run_json(
        ["encode", "--code-spec", spec,
         "--message", json.dumps(["1, 0; 0, 0", "0, 0; 1, 0"])], capsys)
    assert code == 0
    assert payload["outer_kind"] == "ParityOverRing"
    assert len(payload["outer_codeword"]) == 3
    assert len(payload["components"]) == 3
    assert payload["section_check"] is True
    assert all(len(c["coordinates"]) == 8 for c in payload["components"])


def test_encode_monomial_parity(capsys, tmp_path):
    spec = write_spec(tmp_path, "zcode.json", {
        "algebra_spec": "golden_u_1pi",
        "ideal": {"alpha": "1+i", "s": 1, "monomial_power": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": "CanonicalZero",
        "box_bound": 1,
        "seed": 0,
    })
    code, payload = run_json(
        ["encode", "--code-spec", spec,
         "--message", json.dumps(["1, 0", "0, 1"])], capsys)
    assert code == 0
    assert len(payload["components"]) == 3


def test_encode_reed_solomon(capsys, tmp_path):
    spec = write_spec(tmp_path, "rs.json", {
        "algebra_spec": "golden_u_i",
        "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ReedSolomon", "length": 4, "p": 2, "m": 2,
                  "dimension": 2},
        "seed": 0,
    })
    code, payload = run_json(
        ["encode", "--code-spec", spec, "--message", "[1, 2]"], capsys)
    assert code == 0
    assert payload["outer_kind"] == "ReedSolomon"
    assert payload["components"] is None
    assert len(payload["outer_codeword"]) == 4


def test_encode_randomized_lift(capsys, tmp_path):
    spec = write_spec(tmp_path, "rand.json", {
        "algebra_spec": "golden_u_i",
        "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": "Randomized",
        "box_bound": 1,
        "seed": 7,
    })
    msg = json.dumps(["1, 0; 0, 0", "0, 0; 1, 0"])
    code, payload = run_json(["encode", "--code-spec", spec, "--message", msg], capsys)
    assert code == 0
    assert payload["section_check"] is True
    code2, payload2 = run_json(["encode", "--code-spec", spec, "--message", msg], capsys)
    assert payload2 == payload  # seed lives in the spec


ENCODE_THEN_REPORT = """
import sys
import cycord.cli
try:
    cycord.cli.main(sys.argv[1:])
finally:
    print("numpy.random" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("strategy, imported", [
    ("CanonicalZero", "False"), ("Randomized", "True")])
def test_only_a_randomized_encode_imports_numpy_random(tmp_path, strategy, imported):
    # numpy loads numpy.random on first use; only a Randomized lift draws
    spec = write_spec(tmp_path, "code.json", {
        "algebra_spec": "golden_u_1pi",
        "ideal": {"alpha": "1+i", "s": 1, "monomial_power": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": strategy, "box_bound": 1, "seed": 0})
    proc = run_python(["-c", ENCODE_THEN_REPORT, "encode", "--code-spec", spec,
                       "--message", '["1,0", "0,1"]'])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == imported


# -- deltamin ----------------------------------------------------------------


def test_deltamin_sum_closed(capsys, tmp_path):
    spec = write_spec(tmp_path, "dm.json", {
        "algebra_spec": "golden_u_i",
        "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ParityOverRing", "length": 2},
        "box_bound": 1,
        "seed": 0,
    })
    code, payload = run_json(["deltamin", "--code-spec", spec], capsys)
    assert code == 0
    assert payload["lower_bound"] == 4.0
    assert payload["search_min"] == pytest.approx(4.0)
    assert payload["bound_formula"] == "Principal"
    assert payload["argmin"]["coordinates"] == [[1, 0, 0, 0, 0, 0, 0, 0]] * 2


def test_deltamin_monomial(capsys, tmp_path):
    spec = write_spec(tmp_path, "dmz.json", {
        "algebra_spec": "golden_u_1pi",
        "ideal": {"alpha": "1+i", "s": 1, "monomial_power": 1},
        "outer": {"kind": "ParityOverRing", "length": 2},
        "box_bound": 1,
        "seed": 0,
    })
    code, payload = run_json(["deltamin", "--code-spec", spec], capsys)
    assert code == 0
    assert payload["lower_bound"] == 2.0
    assert payload["search_min"] == pytest.approx(2.0)
    assert payload["bound_formula"] == "NilpotentU"


def test_deltamin_rejects_non_parity(capsys, tmp_path):
    spec = write_spec(tmp_path, "bad.json", {
        "algebra_spec": "golden_u_i",
        "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ReedSolomon", "length": 4, "p": 2, "m": 2,
                  "dimension": 2},
    })
    code, payload = run_json(["deltamin", "--code-spec", spec], capsys)
    assert code == 1
    assert "error" in payload


def test_deltamin_monomial_rejects_prime_power(capsys, tmp_path):
    spec = write_spec(tmp_path, "dmz2.json", {
        "algebra_spec": "golden_u_1pi",
        "ideal": {"alpha": "1+i", "s": 2, "monomial_power": 1},
        "outer": {"kind": "ParityOverRing", "length": 2},
    })
    code, payload = run_json(["deltamin", "--code-spec", spec], capsys)
    assert code == 1
    assert payload == {"error": "monomial ideals live over a prime quotient"}
    assert run(["deltamin", "--code-spec", spec], capsys) == (
        1, "", "error: monomial ideals live over a prime quotient\n")


ZCODE = {"algebra_spec": "golden_u_1pi",
         "ideal": {"alpha": "1+i", "s": 1, "monomial_power": 1},
         "outer": {"kind": "ParityOverRing", "length": 3}}
SHIPPED_SPECS = [json.loads(resources.files("cycord.data").joinpath(f"{name}.json").read_text())
                 for name in SHIPPED_ALGEBRAS]
GOLDEN = SHIPPED_SPECS[SHIPPED_ALGEBRAS.index("golden_u_i")]
SPEC = "<spec file>"  # replaced by the path of the case's spec text


def golden_text(drop=(), **changes):
    return json.dumps({k: v for k, v in {**GOLDEN, **changes}.items() if k not in drop})


def rs_text(**outer):
    return json.dumps({"algebra_spec": "golden_u_i", "ideal": {"alpha": "1+i"},
                       "outer": {"kind": "ReedSolomon", "length": 4, "p": 2, "m": 2,
                                 "dimension": 2, **outer}})


DESCRIBE = ["describe", "--algebra", SPEC]
DELTAMIN = ["deltamin", "--code-spec", SPEC]
ENCODE = ["encode", "--code-spec", SPEC, "--message", '["1,0", "0,1"]']
ENCODE_RS = ["encode", "--code-spec", SPEC, "--message", "[1, 2]"]
MALFORMED_INPUTS = {  # name -> (arguments, spec file text or None)
    "missing_algebra_spec": (DELTAMIN, json.dumps({"ideal": {"alpha": "1+i"}})),
    "invalid_json": (DELTAMIN, "{bad"),
    "non_integer_box_bound": (DELTAMIN, json.dumps({**ZCODE, "box_bound": "x"})),
    "non_prime_alpha": (DELTAMIN, json.dumps(
        {"algebra_spec": "golden_u_i", "ideal": {"alpha": "2"}})),
    "unknown_lift_strategy": (ENCODE, json.dumps({**ZCODE, "lift_strategy": "Nope"})),
    "element_coordinate": (["reduce", "--algebra", "golden_u_i", "--ideal", "1+i",
                            "--element", "1,x;3,4"], None),
    "u_text": (["describe", "--algebra", "golden_u_i", "--u", "1+q"], None),
    "u_zero": (["describe", "--algebra", "golden_u_i", "--u", "0"], None),
    "ideal_text": (["structure", "--algebra", "golden_u_i", "--ideal", "1+x"], None),
    "spec_u_text": (DELTAMIN, json.dumps({**ZCODE, "u": "1+q"})),
    "spec_u_number": (DELTAMIN, json.dumps({**ZCODE, "u": 5})),
    "message_json": (["encode", "--code-spec", SPEC, "--message", "[1,"], json.dumps(ZCODE)),
    "residue_symbol": (["encode", "--code-spec", SPEC, "--message", '["1,x", "0,1"]'],
                       json.dumps(ZCODE)),
    "symbol_type": (["encode", "--code-spec", SPEC, "--message", "[1, 2]"], json.dumps(ZCODE)),
    "field_symbol": (["encode", "--code-spec", SPEC, "--message", "[1, 99]"], rs_text()),
    **{f"{command}_length_{name}": (args, json.dumps(
        {**ZCODE, "outer": {"kind": "ParityOverRing", "length": length}}))
       for command, args in (("encode", ["encode", "--code-spec", SPEC, "--message", '["1,0"]']),
                             ("deltamin", DELTAMIN))
       for name, length in (("one", 1), ("float", 1.5), ("bool", True))},
    **{f"deltamin_seed_{name}": (DELTAMIN + ["--budget", "10"], json.dumps(
        {**ZCODE, "randomized": True, "seed": seed}))
       for name, seed in (("text", "x"), ("float", 1.5), ("negative", -1))},
    "encode_seed_negative": (ENCODE, json.dumps({**ZCODE, "seed": -1})),
    "lemma_seed_negative": (["check-lemma", "--seed", "-1"], None),
    "verify_seed_negative": (["structure", "--algebra", "golden_u_i", "--ideal", "1+i",
                              "--verify", "--mode", "sampled", "--seed", "-1"], None),
    "lemma_n_zero": (["check-lemma", "--n", "0"], None),
    "lemma_k_zero": (["check-lemma", "--k", "0"], None),
    "lemma_trials_negative": (["check-lemma", "--trials", "-3"], None),
    "lemma_trials_zero": (["check-lemma", "--trials", "0"], None),
    "lemma_n_one_k_unset": (["check-lemma", "--n", "1"], None),
    "lemma_n_one_k_two": (["check-lemma", "--n", "1", "--k", "2"], None),
    # library refusals of outer codes, and sizes checked before any work
    "field_p_composite": (ENCODE_RS, rs_text(p=4, m=1)),
    "field_p_huge": (ENCODE_RS, rs_text(p=1000000, m=2)),
    "field_m_huge": (ENCODE_RS, rs_text(p=2, m=1000000)),
    "rs_dimension_above_length": (ENCODE_RS, rs_text(dimension=5)),
    "structure_ideal_power_huge": (["structure", "--algebra", "golden_u_i",
                                    "--ideal", "(1+i)^100000"], None),
    "reduce_ideal_power_huge": (["reduce", "--algebra", "golden_u_i", "--ideal",
                                 "(1+i)^100000", "--element", "1,0;0,1"], None),
    "structure_ideal_power_1e7": (["structure", "--algebra", "golden_u_i",
                                   "--ideal", "(2+i)^10000000"], None),
    "spec_s_huge": (DELTAMIN, json.dumps({**ZCODE, "ideal": {"alpha": "1+i", "s": 1000000}})),
    "deltamin_length_3000": (DELTAMIN, json.dumps(
        {**ZCODE, "outer": {"kind": "ParityOverRing", "length": 3000}})),
    "deltamin_samples_over_limit": (DELTAMIN + ["--budget", "10"], json.dumps(
        {**ZCODE, "outer": {"kind": "ParityOverRing", "length": 10},
         "randomized": True, "seed": 0})),
    **{f"deltamin_samples_{name}": (DELTAMIN + ["--budget", "10", "--samples", samples],
                                    json.dumps({**ZCODE, "randomized": True, "seed": 0}))
       for name, samples in (("negative", "-5"), ("zero", "0"))},
    "deltamin_box_bound_huge": (DELTAMIN, json.dumps({**ZCODE, "box_bound": 10 ** 6})),
    **{f"encode_box_bound_{name}": (ENCODE, json.dumps(
        {**ZCODE, "lift_strategy": "Randomized", "box_bound": bound}))
       for name, bound in (("negative", -1), ("huge", 2 ** 63))},
    "code_spec_directory": (["deltamin", "--code-spec", "."], None),
    "spec_u_beyond_float": (DELTAMIN, json.dumps({**ZCODE, "u": "1" + "0" * 400})),
    "algebra_entry_beyond_float": (DESCRIBE, golden_text(
        mult_table=[GOLDEN["mult_table"][0], [["0", "1"], ["1" + "0" * 400, "1"]]])),
    # one case per class of the algebra-spec and code-spec fuzz
    **{f"algebra_missing_{key}": (DESCRIBE, golden_text(drop=[key]))
       for key in ("degree", "mult_table", "u")},
    "algebra_basis_name_number": (DESCRIBE, golden_text(basis=["1", 2])),
    "spec_alpha_number": (DELTAMIN, json.dumps({**ZCODE, "ideal": {"alpha": 5}})),
    "algebra_embedding_row_short": (DESCRIBE, golden_text(
        embeddings=[GOLDEN["embeddings"][0][:1], GOLDEN["embeddings"][1]])),
    "algebra_claims_division_text": (DESCRIBE, golden_text(claims_division="yes")),
    "algebra_degree_text": (DESCRIBE, golden_text(degree="2")),
    "algebra_basis_null": (DESCRIBE, golden_text(basis=None)),
    "spec_monomial_power_null": (DELTAMIN, json.dumps(
        {**ZCODE, "ideal": {"alpha": "1+i", "monomial_power": None}})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_reports_error(capsys, tmp_path, name):
    args, spec_text = MALFORMED_INPUTS[name]
    if spec_text is not None:
        path = tmp_path / "spec.json"
        path.write_text(spec_text)
        args = [str(path) if a == SPEC else a for a in args]
    code, out, err = run(args + ["--output", "json"], capsys)
    assert code == 1
    assert "error" in json.loads(out)
    assert "Traceback" not in err


BROKEN_INVARIANTS = {  # name -> (script that breaks one exact check, its message)
    "certificate": ((
        "from cycord import load_algebra, IdealSpec, structure\n"
        "structure.IsoCertificate.forward = lambda self, x: self.target.zero\n"
        "golden = load_algebra('golden_u_i')\n"
        "structure.build_matrix_iso_s1(golden, IdealSpec(golden.ext.base.parse('1+i')))\n"
    ), "VerificationFailed: 1 must map to the identity"),
    "crt_round_trip": ((
        "import sys\n"
        "from cycord import cli\n"
        "cli.crt_recombine = lambda parts, Q: Q.zero\n"
        "sys.exit(cli.main(['reduce', '--algebra', 'golden_u_i', '--ideal',\n"
        "                   '(1+i),(3)', '--element', '3, 0; 0, 1']))\n"
    ), "error: CRT recombination gives 0"),
    "fp_table_digits": ((
        "import sys\n"
        "from cycord import base_rings, cli\n"
        "init = base_rings.ResidueTable.__init__\n"
        "def miscounted(self, *args):\n"
        "    init(self, *args)\n"
        "    self.char = 3\n"
        "base_rings.ResidueTable.__init__ = miscounted\n"
        "sys.exit(cli.main(['structure', '--algebra', 'golden_u_i', '--ideal',\n"
        "                   '1+i', '--verify']))\n"
    ), "error: additive group of 2 elements is not F_3^1"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_INVARIANTS))
def test_certificate_checks_survive_python_O(name):
    # python -O strips assert statements; these checks must raise anyway
    script, message = BROKEN_INVARIANTS[name]
    proc = run_python(["-O", "-c", script])
    assert proc.returncode == 1
    assert message in proc.stderr


# -- check-lemma and selftest --------------------------------------------------


def test_check_lemma(capsys):
    code, payload = run_json(
        ["check-lemma", "--trials", "60", "--seed", "5"], capsys)
    assert code == 0
    assert payload["trials"] == 60
    assert payload["violations"] == 0
    assert payload["k1_equality_failures"] == 0


def test_check_lemma_k1_rounding_within_bound(capsys):
    # trial 3701 of seed 2 is a 4x4 matrix with cond ~ 160: its Gram
    # determinant is off by 2.6e-12 relative error, within rounding
    code, payload = run_json(
        ["check-lemma", "--trials", "10000", "--seed", "2"], capsys)
    assert code == 0
    assert payload["k1_equality_failures"] == 0


def test_check_lemma_flag_positions(capsys):
    code1, p1 = run_json(["--seed", "5", "check-lemma", "--trials", "40"], capsys)
    code2, p2 = run_json(["check-lemma", "--trials", "40", "--seed", "5"], capsys)
    assert code1 == code2 == 0
    assert p1 == p2


def test_selftest(capsys):
    code, payload = run_json(["selftest"], capsys)
    assert code == 0
    suites = payload["suites"]
    assert len(suites) == 5
    assert all(s["passed"] for s in suites.values())
    assert "embedding_law" in suites
    assert "unipotent_inverse" in suites


def test_selftest_reports_failures(capsys, monkeypatch):
    def broken(rng):
        raise AssertionError("injected failure")

    name, _suite = cli._SELFTEST_SUITES[0]
    monkeypatch.setattr(cli, "_SELFTEST_SUITES",
                        [(name, broken)] + cli._SELFTEST_SUITES[1:])
    code, payload = run_json(["selftest"], capsys)
    assert code == 1
    assert payload["suites"][name]["passed"] is False


def test_selftest_checks_survive_python_O():
    # python -O strips assert statements; the suites must still catch a
    # matrix product taken in the wrong order
    script = (
        "import sys\n"
        "from cycord import cli, order\n"
        "product = order.OrderMatrix.__mul__\n"
        "order.OrderMatrix.__mul__ = lambda a, b: product(b, a)\n"
        "sys.exit(cli.main(['selftest', '--output', 'json']))\n"
    )
    proc = run_python(["-O", "-c", script])
    assert proc.returncode == 1, proc.stderr
    suites = json.loads(proc.stdout)["suites"]
    assert suites["embedding_law"]["passed"] is False
    assert "M(x*y)" in suites["embedding_law"]["error"]


# -- output and error conventions ------------------------------------------------


ZCODE_SPEC = str(Path(__file__).resolve().parents[1] / "perfbench" / "zcode.json")
PINNED_SPECS = {
    "randomized_golden": {
        "algebra_spec": "golden_u_i", "ideal": {"alpha": "1+i", "s": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": "Randomized", "box_bound": 2, "seed": 7},
    "randomized_gauss_u5": {
        "algebra_spec": "gauss_over_Q", "u": "5", "ideal": {"alpha": "5", "s": 1},
        "outer": {"kind": "ParityOverRing", "length": 3},
        "lift_strategy": "Randomized", "box_bound": 2, "seed": 3},
}
PINNED_OUTPUT = {  # name -> (argv, SHA-256 of the `--output json` stdout)
    "encode_randomized_golden": (
        ["encode", "--code-spec", "randomized_golden",
         "--message", '["1, 0; 0, 0", "0, 0; 1, i"]'],
        "1255dcb3abc1be579329d7c9fd9852516b489a3bff60d74ee0227b1eab0b5e1a"),
    "encode_randomized_gauss_u5": (
        ["encode", "--code-spec", "randomized_gauss_u5",
         "--message", '["1, 2; 3, 0", "0, 4; 1, 1"]'],
        "510785d75536c87d5e1c39a42f39146ffb99fee559aa03ea569a0cba55170d42"),
    "reduce_canonical_lift": (
        ["reduce", "--algebra", "golden_u_i", "--ideal", "(1+i)^2",
         "--element", "3, 2-i; 1+i, 5"],
        "54adb049f334c573f265d0c33b8aeec80c04e4ae23987d906bef3ec3fc1be00f"),
    "deltamin_zcode": (
        ["deltamin", "--code-spec", ZCODE_SPEC],
        "3c89c1e4256ecb6e7a49bdc1eb222dd568245c53bbe25f91d911909bd16dc6d6"),
    "selftest_seed_0": (
        ["selftest", "--seed", "0"],
        "75f6e2972338537bf04940e7cfa02d6aa9c6f66c74a4c2a33fe829d62e1be729"),
    "structure_verify_q15": (
        ["structure", "--algebra", "q15_quartic", "--ideal", "1+i", "--verify"],
        "446d74ce97de88a084f59091c3bd7a281ff7122cdeefef70147ea7aaa238cabc"),
    "structure_verify_gauss_5": (
        ["structure", "--algebra", "gauss_over_Q", "--ideal", "5", "--verify"],
        "51f56c024c9a178d402415ceacdd798d625af0d47a9cea882feab29a4e0bc34b"),
    "structure_verify_golden_square": (
        ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)^2", "--verify"],
        "d8ed6078d37861a74cd151bfe36d0e845dedda85b87a49be5d03b0f2bd72943d"),
    "ideals_gauss_u5": (
        ["ideals", "--algebra", "gauss_over_Q", "--u", "5", "--ideal", "5"],
        "285bd19de7d3c4e6abd4637a896aedcd1899af8a518fa27d47bc3447e76c708a"),
    "ideals_inert_chain_golden_u_1pi": (  # the <z^i> chain
        ["ideals", "--algebra", "golden_u_1pi", "--ideal", "1+i"],
        "f309597cb65a794727cd36c775e008746f2df7bf811261fbdbd23c64e3772d17"),
    "ideals_gauss_u17_above_enum_limit": (  # every size null but the zero ideal's
        ["ideals", "--algebra", "gauss_over_Q", "--u", "17", "--ideal", "17"],
        "470aae9815292ae674bfd63636e576ecbe81bc8addf8bfe54c223914d10c975a"),
    "structure_unit_chain_q7": (  # the q^t chain, sizes null
        ["structure", "--algebra", "q7_cubic", "--ideal", "2"],
        "93c1d9937109bb068631b041599c70edb6c72314a576c4d7e6ad71ba1bdfaf97"),
    "check_lemma_seed_0": (
        ["check-lemma", "--trials", "10000", "--seed", "0"],
        "6f8cbbed7ef660bec0e7a714e616468559eb037c2081f97e243f7d50d5aff5a8"),
    "check_lemma_n3_k2_seed_7": (
        ["check-lemma", "--trials", "500", "--n", "3", "--k", "2", "--seed", "7"],
        "c71b02d976639a4fc4b307cad25e6f19299ab38a8afa3463e467d2c2b573a126"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_json_output_is_pinned(capsys, tmp_path, name):
    # guards the random draw order of lifts and selftests, the exact
    # products behind every printed element, and the verification counts
    # and ideal sizes of the F_p kernels
    argv, digest = PINNED_OUTPUT[name]
    specs = {key: write_spec(tmp_path, f"{key}.json", spec)
             for key, spec in PINNED_SPECS.items()}
    code, out, _err = run([specs.get(a, a) for a in argv] + ["--output", "json"],
                          capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_is_deterministic(capsys):
    argv = ["structure", "--algebra", "golden_u_i", "--ideal", "(1+i)",
            "--verify", "--output", "json"]
    _code, out1, _ = run(argv, capsys)
    _code, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_unknown_algebra_exits_1(capsys):
    code, _out, _err = run(["describe", "--algebra", "nope"], capsys)
    assert code == 1


def test_bad_ideal_exits_1(capsys):
    code, _out, err = run(
        ["structure", "--algebra", "golden_u_i", "--ideal", "(2)"], capsys)
    assert code == 1
    assert "prime" in err


def test_usage_error_exits_1(capsys):
    code, _out, _err = run(["no-such-command"], capsys)
    assert code == 1
    code, _out, _err = run(["describe"], capsys)  # missing --algebra
    assert code == 1


# -- derandomized fuzz of the two JSON formats -------------------------------------


def _paths(value, prefix=()):
    """Every key or index path into a JSON value."""
    items = value.items() if type(value) is dict else (
        enumerate(value) if type(value) is list else ())
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


@st.composite
def mutated(draw, specs):
    """One of `specs` with one key or list entry dropped, or one value at
    any depth replaced by a small JSON value of any type."""
    spec = copy.deepcopy(draw(st.sampled_from(specs)))
    *head, last = draw(st.sampled_from(list(_paths(spec))))
    parent = functools.reduce(operator.getitem, head, spec)
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                                      st.sampled_from([1.5, "", "x", "1+i", [], {}, ["1"]])))
    return spec


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_clean_exit(argv, capsys):
    code, out, err = run(argv + ["--output", "json"], capsys)
    assert code == 0 or (code == 1 and "error" in json.loads(out)), (argv, out, err)


@settings(FUZZ, max_examples=200)
@given(spec=mutated(SHIPPED_SPECS))
def test_mutated_algebra_spec_exits_cleanly(capsys, tmp_path, spec):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec))
    assert_clean_exit(["describe", "--algebra", str(path)], capsys)


@settings(FUZZ, max_examples=100)
@given(spec=mutated([json.loads(Path(ZCODE_SPEC).read_text())]))
def test_mutated_code_spec_exits_cleanly(capsys, tmp_path, spec):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    assert_clean_exit(["encode", "--code-spec", str(path), "--message", '["1,0", "0,1"]'],
                      capsys)
    assert_clean_exit(["deltamin", "--code-spec", str(path), "--budget", "10",
                       "--samples", "1000"], capsys)
