"""Committed mutants: source changes that named tests must catch.

    python3 tools/mutants.py [NAME ...]

Each row of MUTANTS is one mutant: its name, the file it changes (relative
to the repository root), one exact source snippet, the replacement, and the
tests that must fail, as `tests/<file>.py::<function>` node ids; a
parametrized test fails when any of its cases fails.  For each row the
script copies `src`, `tests` and `perfbench/zcode.json` (which
`tests/test_cli.py` reads at import) into a temporary directory, replaces
the snippet there, runs only the named tests on the copy, and reports the
mutant as

- caught: each named test fails in at least one case;
- missed: some named test passes in every case;
- stale: the snippet does not occur exactly once in its file;
- error: a named test did not run (a collection error, or no such test).

First it runs every named test on an unchanged copy, and stops if one
fails there.  Prints one line per mutant and the total run time, and exits
0 when every mutant it ran was caught.  NAME arguments select rows.

A change that adds a reference test adds its mutants here, and
`tests/test_mutant_table.py` keeps every row well formed and not stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # the code kernels of O_K/mO_K
    Mutant("code_kernel_drops_delta_parts", "src/cycord/extension.py",
           'out, coord = "({})", "code({}, {}), "',
           'out, coord = "({})", "code({}, 0), "',
           ("tests/test_residue.py::test_residue_kernels_match_code_loop",)),
    Mutant("sigma_steps_once_more_at_power_n", "src/cycord/residue.py",
           "for _ in range(power % self.n):",
           "for _ in range(power % self.n + (power == self.n)):",
           ("tests/test_residue.py::test_residue_kernels_match_code_loop",)),
    # the hygiene checks resolve names by scope
    Mutant("unused_import_of_power", "src/cycord/residue.py",
           "    one_hot,\n    radix_decode,\n",
           "    one_hot,\n    power,\n    radix_decode,\n",
           ("tests/test_source_hygiene.py::test_every_imported_name_is_used",)),
    Mutant("private_read_only_by_a_same_named_local", "src/cycord/residue.py",
           "def residue_ring(ext: ExtensionSpec, modulus: BaseElement) -> ResidueRing:\n"
           "    return ResidueRing(ext, modulus)\n",
           "def residue_ring(ext: ExtensionSpec, modulus: BaseElement) -> ResidueRing:\n"
           "    return ResidueRing(ext, modulus)\n\n\n"
           "def _orphan():\n    return 0\n\n\n"
           "def orphan_reader():\n    _orphan = 1\n    return _orphan\n",
           ("tests/test_source_hygiene.py::test_every_private_definition_is_used",)),
    Mutant("private_read_only_by_a_same_named_parameter", "src/cycord/residue.py",
           "def residue_ring(ext: ExtensionSpec, modulus: BaseElement) -> ResidueRing:\n"
           "    return ResidueRing(ext, modulus)\n",
           "def residue_ring(ext: ExtensionSpec, modulus: BaseElement) -> ResidueRing:\n"
           "    return ResidueRing(ext, modulus)\n\n\n"
           "def _orphan():\n    return 0\n\n\n"
           "def orphan_reader(_orphan):\n    return _orphan\n",
           ("tests/test_source_hygiene.py::test_every_private_definition_is_used",)),
    # the F_p coordinates of a residue table are its Hermite box
    Mutant("box_digits_shifted_by_one_index", "src/cycord/residue.py",
           "digits[code] = tuple(radix_decode(i, p, k))",
           "digits[code] = tuple(radix_decode((i + 1) % table.size, p, k))",
           ("tests/test_residue_table.py::test_box_digits_are_f_p_coordinates",
            "tests/test_residue_table.py::test_fp_view_round_trip_on_every_element")),
    Mutant("box_check_drops_c", "src/cycord/residue.py",
           "if not (table.size == p ** k and (d1 == 1 or c % p == 0)):",
           "if not table.size == p ** k:",
           ("tests/test_residue_table.py::test_a_box_that_is_no_f_p_basis_is_refused",)),
    Mutant("span_encodings_reads_the_box", "src/cycord/residue.py",
           "code_at = np.array(self._codes, dtype=np.int64)",
           "code_at = np.array(self.ring.table._box, dtype=np.int64)",
           ("tests/test_source_hygiene.py::test_the_hermite_box_layout_is_known_to_two_places",)),
    # residue-table arithmetic lives in ResidueTable alone
    Mutant("forward_reads_the_sum_list", "src/cycord/structure.py",
           "acc = table.combine(acc, zip(s.codes, terms))",
           "acc = table.combine(acc, zip(s.codes, terms)) if table._sums else acc",
           ("tests/test_source_hygiene.py::test_the_hermite_box_layout_is_known_to_two_places",)),
    Mutant("ubar_as_the_scaled_one", "src/cycord/residue.py",
           "self.ubar = self.S.from_base(algebra.u)",
           "self.ubar = self.S.one * algebra.u",
           ("tests/test_cli.py::test_reduce_builds_no_table_arithmetic",)),
    Mutant("inverse_without_conj_g", "src/cycord/base_rings.py",
           "return self.encode(s * g.conjugate()) if g.norm() == 1 else None",
           "return self.encode(s) if g.norm() == 1 else None",
           ("tests/test_residue_table.py::test_inverse_matches_the_product_rows",
            "tests/test_residue_table.py::test_residue_tables_match_the_per_entry_reference")),
    Mutant("matrix_rows_taken_as_columns", "src/cycord/structure.py",
           "rows = [b[k:k + n] for k in range(0, n * n, n)]",
           "rows = [b[k::n] for k in range(n)]",
           ("tests/test_residue_table.py::test_matrix_products_match_the_triple_loop",)),
    Mutant("forward_uses_only_the_z0_terms", "src/cycord/structure.py",
           "for terms, s in zip(self._terms, x.zcoords):",
           "for terms, s in zip(self._terms[:1], x.zcoords):",
           ("tests/test_structure.py::test_forward_matches_the_term_loop",)),
    # O_K elements carry their integer coordinates; u is scaled once
    Mutant("matrix_scales_u_one_column_early", "src/cycord/order.py",
           "if c == n - k:",
           "if c == n - k - 1:",
           ("tests/test_order.py::test_u_scaled_once_matches_per_pair_scaling",
            "tests/test_order.py::test_matrix_product_and_det_match_object_loop")),
    Mutant("wrapped_pairs_take_x_not_x_ubar", "src/cycord/order.py",
           "pairs[i + j - n].append((xu, term))",
           "pairs[i + j - n].append((xi, term))",
           ("tests/test_order.py::test_u_scaled_once_matches_per_pair_scaling",
            "tests/test_order.py::test_order_product_matches_term_by_term")),
    Mutant("flat_ints_reads_coords", "src/cycord/order.py",
           "return tuple([v for ok in self.zcoords for v in ok.ints])",
           "return tuple([v for ok in self.zcoords for c in ok.coords for v in c.key])",
           ("tests/test_source_hygiene.py::test_ok_arithmetic_reads_ints_not_coords",)),
    # residue tables build each row on its first read
    Mutant("product_row_stored_at_the_wrong_index", "src/cycord/base_rings.py",
           "self._products[i] = row = [",
           "self._products[i - 1] = row = [",
           ("tests/test_residue_table.py::test_residue_tables_match_the_per_entry_reference",)),
    Mutant("sum_row_built_by_the_product_rule", "src/cycord/base_rings.py",
           "self._sums[i] = row = [code(a + x.a, b + x.b) for x in self.reps]",
           "self._sums[i] = row = [code(*(self.reps[i] * x).key) for x in self.reps]",
           ("tests/test_residue_table.py::test_residue_tables_match_the_per_entry_reference",
            "tests/test_base_rings.py::test_residue_table_matches_reduce")),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's snippet occurs in its file under `root`."""
    return (root / mutant.file).read_text().count(mutant.snippet)


def _copy(root: Path, into: Path) -> None:
    """`src` and `tests`, and the code spec that `tests/test_cli.py` loads."""
    for part in ("src", "tests"):
        shutil.copytree(root / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    (into / "perfbench").mkdir()
    shutil.copy(root / "perfbench" / "zcode.json", into / "perfbench")


def _outcomes(into: Path, tests) -> tuple[set[str], set[str]]:
    """Run `tests` on the tree copied to `into`: the named tests that ran, and
    those of them with a failing case."""
    report = into / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(into / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *tests],
                   cwd=into, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        node = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        named = {t for t in tests if node == t or node.startswith(t + "[")}
        ran |= named
        if case.find("failure") is not None or case.find("error") is not None:
            failed |= named
    return ran, failed


def run(mutant: Mutant, root: Path = ROOT) -> str:
    """'caught', or why not: 'missed', 'stale' or 'error', for one mutant of
    the tree at `root`."""
    count = occurrences(mutant, root)
    if count != 1:
        return f"stale (the snippet occurs {count} times)"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        into = Path(tmp)
        _copy(root, into)
        path = into / mutant.file
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        ran, failed = _outcomes(into, mutant.tests)
    if set(mutant.tests) - ran:
        return f"error ({', '.join(sorted(set(mutant.tests) - ran))} did not run)"
    passed = [t for t in mutant.tests if t not in failed]
    return f"missed ({', '.join(passed)} passed)" if passed else "caught"


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    tests = sorted({t for m in rows for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(ROOT, Path(tmp))
        ran, failed = _outcomes(Path(tmp), tests)
    if failed or ran != set(tests):
        broken = sorted(failed | (set(tests) - ran))
        print(f"on the unchanged tree {', '.join(broken)} fail or do not run; no mutant was run")
        return 2
    results = []
    for mutant in rows:
        results.append(run(mutant))
        print(f"{mutant.name}: {results[-1]}", flush=True)
    caught = results.count("caught")
    print(f"{caught} of {len(rows)} caught in {time.perf_counter() - start:.0f} s")
    return 0 if caught == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
