"""The committed mutant table of `tools/mutants.py` is well formed.

Running the mutants takes minutes, so tier-1 only checks the table: each
row names a file of the tree, a snippet that occurs there exactly once, a
different replacement, and tests that exist.  A refactor that makes a row
stale fails here and must update the row.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _test_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert names and len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_row_is_well_formed(mutant):
    assert mutant.file.startswith("src/cycord/") and mutant.file.endswith(".py")
    assert mutant.snippet and mutant.replacement != mutant.snippet
    assert mutants.occurrences(mutant) == 1, "stale: the snippet must occur exactly once"
    assert mutant.tests and len(set(mutant.tests)) == len(mutant.tests)
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert path.startswith("tests/") and "[" not in name, test
        assert name in _test_functions(ROOT / path), test
