"""Source hygiene of the package, checked on its syntax trees.

No linter ships with the project, so two of a linter's checks live here:
every imported name is used by its module, and every module-level private
function or class is used somewhere in the package.  Both resolve names by
scope, so a parameter or local that shares a name uses neither.  A third
check keeps equality in one place: parent objects compare through `Keyed`,
elements through `RingElement`.  A fourth finds stored state that nothing
reads.  A fifth keeps code generation in the one kernel builder, and a
sixth keeps euclidean division behind the residue tables.
"""

import ast
import symtable
from pathlib import Path

import pytest

import cycord

PACKAGE = Path(cycord.__file__).resolve().parent
# the package namespace re-exports what it imports, so it is exempt
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _annotation_names(note) -> set:
    """Names read by an annotation, the names inside its strings included."""
    names = set()
    for sub in ast.walk(note) if note else ():
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def _module_reads(source, attributes=False) -> set:
    """(name, owner) for each read of a module-level name in `source`.

    Names resolve by scope (`symtable`): a read at module level, or a read
    of a global in a function, class or comprehension.  A parameter or local
    is a symbol of its own scope, so reading it reads no module-level name
    of the same spelling.  `owner` is the top-level definition that holds
    the read, None at module level.  The names inside annotations come from
    the syntax tree, as `symtable` skips annotations under `from __future__
    import annotations`; with `attributes`, so do attribute names, through
    which another module reaches a private name of its module.
    """
    top = symtable.symtable(source, "<module>", "exec")
    reads = {(s.get_name(), None) for s in top.get_symbols() if s.is_referenced()}

    def walk(scope, owner):
        reads.update((s.get_name(), owner) for s in scope.get_symbols()
                     if s.is_global() and s.is_referenced())
        for child in scope.get_children():
            walk(child, owner)

    for child in top.get_children():
        walk(child, child.get_name())
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for sub in ast.walk(stmt):
            for note in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
                reads.update((name, owner) for name in _annotation_names(note))
            if attributes and isinstance(sub, ast.Attribute):
                reads.add((sub.attr, owner))
    return reads


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _unused_imports(source) -> list:
    read = {name for name, _ in _module_reads(source)}
    return [name for name in _imported_names(ast.parse(source)) if name not in read]


def _unused_private_definitions(sources: dict) -> list:
    """`module: name` for each module-level private function or class that
    no code reads outside its own definition."""
    reads = set().union(*(_module_reads(source, True) for source in sources.values()))
    return [f"{module}: {node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(name == node.name and owner != node.name for name, owner in reads)]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"base_rings", "residue", "structure", "cli"}


def test_every_imported_name_is_used():
    unused = [f"{path.name}: {name}" for path in MODULES
              for name in _unused_imports(path.read_text())]
    assert unused == []


def test_every_private_definition_is_used():
    assert _unused_private_definitions({path.name: path.read_text() for path in MODULES}) == []


FUTURE = "from __future__ import annotations\n"


@pytest.mark.parametrize("source, unused", [
    # a parameter or a local of the import's name is no use of the import
    ("from math import pow\ndef f(x, pow=2):\n    return x ** pow\n", ["pow"]),
    ("from math import pow\ndef f(x):\n    pow = 2\n    return [x ** pow]\n", ["pow"]),
    # reads in a nested function, a class body, a comprehension and annotations
    ("from math import pow\ndef f(x):\n    def g():\n        return pow(x, 2)\n    return g\n", []),
    ("from math import pow\nclass C:\n    square = staticmethod(pow)\n", []),
    ("from math import pow\nsquares = [pow(x, 2) for x in range(3)]\n", []),
    (FUTURE + "from typing import Any\ndef f(x: Any) -> 'list[Any]':\n    return [x]\n", []),
])
def test_import_check_resolves_names_by_scope(source, unused):
    assert _unused_imports(source) == unused


@pytest.mark.parametrize("source, unused", [
    # the only reference is a same-named local or parameter, or the definition itself
    ("def _helper():\n    return 1\ndef f():\n    _helper = 2\n    return _helper\n",
     ["m.py: _helper"]),
    ("def _helper():\n    return 1\ndef f(_helper):\n    return _helper\n", ["m.py: _helper"]),
    ("def _helper(n):\n    return _helper(n - 1) if n else 0\n", ["m.py: _helper"]),
    ("def _helper():\n    return 1\ndef f():\n    return _helper()\n", []),
    (FUTURE + "class _Row:\n    pass\ndef f(x: '_Row'):\n    return x\n", []),
])
def test_private_definition_check_resolves_names_by_scope(source, unused):
    assert _unused_private_definitions({"m.py": source}) == unused


# `ExtensionSpec` keeps a hash computed once, since every cached factory hashes it
EQ_OWNERS = {"Keyed", "RingElement"}
HASH_OWNERS = EQ_OWNERS | {"ExtensionSpec"}


def test_equality_is_defined_once():
    owners = {"__eq__": set(), "__hash__": set()}
    for path in PACKAGE.glob("*.py"):
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name}
                else:  # an assignment such as `__hash__ = ...`
                    names = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
                for name in owners.keys() & names:
                    owners[name].add(cls.name)
    assert owners == {"__eq__": EQ_OWNERS, "__hash__": HASH_OWNERS}


def _self_stores(tree):
    """(class, attribute) for each attribute a class's methods assign on `self`."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for sub in ast.walk(cls):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    yield cls.name, sub.attr


def _attribute_reads(tree):
    """Attribute names loaded under `tree`, and the names given to `attrgetter`."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.Call) and "attrgetter" in (
                getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
            yield from (arg.value for arg in sub.args if isinstance(arg, ast.Constant))


def test_every_stored_attribute_is_read():
    """Each attribute that a class assigns on `self` is read somewhere in the
    package.  This catches stored state that no package code reads; state
    that is read, though not where it is needed, passes."""
    trees = {path.name: _tree(path) for path in PACKAGE.glob("*.py")}
    read = {name for tree in trees.values() for name in _attribute_reads(tree)}
    unread = sorted({f"{name}: {cls}.{attr}" for name, tree in trees.items()
                     for cls, attr in _self_stores(tree) if attr not in read})
    assert unread == []



def test_code_is_compiled_only_by_the_kernel_builder():
    """`exec`, `eval` and `compile` are called only by `_compile_kernels`,
    which compiles each O_K multiplication table and sigma matrix."""
    callers = set()
    for path in MODULES:
        for stmt in _tree(path).body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("exec", "eval", "compile")):
                    callers.add((path.name, getattr(stmt, "name", None), sub.func.id))
    assert callers == {("extension.py", "_compile_kernels", "exec"),
                       ("extension.py", "_compile_kernels", "compile")}


def test_euclidean_division_stays_behind_the_residue_tables():
    """`euclidean_divmod` is called only by `divides`, `xgcd` and
    `ResidueTable`, which reduces every residue into a table code, so
    nothing else reduces mod m on its own."""
    callers = set()
    for path in MODULES:
        for stmt in _tree(path).body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and "euclidean_divmod" in (
                        getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    callers.add((path.name, getattr(stmt, "name", None)))
    assert callers == {("base_rings.py", "divides"), ("base_rings.py", "xgcd"),
                       ("base_rings.py", "ResidueTable")}
