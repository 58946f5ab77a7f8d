"""Source hygiene of the package, checked on its syntax trees.

No linter ships with the project, so two of a linter's checks live here:
every imported name is used by its module, and every module-level private
function or class is used somewhere in the package.  A third check keeps
equality in one place: parent objects compare through `Keyed`, elements
through `RingElement`.  A fourth finds stored state that nothing reads.
A fifth keeps code generation in the one kernel builder.
"""

import ast
from collections import Counter
from pathlib import Path

import cycord

PACKAGE = Path(cycord.__file__).resolve().parent
# the package namespace re-exports what it imports, so it is exempt
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node, attributes=False) -> Counter:
    """Names read under `node`: bare names, the names inside string
    annotations and, with `attributes`, attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif attributes and isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        for note in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                found.update(_references(ast.parse(note.value, mode="eval")))
    return found


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"base_rings", "residue", "structure", "cli"}


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _references(tree)
        unused += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if not used[name]]
    assert unused == []


def test_every_private_definition_is_used():
    trees = {path.name: _tree(path) for path in MODULES}
    # another module may reach a private name as an attribute of its module
    used = sum((_references(tree, True) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                # a definition's references to itself do not count
                if used[node.name] == _references(node, True)[node.name]:
                    unused.append(f"{name}: {node.name}")
    assert unused == []


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
