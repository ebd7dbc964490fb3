"""Rules on the source of the package and its tests, read from the syntax
tree of each file, so a local tier-1 run catches a violation before CI."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "yieldtree").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _where(path, node) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def test_no_unused_imports():
    """A module of the package (not __init__.py, which re-exports) or of the
    tests that imports a name it never reads fails."""
    unused = []
    for path in PACKAGE + TESTS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{_where(path, node)}: {name}")
    assert not unused, "\n".join(unused)


def test_standard_library_only():
    """The package has no dependencies: every absolute import of a module of
    the package names a standard-library module (3.10 and later)."""
    # CPython's builtin SHA-256 is _sha256 in 3.10-3.11 and _sha2 from 3.12
    # on; each interpreter lists only its own name.
    builtin_sha = {"_sha2", "_sha256"}
    stdlib = sys.stdlib_module_names | builtin_sha
    foreign = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{_where(path, node)}: {name}" for name in names if name.split(".")[0] not in stdlib]
    assert not foreign, "\n".join(foreign)


def test_tables_built_from_columns():
    """Inside the package only model.py names a Row or reads `.rows`, the row
    view built for library callers; every other module builds and reads a
    table by its keys and columns."""
    found = []
    for path in PACKAGE:
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "Row"
                    or isinstance(node, ast.Attribute) and node.attr in ("Row", "rows")):
                found.append(f"{_where(path, node)}: {ast.unparse(node)}")
    assert not found, "\n".join(found)


def test_keys_stored_by_field():
    """A table holds its keys as one tuple of ids per key field, and `.keys`
    is the key view built for library callers. Inside the package only
    model.py reads it; a call such as `dict.keys()` is another attribute and
    stays allowed."""
    found = []
    for path in PACKAGE:
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [f"{_where(path, node)}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "keys" and id(node) not in called]
    assert not found, "\n".join(found)
