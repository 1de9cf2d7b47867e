"""Every module-level import of the library and of this suite is read:
an import nothing reads is a dependency the module does not have."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "addcyclic").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
# the package's re-exports are read by its importers
REEXPORTS = ROOT / "src" / "addcyclic" / "__init__.py"
# the one name a module imports only for a reader outside it: the
# benchmark's tracer test reads tables.min_distance_exact as its example
# of a name bound in a second module
READ_ELSEWHERE = {"addcyclic/tables.py": ["min_distance_exact"]}


def unread_imports(source):
    """The names bound by the module-level imports of `source` that no
    expression reads, `from __future__` imports aside."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os, a.b\n"
              "from x import y as z, w\nimport numpy as np\n"
              "def f():\n    import json\n    return np.zeros(a.b.c), w\n")
    assert unread_imports(source) == ["os", "z"]


@pytest.mark.parametrize("path", [p for p in MODULES if p != REEXPORTS],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    expected = READ_ELSEWHERE.get(f"{path.parent.name}/{path.name}", [])
    assert unread_imports(path.read_text(encoding="utf-8")) == expected
