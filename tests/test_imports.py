"""Every module-level import of the library and of this suite is read:
an import nothing reads is a dependency the module does not have.  The
CLI derives no fact, and CI pins no output of its own."""

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


# the routines that derive a distance, a Gray image, an LCD certificate,
# a hull dimension or a Singleton status: `tables` derives each fact the
# CLI prints (`params_facts`, `gray_facts`, `lcd_facts`), and the CLI
# only renders it
DERIVATIONS = {"min_distance", "gray_image", "shift_invariance_check",
               "_rows_certificate", "singleton_check", "is_lcd", "hull_dimension"}


def named_routines(source):
    """The names `source` imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_named_routines_are_found():
    source = "from .gray import gray_image as g\nimport addcyclic.lcd\naddcyclic.lcd.is_lcd(c)\n"
    assert named_routines(source) >= {"gray_image", "lcd", "is_lcd"}


def test_cli_derives_no_fact():
    source = (ROOT / "src" / "addcyclic" / "cli.py").read_text(encoding="utf-8")
    assert not named_routines(source) & DERIVATIONS


def test_ci_pins_no_output():
    # each CLI output is pinned once, in tier-1, run in process: a digest
    # or an inline script in the workflow would be a second copy of a pin
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "sha256sum" not in workflow
    assert "python -c" not in workflow
