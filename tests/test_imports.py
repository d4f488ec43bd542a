"""Every module of the package uses each name it imports, and silences no lint check."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(name bound, line) of every import in `tree`, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name `tree` reads, in code or in a quoted annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"
    assert "# noqa" not in source, f"{path.name} silences a lint check"
