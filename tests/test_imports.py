"""Every import in a ``cep`` module or a test file is used in that file.

An AST scan: a name an import binds counts as used when the module reads it
(as a name or as the root of an attribute chain) or lists it in ``__all__``.
``__init__.py`` is left out, since its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import cep

SOURCES = sorted(p for p in Path(cep.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}"
            for name, line in imported_names(tree).items() if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom json import dumps as d\n"
              "from re import compile\n__all__ = ['compile']\n"
              "def f(x: d) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["line 3: os"]


@pytest.mark.parametrize(
    "path", SOURCES + TESTS,
    ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
