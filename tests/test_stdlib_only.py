"""The package imports nothing but the standard library and itself, and
uses every name it imports."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cspace"


def _imported(tree: ast.AST):
    """The top-level module of every import in a parsed file; a relative
    import names the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "cspace" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_the_standard_library_or_the_package(path):
    names = set(_imported(ast.parse(path.read_text(), filename=str(path))))
    assert names, path
    assert sorted(names - set(sys.stdlib_module_names) - {"cspace"}) == []


def _bound_names(tree: ast.AST):
    """Every name an import in a parsed file binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    """``__init__.py`` is left out: its star imports re-export the modules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_bound_names(tree)) - used - {"annotations"}) == []
