"""The package imports nothing but the standard library and itself."""
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
