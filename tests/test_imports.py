"""Every name a package module imports is used in that module.

No linter runs on the package, so an import left behind by a refactor would
go unnoticed; ``__init__`` is skipped because it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import pinvperturb

MODULES = sorted(p for p in Path(pinvperturb.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import inf, pi as tau\nprint(tau)\n")
    assert _unused_imports(tree) == ["inf", "os"]
