"""Every name a library module imports is used in that module.

There is no linter in the toolchain, so this scan keeps dead imports out
of src/. The package's __init__.py is skipped: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import rng\nfrom .a import b, c\nnp.x(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "rng"), (4, "b")]


def test_scan_covers_the_package():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
