"""Source hygiene of the package: no module imports a name it does not use.

A deletion can leave an import behind that nothing reads any more; the
package re-exports through ``__init__.py`` only, so that file is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coxvar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` binds by import but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_dead_name():
    source = "import os\nfrom math import sqrt, pi as tau\nfrom . import cusp\nprint(tau)\n"
    assert unused_imports(source) == ["os", "sqrt", "cusp"]
