"""Source hygiene of the package: no module imports a name it does not use,
no private helper outlives its last caller, and no function imports.

A deletion can leave an import behind that nothing reads any more; the
package re-exports through ``__init__.py`` only, so that file is exempt.
A module-level ``_name`` function or class is the package's own, so some
code in the package must read it outside its own definition.  The
package has no import cycle that a deferred import would have to break,
so every import sits at the top of its module.
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


def dead_private_helpers(sources):
    """The module-level ``_name`` functions and classes of ``sources`` (module
    name -> text) that no code reads outside their own definition, as
    ``module.name`` in order."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                own = node.name
                defined.append((module, own))
            read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []


def test_dead_private_helpers_finds_a_dead_helper():
    sources = {"m": "def _dead():\n    return 1\n\n\ndef _used():\n    return 2\n\n\n"
                    "class _Loop:\n    def again(self):\n        return _Loop()\n",
               "n": "from . import m\nx = m._used()\n"}
    assert dead_private_helpers(sources) == ["m._dead", "m._Loop"]


def imports_inside_functions(source):
    """The functions of ``source`` whose bodies hold an import statement, named
    with their enclosing classes and functions (``C.m``), in source order."""
    found = []

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.append(path)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_function or isinstance(child, ast.ClassDef):
                visit(child, f"{path}.{child.name}".lstrip("."), in_function or is_function)
            else:
                visit(child, path, in_function)

    visit(ast.parse(source), "", False)
    return list(dict.fromkeys(found))


def test_no_import_inside_a_function():
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in imports_inside_functions(p.read_text())]
    assert found == []


def test_imports_inside_functions_finds_a_deferred_import():
    source = ("import os\n\n\ndef f():\n    import sys\n    from math import pi\n\n"
              "    def g():\n        from . import m\n\n\n"
              "class C:\n    import re\n\n    def m(self):\n        if self:\n"
              "            import json\n\n\ndef h():\n    return os\n")
    assert imports_inside_functions(source) == ["f", "f.g", "C.m"]
