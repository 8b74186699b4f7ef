"""Source hygiene of the package: no module imports a name it does not use,
no private helper outlives its last caller, no function imports, and
every module name the README writes exists.

A deletion can leave an import behind that nothing reads any more; the
package re-exports through ``__init__.py`` only, so that file is exempt.
A module-level ``_name`` function or class is the package's own, so some
code in the package must read it outside its own definition.  The
package has no import cycle that a deferred import would have to break,
so every import sits at the top of its module.  A README reference such
as `repvar.Lift` or `repvar.Lift.to_json` names the package's API, so it
must resolve after a rename or a deletion too.

No module imports ``dataclasses``, and importing the CLI does not load
it: a dataclass generates and compiles its methods each time its class
is created, and that code generation was 18.5% of the benchmark's
set-up (which imports coxvar afresh) before the package's 16
dataclasses became records and named tuples.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coxvar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parent.parent / "README.md"


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


def readme_references(text, modules):
    """The ``module.name`` and ``module.name.attr`` references that start an
    inline code span of ``text`` for a module of ``modules`` (name -> module),
    in order, each with whether getattr resolves it."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"(\w+)((?:\.\w+){1,2})", span)
        if m is None or m[1] not in modules:
            continue
        obj, ok = modules[m[1]], True
        for attr in m[2].split(".")[1:]:
            ok = ok and hasattr(obj, attr)
            obj = getattr(obj, attr, None)
        found.append((m[0], ok))
    return found


def test_readme_names_resolve():
    modules = {p.stem: importlib.import_module(f"coxvar.{p.stem}") for p in MODULES}
    found = readme_references(README.read_text(), modules)
    assert found
    assert [ref for ref, ok in found if not ok] == []


def test_readme_references_finds_a_stale_name():
    m = SimpleNamespace(f=len, C=SimpleNamespace(meth=len))
    text = ("`m.f(x)` and `m.gone`, `m.C.meth` but `m.C.nope = 1`;\n"
            "`n.f` is no module and `m` alone is no reference")
    assert readme_references(text, {"m": m}) == [
        ("m.f", True), ("m.gone", False), ("m.C.meth", True), ("m.C.nope", False)]


def imports_dataclasses(source):
    """Does ``source`` import the dataclasses module or a name from it?"""
    return any((isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
               for node in ast.walk(ast.parse(source)))


def test_no_module_imports_dataclasses():
    assert [p.stem for p in sorted(SRC.glob("*.py")) if imports_dataclasses(p.read_text())] == []


def test_imports_dataclasses_finds_both_forms():
    assert imports_dataclasses("import os, dataclasses\n")
    assert imports_dataclasses("def f():\n    from dataclasses import dataclass\n")
    assert not imports_dataclasses("from .records import Record\nx = 'dataclasses'\n")


def test_importing_the_cli_loads_no_dataclasses():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, coxvar.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-B", "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
