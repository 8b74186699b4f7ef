"""The names the traced benchmark patches must exist in the package.

perfbench/tracing.py wraps coxvar functions by (module, name) and counts
QSqrt2 arithmetic through QSqrt2.__dict__; a name deleted or renamed in
coxvar would break ``perfbench/run.py --trace 1`` only.
"""

import importlib
import importlib.util
from pathlib import Path

from coxvar.scalars import QSqrt2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    tracing = _tracing()
    missing = [(m, f) for m, f, _ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"coxvar.{m}"), f, None))]
    assert not missing


def test_counted_qsqrt2_operators_exist():
    assert all(op in QSqrt2.__dict__ for op in _tracing().QSQRT2_OPS)
