"""The benchmark's hold on the package: the names it patches and the calls it makes.

perfbench/tracing.py wraps coxvar functions by (module, name) and counts
QSqrt2 arithmetic through QSqrt2.__dict__; a name deleted or renamed in
coxvar would break ``perfbench/run.py --trace 1`` only.  The workloads
call coxvar through the set-up of perfbench/run.py; a call they make
that fails shows up as a failed job only.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from coxvar.scalars import QSqrt2

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_benchmark_call_surface():
    # one pass of every workload on a fresh set-up, in its own interpreter:
    # fresh_setup() re-imports coxvar, which must not happen under the other tests.
    # Then one traced pass each, with the hooks installed as ``run.py --trace 1``
    # installs them (WRAPPED, the LinearRep check and QSqrt2 arithmetic).
    script = textwrap.dedent("""
        import sys
        sys.path[:0] = sys.argv[1:3]
        import run
        from tracing import Tracer
        from workloads import WORKLOADS
        api, _ = run.fresh_setup()
        for w in WORKLOADS.values():
            for job in w.run_pass(api, w.inputs(1)):
                if job.error is not None:
                    print(w.name, job.name, job.error)
        tracer = Tracer()
        tracer.install({m: api[m] for m in run.MODULES})
        for w in WORKLOADS.values():
            for job in w.run_pass(api, w.inputs(1), tracer):
                if job.error is not None:
                    print("traced", w.name, job.name, job.error)
        spans = tracer.by_name()
        for name in ("cohomology.linear_rep_check", "cohomology.adjoint_rep",
                     "cohomology.split_h1", "halfpipe.rho_lambda",
                     "coxeter.verify_representation"):
            if name not in spans:
                print("no span", name)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-B", "-c", script, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
