"""Benchmark for coxvar: three seeded workloads, pinned checks, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload variety_scan --seed 1 --seconds 35 --trace 0

The run imports coxvar from ``src/`` of the same checkout, sets it up
several times (fresh import, first ``gamma22()``, the four constraint
systems, the six rigidity bases), warms the workload, then repeats the
workload's fixed job set for about ``--seconds`` seconds (at least one
pass).  Every job is checked against the paper's pinned values.  The
last line of standard output is one JSON object: with ``--trace 0`` it
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a traced pass that follows the untraced passes.  The exit code is
nonzero when any job failed or when ``src/coxvar`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("scalars", "linalg_exact", "geometry", "coxeter", "repvar", "halfpipe",
           "cohomology", "cusp", "cli")
SETUP_REPS = 5  # timed set-ups before the passes, and again after them
THREAD_VARS = ("RACG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_job_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scalars.ops": "count",
    "linalg_exact.calls": "count",
    "linalg_exact.rank_calls": "count",
    "linalg_exact.entries_in": "count",
    "linalg_exact.self_s": "s",
    "cohomology.adjoint_rep.self_s": "s",
    "cohomology.linear_rep_check_s": "s",
    "cohomology.cocycle_space.self_s": "s",
    "cohomology.coboundary_space.self_s": "s",
    "cohomology.cohomology_report.self_s": "s",
    "cohomology.split_h1.self_s": "s",
    "halfpipe.rho_lambda.self_s": "s",
    "halfpipe.self_s": "s",
    "coxeter.verify_representation.self_s": "s",
    "coxeter.gamma22_s": "s",
    "repvar.kernel_report.self_s": "s",
    "repvar.residual.calls": "count",
    "repvar.residual.self_s": "s",
    "repvar.jacobian.calls": "count",
    "repvar.jacobian.self_s": "s",
    "repvar.trace_path.self_s": "s",
    "repvar.project_to_variety.self_s": "s",
    "repvar.newton_iters": "count",
    "cusp.classify.calls": "count",
    "cusp.classify.self_s": "s",
    "cusp.rigidity_experiment.self_s": "s",
    "cusp.converged_frac": "ratio",
    "geometry.reflection_matrix.self_s": "s",
    "geometry.classify_pair.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _cap_threads():
    """One coxvar worker thread; BLAS threads at most the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["RACG_THREADS"] = "1"
    for var in THREAD_VARS[1:]:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def fresh_setup():
    """Import coxvar anew and build what the workloads share; phase times."""
    for name in [m for m in sys.modules if m == "coxvar" or m.startswith("coxvar.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("coxvar.cli")  # pulls in all nine modules
    mods = {m: sys.modules[f"coxvar.{m}"] for m in MODULES}
    t1 = perf_counter()
    mods["coxeter"].gamma22()
    t2 = perf_counter()
    repvar, cusp = mods["repvar"], mods["cusp"]
    systems = {(g, s): repvar.constraint_system(g, with_tangencies=(s == "g0"))
               for g in ("hyp", "ads") for s in ("g", "g0")}
    bases = {("hyp", "rect"): cusp.base_rect_hyp(), ("ads", "rect"): cusp.base_rect_ads(),
             ("hp", "rect"): cusp.base_rect_hp()}
    bases.update({(g, "cube"): cusp.base_cube(g) for g in ("hyp", "ads", "hp")})
    t3 = perf_counter()
    api = dict(mods, systems=systems, bases=bases)
    return api, {"setup_s": t3 - t0, "import_s": t1 - t0, "gamma22_s": t2 - t1,
                 "systems_bases_s": t3 - t2}


def _timed_setups(setups):
    for _ in range(SETUP_REPS):
        gc.collect()
        api, phases = fresh_setup()
        setups.append(phases)
    return api


def _provenance(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "nproc": nproc, "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def end_to_end(setups, passes):
    from workloads import percentile

    items = [j for p in passes for j in p if j.kind == "item"]
    item_ms = [1e3 * j.seconds / j.items for j in items]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(sum(j.seconds for j in p) for p in passes),
        "slowest_job_s": statistics.median(max(j.seconds for j in p) for p in passes),
        "items_per_s": sum(j.items for j in items) / sum(j.seconds for j in items),
        "item_ms.p50": percentile(item_ms, 50),
        "item_ms.p90": percentile(item_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, setups, untraced_wall, traced):
    spans = tracer.by_name()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer(prefix, field):
        return sum(v[field] for n, v in spans.items() if n.startswith(prefix + "."))

    trials = sum(j.items for j in traced if j.converged is not None)
    converged = sum(j.converged for j in traced if j.converged is not None)
    traced_wall = sum(j.seconds for j in traced)
    out = {
        "scalars.ops": tracer.scalar_ops(),
        "linalg_exact.calls": layer("linalg_exact", 0),
        "linalg_exact.rank_calls": calls("linalg_exact.exact_rank"),
        "linalg_exact.entries_in": tracer.counters["linalg_exact.entries_in"],
        "linalg_exact.self_s": layer("linalg_exact", 2),
        "cohomology.linear_rep_check_s": total_s("cohomology.linear_rep_check"),
        "halfpipe.self_s": layer("halfpipe", 2),
        "coxeter.gamma22_s": statistics.median(s["gamma22_s"] for s in setups),
        "repvar.residual.calls": calls("repvar.residual"),
        "repvar.jacobian.calls": calls("repvar.jacobian"),
        "repvar.newton_iters": tracer.counters["repvar.newton_iters"],
        "cusp.classify.calls": calls("cusp.classify"),
        "cusp.converged_frac": converged / trials if trials else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    }
    for name in PER_LAYER:
        if name not in out:
            out[name] = self_s(name[:-len(".self_s")])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = _cap_threads()  # before numpy is imported
    if not (SRC / "coxvar" / "__init__.py").is_file():
        print(f"error: no coxvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  imported before set-up so no rep pays for it

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)

    fresh_setup()  # compiles bytecode and fills lazy imports; not timed
    setups = []
    api = _timed_setups(setups)
    if not Path(api["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported coxvar from {api['cli'].__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl.warm(api)
    gc.collect()

    # Passes continue while the next one, at the mean pass time so far, is
    # expected to end within the budget; the first pass always runs.
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    start = perf_counter()
    while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= budget:
        passes.append(wl.run_pass(api, inputs))
    jobs = [j for p in passes for j in p]
    if args.trace:
        tracer = Tracer()
        tracer.install({m: api[m] for m in MODULES})
        traced = wl.run_pass(api, inputs, tracer)
        jobs += traced
    # Set-up time drifts with the machine over tens of seconds; timing
    # set-ups on both sides of the passes samples two moments of the run.
    _timed_setups(setups)
    if args.trace:
        untraced_wall = statistics.median(sum(j.seconds for j in p) for p in passes)
        values = per_layer(tracer, setups, untraced_wall, traced)
        units = PER_LAYER
    else:
        values = end_to_end(setups, passes)
        units = END_TO_END

    failures = [j for j in jobs if j.error is not None]
    named = wl.named_metrics(passes)
    named["failed_frac"] = (len(failures) / len(jobs), "ratio", len(jobs))
    provenance = _provenance(nproc)
    for name, (value, unit, n) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for j in failures[:20]:
        print(f"FAILED {j.name}: {j.error}")
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "passes": len(passes), "named": named, "setup_phases": setups,
                   "failures": [(j.name, j.error) for j in failures],
                   "provenance": provenance}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
