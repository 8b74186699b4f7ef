"""In-memory call spans around coxvar's public functions.

The traced run wraps functions from outside the package: every module
namespace that holds the original function object gets the wrapper, so
calls made through ``from .x import f`` are caught too.  Each call
records a span (name, start, end, parent, job).  A name's self time is
its span time minus the time its direct child spans cover.  QSqrt2
arithmetic is only counted: a span per field operation would cost more
than the operation itself.
"""

from __future__ import annotations

import functools
import itertools
import json
from time import perf_counter

import numpy as np

# (module, function, span name).  The two pair classifiers share a name.
# Small helpers the hot loops call per constraint (eval_form,
# eval_bilinear, is_zero_matrix, ...) stay unwrapped, so their time is
# charged to the public function that loops over them.
WRAPPED = (
    ("linalg_exact", "exact_rank", "linalg_exact.exact_rank"),
    ("linalg_exact", "exact_nullspace", "linalg_exact.exact_nullspace"),
    ("linalg_exact", "exact_solve", "linalg_exact.exact_solve"),
    ("linalg_exact", "exact_inverse", "linalg_exact.exact_inverse"),
    ("linalg_exact", "exact_in_span", "linalg_exact.exact_in_span"),
    ("geometry", "reflection_matrix", "geometry.reflection_matrix"),
    ("geometry", "classify_pair_hyp", "geometry.classify_pair"),
    ("geometry", "classify_pair_ads", "geometry.classify_pair"),
    ("coxeter", "verify_representation", "coxeter.verify_representation"),
    ("repvar", "standard_lift", "repvar.standard_lift"),
    ("repvar", "residual", "repvar.residual"),
    ("repvar", "residual_max", "repvar.residual_max"),
    ("repvar", "jacobian", "repvar.jacobian"),
    ("repvar", "kernel_report", "repvar.kernel_report"),
    ("repvar", "project_to_variety", "repvar.project_to_variety"),
    ("repvar", "trace_path", "repvar.trace_path"),
    ("repvar", "known_tangent", "repvar.known_tangent"),
    ("halfpipe", "rho_lambda", "halfpipe.rho_lambda"),
    ("halfpipe", "classify_hp_reflection_pair", "halfpipe.classify_hp_reflection_pair"),
    ("halfpipe", "classify_hp_dual_points", "halfpipe.classify_hp_dual_points"),
    ("cohomology", "adjoint_rep", "cohomology.adjoint_rep"),
    ("cohomology", "cocycle_space", "cohomology.cocycle_space"),
    ("cohomology", "coboundary_space", "cohomology.coboundary_space"),
    ("cohomology", "cohomology_report", "cohomology.cohomology_report"),
    ("cohomology", "split_h1", "cohomology.split_h1"),
    ("cusp", "classify", "cusp.classify"),
    ("cusp", "rigidity_experiment", "cusp.rigidity_experiment"),
    ("cli", "main", "cli.main"),
)

QSQRT2_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Spans and counters of one traced pass; ``job`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.counters = {"linalg_exact.entries_in": 0, "repvar.newton_iters": 0}
        self._stack = []
        self._ops = itertools.count()

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def _count_entries(self, args, _out):
        self.counters["linalg_exact.entries_in"] += int(np.size(args[0]))

    def _count_iters(self, _args, out):
        self.counters["repvar.newton_iters"] += int(out[1])

    def install(self, modules):
        """Wrap WRAPPED, the LinearRep check and QSqrt2 arithmetic.

        ``modules`` maps short names ("repvar", ...) to the imported
        coxvar modules; every one of them is searched for references.
        """
        hooks = {"linalg_exact": self._count_entries,
                 "repvar.project_to_variety": self._count_iters}
        for modname, fname, span in WRAPPED:
            orig = getattr(modules[modname], fname)
            hook = hooks.get(span, hooks.get(modname))
            wrapped = self._wrap(span, orig, hook)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        rep_cls = modules["cohomology"].LinearRep
        rep_cls.__post_init__ = self._wrap("cohomology.linear_rep_check",
                                           rep_cls.__post_init__)
        q = modules["scalars"].QSqrt2
        for op in QSQRT2_OPS:
            setattr(q, op, _counted(q.__dict__[op], self._ops))

    def scalar_ops(self):
        """QSqrt2 + - * / calls since install; reading consumes a tick, so read once."""
        return next(self._ops)

    def by_name(self):
        """{name: (calls, total_s, self_s)} over all finished spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _parent, _job) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), self_s + (end - start - child[k]))
        return out

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "job": job}) + "\n")


def _counted(fn, tick):
    tick = tick.__next__

    def op(self, other):
        tick()
        return fn(self, other)

    return op
