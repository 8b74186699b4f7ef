"""Command-line front end.

Subcommands reproduce the headline numbers and write stable, versioned
reports:

  verify      residual and relation check of the explicit family at t
              (hyp/ads) or of rho_lambda (hp)
  trace       per-parameter CSV of residual, rank, kernel dimension and
              spectral gap for the 102- or 138-equation system
  cohomology  exact Z^1/B^1/H^1 report as JSON, with the 12+1 splitting
              for the full adjoint targets
  cusp        classify a cusp configuration and optionally run the
              seeded perturb-project experiment (CSV + JSON summary)
  gram        the 22x22 Gram matrix with a per-pair classification

Exit codes: 0 success, 1 verification failure, 2 bad input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import cohomology as coh
from . import cusp as cuspmod
from .coxeter import RACG, RelationError, gamma22, verify_representation
from .geometry import POSITION_CLASSES, GeometryError, pair_positions, reflection_matrix
from .halfpipe import rho_lambda
from .repvar import (DEFAULT_RANK_TOL, GRAM_TOL, IllConditioned, Lift, NoConvergence,
                     RepVarError, SliceDegenerate, build_constraints, constraint_system,
                     gram_matrix, kernel_report, residual_max, standard_lift, table_lift_exact)
from .scalars import format_scalar

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def _write(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


MAX_GRID_POINTS = 100_000


def _parse_grid(spec):
    """Points from start:stop:count or a comma list; each must be finite."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not 0 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be between 0 and {MAX_GRID_POINTS}")
        with np.errstate(all="ignore"):  # a non-finite point is rejected below
            grid = list(np.linspace(start, stop, count))
    else:
        grid = [float(x) for x in spec.split(",") if x.strip()]
    if not all(math.isfinite(t) for t in grid):
        raise ValueError(f"grid values must be finite numbers: {spec!r}")
    return grid


# -- verify ------------------------------------------------------------------

def _user_group_and_lift(args):
    if not (args.group_file and args.lift_file):
        raise ValueError("--group-file and --lift-file go together")
    with open(args.group_file) as fh:
        racg = RACG.from_json(fh.read())
    with open(args.lift_file) as fh:
        lift = Lift.from_json(fh.read())
    if set(lift.names) != set(racg.generators):
        raise ValueError(f"lift names {sorted(lift.names)} do not match the group's "
                         f"generators {sorted(racg.generators)}")
    return racg, lift


def cmd_verify(args):
    out = io.StringIO()
    lift = None
    if args.group_file or args.lift_file:
        racg, lift = _user_group_and_lift(args)
        system = build_constraints(racg, lift.norm_targets)
        out.write(f"group: {len(racg.generators)} generators, "
                  f"{len(racg.commuting_pairs)} commuting pairs\n")
    elif args.geometry == "hp":
        racg, lam = gamma22(), args.t
        images = rho_lambda(int(lam) if float(lam).is_integer() else lam)
        out.write(f"geometry: hp  lambda: {format_scalar(lam)}\n")
    else:
        racg, lift = gamma22(), standard_lift(args.t, args.geometry)
        system = constraint_system(args.geometry, with_tangencies=True)
        out.write(f"geometry: {args.geometry}  t: {format_scalar(args.t)}\n")
        out.write(f"constraints: {len(system)}\n")
    with np.errstate(all="ignore"):  # a non-finite value fails the checks below
        if lift is not None:
            res = residual_max(system, lift)
            out.write(f"residual_max: {format_scalar(res)}\n")
            # images in generator order (a user lift may list its vectors in any
            # order), on the lift's own backend: an exact lift is verified exactly
            rows = [lift.names.index(n) for n in racg.generators]
            images = reflection_matrix(lift.space, lift.table[rows])
        report = verify_representation(racg, images, tol=args.tol)
    out.write(f"relation_defect: {format_scalar(report.max_defect)}\n")
    ok = report.ok and (lift is None or res <= args.tol)
    if not args.lift_file and args.geometry == "hyp" and args.t == 1.0:
        dev = float(np.max(np.abs(lift.table - table_lift_exact().as_float().table)))
        out.write(f"table_deviation: {format_scalar(dev)}\n")
        ok = ok and dev <= args.tol
    for f in report.failing_relations:
        out.write(f"FAIL {f}\n")
    _write(args, out.getvalue())
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# -- trace -------------------------------------------------------------------

def cmd_trace(args):
    grid = _parse_grid(args.grid)
    system = constraint_system(args.geometry, with_tangencies=(args.system == "g0"))

    def row(t):
        lift = standard_lift(t, args.geometry)
        res = residual_max(system, lift)
        rep = kernel_report(system, lift, tol=args.rank_tol)
        gap = "inf" if not np.isfinite(rep.gap_ratio) else format_scalar(rep.gap_ratio)
        return (f"{format_scalar(t)},{args.geometry},{args.system},"
                f"{format_scalar(res)},{rep.numeric_rank},{rep.kernel_dim},{gap}")

    lines = ["# coxvar trace v1",
             "t,geometry,system,residual_max,rank,kernel_dim,gap_ratio"]
    lines.extend(row(t) for t in grid)
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- cohomology --------------------------------------------------------------

_COH_TARGETS = {
    "r13": "collapsed holonomy on R^{1,3}",
    "so13": "adjoint on so(1,3)",
    "full-hyp": "adjoint on so(1,4)",
    "full-ads": "adjoint on so(2,3)",
    "full-hp": "adjoint on isom(R^{1,3})",
}


def cmd_cohomology(args):
    if args.target == "r13":
        rep = coh.rho0_rep()
    elif args.target == "so13":
        rep = coh.so13_adjoint_rep()
    else:
        rep = coh.adjoint_collapsed_rep(args.target.split("-", 1)[1])
    report = coh.cohomology_report(rep)
    split = list(coh.split_h1(rep, report)) if args.target.startswith("full-") else None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "group": "gamma22",
        "rep_name": _COH_TARGETS[args.target],
        "dimV": rep.dimV,
        "dimZ1": report.dimZ1,
        "dimB1": report.dimB1,
        "dimH1": report.dimH1,
        "split": split,
    }
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# -- cusp --------------------------------------------------------------------

_BASE_RECTANGLES = {"hyp": cuspmod.base_rect_hyp, "ads": cuspmod.base_rect_ads,
                    "hp": cuspmod.base_rect_hp}


def _base_config(args):
    if args.group == "rect3":
        return _BASE_RECTANGLES[args.geometry](), "rect"
    return cuspmod.base_cube(args.geometry, t=args.t, lam=args.lam), "cube"


def cmd_cusp(args):
    if args.experiment and args.trials < 1:
        raise ValueError("--trials must be at least 1 with --experiment")
    base, group = _base_config(args)
    klass = cuspmod.classify(args.geometry, group, base, args.class_tol)
    lines = ["# coxvar cusp v1", "trial,class,residual,iterations"]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "geometry": args.geometry,
        "group": args.group,
        "base_class": klass.name,
        "trials": 0,
        "noise": args.noise,
        "seed": args.seed,
        "histogram": {},
    }
    if args.experiment:
        stats = cuspmod.rigidity_experiment(
            args.geometry, group, base, args.trials, noise=args.noise,
            seed=args.seed, tol_class=args.class_tol)
        for rec in stats.records:
            lines.append(f"{rec.trial},{rec.klass},{format_scalar(rec.residual)},{rec.iterations}")
        summary["trials"] = args.trials
        summary["histogram"] = {k: stats.counts[k] for k in sorted(stats.counts)}
    else:
        lines.append(f"-1,{klass.name},0,0")
        summary["histogram"] = {klass.name: 1}
    _write(args, "\n".join(lines) + "\n")
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


# -- gram --------------------------------------------------------------------

def cmd_gram(args):
    lift = standard_lift(args.t, args.geometry)
    # labels at GRAM_TOL mean nothing for a lift that is further off the variety
    res = residual_max(constraint_system(args.geometry, with_tangencies=True), lift)
    if not res <= GRAM_TOL:
        raise IllConditioned(f"the {args.geometry} lift at t = {format_scalar(args.t)} is off "
                             f"the variety: residual_max {format_scalar(res)} exceeds the "
                             f"label tolerance {format_scalar(GRAM_TOL)}")
    gram = gram_matrix(lift)
    names = lift.names
    rows, cols = np.triu_indices(len(names))
    values = gram[rows, cols]
    labels = np.where(rows == cols, "norm", "orthogonal").astype(object)
    paired = (rows != cols) & ~(np.abs(values) <= GRAM_TOL)
    codes, errors = pair_positions(args.geometry, lift.table[rows[paired]],
                                   lift.table[cols[paired]], GRAM_TOL)
    classes = np.array([c.value for c in POSITION_CLASSES[args.geometry]], dtype=object)
    pair_labels = classes[codes]
    # mixed/degenerate pairs are reported, not fatal: the first failed check names them
    for mask, exc in reversed(errors):
        pair_labels[mask] = type(exc).__name__
    labels[paired] = pair_labels
    lines = ["# coxvar gram v1", "a,b,value,classification"]
    lines.extend(f"{names[i]},{names[j]},{format_scalar(v)},{label}"
                 for i, j, v, label in zip(rows, cols, values, labels))
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def _finite_float(text):
    """argparse type for every float option: nan and inf are bad input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _nonnegative_float(text):
    """argparse type for tolerances and noise levels."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return value


def _relative_tol(text):
    """argparse type for a relative rank cut: strictly between 0 and 1."""
    value = _finite_float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text!r}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="coxvar",
                                description="reflection representation varieties of "
                                            "the 22-generator right-angled Coxeter group")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="residual + relation check of the explicit family")
    v.add_argument("--geometry", choices=("hyp", "ads", "hp"), required=True)
    v.add_argument("--t", type=_finite_float, default=0.5,
                   help="path parameter (lambda for hp)")
    v.add_argument("--tol", type=_nonnegative_float, default=1e-12)
    v.add_argument("--group-file", help="user RACG JSON")
    v.add_argument("--lift-file", help="user lift JSON")
    v.add_argument("--output")

    t = sub.add_parser("trace", help="kernel dimensions along a parameter grid")
    t.add_argument("--geometry", choices=("hyp", "ads"), required=True)
    t.add_argument("--system", choices=("g", "g0"), default="g0")
    t.add_argument("--grid", required=True, help="start:stop:count or comma list")
    t.add_argument("--rank-tol", type=_relative_tol, default=DEFAULT_RANK_TOL)
    t.add_argument("--output")

    c = sub.add_parser("cohomology", help="exact H^1 report")
    c.add_argument("--target", choices=tuple(_COH_TARGETS), required=True)
    c.add_argument("--output")

    k = sub.add_parser("cusp", help="cusp classification / rigidity experiment")
    k.add_argument("--geometry", choices=("hyp", "ads", "hp"), required=True)
    k.add_argument("--group", choices=("rect3", "cube4"), required=True)
    k.add_argument("--t", type=_finite_float, default=0.4, help="cube base parameter")
    k.add_argument("--lam", type=_finite_float, default=1.0, help="hp cube base parameter")
    k.add_argument("--experiment", action="store_true")
    k.add_argument("--trials", type=int, default=1000)
    k.add_argument("--noise", type=_nonnegative_float, default=1e-3)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--class-tol", type=_nonnegative_float, default=cuspmod.DEFAULT_CLASS_TOL)
    k.add_argument("--output")
    k.add_argument("--summary", help="write a JSON histogram here")

    g = sub.add_parser("gram", help="22x22 Gram matrix with pair classification")
    g.add_argument("--geometry", choices=("hyp", "ads"), required=True)
    g.add_argument("--t", type=_finite_float, default=0.5)
    g.add_argument("--output")
    return p


_PARSER = None  # built by the first main call


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (NoConvergence, IllConditioned, SliceDegenerate, np.linalg.LinAlgError,
            OverflowError) as exc:
        # LinAlgError is a ValueError, caught before bad input; OverflowError is
        # an exact value too large for a float.  Any other RepVarError is bad input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, GeometryError, RelationError, RepVarError,
            cuspmod.CuspError, coh.CohomologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
