"""Cusp-group classification and perturbation experiments.

A representation of the rectangle group (dimension 3) or the cube group
(dimension 4) by reflections is a cusp group when the fixed hyperplanes
are distinct and share a point at infinity, and a collapsed cusp group
when one opposite pair of generators shares its reflection.

Inside this module a configuration has one representation: the packed
unknown vector of ``_problem``, the vector the perturbation trials move.
``_problem`` compiles the norm + commutation rows of the group once, and
the pattern check reads them: an adjacent pair commutes iff its row is
at most the tolerance in absolute value.  Half-pipe reflection kinds are
checked when the configuration is packed.  COLLAPSED is returned for the
first coinciding opposite pair; what is left reads positions off the
blocks of the vector.  For the cube the shared ideal point is detected
linearly: a common b-orthogonal null vector of the six normals (in
half-pipe geometry, a common boundary point of the dual data), which
avoids accumulating pairwise tolerance errors.  For the rectangle the
classification is by the two opposite-pair positions, read in the terms
of H^n for hyperbolic and half-pipe data: geometry.pair_positions, the
one home of the position thresholds and checks, gives them for the whole
stack at once.  Half-pipe classes are
invariant under the rescaling (A, v) -> (A, mu v) of the degenerate
direction, so the translation coordinates are divided by the largest of
1 and their absolute values before any tolerance test: every rho_lambda
with lambda != 0 classifies as rho_1 does.  The classifier takes a stack
of packed vectors and runs each check on the whole stack; a row that
fails a check raises what it would raise alone, the lowest such row
first.

The rigidity experiments perturb a cusp configuration, project back
onto the norm + commutation variety of that base only (the norm targets
are read off the base; the tangency conditions are deliberately left
out: their preservation is the claim under test), and classify the
result.  The projection problem is compiled once per experiment, and the
trials are projected and classified in stacks of TRIAL_CHUNK.  In
dimension 4 every projected configuration must come back a cusp group;
in dimension 3 the rectangle group is flexible and splits into one
intersecting and one disjoint opposite pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isfinite

import numpy as np

from .coxeter import gamma_cube, gamma_rect
from .geometry import (PairClassAdS, PairClassHyp, QuadraticSpace, coincident, eval_form,
                       pair_positions)
from .halfpipe import (DegenerateReflection, NonDegenerateReflection,
                       reflection_span_coefficient, rho_lambda)
from .repvar import (ConstraintSystem, NonFiniteResidual, Pair, build_constraints,
                     find_cusp_subgroups, gauss_newton, standard_lift)

DEFAULT_CLASS_TOL = 1e-7
# Gauss-Newton stopping rule of the perturb-project trials
MAX_ITER = 50
TOL_RES = 1e-12
# trials per stacked Gauss-Newton + classification pass; bounds peak memory
TRIAL_CHUNK = 128


class CuspError(Exception):
    pass


class PatternViolation(CuspError):
    pass


class CuspKind(Enum):
    CUSP = "cusp"
    COLLAPSED = "collapsed"
    RECT_SPLIT = "rect_split"
    ADS_RECT_TIMELIKE_MEET = "ads_rect_timelike_meet"
    ADS_RECT_SPACELIKE_MEET = "ads_rect_spacelike_meet"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CuspClass:
    kind: CuspKind
    pair: tuple = None               # coinciding pair, for COLLAPSED
    intersecting_pair: tuple = None  # for RECT_SPLIT
    disjoint_pair: tuple = None
    reason: str = None               # for UNCLASSIFIED

    @property
    def name(self):
        return self.kind.value


_OPPOSITE = {"rect": ((0, 2), (1, 3)), "cube": ((0, 3), (1, 4), (2, 5))}
# every other pair commutes; this order is also the row order of the hp projection
_ADJACENT = {"rect": ((0, 1), (1, 2), (2, 3), (0, 3)),
             "cube": tuple((i, j) for i in range(6) for j in range(i + 1, 6)
                           if (i, j) not in _OPPOSITE["cube"])}
# rectangle classes by the positions of its two opposite pairs (hyp and hp
# read H^n positions; AdS pairs one spacelike and one timelike pair)
_KIND_OF_POSITIONS = {
    frozenset({PairClassHyp.TANGENT_AT_INFINITY}): CuspKind.CUSP,
    frozenset({PairClassHyp.INTERSECTING, PairClassHyp.DISJOINT}): CuspKind.RECT_SPLIT,
    frozenset({PairClassAdS.TANGENT_AT_INFINITY, PairClassAdS.LIGHTLIKE_INTERSECTION}):
        CuspKind.CUSP,
    frozenset({PairClassAdS.DISJOINT, PairClassAdS.TIMELIKE_INTERSECTION}):
        CuspKind.ADS_RECT_TIMELIKE_MEET,
    frozenset({PairClassAdS.INTERSECTING, PairClassAdS.SPACELIKE_INTERSECTION}):
        CuspKind.ADS_RECT_SPACELIKE_MEET,
}
_ADS_SPACELIKE = {PairClassAdS.INTERSECTING, PairClassAdS.TANGENT_AT_INFINITY,
                  PairClassAdS.DISJOINT}


def _rect_class(geometry, classes):
    """The rectangle class of the positions of its two opposite pairs."""
    opposite = _OPPOSITE["rect"]
    if geometry == "ads" and (classes[0] in _ADS_SPACELIKE) == (classes[1] in _ADS_SPACELIKE):
        raise PatternViolation("an AdS rectangle needs one spacelike and one timelike pair")
    kind = _KIND_OF_POSITIONS.get(frozenset(classes))
    if kind is None:
        return CuspClass(CuspKind.UNCLASSIFIED,
                         reason=f"opposite pair classes {classes[0].value}, {classes[1].value}")
    if kind == CuspKind.RECT_SPLIT:
        inter = opposite[classes.index(PairClassHyp.INTERSECTING)]
        disj = opposite[classes.index(PairClassHyp.DISJOINT)]
        return CuspClass(kind, intersecting_pair=inter, disjoint_pair=disj)
    return CuspClass(kind)


_CUBE_CLASSES = (CuspClass(CuspKind.CUSP),
                 *(CuspClass(CuspKind.UNCLASSIFIED, reason=r) for r in (
                     "no common fixed point", "degenerate configuration",
                     "common point not at infinity",
                     "common point only at the degenerate end")))


def _cube_class(rows, null_form, tol, hp):
    """Cusp iff the walls with these rows share one point, and it is null.

    ``rows`` is a stack (T, 6, c) of wall rows; one CuspClass per entry.
    """
    u, s, vt = np.linalg.svd(rows)
    small = np.sum(s <= tol * s[:, :1], axis=-1) + max(0, rows.shape[-1] - s.shape[-1])
    point = vt[:, -1]
    qval = np.sum(null_form * point * point, axis=-1)
    degenerate_end = hp & (np.max(np.abs(point[:, :-1]), axis=-1) <= tol)
    code = np.select([small == 0, small > 1, np.abs(qval) > tol, degenerate_end], [1, 2, 3, 4])
    return [_CUBE_CLASSES[c] for c in code]


def classify_rect(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a rectangle-group configuration near a (collapsed) cusp.

    ``data`` lists the four reflection data in cyclic order (adjacent
    entries commute): normal vectors for hyp/ads, HPReflection objects
    for hp.  Opposite pairs are (0, 2) and (1, 3).
    """
    return classify(geometry, "rect", data, tol)


def classify_cube(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a cube-group configuration near a (collapsed) cusp.

    ``data`` lists six reflection data with opposite pairs (0,3), (1,4),
    (2,5); all other pairs must commute.  The shared ideal point is
    found as the common solution of six linear conditions, then tested
    for nullity.
    """
    return classify(geometry, "cube", data, tol)


def classify(geometry, group, data, tol=DEFAULT_CLASS_TOL):
    """Pack ``data`` as ``_problem`` does and classify the packed vector."""
    params, _, _, classify_at = _problem(geometry, group, data)
    return classify_at(params[None], tol)[0]


# -- perturbation experiments -------------------------------------------------

@dataclass
class TrialRecord:
    trial: int
    klass: str
    residual: float
    iterations: int


@dataclass
class ExperimentStats:
    base_class: str
    counts: dict
    records: list = field(default_factory=list)

    def count(self, name):
        return self.counts.get(name, 0)


def _problem(geometry, group, base):
    """Unknowns, constraint maps and classifier of the configurations near ``base``.

    hyp/ads: one block per normal; the rows are the norm + commutation
    system of the group, each norm target the sign of q on the base
    normal, so every perturbation is projected onto the variety of the
    base.  hp: per degenerate slot the normal X and the coefficient c of
    its translation c X, per non-degenerate slot the dual point p; the
    rows are q_1(X) = 1, b_1(X_i, X_j) = 0 for adjacent degenerate pairs
    and b_1(X_j, 2 p_k) = c_j for adjacent degenerate/non-degenerate
    pairs ((r_X, cX) and (-id, 2p) commute iff (id - r_X)(2p) = 2 c X).
    Packing checks the hp reflection kinds of the opposite pairs, then
    refuses an adjacent non-degenerate pair: (-id, 2p) and (-id, 2q)
    commute only when p = q, so no row can stand for it.
    Returns (params, F, J, classify_at): the base packed into unknowns,
    the two maps (on one vector or a stack), and classify_at(x, tol),
    which maps a stack x (T, n) to a list of T CuspClasses.
    """
    if group not in _OPPOSITE:
        raise ValueError(f"unknown group {group!r}")
    opposite, adjacent = _OPPOSITE[group], _ADJACENT[group]
    hp = geometry == "hp"
    if not hp:
        racg = gamma_rect() if group == "rect" else gamma_cube()
        vectors = [np.asarray(v, dtype=float) for v in base]
        dim = len(vectors[0])
        space = QuadraticSpace.for_geometry(geometry, dim - 1)
        targets = {n: 1 if eval_form(space, v) > 0 else -1
                   for n, v in zip(racg.generators, vectors)}
        system = build_constraints(racg, targets)
        walls = [k * dim for k in range(len(vectors))]
        start = dict(zip(racg.generators, walls))
        pairs = sorted(racg.commuting_pairs)
        rows = np.array([len(walls) + pairs.index(ij) for ij in adjacent])
        params, normal = np.concatenate(vectors), [True] * len(walls)
    else:
        normal = [isinstance(r, DegenerateReflection) for r in base]
        mixed = [(i, j) for i, j in opposite if normal[i] != normal[j]]
        if group == "rect" and (mixed or normal[0] == normal[1]):
            raise PatternViolation("opposite pairs must be one non-degenerate and one degenerate")
        if mixed:
            raise PatternViolation(f"opposite pair {mixed[0]} mixes reflection kinds")
        for i, j in adjacent:
            if not (normal[i] or normal[j]):
                raise PatternViolation(f"generators {i} and {j} must commute")
        params, start = [], {}
        for k, r in enumerate(base):
            start[str(k)] = len(params)
            vec = np.asarray(r.X if normal[k] else r.p, dtype=float)
            params.extend(vec)
            if normal[k]:
                start[f"c{k}"] = len(params)
                params.append(float(reflection_span_coefficient(r)))
        params, dim = np.array(params), len(vec)
        walls = [start[str(k)] for k in range(len(base))]
        cons = [Pair(str(k), str(k), 1) for k in range(len(base)) if normal[k]]
        for i, j in adjacent:
            if normal[i] and normal[j]:
                cons.append(Pair(str(i), str(j), 0))
            else:
                x, p = (i, j) if normal[i] else (j, i)
                cons.append(Pair(str(x), str(p), 0, scale=2, linear=f"c{x}"))
        rows = slice(-len(adjacent), None)
        system = ConstraintSystem(tuple(cons))
        space = QuadraticSpace.minkowski(dim)
    F, J = system.maps(space.signature, start)
    sig = np.array(space.signature, dtype=float)
    # hp: (y, y_n) lies on the wall over H_X iff b_1(X, y) = 0, and on the
    # wall dual to p iff b_1(p, y) + y_n = 0
    null_form = np.concatenate([sig, [0.0]]) if hp else sig
    on_dual = np.array([[0.0 if n else 1.0] for n in normal])
    blocks = np.array(walls)[:, None] + np.arange(dim)
    # every coordinate outside the normals: the hp dual points and coefficients c
    translations = np.setdiff1d(np.arange(len(params)), blocks[normal])
    # the rectangle class (or the error) of each pair of position codes
    positions = tuple(PairClassAdS if geometry == "ads" else PairClassHyp)
    rect_classes = np.empty((len(positions),) * 2, dtype=object)
    for c0, c1 in np.ndindex(rect_classes.shape):
        try:
            rect_classes[c0, c1] = _rect_class(geometry, [positions[c0], positions[c1]])
        except PatternViolation as exc:  # raised when a row lands here
            rect_classes[c0, c1] = exc.with_traceback(None)

    def same(x, w, i, j, tol):
        if not normal[i]:
            return np.max(np.abs(w[:, i] - w[:, j]), axis=-1) <= tol
        # hp: also the translations c X, each c stored after its X
        return coincident(w[:, i], w[:, j], tol) & (not hp or np.max(np.abs(
            x[:, walls[i] + dim, None] * w[:, i] - x[:, walls[j] + dim, None] * w[:, j]),
            axis=-1) <= tol)

    def classify_at(x, tol):
        """The CuspClass of each row of the stack x (T, n).

        A row that fails a check raises what a lone row raises; of
        several, the lowest row raises.
        """
        x = np.array(x, dtype=float)
        mu = np.max(np.abs(x[:, translations]), axis=-1, initial=1.0)
        x[:, translations] /= np.where(mu > 1, mu, 1.0)[:, None]
        out = np.empty(len(x), dtype=object)
        pending = np.ones(len(x), dtype=bool)

        def settle(mask, value):
            out[pending & mask] = value
            pending[mask] = False

        b = F(x)[:, rows]
        bad = np.abs(b) > tol
        failing = bad.any(axis=-1)
        for k in np.flatnonzero(failing):
            a = int(np.argmax(bad[k]))
            i, j = adjacent[a]
            out[k] = PatternViolation(f"generators {i} and {j} must commute"
                                      + ("" if hp else f"; b = {b[k, a]:.3g}"))
        pending[failing] = False
        w = x[:, blocks]
        for i, j in opposite:
            settle(same(x, w, i, j, tol), CuspClass(CuspKind.COLLAPSED, pair=(i, j)))
        if group == "rect":
            sides = []
            for i, j in opposite:
                # hp: one pair of dual points, one pair of H^n normals
                kind = ("ads" if geometry == "ads" else "hyp") if normal[i] else "hp"
                side, errors = pair_positions(kind, w[:, i], w[:, j], tol)
                for mask, exc in errors:
                    settle(mask, exc)
                sides.append(side)
            out[pending] = rect_classes[sides[0][pending], sides[1][pending]]
        elif pending.any():
            cube_rows = sig * w[pending]
            if hp:
                cube_rows = np.concatenate(
                    [cube_rows, np.broadcast_to(on_dual, cube_rows.shape[:-1] + (1,))], axis=-1)
            out[pending] = _cube_class(cube_rows, null_form, tol, hp)
        for v in out:
            if isinstance(v, Exception):
                raise type(v)(*v.args)
        return list(out)

    return params, F, J, classify_at


def rigidity_experiment(geometry, group, base, trials, noise=1e-3, seed=0,
                        tol_class=DEFAULT_CLASS_TOL):
    """Perturb-project-classify statistics around a (collapsed) cusp.

    Each trial draws uniform per-coordinate noise in [-noise, noise]
    (per-trial generators seeded by (seed, trial) so the outcome is
    independent of scheduling), projects back onto the norm +
    commutation variety of the base (norm targets read off the base, see
    ``_problem``), and classifies.  Tangency conditions are not
    projected onto: whether they survive is exactly what the experiment
    measures.

    The trials run in stacks of TRIAL_CHUNK: one gauss_newton and one
    classify_at per stack, every row as it would run alone, so the
    records do not depend on the chunk size.  A trial whose projection
    does not converge in MAX_ITER steps is tallied as no_convergence
    (residual nan); an error is raised for the lowest trial that has
    one, as if the trials ran one after the other.
    """
    if not (isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    params, F, J, classify_at = _problem(geometry, group, base)
    base_class = classify_at(params[None], tol_class)[0]
    if base_class.kind not in (CuspKind.CUSP, CuspKind.COLLAPSED):
        raise ValueError(f"base configuration classifies as {base_class.name}, need a cusp")
    counts = {}
    records = []
    for first in range(0, trials, TRIAL_CHUNK):
        ks = range(first, min(first + TRIAL_CHUNK, trials))
        x0 = np.array([params + np.random.default_rng([seed, k]).uniform(
            -noise, noise, size=len(params)) for k in ks])
        try:
            x, iters, res = gauss_newton(F, J, x0, None, MAX_ITER, TOL_RES)
        except NonFiniteResidual as exc:
            # the trials before the failing one come first, errors included
            x, _, res = gauss_newton(F, J, x0[:exc.row], None, MAX_ITER, TOL_RES)
            classify_at(x[res <= TOL_RES], tol_class)
            raise
        converged = res <= TOL_RES
        klass = np.full(len(ks), "no_convergence", dtype=object)
        klass[converged] = [c.name for c in classify_at(x[converged], tol_class)]
        for k, name, r, it, ok in zip(ks, klass, res, iters, converged):
            counts[name] = counts.get(name, 0) + 1
            records.append(TrialRecord(k, name, float(r) if ok else float("nan"), int(it)))
    return ExperimentStats(base_class.name, counts, records)


# -- canonical base configurations -------------------------------------------

def base_rect_hyp():
    """A rectangular cusp group in H^3: four planes through [1:1:0:0]."""
    return [np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]),
            np.array([1.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 1.0])]


def base_rect_ads():
    """A rectangular cusp group in AdS^3: two spacelike, two timelike planes."""
    return [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 1.0, -1.0]), np.array([0.0, 1.0, 1.0, -1.0])]


def base_rect_hp():
    """A rectangular cusp group in HP^3 (dual data over R^{1,2})."""
    z = np.zeros(3)
    x1 = np.array([0.0, 1.0, 0.0])
    x2 = np.array([1.0, 1.0, 1.0])
    w = np.array([1.0, 0.0, 1.0])
    return [NonDegenerateReflection(z), DegenerateReflection(x1, 0.0 * x1),
            NonDegenerateReflection(w / 2.0), DegenerateReflection(x2, 0.0 * x2)]


def base_cube(geometry, t=0.4, lam=1):
    """A cube cusp group from the standard family (or rho_lambda for hp):
    the first subset find_cusp_subgroups lists for the lift at t."""
    lift = standard_lift(t, "hyp" if geometry == "hp" else geometry)
    subsets = find_cusp_subgroups(lift)
    if not subsets:
        raise CuspError(f"the lift at t = {t} has no cusp subgroup")
    data = rho_lambda(float(lam)).as_reflections() if geometry == "hp" else lift.vectors
    return [data[n] for n in subsets[0]]
