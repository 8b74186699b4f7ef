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
of H^n for hyperbolic and half-pipe data.  Half-pipe classes are
invariant under the rescaling (A, v) -> (A, mu v) of the degenerate
direction, so the translation coordinates are divided by the largest of
1 and their absolute values before any tolerance test: every rho_lambda
with lambda != 0 classifies as rho_1 does.

The rigidity experiments perturb a cusp configuration, project back
onto the norm + commutation variety of that base only (the norm targets
are read off the base; the tangency conditions are deliberately left
out: their preservation is the claim under test), and classify the
result.  The projection problem is compiled once per experiment.  In
dimension 4 every projected configuration must come back a cusp group;
in dimension 3 the rectangle group is flexible and splits into one
intersecting and one disjoint opposite pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .coxeter import gamma_cube, gamma_rect
from .geometry import (PairClassAdS, PairClassHyp, QuadraticSpace, classify_pair_ads,
                       classify_pair_hyp, coincident, eval_form)
from .halfpipe import (DegenerateReflection, HPPointsClass, NonDegenerateReflection,
                       classify_hp_dual_points, reflection_span_coefficient, rho_lambda)
from .repvar import (ConstraintSystem, NoConvergence, Pair, build_constraints,
                     find_cusp_subgroups, gauss_newton, standard_lift)

DEFAULT_CLASS_TOL = 1e-7
# Gauss-Newton stopping rule of the perturb-project trials
MAX_ITER = 50
TOL_RES = 1e-12


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
# the position of two non-degenerate hp walls, in the terms of H^n
_HP_POINTS_POSITION = {HPPointsClass.INTERSECT: PairClassHyp.INTERSECTING,
                       HPPointsClass.BOUNDARY_TANGENT: PairClassHyp.TANGENT_AT_INFINITY,
                       HPPointsClass.DISJOINT: PairClassHyp.DISJOINT}
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


def _cube_class(rows, null_form, tol, hp):
    """Cusp iff the walls with these rows share one point, and it is null."""
    u, s, vt = np.linalg.svd(rows)
    ncols = rows.shape[1]
    small = int(np.sum(s <= tol * s[0])) + max(0, ncols - len(s))
    if small == 0:
        return CuspClass(CuspKind.UNCLASSIFIED, reason="no common fixed point")
    if small > 1:
        return CuspClass(CuspKind.UNCLASSIFIED, reason="degenerate configuration")
    point = vt[-1]
    qval = float(np.sum(null_form * point * point))
    if abs(qval) > tol:
        return CuspClass(CuspKind.UNCLASSIFIED, reason="common point not at infinity")
    if hp and np.max(np.abs(point[:-1])) <= tol:
        return CuspClass(CuspKind.UNCLASSIFIED, reason="common point only at the degenerate end")
    return CuspClass(CuspKind.CUSP)


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
    if group not in _OPPOSITE:
        raise ValueError(f"unknown group {group!r}")
    params, _, _, classify_at = _problem(geometry, group, data)
    return classify_at(params, tol)


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
    the two maps, and classify_at(x, tol) -> CuspClass.
    """
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

    def same(x, w, i, j, tol):
        if not normal[i]:
            return np.max(np.abs(w[i] - w[j])) <= tol
        # hp: also the translations c X, each c stored after its X
        return coincident(w[i], w[j], tol) and (not hp or np.max(np.abs(
            x[walls[i] + dim] * w[i] - x[walls[j] + dim] * w[j])) <= tol)

    def position(w, i, j, tol):
        if not normal[i]:
            return _HP_POINTS_POSITION[classify_hp_dual_points(w[i], w[j], tol)]
        if geometry == "ads":
            return classify_pair_ads(w[i], w[j], tol)
        return classify_pair_hyp(w[i], w[j], tol)

    def classify_at(x, tol):
        mu = np.max(np.abs(x[translations]), initial=1.0)
        if mu > 1:
            x = x.copy()
            x[translations] /= mu
        for (i, j), b in zip(adjacent, F(x)[rows]):
            if abs(b) > tol:
                raise PatternViolation(f"generators {i} and {j} must commute"
                                       + ("" if hp else f"; b = {b:.3g}"))
        w = x[blocks]
        for i, j in opposite:
            if same(x, w, i, j, tol):
                return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
        if group == "rect":
            return _rect_class(geometry, [position(w, i, j, tol) for i, j in opposite])
        cube_rows = np.hstack([sig * w, on_dual]) if hp else sig * w
        return _cube_class(cube_rows, null_form, tol, hp)

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
    """
    base_class = classify(geometry, group, base, tol_class)
    if base_class.kind not in (CuspKind.CUSP, CuspKind.COLLAPSED):
        raise ValueError(f"base configuration classifies as {base_class.name}, need a cusp")
    params, F, J, classify_at = _problem(geometry, group, base)
    counts = {}
    records = []
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        x0 = params + rng.uniform(-noise, noise, size=len(params))
        try:
            x, iters, res = gauss_newton(F, J, x0, None, MAX_ITER, TOL_RES)
            klass = classify_at(x, tol_class).name
        except NoConvergence:
            klass, res, iters = "no_convergence", float("nan"), MAX_ITER
        counts[klass] = counts.get(klass, 0) + 1
        records.append(TrialRecord(k, klass, res, iters))
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
