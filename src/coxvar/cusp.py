"""Cusp-group classification and perturbation experiments.

A representation of the rectangle group (dimension 3) or the cube group
(dimension 4) by reflections is a cusp group when the fixed hyperplanes
are distinct and share a point at infinity, and a collapsed cusp group
when one opposite pair of generators shares its reflection.  One
pattern pass serves every geometry and group: it checks the reflection
kinds of each opposite pair (half-pipe), that every adjacent pair
commutes, and returns COLLAPSED for the first coinciding opposite pair.
What is left reads positions.  For the cube the shared ideal point is
detected linearly: a common b-orthogonal null vector of the six normals
(in half-pipe geometry, a common boundary point of the dual data),
which avoids accumulating pairwise tolerance errors.  For the rectangle
the classification is by the two opposite-pair positions, read in the
terms of H^n for hyperbolic and half-pipe data.

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
                       classify_pair_hyp, coincident, eval_bilinear, eval_form)
from .halfpipe import (DegenerateReflection, HPPointsClass, NonDegenerateReflection,
                       classify_hp_dual_points, hp_commute, reflection_span_coefficient,
                       rho_lambda)
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


def _pattern(geometry, group, data, tol):
    """Check the commutation pattern; COLLAPSED at the first coinciding opposite pair.

    hp: each opposite pair holds two reflections of one kind (for the
    rectangle, one non-degenerate and one degenerate pair), then every
    adjacent pair must commute as isometries; hyp/ads: every adjacent
    pair of normals must be orthogonal.  Returns the COLLAPSED class or
    None.
    """
    opposite = _OPPOSITE[group]
    if geometry == "hp":
        kinds = [type(r) for r in data]
        mixed = [(i, j) for i, j in opposite if kinds[i] is not kinds[j]]
        if group == "rect" and (mixed or kinds[0] is kinds[1]):
            raise PatternViolation("opposite pairs must be one non-degenerate and one degenerate")
        if mixed:
            raise PatternViolation(f"opposite pair {mixed[0]} mixes reflection kinds")
        isos = [r.isometry() for r in data]
        for i, j in _ADJACENT[group]:
            if not hp_commute(isos[i], isos[j], tol):
                raise PatternViolation(f"generators {i} and {j} must commute")

        def same(i, j):
            a, b = data[i], data[j]
            if isinstance(a, NonDegenerateReflection):
                return np.max(np.abs(np.asarray(a.p, dtype=float)
                                     - np.asarray(b.p, dtype=float))) <= tol
            return (coincident(np.asarray(a.X, dtype=float), np.asarray(b.X, dtype=float), tol)
                    and isos[i].max_difference(isos[j]) <= tol)
    else:
        vectors = [np.asarray(v, dtype=float) for v in data]
        space = QuadraticSpace.for_geometry(geometry, len(vectors[0]) - 1)
        for i, j in _ADJACENT[group]:
            b = float(eval_bilinear(space, vectors[i], vectors[j]))
            if abs(b) > tol:
                raise PatternViolation(f"generators {i} and {j} must commute; b = {b:.3g}")

        def same(i, j):
            return coincident(vectors[i], vectors[j], tol)
    for i, j in opposite:
        if same(i, j):
            return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
    return None


def _position(geometry, a, b, tol):
    """Position of two walls of one kind: an AdS pair class, else in the terms of H^n."""
    if geometry == "ads":
        return classify_pair_ads(np.asarray(a, dtype=float), np.asarray(b, dtype=float), tol)
    if isinstance(a, NonDegenerateReflection):
        return _HP_POINTS_POSITION[classify_hp_dual_points(
            np.asarray(a.p, dtype=float), np.asarray(b.p, dtype=float), tol)]
    if geometry == "hp":
        a, b = a.X, b.X
    return classify_pair_hyp(np.asarray(a, dtype=float), np.asarray(b, dtype=float), tol)


def classify_rect(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a rectangle-group configuration near a (collapsed) cusp.

    ``data`` lists the four reflection data in cyclic order (adjacent
    entries commute): normal vectors for hyp/ads, HPReflection objects
    for hp.  Opposite pairs are (0, 2) and (1, 3).
    """
    collapsed = _pattern(geometry, "rect", data, tol)
    if collapsed is not None:
        return collapsed
    opposite = _OPPOSITE["rect"]
    classes = [_position(geometry, data[i], data[j], tol) for i, j in opposite]
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


def classify_cube(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a cube-group configuration near a (collapsed) cusp.

    ``data`` lists six reflection data with opposite pairs (0,3), (1,4),
    (2,5); all other pairs must commute.  The shared ideal point is
    found as the common solution of six linear conditions, then tested
    for nullity.
    """
    collapsed = _pattern(geometry, "cube", data, tol)
    if collapsed is not None:
        return collapsed
    if geometry == "hp":
        # (y, y_n) lies on the wall over H_X iff b_1(X, y) = 0, and on the
        # wall dual to p iff b_1(p, y) + y_n = 0
        walls = [(r.X, 0.0) if isinstance(r, DegenerateReflection) else (r.p, 1.0)
                 for r in data]
        form = np.array([-1.0] + [1.0] * (len(walls[0][0]) - 1))  # b_1 on R^{1,n-1}
        rows = np.array([np.concatenate([form * np.asarray(w, dtype=float), [c]])
                         for w, c in walls])
        null_form = np.concatenate([form, [0.0]])
    else:
        vectors = [np.asarray(v, dtype=float) for v in data]
        space = QuadraticSpace.for_geometry(geometry, len(vectors[0]) - 1)
        null_form = np.array(space.signature, dtype=float)
        rows = np.array([null_form * v for v in vectors])
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
    if geometry == "hp" and np.max(np.abs(point[:-1])) <= tol:
        return CuspClass(CuspKind.UNCLASSIFIED, reason="common point only at the degenerate end")
    return CuspClass(CuspKind.CUSP)


def classify(geometry, group, data, tol=DEFAULT_CLASS_TOL):
    if group == "rect":
        return classify_rect(geometry, data, tol)
    if group == "cube":
        return classify_cube(geometry, data, tol)
    raise ValueError(f"unknown group {group!r}")


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
    """Unknowns and constraint maps of the configurations near ``base``.

    hyp/ads: one block per normal; the rows are the norm + commutation
    system of the group, each norm target the sign of q on the base
    normal, so every perturbation is projected onto the variety of the
    base.  hp: per degenerate slot the normal X and the coefficient c of
    its translation c X, per non-degenerate slot the dual point p; the
    rows are q_1(X) = 1, b_1(X_i, X_j) = 0 for adjacent degenerate pairs
    and b_1(X_j, 2 p_k) = c_j for adjacent degenerate/non-degenerate
    pairs ((r_X, cX) and (-id, 2p) commute iff (id - r_X)(2p) = 2 c X).
    Returns (params, F, J, unpack): the base packed into unknowns, the
    two maps, and unpack(x) -> reflection data as ``classify`` takes it.
    """
    if geometry in ("hyp", "ads"):
        racg = gamma_rect() if group == "rect" else gamma_cube()
        vectors = [np.asarray(v, dtype=float) for v in base]
        dim = len(vectors[0])
        space = QuadraticSpace.for_geometry(geometry, dim - 1)
        targets = {n: 1 if eval_form(space, v) > 0 else -1
                   for n, v in zip(racg.generators, vectors)}
        system = build_constraints(racg, targets)
        start = {n: k * dim for k, n in enumerate(racg.generators)}
        F, J = system.maps(space.signature, start)
        return np.concatenate(vectors), F, J, lambda x: np.split(x, len(vectors))
    params = []
    start = {}
    deg = []
    for k, r in enumerate(base):
        start[str(k)] = len(params)
        vec = np.asarray(r.X if isinstance(r, DegenerateReflection) else r.p, dtype=float)
        params.extend(vec)
        if isinstance(r, DegenerateReflection):
            start[f"c{k}"] = len(params)
            params.append(float(reflection_span_coefficient(r)))
            deg.append(k)
    cons = [Pair(str(k), str(k), 1) for k in deg]
    for i, j in _ADJACENT[group]:
        if i in deg and j in deg:
            cons.append(Pair(str(i), str(j), 0))
        else:
            x, p = (i, j) if i in deg else (j, i)
            cons.append(Pair(str(x), str(p), 0, scale=2, linear=f"c{x}"))
    dim = len(vec)
    F, J = ConstraintSystem(tuple(cons)).maps(QuadraticSpace.minkowski(dim).signature, start)

    def unpack(x):
        out = []
        for k in range(len(base)):
            block = x[start[str(k)]:start[str(k)] + dim]
            out.append(DegenerateReflection(block, x[start[f"c{k}"]] * block) if k in deg
                       else NonDegenerateReflection(block))
        return out

    return np.array(params), F, J, unpack


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
    params, F, J, unpack = _problem(geometry, group, base)
    counts = {}
    records = []
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        x0 = params + rng.uniform(-noise, noise, size=len(params))
        try:
            x, iters, res = gauss_newton(F, J, x0, None, MAX_ITER, TOL_RES)
            klass = classify(geometry, group, unpack(x), tol_class).name
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
