"""Cusp-group classification and perturbation experiments.

A representation of the rectangle group (dimension 3) or the cube group
(dimension 4) by reflections is a cusp group when the fixed hyperplanes
are distinct and share a point at infinity, and a collapsed cusp group
when one opposite pair of generators shares its reflection.  For the
cube the shared ideal point is detected linearly: a common b-orthogonal
null vector of the six normals (in half-pipe geometry, a common
boundary point of the dual data), which avoids accumulating pairwise
tolerance errors.  For the rectangle the classification is by the two
opposite-pair positions.

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
from .geometry import (MixedTypePair, PairClassAdS, PairClassHyp, QuadraticSpace,
                       classify_pair_ads, classify_pair_hyp, coincident, eval_bilinear,
                       eval_form)
from .halfpipe import (DegenerateReflection, HPPointsClass, NonDegenerateReflection,
                       classify_hp_dual_points, hp_commute, reflection_span_coefficient)
from .repvar import ConstraintSystem, NoConvergence, Pair, build_constraints, gauss_newton

DEFAULT_CLASS_TOL = 1e-7


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


_RECT_OPPOSITE = ((0, 2), (1, 3))
_RECT_ADJACENT = ((0, 1), (1, 2), (2, 3), (0, 3))
_CUBE_OPPOSITE = ((0, 3), (1, 4), (2, 5))
_CUBE_ADJACENT = tuple((i, j) for i in range(6) for j in range(i + 1, 6)
                       if (i, j) not in ((0, 3), (1, 4), (2, 5)))


def _check_pattern_vectors(space, vectors, adjacent, tol):
    for i, j in adjacent:
        b = float(eval_bilinear(space, vectors[i], vectors[j]))
        if abs(b) > tol:
            raise PatternViolation(f"generators {i} and {j} must commute; b = {b:.3g}")


def classify_rect(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a rectangle-group configuration near a (collapsed) cusp.

    ``data`` lists the four reflection data in cyclic order (adjacent
    entries commute): normal vectors for hyp/ads, HPReflection objects
    for hp.  Opposite pairs are (0, 2) and (1, 3).
    """
    if geometry == "hp":
        return _classify_rect_hp(data, tol)
    vectors = [np.asarray(v, dtype=float) for v in data]
    n = len(vectors[0]) - 1
    space = QuadraticSpace.hyperbolic(n) if geometry == "hyp" else QuadraticSpace.anti_de_sitter(n)
    _check_pattern_vectors(space, vectors, _RECT_ADJACENT, tol)
    for i, j in _RECT_OPPOSITE:
        if coincident(vectors[i], vectors[j], tol):
            return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
    if geometry == "hyp":
        classes = [classify_pair_hyp(vectors[i], vectors[j], tol) for i, j in _RECT_OPPOSITE]
        if all(c == PairClassHyp.TANGENT_AT_INFINITY for c in classes):
            return CuspClass(CuspKind.CUSP)
        kinds = set(classes)
        if kinds == {PairClassHyp.INTERSECTING, PairClassHyp.DISJOINT}:
            inter = _RECT_OPPOSITE[classes.index(PairClassHyp.INTERSECTING)]
            disj = _RECT_OPPOSITE[classes.index(PairClassHyp.DISJOINT)]
            return CuspClass(CuspKind.RECT_SPLIT, intersecting_pair=inter, disjoint_pair=disj)
        return CuspClass(CuspKind.UNCLASSIFIED,
                         reason=f"opposite pair classes {classes[0].value}, {classes[1].value}")
    # AdS: one opposite pair spacelike, the other timelike
    qs = [float(eval_form(space, v)) for v in vectors]
    pair_type = {}
    for i, j in _RECT_OPPOSITE:
        if abs(qs[i] + 1) <= tol and abs(qs[j] + 1) <= tol:
            pair_type[(i, j)] = "spacelike"
        elif abs(qs[i] - 1) <= tol and abs(qs[j] - 1) <= tol:
            pair_type[(i, j)] = "timelike"
        else:
            raise MixedTypePair(f"opposite pair ({i}, {j}) mixes hyperplane types")
    if set(pair_type.values()) != {"spacelike", "timelike"}:
        raise PatternViolation("an AdS rectangle needs one spacelike and one timelike pair")
    sp_pair = next(p for p, t in pair_type.items() if t == "spacelike")
    tl_pair = next(p for p, t in pair_type.items() if t == "timelike")
    sp = classify_pair_ads(vectors[sp_pair[0]], vectors[sp_pair[1]], tol)
    tl = classify_pair_ads(vectors[tl_pair[0]], vectors[tl_pair[1]], tol)
    if sp == PairClassAdS.TANGENT_AT_INFINITY and tl == PairClassAdS.LIGHTLIKE_INTERSECTION:
        return CuspClass(CuspKind.CUSP)
    if sp == PairClassAdS.DISJOINT and tl == PairClassAdS.TIMELIKE_INTERSECTION:
        return CuspClass(CuspKind.ADS_RECT_TIMELIKE_MEET)
    if sp == PairClassAdS.INTERSECTING and tl == PairClassAdS.SPACELIKE_INTERSECTION:
        return CuspClass(CuspKind.ADS_RECT_SPACELIKE_MEET)
    return CuspClass(CuspKind.UNCLASSIFIED, reason=f"pair classes {sp.value}, {tl.value}")


def _split_rect_hp(data):
    nondeg = [i for i, r in enumerate(data) if isinstance(r, NonDegenerateReflection)]
    deg = [i for i, r in enumerate(data) if isinstance(r, DegenerateReflection)]
    if sorted(nondeg) not in ([0, 2], [1, 3]) or len(deg) != 2:
        raise PatternViolation("opposite pairs must be one non-degenerate and one degenerate")
    return tuple(nondeg), tuple(deg)


def _classify_rect_hp(data, tol):
    nondeg, deg = _split_rect_hp(data)
    isos = [r.isometry() for r in data]
    for i, j in _RECT_ADJACENT:
        if not hp_commute(isos[i], isos[j], tol):
            raise PatternViolation(f"generators {i} and {j} must commute")
    p1 = np.asarray(data[nondeg[0]].p, dtype=float)
    p2 = np.asarray(data[nondeg[1]].p, dtype=float)
    if np.max(np.abs(p1 - p2)) <= tol:
        return CuspClass(CuspKind.COLLAPSED, pair=nondeg)
    x1 = np.asarray(data[deg[0]].X, dtype=float)
    x2 = np.asarray(data[deg[1]].X, dtype=float)
    if coincident(x1, x2, tol) and isos[deg[0]].max_difference(isos[deg[1]]) <= tol:
        return CuspClass(CuspKind.COLLAPSED, pair=deg)
    deg_class = classify_pair_hyp(x1, x2, tol)
    pt_class = classify_hp_dual_points(p1, p2, tol)
    if deg_class == PairClassHyp.TANGENT_AT_INFINITY and pt_class == HPPointsClass.BOUNDARY_TANGENT:
        return CuspClass(CuspKind.CUSP)
    if deg_class == PairClassHyp.INTERSECTING and pt_class == HPPointsClass.DISJOINT:
        return CuspClass(CuspKind.RECT_SPLIT, intersecting_pair=deg, disjoint_pair=nondeg)
    if deg_class == PairClassHyp.DISJOINT and pt_class == HPPointsClass.INTERSECT:
        return CuspClass(CuspKind.RECT_SPLIT, intersecting_pair=nondeg, disjoint_pair=deg)
    return CuspClass(CuspKind.UNCLASSIFIED,
                     reason=f"pair classes {deg_class.value}, {pt_class.value}")


def _common_point_rows(geometry, data):
    """Linear conditions for a projective point lying on all hyperplanes."""
    if geometry in ("hyp", "ads"):
        vectors = [np.asarray(v, dtype=float) for v in data]
        n = len(vectors[0]) - 1
        space = (QuadraticSpace.hyperbolic(n) if geometry == "hyp"
                 else QuadraticSpace.anti_de_sitter(n))
        sig = np.array(space.signature, dtype=float)
        rows = np.array([sig * v for v in vectors])
        null_form = np.array(space.signature, dtype=float)
        return rows, null_form
    rows = []
    dim = None
    for r in data:
        if isinstance(r, DegenerateReflection):
            X = np.asarray(r.X, dtype=float)
            dim = len(X)
            rows.append(np.concatenate([np.array([-1.0] + [1.0] * (dim - 1)) * X, [0.0]]))
        else:
            p = np.asarray(r.p, dtype=float)
            dim = len(p)
            rows.append(np.concatenate([np.array([-1.0] + [1.0] * (dim - 1)) * p, [1.0]]))
    null_form = np.array([-1.0] + [1.0] * (dim - 1) + [0.0])
    return np.array(rows), null_form


def classify_cube(geometry, data, tol=DEFAULT_CLASS_TOL):
    """Classify a cube-group configuration near a (collapsed) cusp.

    ``data`` lists six reflection data with opposite pairs (0,3), (1,4),
    (2,5); all other pairs must commute.  The shared ideal point is
    found as the common solution of six linear conditions, then tested
    for nullity.
    """
    if geometry == "hp":
        isos = [r.isometry() for r in data]
        for i, j in _CUBE_ADJACENT:
            if not hp_commute(isos[i], isos[j], tol):
                raise PatternViolation(f"generators {i} and {j} must commute")
        for i, j in _CUBE_OPPOSITE:
            a, b = data[i], data[j]
            if isinstance(a, NonDegenerateReflection) != isinstance(b, NonDegenerateReflection):
                raise PatternViolation(f"opposite pair ({i}, {j}) mixes reflection kinds")
            if isinstance(a, NonDegenerateReflection):
                if np.max(np.abs(np.asarray(a.p, dtype=float)
                                 - np.asarray(b.p, dtype=float))) <= tol:
                    return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
            elif (coincident(np.asarray(a.X, dtype=float), np.asarray(b.X, dtype=float), tol)
                  and isos[i].max_difference(isos[j]) <= tol):
                return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
    else:
        vectors = [np.asarray(v, dtype=float) for v in data]
        n = len(vectors[0]) - 1
        space = (QuadraticSpace.hyperbolic(n) if geometry == "hyp"
                 else QuadraticSpace.anti_de_sitter(n))
        _check_pattern_vectors(space, vectors, _CUBE_ADJACENT, tol)
        for i, j in _CUBE_OPPOSITE:
            if coincident(vectors[i], vectors[j], tol):
                return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
    rows, null_form = _common_point_rows(geometry, data)
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


# adjacency of the generator slots, used by the half-pipe projection
_HP_ADJ = {"rect": _RECT_ADJACENT, "cube": _CUBE_ADJACENT}


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
        space = (QuadraticSpace.hyperbolic(dim - 1) if geometry == "hyp"
                 else QuadraticSpace.anti_de_sitter(dim - 1))
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
    for i, j in _HP_ADJ[group]:
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
                        tol_class=DEFAULT_CLASS_TOL, tol_res=1e-12, max_iter=50):
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
            x, iters, res = gauss_newton(F, J, x0, None, max_iter, tol_res)
            klass = classify(geometry, group, unpack(x), tol_class).name
        except NoConvergence:
            klass, res, iters = "no_convergence", float("nan"), max_iter
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


def base_cube(geometry, t=0.4, subset_index=0, lam=1):
    """A cube cusp group from the standard family (or rho_lambda for hp)."""
    from .repvar import standard_lift

    if geometry == "hp":
        from .halfpipe import rho_lambda

        subset = _cusp_subset(standard_lift(t, "hyp"), subset_index)
        refl = rho_lambda(float(lam)).as_reflections()
        return [refl[n] for n in subset]
    lift = standard_lift(t, geometry)
    subset = _cusp_subset(lift, subset_index)
    return [lift.vectors[n] for n in subset]


def _cusp_subset(lift, subset_index):
    from .repvar import find_cusp_subgroups

    subsets = find_cusp_subgroups(lift)
    if not 0 <= subset_index < len(subsets):
        raise CuspError(f"no cusp subgroup number {subset_index}: "
                        f"this lift has {len(subsets)} of them")
    return subsets[subset_index]
