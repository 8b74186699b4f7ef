"""Cusp-group classification and perturbation experiments.

A representation of the rectangle group (dimension 3) or the cube group
(dimension 4) by reflections is a cusp group when the fixed hyperplanes
are distinct and share a point at infinity, and a collapsed cusp group
when one opposite pair of generators shares its reflection.

Inside this module a configuration has one representation: the packed
unknown vector of ``_problem``, the vector the perturbation trials move.
``_problem``, the one packer of all three geometries, compiles the norm +
commutation rows of the group once, and the pattern check reads them: an
adjacent pair commutes iff its row is at most the tolerance in absolute
value.  The rows keep each geometry's order (sorted pairs for hyp/ads,
cyclic for hp), because a least-squares step depends on the row order in
its last bits.  Half-pipe reflection kinds are checked when the
configuration is packed.  COLLAPSED is returned for the first coinciding
opposite pair; what is left reads positions off the blocks of the
vector.  For the cube the shared ideal point is detected linearly: a
common b-orthogonal null vector of the six normals (in
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
trials are projected and classified in stacks of TRIAL_CHUNK.  Trial k
perturbs by NumPy's ``default_rng([seed, k]).uniform`` stream, which
``_trial_noise`` computes for a whole stack at once (SeedSequence and
PCG64 by jump-ahead on integer arrays), so ``numpy.random`` is never
loaded.  In
dimension 4 every projected configuration must come back a cusp group;
in dimension 3 the rectangle group is flexible and splits into one
intersecting and one disjoint opposite pair.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import cache
from math import isfinite
from typing import NamedTuple

import numpy as np

from .geometry import (PairClassAdS, PairClassHyp, QuadraticSpace, coincident, eval_form,
                       pair_positions)
from .halfpipe import (DegenerateReflection, NonDegenerateReflection,
                       reflection_span_coefficient, rho_lambda_reflections)
from .records import Record
from .repvar import (MIN_GAP_RATIO, TOL_RES, ConstraintSystem, NonFiniteResidual, Pair,
                     find_cusp_subgroups, gauss_newton, standard_lift)

DEFAULT_CLASS_TOL = 1e-7
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


class CuspClass(Record):
    """A CuspKind, with the coinciding ``pair`` for COLLAPSED, the
    ``intersecting_pair`` and ``disjoint_pair`` for RECT_SPLIT and the
    ``reason`` for UNCLASSIFIED.  Not a tuple: classify_at stores one
    instance into many slots of an object array at once."""

    __slots__ = _fields = ("kind", "pair", "intersecting_pair", "disjoint_pair", "reason")

    def __init__(self, kind, pair=None, intersecting_pair=None, disjoint_pair=None,
                 reason=None):
        self._set(kind=kind, pair=pair, intersecting_pair=intersecting_pair,
                  disjoint_pair=disjoint_pair, reason=reason)

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


def _rect_class(classes):
    """The rectangle class of the positions of its two opposite pairs; an AdS
    pair of equal types is refused by classify_at before this table is read."""
    opposite = _OPPOSITE["rect"]
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
                     "common point only at the degenerate end",
                     "no spectral gap at the cut")))


def _cube_class(rows, null_form, tol, hp):
    """Cusp iff the walls with these rows share one point, and it is null.

    ``rows`` is a stack (T, 6, c) of wall rows; one CuspClass per entry.
    The cut stays its own, relative to ``tol``, and is not repvar's
    _rank_cut: near a cusp the last singular value is rounding noise of
    the projection, above _rank_cut's floor max(shape) * eps * sigma_max
    (in 2000 cube trials per geometry at noise 1e-3, seed 7, 3846 of
    6003 decisions had sigma_min / sigma_max above 6 eps, at most
    1.85e-13), so _rank_cut would raise IllConditioned although the gap
    is wide (sigma_5 / sigma_max >= 0.238 in the same trials).  The gap
    is checked as _rank_cut checks it: where the cut splits s, the last
    value kept must reach MIN_GAP_RATIO times the first value cut, else
    the count is meaningless and the entry is unclassified (in those
    trials, and in 1000 trials on each of 8 more seeds, every gap was at
    least 1.08e12).
    """
    u, s, vt = np.linalg.svd(rows)
    n_cut = np.sum(s <= tol * s[:, :1], axis=-1)
    small = n_cut + max(0, rows.shape[-1] - s.shape[-1])
    kept, t = s.shape[-1] - n_cut, np.arange(len(s))
    narrow = (kept > 0) & (n_cut > 0) & (
        s[t, kept - 1] < MIN_GAP_RATIO * s[t, np.minimum(kept, s.shape[-1] - 1)])
    point = vt[:, -1]
    qval = np.sum(null_form * point * point, axis=-1)
    degenerate_end = hp & (np.max(np.abs(point[:, :-1]), axis=-1) <= tol)
    code = np.select([small == 0, narrow, small > 1, np.abs(qval) > tol, degenerate_end],
                     [1, 5, 2, 3, 4])
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

class TrialRecord(NamedTuple):
    trial: int
    klass: str
    residual: float
    iterations: int


class ExperimentStats(Record):
    """The base's class name, the count of each trial class and the
    TrialRecords in trial order (a new empty list by default)."""

    __slots__ = _fields = ("base_class", "counts", "records")

    def __init__(self, base_class, counts, records=None):
        self._set(base_class=base_class, counts=counts,
                  records=[] if records is None else records)


def _problem(geometry, group, base):
    """Unknowns, constraint maps and classifier of the configurations near ``base``.

    One packer for every geometry: one loop writes each slot's vector
    into the unknowns, and one list of Pair rows makes the system.
    hyp/ads: one block per normal; the rows are the norm + commutation
    system of the group, each norm target the sign of q on the base
    normal, so every perturbation is projected onto the variety of the
    base.  hp: per degenerate slot the normal X and the coefficient c of
    its translation c X, per non-degenerate slot the dual point p; the
    rows are q_1(X) = 1 (the sign of q_1 on a unit spacelike X),
    b_1(X_i, X_j) = 0 for adjacent degenerate pairs and
    b_1(X_j, 2 p_k) = c_j for adjacent degenerate/non-degenerate pairs
    ((r_X, cX) and (-id, 2p) commute iff (id - r_X)(2p) = 2 c X).
    The commutation rows run over sorted _ADJACENT for hyp/ads (the
    order build_constraints gives the rectangle and cube groups) and
    over cyclic _ADJACENT for hp: a least-squares step depends on the
    row order in its last bits, and every recorded trial was drawn in
    these orders.
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
    normal = [not hp or isinstance(r, DegenerateReflection) for r in base]
    if hp:
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
        vec = np.asarray((r.X if normal[k] else r.p) if hp else r, dtype=float)
        params.extend(vec)
        if hp and normal[k]:
            start[f"c{k}"] = len(params)
            params.append(float(reflection_span_coefficient(r)))
    params, dim = np.array(params), len(vec)
    space = (QuadraticSpace.minkowski(dim) if hp
             else QuadraticSpace.for_geometry(geometry, dim - 1))
    walls = [start[str(k)] for k in range(len(base))]
    blocks = np.array(walls)[:, None] + np.arange(dim)
    cons = [Pair(str(k), str(k), 1 if eval_form(space, params[blocks[k]]) > 0 else -1)
            for k in range(len(base)) if normal[k]]
    order = adjacent if hp else sorted(adjacent)
    for i, j in order:
        if normal[i] and normal[j]:
            cons.append(Pair(str(i), str(j), 0))
        else:
            x, p = (i, j) if normal[i] else (j, i)
            cons.append(Pair(str(x), str(p), 0, scale=2, linear=f"c{x}"))
    rows = np.array([len(cons) - len(order) + order.index(ij) for ij in adjacent])
    system = ConstraintSystem(tuple(cons))
    F, J = system.maps(space.signature, start)
    sig = np.array(space.signature, dtype=float)
    # hp: (y, y_n) lies on the wall over H_X iff b_1(X, y) = 0, and on the
    # wall dual to p iff b_1(p, y) + y_n = 0
    null_form = np.concatenate([sig, [0.0]]) if hp else sig
    on_dual = np.array([[0.0 if n else 1.0] for n in normal])
    # every coordinate outside the normals: the hp dual points and coefficients c
    translations = np.setdiff1d(np.arange(len(params)), blocks[normal])
    # the rectangle class of each pair of position codes
    positions = tuple(PairClassAdS if geometry == "ads" else PairClassHyp)
    rect_classes = np.empty((len(positions),) * 2, dtype=object)
    rect_classes[...] = [[_rect_class([c0, c1]) for c1 in positions] for c0 in positions]

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
            if geometry == "ads":  # codes 0-2 are spacelike pairs, 3-5 timelike
                settle((sides[0] < 3) == (sides[1] < 3), PatternViolation(
                    "an AdS rectangle needs one spacelike and one timelike pair"))
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


# NumPy's SeedSequence hash constants and the PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _MASK32 = 0xca01f9dd, 0x4973f715, 0xffffffff
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645


@cache
def _pcg_jumps(n):
    """(hi, lo) words of M^(j+1) and 1 + M + ... + M^j, j = 1..n, shaped (2, 1, n)."""
    m, c, rows = _PCG_MULT, 1, []
    for _ in range(n):
        m, c = m * _PCG_MULT % 2**128, (c + m) % 2**128
        rows.append((m, c))
    words = np.array(rows, dtype=object).T[:, None, :]
    return (words >> 64).astype(np.uint64), (words & 2**64 - 1).astype(np.uint64)


def _trial_noise(seed, ks, noise, n):
    """np.random.default_rng([seed, k]).uniform(-noise, noise, n) for each k in ks, stacked.

    NumPy's SeedSequence mixing on the entropy (the 32-bit words of seed,
    then k < 2^32) and PCG64 (XSL-RR 128/64) seeding, for all ks at once;
    draw j is read off the state M^(j+1) u + (1 + ... + M^j) inc mod 2^128
    (u = inc + initial state) without stepping.  Every wrapping operation
    runs on arrays, which wrap silently.
    """
    ks = np.asarray(ks, dtype=np.uint32)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full_like(ks, w) for w in words] + [ks]
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * _MULT_A & _MASK32)
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(ks)) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for e in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(e))
    h, state = _INIT_B, []
    for i in range(8):  # generate_state(4, uint64), little-endian word pairs
        v = (pool[i % 4] ^ h) * (h := h * _MULT_B & _MASK32)
        state.append((v ^ v >> 16).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    u_lo = init_lo + inc_lo
    u_hi = init_hi + inc_hi + (u_lo < inc_lo)
    # the jumps times (u, inc) mod 2^128, the high word of lo * lo by 32-bit halves
    a_hi, a_lo = _pcg_jumps(n)
    b_hi, b_lo = np.stack([u_hi, inc_hi])[..., None], np.stack([u_lo, inc_lo])[..., None]
    al, ah, bl, bh = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    hi = ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32) + a_hi * b_lo + a_lo * b_hi
    lo = a_lo * b_lo
    lo_sum = lo[0] + lo[1]
    hi_sum = hi[0] + hi[1] + (lo_sum < lo[0])
    x, rot = hi_sum ^ lo_sum, hi_sum >> 58
    x = x >> rot | x << (64 - rot & 63)
    low = -float(noise)
    return low + (float(noise) - low) * ((x >> 11).astype(np.float64) * 2.0**-53)


def rigidity_experiment(geometry, group, base, trials, noise=1e-3, seed=0,
                        tol_class=DEFAULT_CLASS_TOL):
    """Perturb-project-classify statistics around a (collapsed) cusp.

    Each trial draws uniform per-coordinate noise in [-noise, noise]
    (NumPy's ``default_rng([seed, trial]).uniform`` stream, drawn for a
    whole stack by ``_trial_noise`` without ``numpy.random``, so the
    outcome is independent of scheduling), projects back onto the norm +
    commutation variety of the base (norm targets read off the base, see
    ``_problem``), and classifies.  Tangency conditions are not
    projected onto: whether they survive is exactly what the experiment
    measures.

    The trials run in stacks of TRIAL_CHUNK: one gauss_newton and one
    classify_at per stack, every row as it would run alone, so the
    records do not depend on the chunk size.  A trial whose projection
    is still above repvar.TOL_RES after gauss_newton's 50 steps is
    tallied as no_convergence (residual nan); an error is raised for the
    lowest trial that has one, as if the trials ran one after the other.
    """
    if not (isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    if not isfinite(noise - -noise):
        raise OverflowError("high - low range exceeds valid bounds")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials > 2**32:  # the trial number enters the seed as one 32-bit word
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    params, F, J, classify_at = _problem(geometry, group, base)
    base_class = classify_at(params[None], tol_class)[0]
    if base_class.kind not in (CuspKind.CUSP, CuspKind.COLLAPSED):
        raise ValueError(f"base configuration classifies as {base_class.name}, need a cusp")
    counts = {}
    records = []
    for first in range(0, trials, TRIAL_CHUNK):
        ks = range(first, min(first + TRIAL_CHUNK, trials))
        x0 = params + _trial_noise(seed, ks, noise, len(params))
        try:
            x, iters, res = gauss_newton(F, J, x0)
        except NonFiniteResidual as exc:
            # the trials before the failing one come first, errors included
            x, _, res = gauss_newton(F, J, x0[:exc.row])
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
    rows = [lift.names.index(n) for n in subsets[0]]
    if geometry == "hp":
        refls = rho_lambda_reflections(lam)
        return [refls[r] for r in rows]
    return list(lift.table[rows])
