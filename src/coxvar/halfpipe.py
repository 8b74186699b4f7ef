"""Half-pipe geometry as a projective geometry.

HP^n is the space of spacelike affine hyperplanes of R^{1,n-1}, and its
transformations act on RP^n: the affine map (A, v) of R^{1,n-1}, with A
preserving J = diag(-1, 1, ..., 1), acts on hyperplane coordinates
(x_hat, x_n) by the matrix [[A, 0], [-v^T J A, 1]].  Every half-pipe
reflection is the projective reflection geometry.reflection(P, beta) of
a pole P and a form beta, the one builder that also makes the hyperbolic
and AdS reflections; a projective matrix is fixed only up to sign.

Reflections come in two kinds: the unique reflection (-id, 2p) fixing
the non-degenerate hyperplane dual to a point p, which is
-R(e_n, (J p, 1)), and a one-parameter family (r_X, c X) fixing the
degenerate hyperplane over a hyperplane H_X of H^{n-1}, which is
R((X, -c/2), (J X, 0)) for a unit spacelike X.  The explicit
representations rho_lambda of the 22-generator group deform only the
translation part; at lambda = 0 they reduce to the collapsed
representation shared with the hyperbolic and AdS paths.

A representation is one (22, 5, 5) stack of projective matrices, a
member per generator, built from one table of normals v and coefficients
c that tau_lambda and the float reflections of cusp classification read
too.  Exact lambda gives PairMatrix matrices; everything that classifies
reflections runs on floats with a tolerance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coxeter import cuboctahedron_vectors
from .geometry import (DEFAULT_TOL, GeometryError, QuadraticSpace, classify_pair,
                       classify_pair_hyp, eval_form, reflection, reflection_matrix)
from .linalg_exact import PairMatrix, is_exact
from .records import Record


def _with_last(x, last):
    """x (..., n) with one more coordinate ``last`` (a number, or one per
    vector) at the end of its last axis, on x's backend."""
    if not isinstance(last, (PairMatrix, np.ndarray)):
        last = np.full(x.shape[:-1], last)
    cat = PairMatrix.concat if is_exact(x) else np.concatenate
    return cat([x, last[..., None]], axis=-1)


def _dual(x):
    """J x: the vector of the form b_1(x, .) on R^{1,n-1}."""
    return x * np.array(QuadraticSpace.minkowski(x.shape[-1]).signature)


def _dual_point(p):
    """Pole e_n and form (J p, 1): minus their reflection is (-id, 2p)."""
    zeros = PairMatrix.zeros(p.shape) if is_exact(p) else np.zeros(p.shape, dtype=int)
    return _with_last(zeros, 1), _with_last(_dual(p), 1)


def _wall(X, c):
    """Pole (X, -c/2) and form (J X, 0): their reflection is (r_X, c X) for
    a unit spacelike X."""
    return _with_last(X, -c / 2), _with_last(_dual(X), 0)


def classify_hp_dual_points(p, q, tol=DEFAULT_TOL):
    """Relative position of the hyperplanes dual to points p, q of R^{1,n-1}.

    They intersect iff p - q is spacelike, are tangent at the boundary
    iff lightlike (including p = q), and have disjoint closures iff
    timelike (geometry.pair_positions on one pair).
    """
    return classify_pair("hp", p, q, tol)


# -- reflections -------------------------------------------------------------

class NonDegenerateReflection(Record):
    """The unique HP reflection fixing the hyperplane dual to p: (-id, 2p)."""

    __slots__ = _fields = ("p",)

    def __init__(self, p):
        self._set(p=p)

    def matrix(self):
        """The projective matrix, as floats."""
        return -reflection(*_dual_point(np.asarray(self.p, dtype=float)))


class DegenerateReflection(Record):
    """An HP reflection (r_X, v) fixing the degenerate hyperplane over H_X.

    X must be unit spacelike and v parallel to X; each v gives a
    different reflection with the same fixed hyperplane.  Float data:
    X and v are read as float arrays.
    """

    __slots__ = _fields = ("X", "v")

    def __init__(self, X, v):
        Xf, vf = np.asarray(X, dtype=float), np.asarray(v, dtype=float)
        if abs(eval_form(QuadraticSpace.minkowski(len(Xf)), Xf) - 1) > 1e-7:
            raise ValueError("degenerate reflection requires q_1(X) = 1")
        # the span check on v scaled into [-1, 1]: X @ v overflows for v near
        # the top of the float range
        u = vf / max(1.0, np.abs(vf).max())
        lam = float(Xf @ u) / float(Xf @ Xf)
        if np.max(np.abs(u - lam * Xf)) > 1e-7:
            raise ValueError("v must lie in span(X)")
        self._set(X=X, v=v)

    def matrix(self):
        """The projective matrix, as floats."""
        return reflection(*_wall(np.asarray(self.X, dtype=float),
                                 reflection_span_coefficient(self)))


def reflection_span_coefficient(refl):
    """The c with v = c X of a degenerate reflection."""
    for xi, vi in zip(refl.X, refl.v):
        if abs(xi) > 1e-12:
            return vi / xi
    raise ValueError("zero normal vector")


class HPPairReport(NamedTuple):
    """Relative position of two HP reflections, by kind of pair."""

    kind: str  # "degenerate", "nondegenerate", or "mixed"
    position: object = None  # PairClassHyp / HPPointsClass / None
    commuting: object = None


def classify_hp_reflection_pair(r1, r2, tol=DEFAULT_TOL):
    """Position report for two HP reflections.

    Two degenerate reflections are compared through their projections
    to H^{n-1}; two non-degenerate ones through their dual points; a
    mixed pair only carries a commutation status.  The pair commutes
    when its matrices R1 R2 and R2 R1 agree entrywise within tol.
    """
    deg1 = isinstance(r1, DegenerateReflection)
    deg2 = isinstance(r2, DegenerateReflection)
    if deg1 and deg2:
        kind = "degenerate"
        try:
            pos = classify_pair_hyp(r1.X, r2.X, tol)
        except GeometryError:
            pos = None
    elif not deg1 and not deg2:
        kind, pos = "nondegenerate", classify_hp_dual_points(r1.p, r2.p, tol)
    else:
        kind, pos = "mixed", None
    a, b = r1.matrix(), r2.matrix()
    return HPPairReport(kind, pos, bool(np.max(np.abs(a @ b - b @ a)) <= tol))


# -- the explicit half-pipe representations ----------------------------------

def _table(lam):
    """The data of rho_lambda, a row per generator in GAMMA22_NAMES order.

    Returns (c, v, tau): the cuboctahedron normals v (v_i on both i+ and
    i-), the coefficients c_s = (-1)^i lam on i+ and i- and 0 on the
    letters, and the translations tau_lambda(s) = c_s v_s.  Exact
    (PairMatrix) for exact lam, else float; the letters' translations are
    zero rows, with none of the signed zeros of a float 0 * v.
    """
    exact = is_exact(lam)
    normals = cuboctahedron_vectors()
    if not exact:
        normals = np.asarray(normals, dtype=float)
    cat = PairMatrix.concat if exact else np.concatenate
    v = cat([normals[:8], normals])
    c = (PairMatrix.of(lam) if exact else float(lam)) * np.array([(-1) ** i for i in range(8)] * 2)
    tau = cat([c[:, None] * v[:16], np.zeros((6, 4), dtype=int)])
    return cat([c, np.zeros(6, dtype=int)]), v, tau


def rho_lambda(lam):
    """The half-pipe representations rho_lambda = (rho_0, tau_lambda).

    The (22, 5, 5) stack of projective reflections, a member per
    generator in GAMMA22_NAMES order: -R(e_5, (J p, 1)) with
    p = tau_lambda(i+)/2 on each positive generator (the pair (-id, 2p)),
    and R((v, -c/2), (J v, 0)) on the others (the pair (r_v, c v)), from
    _table.  Exact over Q(sqrt 2), as a PairMatrix, for exact lam.
    """
    c, v, tau = _table(lam)
    cat = PairMatrix.concat if is_exact(lam) else np.concatenate
    (p0, f0), (p1, f1) = _dual_point(tau[:8] / 2), _wall(v[8:], c[8:])
    return reflection(cat([p0, p1]), cat([f0, f1])) * np.array([-1] * 8 + [1] * 14)[:, None, None]


def _reflection_axis(lin):
    """Unit spacelike X with lin = r_X (float).

    id - r_X = 2 X (JX)^T / q(X) has rank one, so every nonzero column
    is proportional to X; normalisation then uses the Minkowski norm.
    """
    n = lin.shape[0]
    diff = np.eye(n) - lin
    col = int(np.argmax(np.linalg.norm(diff, axis=0)))
    X = diff[:, col]
    q = float(eval_form(QuadraticSpace.minkowski(n), X))
    if q <= 0:
        raise ValueError("reflection axis is not spacelike")
    return X / np.sqrt(q)


def rho_lambda_reflections(lam):
    """rho_lambda's members as float HP reflections in GAMMA22_NAMES order,
    for cusp classification.

    NonDegenerateReflection(tau/2) on the positive generators; on the
    others DegenerateReflection(X, tau) with X the unit axis read off the
    Minkowski reflection in v (the axis of a reflection needs a square
    root, which Q(sqrt 2) does not always have).
    """
    _, v, tau = _table(float(lam))
    axes = map(_reflection_axis, reflection_matrix(QuadraticSpace.minkowski(4), v[8:]))
    return ([NonDegenerateReflection(t * 0.5) for t in tau[:8]]
            + [DegenerateReflection(X, t) for X, t in zip(axes, tau[8:])])
