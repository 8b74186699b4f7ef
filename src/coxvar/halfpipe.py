"""Half-pipe geometry through its Minkowski duality.

HP^n is the space of spacelike affine hyperplanes of R^{1,n-1}, and its
transformation group is O(1,n-1) x| R^{1,n-1} acting on those
hyperplanes.  We therefore store half-pipe transformations as pairs
(A, v) -- a Lorentz matrix and a translation -- and convert to 5x5
projective matrices only at the boundary, via the homomorphism

    phi(A, v) = [[A, 0], [-v^T J A, 1]],   J = diag(-1, 1, ..., 1).

Reflections come in two kinds: the unique reflection (-id, 2p) fixing
the non-degenerate hyperplane dual to a point p, and a one-parameter
family (r_X, v), v in span(X), fixing the degenerate hyperplane over a
hyperplane H_X of H^{n-1}.  The explicit representations rho_lambda of
the 22-generator group deform only the translation part; at lambda = 0
they reduce to the collapsed representation shared with the hyperbolic
and AdS paths.

A representation is one MinkowskiIsometry stack: a (22, 4, 4) linear
part and a (22, 4) translation, a row per generator, which phi maps to
the (22, 5, 5) stack of projective matrices in one step.  Exact
transformations (rho_lambda for exact lambda) hold PairMatrix parts and
map to PairMatrix projective matrices; everything that classifies
reflections runs on floats with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import cuboctahedron_vectors
from .geometry import (DEFAULT_TOL, GeometryError, QuadraticSpace, classify_pair,
                       classify_pair_hyp, eval_form, reflection_matrix)
from .linalg_exact import PairMatrix, identity_like, is_exact


class HalfPipeError(Exception):
    pass


class NotFormPreserving(HalfPipeError):
    pass


@dataclass(frozen=True)
class MinkowskiIsometry:
    """Pair (A, v): x -> A x + v with A preserving the Minkowski form.

    A and v are float arrays, or PairMatrix for an exact isometry.  With a
    (N, n, n) A and a (N, n) v it is a stack of N isometries, one per row.
    """

    linear: np.ndarray
    translation: np.ndarray

    @property
    def dim(self):
        return self.linear.shape[-1]

    @property
    def exact(self):
        return is_exact(self.linear)

    def __matmul__(self, other):
        """(A1, v1) o (A2, v2) = (A1 A2, A1 v2 + v1)."""
        return MinkowskiIsometry(self.linear @ other.linear,
                                 self.linear @ other.translation + self.translation)

    def is_form_preserving(self):
        """Does every linear part satisfy A^T J A = J?  One stacked product: exact
        parts exactly, float parts entrywise within DEFAULT_TOL * max(1, max|A|^2)."""
        J = QuadraticSpace.minkowski(self.dim).form_matrix()
        diff = self.linear.swapaxes(-1, -2) @ J @ self.linear - J
        if self.exact:
            return diff.is_zero()
        diff = np.max(np.abs(diff), axis=(-2, -1))
        # A^T J A accumulates error like |A|^2 eps: compare each member at that scale
        scale = np.maximum(1.0, np.max(np.abs(self.linear), axis=(-2, -1)) ** 2)
        return bool(np.all(diff <= DEFAULT_TOL * scale))

    def max_difference(self, other):
        """Largest |entry| of the difference of two float isometries."""
        return float(max(np.max(np.abs(self.linear - other.linear)),
                         np.max(np.abs(self.translation - other.translation))))

    def as_reflections(self):
        """The members as float HP reflections in row order, for cusp classification.

        Exact parts are read through their float view; the axis of a
        degenerate reflection needs a square root, which Q(sqrt 2) does
        not always have.
        """
        lin = np.asarray(self.linear, dtype=float)
        v = np.asarray(self.translation, dtype=float)
        minus_id = np.max(np.abs(lin + np.eye(self.dim)), axis=(-2, -1)) < 1e-9
        return [NonDegenerateReflection(t * 0.5) if m
                else DegenerateReflection(_reflection_axis(a), t)
                for a, t, m in zip(lin, v, minus_id)]


def phi_to_projective(iso):
    """The duality isomorphism into the projective half-pipe group.

    phi is a group homomorphism: the dual action on the hyperplane
    coordinates (x_hat, x_n) is x_hat -> A x_hat, x_n -> x_n - v^T J A x_hat.
    A stack of isometries maps to the stack of their matrices; one that
    fails is_form_preserving raises NotFormPreserving.
    """
    if not iso.is_form_preserving():
        raise NotFormPreserving("linear part does not preserve the Minkowski form")
    n = iso.dim
    lead = iso.linear.shape[:-2]
    row = -(iso.translation[..., None, :] @ QuadraticSpace.minkowski(n).form_matrix()
            @ iso.linear)
    cat, dtype = (PairMatrix.concat, int) if iso.exact else (np.concatenate, float)
    return cat([cat([iso.linear, np.zeros(lead + (n, 1), dtype=dtype)], axis=-1),
                cat([row, np.ones(lead + (1, 1), dtype=dtype)], axis=-1)], axis=-2)


def hp_commute(a, b, tol=DEFAULT_TOL):
    """Do two float Minkowski isometries commute (as half-pipe transformations)?"""
    return (a @ b).max_difference(b @ a) <= tol


def classify_hp_dual_points(p, q, tol=DEFAULT_TOL):
    """Relative position of the hyperplanes dual to points p, q of R^{1,n-1}.

    They intersect iff p - q is spacelike, are tangent at the boundary
    iff lightlike (including p = q), and have disjoint closures iff
    timelike (geometry.pair_positions on one pair).
    """
    return classify_pair("hp", p, q, tol)


# -- reflections -------------------------------------------------------------

@dataclass(frozen=True)
class NonDegenerateReflection:
    """The unique HP reflection fixing the hyperplane dual to p: (-id, 2p)."""

    p: np.ndarray

    def isometry(self):
        p = self.p if is_exact(self.p) else np.asarray(self.p, dtype=float)
        return MinkowskiIsometry(-identity_like(p), p * 2)


@dataclass(frozen=True)
class DegenerateReflection:
    """An HP reflection (r_X, v) fixing the degenerate hyperplane over H_X.

    X must be unit spacelike and v parallel to X; each v gives a
    different reflection with the same fixed hyperplane.  Float data:
    X and v are read as float arrays.
    """

    X: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if abs(eval_form(QuadraticSpace.minkowski(len(X)), X) - 1) > 1e-7:
            raise ValueError("degenerate reflection requires q_1(X) = 1")
        lam = float(X @ v) / float(X @ X)
        if np.max(np.abs(v - lam * X)) > 1e-7 * max(1.0, np.abs(v).max()):
            raise ValueError("v must lie in span(X)")

    def isometry(self):
        X = np.asarray(self.X, dtype=float)
        return MinkowskiIsometry(reflection_matrix(QuadraticSpace.minkowski(len(X)), X),
                                 np.asarray(self.v, dtype=float))


def reflection_span_coefficient(refl):
    """The c with v = c X of a degenerate reflection."""
    for xi, vi in zip(refl.X, refl.v):
        if abs(xi) > 1e-12:
            return vi / xi
    raise ValueError("zero normal vector")


@dataclass(frozen=True)
class HPPairReport:
    """Relative position of two HP reflections, by kind of pair."""

    kind: str  # "degenerate", "nondegenerate", or "mixed"
    position: object = None  # PairClassHyp / HPPointsClass / None
    commuting: object = None


def classify_hp_reflection_pair(r1, r2, tol=DEFAULT_TOL):
    """Position report for two HP reflections.

    Two degenerate reflections are compared through their projections
    to H^{n-1}; two non-degenerate ones through their dual points; a
    mixed pair only carries a commutation status.
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
    return HPPairReport(kind, pos, hp_commute(r1.isometry(), r2.isometry(), tol))


# -- the explicit half-pipe representations ----------------------------------

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


def rho_lambda(lam):
    """The half-pipe representations rho_lambda = (rho_0, tau_lambda).

    One MinkowskiIsometry stack with a row per generator, in GAMMA22_NAMES
    order.  The linear part sends each positive generator to -id and each
    other generator to the Minkowski reflection in its cuboctahedron
    normal; the translation part is tau(i+) = tau(i-) = (-1)^i lam v_i and
    zero on the letters.  Exact over Q(sqrt 2), as PairMatrix parts, for
    exact lam.
    """
    # the 8 triangle normals, then the 6 quads: one stack of reflections
    normals = cuboctahedron_vectors()
    signs = np.array([(-1) ** i for i in range(8)])
    exact = is_exact(lam)
    if not exact:
        normals = np.asarray(normals, dtype=float)
    refls = reflection_matrix(QuadraticSpace.minkowski(4), normals)
    taus = ((PairMatrix.of(lam) if exact else float(lam)) * signs)[:, None] * normals[:8]
    minus_id = np.broadcast_to(-np.eye(4, dtype=int), (8, 4, 4))
    cat = PairMatrix.concat if exact else np.concatenate
    # rows 0+..7+, then 0-..7- and A..F: the order of GAMMA22_NAMES
    return MinkowskiIsometry(cat([minus_id, refls]),
                             cat([taus, taus, np.zeros((6, 4), dtype=int)]))
