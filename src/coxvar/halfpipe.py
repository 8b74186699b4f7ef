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

Exact transformations (rho_lambda for exact lambda) hold PairMatrix
parts and map to PairMatrix projective matrices; everything that
classifies reflections runs on floats with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import GAMMA22_NAMES, LETTER_NAMES, cuboctahedron_vectors
from .geometry import (DEFAULT_TOL, GeometryError, HPPointsClass, QuadraticSpace,
                       classify_pair, classify_pair_hyp, eval_form, reflection_matrix)
from .linalg_exact import PairMatrix
from .scalars import is_exact


class HalfPipeError(Exception):
    pass


class NotFormPreserving(HalfPipeError):
    pass


@dataclass(frozen=True)
class MinkowskiIsometry:
    """Pair (A, v): x -> A x + v with A preserving the Minkowski form.

    A and v are float arrays, or PairMatrix for an exact isometry.
    """

    linear: np.ndarray
    translation: np.ndarray

    @property
    def dim(self):
        return self.linear.shape[0]

    @property
    def exact(self):
        return is_exact(self.linear)

    @classmethod
    def identity(cls, dim=4):
        return cls(np.eye(dim), np.zeros(dim))

    def __matmul__(self, other):
        """(A1, v1) o (A2, v2) = (A1 A2, A1 v2 + v1)."""
        return MinkowskiIsometry(self.linear @ other.linear,
                                 self.linear @ other.translation + self.translation)

    def is_form_preserving(self, tol=DEFAULT_TOL):
        J = QuadraticSpace.minkowski(self.dim).form_matrix()
        if self.exact:
            J = PairMatrix.of(J)
            return (self.linear.T @ J @ self.linear - J).is_zero()
        diff = self.linear.T @ J @ self.linear - J
        # A^T J A accumulates error like |A|^2 eps: compare at that scale
        scale = max(1.0, float(np.max(np.abs(self.linear))) ** 2)
        return float(np.max(np.abs(diff))) <= tol * scale

    def max_difference(self, other):
        """Largest |entry| of the difference of two float isometries."""
        return float(max(np.max(np.abs(self.linear - other.linear)),
                         np.max(np.abs(self.translation - other.translation))))

    def projective_matrix(self):
        return phi_to_projective(self)


def phi_to_projective(iso, tol=DEFAULT_TOL):
    """The duality isomorphism into the projective half-pipe group.

    phi is a group homomorphism: the dual action on the hyperplane
    coordinates (x_hat, x_n) is x_hat -> A x_hat, x_n -> x_n - v^T J A x_hat.
    """
    if not iso.is_form_preserving(tol):
        raise NotFormPreserving("linear part does not preserve the Minkowski form")
    n = iso.dim
    J = QuadraticSpace.minkowski(n).form_matrix()
    if iso.exact:
        row = -(iso.translation.reshape(1, n) @ PairMatrix.of(J) @ iso.linear)
        return PairMatrix.assemble((n + 1, n + 1), [(0, 0, iso.linear), (n, 0, row),
                                                    (n, n, np.ones((1, 1), dtype=int))])
    out = np.eye(n + 1)
    out[:n, :n] = iso.linear
    out[n, :n] = -(iso.translation @ J @ iso.linear)
    return out


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
        if is_exact(self.p):
            p = PairMatrix.of(self.p)
            return MinkowskiIsometry(-PairMatrix.identity(p.size), p * 2)
        p = np.asarray(self.p, dtype=float)
        return MinkowskiIsometry(-np.eye(len(p)), 2.0 * p)


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


class HPPairReport:
    """Relative position of two HP reflections, by kind of pair."""

    def __init__(self, kind, position=None, commuting=None):
        self.kind = kind            # "degenerate", "nondegenerate", or "mixed"
        self.position = position    # PairClassHyp / HPPointsClass / None
        self.commuting = commuting

    def __repr__(self):
        return f"HPPairReport(kind={self.kind!r}, position={self.position!r}, commuting={self.commuting!r})"


def classify_hp_reflection_pair(r1, r2, tol=DEFAULT_TOL):
    """Position report for two HP reflections.

    Two degenerate reflections are compared through their projections
    to H^{n-1}; two non-degenerate ones through their dual points; a
    mixed pair only carries a commutation status.
    """
    deg1 = isinstance(r1, DegenerateReflection)
    deg2 = isinstance(r2, DegenerateReflection)
    if deg1 and deg2:
        try:
            pos = classify_pair_hyp(r1.X, r2.X, tol)
        except GeometryError:
            pos = None
        commuting = hp_commute(r1.isometry(), r2.isometry(), tol)
        return HPPairReport("degenerate", pos, commuting)
    if not deg1 and not deg2:
        pos = classify_hp_dual_points(r1.p, r2.p, tol)
        commuting = hp_commute(r1.isometry(), r2.isometry(), tol)
        return HPPairReport("nondegenerate", pos, commuting)
    commuting = hp_commute(r1.isometry(), r2.isometry(), tol)
    return HPPairReport("mixed", None, commuting)


# -- the explicit half-pipe representations ----------------------------------

@dataclass(frozen=True)
class HPRepresentation:
    """Linear and translation parts of a representation into Isom(R^{1,3})."""

    linear: dict
    translation: dict

    def isometry(self, name):
        return MinkowskiIsometry(self.linear[name], self.translation[name])

    def as_isometries(self):
        return {n: self.isometry(n) for n in self.linear}

    def as_reflections(self):
        """The generators as float HP reflections (for cusp classification).

        Exact parts are read through their float view; the axis of a
        degenerate reflection needs a square root, which Q(sqrt 2) does
        not always have.
        """
        out = {}
        for n in self.linear:
            lin = np.asarray(self.linear[n], dtype=float)
            v = np.asarray(self.translation[n], dtype=float)
            if np.max(np.abs(lin + np.eye(len(lin)))) < 1e-9:
                out[n] = NonDegenerateReflection(v * 0.5)
            else:
                out[n] = DegenerateReflection(_reflection_axis(lin), v)
        return out


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

    The linear part sends each positive generator to -id and each other
    generator to the Minkowski reflection in its cuboctahedron normal;
    the translation part is tau(i+) = tau(i-) = (-1)^i lam v_i and zero
    on the letters.  Exact over Q(sqrt 2), as PairMatrix parts, for
    exact lam.
    """
    cubo = cuboctahedron_vectors()
    # the 8 triangle normals, then the 6 quads: one stack of reflections
    normals = [cubo[str(i)] for i in range(8)] + [cubo[x] for x in LETTER_NAMES]
    signs = np.array([(-1) ** i for i in range(8)])
    if is_exact(lam):
        minus_id, zero = -PairMatrix.identity(4), PairMatrix.zeros(4)
        refls = reflection_matrix(QuadraticSpace.minkowski(4), normals).unstack()
        taus = (PairMatrix.of(lam) * signs)[:, None] * normals[:8]
    else:
        minus_id, zero = -np.eye(4), np.zeros(4)
        normals = np.array(normals, dtype=float)
        refls = reflection_matrix(QuadraticSpace.minkowski(4), normals)
        taus = (signs * float(lam))[:, None] * normals[:8]
    linear, translation = {}, {}
    for i in range(8):
        linear[f"{i}+"], linear[f"{i}-"] = minus_id, refls[i]
        translation[f"{i}+"] = translation[f"{i}-"] = taus[i]
    for x, refl in zip(LETTER_NAMES, refls[8:]):
        linear[x], translation[x] = refl, zero
    assert set(linear) == set(GAMMA22_NAMES)
    return HPRepresentation(linear, translation)
