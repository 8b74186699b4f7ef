"""Pseudo-Riemannian linear algebra: forms, reflections, hyperplane positions.

Everything here is phrased for the diagonal quadratic forms

    q(x) = -x_0^2 + x_1^2 + ... + x_{n-1}^2 + sig_n * x_n^2,

with sig_n = +1 for hyperbolic space, -1 for anti-de Sitter space and 0
for half-pipe space.  A vector X with q(X) != 0 determines the
reflection fixing the hyperplane X-perp, and the relative position of
two hyperplanes is read off the bilinear pairing of their unit normals:
|b| below 1 / equal to 1 / above 1 separates intersecting, tangent at
infinity, and disjoint in the hyperbolic case, with the inequalities
reversed for spacelike AdS hyperplanes.

All operations run on either backend: numpy float arrays with a
tolerance, or exact data with exact zero tests (tol=0).  Exact vectors
are sequences of QSqrt2 (or a PairMatrix, for reflection_matrix), and
an exact reflection is a linalg_exact.PairMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg_exact import PairMatrix
from .scalars import is_exact

DEFAULT_TOL = 1e-9


class GeometryError(Exception):
    """Base class for geometric precondition violations."""


class DimensionMismatch(GeometryError):
    pass


class DegenerateNormal(GeometryError):
    pass


class NotUnitSpacelike(GeometryError):
    pass


class CoincidentHyperplanes(GeometryError):
    pass


class MixedTypePair(GeometryError):
    """One spacelike and one timelike AdS normal: no classification exists."""


@dataclass(frozen=True)
class QuadraticSpace:
    """Dimension and diagonal signature of an ambient quadratic form."""

    dim: int
    signature: tuple

    def __post_init__(self):
        if self.dim <= 0 or len(self.signature) != self.dim:
            raise DimensionMismatch("signature length must equal dim")
        if any(s not in (-1, 0, 1) for s in self.signature):
            raise ValueError("signature entries must be -1, 0 or +1")

    @classmethod
    def hyperbolic(cls, n):
        """Ambient space of H^n: form q_{+1} on R^{n+1}."""
        return cls(n + 1, (-1,) + (1,) * n)

    @classmethod
    def anti_de_sitter(cls, n):
        """Ambient space of AdS^n: form q_{-1} on R^{n+1}."""
        return cls(n + 1, (-1,) + (1,) * (n - 1) + (-1,))

    @classmethod
    def minkowski(cls, n):
        """R^{1,n-1} with the Minkowski form (no projective ambient)."""
        return cls(n, (-1,) + (1,) * (n - 1))

    def form_matrix(self):
        """The diagonal Gram matrix J as integers: exact as it stands, and
        PairMatrix.of(J) on the exact backend."""
        return np.diag(self.signature)


class PairClassHyp(Enum):
    INTERSECTING = "intersecting"
    TANGENT_AT_INFINITY = "tangent_at_infinity"
    DISJOINT = "disjoint"


class PairClassAdS(Enum):
    # spacelike-normal pairs (spacelike hyperplanes)
    INTERSECTING = "intersecting"
    TANGENT_AT_INFINITY = "tangent_at_infinity"
    DISJOINT = "disjoint"
    # timelike-normal pairs (timelike hyperplanes, always meet)
    SPACELIKE_INTERSECTION = "spacelike_intersection"
    LIGHTLIKE_INTERSECTION = "lightlike_intersection"
    TIMELIKE_INTERSECTION = "timelike_intersection"


def eval_form(space, x):
    """q(x) for the space's diagonal form."""
    if len(x) != space.dim:
        raise DimensionMismatch(f"vector has length {len(x)}, space has dim {space.dim}")
    return sum(s * xi * xi for s, xi in zip(space.signature, x) if s)


def eval_bilinear(space, x, y):
    """b(x, y), the symmetric bilinear form polarising q."""
    if len(x) != space.dim or len(y) != space.dim:
        raise DimensionMismatch("vector length must equal the space dimension")
    return sum(s * xi * yi for s, xi, yi in zip(space.signature, x, y) if s)


def reflection_matrix(space, X, tol=DEFAULT_TOL):
    """Matrix of the reflection r_X: fixes X-perp, sends X to -X.

    r_X = I - (2/q(X)) X (JX)^T, an involution in O(q): a PairMatrix for
    exact X, where q(X) = 0 is tested exactly, else a float array.
    """
    sig = np.array(space.signature)
    if is_exact(X):
        X = PairMatrix.of(X).reshape(space.dim, 1)
        JX = X * sig[:, None]
        q = (X.T @ JX).item(0, 0)
        if q == 0:
            raise DegenerateNormal("q(X) = 0: no reflection")
        return (PairMatrix.identity(space.dim) - X @ JX.T * (2 / q)).reduced()
    q = eval_form(space, X)
    if abs(q) <= tol:
        raise DegenerateNormal("q(X) = 0 within tolerance: no reflection")
    X = np.asarray(X, dtype=float)
    return np.eye(space.dim) - (2.0 / q) * np.outer(X, sig * X)


def coincident(X, Y, tol):
    """Is X = +-Y within tol (the same hyperplane, the same reflection)?"""
    d1 = max(abs(xi - yi) for xi, yi in zip(X, Y))
    d2 = max(abs(xi + yi) for xi, yi in zip(X, Y))
    return d1 <= tol or d2 <= tol


def _resolve_tol(X, tol):
    if tol is not None:
        return tol
    return 0 if is_exact(X) else DEFAULT_TOL


def classify_pair_hyp(X, Y, tol=None):
    """Relative position of the hyperbolic hyperplanes normal to X and Y.

    Requires unit spacelike normals (q_1 = 1).  Intersecting iff
    |b_1(X,Y)| < 1, tangent at infinity iff |b_1| = 1, disjoint closures
    iff |b_1| > 1 (thresholds widened by tol on the float backend).
    """
    tol = _resolve_tol(X, tol)
    space = QuadraticSpace.hyperbolic(len(X) - 1)
    for v in (X, Y):
        if abs(eval_form(space, v) - 1) > tol:
            raise NotUnitSpacelike("normals must satisfy q_1 = 1")
    if coincident(X, Y, tol):
        raise CoincidentHyperplanes("X = +-Y defines a single hyperplane")
    ab = abs(eval_bilinear(space, X, Y))
    if ab < 1 - tol:
        return PairClassHyp.INTERSECTING
    if ab > 1 + tol:
        return PairClassHyp.DISJOINT
    return PairClassHyp.TANGENT_AT_INFINITY


def classify_pair_ads(X, Y, tol=None):
    """Relative position of two AdS hyperplanes with normals of equal type.

    Spacelike pair (q_{-1} = -1 on both): intersect iff |b_{-1}| > 1,
    tangent at infinity iff = 1, disjoint iff < 1.  Timelike pair
    (q_{-1} = +1): the hyperplanes always meet; the intersection is
    spacelike iff |b_{-1}| > 1, lightlike iff = 1, timelike iff < 1.
    """
    tol = _resolve_tol(X, tol)
    space = QuadraticSpace.anti_de_sitter(len(X) - 1)
    qx = eval_form(space, X)
    qy = eval_form(space, Y)
    x_space = abs(qx + 1) <= tol
    x_time = abs(qx - 1) <= tol
    y_space = abs(qy + 1) <= tol
    y_time = abs(qy - 1) <= tol
    if not ((x_space or x_time) and (y_space or y_time)):
        raise NotUnitSpacelike("normals must satisfy q_{-1} = +-1")
    if (x_space and y_time) or (x_time and y_space):
        raise MixedTypePair("no classification for a spacelike/timelike normal pair")
    if coincident(X, Y, tol):
        raise CoincidentHyperplanes("X = +-Y defines a single hyperplane")
    ab = abs(eval_bilinear(space, X, Y))
    if x_space:
        if ab > 1 + tol:
            return PairClassAdS.INTERSECTING
        if ab < 1 - tol:
            return PairClassAdS.DISJOINT
        return PairClassAdS.TANGENT_AT_INFINITY
    if ab > 1 + tol:
        return PairClassAdS.SPACELIKE_INTERSECTION
    if ab < 1 - tol:
        return PairClassAdS.TIMELIKE_INTERSECTION
    return PairClassAdS.LIGHTLIKE_INTERSECTION
