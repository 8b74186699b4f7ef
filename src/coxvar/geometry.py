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
tolerance, or QSqrt2 object arrays with exact zero tests (tol=0).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg_exact import exact_identity
from .scalars import QSqrt2, is_exact

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

    def form_matrix(self, exact=False):
        if exact:
            out = exact_identity(self.dim)
            for i, s in enumerate(self.signature):
                out[i, i] = QSqrt2(s)
            return out
        return np.diag(np.array(self.signature, dtype=float))


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


class HyperplaneTypeAdS(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


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


def reflection_matrix(space, X, tol=None):
    """Matrix of the reflection r_X: fixes X-perp, sends X to -X.

    r_X(v) = v - 2 b(X, v)/q(X) * X, an involution in O(q).
    """
    exact = is_exact(X)
    q = eval_form(space, X)
    if exact:
        if q == 0:
            raise DegenerateNormal("q(X) = 0: no reflection")
        out = exact_identity(space.dim)
        two_over_q = QSqrt2(2) / q
    else:
        if tol is None:
            tol = DEFAULT_TOL
        if abs(q) <= tol:
            raise DegenerateNormal("q(X) = 0 within tolerance: no reflection")
        X = np.asarray(X, dtype=float)
        sig = np.array(space.signature, dtype=float)
        return np.eye(space.dim) - (2.0 / q) * np.outer(X, sig * X)
    for i in range(space.dim):
        for j in range(space.dim):
            s = space.signature[j]
            if s:
                out[i, j] = out[i, j] - two_over_q * X[i] * (s * X[j])
    return out


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


def hyperplane_type_ads(X, tol=None):
    """Spacelike / timelike / lightlike type of the AdS hyperplane X-perp."""
    tol = _resolve_tol(X, tol)
    space = QuadraticSpace.anti_de_sitter(len(X) - 1)
    q = eval_form(space, X)
    if q < -tol:
        return HyperplaneTypeAdS.SPACELIKE
    if q > tol:
        return HyperplaneTypeAdS.TIMELIKE
    return HyperplaneTypeAdS.LIGHTLIKE


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


def commute_test(space, X, Y, tol=None):
    """Do the reflections r_X and r_Y commute?

    True iff X = +-Y (equal reflections) or b(X, Y) = 0.
    """
    tol = _resolve_tol(X, tol)
    qx = eval_form(space, X)
    qy = eval_form(space, Y)
    if is_exact(X):
        if qx == 0 or qy == 0:
            raise DegenerateNormal("q(X) = 0: not a reflection normal")
    elif abs(qx) <= tol or abs(qy) <= tol:
        raise DegenerateNormal("q(X) = 0 within tolerance: not a reflection normal")
    if coincident(X, Y, tol):
        return True
    return abs(eval_bilinear(space, X, Y)) <= tol
