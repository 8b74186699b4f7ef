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

The forms and the position test act on the last axis: a stack of
vectors gives one value (one position) per vector, each with the bits
of the lone vector.  ``pair_positions`` holds every position threshold
and check; the classifiers of one pair are that test on one pair.

All operations run on either backend: numpy float arrays with a
tolerance, or exact data with exact signs and zero tests (tol=0).
Exact vectors and reflections are linalg_exact.PairMatrix.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .linalg_exact import PairMatrix, identity_like, is_exact
from .records import Record

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


class ParameterOutOfRange(GeometryError):
    """A geometry name or family parameter outside the supported range."""


class MixedTypePair(GeometryError):
    """One spacelike and one timelike AdS normal: no classification exists."""


class QuadraticSpace(Record):
    """Dimension and diagonal signature of an ambient quadratic form."""

    __slots__ = _fields = ("dim", "signature")

    def __init__(self, dim, signature):
        if dim <= 0 or len(signature) != dim:
            raise DimensionMismatch("signature length must equal dim")
        if any(isinstance(s, bool) or s not in (-1, 0, 1) for s in signature):
            raise ValueError("signature entries must be -1, 0 or +1")
        self._set(dim=dim, signature=signature)

    @classmethod
    def hyperbolic(cls, n):
        """Ambient space of H^n: form q_{+1} on R^{n+1}."""
        return cls(n + 1, (-1,) + (1,) * n)

    @classmethod
    def anti_de_sitter(cls, n):
        """Ambient space of AdS^n: form q_{-1} on R^{n+1}."""
        return cls(n + 1, (-1,) + (1,) * (n - 1) + (-1,))

    @classmethod
    def for_geometry(cls, geometry, n):
        """Ambient space of H^n ("hyp") or AdS^n ("ads"): the two differ only
        in the sign s = signature[-1] = +-1 of the last coefficient."""
        if geometry == "hyp":
            return cls.hyperbolic(n)
        if geometry == "ads":
            return cls.anti_de_sitter(n)
        raise ParameterOutOfRange(f"unknown geometry {geometry!r}")

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


class HPPointsClass(Enum):
    """Half-pipe hyperplanes dual to two points of R^{1,n-1}."""

    INTERSECT = "intersect"
    BOUNDARY_TANGENT = "boundary_tangent"
    DISJOINT = "disjoint"


# the classes of pair_positions, its codes in this order
POSITION_CLASSES = {"hyp": tuple(PairClassHyp), "ads": tuple(PairClassAdS),
                    "hp": tuple(HPPointsClass)}


def eval_form(space, x):
    """q(x) for the space's diagonal form, along the last axis of x."""
    return eval_bilinear(space, x, x)


def _data(x):
    """A PairMatrix as it is, anything else as a numpy array."""
    return x if isinstance(x, PairMatrix) else np.asarray(x)


def _along(space, *xs):
    """The data of each x, checked to run along a last axis of length space.dim."""
    xs = [_data(x) for x in xs]
    if any(x.shape[-1:] != (space.dim,) for x in xs):
        raise DimensionMismatch(f"vectors must run along a last axis of length {space.dim}")
    return xs


def eval_bilinear(space, x, y):
    """b(x, y), the symmetric bilinear form polarising q, along the last axis.

    Float arrays or PairMatrix alike.  Exact data takes one product x y,
    whose parts the signs +-1 scale.  The float terms s x_k y_k with s != 0
    are added as _total adds them.
    """
    x, y = _along(space, x, y)
    sig = np.array(space.signature)
    if 0 in space.signature:
        keep = np.flatnonzero(sig)
        sig, x, y = sig[keep], x[..., keep], y[..., keep]
    if isinstance(x, PairMatrix) or isinstance(y, PairMatrix):
        xy = PairMatrix.of(x) * y
        terms = PairMatrix(xy.a * sig, xy.b * sig, xy.den)
    else:
        terms = sig * x * y
    return _total(terms)


def _total(terms):
    """The sum along the last axis: exact terms exactly, float terms added
    left to right from 0, as Python's sum adds them, so every entry of a
    stack has the bits of the sum over its lone vectors."""
    if isinstance(terms, PairMatrix) or not terms.shape[-1]:
        return terms.sum(axis=-1)  # no float term: 0 per vector
    # accumulate adds left to right; the final + 0 turns -0.0 into 0.0, as
    # a sum started at 0 does, and changes no other value
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0


def reflection(P, beta):
    """The projective reflection R(P, beta) = I - 2 P beta^T / beta(P).

    It fixes the hyperplane ker(beta) and sends its pole P to -P.  Every
    reflection of the package is built here, by one body for both
    backends, on which P and beta agree: a reduced PairMatrix for exact
    data, where beta(P) = 0 is tested exactly, else a float array, where
    |beta(P)| <= DEFAULT_TOL is refused.  Stacks of poles and forms (last
    axis) give the stack of their reflections, each with the bits of its
    lone reflection (PairMatrix.unstack splits an exact one).
    """
    P, beta = _data(P), _data(beta)
    exact = is_exact(P)
    q = _total(beta * P)
    if (_dist(q, 0) <= (0 if exact else DEFAULT_TOL)).any():
        raise DegenerateNormal("beta(P) = 0: no reflection")
    outer = P[..., :, None] * beta[..., None, :]
    r = identity_like(P) - (2 / q)[..., None, None] * outer
    return r.reduced() if exact else r


def reflection_matrix(space, X):
    """Matrix of the reflection r_X: fixes X-perp, sends X to -X.

    r_X = I - (2/q(X)) X (JX)^T, an involution in O(q): the reflection
    R(X, J X) with pole X and form b(X, .), J the diagonal Gram matrix,
    exact for exact X.  A stack of normals (last axis) gives the stack of
    their reflections.
    """
    X, = _along(space, X)
    return reflection(X, X * np.array(space.signature))


def _against(x, c):
    """(x, c) for float data; for exact data (the sign of x - c, 0), which
    every comparison of x with c below then decides exactly.  Against 0 the
    sign is read off x itself, with no subtraction."""
    if not isinstance(x, PairMatrix):
        return x, c
    return (x - c if c else x).sign(), 0


def _dist(x, c):
    """|x - c| of float data; its exact sign (0 or 1) for exact data."""
    x, c = _against(x, c)
    return abs(x - c)


def coincident(X, Y, tol):
    """Is X = +-Y within tol (the same hyperplane, the same reflection)?

    The vectors run along the last axis, so stacks of vectors give one
    answer per vector.
    """
    X, Y = _data(X), _data(Y)
    return (np.max(_dist(X, Y), axis=-1) <= tol) | (np.max(_dist(X, -Y), axis=-1) <= tol)


def pair_positions(geometry, X, Y, tol):
    """Positions of the hyperplane pairs (X, Y), vectors along the last axis.

    "hyp", unit spacelike normals (q = 1): intersecting iff |b| < 1,
    tangent at infinity iff |b| = 1, disjoint closures iff |b| > 1.
    "ads", normals of equal type: a spacelike pair (q = -1) intersects
    iff |b| > 1, is tangent at infinity iff = 1, disjoint iff < 1; a
    timelike pair (q = +1) always meets, in a spacelike, lightlike or
    timelike intersection as |b| >, =, < 1.  "hp", points of R^{1,n-1}:
    the dual half-pipe hyperplanes intersect, are tangent at the
    boundary or have disjoint closures as q(X - Y) >, =, < 0.  Every
    threshold is widened by tol.

    Returns (codes, errors): per pair the index of its class in
    POSITION_CLASSES[geometry], and the checks a pair must pass first as
    (mask, exception) in the order they are made (unit norms, mixed
    type, coincident), each mask true where the check fails.
    """
    X, Y = _data(X), _data(Y)
    if geometry == "hp":
        val, zero = _against(eval_form(QuadraticSpace.minkowski(X.shape[-1]), X - Y), 0)
        return np.select([val > zero + tol, val < zero - tol], [0, 2], 1), []
    space = QuadraticSpace.for_geometry(geometry, X.shape[-1] - 1)
    qx, qy = eval_form(space, X), eval_form(space, Y)
    ab, one = _against(abs(eval_bilinear(space, X, Y)), 1)
    if geometry == "hyp":
        errors = [((_dist(qx, 1) > tol) | (_dist(qy, 1) > tol),
                   NotUnitSpacelike("normals must satisfy q_1 = 1"))]
        codes = np.select([ab < one - tol, ab > one + tol], [0, 2], 1)
    else:
        x_space, x_time = _dist(qx, -1) <= tol, _dist(qx, 1) <= tol
        y_space, y_time = _dist(qy, -1) <= tol, _dist(qy, 1) <= tol
        errors = [(~((x_space | x_time) & (y_space | y_time)),
                   NotUnitSpacelike("normals must satisfy q_{-1} = +-1")),
                  ((x_space & y_time) | (x_time & y_space),
                   MixedTypePair("no classification for a spacelike/timelike normal pair"))]
        codes = np.select([ab > one + tol, ab < one - tol], [0, 2], 1) + np.where(x_space, 0, 3)
    errors.append((coincident(X, Y, tol),
                   CoincidentHyperplanes("X = +-Y defines a single hyperplane")))
    return codes, errors


def classify_pair(geometry, X, Y, tol=None):
    """The class of one pair: pair_positions on one pair, raising the
    exception of the first check it fails."""
    if tol is None:
        tol = 0 if is_exact(X) else DEFAULT_TOL
    code, errors = pair_positions(geometry, X, Y, tol)
    for mask, exc in errors:
        if mask:
            raise exc
    return POSITION_CLASSES[geometry][int(code)]


def classify_pair_hyp(X, Y, tol=None):
    """Relative position of the hyperbolic hyperplanes normal to X and Y
    (see pair_positions)."""
    return classify_pair("hyp", X, Y, tol)


def classify_pair_ads(X, Y, tol=None):
    """Relative position of two AdS hyperplanes with normals of equal type
    (see pair_positions)."""
    return classify_pair("ads", X, Y, tol)
