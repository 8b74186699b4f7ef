"""Right-angled Coxeter groups and the concrete groups of this project.

A RACG is a finite presentation: generators of order two plus a set of
commuting pairs.  The groups used throughout:

* gamma22   -- 22 generators, three types (eight "positive" 0+..7+,
               eight "negative" 0-..7-, six "letters" A..F); the 80
               commuting pairs are derived from exact orthogonality of
               the unit normal table, not hard-coded.
* gamma_rect, gamma_cube -- the rectangle and cube reflection groups
               driving the cusp classification in dimensions 3 and 4.
* gamma_co  -- the reflection group of the ideal right-angled
               cuboctahedron (8 triangles + 6 quads, 24 edges).

Each table is one linalg_exact.PairMatrix, a row per generator, built
from integer sign patterns.  A representation is one (generators, d, d)
stack of images in generator order, a float array or a PairMatrix; word
evaluation and representation verification read that stack directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .geometry import QuadraticSpace
from .linalg_exact import PairMatrix, identity_like, is_exact


class RelationError(Exception):
    pass


class IndexOutOfRange(RelationError):
    pass


@dataclass(frozen=True)
class RACG:
    """Right-angled Coxeter group presentation."""

    generators: tuple
    commuting_pairs: frozenset  # of (i, j) index pairs with i < j

    def __post_init__(self):
        n = len(self.generators)
        if not all(isinstance(g, str) for g in self.generators):
            raise ValueError("generator names must be strings")
        for p in self.commuting_pairs:
            if not (len(p) == 2 and all(isinstance(i, int) for i in p) and 0 <= p[0] < p[1] < n):
                raise IndexOutOfRange(f"bad commuting pair {p}")
        if len(set(self.generators)) != n:
            raise ValueError("duplicate generator names")

    @property
    def rank(self):
        return len(self.generators)

    def index(self, name):
        return self.generators.index(name)

    def commuting_name_pairs(self):
        return [(self.generators[i], self.generators[j]) for i, j in sorted(self.commuting_pairs)]

    def commutes(self, a, b):
        i, j = sorted((self.index(a), self.index(b)))
        return (i, j) in self.commuting_pairs

    def to_json(self):
        return json.dumps(
            {"generators": list(self.generators),
             "commuting_pairs": [list(p) for p in sorted(self.commuting_pairs)]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        try:
            generators, pairs = data["generators"], data["commuting_pairs"]
            # a string would pass as its letters, a boolean as the index 0 or 1
            if not isinstance(generators, list) or any(
                    not isinstance(p, list) or any(isinstance(i, bool) for i in p) for p in pairs):
                raise TypeError("expected a list of names and lists of integer index pairs")
            pairs = frozenset(tuple(sorted(p)) for p in pairs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed group JSON: {type(exc).__name__} {exc}") from None
        return cls(tuple(generators), pairs)


# -- the 22-generator group and its tables ------------------------------

# sign patterns of Table-1 vectors: i -> ((x1, x2, x3), x4 of the positive
# generator); the negative partner flips x4.
_PM_SIGNS = {
    0: ((1, 1, 1), 1), 1: ((1, -1, 1), -1), 2: ((1, -1, -1), 1), 3: ((1, 1, -1), -1),
    4: ((-1, 1, -1), 1), 5: ((-1, 1, 1), -1), 6: ((-1, -1, 1), 1), 7: ((-1, -1, -1), -1),
}

_LETTER_SIGNS = {"A": (1, 1), "B": (2, 1), "C": (3, 1), "D": (3, -1), "E": (2, -1), "F": (1, -1)}

POSITIVE_NAMES = tuple(f"{i}+" for i in range(8))
NEGATIVE_NAMES = tuple(f"{i}-" for i in range(8))
LETTER_NAMES = tuple("ABCDEF")
GAMMA22_NAMES = POSITIVE_NAMES + NEGATIVE_NAMES + LETTER_NAMES


# the same patterns as integer arrays: x1..x4 of each i+, and the (slot, sign) of each letter
_SIGNS = np.array([(*s, e) for s, e in _PM_SIGNS.values()])
_SLOT, _SLOT_SIGN = np.array(list(_LETTER_SIGNS.values())).T


@lru_cache(maxsize=None)
def gamma22_vectors():
    """The 22 unit normals in R^{1,4}, exact over Q(sqrt 2): one (22, 5)
    PairMatrix with rows in GAMMA22_NAMES order.

    The positive/negative vectors are the table's (sqrt2, +-1, ..., +-1)
    rows scaled by 1/sqrt2 so that q_1 = 1 exactly on all 22 vectors;
    scaling does not change any hyperplane or orthogonality.  Over den 2,
    i+- is (2, sqrt2 (x1, x2, x3, +-x4)) and a letter 2 (e_0 +- sqrt2 e_slot).
    """
    a, b = np.zeros((22, 5), dtype=np.int64), np.zeros((22, 5), dtype=np.int64)
    a[:, 0] = 2
    b[:8, 1:], b[8:16, 1:] = _SIGNS, _SIGNS * [1, 1, 1, -1]
    b[16 + np.arange(6), _SLOT] = 2 * _SLOT_SIGN
    return PairMatrix(a, b, 2)


@lru_cache(maxsize=None)
def cuboctahedron_vectors():
    """Unit normals in R^{1,3} of the ideal right-angled cuboctahedron: one
    (14, 4) PairMatrix with rows in gamma_co() generator order.

    Triangles '0'..'7' are (sqrt2, +-1, +-1, +-1), quads 'A'..'F' are
    (1, +-sqrt2, 0, 0) up to coordinate position; all have q_1 = 1.
    """
    a, b = np.zeros((14, 4), dtype=np.int64), np.zeros((14, 4), dtype=np.int64)
    a[:8, 1:], b[:8, 0] = _SIGNS[:, :3], 1
    a[8:, 0] = 1
    b[8 + np.arange(6), _SLOT] = _SLOT_SIGN
    return PairMatrix(a, b)


def _orthogonality_pairs(V, space):
    """Index pairs i < j with b(v_i, v_j) = 0 of the rows of V, read off one
    exact Gram matrix V J V^T, whose diagonal must be 1 (unit normals)."""
    gram = V @ (V * np.array(space.signature)).T
    n = V.shape[0]
    assert (gram * np.eye(n, dtype=int) - PairMatrix.identity(n)).is_zero(), "q = 1 expected"
    zero = (gram.a == 0) & (gram.b == 0)
    return frozenset((i, j) for i, j in combinations(range(n), 2) if zero[i, j])


@lru_cache(maxsize=None)
def gamma22():
    """The 22-generator group; 80 commuting pairs derived exactly."""
    pairs = _orthogonality_pairs(gamma22_vectors(), QuadraticSpace.hyperbolic(4))
    assert len(pairs) == 80, f"expected 80 commuting pairs, got {len(pairs)}"
    return RACG(GAMMA22_NAMES, pairs)


def gamma_rect():
    """Rectangle group: 4 generators in cyclic order, adjacent sides commute."""
    return RACG(("s1", "t1", "s2", "t2"),
                frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def gamma_cube():
    """Cube group: 6 generators, opposite faces (i, i+3) do not commute."""
    names = ("x1", "y1", "z1", "x2", "y2", "z2")
    opposite = {(0, 3), (1, 4), (2, 5)}
    pairs = frozenset((i, j) for i, j in combinations(range(6), 2)
                      if (i, j) not in opposite)
    assert len(pairs) == 12
    return RACG(names, pairs)


@lru_cache(maxsize=None)
def gamma_co():
    """Cuboctahedron reflection group: 14 generators, 24 commuting pairs."""
    names = tuple(str(i) for i in range(8)) + LETTER_NAMES
    pairs = _orthogonality_pairs(cuboctahedron_vectors(), QuadraticSpace.minkowski(4))
    assert len(pairs) == 24, f"expected 24 commuting pairs, got {len(pairs)}"
    return RACG(names, pairs)


# -- word evaluation and representation checks --------------------------

def evaluate_word(racg, images, word):
    """Ordered product of generator images; the empty word is the identity.

    ``images`` is the (generators, d, d) stack of the representation;
    ``word`` is a sequence of generator names or indices into
    ``racg.generators``.
    """
    letters = []
    for w in word:
        k = racg.index(w) if w in racg.generators else w
        if not (isinstance(k, int) and 0 <= k < racg.rank):
            raise IndexOutOfRange(f"no image for generator {w!r}")
        letters.append(k)
    if not letters:
        return identity_like(images)
    out = images[letters[0]]
    for k in letters[1:]:
        out = out @ images[k]
    return out


@dataclass
class VerificationReport:
    max_defect: float
    failing_relations: list

    @property
    def ok(self):
        return not self.failing_relations


def _defects(stack, tol):
    """Per matrix: the largest |entry| in the float view, and is every |entry| <= tol?
    An exact stack decides that exactly, so a defect the float view rounds to 0 counts."""
    size = np.max(np.abs(np.asarray(stack, dtype=float)), axis=(-2, -1))
    within = size <= tol  # nan is never within tol
    if is_exact(stack):
        within = ((abs(stack) - Fraction(tol)).sign() <= 0).all(axis=(-2, -1))
    return size.tolist(), within.tolist()


def verify_representation(racg, images, tol=1e-10):
    """Check squares, commutators, and distinctness of commuting images.

    ``images`` is the (generators, d, d) stack of the representation, a
    float array or a PairMatrix, with rows in ``racg.generators`` order.
    Failures are reported rather than raised; max_defect is the largest
    deviation from the identity over all relation checks.  A non-finite
    defect fails its check and makes max_defect non-finite too.  Each kind
    of check is one stacked product (or difference) of the images.
    """
    M = images
    if len(M.shape) != 3 or M.shape[0] != racg.rank:
        raise ValueError(f"expected one image per generator, a ({racg.rank}, d, d) stack, "
                         f"got shape {M.shape}")
    i, j = np.array(sorted(racg.commuting_pairs), dtype=int).reshape(-1, 2).T
    squares, square_ok = _defects(M @ M - identity_like(M), tol)
    commutators, commute_ok = _defects(M[i] @ M[j] - M[j] @ M[i], tol)
    coincide = _defects(M[i] - M[j], tol)[1]
    failures = [f"square:{n}" for n, ok in zip(racg.generators, square_ok) if not ok]
    for (a, b), ok, same in zip(racg.commuting_name_pairs(), commute_ok, coincide):
        if not ok:
            failures.append(f"commutator:{a},{b}")
        if same:
            failures.append(f"coincide:{a},{b}")
    return VerificationReport(float(np.max([0.0] + squares + commutators)), failures)
