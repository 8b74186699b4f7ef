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

The tables are QSqrt2 coordinate tuples; every exact matrix built from
them is a linalg_exact.PairMatrix.  Word evaluation and representation
verification are generic over the image type: float matrices, exact
PairMatrix, or any object with a ``projective_matrix()`` method
(half-pipe isometries).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .geometry import QuadraticSpace
from .linalg_exact import PairMatrix
from .scalars import QSqrt2, is_exact


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
            generators = tuple(data["generators"])
            pairs = frozenset(tuple(sorted(p)) for p in data["commuting_pairs"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed group JSON: {type(exc).__name__} {exc}") from None
        return cls(generators, pairs)


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


_HALF = Fraction(1, 2)


def _letter_vector(letter, dim):
    slot, sign = _LETTER_SIGNS[letter]
    v = [QSqrt2(0)] * dim
    v[0] = QSqrt2(1)
    v[slot] = QSqrt2(0, sign)
    return tuple(v)


@lru_cache(maxsize=None)
def gamma22_vectors():
    """The 22 unit normals in R^{1,4}, exact over Q(sqrt 2).

    The positive/negative vectors are the table's (sqrt2, +-1, ..., +-1)
    rows scaled by 1/sqrt2 so that q_1 = 1 exactly on all 22 vectors;
    scaling does not change any hyperplane or orthogonality.
    """
    vecs = {}
    for i, (s, e) in _PM_SIGNS.items():
        body = [QSqrt2(0, _HALF * c) for c in s]
        vecs[f"{i}+"] = tuple([QSqrt2(1)] + body + [QSqrt2(0, _HALF * e)])
        vecs[f"{i}-"] = tuple([QSqrt2(1)] + body + [QSqrt2(0, -_HALF * e)])
    for x in LETTER_NAMES:
        vecs[x] = _letter_vector(x, 5)
    return vecs


@lru_cache(maxsize=None)
def cuboctahedron_vectors():
    """Unit normals in R^{1,3} of the ideal right-angled cuboctahedron.

    Triangles '0'..'7' are (sqrt2, +-1, +-1, +-1), quads 'A'..'F' are
    (1, +-sqrt2, 0, 0) up to coordinate position; all have q_1 = 1.
    """
    vecs = {}
    for i, (s, _) in _PM_SIGNS.items():
        vecs[str(i)] = tuple([QSqrt2(0, 1)] + [QSqrt2(c) for c in s])
    for x in LETTER_NAMES:
        vecs[x] = _letter_vector(x, 4)
    return vecs


def _orthogonality_pairs(names, vectors, space):
    """Index pairs i < j with b(v_i, v_j) = 0, read off one exact Gram
    matrix V J V^T, whose diagonal must be 1 (unit normals)."""
    V = PairMatrix.of([vectors[n] for n in names])
    gram = V @ (V * np.array(space.signature)).T
    n = len(names)
    assert (gram * np.eye(n, dtype=int) - PairMatrix.identity(n)).is_zero(), "q = 1 expected"
    zero = (gram.a == 0) & (gram.b == 0)
    return frozenset((i, j) for i, j in combinations(range(n), 2) if zero[i, j])


@lru_cache(maxsize=None)
def gamma22():
    """The 22-generator group; 80 commuting pairs derived exactly."""
    pairs = _orthogonality_pairs(GAMMA22_NAMES, gamma22_vectors(), QuadraticSpace.hyperbolic(4))
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
    pairs = _orthogonality_pairs(names, cuboctahedron_vectors(), QuadraticSpace.minkowski(4))
    assert len(pairs) == 24, f"expected 24 commuting pairs, got {len(pairs)}"
    return RACG(names, pairs)


# -- word evaluation and representation checks --------------------------

def _as_matrix(image):
    return image.projective_matrix() if hasattr(image, "projective_matrix") else image


def _identity_like(mat):
    return (PairMatrix.identity if is_exact(mat) else np.eye)(mat.shape[0])


def evaluate_word(rep, word, racg=None):
    """Ordered product of generator images; the empty word is the identity.

    ``rep`` maps generator names to images; ``word`` is a sequence of
    names (or indices into ``racg.generators`` when ``racg`` is given).
    """
    images = {key: _as_matrix(img) for key, img in rep.items()}
    letters = []
    for w in word:
        if isinstance(w, int):
            if racg is None or not (0 <= w < racg.rank):
                raise IndexOutOfRange(f"letter index {w} out of range")
            w = racg.generators[w]
        if w not in images:
            raise IndexOutOfRange(f"no image for generator {w!r}")
        letters.append(w)
    if not letters:
        return _identity_like(next(iter(images.values())))
    out = images[letters[0]]
    for w in letters[1:]:
        out = out @ images[w]
    return out


@dataclass
class VerificationReport:
    max_defect: float
    failing_relations: list

    @property
    def ok(self):
        return not self.failing_relations


def _defects(stack):
    """Largest |entry| of each matrix of a stack, read through the float view."""
    return np.max(np.abs(np.asarray(stack, dtype=float)), axis=(-2, -1)).tolist()


def verify_representation(racg, rep, tol=1e-10):
    """Check squares, commutators, and distinctness of commuting images.

    Failures are reported rather than raised; max_defect is the largest
    deviation from the identity over all relation checks.  A non-finite
    defect fails its check and makes max_defect non-finite too.  Each kind
    of check is one stacked product (or difference) of the images.
    """
    mats = [_as_matrix(rep[name]) for name in racg.generators]
    M = PairMatrix.stack(mats) if is_exact(mats[0]) else np.stack(mats)
    i, j = np.array(sorted(racg.commuting_pairs), dtype=int).reshape(-1, 2).T
    squares = _defects(M @ M - _identity_like(mats[0]))
    commutators = _defects(M[i] @ M[j] - M[j] @ M[i])
    coincidences = _defects(M[i] - M[j])
    failures = [f"square:{n}" for n, d in zip(racg.generators, squares) if not d <= tol]
    for (a, b), d, c in zip(racg.commuting_name_pairs(), commutators, coincidences):
        if not d <= tol:  # nan compares False
            failures.append(f"commutator:{a},{b}")
        if c <= tol:
            failures.append(f"coincide:{a},{b}")
    return VerificationReport(float(np.max([0.0] + squares + commutators)), failures)
