"""Exact linear algebra over Q(sqrt 2).

Exact matrices at the API are numpy arrays with dtype=object holding
QSqrt2 entries, so `@`, `.T` and slicing work the same as for floats.
Products, zero tests and elimination run on the integer-pair form
instead: a PairMatrix (a, b, den) stands for (a + b*sqrt(2)) / den with
a, b integer numpy arrays, so no Fraction or QSqrt2 object is built in
the hot paths.  The arrays are int64 as long as every product and sum
provably stays below 2**62 and hold Python ints (dtype=object) beyond
that, so results are exact either way.

Rank, nullspace and solving use fraction-free Gauss-Jordan elimination
over Z[sqrt 2] with a gcd reduction of each new row.  On the cocycle
systems of the 22-generator group the coefficients never grow beyond a
few bits, and one 800 x 88 system reduces in a few hundredths of a
second.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .scalars import QSqrt2


def exact_array(rows):
    """Build a dtype=object numpy array of QSqrt2 from nested scalars."""
    def conv(x):
        return x if isinstance(x, QSqrt2) else QSqrt2(x)

    arr = np.array(rows, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = conv(x)
    return flat.reshape(arr.shape)


def exact_identity(n):
    out = np.full((n, n), QSqrt2(0), dtype=object)
    for i in range(n):
        out[i, i] = QSqrt2(1)
    return out


def exact_zeros(shape):
    return np.full(shape, QSqrt2(0), dtype=object)


def is_zero_matrix(arr):
    return all(not bool(x) for x in np.asarray(arr, dtype=object).reshape(-1))


# -- integer-pair matrices ---------------------------------------------

_INT64_LIMIT = 2 ** 62


def _max_abs(arr):
    return int(np.abs(arr).max()) if arr.size else 0


def _int_arrays(bound, *arrays):
    """The arrays as int64 when no value can reach ``bound``, else as Python ints."""
    dtype = np.int64 if bound < _INT64_LIMIT else object
    return [x.astype(dtype, copy=False) for x in arrays]


def _common(mats):
    """(a, b) arrays of each matrix over the least common denominator, and that den."""
    den = lcm(*(m.den for m in mats))
    scales = [den // m.den for m in mats]
    bound = 2 * max(max(_max_abs(m.a), _max_abs(m.b), 1) * s for m, s in zip(mats, scales))
    parts = [_int_arrays(bound, m.a, m.b) for m in mats]
    return [(a * s, b * s) for (a, b), s in zip(parts, scales)], den


class PairMatrix:
    """An exact matrix (a + b*sqrt(2)) / den over integer arrays a, b.

    ``den`` is a positive Python int shared by every entry.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, a, b, den=1):
        self.a = a
        self.b = b
        self.den = den

    @classmethod
    def of(cls, x):
        """Convert a QSqrt2 object array (or a PairMatrix, returned as is)."""
        if isinstance(x, PairMatrix):
            return x
        arr = np.asarray(x, dtype=object)
        parts = [(q.a, q.b) for q in arr.reshape(-1)]
        den = lcm(*(f.denominator for pair in parts for f in pair))
        a = [qa.numerator * (den // qa.denominator) for qa, _ in parts]
        b = [qb.numerator * (den // qb.denominator) for _, qb in parts]
        bound = max(map(abs, a + b), default=0)
        dtype = np.int64 if bound < _INT64_LIMIT else object
        return cls(np.array(a, dtype=dtype).reshape(arr.shape),
                   np.array(b, dtype=dtype).reshape(arr.shape), den)

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64))

    @classmethod
    def concat(cls, mats, axis=0):
        """Join along ``axis``, as np.concatenate does."""
        parts, den = _common(mats)
        return cls(np.concatenate([a for a, _ in parts], axis=axis),
                   np.concatenate([b for _, b in parts], axis=axis), den)

    @property
    def shape(self):
        return self.a.shape

    @property
    def size(self):
        return self.a.size

    @property
    def T(self):
        return PairMatrix(self.a.T, self.b.T, self.den)

    def __getitem__(self, idx):
        return PairMatrix(self.a[idx], self.b[idx], self.den)

    def reshape(self, *shape):
        return PairMatrix(self.a.reshape(*shape), self.b.reshape(*shape), self.den)

    def __matmul__(self, other):
        # (a1 + b1 r)(a2 + b2 r) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) r, r = sqrt 2
        m1 = max(_max_abs(self.a), _max_abs(self.b))
        m2 = max(_max_abs(other.a), _max_abs(other.b))
        a1, b1, a2, b2 = _int_arrays(3 * m1 * m2 * self.shape[-1],
                                     self.a, self.b, other.a, other.b)
        return PairMatrix(a1 @ a2 + 2 * (b1 @ b2), a1 @ b2 + b1 @ a2, self.den * other.den)

    def __add__(self, other):
        ((a1, b1), (a2, b2)), den = _common([self, other])
        return PairMatrix(a1 + a2, b1 + b2, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PairMatrix(-self.a, -self.b, self.den)

    def is_zero(self):
        return not (self.a.any() or self.b.any())

    def exact(self):
        """The QSqrt2 object array this matrix stands for."""
        den = self.den
        flat = [QSqrt2(Fraction(a, den), Fraction(b, den))
                for a, b in zip(self.a.reshape(-1).tolist(), self.b.reshape(-1).tolist())]
        out = np.empty(len(flat), dtype=object)
        out[:] = flat
        return out.reshape(self.shape)


# -- fraction-free elimination on (int, int) rows -------------------------

def _rows(pm):
    """Nonzero rows of a pair matrix as lists of (a, b) Python int pairs.

    Zero rows and the common denominator are dropped: neither changes
    a rank, pivot or solution.
    """
    keep = ((pm.a != 0) | (pm.b != 0)).any(axis=1)
    return [list(zip(ra, rb)) for ra, rb in zip(pm.a[keep].tolist(), pm.b[keep].tolist())]


def _reduce_row(row):
    g = 0
    for a, b in row:
        g = gcd(g, gcd(abs(a), abs(b)))
        if g == 1:
            return row
    if g <= 1:
        return row
    return [(a // g, b // g) for a, b in row]


def _eliminate(row, piv, col):
    """row := piv[col]*row - row[col]*piv in Z[sqrt2], then gcd-reduced."""
    pa, pb = piv[col]
    ra, rb = row[col]
    new = [(pa * xa + 2 * pb * xb - (ra * ya + 2 * rb * yb),
            pa * xb + pb * xa - (ra * yb + rb * ya))
           for (xa, xb), (ya, yb) in zip(row, piv)]
    return _reduce_row(new)


def _echelon(rows, ncols):
    """Fraction-free reduced row echelon form of nonzero integer-pair rows.

    Pivots are taken in the first ``ncols`` columns only; columns past
    them are carried along (right-hand sides).  Returns (pivot_rows,
    pivot_cols, rest): pivot_rows[k] has its pivot in column
    pivot_cols[k] (increasing) and zeros in every other pivot column;
    ``rest`` holds the nonzero rows left over, which are zero in the
    first ``ncols`` columns.
    """
    work = list(rows)
    pivots = []
    pivot_cols = []
    for col in range(ncols):
        pivot_idx = None
        best = None
        for i, r in enumerate(work):
            pa, pb = r[col]
            if pa or pb:
                size = abs(pa) + abs(pb)
                if best is None or size < best:
                    best = size
                    pivot_idx = i
                    if size <= 2:
                        break
        if pivot_idx is None:
            continue
        piv = work.pop(pivot_idx)
        remaining = []
        for r in work:
            if r[col] != (0, 0):
                r = _eliminate(r, piv, col)
                if not any(a or b for a, b in r):
                    continue
            remaining.append(r)
        work = remaining
        pivots = [_eliminate(r, piv, col) if r[col] != (0, 0) else r for r in pivots]
        pivots.append(piv)
        pivot_cols.append(col)
    return pivots, pivot_cols, work


def _quotient(c, p):
    """c / p as a QSqrt2, for integer pairs c and p != 0."""
    (ca, cb), (pa, pb) = c, p
    norm = pa * pa - 2 * pb * pb
    return QSqrt2(Fraction(ca * pa - 2 * cb * pb, norm), Fraction(cb * pa - ca * pb, norm))


def exact_pivots(matrix):
    """Pivot columns: each column that is not in the span of the ones before it."""
    pm = PairMatrix.of(matrix)
    return _echelon(_rows(pm), pm.shape[1])[1]


def exact_rank(matrix):
    pm = PairMatrix.of(matrix)
    return len(exact_pivots(pm)) if pm.size else 0


def exact_nullspace(matrix):
    """Basis of {x : M x = 0} as a list of QSqrt2 object arrays.

    One vector per free column: that variable is 1, the other free
    variables are 0.
    """
    pm = PairMatrix.of(matrix)
    ncols = pm.shape[1]
    pivots, pivot_cols, _ = _echelon(_rows(pm), ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        x = exact_zeros(ncols)
        x[free] = QSqrt2(1)
        for row, col in zip(pivots, pivot_cols):
            a, b = row[free]
            if a or b:
                x[col] = _quotient((-a, -b), row[col])
        basis.append(x)
    return basis


def exact_solve(matrix, rhs):
    """Solve M x = rhs exactly; return None if inconsistent.

    ``rhs`` is a vector or a matrix of right-hand sides (the result has
    the same shape class).  For underdetermined systems the particular
    solution with every free variable zero is returned.
    """
    pm = PairMatrix.of(matrix)
    r = PairMatrix.of(rhs)
    single = len(r.shape) == 1
    if single:
        r = r.reshape(-1, 1)
    ncols = pm.shape[1]
    pivots, pivot_cols, rest = _echelon(_rows(PairMatrix.concat([pm, r], axis=1)), ncols)
    if rest:
        return None  # a nonzero row with no pivot: inconsistent
    x = exact_zeros((ncols, r.shape[1]))
    for row, col in zip(pivots, pivot_cols):
        for j, c in enumerate(row[ncols:]):
            if c != (0, 0):
                x[col, j] = _quotient(c, row[col])
    return x[:, 0] if single else x


def exact_inverse(matrix):
    pm = PairMatrix.of(matrix)
    n = pm.shape[0]
    x = exact_solve(pm, PairMatrix.identity(n))  # M X = I is solvable iff M is invertible
    if x is None:
        raise ZeroDivisionError("matrix is singular over Q(sqrt 2)")
    return x


def exact_in_span(vectors, target):
    """Is target in the exact linear span of the given vectors?"""
    if not vectors:
        return is_zero_matrix(target)
    m = np.array(vectors, dtype=object)
    r0 = exact_rank(m)
    r1 = exact_rank(np.vstack([m, np.asarray(target, dtype=object)[None, :]]))
    return r0 == r1
