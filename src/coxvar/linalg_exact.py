"""Exact linear algebra over Q(sqrt 2).

PairMatrix is the one exact matrix type: (a, b, den) stands for
(a + b*sqrt(2)) / den with a, b integer numpy arrays, so no Fraction or
QSqrt2 object is built in matrix work.  The arrays are int64 as long as
every product and sum provably stays below 2**62 and hold Python ints
(dtype=object) beyond that, so results are exact either way.  Tables of
QSqrt2 or rational scalars and integer numpy arrays enter through
PairMatrix.of; single entries leave as QSqrt2 through item, and
np.asarray(m, dtype=float) is the float view.  Every function here
accepts whatever PairMatrix.of does and returns PairMatrix, ranks or
pivot columns.

Rank, nullspace and solving use fraction-free Gauss-Jordan elimination
over Z[sqrt 2] with a gcd reduction of each new row.  On the cocycle
systems of the 22-generator group the coefficients never grow beyond a
few bits, and one 800 x 88 system reduces in a few hundredths of a
second.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt

import numpy as np

from .scalars import QSqrt2


# -- integer-pair matrices ---------------------------------------------

_INT64_LIMIT = 2 ** 62
_FLOAT_EXACT = 2 ** 53  # int64 entries below this convert to float64 exactly


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


def _quotient(ints, den):
    """ints / den as float64, each entry correctly rounded (as int / int is)."""
    if ints.dtype == object or den >= _FLOAT_EXACT or _max_abs(ints) >= _FLOAT_EXACT:
        return np.array([x / den for x in ints.reshape(-1).tolist()],
                        dtype=float).reshape(ints.shape)
    return ints / den


class PairMatrix:
    """An exact matrix (a + b*sqrt(2)) / den over integer arrays a, b.

    ``den`` is a positive Python int shared by every entry.  Numpy
    operators defer to the exact ones here; np.asarray(m, dtype=float)
    gives the float view.
    """

    __slots__ = ("a", "b", "den")
    __array_ufunc__ = None

    def __init__(self, a, b, den=1):
        self.a = a
        self.b = b
        self.den = den

    @classmethod
    def of(cls, x):
        """Convert an integer array, or nested QSqrt2 or rational scalars (a
        PairMatrix is returned as is).

        Scalars give a matrix over the least common denominator of the entries.
        """
        if isinstance(x, PairMatrix):
            return x
        if isinstance(x, np.ndarray) and x.dtype.kind == "i":
            return cls(x.astype(np.int64), np.zeros(x.shape, dtype=np.int64))
        arr = np.asarray(x, dtype=object)
        parts = [(q.a, q.b) if isinstance(q, QSqrt2) else (Fraction(q), Fraction(0))
                 for q in arr.reshape(-1)]
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
        parts, den = _common([cls.of(m) for m in mats])
        return cls(np.concatenate([a for a, _ in parts], axis=axis),
                   np.concatenate([b for _, b in parts], axis=axis), den)

    @classmethod
    def block(cls, rows):
        """Assemble a matrix from a nested list of 2-d blocks, as np.block does."""
        return cls.concat([cls.concat(row, axis=1) for row in rows])

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

    def _product(self, other, op, terms):
        # (a1 + b1 r)(a2 + b2 r) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) r, r = sqrt 2,
        # and ``terms`` such products are summed into each entry
        m1 = max(_max_abs(self.a), _max_abs(self.b))
        m2 = max(_max_abs(other.a), _max_abs(other.b))
        a1, b1, a2, b2 = _int_arrays(3 * m1 * m2 * terms, self.a, self.b, other.a, other.b)
        return PairMatrix(op(a1, a2) + 2 * op(b1, b2), op(a1, b2) + op(b1, a2),
                          self.den * other.den)

    def __matmul__(self, other):
        return self._product(other, np.matmul, self.shape[-1])

    def __mul__(self, other):
        """Entrywise product with anything ``of`` converts, broadcast as in numpy."""
        return self._product(PairMatrix.of(other), np.multiply, 1)

    __rmul__ = __mul__

    def __add__(self, other):
        ((a1, b1), (a2, b2)), den = _common([self, other])
        return PairMatrix(a1 + a2, b1 + b2, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PairMatrix(-self.a, -self.b, self.den)

    def is_zero(self):
        return not (self.a.any() or self.b.any())

    def reduced(self):
        """The same matrix over its least common denominator, as ``of`` builds it."""
        g = gcd(self.den, int(np.gcd.reduce(self.a, axis=None)),
                int(np.gcd.reduce(self.b, axis=None)))
        a, b = (self.a, self.b) if g == 1 else (self.a // g, self.b // g)
        return PairMatrix(*_int_arrays(max(_max_abs(a), _max_abs(b)), a, b), self.den // g)

    def item(self, *idx):
        """One entry as a QSqrt2; ``idx`` as numpy's ndarray.item takes it."""
        return QSqrt2(Fraction(self.a.item(*idx), self.den),
                      Fraction(self.b.item(*idx), self.den))

    def __array__(self, dtype=None, copy=None):
        """The float view: every entry as float() gives it on the QSqrt2
        value, float(a/den) + float(b/den)*sqrt(2.0), bit for bit."""
        if dtype is not None and np.dtype(dtype) != np.float64:
            raise TypeError("a PairMatrix converts to float64 arrays only")
        return np.asarray(_quotient(self.a, self.den) + _quotient(self.b, self.den) * sqrt(2.0))


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


def _back_substitute(pivots, pivot_cols, rhs, shape, ones=()):
    """The PairMatrix x of ``shape`` with x[pivot_cols[k], j] = rhs[k][j] / pivot k,
    x[i, j] = 1 for each (i, j) in ``ones`` and zeros elsewhere.

    c / p is c * conj(p) / norm(p); every entry is written over the lcm
    of the pivot norms and the result is reduced, so it equals
    PairMatrix.of of the same quotients as QSqrt2 values.
    """
    piv = [row[col] for row, col in zip(pivots, pivot_cols)]
    norms = [pa * pa - 2 * pb * pb for pa, pb in piv]  # nonzero: sqrt 2 is irrational
    den = lcm(*norms)
    a = [[0] * shape[1] for _ in range(shape[0])]
    b = [[0] * shape[1] for _ in range(shape[0])]
    for i, j in ones:
        a[i][j] = den
    for (pa, pb), norm, col, cs in zip(piv, norms, pivot_cols, rhs):
        scale = den // norm
        for j, (ca, cb) in enumerate(cs):
            if ca or cb:
                a[col][j] = (ca * pa - 2 * cb * pb) * scale
                b[col][j] = (cb * pa - ca * pb) * scale
    return PairMatrix(np.array(a, dtype=object).reshape(shape),
                      np.array(b, dtype=object).reshape(shape), den).reduced()


def exact_pivots(matrix):
    """Pivot columns: each column that is not in the span of the ones before it."""
    pm = PairMatrix.of(matrix)
    return _echelon(_rows(pm), pm.shape[1])[1]


def exact_rank(matrix):
    pm = PairMatrix.of(matrix)
    return len(exact_pivots(pm)) if pm.size else 0


def exact_nullspace(matrix):
    """Basis of {x : M x = 0} as the columns of one PairMatrix.

    One column per free variable of M, in order: that variable is 1,
    the other free variables are 0.
    """
    pm = PairMatrix.of(matrix)
    ncols = pm.shape[1]
    pivots, pivot_cols, _ = _echelon(_rows(pm), ncols)
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    rhs = [[(-row[f][0], -row[f][1]) for f in free] for row in pivots]
    return _back_substitute(pivots, pivot_cols, rhs, (ncols, len(free)),
                            ones=[(f, j) for j, f in enumerate(free)])


def exact_solve(matrix, rhs):
    """Solve M x = rhs exactly as a PairMatrix; return None if inconsistent.

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
    x = _back_substitute(pivots, pivot_cols, [row[ncols:] for row in pivots],
                         (ncols, r.shape[1]))
    return x[:, 0] if single else x


def exact_inverse(matrix):
    pm = PairMatrix.of(matrix)
    n = pm.shape[0]
    x = exact_solve(pm, PairMatrix.identity(n))  # M X = I is solvable iff M is invertible
    if x is None:
        raise ZeroDivisionError("matrix is singular over Q(sqrt 2)")
    return x


def exact_in_span(vectors, target):
    """Is target in the exact linear span of the given vectors?

    With the vectors and then the target as columns, it is iff the
    target's column is not a pivot.
    """
    cols = [PairMatrix.of(v).reshape(-1, 1) for v in [*vectors, target]]
    return len(vectors) not in exact_pivots(PairMatrix.concat(cols, axis=1))
