"""Exact linear algebra over Q(sqrt 2).

PairMatrix is the one exact array type, for vectors (the reflection
tables, exact lifts) and matrices alike: (a, b, den) stands for
(a + b*sqrt(2)) / den with a, b integer numpy arrays, so no Fraction or
QSqrt2 object is built in array work.  The arrays are int64 as long as
every product and sum provably stays below 2**62 and hold Python ints
(dtype=object) beyond that, so results are exact either way.  A matrix
product whose bound stays below 2**53 runs in float64 through BLAS:
every product and partial sum is then an integer that float64 holds
exactly, whatever the order of summation or the thread count.  Nested
QSqrt2 or rational scalars and integer numpy arrays enter through
PairMatrix.of; single entries leave as QSqrt2 through item, exact signs
through sign, and np.asarray(m, dtype=float) is the float view.  The
operators @, *, + and / take whatever PairMatrix.of does, so exact and
integer operands mix freely, and block matrices are joined with
PairMatrix.concat, as np.concatenate joins float ones.  An entrywise
quotient (/) multiplies by the conjugates over the lcm of the norms
a^2 - 2 b^2, so no scalar is built there either.
is_exact tells exact data from float data by type, and identity_like
gives the identity on the backend of its argument, so one body serves
both.  Every elimination here accepts whatever PairMatrix.of does and
returns PairMatrix, ranks or pivot columns.

Rank, nullspace and solving use fraction-free Gauss-Jordan elimination
over Z[sqrt 2] (Bareiss, Math. Comp. 22, 1968) directly on the a, b
arrays: each pivot is one array step on every row that meets its
column, each such row then divided by its gcd.  A (T, m, n) stack is
eliminated in lockstep, every member with its own pivots, so T small
systems (the kernels of id + rho(s) of a cocycle space, all 22 images
in one stack) cost one pass of numpy calls.  No step leaves a connected block of rows and pivot
columns, so the blocks of every member (so(1,3) and R^{1,3} in an
adjoint) run in lockstep too, as members of one stack: a pass costs
as many steps as the widest block has columns.  One int64/Python-int
switch guards every step, on a running bound of max|entry| raised after
each pivot by the rewritten rows only.  Every member's result has the
bits it has alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt
from numbers import Rational

import numpy as np

from .scalars import QSqrt2


# -- integer-pair matrices ---------------------------------------------

_INT64_LIMIT = 2 ** 62
_FLOAT_EXACT = 2 ** 53  # int64 entries below this convert to float64 exactly


def _max_abs(arr):
    return int(np.abs(arr.reshape(-1)).max()) if arr.size else 0


def _as_array(x):
    """numpy hands 0-d results back as scalars, Python ints from object arrays:
    make them 0-d arrays again."""
    return x if isinstance(x, np.ndarray) else np.array(x, dtype=getattr(x, "dtype", object))


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


def _reduce_members(a, b, dens):
    """Each (a[t] + b[t]*sqrt(2)) / dens[t] over its least common denominator, as ``of``."""
    flat_a, flat_b = a.reshape(len(dens), -1), b.reshape(len(dens), -1)
    g = np.gcd(np.gcd.reduce(flat_a, axis=1), np.gcd.reduce(flat_b, axis=1)).tolist()
    top = np.maximum(np.abs(flat_a).max(axis=1, initial=0),
                     np.abs(flat_b).max(axis=1, initial=0)).tolist()
    # a zero member's gcd is its whole den, which int64 arrays may not divide by
    return [PairMatrix(*_int_arrays(m // x, _as_array(a[t, ...] // x), _as_array(b[t, ...] // x)),
                       d // x) if m
            else PairMatrix.zeros(a.shape[1:])
            for t, (m, d, x) in enumerate(zip(top, dens, map(gcd, dens, g)))]


class PairMatrix:
    """An exact matrix (a + b*sqrt(2)) / den over integer arrays a, b.

    ``den`` is a positive Python int shared by every entry.  Numpy
    operators defer to the exact ones here; np.asarray(m, dtype=float)
    gives the float view.
    """

    __slots__ = ("a", "b", "den")
    __array_ufunc__ = None

    def __init__(self, a, b, den=1):
        self.a = _as_array(a)
        self.b = _as_array(b)
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
        if isinstance(x, np.ndarray):
            shape, flat = x.shape, x.reshape(-1).tolist()
        else:  # nested sequences: the nesting levels give the shape
            shape, flat = [], [x]
            while flat and isinstance(flat[0], (list, tuple)):
                shape.append(len(flat[0]))
                flat = [q for row in flat for q in row]
        parts = [(q.a, q.b) if isinstance(q, QSqrt2) else (Fraction(q), Fraction(0))
                 for q in flat]
        den = lcm(*(f.denominator for pair in parts for f in pair))
        a = [qa.numerator * (den // qa.denominator) for qa, _ in parts]
        b = [qb.numerator * (den // qb.denominator) for _, qb in parts]
        bound = max(map(abs, a + b), default=0)
        dtype = np.int64 if bound < _INT64_LIMIT else object
        return cls(np.array(a, dtype=dtype).reshape(shape),
                   np.array(b, dtype=dtype).reshape(shape), den)

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
    def stack(cls, mats):
        """One (N, ...) stack of N equal-shape matrices over their common denominator."""
        return cls.concat([cls.of(m)[None] for m in mats])

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

    def swapaxes(self, axis1, axis2):
        return PairMatrix(self.a.swapaxes(axis1, axis2), self.b.swapaxes(axis1, axis2), self.den)

    def reshape(self, *shape):
        return PairMatrix(self.a.reshape(*shape), self.b.reshape(*shape), self.den)

    def flatten(self):
        """A flat copy, as ndarray.flatten."""
        return PairMatrix(self.a.flatten(), self.b.flatten(), self.den)

    def _product(self, other, op, terms):
        # (a1 + b1 r)(a2 + b2 r) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) r, r = sqrt 2,
        # and ``terms`` such products are summed into each entry
        m1 = max(_max_abs(self.a), _max_abs(self.b))
        m2 = max(_max_abs(other.a), _max_abs(other.b))
        bound = 3 * m1 * m2 * terms
        if op is np.matmul and max(bound, m1, m2) < _FLOAT_EXACT:
            # every product and partial sum is an integer float64 holds exactly,
            # in any order of summation: BLAS gives the int64 result
            a1, b1, a2, b2 = (x.astype(np.float64) for x in (self.a, self.b, other.a, other.b))
            return PairMatrix((op(a1, a2) + 2 * op(b1, b2)).astype(np.int64),
                              (op(a1, b2) + op(b1, a2)).astype(np.int64), self.den * other.den)
        a1, b1, a2, b2 = _int_arrays(bound, self.a, self.b, other.a, other.b)
        return PairMatrix(op(a1, a2) + 2 * op(b1, b2), op(a1, b2) + op(b1, a2),
                          self.den * other.den)

    def __matmul__(self, other):
        """Matrix product with anything ``of`` converts, stacked as in numpy."""
        return self._product(PairMatrix.of(other), np.matmul, self.shape[-1])

    def __mul__(self, other):
        """Entrywise product with anything ``of`` converts, broadcast as in numpy."""
        return self._product(PairMatrix.of(other), np.multiply, 1)

    __rmul__ = __mul__

    def __add__(self, other):
        """Sum with anything ``of`` converts, broadcast as in numpy."""
        ((a1, b1), (a2, b2)), den = _common([self, PairMatrix.of(other)])
        return PairMatrix(a1 + a2, b1 + b2, den)

    def __sub__(self, other):
        return self + (-PairMatrix.of(other))

    def __truediv__(self, other):
        """Entrywise quotient by anything ``of`` converts, broadcast as in numpy."""
        return self * PairMatrix.of(other)._reciprocal()

    def __rtruediv__(self, other):
        return PairMatrix.of(other) * self._reciprocal()

    def _reciprocal(self):
        # den / (a + b r) = den (a - b r) / norm with norm = a^2 - 2 b^2, zero
        # only where a = b = 0 (r = sqrt 2 is irrational), over L = lcm of the norms
        a, b = _int_arrays(3 * max(_max_abs(self.a), _max_abs(self.b)) ** 2, self.a, self.b)
        norm = _as_array(a * a - 2 * b * b)
        if not norm.all():
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        L = lcm(*norm.reshape(-1).tolist())
        a, b, norm = _int_arrays(self.den * max(_max_abs(a), _max_abs(b)) * L, a, b, norm)
        scale = self.den * (L // norm)
        return PairMatrix(a * scale, -b * scale, L)

    def __neg__(self):
        return PairMatrix(-self.a, -self.b, self.den)

    def __abs__(self):
        return self * self.sign()

    def sum(self, axis=-1):
        """The sum along ``axis``, the last by default, as numpy's."""
        bound = max(_max_abs(self.a), _max_abs(self.b)) * max(self.shape[axis], 1)
        a, b = _int_arrays(bound, self.a, self.b)
        return PairMatrix(_as_array(a.sum(axis=axis)), _as_array(b.sum(axis=axis)), self.den)

    def sign(self):
        """The exact sign (-1, 0 or +1) of every entry, as an integer array.

        a + b*sqrt(2) has the sign of a and b where they agree (or one is
        zero); otherwise the sign of a times that of a^2 - 2 b^2, which is
        never zero then since sqrt 2 is irrational.  Only those entries
        are squared.
        """
        def signs(x):  # np.sign hands Python ints back for 0-d object arrays
            return np.asarray(np.sign(x), dtype=int)

        sa, sb = signs(self.a), signs(self.b)
        out = signs(sa + sb)
        mixed = sa * sb < 0
        if mixed.any():
            a, b = self.a[mixed], self.b[mixed]
            a, b = _int_arrays(3 * max(_max_abs(a), _max_abs(b)) ** 2, a, b)
            out[mixed] = sa[mixed] * signs(a * a - 2 * b * b)
        return out

    def is_zero(self):
        return not (self.a.any() or self.b.any())

    def reduced(self):
        """The same matrix over its least common denominator, as ``of`` builds it."""
        return _reduce_members(self.a[None], self.b[None], [self.den])[0]

    def unstack(self):
        """The members of a stack along axis 0, each reduced on its own."""
        return _reduce_members(self.a, self.b, [self.den] * len(self.a))

    def item(self, *idx):
        """One entry as a QSqrt2; ``idx`` as numpy's ndarray.item takes it."""
        return QSqrt2(Fraction(self.a.item(*idx), self.den),
                      Fraction(self.b.item(*idx), self.den))

    def __array__(self, dtype=None, copy=None):
        """The float view: every entry as float(a/den) + float(b/den)*sqrt(2.0),
        each quotient correctly rounded, bit for bit."""
        if dtype is not None and np.dtype(dtype) != np.float64:
            raise TypeError("a PairMatrix converts to float64 arrays only")
        return np.asarray(_quotient(self.a, self.den) + _quotient(self.b, self.den) * sqrt(2.0))


def is_exact(x):
    """Is x exact data, a PairMatrix or a QSqrt2 or rational scalar, rather than float data?"""
    return isinstance(x, (PairMatrix, QSqrt2, Rational))


def identity_like(x):
    """The identity on the last axis of x, on its backend: a PairMatrix for
    exact x, else a float array."""
    n = x.shape[-1]
    return PairMatrix.identity(n) if is_exact(x) else np.eye(n)


# -- fraction-free elimination on the integer arrays ----------------------

def _eliminate(a, b, ncols, bound):
    """The column steps of _echelon on a (T, m, n) stack from the running
    bound ``bound``: (a, b) as (T * m, n) arrays and each row's pivot column."""
    T, m, n = a.shape
    # the members' rows one after the other: row r belongs to member r // m
    a, b = a.reshape(T * m, n), b.reshape(T * m, n)
    first_row = np.arange(T) * m
    pivot_col = np.full(T * m, ncols)  # ncols: not a pivot row
    for col in range(ncols):
        meets = (a[:, col] != 0) | (b[:, col] != 0)
        candidates = (meets & (pivot_col == ncols)).reshape(T, m)
        has = candidates.any(axis=1)
        if not has.any():
            continue
        a, b = _int_arrays(6 * bound * bound, a, b)
        weight = (np.abs(a[:, col]) + np.abs(b[:, col])).reshape(T, m)
        p = np.argmin(np.where(candidates, weight, 2 * bound + 1), axis=1) + first_row
        meets[p] = False
        if not has.all():
            meets &= np.repeat(has, m)
        rows = np.flatnonzero(meets)
        piv = p[rows // m] if T > 1 else p  # each row's pivot row
        pa, pb = a[piv, col, None], b[piv, col, None]
        ra, rb = a[rows, col, None], b[rows, col, None]
        xa, xb, ya, yb = a[rows], b[rows], a[piv], b[piv]
        new_a = pa * xa + 2 * pb * xb - (ra * ya + 2 * rb * yb)
        new_b = pa * xb + pb * xa - (ra * yb + rb * ya)
        g = np.gcd(np.gcd.reduce(new_a, axis=1), np.gcd.reduce(new_b, axis=1))
        g[g == 0] = 1
        new_a //= g[:, None]
        new_b //= g[:, None]
        a[rows], b[rows] = new_a, new_b
        bound = max(bound, _max_abs(new_a), _max_abs(new_b))
        pivot_col[p[has]] = col
    return a, b, pivot_col


def _blocks(nz):
    """Connected components of every member of a (T, m, n) nonzero pattern,
    a row and a column joined where their entry is nonzero.  Returns one
    label per node, the T * m rows (flat) and then the T * n columns: the
    least row of its component (its own number if it meets nothing).

    Each pass lowers every label to the least one across its entries and
    then to the label of the node it names, until no label moves.
    """
    T, m, n = nz.shape
    row, col = np.divmod(np.flatnonzero(nz), n)
    col += T * m + row // m * n
    labels = np.arange(T * (m + n))
    while True:
        moved = labels.copy()
        np.minimum.at(moved, row, labels[col])
        np.minimum.at(moved, col, moved[row])
        moved = moved[moved]
        if np.array_equal(moved, labels):
            return labels
        labels = moved


def _slots(block, src, count, pad):
    """A (count, width) table: row k holds, in order, the ``src`` entries
    whose ``block`` is k, padded with ``pad``."""
    sizes = np.bincount(block, minlength=count)
    order = np.argsort(block, kind="stable")
    place = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    table = np.full((count, sizes.max(initial=0)), pad)
    table[block[order], place] = src[order]
    return table


def _blocked(a, b, ncols, bound):
    """_eliminate on the connected blocks of rows and pivot columns of every
    member of the (T, m, n) stack, returning what _eliminate returns.

    No step leaves a block, so the blocks of all members are eliminated as
    the members of one zero-padded stack, each with its rows and pivot
    columns in order and every carried column, and scattered back.  With
    one block per member the stack goes through as it is.
    """
    T, m, n = a.shape
    nz = (a[..., :ncols] != 0) | (b[..., :ncols] != 0)
    labels = _blocks(nz)
    rows = np.flatnonzero(nz.any(axis=2))
    leaders = rows[labels[rows] == rows]  # the first row of every block
    members = leaders // m
    if not (members[1:] == members[:-1]).any():
        return _eliminate(a, b, ncols, bound)
    cols = np.flatnonzero(nz.any(axis=1))
    # row T * m and column n of the padded arrays are the zero padding
    src_row = _slots(np.searchsorted(leaders, labels[rows]), rows, len(leaders), T * m)
    src_col = _slots(np.searchsorted(leaders, labels[T * m + cols]), cols % ncols,
                     len(leaders), n)
    width = src_col.shape[1]
    src_col = np.hstack([src_col, np.broadcast_to(np.arange(ncols, n), (len(leaders), n - ncols))])
    index = src_row[:, :, None], src_col[:, None, :]
    padded = [np.zeros((T * m + 1, n + 1), dtype=x.dtype) for x in (a, b)]
    padded[0][:-1, :-1], padded[1][:-1, :-1] = a.reshape(T * m, n), b.reshape(T * m, n)
    ka, kb, kpiv = _eliminate(padded[0][index], padded[1][index], width, bound)
    # the entries written to the padding are all zero
    padded = [x.astype(ka.dtype, copy=False) for x in padded]
    padded[0][index] = ka.reshape(src_row.shape + (-1,))
    padded[1][index] = kb.reshape(src_row.shape + (-1,))
    kpiv = kpiv.reshape(src_row.shape)
    k, i = np.nonzero(kpiv < width)
    pivot_col = np.full(T * m + 1, ncols)
    pivot_col[src_row[k, i]] = src_col[k, kpiv[k, i]]
    return padded[0][:-1, :-1], padded[1][:-1, :-1], pivot_col[:-1]


def _echelon(pm, ncols):
    """Fraction-free reduced row echelon forms of a (T, m, n) stack over Z[sqrt 2].

    An (m, n) matrix is a stack of one.  Pivots are taken in the first
    ``ncols`` columns only; the columns past them are carried along
    (right-hand sides).  Zero rows and the common denominator are
    dropped.  At each column every member takes its own pivot, the
    smallest |a| + |b| of its non-pivot rows meeting it (the first on
    ties), and one array step rewrites every row that meets it, row :=
    p*row - row[col]*pivot, then divides each by its gcd.  Returns (a, b,
    pivot_col, rest): row k of a[t], b[t] has its pivot in column
    pivot_col[t, k] (increasing; ncols past the pivot rows) and zeros in
    the other pivot columns; rest[t] says whether member t has a nonzero
    row left (zero in the first ``ncols`` columns).
    """
    pm = pm[None] if len(pm.shape) == 2 else pm
    keep = ((pm.a != 0) | (pm.b != 0)).any(axis=(0, 2))
    T, m = len(pm.a), int(keep.sum())
    a, b = pm.a[:, keep], pm.b[:, keep]
    # running bound on max|entry|: only the rewritten rows can grow
    a, b, pivot_col = _blocked(a, b, ncols, max(_max_abs(a), _max_abs(b)))
    first_row = np.arange(T) * m
    pivot_col = pivot_col.reshape(T, m)
    rest = (((a != 0) | (b != 0)).any(axis=1).reshape(T, m) & (pivot_col == ncols)).any(axis=1)
    order = np.argsort(pivot_col, axis=1, kind="stable")  # pivot rows first
    return (a[order + first_row[:, None]], b[order + first_row[:, None]],
            np.take_along_axis(pivot_col, order, axis=1), rest.tolist())


def _back_substitute(a, b, pivot_col, rhs, nrows, basis=False):
    """One reduced PairMatrix x_t per member: x_t[pivot_col[t, k]] = rhs[t, k] / pivot k.

    ``a``, ``b``, ``pivot_col`` are what _echelon returns and ``rhs`` the
    (a, b) arrays of the numerators, aligned with its rows.  c / p is
    c * conj(p) / norm(p), over the lcm of the member's pivot norms, so
    x_t equals PairMatrix.of of the same quotients.  With ``basis`` (rhs
    the negated rows), x_t[j, j] = 1 for each free column j and only
    those columns are kept: the nullspace basis of member t.
    """
    t, k = np.nonzero(pivot_col < nrows)
    j, owner = pivot_col[t, k], t.tolist()
    pa, pb = a[t, k, j].tolist(), b[t, k, j].tolist()
    norms = [x * x - 2 * y * y for x, y in zip(pa, pb)]  # nonzero: sqrt 2 is irrational
    dens = [lcm(*(n for i, n in zip(owner, norms) if i == u)) for u in range(len(pivot_col))]
    scale = [dens[i] // n for i, n in zip(owner, norms)]
    ca, cb = rhs[0][t, k], rhs[1][t, k]
    bound = max([3 * max(_max_abs(ca), _max_abs(cb)) * max(map(abs, pa + pb), default=0)
                 * max(map(abs, scale), default=0), *dens])
    ca, cb, pa, pb, scale = _int_arrays(bound, ca, cb, *(np.array(v, dtype=object)[:, None]
                                                          for v in (pa, pb, scale)))
    xa = np.zeros((len(pivot_col), nrows, ca.shape[1]), dtype=ca.dtype)
    xb = np.zeros_like(xa)
    xa[t, j] = (ca * pa - 2 * cb * pb) * scale
    xb[t, j] = (cb * pa - ca * pb) * scale
    if not basis:
        return _reduce_members(xa, xb, dens)
    # add I: pivot column j of x_t is -e_j and vanishes, a free column j gets its 1 at j
    diag = np.arange(nrows)
    xa[:, diag, diag] += np.array(dens, dtype=xa.dtype)[:, None]
    free = np.ones(xa.shape[:2], dtype=bool)
    free[t, j] = False
    return [x[:, keep] for x, keep in zip(_reduce_members(xa, xb, dens), free)]


def exact_pivots(matrix):
    """Pivot columns: each column that is not in the span of the ones before it."""
    pm = PairMatrix.of(matrix)
    cols = _echelon(pm, pm.shape[1])[2][0]
    return cols[cols < pm.shape[1]].tolist()


def exact_rank(matrix):
    pm = PairMatrix.of(matrix)
    return len(exact_pivots(pm)) if pm.size else 0


def exact_nullspace(matrix):
    """Basis of {x : M x = 0} as the columns of one PairMatrix.

    One column per free variable of M, in order: that variable is 1,
    the other free variables are 0.  A (T, m, n) stack gives the list of
    the T bases, all from one elimination; each is the basis its member
    gives alone.
    """
    pm = PairMatrix.of(matrix)
    a, b, pivot_col, _ = _echelon(pm, pm.shape[-1])
    bases = _back_substitute(a, b, pivot_col, (-a, -b), pm.shape[-1], basis=True)
    return bases if len(pm.shape) == 3 else bases[0]


def exact_solve(matrix, rhs):
    """Solve M x = rhs exactly as a PairMatrix; return None if inconsistent.

    ``rhs`` is a vector or a matrix of right-hand sides (the result has
    the same shape class).  For underdetermined systems the particular
    solution with every free variable zero is returned.
    """
    pm, r = PairMatrix.of(matrix), PairMatrix.of(rhs)
    ncols = pm.shape[1]
    columns = r[:, None] if len(r.shape) == 1 else r
    a, b, pivot_col, rest = _echelon(PairMatrix.concat([pm, columns], axis=1), ncols)
    if rest[0]:
        return None  # a nonzero row with no pivot: inconsistent
    x = _back_substitute(a, b, pivot_col, (a[:, :, ncols:], b[:, :, ncols:]), ncols)[0]
    return x[:, 0] if len(r.shape) == 1 else x


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
