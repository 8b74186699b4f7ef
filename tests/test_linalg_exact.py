from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxvar.linalg_exact import (PairMatrix, _echelon, exact_in_span, exact_inverse,
                                 exact_nullspace, exact_pivots, exact_rank, exact_solve)
from coxvar.scalars import QSqrt2


def _values(pm):
    """The QSqrt2 object array a PairMatrix stands for (the oracles' form)."""
    out = np.empty(pm.shape, dtype=object)
    for idx in np.ndindex(pm.shape):
        out[idx] = pm.item(*idx)
    return out


def _floats(arr):
    """float(a) + float(b)*sqrt(2.0) of every entry of a QSqrt2 object array."""
    vals = [v if isinstance(v, QSqrt2) else QSqrt2(v) for v in arr.reshape(-1)]
    return np.array([float(v.a) + float(v.b) * sqrt(2.0) for v in vals]).reshape(arr.shape)


def _rref_rank(rows, ncols):
    """Independent oracle: plain Fraction-pair Gaussian elimination."""
    work = [[(Fraction(e.a), Fraction(e.b)) for e in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work))
                    if work[i][col] != (Fraction(0), Fraction(0))), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pa, pb = work[rank][col]
        norm = pa * pa - 2 * pb * pb
        inv = (pa / norm, -pb / norm)
        work[rank] = [(a * inv[0] + 2 * b * inv[1], a * inv[1] + b * inv[0])
                      for a, b in work[rank]]
        for i in range(len(work)):
            if i == rank:
                continue
            fa, fb = work[i][col]
            if (fa, fb) != (0, 0):
                work[i] = [(a - (fa * c + 2 * fb * d), b - (fa * d + fb * c))
                           for (a, b), (c, d) in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_nullspace_known():
    m = PairMatrix.of([[1, 1, 0], [0, 0, 1]])
    ns = exact_nullspace(m)
    assert ns.shape == (3, 1)
    assert (m @ ns).is_zero()


def test_rank_and_inverse():
    m = PairMatrix.of([[1, QSqrt2(0, 1)], [QSqrt2(0, 1), 1]])  # det = 1 - 2 = -1
    assert exact_rank(m) == 2
    inv = exact_inverse(m)
    assert (m @ inv - PairMatrix.identity(2)).is_zero()


def test_solve_consistent_and_inconsistent():
    m = PairMatrix.of([[1, 0], [0, 1], [1, 1]])
    rhs = PairMatrix.of([1, QSqrt2(0, 1), QSqrt2(1, 1)])
    x = exact_solve(m, rhs)
    assert x is not None and (m @ x - rhs).is_zero()
    bad = [1, QSqrt2(0, 1), 0]
    assert exact_solve(m, bad) is None


def test_singular_inverse_raises():
    m = np.ones((2, 2), dtype=int)
    with pytest.raises(ZeroDivisionError):
        exact_inverse(m)


def test_in_span():
    v1 = PairMatrix.of([1, 0, QSqrt2(0, 1)])
    v2 = PairMatrix.of([0, 1, 1])
    target = PairMatrix.of([2, 3, QSqrt2(3, 2)])
    assert exact_in_span([v1, v2], target)
    assert not exact_in_span([v1, v2], PairMatrix.of([0, 0, 1]))
    # anything PairMatrix.of converts: scalar lists and integer arrays
    assert exact_in_span([[1, 0, QSqrt2(0, 1)], np.array([0, 1, 1])], [2, 3, QSqrt2(3, 2)])
    # the empty span holds only zero
    assert exact_in_span([], PairMatrix.zeros(3))
    assert not exact_in_span([], v1)


small = st.integers(min_value=-4, max_value=4)
entry = st.builds(lambda a, b: QSqrt2(a, b), small, small)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_rank_nullity_random(nrows, ncols, data):
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    m = np.array(rows, dtype=object)
    r = exact_rank(m)
    ns = exact_nullspace(m)
    assert r == _rref_rank(m, ncols)
    assert r + ns.shape[1] == ncols
    assert (PairMatrix.of(m) @ ns).is_zero()


# -- the integer-pair core against QSqrt2 object arrays ----------------------

frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
field_entry = st.builds(QSqrt2, frac, frac)


def _matrix(data, nrows, ncols, elements=field_entry):
    rows = [[data.draw(elements) for _ in range(ncols)] for _ in range(nrows)]
    return np.array(rows, dtype=object).reshape(nrows, ncols)


def _same(pm, arr):
    got = _values(pm)
    return got.shape == arr.shape and all(x == y for x, y in zip(got.reshape(-1),
                                                                 arr.reshape(-1)))


def _canonical(pm):
    """Are den and the integers exactly those PairMatrix.of gives for the same values?"""
    ref = PairMatrix.of(_values(pm))
    return (pm.den == ref.den and pm.a.dtype == ref.a.dtype
            and np.array_equal(pm.a, ref.a) and np.array_equal(pm.b, ref.b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_pair_arithmetic_matches_object_arrays(n, k, m, data):
    x = _matrix(data, n, k)
    y = _matrix(data, k, m)
    z = _matrix(data, n, m)
    px, py, pz = PairMatrix.of(x), PairMatrix.of(y), PairMatrix.of(z)
    assert _same(px, x)
    assert _same(px @ py, x @ y)
    assert _same(px @ py - pz, x @ y - z)
    assert _same(pz + pz, z + z)
    assert _same(PairMatrix.concat([px @ py, pz], axis=1), np.hstack([x @ y, z]))
    # scattering blocks into zeros gives what concatenating with zero blocks gives
    zeros = np.full((n, 2), QSqrt2(0), dtype=object)
    assert _same(PairMatrix.assemble((2 * n, m + 2), [(0, 0, pz), (n, 2, px @ py)]),
                 np.block([[z, zeros], [zeros, x @ y]]))
    assert _same(pz * pz, z * z) and _same(2 * pz, 2 * z)
    assert (px @ py - pz).is_zero() == all(v == 0 for v in (x @ y - z).reshape(-1))
    assert (pz - pz).is_zero()
    # the float view is float(a) + float(b)*sqrt(2.0) of every entry, bit for bit
    assert np.array_equal(np.asarray(pz, dtype=float), _floats(z))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_elimination_identities(nrows, ncols, data):
    m = _matrix(data, nrows, ncols)
    r = exact_rank(m)
    pivots = exact_pivots(m)
    assert r == len(pivots) == _rref_rank(m, ncols)
    # pivot columns: each one is independent of the columns before it
    for c in range(ncols):
        assert (c in pivots) == (exact_rank(m[:, :c + 1]) > exact_rank(m[:, :c]))
        assert (c in pivots) != exact_in_span([m[:, j] for j in range(c)], m[:, c])
    pm = PairMatrix.of(m)
    ns = exact_nullspace(m)
    assert ns.shape == (ncols, ncols - r) and _canonical(ns)
    free = [c for c in range(ncols) if c not in pivots]
    assert (pm @ ns).is_zero()
    # column j of the basis is 1 at the j-th free variable and 0 at the others
    assert (ns[free] - PairMatrix.identity(len(free))).is_zero()
    b = m @ _matrix(data, ncols, 2)
    x = exact_solve(m, b)
    assert (pm @ x - PairMatrix.of(b)).is_zero() and _canonical(x)
    assert x[free].is_zero()  # free variables are zero
    col = exact_solve(m, b[:, 0])
    assert col.shape == (ncols,) and (pm @ col - PairMatrix.of(b[:, 0])).is_zero()
    assert _canonical(col)
    if r == nrows == ncols:
        inv = exact_inverse(m)
        assert _canonical(inv)
        assert (pm @ inv - PairMatrix.identity(ncols)).is_zero()
        assert (inv @ pm - PairMatrix.identity(ncols)).is_zero()
    elif r < nrows:
        # a right-hand side outside the column space has no solution
        ident = np.eye(nrows, dtype=int)
        outside = [c for c in range(nrows)
                   if exact_rank(np.hstack([m, ident[:, c:c + 1]])) > r][0]
        assert exact_solve(m, ident[:, outside]) is None


big = st.integers(2 ** 40 - 64, 2 ** 40 + 64) | st.integers(-2 ** 40 - 64, -2 ** 40 + 64)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_overflow_guard_stays_exact(n, k, data):
    # |a1 a2| * k * 3 passes 2**62 here, so products run on Python ints
    entry = st.builds(QSqrt2, big, big)
    x = _matrix(data, n, k, entry)
    y = _matrix(data, k, n, entry)
    px, py = PairMatrix.of(x), PairMatrix.of(y)
    assert px.a.dtype == np.int64
    prod = px @ py
    assert prod.a.dtype == object
    assert _same(prod, x @ y)
    assert np.array_equal(np.asarray(prod, dtype=float), _floats(x @ y))
    assert _same(prod - prod, x @ y - x @ y) and (prod - prod).is_zero()
    assert exact_rank(x) == _rref_rank(x, k)
    assert (px @ exact_nullspace(x)).is_zero()


near_2_20 = st.integers(2 ** 19, 2 ** 20) | st.integers(-2 ** 20, -2 ** 19)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_elimination_crosses_int64_guard(nrows, ncols, data):
    # 6 * max|entry|**2 is below 2**62 for the input, but the fraction-free
    # steps square the entries until the rows run on Python ints
    m = _matrix(data, nrows, ncols, st.builds(QSqrt2, near_2_20, near_2_20))
    pm = PairMatrix.of(m)
    assert pm.a.dtype == np.int64
    assume(_echelon(pm, ncols)[0].dtype == object)
    r = exact_rank(m)
    assert r == _rref_rank(m, ncols)
    ns = exact_nullspace(m)
    assert ns.shape == (ncols, ncols - r) and _canonical(ns) and (pm @ ns).is_zero()
    b = m @ _matrix(data, ncols, 2, st.builds(QSqrt2, small, small))
    x = exact_solve(m, b)
    assert _canonical(x) and (pm @ x - PairMatrix.of(b)).is_zero()


def _identical(x, y):
    """Both None, or the same den and the same integer arrays."""
    if x is None or y is None:
        return x is y
    return (x.den == y.den and x.a.dtype == y.a.dtype
            and np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_row_permutation_invariance(nrows, ncols, data):
    # the results are canonical, so the order of the equations cannot show
    m = _matrix(data, nrows, ncols)
    perm = data.draw(st.permutations(range(nrows)))
    permuted = m[perm]
    assert exact_pivots(permuted) == exact_pivots(m)
    assert len(exact_pivots(m)) == _rref_rank(m, ncols)
    ns = exact_nullspace(m)
    assert _canonical(ns) and _identical(exact_nullspace(permuted), ns)
    b = m @ _matrix(data, ncols, 2)
    x = exact_solve(m, b)
    assert _canonical(x) and _identical(exact_solve(permuted, b[perm]), x)
    # a random right-hand side, consistent or not (None), gives the same answer
    c = _matrix(data, nrows, 1)
    assert _identical(exact_solve(permuted, c[perm]), exact_solve(m, c))


def test_scalar_beyond_int64():
    # PairMatrix.of a scalar past 2**62 holds 0-d object arrays, whose numpy
    # results come back as Python ints; products and the float view still work
    big = PairMatrix.of(2 ** 70)
    vector = PairMatrix.of(np.array([1, -2, 3]))
    prod = big * vector
    assert _same(prod, np.array([2 ** 70, -2 ** 71, 3 * 2 ** 70], dtype=object))
    assert (big * big).item() == QSqrt2(2 ** 140)
    assert np.asarray(big * big, dtype=float) == float(2 ** 140)
    assert (big - big).is_zero()


# -- stacked elimination: every member as it comes out alone -------------------

def _member(data, kind, nrows, ncols):
    """One matrix of a stack: of low rank, zero, full rank, or with large entries."""
    if kind == "zero":
        return PairMatrix.zeros((nrows, ncols))
    if kind == "full":
        # unit upper triangular: rank min(nrows, ncols)
        upper = np.triu(_matrix(data, nrows, ncols), k=1)
        return PairMatrix.of(upper) + PairMatrix.identity(max(nrows, ncols))[:nrows, :ncols]
    if kind == "big":
        return PairMatrix.of(_matrix(data, nrows, ncols, st.builds(QSqrt2, near_2_20, near_2_20)))
    rank = data.draw(st.integers(0, min(nrows, ncols)))
    left = _matrix(data, nrows, rank)
    right = _matrix(data, rank, ncols)
    return PairMatrix.of(left) @ PairMatrix.of(right)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_stacked_nullspace_matches_members(nrows, ncols, data):
    kinds = data.draw(st.lists(st.sampled_from(["rank", "zero", "full", "big"]),
                               min_size=1, max_size=4))
    members = [_member(data, kind, nrows, ncols) for kind in kinds]
    bases = exact_nullspace(PairMatrix.stack(members))
    assert len(bases) == len(members)
    for member, basis in zip(members, bases):
        # den, dtype and both integer arrays as the member's own elimination gives them
        assert _identical(basis, exact_nullspace(member)) and _canonical(basis)
        assert (member @ basis).is_zero()


def test_stacked_nullspace_mixed_ranks_and_int64_switch():
    rng = np.random.default_rng(3)
    small = PairMatrix(rng.integers(-3, 4, (3, 4)), rng.integers(-3, 4, (3, 4)))
    signs = rng.choice([-1, 1], (2, 3, 4))
    big = PairMatrix(*(rng.integers(2 ** 19, 2 ** 20, (2, 3, 4)) * signs))
    rank_one = PairMatrix.of(np.outer([1, 2, 0], [0, 1, -1, 3]))
    members = [small, PairMatrix.zeros((3, 4)), big, rank_one, PairMatrix.identity(4)[:3]]
    stack = PairMatrix.stack(members)
    # one member pushes the whole stack onto Python ints; alone the others stay int64
    assert stack.a.dtype == np.int64 and _echelon(stack, 4)[0].dtype == object
    assert _echelon(small, 4)[0].dtype == np.int64
    bases = exact_nullspace(stack)
    assert [b.shape[1] for b in bases] == [1, 4, 1, 3, 1]
    for member, basis in zip(members, bases):
        assert _identical(basis, exact_nullspace(member))
    assert bases[0].a.dtype == np.int64
    # a 2-D matrix is a stack of one and gives one basis
    assert _identical(exact_nullspace(small), exact_nullspace(small[None])[0])


def test_zero_matrix_reduces_to_den_one():
    # the gcd of a zero matrix is its whole den, here past int64
    m = PairMatrix.of([Fraction(1, 2 ** 70), 0])
    zero = m - m
    assert zero.den == 2 ** 70 and zero.a.dtype == np.int64
    for member in [zero.reduced(), *PairMatrix.stack([zero, zero]).unstack()]:
        assert _identical(member, PairMatrix.zeros(2))


def test_unstack_reduces_each_member():
    stack = PairMatrix.stack([PairMatrix.of([[Fraction(1, 2), 0]]),
                              PairMatrix.of([[QSqrt2(0, Fraction(1, 3)), 1]]),
                              PairMatrix.zeros((1, 2)), PairMatrix.of([[2 ** 70, 1]])])
    assert stack.den == 6
    for t, member in enumerate(stack.unstack()):
        assert _canonical(member) and _identical(member, stack[t].reduced())
    assert _identical(stack.reduced(), PairMatrix.of(_values(stack)))
