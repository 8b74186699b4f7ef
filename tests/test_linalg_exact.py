from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvar.linalg_exact import (PairMatrix, exact_array, exact_identity, exact_in_span,
                                 exact_inverse, exact_nullspace, exact_pivots, exact_rank,
                                 exact_solve, is_zero_matrix)
from coxvar.scalars import QSqrt2


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
    m = exact_array([[1, 1, 0], [0, 0, 1]])
    ns = exact_nullspace(m)
    assert ns.shape == (3, 1)
    assert (PairMatrix.of(m) @ ns).is_zero()


def test_rank_and_inverse():
    m = PairMatrix.of(exact_array([[1, QSqrt2(0, 1)], [QSqrt2(0, 1), 1]]))  # det = 1 - 2 = -1
    assert exact_rank(m) == 2
    inv = exact_inverse(m)
    assert (m @ inv - PairMatrix.identity(2)).is_zero()


def test_solve_consistent_and_inconsistent():
    m = exact_array([[1, 0], [0, 1], [1, 1]])
    rhs = exact_array([1, QSqrt2(0, 1), QSqrt2(1, 1)])
    x = exact_solve(m, rhs)
    assert x is not None and (PairMatrix.of(m) @ x - PairMatrix.of(rhs)).is_zero()
    bad = exact_array([1, QSqrt2(0, 1), 0])
    assert exact_solve(m, bad) is None


def test_singular_inverse_raises():
    m = exact_array([[1, 1], [1, 1]])
    with pytest.raises(ZeroDivisionError):
        exact_inverse(m)


def test_in_span():
    v1 = exact_array([1, 0, QSqrt2(0, 1)])
    v2 = exact_array([0, 1, 1])
    target = exact_array([2, 3, QSqrt2(3, 2)])
    assert exact_in_span([v1, v2], target)
    assert not exact_in_span([v1, v2], exact_array([0, 0, 1]))
    assert exact_in_span([PairMatrix.of(v1), v2], PairMatrix.of(target))
    # the empty span holds only zero
    assert exact_in_span([], exact_array([0, 0, 0]))
    assert not exact_in_span([], v1)


small = st.integers(min_value=-4, max_value=4)
entry = st.builds(lambda a, b: QSqrt2(a, b), small, small)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_rank_nullity_random(nrows, ncols, data):
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    m = exact_array(rows)
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
    return exact_array(rows).reshape(nrows, ncols)


def _same(pm, arr):
    got = pm.exact()
    return got.shape == arr.shape and all(x == y for x, y in zip(got.reshape(-1),
                                                                 arr.reshape(-1)))


def _canonical(pm):
    """Are den and the integers exactly those PairMatrix.of gives for the same values?"""
    ref = PairMatrix.of(pm.exact())
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
    assert (px @ py - pz).is_zero() == is_zero_matrix(x @ y - z)
    assert (pz - pz).is_zero()


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
        outside = [c for c in range(nrows) if exact_rank(np.hstack(
            [m, exact_identity(nrows)[:, c:c + 1]])) > r][0]
        assert exact_solve(m, exact_identity(nrows)[:, outside]) is None


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
    assert _same(prod - prod, x @ y - x @ y) and (prod - prod).is_zero()
    assert exact_rank(x) == _rref_rank(x, k)
    assert (px @ exact_nullspace(x)).is_zero()
