from fractions import Fraction
from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxvar import linalg_exact
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


def test_zero_d_quotients_and_reductions_beyond_int64():
    # numpy returns 0-d object-array arithmetic as Python ints
    x, y = PairMatrix.of(QSqrt2(2 ** 40, 3)), PairMatrix.of(QSqrt2(2 ** 70, -3))
    xv, yv = PairMatrix.of([QSqrt2(2 ** 40, 3)]), PairMatrix.of([QSqrt2(2 ** 70, -3)])
    for got, one in [(2 / x, 2 / xv), (y / x, yv / xv), ((y * 2).reduced(), (yv * 2).reduced())]:
        assert got.shape == ()
        assert got.item() == one.item(0)


def test_unstack_reduces_each_member():
    stack = PairMatrix.stack([PairMatrix.of([[Fraction(1, 2), 0]]),
                              PairMatrix.of([[QSqrt2(0, Fraction(1, 3)), 1]]),
                              PairMatrix.zeros((1, 2)), PairMatrix.of([[2 ** 70, 1]])])
    assert stack.den == 6
    for t, member in enumerate(stack.unstack()):
        assert _canonical(member) and _identical(member, stack[t].reduced())
    assert _identical(stack.reduced(), PairMatrix.of(_values(stack)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_entrywise_division_matches_object_arrays(n, k, data):
    x = _matrix(data, n, k)
    assume(all(v != 0 for v in x.reshape(-1)))
    y = _matrix(data, n, k)
    px, py = PairMatrix.of(x), PairMatrix.of(y)
    assert _same(2 / px, 2 / x) and _same(py / px, y / x)
    assert _canonical((py / px).reduced())
    # norms and their lcm past 2**62 run on Python ints
    huge = PairMatrix.of(x * (2 ** 40 + 1))
    assert huge.a.dtype == np.int64 and _same(1 / huge, 1 / (x * (2 ** 40 + 1)))
    with pytest.raises(ZeroDivisionError):
        py / PairMatrix.zeros((n, k))


near_2_25 = st.integers(2 ** 25 - 2 ** 10, 2 ** 25) | st.integers(-2 ** 25, -2 ** 25 + 2 ** 10)


def _pair_operand(data, shape):
    """A PairMatrix of ``shape`` on int64 or Python-int arrays, entries up to
    2**25 and the first entry of a near it; or all near 2**25 and positive,
    so that the sums come close to the bound."""
    size = int(np.prod(shape))
    aligned = data.draw(st.booleans())
    entries = st.integers(2 ** 25 - 2 ** 10, 2 ** 25) if aligned else near_2_25 | small
    a, b = (data.draw(st.lists(entries, min_size=size, max_size=size)) for _ in "ab")
    if not aligned:
        a[0] = data.draw(near_2_25)
    dtype = data.draw(st.sampled_from([np.int64, object]))
    return PairMatrix(np.array(a, dtype=dtype).reshape(shape),
                      np.array(b, dtype=dtype).reshape(shape), data.draw(st.integers(1, 6)))


@pytest.mark.parametrize("terms", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_float_products_match_the_integer_path(terms, data):
    # 3 * m1 * m2 * terms is below 2**53 for terms 1 and 2 (float64 BLAS) and
    # above it for 3 and 4 (int64), with m1, m2 within 2**10 of 2**25
    n, m, T = (data.draw(st.integers(1, 3)) for _ in range(3))
    left, right = data.draw(st.sampled_from([
        ((n, terms), (terms, m)), ((T, n, terms), (T, terms, m)), ((T, n, terms), (terms, m)),
        ((1, n, terms), (T, terms, m)), ((terms,), (terms, m)), ((terms,), (terms,))]))
    x, y = _pair_operand(data, left), _pair_operand(data, right)
    m1, m2 = (max(np.abs(p.a).max(), np.abs(p.b).max()) for p in (x, y))
    assert (3 * m1 * m2 * terms < 2 ** 53) == (terms < 3)
    got = x @ y
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg_exact, "_FLOAT_EXACT", 0)
        want = x @ y
    assert _identical(got, want) and got.a.dtype == np.int64


# -- blocks in lockstep against the elimination of whole members ----------------

def _reference_echelon(pm, ncols):
    """_echelon with one column step per pivot column of the whole stack, as it
    ran before blocks were split off: the reference for the lockstep blocks."""
    pm = pm[None] if len(pm.shape) == 2 else pm
    keep = ((pm.a != 0) | (pm.b != 0)).any(axis=(0, 2))
    T, m, n = len(pm.a), int(keep.sum()), pm.shape[-1]
    # the members' rows one after the other: row r belongs to member r // m
    a, b = pm.a[:, keep].reshape(T * m, n), pm.b[:, keep].reshape(T * m, n)
    first_row = np.arange(T) * m
    # running bound on max|entry|: only the rewritten rows can grow
    bound = max(linalg_exact._max_abs(a), linalg_exact._max_abs(b))
    pivot_col = np.full(T * m, ncols)  # ncols: not a pivot row
    for col in range(ncols):
        meets = (a[:, col] != 0) | (b[:, col] != 0)
        candidates = (meets & (pivot_col == ncols)).reshape(T, m)
        has = candidates.any(axis=1)
        if not has.any():
            continue
        a, b = linalg_exact._int_arrays(6 * bound * bound, a, b)
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
        bound = max(bound, linalg_exact._max_abs(new_a), linalg_exact._max_abs(new_b))
        pivot_col[p[has]] = col
    pivot_col = pivot_col.reshape(T, m)
    rest = (((a != 0) | (b != 0)).any(axis=1).reshape(T, m) & (pivot_col == ncols)).any(axis=1)
    order = np.argsort(pivot_col, axis=1, kind="stable")  # pivot rows first
    return (a[order + first_row[:, None]], b[order + first_row[:, None]],
            np.take_along_axis(pivot_col, order, axis=1), rest.tolist())


def _block_member(data, kind, nrows, ncols, carried):
    """(a, b) Python-int lists of one member: blocks on disjoint rows and
    columns, both shuffled, then ``carried`` dense right-hand-side columns."""
    a = [[0] * (ncols + carried) for _ in range(nrows)]
    b = [[0] * (ncols + carried) for _ in range(nrows)]
    if kind == "zero":
        return a, b
    values = {"small": small, "big": near_2_20, "huge": st.integers(2 ** 62, 2 ** 64)}[kind]
    rows = data.draw(st.permutations(range(nrows)))
    cols = data.draw(st.permutations(range(ncols)))
    r = c = 0
    while r < nrows and c < ncols:  # rows or columns left over stay zero
        h, w = data.draw(st.integers(1, nrows - r)), data.draw(st.integers(1, ncols - c))
        for i in rows[r:r + h]:
            for j in cols[c:c + w]:
                a[i][j], b[i][j] = data.draw(values), data.draw(small)
        r, c = r + h + data.draw(st.integers(0, 1)), c + w
    for row_a, row_b in zip(a, b):
        row_a[ncols:] = [data.draw(small) for _ in range(carried)]
        row_b[ncols:] = [data.draw(small) for _ in range(carried)]
    return a, b


def _int_stack(members):
    a = [x for x, _ in members]
    b = [y for _, y in members]
    top = max((abs(v) for m in a + b for row in m for v in row), default=0)
    dtype = np.int64 if top < 2 ** 62 else object
    return PairMatrix(np.array(a, dtype=dtype), np.array(b, dtype=dtype))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2), st.data())
def test_lockstep_blocks_match_whole_members(nrows, ncols, carried, data):
    kinds = data.draw(st.lists(st.sampled_from(["small", "small", "zero", "big"]),
                               min_size=1, max_size=4))
    if data.draw(st.booleans()):
        kinds[data.draw(st.integers(0, len(kinds) - 1))] = "huge"
    stack = _int_stack([_block_member(data, kind, nrows, ncols, carried) for kind in kinds])
    for pm in (stack, stack[0]):
        got, want = _echelon(pm, ncols), _reference_echelon(pm, ncols)
        for x, y in zip(got[:3], want[:3]):
            assert x.shape == y.shape and np.array_equal(x, y)
        assert got[3] == want[3]
    members = [stack[t] for t in range(len(kinds))]
    square = stack[:, :, :ncols]
    got = (exact_nullspace(square), [exact_pivots(m) for m in members],
           [exact_solve(m[:, :ncols], m[:, ncols:]) for m in members])
    with mock.patch.object(linalg_exact, "_echelon", _reference_echelon):
        want = (exact_nullspace(square), [exact_pivots(m) for m in members],
                [exact_solve(m[:, :ncols], m[:, ncols:]) for m in members])
    assert all(_identical(x, y) for x, y in zip(got[0], want[0]))
    assert got[1] == want[1]
    assert all(_identical(x, y) for x, y in zip(got[2], want[2]))


def test_lockstep_runs_one_step_per_column_of_the_widest_block():
    # blocks of 2 and 3 columns, rows and columns interleaved, and a zero row
    m = np.zeros((6, 5), dtype=int)
    m[np.ix_([4, 0], [3, 1])] = [[1, 2], [3, 5]]
    m[np.ix_([1, 5, 3], [0, 4, 2])] = [[2, 0, 1], [1, 1, 1], [0, 3, 1]]
    steps = []
    eliminate = linalg_exact._eliminate

    def counted(a, b, ncols, bound):
        steps.append((a.shape, ncols))
        return eliminate(a, b, ncols, bound)

    with mock.patch.object(linalg_exact, "_eliminate", counted):
        got = _echelon(PairMatrix.of(m), 5)
    assert steps == [((2, 3, 3), 3)]  # two blocks of at most 3 rows and 3 columns
    want = _reference_echelon(PairMatrix.of(m), 5)
    assert all(np.array_equal(x, y) for x, y in zip(got[:3], want[:3]))
    assert got[2].tolist() == [[0, 1, 2, 3, 4]]
    # one block per member: the stack goes through as it is
    steps.clear()
    with mock.patch.object(linalg_exact, "_eliminate", counted):
        _echelon(PairMatrix.stack([PairMatrix.of(m[:, [0, 2, 4]]),
                                   PairMatrix.of(m[:, [3, 1, 1]])]), 3)
    assert steps == [((2, 5, 3), 3)]
