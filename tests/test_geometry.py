import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coxvar.coxeter import GAMMA22_NAMES, cuboctahedron_vectors, gamma22_vectors, gamma_co
from coxvar.geometry import (POSITION_CLASSES, CoincidentHyperplanes, DegenerateNormal,
                             DimensionMismatch, GeometryError, MixedTypePair, NotUnitSpacelike,
                             PairClassAdS, PairClassHyp, QuadraticSpace, classify_pair,
                             classify_pair_ads, classify_pair_hyp, eval_bilinear, eval_form,
                             pair_positions, reflection_matrix)
from coxvar.linalg_exact import PairMatrix
from coxvar.repvar import standard_lift_ads

H4 = QuadraticSpace.hyperbolic(4)
ADS4 = QuadraticSpace.anti_de_sitter(4)
MINK = QuadraticSpace.minkowski(4)
TABLE = {n: gamma22_vectors()[k] for k, n in enumerate(GAMMA22_NAMES)}
CUBO = {n: cuboctahedron_vectors()[k] for k, n in enumerate(gamma_co().generators)}


def _vec(*coords):
    return PairMatrix.of(np.array(coords))


def test_eval_form_unit_vectors():
    # table vectors are unit after the sqrt2 normalisation
    assert eval_form(H4, TABLE["0+"]).item() == 1
    assert eval_form(H4, _vec(1, 0, 0, 0, 0)).item() == -1
    ads = standard_lift_ads(0.5)
    assert abs(eval_form(ADS4, ads.vectors["0+"]) + 1) < 1e-14


def test_eval_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_form(H4, _vec(1, 0, 0))


def test_eval_bilinear_examples():
    assert eval_bilinear(H4, TABLE["A"], TABLE["0+"]).item() == 0
    assert eval_bilinear(H4, TABLE["A"], TABLE["B"]).item() == -1
    zero = _vec(0, 0, 0, 0, 0)
    assert eval_bilinear(H4, TABLE["A"], zero).item() == 0
    # symmetry and polarisation
    assert (eval_bilinear(H4, TABLE["A"], TABLE["C"]).item()
            == eval_bilinear(H4, TABLE["C"], TABLE["A"]).item())
    assert eval_bilinear(H4, TABLE["A"], TABLE["A"]).item() == eval_form(H4, TABLE["A"]).item()


def test_reflection_coordinate():
    m = reflection_matrix(H4, _vec(0, 0, 0, 0, 1))
    assert (m - PairMatrix.of(np.diag([1, 1, 1, 1, -1]))).is_zero()


def test_reflection_involution_and_fixed_vectors():
    m = reflection_matrix(H4, TABLE["A"])
    assert (m @ m - PairMatrix.identity(5)).is_zero()
    # orthogonality forces fixedness: v_0 is b-orthogonal to v_A in R^{1,3}
    r = reflection_matrix(MINK, CUBO["A"])
    v0 = CUBO["0"]
    assert (r @ v0 - v0).is_zero()
    # X and -X give the same reflection
    assert (reflection_matrix(H4, -TABLE["A"]) - m).is_zero()


def test_reflection_degenerate_normal():
    with pytest.raises(DegenerateNormal):
        reflection_matrix(H4, _vec(1, 1, 0, 0, 0))
    with pytest.raises(DegenerateNormal):
        reflection_matrix(H4, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))


def _identical(x, y):
    """The same den, dtype and integer arrays."""
    return (x.den == y.den and x.a.dtype == y.a.dtype
            and np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b))


def test_reflection_stack_matches_single_reflections():
    names = sorted(CUBO)
    stack = reflection_matrix(MINK, PairMatrix.stack([CUBO[n] for n in names]))
    assert stack.shape == (14, 4, 4)
    for n, member in zip(names, stack.unstack()):
        assert _identical(member, reflection_matrix(MINK, CUBO[n]))
    table = reflection_matrix(H4, gamma22_vectors().reshape(2, 11, 5))
    assert table.shape == (2, 11, 5, 5)
    for k, n in enumerate(TABLE):
        member = table[k // 11, k % 11][None].unstack()[0]
        assert _identical(member, reflection_matrix(H4, TABLE[n]))
    # float normals: each member bit for bit
    rng = np.random.default_rng(11)
    normals = rng.normal(size=(3, 4, 5)) * np.array([0.5, 1, 1, 1, 1])
    stack = reflection_matrix(H4, normals)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(stack[idx], reflection_matrix(H4, normals[idx]))


def test_reflection_stack_rejects_a_lightlike_normal():
    normals = PairMatrix.stack([TABLE["A"], _vec(1, 1, 0, 0, 0), TABLE["B"]])
    with pytest.raises(DegenerateNormal):
        reflection_matrix(H4, normals)
    with pytest.raises(DegenerateNormal):
        reflection_matrix(H4, np.array(normals, dtype=float))


def test_classify_pair_hyp_table_examples():
    assert classify_pair_hyp(TABLE["A"], TABLE["B"]) == PairClassHyp.TANGENT_AT_INFINITY
    assert classify_pair_hyp(TABLE["A"], TABLE["F"]) == PairClassHyp.DISJOINT
    assert classify_pair_hyp(TABLE["A"], TABLE["0+"]) == PairClassHyp.INTERSECTING


def test_classify_pair_hyp_errors():
    with pytest.raises(NotUnitSpacelike):
        classify_pair_hyp(_vec(1, 0, 0, 0, 0), TABLE["A"])
    with pytest.raises(CoincidentHyperplanes):
        classify_pair_hyp(TABLE["A"], -TABLE["A"])


def test_classify_pair_ads_examples():
    y1 = np.array([0.0, 1, 0, 0, 0])
    theta = math.pi / 4
    y2 = np.array([0.0, math.cos(theta), math.sin(theta), 0, 0])
    assert classify_pair_ads(y1, y2) == PairClassAdS.TIMELIKE_INTERSECTION
    y3 = np.array([0.0, math.cosh(1), 0, 0, math.sinh(1)])
    assert classify_pair_ads(y1, y3) == PairClassAdS.SPACELIKE_INTERSECTION
    y4 = np.array([0.0, 1, 1, 0, -1])  # timelike, pairing 1 with y1
    assert classify_pair_ads(y1, y4) == PairClassAdS.LIGHTLIKE_INTERSECTION
    x1 = np.array([1.0, 0, 0, 0, 0])
    x2 = np.array([math.cosh(1), math.sinh(1), 0, 0, 0])
    assert classify_pair_ads(x1, x2) == PairClassAdS.INTERSECTING
    # spacelike pair from the AdS path: b(0+, 2+) = -7/3 at t = 1/2
    lift = standard_lift_ads(0.5)
    got = classify_pair_ads(lift.vectors["0+"], lift.vectors["2+"])
    assert got == PairClassAdS.INTERSECTING


def test_classify_pair_ads_mixed_type():
    with pytest.raises(MixedTypePair):
        classify_pair_ads(np.array([1.0, 0, 0, 0, 0]), np.array([0.0, 1, 0, 0, 0]))


# -- randomised properties ---------------------------------------------------

def _random_unit_spacelike(rng, space):
    while True:
        v = rng.normal(size=space.dim)
        q = float(eval_form(space, v))
        if q > 0.1:
            return v / math.sqrt(q)


def _random_isometry(rng, space):
    """Product of reflections in random spacelike unit normals."""
    m = np.eye(space.dim)
    for _ in range(4):
        m = m @ reflection_matrix(space, _random_unit_spacelike(rng, space))
    return m


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_reflection_properties_random(seed):
    rng = np.random.default_rng(seed)
    space = H4
    X = _random_unit_spacelike(rng, space)
    m = reflection_matrix(space, X)
    assert np.max(np.abs(m @ m - np.eye(5))) < 1e-10
    Q = space.form_matrix()
    assert np.max(np.abs(m.T @ Q @ m - Q)) < 1e-10
    assert np.max(np.abs(reflection_matrix(space, -X) - m)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_classification_invariance_random(seed):
    rng = np.random.default_rng(seed)
    X = _random_unit_spacelike(rng, H4)
    Y = _random_unit_spacelike(rng, H4)
    if min(np.max(np.abs(X - Y)), np.max(np.abs(X + Y))) < 1e-6:
        return
    got = classify_pair_hyp(X, Y)
    assert got in (PairClassHyp.INTERSECTING, PairClassHyp.TANGENT_AT_INFINITY,
                   PairClassHyp.DISJOINT)
    assert classify_pair_hyp(-X, Y) == got
    g = _random_isometry(rng, H4)
    gX, gY = g @ X, g @ Y
    assert classify_pair_hyp(gX, gY, tol=1e-7) == got


def _python_sum(signature, x, y):
    """b(x, y) of one pair of vectors as a generator sum over Python floats."""
    return sum(s * xi * yi for s, xi, yi in zip(signature, x.tolist(), y.tolist()) if s)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_bilinear_stack_bits_random(data):
    dim = data.draw(st.integers(1, 6))
    signature = tuple(data.draw(st.lists(st.sampled_from((-1, 0, 1)),
                                         min_size=dim, max_size=dim)))
    space = QuadraticSpace(dim, signature)
    shape = (data.draw(st.integers(1, 5)), dim)
    entries = st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1.0, -1.0))
    x = data.draw(arrays(np.float64, shape, elements=entries))
    y = data.draw(arrays(np.float64, shape, elements=entries))
    ref = np.array([_python_sum(signature, u, v) for u, v in zip(x, y)], dtype=float)
    got = np.asarray(eval_bilinear(space, x, y), dtype=float)
    assert got.shape == ref.shape
    # bit for bit, signed zeros included
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    one = np.asarray(eval_bilinear(space, x[0], y[0]), dtype=float)
    assert one.shape == () and one.view(np.int64) == ref[:1].view(np.int64)[0]
    assert np.array_equal(np.asarray(eval_form(space, x), dtype=float).view(np.int64),
                          np.array([_python_sum(signature, u, u) for u in x]).view(np.int64))


def _first_failure(errors, k):
    return next((type(exc) for mask, exc in errors if np.asarray(mask)[k]), None)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(("hyp", "ads", "hp")))
def test_pair_positions_stack_matches_one_pair(seed, geometry):
    # a stack classifies each pair as classify_pair does alone: class or first error
    rng = np.random.default_rng(seed)
    space = QuadraticSpace.for_geometry("ads" if geometry == "ads" else "hyp", 4)
    X, Y = rng.normal(size=(2, 12, 5))
    # even rows: unit normals (of either type), two of them coincident pairs
    X[::2] /= np.sqrt(np.abs(eval_form(space, X[::2])))[:, None]
    Y[::2] /= np.sqrt(np.abs(eval_form(space, Y[::2])))[:, None]
    Y[2], Y[4] = -X[2], X[4]
    codes, errors = pair_positions(geometry, X, Y, 1e-9)
    for k in range(12):
        try:
            want = classify_pair(geometry, X[k], Y[k], 1e-9)
        except GeometryError as exc:
            assert _first_failure(errors, k) is type(exc)
        else:
            assert _first_failure(errors, k) is None
            assert POSITION_CLASSES[geometry][codes[k]] is want
