from fractions import Fraction

import numpy as np
import pytest

from coxvar.cohomology import is_coboundary, rho0_rep, tau_lambda_cocycle
from coxvar.coxeter import (GAMMA22_NAMES, cuboctahedron_vectors, gamma22, gamma_co,
                            verify_representation)
from coxvar.geometry import (HPPointsClass, PairClassHyp, QuadraticSpace, reflection,
                             reflection_matrix)
from coxvar.halfpipe import (DegenerateReflection, NonDegenerateReflection, _dual_point, _table,
                             _wall, classify_hp_dual_points, classify_hp_reflection_pair,
                             rho_lambda, rho_lambda_reflections)
from coxvar.linalg_exact import PairMatrix
from coxvar.scalars import QSqrt2

MINK = QuadraticSpace.minkowski(4)
CUBO = {n: cuboctahedron_vectors()[k] for k, n in enumerate(gamma_co().generators)}


def _exact_vec(name):
    return PairMatrix.of(CUBO[name])


def _affine(linear, tau):
    """[[A, 0], [-tau^T J A, 1]]: the affine map (A, tau) of R^{1,3} acting on
    hyperplane coordinates."""
    row = -(PairMatrix.of(tau)[None] @ MINK.form_matrix() @ linear)
    return PairMatrix.concat([PairMatrix.concat([linear, np.zeros((4, 1), dtype=int)], axis=1),
                              PairMatrix.concat([row, np.ones((1, 1), dtype=int)], axis=1)])


@pytest.mark.parametrize("lam", [0, 1, Fraction(1, 3), QSqrt2(1, 1), Fraction(-5, 2)],
                         ids=["0", "1", "1/3", "1+sqrt2", "-5/2"])
def test_rho_lambda_is_the_affine_pair(lam):
    # member s is (rho_0(s), tau_lambda(s)): rho_0 = -id on the positives and the
    # Minkowski reflection in the normal elsewhere, tau_lambda(i+-) = (-1)^i lam v_i
    # and 0 on the letters, all built here apart from the package's tables
    stack = rho_lambda(lam)
    assert stack.shape == (22, 5, 5)
    for k, name in enumerate(GAMMA22_NAMES):
        wall, sign = name[0], name[1:]
        if sign:
            tau = _exact_vec(wall) * (lam * (-1) ** int(wall))
        else:
            tau = PairMatrix.zeros(4)
        linear = -PairMatrix.identity(4) if sign == "+" else reflection_matrix(MINK, CUBO[wall])
        assert (stack[k] - _affine(linear, tau)).is_zero(), name


def test_hp_commute_cases():
    X = np.array([0.0, 1.0, 0.0, 0.0])
    v = 0.7 * X
    a = DegenerateReflection(X, v)
    b = NonDegenerateReflection(v / 2)  # (-id, v)
    assert classify_hp_reflection_pair(a, b).commuting
    c = NonDegenerateReflection(np.zeros(4))
    d = NonDegenerateReflection(np.array([0.5, 0, 0, 0]))  # (-id, e_0)
    assert not classify_hp_reflection_pair(c, d).commuting
    Y = np.array([0.0, 0.0, 1.0, 0.0])
    assert classify_hp_reflection_pair(DegenerateReflection(X, 0 * X),
                                       DegenerateReflection(Y, 0 * Y)).commuting


def test_hp_commute_matches_closed_form():
    # the projective matrices of (r_X, cX) and (-id, w) commute iff
    # (id - r_X) w = 2 c X, the row cusp._problem packs as b_1(X, w) = c
    rng = np.random.default_rng(11)
    for k in range(200):
        X = rng.normal(size=4)
        q = float(-X[0] ** 2 + np.sum(X[1:] ** 2))
        if q < 0.2:
            continue
        X = X / np.sqrt(q)
        w = rng.normal(size=4)
        c = float(X @ MINK.form_matrix() @ w) if k % 2 else rng.normal()
        a = DegenerateReflection(X, c * X).matrix()
        b = NonDegenerateReflection(w / 2).matrix()
        closed = np.max(np.abs((np.eye(4) - reflection_matrix(MINK, X)) @ w - 2 * c * X)) < 1e-9
        assert (np.max(np.abs(a @ b - b @ a)) <= 1e-9) == closed


def test_classify_hp_dual_points():
    z = np.zeros(4)
    assert classify_hp_dual_points(z, z) == HPPointsClass.BOUNDARY_TANGENT
    assert classify_hp_dual_points(z, np.array([0.0, 1, 0, 0])) == HPPointsClass.INTERSECT
    assert classify_hp_dual_points(z, np.array([1.0, 0, 0, 0])) == HPPointsClass.DISJOINT
    assert classify_hp_dual_points(z, np.array([1.0, 1, 0, 0])) == HPPointsClass.BOUNDARY_TANGENT


def test_rho_lambda_zero():
    rep = rho_lambda(0)
    # no translation: every member is block diagonal with last row e_4
    assert (rep[:, 4, :4].is_zero() and rep[:, :4, 4].is_zero()
            and (rep[:, 4, 4] - PairMatrix.of(np.ones(22, dtype=int))).is_zero())
    # the top-left blocks are the collapsed holonomy on R^{1,3}
    assert (rep[:, :4, :4] - rho0_rep().images).is_zero()


def test_rho_lambda_cocycle_values():
    tau = dict(zip(GAMMA22_NAMES, tau_lambda_cocycle(1).unstack()))
    v1 = _exact_vec("1")
    assert (tau["1+"] + v1).is_zero()
    assert (tau["1-"] + v1).is_zero()
    assert (tau["0+"] - _exact_vec("0")).is_zero()
    assert tau["A"].is_zero()


def test_rho_lambda_is_exact_representation():
    report = verify_representation(gamma22(), rho_lambda(1), tol=0)
    assert report.ok
    assert report.max_defect == 0.0


def test_rho_lambda_linear_part_constant():
    r1 = rho_lambda(1)
    r2 = rho_lambda(QSqrt2(0, 1))  # lambda = sqrt2
    assert (r1[:, :4, :4] - r2[:, :4, :4]).is_zero()


def test_tau_lambda_is_not_coboundary():
    rep = rho0_rep()
    tau = tau_lambda_cocycle(1)
    assert not is_coboundary(rep, tau)
    zero = PairMatrix.zeros((len(GAMMA22_NAMES), 4))
    assert is_coboundary(rep, zero)


def test_reflections_square_to_identity():
    for r in rho_lambda_reflections(1):
        m = r.matrix()
        assert np.max(np.abs(m @ m - np.eye(5))) <= 1e-12


def test_classify_hp_reflection_pairs():
    refl = dict(zip(GAMMA22_NAMES, rho_lambda_reflections(1)))
    # two degenerate reflections over orthogonal walls: intersecting, commuting
    rep = classify_hp_reflection_pair(refl["0-"], refl["A"])
    assert rep.kind == "degenerate"
    assert rep.position == PairClassHyp.INTERSECTING
    assert rep.commuting
    # two non-degenerate reflections with spacelike difference of dual points
    a = NonDegenerateReflection(np.zeros(4))
    b = NonDegenerateReflection(np.array([0.0, 1, 0, 0]))
    rep = classify_hp_reflection_pair(a, b)
    assert rep.kind == "nondegenerate"
    assert rep.position == HPPointsClass.INTERSECT
    # mixed pair arranged to commute: v = the X-component of 2p
    X = np.array([0.0, 1.0, 0.0, 0.0])
    p = np.array([0.3, 0.45, -0.2, 0.1])
    c = float(X @ np.diag([-1.0, 1, 1, 1]) @ (2 * p))
    mixed = classify_hp_reflection_pair(DegenerateReflection(X, c * X), NonDegenerateReflection(p))
    assert mixed.kind == "mixed"
    assert mixed.commuting


def test_classify_hp_degenerate_pair_over_one_wall_has_no_position():
    # X and -X give one hyperplane of H^3, which the position check rejects
    X = np.array([0.0, 1.0, 0.0, 0.0])
    a, b = DegenerateReflection(X, 0.5 * X), DegenerateReflection(-X, np.zeros(4))
    rep = classify_hp_reflection_pair(a, b)
    assert (rep.kind, rep.position) == ("degenerate", None)
    # (r_X, X/2)(r_X, 0) = (id, X/2), but (r_X, 0)(r_X, X/2) = (id, -X/2)
    assert rep.commuting is False
    assert repr(rep) == ("HPPairReport(kind='degenerate', position=None, "
                         f"commuting={rep.commuting!r})")


def test_degenerate_reflection_validation():
    X = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        DegenerateReflection(2 * X, 0 * X)  # not unit
    with pytest.raises(ValueError):
        DegenerateReflection(X, np.array([0.0, 0, 1, 0]))  # v not parallel
    # v near the top of the float range: the span check itself does not overflow
    DegenerateReflection(X, 1.7e308 * X)
    with pytest.raises(ValueError):
        DegenerateReflection(X, np.array([0.0, 1.7e308, 1e302, 0]))


# -- the stacked builder: one call on the poles and forms of rho_lambda ----------

@pytest.mark.parametrize("lam", [1, 1.0, Fraction(1, 2), 0.5], ids=["1", "1.0", "1/2", "0.5"])
def test_stacked_rho_lambda_matches_member_loop(lam):
    c, v, tau = _table(lam)
    stack = rho_lambda(lam)
    positive, wall = _dual_point(tau[:8] / 2), _wall(v[8:], c[8:])
    lone = ([-reflection(positive[0][k], positive[1][k]) for k in range(8)]
            + [reflection(wall[0][k], wall[1][k]) for k in range(14)])
    for k, one in enumerate(lone):
        if isinstance(stack, PairMatrix):
            got = stack[k].reduced()
            assert got.den == one.den
            assert np.array_equal(got.a, one.a) and np.array_equal(got.b, one.b)
        else:
            assert np.array_equal(stack[k], one)
