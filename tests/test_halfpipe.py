from fractions import Fraction

import numpy as np
import pytest

from coxvar.cohomology import is_coboundary, rho0_rep
from coxvar.coxeter import (GAMMA22_NAMES, cuboctahedron_vectors, gamma22, gamma_co,
                            verify_representation)
from coxvar.geometry import HPPointsClass, PairClassHyp, QuadraticSpace, reflection_matrix
from coxvar.halfpipe import (DegenerateReflection, MinkowskiIsometry,
                             NonDegenerateReflection, NotFormPreserving, classify_hp_dual_points,
                             classify_hp_reflection_pair, hp_commute,
                             phi_to_projective, rho_lambda)
from coxvar.linalg_exact import PairMatrix
from coxvar.scalars import QSqrt2

MINK = QuadraticSpace.minkowski(4)
CUBO = {n: cuboctahedron_vectors()[k] for k, n in enumerate(gamma_co().generators)}


def _exact_vec(name):
    return PairMatrix.of(CUBO[name])


def _random_lorentz(rng):
    """Product of reflections in random spacelike normals (float)."""
    m = np.eye(4)
    for _ in range(3):
        while True:
            v = rng.normal(size=4)
            q = float(-v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2)
            if q > 0.2:
                break
        m = m @ reflection_matrix(MINK, v / np.sqrt(q))
    return m


def test_phi_identity_and_involution():
    assert np.allclose(phi_to_projective(MinkowskiIsometry.identity()), np.eye(5))
    p = _exact_vec("0")
    refl = NonDegenerateReflection(p).isometry()
    sq = refl @ refl
    assert (sq.linear - PairMatrix.identity(4)).is_zero() and sq.translation.is_zero()
    m = phi_to_projective(refl)
    assert (m @ m - PairMatrix.identity(5)).is_zero()


def test_phi_homomorphism_float():
    rng = np.random.default_rng(99)
    for _ in range(10_000 // 100):
        # batch of 100 via 10 isometries, all pairs
        isos = [MinkowskiIsometry(_random_lorentz(rng), rng.normal(size=4)) for _ in range(10)]
        for a in isos:
            for b in isos:
                lhs = phi_to_projective(a, tol=1e-6) @ phi_to_projective(b, tol=1e-6)
                rhs = phi_to_projective(a @ b, tol=1e-6)
                scale = max(1.0, np.max(np.abs(rhs)))
                assert np.max(np.abs(lhs - rhs)) / scale < 1e-11


def test_phi_homomorphism_exact():
    rng = np.random.default_rng(5)
    space = MINK
    names = list(CUBO)
    refls = [reflection_matrix(space, CUBO[n]) for n in names]

    def random_iso():
        m = refls[rng.integers(len(refls))] @ refls[rng.integers(len(refls))]
        v = PairMatrix.of([int(rng.integers(-3, 4)) for _ in range(4)])
        return MinkowskiIsometry(m, v)

    for _ in range(50):
        a, b = random_iso(), random_iso()
        assert (phi_to_projective(a) @ phi_to_projective(b)
                - phi_to_projective(a @ b)).is_zero()


def test_phi_rejects_non_isometry():
    with pytest.raises(NotFormPreserving):
        phi_to_projective(MinkowskiIsometry(2 * np.eye(4), np.zeros(4)))


def test_hp_commute_cases():
    X = np.array([0.0, 1.0, 0.0, 0.0])
    v = 0.7 * X
    a = DegenerateReflection(X, v).isometry()
    b = MinkowskiIsometry(-np.eye(4), v)
    assert hp_commute(a, b)
    c = MinkowskiIsometry(-np.eye(4), np.zeros(4))
    d = MinkowskiIsometry(-np.eye(4), np.array([1.0, 0, 0, 0]))
    assert not hp_commute(c, d)
    Y = np.array([0.0, 0.0, 1.0, 0.0])
    assert hp_commute(DegenerateReflection(X, 0 * X).isometry(),
                      DegenerateReflection(Y, 0 * Y).isometry())


def test_hp_commute_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        X = rng.normal(size=4)
        q = float(-X[0] ** 2 + np.sum(X[1:] ** 2))
        if q < 0.2:
            continue
        X = X / np.sqrt(q)
        c = rng.normal()
        w = rng.normal(size=4)
        a = DegenerateReflection(X, c * X).isometry()
        b = MinkowskiIsometry(-np.eye(4), w)
        closed = np.max(np.abs((np.eye(4) - a.linear) @ w - 2 * c * X)) < 1e-9
        assert hp_commute(a, b, tol=1e-9) == closed


def test_classify_hp_dual_points():
    z = np.zeros(4)
    assert classify_hp_dual_points(z, z) == HPPointsClass.BOUNDARY_TANGENT
    assert classify_hp_dual_points(z, np.array([0.0, 1, 0, 0])) == HPPointsClass.INTERSECT
    assert classify_hp_dual_points(z, np.array([1.0, 0, 0, 0])) == HPPointsClass.DISJOINT
    assert classify_hp_dual_points(z, np.array([1.0, 1, 0, 0])) == HPPointsClass.BOUNDARY_TANGENT


def test_rho_lambda_zero():
    rep = rho_lambda(0)
    assert rep.translation.is_zero()
    # the linear part is the collapsed holonomy on R^{1,3}
    assert (rep.linear - rho0_rep().images).is_zero()


def test_rho_lambda_cocycle_values():
    tau = dict(zip(GAMMA22_NAMES, rho_lambda(1).translation.unstack()))
    v1 = _exact_vec("1")
    assert (tau["1+"] + v1).is_zero()
    assert (tau["1-"] + v1).is_zero()
    assert (tau["0+"] - _exact_vec("0")).is_zero()
    assert tau["A"].is_zero()


def test_rho_lambda_is_exact_representation():
    report = verify_representation(gamma22(), phi_to_projective(rho_lambda(1)), tol=0)
    assert report.ok
    assert report.max_defect == 0.0


def test_rho_lambda_linear_part_constant():
    r1 = rho_lambda(1)
    r2 = rho_lambda(QSqrt2(0, 1))  # lambda = sqrt2
    assert (r1.linear - r2.linear).is_zero()


def test_tau_lambda_is_not_coboundary():
    rep = rho0_rep()
    tau = rho_lambda(1).translation
    assert not is_coboundary(rep, tau)
    zero = PairMatrix.zeros((len(GAMMA22_NAMES), 4))
    assert is_coboundary(rep, zero)


def test_reflections_square_to_identity():
    for r in rho_lambda(1).as_reflections():
        iso = r.isometry()
        assert (iso @ iso).max_difference(MinkowskiIsometry.identity(4)) <= 1e-12


def test_classify_hp_reflection_pairs():
    refl = dict(zip(GAMMA22_NAMES, rho_lambda(1).as_reflections()))
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
    assert rep.commuting == hp_commute(a.isometry(), b.isometry())
    assert repr(rep) == ("HPPairReport(kind='degenerate', position=None, "
                         f"commuting={rep.commuting!r})")


def test_degenerate_reflection_validation():
    X = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        DegenerateReflection(2 * X, 0 * X)  # not unit
    with pytest.raises(ValueError):
        DegenerateReflection(X, np.array([0.0, 0, 1, 0]))  # v not parallel



# -- the stacked half-pipe path: one call on the (22, 4, 4) stack ---------------

def _members(iso):
    return [MinkowskiIsometry(iso.linear[k], iso.translation[k]) for k in range(22)]


@pytest.mark.parametrize("lam", [1, 1.0, Fraction(1, 2), 0.5], ids=["1", "1.0", "1/2", "0.5"])
def test_stacked_phi_matches_member_loop(lam):
    rep = rho_lambda(lam)
    members = _members(rep)
    assert rep.is_form_preserving() == all(m.is_form_preserving() for m in members)
    stack = phi_to_projective(rep)
    for k, m in enumerate(members):
        one = phi_to_projective(m)
        if rep.exact:
            got, want = stack[k].reduced(), one.reduced()
            assert got.den == want.den
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
        else:
            assert np.array_equal(stack[k], one)


def test_stacked_form_check_rejects_one_bad_member():
    rep = rho_lambda(0.5)
    linear = rep.linear.copy()
    linear[5] = linear[5] * 1.001  # scaled: no longer preserves the form
    bad = MinkowskiIsometry(linear, rep.translation)
    assert not bad.is_form_preserving()
    assert [m.is_form_preserving() for m in _members(bad)].count(False) == 1
    with pytest.raises(NotFormPreserving):
        phi_to_projective(bad)
