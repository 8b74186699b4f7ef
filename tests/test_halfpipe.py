import numpy as np
import pytest

from coxvar.cohomology import is_coboundary, rho0_rep
from coxvar.coxeter import cuboctahedron_vectors, gamma22, verify_representation
from coxvar.geometry import PairClassHyp, QuadraticSpace, reflection_matrix
from coxvar.halfpipe import (DegenerateReflection, HPPointsClass, MinkowskiIsometry,
                             NonDegenerateReflection, NotFormPreserving, classify_hp_dual_points,
                             classify_hp_reflection_pair, hp_commute,
                             phi_to_projective, rho_lambda)
from coxvar.linalg_exact import PairMatrix, exact_array, is_zero_matrix
from coxvar.scalars import QSqrt2

MINK = QuadraticSpace.minkowski(4)
CUBO = cuboctahedron_vectors()


def _exact_vec(name):
    return np.array(CUBO[name], dtype=object)


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
    assert sq.max_difference(MinkowskiIsometry.identity(4, exact=True)) == 0
    m = phi_to_projective(refl)
    assert is_zero_matrix(m @ m - phi_to_projective(MinkowskiIsometry.identity(4, exact=True)))


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
    refls = [reflection_matrix(space, _exact_vec(n)) for n in names]

    def random_iso():
        m = refls[rng.integers(len(refls))] @ refls[rng.integers(len(refls))]
        v = exact_array([int(rng.integers(-3, 4)) for _ in range(4)])
        return MinkowskiIsometry(m, v)

    for _ in range(50):
        a, b = random_iso(), random_iso()
        assert is_zero_matrix(phi_to_projective(a) @ phi_to_projective(b)
                              - phi_to_projective(a @ b))


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
    assert all(is_zero_matrix(v) for v in rep.translation.values())
    # the linear part is the collapsed holonomy on R^{1,3}
    rho0 = rho0_rep()
    for n in rep.linear:
        assert (PairMatrix.of(rep.linear[n]) - rho0.image(n)).is_zero()


def test_rho_lambda_cocycle_values():
    rep = rho_lambda(1)
    v1 = _exact_vec("1")
    assert is_zero_matrix(rep.translation["1+"] + v1)
    assert is_zero_matrix(rep.translation["1-"] + v1)
    assert is_zero_matrix(rep.translation["0+"] - _exact_vec("0"))
    assert is_zero_matrix(rep.translation["A"])


def test_rho_lambda_is_exact_representation():
    report = verify_representation(gamma22(), rho_lambda(1).as_isometries(), tol=0)
    assert report.ok
    assert report.max_defect == 0.0


def test_rho_lambda_linear_part_constant():
    r1 = rho_lambda(1)
    r2 = rho_lambda(QSqrt2(0, 1))  # lambda = sqrt2
    for n in r1.linear:
        assert is_zero_matrix(r1.linear[n] - r2.linear[n])


def test_tau_lambda_is_not_coboundary():
    rep = rho0_rep()
    tau = {n: np.asarray(v, dtype=object) for n, v in rho_lambda(1).translation.items()}
    assert not is_coboundary(gamma22(), rep, tau)
    zero = {n: exact_array([0, 0, 0, 0]) for n in gamma22().generators}
    assert is_coboundary(gamma22(), rep, zero)


def test_reflections_square_to_identity():
    for r in rho_lambda(1).as_reflections().values():
        iso = r.isometry()
        assert (iso @ iso).max_difference(MinkowskiIsometry.identity(4)) <= 1e-12


def test_classify_hp_reflection_pairs():
    refl = rho_lambda(1).as_reflections()
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


def test_degenerate_reflection_validation():
    X = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        DegenerateReflection(2 * X, 0 * X)  # not unit
    with pytest.raises(ValueError):
        DegenerateReflection(X, np.array([0.0, 0, 1, 0]))  # v not parallel

