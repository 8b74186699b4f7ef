import contextlib
import io

import numpy as np
import pytest

from coxvar import cohomology as coh
from coxvar import linalg_exact
from coxvar.cli import main
from coxvar.coxeter import cuboctahedron_vectors, gamma_co, gamma_rect, verify_representation
from coxvar.geometry import QuadraticSpace, reflection_matrix
from coxvar.halfpipe import MinkowskiIsometry
from coxvar.linalg_exact import PairMatrix, exact_in_span, exact_inverse
from coxvar.scalars import QSqrt2

MINK = QuadraticSpace.minkowski(4)
CUBO = {n: cuboctahedron_vectors()[k] for k, n in enumerate(gamma_co().generators)}


def _flat(racg, dimV, tau):
    return coh._flatten_cocycle(racg, dimV, tau)


def _columns(m):
    return [m[:, j] for j in range(m.shape[1])]


def _combination(basis, coefficients):
    """The flat cocycle sum_j c_j * (column j of basis) for QSqrt2 coefficients."""
    return basis @ PairMatrix.of(coefficients)


def test_linear_rep_validation():
    racg = gamma_rect()
    bad = {n: 2 * PairMatrix.identity(2) for n in racg.generators}
    with pytest.raises(ValueError):
        coh.LinearRep(racg, 2, bad)


def test_trivial_representation(racg22):
    rep = coh.LinearRep(racg22, 3, {n: PairMatrix.identity(3) for n in racg22.generators})
    assert coh.cocycle_space(racg22, rep).shape == (22 * 3, 0)
    assert coh.coboundary_space(racg22, rep).shape == (22 * 3, 0)
    assert coh.cohomology_report(racg22, rep).dimH1 == 0


def test_rho0_dimensions(racg22, rho0_report):
    rep, report = rho0_report
    assert (report.dimZ1, report.dimB1, report.dimH1) == (5, 4, 1)
    assert report.z1_basis.shape == (22 * 4, 5)
    # every column at once: tau(s) is the block of rows of generator s
    tau = {n: report.z1_basis[4 * i:4 * (i + 1)] for i, n in enumerate(racg22.generators)}
    ident = PairMatrix.identity(4)
    # squares: tau(s) killed by id + rho(s); pairs: mixed difference condition
    for n in racg22.generators:
        assert ((ident + rep.image(n)) @ tau[n]).is_zero()
    for a, b in racg22.commuting_name_pairs():
        lhs = (ident - rep.image(a)) @ tau[b]
        rhs = (ident - rep.image(b)) @ tau[a]
        assert (lhs - rhs).is_zero()


def test_tau_lambda_in_z1_span(racg22, rho0_report):
    rep, report = rho0_report
    tau = coh.tau_lambda_cocycle(1)
    assert exact_in_span(_columns(report.z1_basis), _flat(racg22, 4, tau))


def test_cocycles_integrate_to_representations(racg22, rho0_report):
    """Every Z^1 element gives an affine representation satisfying all relations."""
    rep, report = rho0_report
    images = coh.rho0_linear()
    for j in range(report.dimZ1):
        isos = {n: MinkowskiIsometry(images[n], report.z1_basis[4 * i:4 * (i + 1), j])
                for i, n in enumerate(racg22.generators)}
        vr = verify_representation(racg22, isos, tol=0)
        assert vr.ok and vr.max_defect == 0.0


def test_so13_dimension(racg22, so13_report):
    rep, report = so13_report
    assert report.dimH1 == 12
    assert (report.dimZ1, report.dimB1) == (18, 6)


def test_full_adjoint_dimensions(racg22, full_adjoint_reports):
    for geometry, (rep, report) in full_adjoint_reports.items():
        assert rep.dimV == 10
        assert (report.dimZ1, report.dimB1, report.dimH1) == (23, 10, 13), geometry


def test_split_h1(racg22, full_adjoint_reports):
    for geometry, (rep, report) in full_adjoint_reports.items():
        assert coh.split_h1(racg22, rep, report) == (12, 1), geometry


def test_split_h1_purely_horizontal(racg22, so13_report, full_adjoint_reports):
    rep13, report13 = so13_report
    rep, _ = full_adjoint_reports["hp"]
    tau_h = report13.h1_representatives[:, 0].reshape(22, 6)
    # each 6-entry so(1,3) block padded by four zeros into the 10-dimensional algebra
    emb = PairMatrix.concat([tau_h, PairMatrix.zeros((22, 4))], axis=1).reshape(220, 1)
    fake = coh.CohomologyReport(1, 0, 1, emb, emb)
    assert coh.split_h1(racg22, rep, fake) == (1, 0)


def test_split_h1_vertical_is_tau_lambda(racg22, rho0_report, full_adjoint_reports):
    """The vertical part of H^1 is the class of tau_1 under the block inclusion."""
    rep0, _ = rho0_report
    _, report = full_adjoint_reports["ads"]
    b1 = _columns(coh.coboundary_space(racg22, rep0))
    # the last four entries of each generator's 10-entry block
    reps = report.h1_representatives
    projections = _columns(reps.reshape(22, 10, reps.shape[1])[:, 6:].reshape(88, -1))
    tau1 = _flat(racg22, 4, coh.tau_lambda_cocycle(1))
    # tau_1 is nonzero mod B^1 and lies in span(B^1 + projections)
    assert not exact_in_span(b1, tau1)
    assert exact_in_span(b1 + projections, tau1)


def test_split_h1_rejects_unadapted_basis(racg22):
    images = coh.rho0_projective("hyp")
    basis = coh.adapted_basis("hyp")
    basis[0], basis[9] = basis[9], basis[0]  # mix the blocks
    rep = coh.adjoint_rep(racg22, images, basis)
    with pytest.raises(coh.BasisNotAdapted):
        coh.split_h1(racg22, rep)


def test_adjoint_rep_basics(racg22):
    assert len(coh.adapted_basis("hyp")) == 10
    assert len(coh.so13_basis()) == 6
    racg = gamma_rect()
    ident = {n: PairMatrix.identity(4) for n in racg.generators}
    ad = coh.adjoint_rep(racg, ident, coh.so13_basis())
    for n in racg.generators:
        assert (ad.image(n) - PairMatrix.identity(6)).is_zero()


def test_adjoint_fixes_orthogonal_rotation(racg22):
    """Ad rho_0(0-) fixes the rotation generator of the plane orthogonal to v_0."""
    images = coh.rho0_linear()
    J = PairMatrix.of(MINK.form_matrix())
    x = PairMatrix.of(CUBO["A"]).reshape(4, 1)
    y = PairMatrix.of(CUBO["B"]).reshape(4, 1)  # both orthogonal to v_0
    E = x @ (J @ y).T - y @ (J @ x).T
    # E is in so(1,3) and commutes with the reflection in v_0
    assert (E.T @ J + J @ E).is_zero()
    g = images["0-"]
    assert (g @ E @ g - E).is_zero()


def test_adjoint_rep_basis_not_closed():
    racg = gamma_rect()
    space = QuadraticSpace.minkowski(4)
    r = reflection_matrix(space, CUBO["A"])
    images = {n: r for n in racg.generators}
    boost = coh.so13_basis()[1]  # a single algebra element, not Ad-invariant
    with pytest.raises(coh.BasisNotClosed):
        coh.adjoint_rep(racg, images, [boost])


def test_reduce_mod_coboundary(racg22, rho0_report):
    rep, report = rho0_report
    tau1 = coh.tau_lambda_cocycle(1)
    reduced = coh.reduce_mod_coboundary(tau1)
    for n in racg22.generators:
        assert (reduced[n] - tau1[n]).is_zero()
    assert coh.vertical_coefficient(reduced) == QSqrt2(1)
    # any coboundary reduces to zero
    delta = coh.coboundary_space(racg22, rep)[:, 0]
    zeroed = coh.reduce_mod_coboundary(delta)
    for n in racg22.generators:
        assert zeroed[n].is_zero()
    # a random exact Z^1 element lands in the tau_lambda family
    rng = np.random.default_rng(17)
    combo = _combination(report.z1_basis,
                         [QSqrt2(int(rng.integers(-3, 4)), int(rng.integers(-2, 3)))
                          for _ in range(report.dimZ1)])
    lam = coh.vertical_coefficient(coh.reduce_mod_coboundary(combo))
    assert lam is not None
    # idempotent
    twice = coh.reduce_mod_coboundary(coh.reduce_mod_coboundary(combo))
    once = coh.reduce_mod_coboundary(combo)
    for n in racg22.generators:
        assert (twice[n] - once[n]).is_zero()


def test_reduce_mod_coboundary_image_is_line(racg22, rho0_report):
    rep, report = rho0_report
    lams = []
    rng = np.random.default_rng(23)
    for _ in range(3):
        combo = _combination(report.z1_basis,
                             [QSqrt2(int(rng.integers(-5, 6))) for _ in range(report.dimZ1)])
        lams.append(coh.vertical_coefficient(coh.reduce_mod_coboundary(combo)))
    assert all(l is not None for l in lams)


def test_exact_dimensions_match_float_svd_route(racg22, rho0_report):
    """Dual-route check: numeric rank of the float cocycle system agrees."""
    rep, report = rho0_report
    images = {n: np.asarray(rep.image(n), dtype=float) for n in racg22.generators}
    n_gen = len(racg22.generators)
    rows = []
    for k, n in enumerate(racg22.generators):
        block = np.zeros((4, 4 * n_gen))
        block[:, 4 * k:4 * k + 4] = np.eye(4) + images[n]
        rows.append(block)
    idx = {n: i for i, n in enumerate(racg22.generators)}
    for a, b in racg22.commuting_name_pairs():
        block = np.zeros((4, 4 * n_gen))
        block[:, 4 * idx[b]:4 * idx[b] + 4] = np.eye(4) - images[a]
        block[:, 4 * idx[a]:4 * idx[a] + 4] -= np.eye(4) - images[b]
        rows.append(block)
    system = np.vstack(rows)
    z1_float = 4 * n_gen - np.linalg.matrix_rank(system, tol=1e-9)
    assert z1_float == report.dimZ1
    cob = np.vstack([images[n] - np.eye(4) for n in racg22.generators])
    assert np.linalg.matrix_rank(cob, tol=1e-9) == report.dimB1


def test_h1_invariant_under_exact_conjugation(racg22, rho0_report):
    rep, _ = rho0_report
    h = reflection_matrix(MINK, CUBO["A"]) @ reflection_matrix(MINK, CUBO["B"])
    conj = {n: h @ rep.image(n) @ exact_inverse(h) for n in racg22.generators}
    rep2 = coh.LinearRep(racg22, 4, conj)
    assert coh.cohomology_report(racg22, rep2).dimH1 == 1


# -- stacked checks: each names the first failing generator or pair -------------

def test_linear_rep_names_first_non_involution():
    racg = gamma_rect()  # s1, t1, s2, t2
    images = dict(zip(racg.generators, [PairMatrix.identity(2), 2 * PairMatrix.identity(2),
                                        2 * PairMatrix.identity(2), PairMatrix.identity(2)]))
    with pytest.raises(ValueError) as err:
        coh.LinearRep(racg, 2, images)
    assert str(err.value) == "image of 't1' does not square to the identity"


def test_linear_rep_names_first_non_commuting_pair():
    racg = gamma_rect()  # pairs in order: (s1, t1), (s1, t2), (t1, s2), (s2, t2)
    flip, swap = PairMatrix.of(np.diag([1, -1])), PairMatrix.of(np.array([[0, 1], [1, 0]]))
    images = dict(zip(racg.generators, [PairMatrix.identity(2), flip, swap, flip]))
    with pytest.raises(ValueError) as err:
        coh.LinearRep(racg, 2, images)
    assert str(err.value) == "images of commuting pair (t1, s2) do not commute"


def test_adjoint_rep_rejects_non_involution():
    racg = gamma_rect()
    images = {n: PairMatrix.identity(4) for n in racg.generators}
    images["t1"] = images["s2"] = PairMatrix.of(np.diag([2, 1, 1, 1]))
    with pytest.raises(ValueError) as err:
        coh.adjoint_rep(racg, images, coh.so13_basis())
    assert str(err.value) == "image of 't1' is not an involution"


def test_basis_not_closed_names_first_failing_generator():
    racg = gamma_rect()
    r = reflection_matrix(MINK, CUBO["A"])
    images = {"s1": PairMatrix.identity(4), "t1": PairMatrix.identity(4), "s2": r, "t2": r}
    boost = coh.so13_basis()[1]  # fixed by the identity, moved off its line by r
    with pytest.raises(coh.BasisNotClosed) as err:
        coh.adjoint_rep(racg, images, [boost])
    assert str(err.value) == "Ad(rho(s2)) leaves the basis span"


# -- structure: how many eliminations the exact path runs ------------------------

@pytest.fixture
def eliminations(monkeypatch):
    """A list that counts the calls of linalg_exact._echelon while the test runs."""
    calls = []
    echelon = linalg_exact._echelon

    def counted(*args):
        calls.append(1)
        return echelon(*args)

    monkeypatch.setattr(linalg_exact, "_echelon", counted)
    return calls


@pytest.mark.parametrize("geometry", ["hyp", "ads", "hp"])
def test_adjoint_rep_runs_one_elimination(eliminations, geometry):
    coh.adjoint_collapsed_rep(geometry)
    assert len(eliminations) == 1


@pytest.mark.parametrize("target", ["r13", "so13", "full"])
def test_cocycle_space_one_kernel_per_distinct_image(racg22, eliminations, target):
    rep = {"r13": coh.rho0_rep, "so13": coh.so13_adjoint_rep,
           "full": lambda: coh.adjoint_collapsed_rep("hp")}[target]()
    distinct = {str((m.den, m.a.tolist(), m.b.tolist()))
                for m in (rep.image(n).reduced() for n in racg22.generators)}
    assert len(distinct) == 15  # of 22 generators
    eliminations.clear()
    coh.cocycle_space(racg22, rep)
    # the 15 kernels in one stacked elimination, then the pair system
    assert len(eliminations) == 2


def test_full_report_eliminations(eliminations):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cohomology", "--target", "full-ads"]) == 0
    # adjoint 1, cocycles 2, B^1 1, representatives 1, split 2 (23 with one
    # kernel per distinct image and two ranks per split block)
    assert len(eliminations) <= 7
