import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxvar import cohomology as coh
from coxvar import linalg_exact
from coxvar.cli import main
from coxvar.coxeter import (GAMMA22_NAMES, RACG, _orthogonality_pairs, cuboctahedron_vectors,
                            gamma22, gamma22_vectors, gamma_co, gamma_rect,
                            verify_representation)
from coxvar.geometry import QuadraticSpace, reflection_matrix
from coxvar.halfpipe import MinkowskiIsometry, phi_to_projective
from coxvar.linalg_exact import PairMatrix, exact_in_span, exact_inverse, exact_pivots
from coxvar.repvar import collapsed_lift_exact, form_algebra_basis, table_lift_exact
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
    bad = PairMatrix.stack([2 * PairMatrix.identity(2)] * 4)
    with pytest.raises(ValueError):
        coh.LinearRep(racg, bad)


def test_linear_rep_rejects_non_square_images(racg22):
    with pytest.raises(ValueError, match=r"a stack of 22 square matrices, got shape \(22, 4, 5\)"):
        coh.LinearRep(racg22, PairMatrix.zeros((22, 4, 5)))


def test_is_coboundary_rejects_a_misshapen_cocycle(rho0_report):
    rep, _ = rho0_report
    with pytest.raises(ValueError, match="a cocycle is a vector of 4 values per generator"):
        coh.is_coboundary(rep, PairMatrix.zeros((22, 5)))


def test_reduce_mod_coboundary_rejects_a_non_cocycle():
    tau = np.zeros((22, 4), dtype=int)
    tau[GAMMA22_NAMES.index("A"), 0] = 1  # no coboundary takes this value on A and 0 on B, C, D
    with pytest.raises(ValueError, match="tau is not a cocycle"):
        coh.reduce_mod_coboundary(tau)


def test_trivial_representation(racg22):
    rep = coh.LinearRep(racg22, PairMatrix.stack([PairMatrix.identity(3)] * 22))
    assert coh.cocycle_space(rep).shape == (22 * 3, 0)
    assert coh.coboundary_space(rep).shape == (22 * 3, 0)
    assert coh.cohomology_report(rep).dimH1 == 0


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
        isos = MinkowskiIsometry(images, report.z1_basis[:, j].reshape(22, 4))
        vr = verify_representation(racg22, phi_to_projective(isos), tol=0)
        assert vr.ok and vr.max_defect == 0.0


def test_so13_dimension(racg22, so13_report):
    rep, report = so13_report
    assert report.dimH1 == 12
    assert (report.dimZ1, report.dimB1) == (18, 6)


def test_full_adjoint_dimensions(racg22, full_adjoint_reports):
    for geometry, (rep, report) in full_adjoint_reports.items():
        assert rep.dimV == 10
        assert (report.dimZ1, report.dimB1, report.dimH1) == (23, 10, 13), geometry


def test_split_h1(full_adjoint_reports):
    for geometry, (rep, report) in full_adjoint_reports.items():
        assert coh.split_h1(rep, report) == (12, 1), geometry


def test_split_h1_purely_horizontal(so13_report, full_adjoint_reports):
    rep13, report13 = so13_report
    rep, _ = full_adjoint_reports["hp"]
    tau_h = report13.h1_representatives[:, 0].reshape(22, 6)
    # each 6-entry so(1,3) block padded by four zeros into the 10-dimensional algebra
    emb = PairMatrix.concat([tau_h, PairMatrix.zeros((22, 4))], axis=1).reshape(220, 1)
    fake = coh.CohomologyReport(1, 0, 1, emb, emb)
    assert coh.split_h1(rep, fake) == (1, 0)


def test_split_h1_vertical_is_tau_lambda(racg22, rho0_report, full_adjoint_reports):
    """The vertical part of H^1 is the class of tau_1 under the block inclusion."""
    rep0, _ = rho0_report
    _, report = full_adjoint_reports["ads"]
    b1 = _columns(coh.coboundary_space(rep0))
    # the last four entries of each generator's 10-entry block
    reps = report.h1_representatives
    projections = _columns(reps.reshape(22, 10, reps.shape[1])[:, 6:].reshape(88, -1))
    tau1 = _flat(racg22, 4, coh.tau_lambda_cocycle(1))
    # tau_1 is nonzero mod B^1 and lies in span(B^1 + projections)
    assert not exact_in_span(b1, tau1)
    assert exact_in_span(b1 + projections, tau1)


def _block_support(cocycles):
    """Per column: (meets so(1,3), meets R^{1,3}) over all ten-entry generator blocks."""
    blocks = cocycles.reshape(22, 10, cocycles.shape[1])
    nonzero = (blocks.a != 0) | (blocks.b != 0)
    return nonzero[:, :coh.H_BLOCK].any(axis=(0, 1)), nonzero[:, coh.H_BLOCK:].any(axis=(0, 1))


def test_full_report_columns_lie_in_one_block(full_adjoint_reports):
    """split_h1 counts on this: elimination keeps each basis vector in one block."""
    for geometry, (_, report) in full_adjoint_reports.items():
        for cocycles, split in ((report.z1_basis, (18, 5)), (report.h1_representatives, (12, 1))):
            horizontal, vertical = _block_support(cocycles)
            assert (horizontal ^ vertical).all(), geometry
            assert (int(horizontal.sum()), int(vertical.sum())) == split, geometry


def test_split_h1_rejects_mixed_representative(so13_report, full_adjoint_reports):
    _, report13 = so13_report
    rep, _ = full_adjoint_reports["hp"]
    tau_h = report13.h1_representatives[:, 0].reshape(22, 6)
    mixed = PairMatrix.concat([tau_h, coh.tau_lambda_cocycle(1)], axis=1).reshape(220, 1)
    with pytest.raises(coh.BasisNotAdapted):
        coh.split_h1(rep, coh.CohomologyReport(1, 0, 1, mixed, mixed))


def test_split_h1_rejects_unadapted_basis(racg22):
    lift = collapsed_lift_exact("hyp")
    images = reflection_matrix(lift.space, lift.table)
    basis = coh.adapted_basis("hyp")
    basis[0], basis[9] = basis[9], basis[0]  # mix the blocks
    rep = coh.adjoint_rep(racg22, images, basis)
    with pytest.raises(coh.BasisNotAdapted):
        coh.split_h1(rep, coh.cohomology_report(rep))


def test_collapsed_adjoint_is_block_sum():
    """Ad rho_0 = Ad_so(1,3) rho_0 + rho_0: one integer stack in all three geometries."""
    so13, r13 = coh.so13_adjoint_rep().images, coh.rho0_rep().images
    block_sum = PairMatrix.concat(
        [PairMatrix.concat([so13, np.zeros((22, 6, 4), dtype=int)], axis=-1),
         PairMatrix.concat([np.zeros((22, 4, 6), dtype=int), r13], axis=-1)], axis=-2)
    for geometry in ("hyp", "ads", "hp"):
        images = coh.adjoint_collapsed_rep(geometry).images
        assert images.den == 1, geometry
        assert np.array_equal(images.a, block_sum.a) and np.array_equal(images.b, block_sum.b)


def test_adjoint_collapsed_rep_unknown_geometry():
    with pytest.raises(ValueError, match="unknown geometry 'foo'"):
        coh.adjoint_collapsed_rep("foo")


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
def test_the_collapse_is_the_cuboctahedron(geometry):
    """The i- and letter normals of the collapsed lift are the cuboctahedron
    normals with x4 = 0, the table rho_lambda reads."""
    walls = collapsed_lift_exact(geometry).table[8:]
    cubo = cuboctahedron_vectors()
    assert walls.den == cubo.den
    assert np.array_equal(walls.a, np.pad(cubo.a, ((0, 0), (0, 1))))
    assert np.array_equal(walls.b, np.pad(cubo.b, ((0, 0), (0, 1))))


def test_so13_is_the_form_algebra_of_minkowski_space():
    so13 = form_algebra_basis(MINK)
    assert len(so13) == 6 and all(m.dtype.kind == "i" for m in so13)
    bases = [(coh.so13_basis(), so13)]
    bases += [(coh.adapted_basis(g)[:6], [np.pad(m, (0, 1)) for m in so13])
              for g in ("hyp", "ads", "hp")]
    for got, want in bases:
        for m, w in zip(got, want, strict=True):
            assert m.den == 1 and m.a.dtype.kind == "i" and not m.b.any()
            assert np.array_equal(m.a, w)


def _gamma24():
    """The 24 walls of the ideal right-angled 24-cell: the 22 normals of
    gamma22_vectors() and e0 +- sqrt2 e4, over den 2."""
    a, b = np.zeros((2, 5), np.int64), np.zeros((2, 5), np.int64)
    a[:, 0] = 2
    b[0, 4], b[1, 4] = 2, -2
    vectors = PairMatrix.concat([gamma22_vectors(), PairMatrix(a, b, 2)])
    pairs = _orthogonality_pairs(vectors, QuadraticSpace.hyperbolic(4))
    return RACG(GAMMA22_NAMES + ("G", "H"), pairs), QuadraticSpace.hyperbolic(4), vectors


# (group, space, normals), the adapted basis of its so(q), and dim Z^1/B^1/H^1
_KNOWN_ANSWERS = {
    # 24 octahedral facets with 8 neighbours each; a finite-volume lattice of
    # SO(4,1) is locally rigid (Garland-Raghunathan): H^1 = 0
    "gamma24": (_gamma24, lambda: coh.adapted_basis("hyp"), (10, 10, 0)),
    # removing the walls G, H frees Kerckhoff and Storm's path: H^1 = 1 at t = 1
    "gamma22": (lambda: (gamma22(), table_lift_exact().space, table_lift_exact().table),
                lambda: coh.adapted_basis("hyp"), (11, 10, 1)),
    # one parameter per four-valent ideal vertex of the cuboctahedron, as Dehn
    # filling counts its 12 rectangular cusps: H^1 = 12
    "gamma_co": (lambda: (gamma_co(), MINK, cuboctahedron_vectors()), coh.so13_basis,
                 (18, 6, 12)),
}


@pytest.mark.parametrize("basis", ["adapted", "form_algebra"])
@pytest.mark.parametrize("group", list(_KNOWN_ANSWERS))
def test_known_answers_from_the_lineage(group, basis):
    """Groups whose H^1 is known from outside this repo, through both bases."""
    build, adapted, dims = _KNOWN_ANSWERS[group]
    racg, space, vectors = build()
    if group == "gamma24":
        assert len(racg.commuting_pairs) == 96
    chosen = (adapted() if basis == "adapted"
              else [PairMatrix.of(m) for m in form_algebra_basis(space)])
    report = coh.cohomology_report(coh.adjoint_rep(racg, reflection_matrix(space, vectors),
                                                   chosen))
    assert (report.dimZ1, report.dimB1, report.dimH1) == dims


def test_adjoint_rep_basics(racg22):
    assert len(coh.adapted_basis("hyp")) == 10
    assert len(coh.so13_basis()) == 6
    racg = gamma_rect()
    ident = PairMatrix.stack([PairMatrix.identity(4)] * 4)
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
    g = images[racg22.index("0-")]
    assert (g @ E @ g - E).is_zero()


def test_adjoint_rep_basis_not_closed():
    racg = gamma_rect()
    space = QuadraticSpace.minkowski(4)
    r = reflection_matrix(space, CUBO["A"])
    images = PairMatrix.stack([r] * 4)
    boost = coh.so13_basis()[1]  # a single algebra element, not Ad-invariant
    with pytest.raises(coh.BasisNotClosed):
        coh.adjoint_rep(racg, images, [boost])


def test_reduce_mod_coboundary(rho0_report):
    rep, report = rho0_report
    tau1 = coh.tau_lambda_cocycle(1)
    reduced = coh.reduce_mod_coboundary(tau1)
    assert (reduced - tau1).is_zero()
    assert coh.vertical_coefficient(reduced) == QSqrt2(1)
    # any coboundary reduces to zero
    delta = coh.coboundary_space(rep)[:, 0]
    assert coh.reduce_mod_coboundary(delta).is_zero()
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
    assert (twice - once).is_zero()


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
    rep2 = coh.LinearRep(racg22, h @ rep.images @ exact_inverse(h))
    assert coh.cohomology_report(rep2).dimH1 == 1


# -- stacked checks: each names the first failing generator or pair -------------

def test_linear_rep_names_first_non_involution():
    racg = gamma_rect()  # s1, t1, s2, t2
    images = PairMatrix.stack([PairMatrix.identity(2), 2 * PairMatrix.identity(2),
                               2 * PairMatrix.identity(2), PairMatrix.identity(2)])
    with pytest.raises(ValueError) as err:
        coh.LinearRep(racg, images)
    assert str(err.value) == "image of 't1' does not square to the identity"


def test_linear_rep_names_first_non_commuting_pair():
    racg = gamma_rect()  # pairs in order: (s1, t1), (s1, t2), (t1, s2), (s2, t2)
    flip, swap = PairMatrix.of(np.diag([1, -1])), PairMatrix.of(np.array([[0, 1], [1, 0]]))
    images = PairMatrix.stack([PairMatrix.identity(2), flip, swap, flip])
    with pytest.raises(ValueError) as err:
        coh.LinearRep(racg, images)
    assert str(err.value) == "images of commuting pair (t1, s2) do not commute"


def test_adjoint_rep_rejects_non_involution():
    racg = gamma_rect()
    stretch = PairMatrix.of(np.diag([2, 1, 1, 1]))
    images = PairMatrix.stack([PairMatrix.identity(4), stretch, stretch, PairMatrix.identity(4)])
    with pytest.raises(ValueError) as err:
        coh.adjoint_rep(racg, images, coh.so13_basis())
    assert str(err.value) == "image of 't1' is not an involution"


def test_basis_not_closed_names_first_failing_generator():
    racg = gamma_rect()
    r = reflection_matrix(MINK, CUBO["A"])
    images = PairMatrix.stack([PairMatrix.identity(4), PairMatrix.identity(4), r, r])
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


@pytest.mark.parametrize("copies", [1, 2], ids=["one", "dependent"])
def test_basis_not_closed_runs_two_eliminations(eliminations, copies):
    # the failed solve, then one pivot pass over [basis | all conjugates]
    # names the generator, also when the basis itself has non-pivot columns
    racg = gamma_rect()
    r = reflection_matrix(MINK, CUBO["A"])
    images = PairMatrix.stack([PairMatrix.identity(4), PairMatrix.identity(4), r, r])
    with pytest.raises(coh.BasisNotClosed, match=r"Ad\(rho\(s2\)\) leaves"):
        coh.adjoint_rep(racg, images, [coh.so13_basis()[1]] * copies)
    assert len(eliminations) == 2


@pytest.mark.parametrize("target", ["r13", "so13", "full"])
def test_cocycle_space_one_kernel_stack(racg22, eliminations, target):
    rep = {"r13": coh.rho0_rep, "so13": coh.so13_adjoint_rep,
           "full": lambda: coh.adjoint_collapsed_rep("hp")}[target]()
    distinct = {str((m.den, m.a.tolist(), m.b.tolist()))
                for m in (rep.image(n).reduced() for n in racg22.generators)}
    assert len(distinct) == 15  # of 22 generators
    eliminations.clear()
    coh.cocycle_space(rep)
    # the kernels of all 22 images, repeats included, in one stacked
    # elimination, then the pair system
    assert len(eliminations) == 2


def test_full_report_eliminations(eliminations):
    # cocycles 2, then B^1 and the representatives from 1; so13 and the full
    # targets add the adjoint's 1; the split reads the representatives'
    # blocks and eliminates nothing
    for target, count in (("r13", 3), ("so13", 4), ("full-ads", 4), ("full-hp", 4)):
        eliminations.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cohomology", "--target", target]) == 0
        assert len(eliminations) == count, target


def test_full_report_column_steps(monkeypatch):
    # every elimination steps through the columns of its widest block: the
    # adjoint solve 1, the kernel stack 6 (4 for r13), the pair system 46
    # (42 for so13) and the H^1 pivot reading 18 (5 for r13)
    steps = []
    eliminate = linalg_exact._eliminate

    def counted(a, b, ncols, bound):
        steps.append(ncols)
        return eliminate(a, b, ncols, bound)

    monkeypatch.setattr(linalg_exact, "_eliminate", counted)
    for target, count in (("r13", 55), ("so13", 67), ("full-hyp", 71), ("full-ads", 71),
                          ("full-hp", 71)):
        steps.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cohomology", "--target", target]) == 0
        assert sum(steps) == count, target


def test_trivial_rep_has_no_cocycles(racg22):
    # every kernel of id + rho(s) is zero: the per-generator product has no columns
    rep = coh.LinearRep(racg22, PairMatrix.stack([PairMatrix.identity(4)] * 22))
    z1 = coh.cocycle_space(rep)
    assert z1.shape == (88, 0) and z1.den == 1
    report = coh.cohomology_report(rep)
    assert (report.dimZ1, report.dimB1, report.dimH1) == (0, 0, 0)


def _two_pass_report(rep):
    """Reference: B^1 from its own elimination, then the pivots of [B^1 | Z^1]."""
    z1, b1 = coh.cocycle_space(rep), coh.coboundary_space(rep)
    k = b1.shape[1]
    pivots = exact_pivots(PairMatrix.concat([b1, z1], axis=1))
    assert pivots[:k] == list(range(k))
    reps = z1[:, [j - k for j in pivots[k:]]].reduced()
    return (z1.shape[1], k, z1.shape[1] - k), z1, reps


def test_one_pass_report_matches_two_pass_reference(rho0_report, so13_report,
                                                    full_adjoint_reports):
    targets = {"r13": rho0_report, "so13": so13_report, **full_adjoint_reports}
    for name, (rep, report) in targets.items():
        dims, z1, reps = _two_pass_report(rep)
        assert (report.dimZ1, report.dimB1, report.dimH1) == dims, name
        for got, want in ((report.z1_basis, z1), (report.h1_representatives, reps)):
            assert got.den == want.den, name
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b), name


frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
field_entry = st.builds(QSqrt2, frac, frac)


def _values(data, count, elements=field_entry):
    return [data.draw(elements) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 5), st.data())
def test_h1_reading_matches_the_full_pivot_pass(k, extra, n, data):
    # Z: a diagonal row per column, shuffled among ``extra`` other rows;
    # C = Z Y with zero, free and dependent columns in Y
    diag = _values(data, k, field_entry.filter(lambda q: q != 0))
    rows = [[diag[j] if i == j else QSqrt2(0) for j in range(k)] for i in range(k)]
    rows += [_values(data, k) for _ in range(extra)]
    order = data.draw(st.permutations(range(k + extra)))
    Z = PairMatrix.of([rows[i] for i in order])
    cols = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["zero", "free", "dependent"]))
        if kind == "dependent" and cols:
            i, j = data.draw(st.lists(st.integers(0, len(cols) - 1), min_size=2, max_size=2))
            c = data.draw(field_entry)
            cols.append([c * x + y for x, y in zip(cols[i], cols[j])])
        else:
            cols.append(_values(data, k) if kind == "free" else [QSqrt2(0)] * k)
    Y = PairMatrix.of([list(row) for row in zip(*cols)])
    assume(Y.den > 1 and Y.b.any())
    C = Z @ Y
    pivots = exact_pivots(PairMatrix.concat([C, Z], axis=1))
    want = sum(p < n for p in pivots), [p - n for p in pivots if p >= n]
    assert coh._h1_reading(Z, C) == want
    # a coboundary candidate outside span(Z) breaks B^1 <= Z^1
    v = PairMatrix.of(_values(data, k + extra))
    if not exact_in_span([Z[:, j] for j in range(k)], v):
        at = data.draw(st.integers(0, n))
        outside = PairMatrix.concat([C[:, :at], v[:, None], C[:, at:]], axis=1)
        with pytest.raises(coh.CohomologyError):
            coh._h1_reading(Z, outside)


def test_h1_reading_needs_a_unit_row_per_column():
    Z = PairMatrix.of(np.array([[1, 1], [1, 2], [0, 3]]))
    with pytest.raises(coh.CohomologyError):
        coh._h1_reading(Z, Z)
