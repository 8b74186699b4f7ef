"""Acceptance suite: the headline claims, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion; each test also prints an ACCEPTANCE summary line (visible
with -s or on failure).  Tolerances are pinned here and nowhere else.
"""

import numpy as np

from coxvar import cohomology as coh
from coxvar.coxeter import gamma22_vectors, gamma_co, verify_representation
from coxvar.cusp import CuspKind, base_cube, base_rect_hyp, classify_cube, rigidity_experiment
from coxvar.geometry import QuadraticSpace, eval_bilinear, eval_form
from coxvar.halfpipe import rho_lambda
from coxvar.linalg_exact import PairMatrix
from coxvar.repvar import (collapsed_lift_exact, constraint_system, find_cusp_subgroups,
                           gram_matrix, jacobian, kernel_report, known_tangent,
                           nearest_standard_t, orbit_tangent, residual_max, standard_lift,
                           trace_path)
from coxvar.scalars import QSqrt2

GRID = [round(-0.9 + 0.1 * k, 10) for k in range(19)]  # -0.9, -0.8, ..., 0.9


def _announce(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def test_criterion_01_exact_tables():
    space = QuadraticSpace.hyperbolic(4)
    vecs = gamma22_vectors()
    assert vecs.shape == (22, 5)
    assert all(eval_form(space, vecs[k]).item() == 1 for k in range(22))
    ortho = sum(1 for i in range(22) for j in range(i + 1, 22)
                if eval_bilinear(space, vecs[i], vecs[j]).item() == 0)
    assert ortho == 80
    assert gamma_co().rank == 14
    _announce(1, "22 exact unit vectors, 80 orthogonal pairs, 14 cuboctahedron generators")


def test_criterion_02_path_validity():
    worst = 0.0
    for geometry in ("hyp", "ads"):
        system = constraint_system(geometry, with_tangencies=True)
        assert len(system) == 138
        for t in GRID:
            worst = max(worst, residual_max(system, standard_lift(t, geometry)))
    assert worst < 1e-12
    _announce(2, f"138-equation residual < 1e-12 on the 19-point grid (worst {worst:.2e})")


def test_criterion_03_smoothness_dimensions():
    for geometry in ("hyp", "ads"):
        g0 = constraint_system(geometry, with_tangencies=True)
        g = constraint_system(geometry, with_tangencies=False)
        for t in GRID:
            lift = standard_lift(t, geometry)
            rep0 = kernel_report(g0, lift, tol=1e-9)
            assert rep0.kernel_dim == 11, (geometry, t)
            assert rep0.gap_ratio >= 1e3
            if t != 0:
                rep = kernel_report(g, lift, tol=1e-9)
                assert rep.kernel_dim == 11, (geometry, t)
                assert rep.gap_ratio >= 1e3
    _announce(3, "kernel dim 11 for g0 everywhere and for g off the collapse, gaps >= 1e3")


def test_criterion_04_collapse_tangent(racg22, full_adjoint_reports):
    dims = set()
    for geometry in ("hyp", "ads"):
        g = constraint_system(geometry, with_tangencies=False)
        rep = kernel_report(g, standard_lift(0.0, geometry), tol=1e-9)
        dims.add(rep.kernel_dim)
    assert dims == {23}
    z1_dims = {geometry: report.dimZ1 for geometry, (_, report) in full_adjoint_reports.items()}
    assert set(z1_dims.values()) == {23}
    _announce(4, "numeric kernel at the collapse = 23 = exact dim Z^1(Ad rho_0, g)")


def test_criterion_05_exact_cohomology_dimensions(racg22, rho0_report, so13_report,
                                          full_adjoint_reports):
    assert rho0_report[1].dimH1 == 1
    assert so13_report[1].dimH1 == 12
    for geometry, (rep, report) in full_adjoint_reports.items():
        assert report.dimH1 == 13, geometry
        assert coh.split_h1(racg22, rep, report) == (12, 1), geometry
    _announce(5, "exact dim H^1 = 1, 12, and 13 (x3) with splitting 12 + 1")


def test_criterion_06_geometric_generator(racg22, rho0_report):
    report = verify_representation(racg22, rho_lambda(1).as_isometries(), tol=0)
    assert report.ok and report.max_defect == 0.0
    rep0, coh_report = rho0_report
    tau1 = coh.tau_lambda_cocycle(1)
    ident = PairMatrix.identity(4)
    tau = {n: PairMatrix.of(tau1[n]) for n in racg22.generators}
    for n in racg22.generators:  # cocycle conditions, exactly
        assert ((ident + rep0.image(n)) @ tau[n]).is_zero()
    for a, b in racg22.commuting_name_pairs():
        lhs = (ident - rep0.image(a)) @ tau[b]
        rhs = (ident - rep0.image(b)) @ tau[a]
        assert (lhs - rhs).is_zero()
    assert not coh.is_coboundary(racg22, rep0, tau1)
    rng = np.random.default_rng(2026)
    for _ in range(3):
        coeffs = [QSqrt2(int(rng.integers(-4, 5)), int(rng.integers(-3, 4)))
                  for _ in range(coh_report.dimZ1)]
        combo = coh_report.z1_basis @ PairMatrix.of(coeffs)  # a flat cocycle
        lam = coh.vertical_coefficient(coh.reduce_mod_coboundary(combo))
        assert lam is not None
    _announce(6, "rho_1 exactly represents all 102 relations; tau_1 generates H^1")


def test_criterion_07_known_tangent():
    samples = [round(-0.85 + 0.18 * k, 10) for k in range(10)]
    for geometry in ("ads", "hyp"):
        system = constraint_system(geometry, with_tangencies=True)
        for t in samples:
            lift = standard_lift(t, geometry)
            v = known_tangent(t, geometry)
            J = jacobian(system, lift)
            assert np.max(np.abs(J @ v)) < 1e-10, (geometry, t)
            dirs, dim = orbit_tangent(lift)
            assert dim == 10
            assert np.linalg.matrix_rank(np.array(dirs + [v]), tol=1e-9) == 11
    _announce(7, "closed-form tangent annihilates dg_0 and completes the orbit to rank 11")


def test_criterion_08_cusp_census():
    reference = None
    for geometry in ("hyp", "ads"):
        for t in GRID:
            if t == 0:
                continue
            subsets = find_cusp_subgroups(standard_lift(t, geometry))
            assert len(subsets) == 12, (geometry, t)
            if reference is None:
                reference = subsets
            assert subsets == reference
    for geometry in ("hyp", "ads"):
        for t in (-0.8, -0.3, 0.5, 0.9):
            lift = standard_lift(t, geometry)
            for sub in reference:
                data = [lift.vectors[n] for n in sub]
                assert classify_cube(geometry, data).kind == CuspKind.CUSP
        zero = collapsed_lift_exact(geometry).as_float()
        for sub in reference:
            data = [zero.vectors[n] for n in sub]
            assert classify_cube(geometry, data).kind == CuspKind.COLLAPSED
    for lam, expected in ((1.0, CuspKind.CUSP), (0.6, CuspKind.CUSP),
                          (-2.0, CuspKind.CUSP), (0.0, CuspKind.COLLAPSED)):
        refl = rho_lambda(lam).as_reflections()
        for sub in reference:
            assert classify_cube("hp", [refl[n] for n in sub]).kind == expected, lam
    _announce(8, "12 cusp subsets; Cusp off the collapse, Collapsed at it, in all geometries")


def test_criterion_09_rigidity_experiments():
    for geometry in ("ads", "hyp", "hp"):
        stats = rigidity_experiment(geometry, "cube", base_cube(geometry),
                                    trials=1000, noise=1e-3, seed=2026)
        assert stats.counts == {"cusp": 1000}, geometry
    rect = rigidity_experiment("hyp", "rect", base_rect_hyp(),
                               trials=1000, noise=1e-3, seed=2026)
    assert set(rect.counts) <= {"cusp", "rect_split"}
    assert rect.counts.get("unclassified", 0) == 0
    assert rect.counts.get("no_convergence", 0) == 0
    assert sum(rect.counts.values()) == 1000
    _announce(9, "4000 seeded trials: cube stays a cusp group in all three geometries; "
                 "the rectangle splits one-intersecting-one-disjoint")


def test_criterion_10_tracer_consistency():
    system = constraint_system("ads", with_tangencies=True)
    start = standard_lift(0.2, "ads")
    path = trace_path(system, start, steps=10, step_size=0.3,
                      orient=-known_tangent(0.2, "ads"))
    ts = [nearest_standard_t(p, "ads") for p in path]
    assert all(b < a for a, b in zip(ts, ts[1:]))  # monotone decreasing
    assert min(ts) < 0.0 < max(ts)  # the path crossed the collapse
    worst = 0.0
    for p, t in zip(path, ts):
        ref = standard_lift(t, "ads")
        worst = max(worst, float(np.max(np.abs(gram_matrix(p) - gram_matrix(ref)))))
    assert worst < 1e-6
    _announce(10, f"10 traced steps through t = 0 match closed form (worst Gram dev {worst:.2e})")
