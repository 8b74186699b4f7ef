import json
import os
import sys
import threading
import warnings
from math import sqrt

import numpy as np
import pytest

from coxvar import repvar
from coxvar.coxeter import _PM_SIGNS, GAMMA22_NAMES, gamma22, gamma22_vectors, gamma_rect
from coxvar.cusp import _problem, base_cube
from coxvar.geometry import DimensionMismatch, QuadraticSpace, eval_bilinear, eval_form
from coxvar.linalg_exact import PairMatrix
from coxvar.repvar import (AmbiguousNearThreshold, IllConditioned, Lift, MixedBackends,
                           NoConvergence,
                           NonFiniteResidual, OverlappingConstraint, ParameterOutOfRange,
                           SliceDegenerate, _lstsq, build_constraints, canonical_tangency_pairs,
                           collapsed_lift_exact, constraint_system, find_cusp_subgroups,
                           find_tangency_pairs, gauss_newton, gram_matrix,
                           jacobian, kernel_report, known_tangent, nearest_standard_t,
                           orbit_tangent, project_to_variety, residual, residual_max,
                           standard_lift, table_lift_exact, trace_path)


def test_standard_lift_hyp_matches_table_at_one():
    lift = standard_lift(1.0, "hyp")
    exact = table_lift_exact().as_float()
    for n in lift.names:
        assert np.max(np.abs(lift.vectors[n] - exact.vectors[n])) < 1e-14


def test_standard_lift_values():
    l0 = standard_lift(0.0, "hyp")
    assert np.allclose(l0.vectors["0+"], [0, 0, 0, 0, 1])
    lh = standard_lift(0.5, "hyp")
    assert abs(float(eval_form(lh.space, lh.vectors["0-"])) - 1) < 1e-14
    la0 = standard_lift(0.0, "ads")
    for n in l0.names:
        assert np.allclose(l0.vectors[n], la0.vectors[n])


def _lift_per_generator(t, geometry):
    """The family and its tangent written out one generator at a time:
    (the (22, 5) table, the flat tangent) in GAMMA22_NAMES order."""
    s = {"hyp": 1, "ads": -1}[geometry]
    c = 1.0 / sqrt(1.0 + s * t * t)
    lam = (1.0 + s * t * t) ** -1.5
    rows, tangent = {}, {}
    for i, (e_i, e) in _PM_SIGNS.items():
        rows[f"{i}+"] = c * np.array([sqrt(2.0) * t, e_i[0] * t, e_i[1] * t, e_i[2] * t, e],
                                     dtype=float)
        rows[f"{i}-"] = c * np.array([sqrt(2.0), *e_i, -s * e * t], dtype=float)
    for i in range(8):
        tangent[f"{i}+"] = lam * rows[f"{i}-"]
        tangent[f"{i}-"] = -s * lam * rows[f"{i}+"]
    for n, v in zip("ABCDEF", np.asarray(gamma22_vectors()[16:], dtype=float)):
        rows[n], tangent[n] = v, np.zeros(5)
    return (np.array([rows[n] for n in GAMMA22_NAMES]),
            np.concatenate([tangent[n] for n in GAMMA22_NAMES]))


@pytest.mark.parametrize("geometry,end", [("hyp", 3.0), ("ads", 0.999)])
def test_standard_lift_and_tangent_bits(geometry, end):
    # the stacked builders give every entry the bits of the per-generator formulas
    ts = [*np.linspace(-end, end, 47).tolist(), 0.0, -0.0, 1e-300, 0.1, 1 / 3]
    if geometry == "hyp":
        ts.append(1.0)
    for t in ts:
        table, tangent = _lift_per_generator(t, geometry)
        lift = standard_lift(t, geometry)
        assert lift.names == GAMMA22_NAMES
        assert lift.table.tobytes() == table.tobytes(), t
        assert known_tangent(t, geometry).tobytes() == tangent.tobytes(), t


def test_lift_owns_its_table():
    lift = standard_lift(0.3, "hyp")
    before = lift.table.copy()
    flat = lift.flatten()
    flat[:] = 7.0
    moved = lift.with_flat(before.reshape(-1).copy() + 1.0)
    source = before.copy()
    copied = Lift(lift.space, lift.names, source, lift.norm_targets)
    source[:] = 0.0
    assert lift.table.tobytes() == before.tobytes()
    assert moved.table.tobytes() == (before + 1.0).tobytes()
    assert copied.table.tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        lift.vectors["0+"][0] = 1.0
    exact = table_lift_exact()
    flat = exact.flatten()
    flat.a[:] = 0
    assert (exact.table - gamma22_vectors()).is_zero() and not gamma22_vectors().is_zero()


def test_lift_table_shape():
    lift = standard_lift(0.3, "hyp")
    assert lift.table.size == 110 and lift.table.shape == (22, 5)
    with pytest.raises(DimensionMismatch):
        Lift(lift.space, lift.names, lift.table[:, :4], lift.norm_targets)
    with pytest.raises(DimensionMismatch):
        Lift(lift.space, lift.names, lift.table[:21], lift.norm_targets)
    with pytest.raises(ValueError, match="distinct"):
        Lift(lift.space, ("0+", "0+"), lift.table[:2], {"0+": 1})


def test_lift_rejects_a_norm_target_two():
    lift = standard_lift(0.3, "hyp")
    with pytest.raises(ValueError, match="norm targets must be \\+1 or -1"):
        Lift(lift.space, lift.names, lift.table, {**lift.norm_targets, "A": 2})


def test_lift_from_json_checks_rows():
    data = json.loads(table_lift_exact().to_json())
    data["vectors"]["3-"] = data["vectors"]["3-"][:4]
    with pytest.raises(DimensionMismatch, match="'3-'"):
        Lift.from_json(json.dumps(data))
    data = json.loads(table_lift_exact().to_json())
    data["vectors"]["A"] = ["1.0", "1.4142135623730951", "0.0", "0.0", "0.0"]
    with pytest.raises(MixedBackends):
        Lift.from_json(json.dumps(data))


def test_ads_parameter_domain():
    standard_lift(0.99, "ads")
    with pytest.raises(ParameterOutOfRange):
        standard_lift(1.0, "ads")
    with pytest.raises(ParameterOutOfRange):
        known_tangent(-1.0, "ads")
    with pytest.raises(ParameterOutOfRange):
        standard_lift(0.5, "sol")


def test_lift_json_roundtrip():
    lift = standard_lift(0.25, "ads")
    again = Lift.from_json(lift.to_json())
    for n in lift.names:
        assert np.allclose(lift.vectors[n], again.vectors[n])
    exact = table_lift_exact()
    back = Lift.from_json(exact.to_json())
    assert back.exact
    assert all((back.vectors[n] - exact.vectors[n]).is_zero() for n in exact.names)


def test_lift_json_roundtrip_integral_float():
    # integral float entries are written as 1.0, not 1, so the lift stays a float lift
    lift = Lift(QuadraticSpace(2, (-1, 1)), ("a",), np.array([[0.0, 1.0]]), {"a": 1})
    text = lift.to_json()
    assert json.loads(text)["vectors"] == {"a": ["0.0", "1.0"]}
    back = Lift.from_json(text)
    assert not back.exact and np.array_equal(back.table, lift.table)


def test_build_constraints_counts():
    g22 = gamma22()
    targets = table_lift_exact().norm_targets
    assert len(build_constraints(g22, targets)) == 102
    tang = canonical_tangency_pairs("hyp")
    assert len(build_constraints(g22, targets, tang)) == 138
    rect = gamma_rect()
    assert len(build_constraints(rect, {n: 1 for n in rect.generators})) == 8
    with pytest.raises(OverlappingConstraint):
        build_constraints(g22, targets, [(("0+", "0-"), 1)])


def test_find_tangency_pairs():
    pairs = find_tangency_pairs(standard_lift(0.5, "hyp"))
    assert len(pairs) == 36
    assert dict(pairs)[("A", "B")] == -1
    # signed values, not just the pair set, are constant along the path
    for t in (-0.9, 0.3, 0.7):
        assert dict(find_tangency_pairs(standard_lift(t, "hyp"))) == dict(pairs)
    ads = dict(find_tangency_pairs(standard_lift(-0.6, "ads")))
    assert len(ads) == 36
    assert dict(find_tangency_pairs(standard_lift(0.6, "ads"))) == ads


def test_find_tangency_pairs_exact_lifts():
    # exact lifts are censused on their float Gram matrix
    at_one = find_tangency_pairs(standard_lift(1.0, "hyp"))
    assert len(at_one) == 60
    assert find_tangency_pairs(table_lift_exact()) == at_one
    for geometry in ("hyp", "ads"):
        collapsed = find_tangency_pairs(standard_lift(0.0, geometry))
        assert len(collapsed) == 52
        assert find_tangency_pairs(collapsed_lift_exact(geometry)) == collapsed


def test_find_tangency_ambiguous():
    lift = standard_lift(0.5, "hyp")
    table = lift.table.copy()
    # pushes b(A, B) into the ambiguous band for tol = 1e-9
    table[lift.names.index("A"), 0] += 5e-9
    with pytest.raises(AmbiguousNearThreshold):
        find_tangency_pairs(Lift(lift.space, lift.names, table, lift.norm_targets))


@pytest.mark.parametrize("geometry,t", [("hyp", 0.3), ("ads", -0.6)])
def test_residual_on_path(geometry, t):
    system = constraint_system(geometry, with_tangencies=True)
    lift = standard_lift(t, geometry)
    assert residual_max(system, lift) < 1e-12
    # off the path, the vectorised rows equal the per-pair loop bit for bit
    off = lift.with_flat(lift.flatten() + 1e-3)
    ref = [eval_bilinear(off.space, off.vectors[c.a], off.vectors[c.b]) - c.target
           for c in system.constraints]
    assert residual(system, off).tolist() == ref


def test_residual_exact_lift_is_zero():
    g22 = gamma22()
    targets = table_lift_exact().norm_targets
    system = build_constraints(g22, targets, canonical_tangency_pairs("hyp"))
    vals = residual(system, table_lift_exact())
    assert vals.shape == (len(system),) and vals.is_zero()


def test_residual_locality():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.4, "hyp")
    flat = lift.flatten()
    k = lift.names.index("3-") * 5 + 2
    flat2 = flat.copy()
    flat2[k] += 1e-3
    r1 = residual(system, lift)
    r2 = residual(system, lift.with_flat(flat2))
    changed = {i for i in range(len(system)) if abs(r1[i] - r2[i]) > 1e-15}
    for i in changed:
        c = system.constraints[i]
        assert "3-" in (getattr(c, "name", None), getattr(c, "a", None), getattr(c, "b", None))


def test_jacobian_shape_and_blocks():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.0, "hyp")
    J = jacobian(system, lift)
    assert J.shape == (138, 110)
    i = lift.names.index("0+")
    row = J[0]  # norm row of the first generator, 0+
    assert np.any(row[5 * i:5 * i + 5])
    mask = np.ones(110, dtype=bool)
    mask[5 * i:5 * i + 5] = False
    assert not np.any(row[mask])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12345)
    system = constraint_system("hyp", with_tangencies=True)
    base = standard_lift(0.3, "hyp")
    lift_maps = (lambda x: residual(system, base.with_flat(x)),
                 lambda x: jacobian(system, base.with_flat(x)))
    # the half-pipe cube system: scaled b(X, 2p) rows and the -c column
    hp_params, *hp_maps, _ = _problem("hp", "cube", base_cube("hp"))
    h = 1e-6
    for (F, J), x0 in ((lift_maps, base.flatten()), (hp_maps, hp_params)):
        n = len(x0)
        worst = 0.0
        for _ in range(100):
            x = x0 + rng.normal(scale=0.1, size=n)
            jac = J(x)
            fd = np.empty_like(jac)
            for col in range(n):
                e = np.zeros(n)
                e[col] = h
                fd[:, col] = (F(x + e) - F(x - e)) / (2 * h)
            worst = max(worst, np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
        assert worst < 1e-6


def test_maps_on_stacks_match_rows():
    rng = np.random.default_rng(2)
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.3, "hyp")
    hyp_maps = system.maps(lift.space.signature, {n: 5 * k for k, n in enumerate(lift.names)})
    hp_params, *hp_maps, _ = _problem("hp", "cube", base_cube("hp"))
    for (F, J), x0 in ((hyp_maps, lift.flatten()), (hp_maps, hp_params)):
        xs = x0 + rng.normal(scale=0.1, size=(6, len(x0)))
        r, jac = F(xs), J(xs)
        assert r.shape == (6, len(F(x0))) and jac.shape == r.shape + (len(x0),)
        for k, x in enumerate(xs):
            assert r[k].tobytes() == F(x).tobytes()
            assert jac[k].tobytes() == J(x).tobytes()
    # exact (PairMatrix) rows: the table lift and the collapsed lift
    F = hyp_maps[0]
    exact = [table_lift_exact(), collapsed_lift_exact("hyp")]
    r = F(PairMatrix.stack([e.flatten() for e in exact]))
    for k, e in enumerate(exact):
        assert (r[k] - residual(system, e)).is_zero()
    assert r[0].is_zero()


@pytest.mark.parametrize("shape", [(18, 30), (138, 90)])
def test_stacked_lstsq_matches_numpy(shape):
    # the rigidity steps (M < N) and the trace corrector (M > N), with
    # rank-deficient members that exercise the rcond cut
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6,) + shape)
    a[3:, 1] = a[3:, 0]
    a[4:, :, 2] = a[4:, :, 1]
    b = rng.normal(size=(6, shape[0]))
    x = _lstsq(a, b)
    for k in range(6):
        assert x[k].tobytes() == np.linalg.lstsq(a[k], b[k], rcond=None)[0].tobytes()


def test_stacked_lstsq_non_finite_raises():
    # nan only: LAPACK's gelsd does not return on an infinite entry, which is
    # why gauss_newton checks the residual before any step
    a = np.ones((2, 3, 4))
    a[1, 0, 0] = np.nan
    b = np.ones((2, 3))
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        _lstsq(a, b)
    with pytest.raises(np.linalg.LinAlgError) as lone:
        np.linalg.lstsq(a[1], b[1], rcond=None)
    assert str(stacked.value) == str(lone.value)


def _root_maps():
    """F(x) = x_0^2 - x_1 with x_1 held fixed: no real root when x_1 < 0."""
    def F(x):
        return x[..., :1] ** 2 - x[..., 1:]

    def J(x):
        return np.stack([2 * x[..., :1], -np.ones_like(x[..., 1:])], axis=-1)

    return F, J


def test_gauss_newton_stack_rows_run_as_alone():
    F, J = _root_maps()
    x0 = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 5.0], [1.0, 1.0]])
    x, iters, res = gauss_newton(F, J, x0, free_idx=[0])
    for k in (0, 2, 3):
        xk, ik, rk = gauss_newton(F, J, x0[k], free_idx=[0])
        assert (x[k].tobytes(), iters[k], res[k]) == (xk.tobytes(), ik, rk)
    assert iters[3] == 0
    with pytest.raises(NoConvergence, match="after 50 Gauss-Newton steps"):
        gauss_newton(F, J, x0[1], free_idx=[0])
    assert iters[1] == 50 and res[1] > 1e-12


@pytest.mark.parametrize("rows, row, message", [
    # row 2 overflows at once, row 1 after one step
    ([[1e-200, -1.0], [1e200, -1.0]], 1, "non-finite residual inf after 1 Gauss-Newton steps"),
    # rows 1 and 2 both fail at once
    ([[np.nan, 1.0], [np.nan, 1.0]], 1, "non-finite residual nan after 0 Gauss-Newton steps"),
])
def test_gauss_newton_stack_reports_lowest_non_finite_row(rows, row, message):
    # the lowest failing row is reported, with its own iteration count, as
    # when the rows run one after the other
    F, J = _root_maps()
    x0 = np.array([[1.5, 2.0]] + rows)
    with pytest.raises(NonFiniteResidual) as stacked:
        gauss_newton(F, J, x0, free_idx=[0])
    assert stacked.value.row == row
    with pytest.raises(np.linalg.LinAlgError) as lone:
        gauss_newton(F, J, x0[row], free_idx=[0])
    assert str(stacked.value) == str(lone.value) == message
    assert stacked.value.iterations == int(message.split()[-3])


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
def test_kernel_dimensions(geometry):
    g0 = constraint_system(geometry, with_tangencies=True)
    g = constraint_system(geometry, with_tangencies=False)
    mid = standard_lift(0.5, geometry)
    assert kernel_report(g0, mid).kernel_dim == 11
    assert kernel_report(g, mid).kernel_dim == 11
    zero = standard_lift(0.0, geometry)
    rep = kernel_report(g, zero)
    assert rep.kernel_dim == 23
    assert rep.gap_ratio >= 1e3
    assert rep.numeric_rank + rep.kernel_dim == 110
    assert kernel_report(g0, zero).kernel_dim == 11


def test_kernel_report_warns_off_variety():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.4, "hyp")
    off = lift.with_flat(lift.flatten() + 1e-4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel_report(system, off)
    assert any("residual" in str(w.message) for w in caught)


def test_kernel_report_ill_conditioned():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.4, "hyp")
    s = np.linalg.svd(jacobian(system, lift), compute_uv=False)
    # place the rank cut in the middle of the continuous part of the spectrum
    bad_tol = float(np.sqrt(s[50] * s[51]) / s[0])
    with pytest.raises(IllConditioned):
        kernel_report(system, lift, tol=bad_tol)
    # a relative cut outside (0, 1) keeps every or no singular value: refused
    for tol in (0.0, -1.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            kernel_report(system, lift, tol=tol)


@pytest.mark.parametrize("tangencies", [False, True])
def test_kernel_report_cut_above_rounding_floor(tangencies):
    # the normals grow like (1 - t^2)^-1/2: at t = 0.9999999 the gap ratio
    # passes (about 1.5e3) but the values cut as zero are far above rounding,
    # and the kernel would read 20; at t = 0.99999 it is still 11
    system = constraint_system("ads", with_tangencies=tangencies)
    with pytest.raises(IllConditioned, match="rounding floor"):
        kernel_report(system, standard_lift(0.9999999, "ads"))
    assert kernel_report(system, standard_lift(0.99999, "ads")).kernel_dim == 11


def test_orbit_tangent():
    system = constraint_system("hyp", with_tangencies=False)
    for t in (0.5, 0.0):
        lift = standard_lift(t, "hyp")
        dirs, dim = orbit_tangent(lift)
        assert dim == 10
        J = jacobian(system, lift)
        for v in dirs:
            assert np.max(np.abs(J @ v)) < 1e-12


def test_known_tangent():
    v = known_tangent(0.0, "ads")
    lift = standard_lift(0.0, "ads")
    i = lift.names.index("0+")
    assert np.allclose(v[5 * i:5 * i + 5], lift.vectors["0-"])
    system = constraint_system("ads", with_tangencies=True)
    t = 0.4
    vt = known_tangent(t, "ads")
    J = jacobian(system, standard_lift(t, "ads"))
    assert np.max(np.abs(J @ vt)) < 1e-10
    dirs, dim = orbit_tangent(standard_lift(t, "ads"))
    stacked = np.array(dirs + [vt])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 11


def test_known_tangent_hyp_sign():
    t = 0.3
    lift = standard_lift(t, "hyp")
    v = known_tangent(t, "hyp")
    lam = (1 + t * t) ** -1.5
    i = lift.names.index("0-")
    assert np.allclose(v[5 * i:5 * i + 5], -lam * lift.vectors["0+"])
    J = jacobian(constraint_system("hyp", True), lift)
    assert np.max(np.abs(J @ v)) < 1e-10


def test_project_to_variety():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.5, "hyp")
    rng = np.random.default_rng(7)
    noisy = lift.with_flat(lift.flatten() + rng.uniform(-1e-4, 1e-4, 110))
    projected, iters = project_to_variety(system, noisy)
    assert iters <= 10
    assert residual_max(system, projected) < 1e-12
    same, iters = project_to_variety(system, lift)
    assert iters <= 1
    assert np.max(np.abs(same.flatten() - lift.flatten())) == 0.0
    wild = lift.with_flat(lift.flatten() + rng.uniform(-10, 10, 110))
    try:
        far, _ = project_to_variety(system, wild)
        assert residual_max(system, far) < 1e-12  # converged somewhere on the variety
    except NoConvergence:
        pass  # escaping the basin is acceptable


def test_trace_path_zero_steps():
    system = constraint_system("ads", with_tangencies=True)
    start = standard_lift(0.2, "ads")
    assert trace_path(system, start, 0, 0.1) == [start.as_float()]


def test_trace_path_matches_closed_form():
    system = constraint_system("ads", with_tangencies=True)
    start = standard_lift(0.2, "ads")
    path = trace_path(system, start, 4, 0.25, orient=known_tangent(0.2, "ads"))
    ts = [nearest_standard_t(p, "ads") for p in path]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for p, t in zip(path, ts):
        ref = standard_lift(t, "ads")
        assert np.max(np.abs(gram_matrix(p) - gram_matrix(ref))) < 1e-6


def test_trace_path_degenerate_slice():
    system = constraint_system("hyp", with_tangencies=True)
    start = standard_lift(0.3, "hyp")
    with pytest.raises(SliceDegenerate):
        trace_path(system, start, 1, 0.1, gauge=("A",))


def test_trace_path_ill_conditioned():
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.4, "hyp")
    free = [k for k in range(110) if lift.names[k // 5] not in ("A", "B", "C", "D")]
    s = np.linalg.svd(jacobian(system, lift)[:, free], compute_uv=False)
    # place the tracer's rank cut in the middle of the continuous part of the spectrum
    bad_tol = float(np.sqrt(s[40] * s[41]) / s[0])
    with pytest.raises(IllConditioned):
        trace_path(system, lift, 1, 0.1, rank_tol=bad_tol)


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
@pytest.mark.parametrize("tangencies", [False, True])
def test_one_blas_thread_keeps_kernel_bits(monkeypatch, geometry, tangencies):
    # the same bytes on one BLAS thread and on the default count
    system = constraint_system(geometry, with_tangencies=tangencies)
    lifts = [standard_lift(t, geometry) for t in (-0.5, 0.0, 0.37)]
    scoped = [kernel_report(system, lift) for lift in lifts]
    monkeypatch.setattr(repvar, "_blas_thread_setter", lambda: None)
    for one, default in zip(scoped, (kernel_report(system, lift) for lift in lifts)):
        assert one.singular_values.tobytes() == default.singular_values.tobytes()
        assert one.kernel_basis.tobytes() == default.kernel_basis.tobytes()


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
def test_one_blas_thread_keeps_trace_bits(monkeypatch, geometry):
    system = constraint_system(geometry, with_tangencies=True)
    start = standard_lift(0.3, geometry)
    scoped = trace_path(system, start, 3, 0.1)
    monkeypatch.setattr(repvar, "_blas_thread_setter", lambda: None)
    default = trace_path(system, start, 3, 0.1)
    assert [p.table.tobytes() for p in scoped] == [p.table.tobytes() for p in default]


def test_blas_thread_setter_found_for_numpys_openblas():
    """Where numpy's build reports OpenBLAS 0.3.27 or later, the setter is
    found and sets the count, so the one-thread SVDs do run on one thread."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = tuple(int(v) for v in str(blas.get("version", "")).split(".")[:3] if v.isdigit())
    if "openblas" not in blas.get("name", "") or version < (0, 3, 27):
        pytest.skip(f"numpy's BLAS is {blas.get('name')} {blas.get('version')}")
    setter = repvar._blas_thread_setter()
    assert setter is not None
    original = setter(2)
    try:
        assert setter(1) == 2
        assert setter(2) == 1
    finally:
        setter(original)


@pytest.fixture
def blas_count():
    """Read the BLAS thread count, set to 2 first so that a count left at 1 shows."""
    setter = repvar._blas_thread_setter()
    if setter is None:
        pytest.skip("no openblas_set_num_threads_local found: the BLAS scope does nothing")
    original = setter(2)

    def read():
        count = setter(1)
        setter(count)
        return count

    yield read
    setter(original)


def test_one_blas_thread_restores_count(blas_count):
    system = constraint_system("hyp", with_tangencies=True)
    lift = standard_lift(0.4, "hyp")
    kernel_report(system, lift)
    assert blas_count() == 2
    s = np.linalg.svd(jacobian(system, lift), compute_uv=False)
    with pytest.raises(IllConditioned):
        kernel_report(system, lift, tol=float(np.sqrt(s[50] * s[51]) / s[0]))
    assert blas_count() == 2
    # no gauge leaves the whole 11-dimensional kernel
    with pytest.raises(SliceDegenerate, match="dimension 11"):
        trace_path(system, lift, 1, 0.1, gauge=())
    assert blas_count() == 2


def test_one_blas_thread_restores_count_across_threads(blas_count):
    # concurrent scopes on more threads than cores must not restore each
    # other's counts out of order
    system = constraint_system("ads", with_tangencies=False)
    lift = standard_lift(0.2, "ads")
    finished = []

    def reports():
        for _ in range(5):
            kernel_report(system, lift)
        finished.append(True)

    workers = [threading.Thread(target=reports) for _ in range((os.cpu_count() or 1) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(finished) == len(workers)
    assert blas_count() == 2


def test_nearest_standard_t_recovers_parameter():
    for geometry, t in [("hyp", 0.37), ("ads", -0.42), ("hyp", 0.0)]:
        lift = standard_lift(t, geometry)
        assert abs(nearest_standard_t(lift, geometry) - t) < 1e-12


def test_find_cusp_subgroups():
    lift = standard_lift(0.5, "hyp")
    subsets = find_cusp_subgroups(lift)
    assert len(subsets) == 12
    for sub in subsets:
        letters = [n for n in sub if n in "ABCDEF"]
        assert len(letters) == 2
    # the census is the same at other interior parameters
    assert find_cusp_subgroups(standard_lift(-0.7, "ads")) == [
        tuple(s) for s in find_cusp_subgroups(standard_lift(0.2, "hyp"))]


def _cube_subsets_by_triples(lift, tol=1e-9):
    """The census by its definition: every triple of disjoint tangent pairs
    whose 12 other pairs are orthogonal."""
    from itertools import combinations

    gram = gram_matrix(lift)
    idx = range(len(lift.names))
    tangent = [(i, j) for i, j in combinations(idx, 2) if abs(abs(gram[i, j]) - 1) <= tol]
    found = []
    for triple in combinations(tangent, 3):
        members = sorted({k for pair in triple for k in pair})
        if len(members) == 6 and all(abs(gram[i, j]) <= tol for i, j in combinations(members, 2)
                                     if (i, j) not in triple):
            (a1, a2), (b1, b2), (c1, c2) = triple
            found.append(tuple(lift.names[k] for k in (a1, b1, c1, a2, b2, c2)))
    return sorted(found)


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
def test_find_cusp_subgroups_at_the_collapse(geometry):
    # the accidental Gram matches of the collapsed lift: 336 subsets
    subsets = find_cusp_subgroups(standard_lift(0.0, geometry))
    assert len(subsets) == 336
    assert find_cusp_subgroups(collapsed_lift_exact(geometry)) == subsets
    if geometry == "hyp":
        assert subsets == _cube_subsets_by_triples(standard_lift(0.0, geometry))


def test_find_cusp_subgroups_matches_its_definition():
    for lift in (standard_lift(0.4, "hyp"), standard_lift(-0.7, "ads"),
                 standard_lift(1.0, "hyp")):
        assert find_cusp_subgroups(lift) == _cube_subsets_by_triples(lift)


def test_find_cusp_subgroups_exact_table():
    subsets = find_cusp_subgroups(standard_lift(1.0, "hyp"))
    assert len(subsets) == 12
    assert find_cusp_subgroups(table_lift_exact()) == subsets


def test_cusp_subgroup_rect_restrictions_are_cusps():
    from coxvar.cusp import CuspKind, classify_rect

    lift = standard_lift(0.5, "hyp")
    for sub in find_cusp_subgroups(lift):
        a1, b1, c1, a2, b2, c2 = sub
        for quad in [(a1, b1, a2, b2), (a1, c1, a2, c2), (b1, c1, b2, c2)]:
            data = [lift.vectors[n] for n in quad]
            assert classify_rect("hyp", data).kind == CuspKind.CUSP


def test_gram_symmetric():
    g = gram_matrix(standard_lift(0.3, "hyp"))
    assert np.max(np.abs(g - g.T)) == 0.0
