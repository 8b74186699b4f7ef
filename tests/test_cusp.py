import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvar import cusp
from coxvar.cusp import (TRIAL_CHUNK, CuspClass, CuspKind, PatternViolation, _problem,
                         _rect_class, _trial_noise, base_cube, base_rect_ads, base_rect_hp,
                         base_rect_hyp, classify_cube, classify_rect, rigidity_experiment)
from coxvar.geometry import (HPPointsClass, MixedTypePair, NotUnitSpacelike, PairClassHyp,
                             QuadraticSpace, classify_pair_ads, classify_pair_hyp, coincident,
                             eval_form, reflection_matrix)
from coxvar.coxeter import GAMMA22_NAMES, gamma_cube, gamma_rect
from coxvar.halfpipe import classify_hp_dual_points, rho_lambda_reflections
from coxvar.repvar import (NonFiniteResidual, build_constraints, collapsed_lift_exact,
                           find_cusp_subgroups, gauss_newton, standard_lift)


def test_classify_rect_hyp_examples():
    base = base_rect_hyp()
    assert classify_rect("hyp", base).kind == CuspKind.CUSP
    collapsed = [base[0], base[1], base[0], base[3]]
    got = classify_rect("hyp", collapsed)
    assert got.kind == CuspKind.COLLAPSED and got.pair == (0, 2)


def test_classify_rect_from_standard_lift():
    lift = standard_lift(0.5, "hyp")
    sub = find_cusp_subgroups(lift)[0]
    a1, b1, c1, a2, b2, c2 = sub
    data = [lift.vectors[n] for n in (a1, b1, a2, b2)]
    assert classify_rect("hyp", data).kind == CuspKind.CUSP


def _rect_split_hyp(phi=0.1, theta=0.3):
    """Exact rectangle pattern with one disjoint and one intersecting pair."""
    return [np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([math.sinh(phi), 0.0, math.cosh(phi), 0.0]),
            np.array([0.0, math.cos(theta), 0.0, math.sin(theta)])]


def test_classify_rect_split():
    got = classify_rect("hyp", _rect_split_hyp())
    assert got.kind == CuspKind.RECT_SPLIT
    assert got.disjoint_pair == (0, 2)
    assert got.intersecting_pair == (1, 3)


def test_classify_rect_pattern_violation():
    base = base_rect_hyp()
    broken = [base[0], base[1], base[2], np.array([0.0, 1.0, 1.0, 0.5])]
    with pytest.raises(PatternViolation):
        classify_rect("hyp", broken)


def test_classify_rect_ads_classes():
    base = base_rect_ads()
    assert classify_rect("ads", base).kind == CuspKind.CUSP
    # intersecting timelike pair: rotate by theta -> timelike meet, spacelike disjoint
    theta, phi = 0.3, 0.2
    data = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]),
            np.array([math.cos(phi), 0, 0, math.sin(phi)]),
            np.array([0.0, math.cos(theta), math.sin(theta), 0])]
    assert classify_rect("ads", data).kind == CuspKind.ADS_RECT_TIMELIKE_MEET
    # ultraparallel timelike pair -> spacelike meet, spacelike planes intersect
    data = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]),
            np.array([math.cosh(phi), 0, math.sinh(phi), 0]),
            np.array([0.0, math.cosh(theta), 0, math.sinh(theta)])]
    assert classify_rect("ads", data).kind == CuspKind.ADS_RECT_SPACELIKE_MEET
    with pytest.raises(MixedTypePair):
        bad = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]),
               np.array([0.0, 0, 1, 0]), np.array([0.0, 1, 0, 0]) * 1.0001]
        classify_rect("ads", [bad[0], bad[1], bad[2], bad[3]])


def test_classify_rect_hp():
    assert classify_rect("hp", base_rect_hp()).kind == CuspKind.CUSP
    # collapsing the two non-degenerate walls onto the same dual point
    from coxvar.halfpipe import NonDegenerateReflection

    base = base_rect_hp()
    collapsed = [base[0], base[1], NonDegenerateReflection(np.zeros(3)), base[3]]
    got = classify_rect("hp", collapsed)
    assert got.kind == CuspKind.COLLAPSED and got.pair == (0, 2)


def test_classify_rect_hp_two_degenerate_pairs():
    from coxvar.halfpipe import DegenerateReflection

    base = base_rect_hp()
    x = np.array([0.0, 0.0, 1.0])
    data = [DegenerateReflection(x, 0.0 * x), base[1], DegenerateReflection(-x, 0.0 * x), base[3]]
    with pytest.raises(PatternViolation, match="one non-degenerate and one degenerate"):
        classify_rect("hp", data)


def test_classify_cube_hp_mixed_pair():
    base = base_cube("hp")  # opposite pairs (0, 3) non-degenerate, (1, 4), (2, 5) degenerate
    data = list(base)
    data[4] = base[0]
    with pytest.raises(PatternViolation, match=r"opposite pair \(1, 4\) mixes"):
        classify_cube("hp", data)


def test_classify_cube_hp_collapsed_degenerate_pair():
    # both walls of an opposite pair commute with the same four others, so
    # repeating one wall of the degenerate pair (2, 5) keeps the pattern
    data = list(base_cube("hp"))
    data[5] = data[2]
    got = classify_cube("hp", data)
    assert got.kind == CuspKind.COLLAPSED and got.pair == (2, 5)


def test_classify_cube_hp_adjacent_nondegenerate_walls():
    # (0, 3) is a non-degenerate pair; making (1, 4) one too puts two
    # non-degenerate walls side by side, which no commutation row can hold
    # (this used to report the first failing commutator instead: here (1, 3))
    from coxvar.halfpipe import NonDegenerateReflection

    base = base_cube("hp")
    for p1, p4 in ((base[0].p, base[3].p), (np.zeros(4), np.ones(4))):
        data = list(base)
        data[1], data[4] = NonDegenerateReflection(p1), NonDegenerateReflection(p4)
        with pytest.raises(PatternViolation, match="generators 0 and 1 must commute"):
            classify_cube("hp", data)


@pytest.mark.parametrize("lam", [1e3, 1e6, 1e8, 1e12, 1e100])
def test_classify_cube_hp_invariant_under_rescaling(lam):
    # rho_lambda is conjugate to rho_1 under (A, v) -> (A, v / lambda)
    assert classify_cube("hp", base_cube("hp", lam=lam)).kind == CuspKind.CUSP
    assert classify_cube("hp", base_cube("hp", lam=-lam)).kind == CuspKind.CUSP


def test_classify_cube_pattern_violation():
    lift = standard_lift(0.4, "hyp")
    sub = find_cusp_subgroups(lift)[0]
    data = [lift.vectors[n] for n in sub]
    data[1] = data[1] + 0.05  # breaks the commutation pattern
    with pytest.raises(PatternViolation):
        classify_cube("hyp", data)


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
def test_classify_cube_standard_family(geometry):
    lift = standard_lift(0.4, geometry)
    for sub in find_cusp_subgroups(lift):
        data = [lift.vectors[n] for n in sub]
        assert classify_cube(geometry, data).kind == CuspKind.CUSP
    zero = collapsed_lift_exact(geometry).as_float()
    for sub in find_cusp_subgroups(lift):
        data = [zero.vectors[n] for n in sub]
        got = classify_cube(geometry, data)
        assert got.kind == CuspKind.COLLAPSED


def test_classify_cube_hp():
    lift = standard_lift(0.4, "hyp")
    subs = find_cusp_subgroups(lift)
    refl = rho_lambda_reflections(1.0)
    for sub in subs:
        data = [refl[GAMMA22_NAMES.index(n)] for n in sub]
        assert classify_cube("hp", data).kind == CuspKind.CUSP
    refl0 = rho_lambda_reflections(0.0)
    got = classify_cube("hp", [refl0[GAMMA22_NAMES.index(n)] for n in subs[0]])
    assert got.kind == CuspKind.COLLAPSED


def test_classify_cube_unclassified():
    # walls of a small box around a point of H^4: common fixed point is not ideal
    a = 1e-3
    data = [np.array([0.0, 1, 0, 0, 0]), np.array([0.0, 0, 1, 0, 0]),
            np.array([0.0, 0, 0, 1, 0]),
            np.array([math.sinh(a), math.cosh(a), 0, 0, 0]),
            np.array([math.sinh(a), 0, math.cosh(a), 0, 0]),
            np.array([math.sinh(a), 0, 0, math.cosh(a), 0])]
    got = classify_cube("hyp", data, tol=1e-4)
    assert got.kind == CuspKind.UNCLASSIFIED
    assert "not at infinity" in got.reason


@pytest.mark.parametrize("sigma_kept, narrow", [(5e-7, True), (1e-4, False)])
def test_cube_cut_needs_a_spectral_gap(sigma_kept, narrow):
    # one singular value cut at tol 1e-7; the last kept one is 50x (narrow)
    # or 1e4x (wide, >= MIN_GAP_RATIO) above it
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    v, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    s = np.array([1.0, 1.0, 1.0, sigma_kept, 1e-8])
    rows = (u[:, :5] * s) @ v.T
    got = cusp._cube_class(rows[None], np.array([-1.0, 1, 1, 1, 1]), 1e-7, False)[0]
    assert (got.reason == "no spectral gap at the cut") == narrow


def test_classification_invariant_under_signs_and_isometries():
    lift = standard_lift(0.4, "ads")
    sub = find_cusp_subgroups(lift)[3]
    data = [lift.vectors[n] for n in sub]
    flipped = [(-1) ** k * v for k, v in enumerate(data)]
    assert classify_cube("ads", flipped).kind == CuspKind.CUSP
    space = QuadraticSpace.anti_de_sitter(4)
    g = np.eye(5)
    rng = np.random.default_rng(3)
    for _ in range(3):
        while True:
            v = rng.normal(size=5)
            q = float(v @ space.form_matrix() @ v)
            if abs(q) > 0.3:
                break
        g = g @ reflection_matrix(space, v / math.sqrt(abs(q)))
    moved = [g @ v for v in data]
    assert classify_cube("ads", moved, tol=1e-6).kind == CuspKind.CUSP


def test_classify_at_stack_raises_for_lowest_row():
    params, _, _, classify_at = _problem("hyp", "rect", base_rect_hyp())
    unit = params.copy()
    unit[4:8] *= 1.5  # wall 1 is no longer a unit normal; every pair still commutes
    broken = params.copy()
    broken[14] += 0.5  # b(wall 2, wall 3) = 0.5
    assert [c.kind for c in classify_at(np.array([params, params]), 1e-7)] == [CuspKind.CUSP] * 2
    with pytest.raises(NotUnitSpacelike):
        classify_at(np.array([params, unit, broken]), 1e-7)
    with pytest.raises(PatternViolation, match=r"^generators 2 and 3 must commute; b = 0\.5$"):
        classify_at(np.array([params, broken, unit]), 1e-7)


_R2 = math.sqrt(2)
# AdS rectangles (q_{-1} = -x0^2 + x1^2 + x2^2 - x3^2) whose opposite pairs have
# one type: both spacelike (q = -1), or both timelike (q = +1)
_ADS_SAME_TYPE = {
    "spacelike": [np.eye(4)[0], np.eye(4)[3], np.array([_R2, 1, 0, 0]), np.array([0, 0, 1, _R2])],
    "timelike": [np.eye(4)[1], np.eye(4)[2], np.array([0, _R2, 0, 1]), np.array([1, 0, _R2, 0])],
}
_SAME_TYPE = r"^an AdS rectangle needs one spacelike and one timelike pair$"


@pytest.mark.parametrize("pairs", sorted(_ADS_SAME_TYPE))
def test_ads_rectangle_of_one_type_is_refused(pairs):
    data = _ADS_SAME_TYPE[pairs]
    with pytest.raises(PatternViolation, match=_SAME_TYPE):
        cusp.classify("ads", "rect", data)
    with pytest.raises(PatternViolation, match=_SAME_TYPE):
        rigidity_experiment("ads", "rect", data, 3)
    # in a stack, after a valid rectangle, the row raises as it does alone
    params, _, _, classify_at = _problem("ads", "rect", base_rect_ads())
    bad = np.concatenate(data)
    assert classify_at(params[None], 1e-7)[0].kind == CuspKind.CUSP
    for stack in (bad[None], np.array([params, bad]), np.array([params, params, bad])):
        with pytest.raises(PatternViolation, match=_SAME_TYPE):
            classify_at(stack, 1e-7)


_HP_POSITION = {HPPointsClass.INTERSECT: PairClassHyp.INTERSECTING,
                HPPointsClass.BOUNDARY_TANGENT: PairClassHyp.TANGENT_AT_INFINITY,
                HPPointsClass.DISJOINT: PairClassHyp.DISJOINT}


def _rect_reference(geometry, x, tol):
    """The class of one packed rectangle from the scalar pair classifiers."""
    if geometry == "hp":  # (p0, X1, c1, p2, X3, c3); the translations stay below 1,
        # so classify_at does not rescale them
        p0, x1, c1, p2, x3, c3 = x[0:3], x[3:6], x[6], x[7:10], x[10:13], x[13]
        if np.max(np.abs(p0 - p2)) <= tol:
            return CuspClass(CuspKind.COLLAPSED, pair=(0, 2))
        if coincident(x1, x3, tol) and np.max(np.abs(c1 * x1 - c3 * x3)) <= tol:
            return CuspClass(CuspKind.COLLAPSED, pair=(1, 3))
        classes = [_HP_POSITION[classify_hp_dual_points(p0, p2, tol)],
                   classify_pair_hyp(x1, x3, tol)]
    else:
        w = x.reshape(4, 4)
        for i, j in ((0, 2), (1, 3)):
            if coincident(w[i], w[j], tol):
                return CuspClass(CuspKind.COLLAPSED, pair=(i, j))
        pair = classify_pair_ads if geometry == "ads" else classify_pair_hyp
        classes = [pair(w[0], w[2], tol), pair(w[1], w[3], tol)]
    return _rect_class(classes)


@pytest.mark.parametrize("geometry", ["hyp", "ads", "hp"])
def test_stacked_rect_classes_match_pair_classifiers(geometry):
    # projected rectangles from the base out to noise 0.3, on both sides of
    # the tangency thresholds, at two tolerances
    base = {"hyp": base_rect_hyp, "ads": base_rect_ads, "hp": base_rect_hp}[geometry]()
    params, F, J, classify_at = _problem(geometry, "rect", base)
    rng = np.random.default_rng(9)
    scale = np.geomspace(1e-10, 0.3, 200)[:, None]
    x, _, res = gauss_newton(F, J, params + scale * rng.uniform(-1, 1, (200, len(params))))
    x = x[res <= 1e-12]
    for tol in (1e-7, 1e-3):
        expected = [_rect_reference(geometry, row, tol) for row in x]
        assert classify_at(x, tol) == expected
        assert len({c.kind for c in expected}) >= 2


@pytest.mark.parametrize("group, racg", [("rect", gamma_rect()), ("cube", gamma_cube())])
def test_cusp_tables_are_the_group_presentations(group, racg):
    every_pair = set(combinations(range(racg.rank), 2))
    assert len(cusp._ADJACENT[group]) == len(racg.commuting_pairs)
    assert set(cusp._ADJACENT[group]) == racg.commuting_pairs
    assert set(cusp._OPPOSITE[group]) == every_pair - racg.commuting_pairs


@pytest.mark.parametrize("geometry", ["hyp", "ads"])
@pytest.mark.parametrize("group", ["rect", "cube"])
def test_problem_maps_are_the_group_system(geometry, group):
    # the hyp/ads rows are build_constraints' rows, in its order: the golden
    # trials were recorded in that order
    racg = gamma_rect() if group == "rect" else gamma_cube()
    base = (base_cube(geometry) if group == "cube"
            else {"hyp": base_rect_hyp, "ads": base_rect_ads}[geometry]())
    dim = len(base[0])
    space = QuadraticSpace.for_geometry(geometry, dim - 1)
    targets = {n: 1 if eval_form(space, v) > 0 else -1 for n, v in zip(racg.generators, base)}
    F0, J0 = build_constraints(racg, targets).maps(
        space.signature, {n: k * dim for k, n in enumerate(racg.generators)})
    params, F, J, _ = _problem(geometry, group, base)
    x = params + np.random.default_rng(4).uniform(-0.5, 0.5, (16, len(params)))
    assert F(x).tobytes() == F0(x).tobytes()
    assert J(x).tobytes() == J0(x).tobytes()


def test_rigidity_experiment_requires_cusp_base():
    with pytest.raises(ValueError):
        rigidity_experiment("hyp", "rect", _rect_split_hyp(), 3)


def test_rigidity_zero_noise_reproduces_base():
    stats = rigidity_experiment("ads", "cube", base_cube("ads"), 5, noise=0.0, seed=1)
    assert stats.counts == {"cusp": 5}


def test_rigidity_deterministic_under_seed():
    a = rigidity_experiment("hyp", "rect", base_rect_hyp(), 40, seed=5)
    b = rigidity_experiment("hyp", "rect", base_rect_hyp(), 40, seed=5)
    assert a.counts == b.counts
    assert [r.klass for r in a.records] == [r.klass for r in b.records]


def test_rigidity_rect_dimension3_flexibility():
    stats = rigidity_experiment("hyp", "rect", base_rect_hyp(), 100, seed=11)
    assert set(stats.counts) <= {"cusp", "rect_split"}
    stats_ads = rigidity_experiment("ads", "rect", base_rect_ads(), 100, seed=11)
    assert set(stats_ads.counts) <= {"cusp", "ads_rect_timelike_meet", "ads_rect_spacelike_meet"}
    stats_hp = rigidity_experiment("hp", "rect", base_rect_hp(), 100, seed=11)
    assert set(stats_hp.counts) <= {"cusp", "rect_split"}


@pytest.mark.parametrize("geometry", ["hyp", "ads", "hp"])
def test_rigidity_cube_dimension4(geometry):
    stats = rigidity_experiment(geometry, "cube", base_cube(geometry), 100, seed=11)
    assert stats.counts == {"cusp": 100}


@pytest.mark.parametrize("group, expected", [("rect", {"rect_split": 200}),
                                             ("cube", {"cusp": 200})])
def test_rigidity_targets_from_base(group, expected):
    # noise 0.3 flips the sign of q on some perturbed normals; the projection
    # must still aim at the norms of the base, not of the perturbed vectors
    base = base_rect_hyp() if group == "rect" else base_cube("hyp")
    stats = rigidity_experiment("hyp", group, base, 200, noise=0.3, seed=7)
    assert stats.counts == expected


def _record_keys(stats):
    return [(r.trial, r.klass, repr(r.residual), r.iterations) for r in stats.records]


def test_rigidity_records_do_not_depend_on_batching(monkeypatch):
    # noise 30 mixes cusp, collapsed and no_convergence trials in one stack
    base = base_cube("ads")
    longest = 2 * TRIAL_CHUNK + 5
    full = _record_keys(rigidity_experiment("ads", "cube", base, longest, noise=30, seed=3))
    assert {k[1] for k in full} == {"cusp", "collapsed", "no_convergence"}
    for n in (1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1):
        stats = rigidity_experiment("ads", "cube", base, n, noise=30, seed=3)
        assert _record_keys(stats) == full[:n]
    monkeypatch.setattr(cusp, "TRIAL_CHUNK", 1)  # every trial alone
    assert _record_keys(rigidity_experiment("ads", "cube", base, longest, noise=30,
                                            seed=3)) == full


@pytest.mark.parametrize("tol_class, error", [(1e-7, NonFiniteResidual),
                                              (1e-15, PatternViolation)])
def test_rigidity_errors_raise_in_trial_order(monkeypatch, tol_class, error):
    # trial 5 of the first stack fails in Gauss-Newton; at a class tolerance
    # below the projection residual, trials 0-4 fail classification first
    def failing_at_5(F, J, x0, *args):
        if len(x0) > 5:
            raise NonFiniteResidual(5, 0, float("nan"))
        return gauss_newton(F, J, x0, *args)

    monkeypatch.setattr(cusp, "gauss_newton", failing_at_5)
    with pytest.raises(error):
        rigidity_experiment("hyp", "cube", base_cube("hyp"), 10, tol_class=tol_class)


@pytest.mark.parametrize("kwargs, name", [({"noise": -1.0}, "noise"),
                                          ({"noise": math.nan}, "noise"),
                                          ({"noise": math.inf}, "noise"),
                                          ({"trials": -1}, "trials")])
def test_rigidity_experiment_rejects_bad_input(kwargs, name):
    args = {"trials": 3, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        rigidity_experiment("hyp", "rect", base_rect_hyp(), **args)


def test_rigidity_zero_trials():
    stats = rigidity_experiment("hyp", "rect", base_rect_hyp(), 0)
    assert (stats.base_class, stats.counts, stats.records) == ("cusp", {}, [])


@pytest.mark.parametrize("trials, kwargs, error, message", [
    (0, {"seed": -1}, ValueError, "expected non-negative integer"),
    (3, {"seed": -1}, ValueError, "expected non-negative integer"),
    (0, {"noise": 1e308}, OverflowError, "high - low range exceeds valid bounds"),
    (3, {"noise": 1e308}, OverflowError, "high - low range exceeds valid bounds"),
    # trial k seeds its stream as one 32-bit word, so k stops at 2**32 - 1
    (2**32 + 1, {}, ValueError, r"trials must be at most 2\*\*32, got 4294967297"),
])
def test_rigidity_experiment_checks_arguments_up_front(monkeypatch, trials, kwargs, error,
                                                       message):
    # numpy's errors for a negative seed and an overflowing 2 * noise, raised
    # before the projection problem is built, also when no trial would run
    def refuse(*args):
        raise AssertionError("the experiment started before its arguments were checked")

    monkeypatch.setattr(cusp, "_problem", refuse)
    with pytest.raises(error, match=f"^{message}$"):
        rigidity_experiment("hyp", "rect", base_rect_hyp(), trials, **kwargs)


_NOISE_KS = [*range(131), 2**31, 2**32 - 1]
_NOISE_LEVELS = (0.0, 1e-3, 30, 8.988465674311579e307)  # the last: 2 * noise is the largest float


def _assert_numpy_noise(seed, ks, noise, n):
    got = _trial_noise(seed, ks, noise, n)
    want = np.array([np.random.default_rng([seed, k]).uniform(-noise, noise, n) for k in ks])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 == 0.0 above


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64, 2**100 + 7])
@pytest.mark.parametrize("n", [1, 14, 16, 28, 30])
def test_trial_noise_is_numpys_stream(seed, n):
    # n: 1 and the parameter counts of the six bases; 2**100 + 7 has four
    # 32-bit words, so with k the entropy is longer than SeedSequence's pool
    for noise in _NOISE_LEVELS:
        _assert_numpy_noise(seed, _NOISE_KS, noise, n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200), ks=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       n=st.integers(1, 30), noise=st.sampled_from(_NOISE_LEVELS))
def test_trial_noise_is_numpys_stream_for_any_seed(seed, ks, n, noise):
    _assert_numpy_noise(seed, ks, noise, n)
