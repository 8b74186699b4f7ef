import math

import numpy as np
import pytest

from coxvar.cusp import (CuspKind, PatternViolation, base_cube, base_rect_ads, base_rect_hp,
                         base_rect_hyp, classify_cube, classify_rect, rigidity_experiment)
from coxvar.geometry import MixedTypePair, QuadraticSpace, reflection_matrix
from coxvar.halfpipe import rho_lambda
from coxvar.repvar import collapsed_lift_exact, find_cusp_subgroups, standard_lift


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
    refl = rho_lambda(1.0).as_reflections()
    for sub in subs:
        assert classify_cube("hp", [refl[n] for n in sub]).kind == CuspKind.CUSP
    refl0 = rho_lambda(0.0).as_reflections()
    got = classify_cube("hp", [refl0[n] for n in subs[0]])
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
