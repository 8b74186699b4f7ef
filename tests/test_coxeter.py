from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from coxvar.cohomology import LinearRep
from coxvar.coxeter import (GAMMA22_NAMES, LETTER_NAMES, RACG, IndexOutOfRange, evaluate_word,
                            gamma22, gamma_co, gamma_cube, gamma_rect, verify_representation)
from coxvar.geometry import eval_bilinear, reflection_matrix
from coxvar.halfpipe import phi_to_projective, rho_lambda
from coxvar.linalg_exact import PairMatrix
from coxvar.repvar import collapsed_lift_exact, standard_lift


def test_gamma22_shape():
    g = gamma22()
    assert g.rank == 22
    assert len(g.commuting_pairs) == 80
    assert g.commutes("0+", "0-")


def test_gamma22_type_structure():
    g = gamma22()
    positives = [n for n in g.generators if n.endswith("+")]
    negatives = [n for n in g.generators if n.endswith("-")]
    letters = list(LETTER_NAMES)
    for group in (positives, negatives, letters):
        for a, b in combinations(group, 2):
            assert not g.commutes(a, b), f"{a},{b} are of the same type"
    for p in positives:
        assert sum(g.commutes(p, m) for m in negatives) == 4
        assert g.commutes(p, p[0] + "-")
    for x in letters:
        assert sum(g.commutes(x, n) for n in positives + negatives) == 8


_PATH_POINTS = [(0.3, "hyp"), (0.7, "hyp"), (-0.5, "ads")]


@pytest.mark.parametrize("t,geometry", _PATH_POINTS,
                         ids=[f"{t}-standard_lift_{g}" for t, g in _PATH_POINTS])
def test_commutation_graph_stable_along_path(t, geometry):
    g = gamma22()
    lift = standard_lift(t, geometry)
    pairs = set()
    for (i, a), (j, b) in combinations(enumerate(lift.names), 2):
        if abs(float(eval_bilinear(lift.space, lift.vectors[a], lift.vectors[b]))) < 1e-9:
            pairs.add((i, j))
    assert pairs == set(g.commuting_pairs)


def test_gamma_rect():
    g = gamma_rect()
    assert g.rank == 4
    assert len(g.commuting_pairs) == 4
    assert not g.commutes("s1", "s2")
    assert not g.commutes("t1", "t2")


def test_gamma_cube():
    g = gamma_cube()
    assert g.rank == 6
    assert len(g.commuting_pairs) == 12
    for n in g.generators:
        assert sum(g.commutes(n, m) for m in g.generators if m != n) == 4
    # complement graph is the perfect matching of opposite faces
    non_pairs = {(i, j) for i, j in combinations(range(6), 2)} - set(g.commuting_pairs)
    assert non_pairs == {(0, 3), (1, 4), (2, 5)}


def test_gamma_co():
    g = gamma_co()
    assert g.rank == 14
    assert len(g.commuting_pairs) == 24
    assert g.commutes("0", "A")
    # triangles touch 3 quads, quads touch 4 triangles, no same-kind contacts
    for i in range(8):
        assert sum(g.commutes(str(i), x) for x in LETTER_NAMES) == 3
    for x in LETTER_NAMES:
        assert sum(g.commutes(x, str(i)) for i in range(8)) == 4


def test_racg_json_roundtrip():
    g = gamma_co()
    assert RACG.from_json(g.to_json()) == g


def test_racg_rejects_a_non_string_name():
    with pytest.raises(ValueError, match="generator names must be strings"):
        RACG(("s", 1), frozenset())


def test_verify_representation_needs_one_image_per_generator():
    images = np.stack([np.eye(3)] * 3)  # gamma_rect has four generators
    with pytest.raises(ValueError, match=r"expected one image per generator, a \(4, d, d\)"):
        verify_representation(gamma_rect(), images)


def _reflection_images(lift):
    return reflection_matrix(lift.space, lift.table)


def test_evaluate_word():
    lift = standard_lift(0.5, "hyp")
    rep = _reflection_images(lift)
    g = gamma22()
    ident = evaluate_word(g, rep, [])
    assert np.allclose(ident, np.eye(5))
    assert np.max(np.abs(evaluate_word(g, rep, ["A", "A"]) - np.eye(5))) < 1e-12
    w = ["0+", "0-", "0+", "0-"]
    assert np.max(np.abs(evaluate_word(g, rep, w) - np.eye(5))) < 1e-12
    assert np.allclose(evaluate_word(g, rep, [21]), rep[g.index("F")])
    with pytest.raises(IndexOutOfRange):
        evaluate_word(g, rep, ["nope"])
    with pytest.raises(IndexOutOfRange):
        evaluate_word(g, rep, [99])


def test_commuting_words_evaluate_to_identity():
    lift = standard_lift(-0.4, "ads")
    rep = _reflection_images(lift)
    g = gamma22()
    for a, b in g.commuting_name_pairs():
        word = [a, b, a, b]
        assert np.max(np.abs(evaluate_word(g, rep, word) - np.eye(5))) < 1e-12


def test_verify_standard_representation():
    lift = standard_lift(0.5, "hyp")
    report = verify_representation(gamma22(), _reflection_images(lift), tol=1e-12)
    assert report.ok
    assert report.max_defect < 1e-12


def test_verify_flags_coincidences():
    rep = np.tile(np.eye(5), (len(GAMMA22_NAMES), 1, 1))
    report = verify_representation(gamma22(), rep)
    assert not report.ok
    assert all(f.startswith("coincide:") for f in report.failing_relations)
    assert len(report.failing_relations) == 80


def test_verify_fails_non_finite_images():
    # max() skips a nan defect and nan > tol is False: both used to pass it
    rep = _reflection_images(standard_lift(0.5, "hyp"))
    rep[GAMMA22_NAMES.index("0+")] = np.nan
    report = verify_representation(gamma22(), rep, tol=1e-12)
    assert not report.ok and np.isnan(report.max_defect)
    touching = [f"commutator:{a},{b}" for a, b in gamma22().commuting_name_pairs()
                if "0+" in (a, b)]
    assert report.failing_relations == ["square:0+"] + touching
    # an infinite defect is reported as it is
    rep[GAMMA22_NAMES.index("0+")] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf in the defects
        report = verify_representation(gamma22(), rep, tol=1e-12)
    assert not report.ok and not np.isfinite(report.max_defect)


def test_verify_collapsed_representation_exact():
    lift = collapsed_lift_exact("hyp")
    rep = reflection_matrix(lift.space, lift.table)
    report = verify_representation(gamma22(), rep, tol=0)
    assert report.ok and report.max_defect == 0.0
    # all positive generators (rows 0 to 7) share the image r
    assert all((rep[0] - rep[i]).is_zero() for i in range(8))


def test_verify_decides_exact_stacks_exactly():
    """a - b sqrt2 is 3.79e-9, but the float view of the square's defect
    2a - 2b sqrt(2.0) rounds to 0.0: only the exact comparison sees it."""
    racg = RACG(("s",), frozenset())
    a, b = 131836323, 93222358
    images = PairMatrix(np.array([[[1, a], [0, 1]]]), np.array([[[0, -b], [0, 0]]]))
    with pytest.raises(ValueError, match="does not square to the identity"):
        LinearRep(racg, images)
    for tol, failures in ((0, ["square:s"]), (7e-9, ["square:s"]), (1e-8, [])):
        report = verify_representation(racg, images, tol=tol)
        assert report.failing_relations == failures, tol
        assert report.max_defect == 0.0  # the float view


def _sign(x, y):
    """The sign of x + y sqrt2 for rationals x, y: that of x + y where they do
    not differ in sign, else that of x times that of x^2 - 2 y^2."""
    if x * y >= 0:
        return (x + y > 0) - (x + y < 0)
    return (1 if x > 0 else -1) * (1 if x * x > 2 * y * y else -1)


def _verify_one_relation_at_a_time(racg, rep, tol):
    """Reference for verify_representation: every relation checked on its own,
    squares first, then per commuting pair its commutator and coincidence.
    The defect is read off the float view; an exact matrix is within tol
    when every entry v has -tol <= v <= tol, decided in exact arithmetic."""
    mats = {n: rep[k] for k, n in enumerate(racg.generators)}
    exact = isinstance(rep, PairMatrix)
    ident = (PairMatrix.identity if exact else np.eye)(rep.shape[-1])
    bound = Fraction(tol)

    def defect(m):
        return float(np.max(np.abs(np.asarray(m, dtype=float))))

    def within(m):
        if not exact:
            return defect(m) <= tol
        values = [m.item(*idx) for idx in np.ndindex(m.shape)]
        return all(_sign(v.a - bound, v.b) <= 0 and _sign(-v.a - bound, -v.b) <= 0
                   for v in values)

    defects, failures = [0.0], []
    for n, m in mats.items():
        defects.append(defect(m @ m - ident))
        if not within(m @ m - ident):
            failures.append(f"square:{n}")
    for a, b in racg.commuting_name_pairs():
        commutator = mats[a] @ mats[b] - mats[b] @ mats[a]
        defects.append(defect(commutator))
        if not within(commutator):
            failures.append(f"commutator:{a},{b}")
        if within(mats[a] - mats[b]):
            failures.append(f"coincide:{a},{b}")
    return float(np.max(defects)), failures


def test_verify_matches_reference_where_the_float_view_rounds_to_zero():
    # the square's defect 2a - 2b sqrt2 is 7.6e-9 exactly and 0.0 in the float view
    racg = RACG(("s",), frozenset())
    a, b = 131836323, 93222358
    images = PairMatrix(np.array([[[1, a], [0, 1]]]), np.array([[[0, -b], [0, 0]]]))
    for tol, failures in ((0, ["square:s"]), (1e-8, [])):
        report = verify_representation(racg, images, tol=tol)
        assert (report.max_defect, report.failing_relations) == (0.0, failures), tol
        assert _verify_one_relation_at_a_time(racg, images, tol) == (0.0, failures), tol


def test_verify_matches_relation_by_relation_reference_exact():
    g = gamma22()
    mats = phi_to_projective(rho_lambda(1)).unstack()
    mats[g.index("A")] = mats[g.index("A")] * 2  # not an involution
    mats[g.index("B")] = mats[g.index("0-")]  # B commutes with 0-: a coincident pair
    mats[g.index("C")] = mats[g.index("1+")]  # C commutes with 0+, 1+ does not
    rep = PairMatrix.stack(mats)
    report = verify_representation(g, rep, tol=0)
    max_defect, failures = _verify_one_relation_at_a_time(g, rep, 0)
    assert report.failing_relations == failures and report.max_defect == max_defect
    assert {"square:A", "coincide:0-,B", "commutator:0+,C"} <= set(failures)


def test_verify_matches_relation_by_relation_reference_nan():
    g = gamma22()
    rep = _reflection_images(standard_lift(0.5, "hyp"))
    rep[g.index("3-")] = np.nan
    report = verify_representation(g, rep, tol=1e-12)
    max_defect, failures = _verify_one_relation_at_a_time(g, rep, 1e-12)
    assert report.failing_relations == failures and np.isnan(report.max_defect)
    assert np.isnan(max_defect) and "square:3-" in failures
    # a finite float representation: the same defect bit for bit
    rep = _reflection_images(standard_lift(0.3, "hyp"))
    report = verify_representation(g, rep, tol=1e-12)
    assert (report.max_defect, report.failing_relations) == \
        _verify_one_relation_at_a_time(g, rep, 1e-12)
