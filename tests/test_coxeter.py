from itertools import combinations

import numpy as np
import pytest

from coxvar.coxeter import (GAMMA22_NAMES, LETTER_NAMES, RACG, IndexOutOfRange, evaluate_word,
                            gamma22, gamma_co, gamma_cube, gamma_rect, verify_representation)
from coxvar.geometry import eval_bilinear, reflection_matrix
from coxvar.repvar import collapsed_lift_exact, standard_lift_ads, standard_lift_hyp


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


@pytest.mark.parametrize("t,make", [(0.3, standard_lift_hyp), (0.7, standard_lift_hyp),
                                    (-0.5, standard_lift_ads)])
def test_commutation_graph_stable_along_path(t, make):
    g = gamma22()
    lift = make(t)
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


def _reflection_images(lift):
    return {n: reflection_matrix(lift.space, lift.vectors[n]) for n in lift.names}


def test_evaluate_word():
    lift = standard_lift_hyp(0.5)
    rep = _reflection_images(lift)
    ident = evaluate_word(rep, [])
    assert np.allclose(ident, np.eye(5))
    assert np.max(np.abs(evaluate_word(rep, ["A", "A"]) - np.eye(5))) < 1e-12
    w = ["0+", "0-", "0+", "0-"]
    assert np.max(np.abs(evaluate_word(rep, w) - np.eye(5))) < 1e-12
    assert np.allclose(evaluate_word(rep, [21], racg=gamma22()), rep["F"])
    with pytest.raises(IndexOutOfRange):
        evaluate_word(rep, ["nope"])
    with pytest.raises(IndexOutOfRange):
        evaluate_word(rep, [99], racg=gamma22())


def test_commuting_words_evaluate_to_identity():
    lift = standard_lift_ads(-0.4)
    rep = _reflection_images(lift)
    g = gamma22()
    for a, b in g.commuting_name_pairs():
        word = [a, b, a, b]
        assert np.max(np.abs(evaluate_word(rep, word) - np.eye(5))) < 1e-12


def test_verify_standard_representation():
    lift = standard_lift_hyp(0.5)
    report = verify_representation(gamma22(), _reflection_images(lift), tol=1e-12)
    assert report.ok
    assert report.max_defect < 1e-12


def test_verify_flags_coincidences():
    ident = np.eye(5)
    rep = {n: ident for n in GAMMA22_NAMES}
    report = verify_representation(gamma22(), rep)
    assert not report.ok
    assert all(f.startswith("coincide:") for f in report.failing_relations)
    assert len(report.failing_relations) == 80


def test_verify_collapsed_representation_exact():
    lift = collapsed_lift_exact("hyp")
    rep = {n: reflection_matrix(lift.space, lift.vectors[n]) for n in lift.names}
    report = verify_representation(gamma22(), rep, tol=0)
    assert report.ok and report.max_defect == 0.0
    # all positive generators share the image r
    assert all((rep["0+"] - rep[f"{i}+"]).is_zero() for i in range(8))
