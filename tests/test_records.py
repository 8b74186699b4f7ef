"""The package's value types: read-only where they were frozen, compared by
their fields, and LinearRep's check run through the class attribute that
the benchmark's tracer wraps."""

import pickle

import numpy as np
import pytest

from coxvar.cohomology import LinearRep
from coxvar.coxeter import RACG, gamma_rect
from coxvar.cusp import CuspClass, CuspKind, ExperimentStats
from coxvar.geometry import QuadraticSpace
from coxvar.halfpipe import (DegenerateReflection, HPPairReport, MinkowskiIsometry,
                             NonDegenerateReflection, rho_lambda)
from coxvar.repvar import ConstraintSystem, Pair, standard_lift

X = np.array([0.0, 1.0, 0.0, 0.0])


def _rect_rep():
    return LinearRep(gamma_rect(), np.array([[[1]], [[-1]], [[1]], [[-1]]]))


READ_ONLY = {
    "QuadraticSpace": (lambda: QuadraticSpace.hyperbolic(4), "dim"),
    "RACG": (gamma_rect, "generators"),
    "Lift": (lambda: standard_lift(0.5, "hyp"), "table"),
    "Pair": (lambda: Pair("0", "1", 0), "target"),
    "ConstraintSystem": (lambda: ConstraintSystem((Pair("0", "0", 1),)), "constraints"),
    "MinkowskiIsometry": (lambda: rho_lambda(1), "translation"),
    "NonDegenerateReflection": (lambda: NonDegenerateReflection(X), "p"),
    "DegenerateReflection": (lambda: DegenerateReflection(X, 0.5 * X), "v"),
    "HPPairReport": (lambda: HPPairReport("mixed"), "kind"),
    "LinearRep": (_rect_rep, "images"),
    "CuspClass": (lambda: CuspClass(CuspKind.CUSP), "kind"),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_attribute_assignment_is_refused(name):
    make, field = READ_ONLY[name]
    obj = make()
    assert type(obj).__name__ == name
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("make, same, other", [
    (lambda: QuadraticSpace.hyperbolic(4), lambda: QuadraticSpace(5, (-1, 1, 1, 1, 1)),
     lambda: QuadraticSpace.anti_de_sitter(4)),
    (gamma_rect, lambda: RACG(("s1", "t1", "s2", "t2"), frozenset({(0, 1), (1, 2), (2, 3),
                                                                  (0, 3)})),
     lambda: RACG(("s1", "t1", "s2", "t2"), frozenset({(0, 1)}))),
    (lambda: CuspClass(CuspKind.COLLAPSED, pair=(0, 2)),
     lambda: CuspClass(CuspKind.COLLAPSED, (0, 2)), lambda: CuspClass(CuspKind.COLLAPSED)),
], ids=["QuadraticSpace", "RACG", "CuspClass"])
def test_records_compare_and_hash_by_fields(make, same, other):
    a, b, c = make(), same(), other()
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c
    assert a != tuple(getattr(a, f) for f in type(a)._fields)  # no tuple equality
    assert pickle.loads(pickle.dumps(a)) == a


def test_experiment_stats_default_records_are_not_shared():
    a, b = ExperimentStats("cusp", {}), ExperimentStats("cusp", {})
    assert a.records == [] and a.records is not b.records


def test_record_repr_names_its_fields():
    assert repr(QuadraticSpace(2, (-1, 1))) == "QuadraticSpace(dim=2, signature=(-1, 1))"
    assert repr(CuspClass(CuspKind.CUSP, reason="r")) == (
        "CuspClass(kind=<CuspKind.CUSP: 'cusp'>, pair=None, intersecting_pair=None, "
        "disjoint_pair=None, reason='r')")


def test_linear_rep_runs_its_check_from_the_class(monkeypatch):
    calls = []
    check = LinearRep.__post_init__

    def wrapped(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(LinearRep, "__post_init__", wrapped)
    rep = _rect_rep()
    assert len(calls) == 1 and calls[0] is rep
    with pytest.raises(ValueError, match="does not square to the identity"):
        LinearRep(gamma_rect(), np.array([[[2]], [[-1]], [[1]], [[-1]]]))
    assert len(calls) == 2
