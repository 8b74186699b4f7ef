import pytest

from coxvar import cohomology as coh
from coxvar.coxeter import gamma22


@pytest.fixture(scope="session")
def racg22():
    return gamma22()


@pytest.fixture(scope="session")
def rho0_report():
    rep = coh.rho0_rep()
    return rep, coh.cohomology_report(rep)


@pytest.fixture(scope="session")
def so13_report():
    rep = coh.so13_adjoint_rep()
    return rep, coh.cohomology_report(rep)


@pytest.fixture(scope="session")
def full_adjoint_reports():
    """The three 10-dimensional adjoint representations with reports.

    Each takes a few tenths of a second on the integer-pair core; they
    are shared across the suite because several tests read all three.
    """
    out = {}
    for geometry in ("hyp", "ads", "hp"):
        rep = coh.adjoint_collapsed_rep(geometry)
        out[geometry] = (rep, coh.cohomology_report(rep))
    return out
