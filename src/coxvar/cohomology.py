"""Exact first group cohomology for RACG representations.

For a representation rho of a RACG on V, a cocycle is determined by its
values on generators subject to

    tau(s) in Ker(id + rho(s))                       (squares),
    (id - rho(s1)) tau(s2) = (id - rho(s2)) tau(s1)  (commuting pairs),

and the coboundaries are tau_v(s) = rho(s) v - v.  Everything here runs
over Q(sqrt 2) with fraction-free elimination, so the headline
dimensions (1, 12, 13 and the 12 + 1 splitting at the collapsed
representation) come out of exact rank computations with no tolerance
anywhere.

The concrete representations live at the collapse: the O(1,3)-valued
rho_0 (positives to -id, the rest to cuboctahedron reflections), its
restriction-of-adjoint on so(1,3), and the three 10-dimensional adjoint
representations for the hyperbolic, AdS and half-pipe ambient groups,
expressed in a basis adapted to the splitting g = so(1,3) + R^{1,3}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import GAMMA22_NAMES, gamma22
from .geometry import QuadraticSpace
from .halfpipe import rho_lambda
from .linalg_exact import (PairMatrix, exact_inverse, exact_nullspace, exact_pivots,
                           exact_rank, exact_solve)


class CohomologyError(Exception):
    pass


class BasisNotClosed(CohomologyError):
    pass


class BasisNotAdapted(CohomologyError):
    pass


class SingularNormalization(CohomologyError):
    pass


@dataclass(frozen=True)
class LinearRep:
    """Exact representation of a RACG on V, validated on construction.

    ``images`` may be given as anything PairMatrix.of converts; after
    construction it maps each generator to its PairMatrix image.
    """

    racg: object
    dimV: int
    images: dict

    def __post_init__(self):
        ident = PairMatrix.identity(self.dimV)
        mats = {}
        for name in self.racg.generators:
            m = self.images[name]
            if m.shape != (self.dimV, self.dimV):
                raise ValueError(f"image of {name!r} has wrong shape")
            p = mats[name] = PairMatrix.of(m)
            if not (p @ p - ident).is_zero():
                raise ValueError(f"image of {name!r} does not square to the identity")
        for a, b in self.racg.commuting_name_pairs():
            if not (mats[a] @ mats[b] - mats[b] @ mats[a]).is_zero():
                raise ValueError(f"images of commuting pair ({a}, {b}) do not commute")
        object.__setattr__(self, "images", mats)

    def image(self, name):
        return self.images[name]


@dataclass
class CohomologyReport:
    """Dimensions plus two PairMatrix cocycle bases.

    Each column of ``z1_basis`` and ``h1_representatives`` is a cocycle:
    its values on the generators, stacked in ``racg.generators`` order.
    """

    dimZ1: int
    dimB1: int
    dimH1: int
    z1_basis: PairMatrix
    h1_representatives: PairMatrix


def _flatten_cocycle(racg, dimV, tau):
    """One cocycle as a flat PairMatrix vector, generator blocks stacked.

    ``tau`` is flat already (returned as is) or a dict of exact vectors
    per generator, such as tau_lambda_cocycle returns.
    """
    flat = tau if isinstance(tau, PairMatrix) else PairMatrix.concat(
        [tau[n] for n in racg.generators])
    if flat.shape != (len(racg.generators) * dimV,):
        raise ValueError(f"a cocycle is a vector of {dimV} values per generator")
    return flat


def _coboundary_candidates(racg, images):
    """Column k is the coboundary of the k-th basis vector: (rho(s) e_k - e_k)_s.

    ``images`` maps generator names to PairMatrix images.
    """
    ident = PairMatrix.identity(images[racg.generators[0]].shape[0])
    return PairMatrix.concat([images[n] - ident for n in racg.generators])


def cocycle_space(racg, rep):
    """Exact basis of Z^1, one cocycle per column.

    The square conditions are solved per generator first (kernel of
    id + rho(s)); the pair conditions then form one global system on
    the concatenated kernel coordinates.
    """
    dimV = rep.dimV
    ident = PairMatrix.identity(dimV)
    names = racg.generators
    kernels = {n: exact_nullspace(ident + rep.images[n]) for n in names}
    widths = [kernels[n].shape[1] for n in names]
    total = sum(widths)
    if total == 0:
        return PairMatrix.zeros((len(names) * dimV, 0))
    offsets = dict(zip(names, np.cumsum([0] + widths).tolist()))
    rows = []
    for a, b in racg.commuting_name_pairs():
        # (id - rho(a)) tau(b) - (id - rho(b)) tau(a) = 0 on the kernel coordinates
        blocks = [PairMatrix.zeros((dimV, w)) for w in widths]
        blocks[names.index(b)] = (ident - rep.images[a]) @ kernels[b]
        blocks[names.index(a)] = (rep.images[b] - ident) @ kernels[a]
        rows.append(PairMatrix.concat(blocks, axis=1))
    system = PairMatrix.concat(rows) if rows else PairMatrix.zeros((0, total))
    coeffs = exact_nullspace(system)
    return PairMatrix.concat(
        [kernels[n] @ coeffs[offsets[n]:offsets[n] + kernels[n].shape[1]]
         for n in names]).reduced()


def coboundary_space(racg, rep):
    """Exact basis of B^1, one cocycle v -> (rho(s) v - v)_s per column.

    The coboundaries of the standard basis vectors are taken in order,
    keeping each one that is independent of those kept before it.
    """
    cands = _coboundary_candidates(racg, rep.images)
    return cands[:, exact_pivots(cands)].reduced()


def cohomology_report(racg, rep):
    """Z^1, B^1, H^1 dimensions plus representatives, all exact.

    The representatives are the Z^1 basis elements that are independent
    of B^1 and of the representatives before them.
    """
    z1 = cocycle_space(racg, rep)
    b1 = coboundary_space(racg, rep)
    k = b1.shape[1]
    pivots = exact_pivots(PairMatrix.concat([b1, z1], axis=1))
    assert pivots[:k] == list(range(k))
    reps = z1[:, [j - k for j in pivots[k:]]].reduced()
    report = CohomologyReport(
        dimZ1=z1.shape[1], dimB1=k, dimH1=z1.shape[1] - k,
        z1_basis=z1, h1_representatives=reps)
    assert report.dimH1 == reps.shape[1]
    return report


def is_coboundary(racg, rep, tau):
    """Exact test: does rho(s) v - v = tau(s) for all s have a solution?"""
    return exact_solve(_coboundary_candidates(racg, rep.images),
                       _flatten_cocycle(racg, rep.dimV, tau)) is not None


# -- the collapsed representation and its adjoints ---------------------------

def rho0_linear():
    """rho_0 as exact 4x4 matrices in O(1,3): positives to -id, the rest
    to cuboctahedron reflections; the linear part of every rho_lambda."""
    return rho_lambda(0).linear


def rho0_rep():
    """rho_0 on R^{1,3} as a validated LinearRep of the 22-generator group."""
    return LinearRep(gamma22(), 4, rho0_linear())


def rho0_projective(geometry):
    """rho_0 as exact 5x5 matrices in the ambient group of H^4/AdS^4/HP^4.

    For hyp/ads these are block matrices diag(A, +-1) stabilising
    {x_4 = 0}; the positives map to the reflection diag(1,1,1,1,-1).
    For hp they are affine matrices [[A, tau],[0, 1]] with tau = 0.
    """
    if geometry not in ("hyp", "ads", "hp"):
        raise ValueError(f"unknown geometry {geometry!r}")
    lin = rho0_linear()
    r = PairMatrix.of(np.diag([1, 1, 1, 1, -1]))

    def block(a):
        return PairMatrix.block([[a, np.zeros((4, 1), dtype=int)],
                                 [np.zeros((1, 4), dtype=int), np.ones((1, 1), dtype=int)]])

    return {n: r if geometry != "hp" and n.endswith("+") else block(lin[n])
            for n in GAMMA22_NAMES}


def _so13_matrices(size):
    """Integer so(1,3) basis in the top-left 4x4 block of size x size zeros:
    three boosts then three rotations."""
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        m = np.zeros((size, size), dtype=int)
        m[i, j] = 1
        m[j, i] = 1 if i == 0 else -1
        yield m


def so13_basis():
    """Exact basis of so(1,3): three boosts then three rotations."""
    return [PairMatrix.of(m) for m in _so13_matrices(4)]


def adapted_basis(geometry):
    """Basis of the 10-dimensional ambient Lie algebra, split 6 + 4.

    The first six elements are so(1,3) acting on {x_4 = 0}; the last
    four are the R^{1,3} block: for hyp/ads the matrices with column
    -+w and row w^T J, for hp the infinitesimal translations.
    """
    J = QuadraticSpace.minkowski(4).form_matrix()
    basis = list(_so13_matrices(5))
    for k in range(4):
        m = np.zeros((5, 5), dtype=int)  # w = e_k
        if geometry == "hyp":
            m[k, 4] = -1
            m[4, :4] = J[k]
        elif geometry == "ads":
            m[k, 4] = 1
            m[4, :4] = J[k]
        elif geometry == "hp":
            m[k, 4] = 1
        else:
            raise ValueError(f"unknown geometry {geometry!r}")
        basis.append(m)
    return [PairMatrix.of(m) for m in basis]


def adjoint_rep(racg, images, basis):
    """Matrices of X -> g X g^{-1} on span(basis), one per generator.

    Raises BasisNotClosed when conjugation leaves the span of the given
    basis elements.
    """
    stack = PairMatrix.concat([PairMatrix.of(b).reshape(1, *b.shape) for b in basis])
    k = len(basis)
    flat_basis = stack.reshape(k, -1).T
    ad_images = {}
    for n in racg.generators:
        g = PairMatrix.of(images[n])
        # column j: g basis[j] g^-1, flattened
        conj = ((g @ stack) @ exact_inverse(g)).reshape(k, -1).T
        coeff = exact_solve(flat_basis, conj)
        if coeff is None or not (flat_basis @ coeff - conj).is_zero():
            raise BasisNotClosed(f"Ad(rho({n})) leaves the basis span")
        ad_images[n] = coeff
    return LinearRep(racg, k, ad_images)


def adjoint_collapsed_rep(geometry):
    """Ad rho_0 on the ambient Lie algebra, in the adapted basis."""
    racg = gamma22()
    return adjoint_rep(racg, rho0_projective(geometry), adapted_basis(geometry))


def so13_adjoint_rep():
    """Ad rho_0 on so(1,3) alone (the horizontal block)."""
    racg = gamma22()
    return adjoint_rep(racg, rho0_linear(), so13_basis())


def split_h1(racg, rep, report=None, h_block=6):
    """Dimensions of the projections of H^1 to the two adapted blocks.

    Requires every Ad-image to be block diagonal for the (first
    h_block, rest) splitting; returns (horizontal_dim, vertical_dim).
    The projection of H^1 to a block has the dimension of the span of
    the projected representatives modulo that block's coboundaries.
    """
    dimV = rep.dimV
    for n in racg.generators:
        m = rep.images[n]
        if not (m[:h_block, h_block:].is_zero() and m[h_block:, :h_block].is_zero()):
            raise BasisNotAdapted("Ad images are not block diagonal in this basis")
    if report is None:
        report = cohomology_report(racg, rep)
    reps = report.h1_representatives

    def projected_dim(lo, hi):
        coboundaries = _coboundary_candidates(
            racg, {n: rep.images[n][lo:hi, lo:hi] for n in racg.generators})
        rows = [i * dimV + r for i in range(len(racg.generators)) for r in range(lo, hi)]
        both = PairMatrix.concat([coboundaries, reps[rows]], axis=1)
        return exact_rank(both) - exact_rank(coboundaries)

    return (projected_dim(0, h_block), projected_dim(h_block, dimV))


# -- the geometric cocycles and normalisation --------------------------------

def tau_lambda_cocycle(lam):
    """tau_lambda as a map from generators to exact R^{1,3} vectors (PairMatrix)."""
    return rho_lambda(PairMatrix.of(lam)).translation


def reduce_mod_coboundary(tau):
    """Subtract the unique coboundary making tau vanish on A, B, C, D.

    ``tau`` is a cocycle of rho_0, flat or as a dict of vectors; the
    result is a dict of PairMatrix vectors per generator.  The 4x4 system is
    -2 times the Gram matrix of the four letter normals, which is
    invertible; a failure here would contradict the non-degeneracy of
    the Minkowski form.
    """
    rep = rho0_rep()
    racg = rep.racg
    flat = _flatten_cocycle(racg, 4, tau)
    cands = _coboundary_candidates(racg, rep.images)
    letters = [4 * racg.generators.index(x) + r for x in ("A", "B", "C", "D") for r in range(4)]
    if exact_rank(cands[letters]) != 4:
        raise SingularNormalization("letter normalisation system is singular")
    w = exact_solve(cands[letters], flat[letters])
    if w is None:
        raise ValueError("tau is not a cocycle: no coboundary matches its letter values")
    reduced = flat - cands @ w
    assert reduced[letters].is_zero()
    return {n: reduced[4 * i:4 * (i + 1)] for i, n in enumerate(racg.generators)}


def vertical_coefficient(tau):
    """The lam (a QSqrt2) with tau = tau_lambda, or None if tau is not in that family.

    ``tau`` is a cocycle of rho_0, flat or as a dict of vectors.
    """
    racg = gamma22()
    tau1 = _flatten_cocycle(racg, 4, tau_lambda_cocycle(1))
    lam = exact_solve(tau1.reshape(-1, 1), _flatten_cocycle(racg, 4, tau))
    return None if lam is None else lam.item(0)
