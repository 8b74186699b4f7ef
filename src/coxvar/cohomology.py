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
rho_0 enters them as the paths' holonomies do; each adjoint is the block
sum of the so(1,3) adjoint and rho_0, and the 12 + 1 split is read off
the blocks that the H^1 representatives occupy.

A representation is one (generators, dimV, dimV) PairMatrix stack of
images in generator order, and a cocycle a (generators, dimV) table or
its flat vector: every system below is cut from those arrays directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coxeter import gamma22
from .geometry import QuadraticSpace, reflection_matrix
from .halfpipe import phi_to_projective, rho_lambda
from .linalg_exact import PairMatrix, exact_nullspace, exact_pivots, exact_rank, exact_solve
from .records import Record
from .repvar import collapsed_lift_exact, form_algebra_basis


H_BLOCK = 6  # dim so(1,3): the horizontal block of the adapted basis


class CohomologyError(Exception):
    pass


class BasisNotClosed(CohomologyError):
    pass


class BasisNotAdapted(CohomologyError):
    pass


class SingularNormalization(CohomologyError):
    pass


def _first_nonzero(stack):
    """Index of the first nonzero matrix of a (N, ...) stack, or None."""
    nonzero = ((stack.a != 0) | (stack.b != 0)).any(axis=tuple(range(1, stack.a.ndim)))
    return int(np.argmax(nonzero)) if nonzero.any() else None


class LinearRep(Record):
    """Exact representation of a RACG on V, validated on construction.

    ``images`` is the (generators, dimV, dimV) stack of the generator
    images in ``racg.generators`` order, given as anything PairMatrix.of
    converts and stored as one PairMatrix.
    """

    __slots__ = _fields = ("racg", "images")

    def __init__(self, racg, images):
        self._set(racg=racg, images=images)
        self.__post_init__()

    def __post_init__(self):
        """The check construction runs (looked up on the class, so a wrapper
        set there sees every construction)."""
        names = self.racg.generators
        R = PairMatrix.of(self.images)
        if len(R.shape) != 3 or R.shape[0] != len(names) or R.shape[1] != R.shape[2]:
            raise ValueError(f"images must be a stack of {len(names)} square matrices, "
                             f"got shape {R.shape}")
        # one stacked product for the squares, two for the commutators
        bad = _first_nonzero(R @ R - PairMatrix.identity(R.shape[-1]))
        if bad is not None:
            raise ValueError(f"image of {names[bad]!r} does not square to the identity")
        i, j = np.array(sorted(self.racg.commuting_pairs), dtype=int).reshape(-1, 2).T
        bad = _first_nonzero(R[i] @ R[j] - R[j] @ R[i])
        if bad is not None:
            a, b = names[i[bad]], names[j[bad]]
            raise ValueError(f"images of commuting pair ({a}, {b}) do not commute")
        object.__setattr__(self, "images", R)

    @property
    def dimV(self):
        return self.images.shape[-1]

    def image(self, name):
        return self.images[self.racg.index(name)]


class CohomologyReport(NamedTuple):
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

    ``tau`` is flat already or a (generators, dimV) table, such as
    tau_lambda_cocycle returns.
    """
    tau = PairMatrix.of(tau)
    n = len(racg.generators)
    if tau.shape not in ((n * dimV,), (n, dimV)):
        raise ValueError(f"a cocycle is a vector of {dimV} values per generator")
    return tau.reshape(-1)


def _coboundary_candidates(images):
    """Column k is the coboundary of the k-th basis vector: (rho(s) e_k - e_k)_s,
    for the (generators, d, d) image stack."""
    return (images - PairMatrix.identity(images.shape[-1])).reshape(-1, images.shape[-1])


def cocycle_space(rep):
    """Exact basis of Z^1, one cocycle per column.

    The square conditions are solved first: the kernels of id + rho(s)
    of all the images, one stack in one elimination; the pair conditions
    then form one global system on the concatenated kernel coordinates,
    cut from the one stacked product (id - rho(s)) @ [all kernels].
    """
    dimV = rep.dimV
    ident = PairMatrix.identity(dimV)
    names = rep.racg.generators
    R = rep.images
    bases = exact_nullspace(ident + R)
    # tau(s) on the kernel coordinates of s: the columns that s owns
    kernels = PairMatrix.concat(bases, axis=1)
    sizes = [basis.shape[1] for basis in bases]
    owner = np.repeat(np.arange(len(names)), sizes)
    # moved[i] is (id - rho(i)) applied to every kernel column
    moved = (ident - R) @ kernels
    i, j = np.array(sorted(rep.racg.commuting_pairs), dtype=int).reshape(-1, 2).T
    # pair k: (id - rho(i)) tau(j) - (id - rho(j)) tau(i) = 0, on the columns j, then i, owns
    a, b = (np.zeros((len(i), dimV, len(owner)), dtype=moved.a.dtype) for _ in "ab")
    for cols, src, sign in ((j, i, 1), (i, j, -1)):
        k, c = np.nonzero(owner == cols[:, None])
        a[k, :, c], b[k, :, c] = sign * moved.a[src[k], :, c], sign * moved.b[src[k], :, c]
    coeffs = exact_nullspace(PairMatrix(a, b, moved.den).reshape(len(i) * dimV, len(owner)))
    # tau(s) = (kernel of s) @ (its rows of coeffs): one batched product with
    # every kernel padded by zero columns to the largest
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = max(sizes, default=0)
    basis = [np.zeros((len(names), dimV, width), dtype=kernels.a.dtype) for _ in "ab"]
    basis[0][owner, :, slot], basis[1][owner, :, slot] = kernels.a.T, kernels.b.T
    rows = [np.zeros((len(names), width, coeffs.shape[1]), dtype=coeffs.a.dtype) for _ in "ab"]
    rows[0][owner, slot], rows[1][owner, slot] = coeffs.a, coeffs.b
    z1 = PairMatrix(*basis, kernels.den) @ PairMatrix(*rows, coeffs.den)
    return z1.reshape(len(names) * dimV, -1).reduced()


def coboundary_space(rep):
    """Exact basis of B^1, one cocycle v -> (rho(s) v - v)_s per column.

    The coboundaries of the standard basis vectors are taken in order,
    keeping each one that is independent of those kept before it.
    """
    cands = _coboundary_candidates(rep.images)
    return cands[:, exact_pivots(cands)].reduced()


def _h1_reading(z1, cands):
    """dim B^1 and the columns of z1 that represent H^1: the pivots of
    [cands | z1] past cands, read on the rows where z1 is diagonal.

    Raises CohomologyError when z1 has no such row for some column, or
    when a candidate leaves the span of z1.
    """
    nz = (z1.a != 0) | (z1.b != 0)
    alone = nz & (nz.sum(axis=1) == 1)[:, None]
    if not alone.any(axis=0).all():
        raise CohomologyError("a Z^1 basis column has no row where it alone is nonzero")
    k = z1.shape[1]
    rows = np.argmax(alone, axis=0)
    X = cands[rows]
    if not (z1 @ (X / z1[rows, np.arange(k)][:, None]) - cands).is_zero():
        raise CohomologyError("a coboundary lies outside the span of the Z^1 basis")
    pivots = exact_pivots(X[::-1].T)
    return len(pivots), [j for j in range(k) if k - 1 - j not in pivots]


def cohomology_report(rep):
    """Z^1, B^1, H^1 dimensions plus representatives, all exact.

    The representatives are the Z^1 basis columns at the pivots of
    [coboundary candidates | Z^1 basis] past the candidates, which span
    B^1: each is independent of B^1 and of those before it.  They are
    read on one row of z1 per column j where column j alone is nonzero
    (the unit rows of the kernel and pair-system nullspace bases).  On
    those rows z1 is diagonal, so restricting to them is injective on
    Z^1, which contains B^1, and keeps the pivots: with X the candidates
    on those rows, column j is a representative iff row j of X lies in
    the span of the rows after it.  One elimination of the reversed rows
    of X gives both dim B^1 (its rank) and the representatives (its
    non-pivots); one exact product checks that B^1 lies in Z^1.
    """
    z1 = cocycle_space(rep)
    dimB1, cols = _h1_reading(z1, _coboundary_candidates(rep.images))
    return CohomologyReport(
        dimZ1=z1.shape[1], dimB1=dimB1, dimH1=z1.shape[1] - dimB1,
        z1_basis=z1, h1_representatives=z1[:, cols].reduced())


def is_coboundary(rep, tau):
    """Exact test: does rho(s) v - v = tau(s) for all s have a solution?"""
    return exact_solve(_coboundary_candidates(rep.images),
                       _flatten_cocycle(rep.racg, rep.dimV, tau)) is not None


# -- the collapsed representation and its adjoints ---------------------------

def rho0_linear():
    """rho_0 as the exact (22, 4, 4) stack in O(1,3): positives to -id, the
    rest to cuboctahedron reflections; the linear part of every rho_lambda."""
    return rho_lambda(0).linear


def rho0_rep():
    """rho_0 on R^{1,3} as a validated LinearRep of the 22-generator group."""
    return LinearRep(gamma22(), rho0_linear())


def so13_basis():
    """Exact basis of so(1,3): three boosts then three rotations."""
    return [PairMatrix.of(m) for m in form_algebra_basis(QuadraticSpace.minkowski(4))]


def adapted_basis(geometry):
    """Basis of the 10-dimensional ambient Lie algebra, split 6 + 4.

    The first six elements are so(1,3) acting on {x_4 = 0}: the matrices
    of so13_basis padded to 5x5.  The last four are the R^{1,3} block,
    one per w = e_k: the column -w for hyp and +w otherwise, and the row
    w^T J for hyp/ads (for hp, no row: the infinitesimal translations).
    """
    if geometry not in ("hyp", "ads", "hp"):
        raise ValueError(f"unknown geometry {geometry!r}")
    mink = QuadraticSpace.minkowski(4)
    basis = [np.pad(m, (0, 1)) for m in form_algebra_basis(mink)]
    for k in range(4):
        m = np.zeros((5, 5), dtype=int)
        m[k, 4] = -1 if geometry == "hyp" else 1
        if geometry != "hp":
            m[4, k] = mink.signature[k]  # the row w^T J
        basis.append(m)
    return [PairMatrix.of(m) for m in basis]


def adjoint_rep(racg, images, basis):
    """Matrices of X -> g X g^{-1} on span(basis), one per generator.

    ``images`` is the (generators, d, d) stack of the g.  Every image is
    an involution, so g^{-1} = g: all conjugates come from one stacked
    product and all coordinates from one solve.
    Raises ValueError for an image that is not an involution, and
    BasisNotClosed when conjugation leaves the span of the given basis
    elements.  That error names the generator owning the first pivot
    of [basis | all conjugates] past the basis: its first conjugate
    outside the span, as every conjugate before it lies inside.
    """
    names = racg.generators
    stack = PairMatrix.stack(basis)
    k = len(basis)
    flat_basis = stack.reshape(k, -1).T
    G = PairMatrix.of(images)
    bad = _first_nonzero(G @ G - PairMatrix.identity(G.shape[1]))
    if bad is not None:
        raise ValueError(f"image of {names[bad]!r} is not an involution")
    # column i*k + j: g_i basis[j] g_i, flattened
    conj = ((G[:, None] @ stack) @ G[:, None]).reshape(len(names) * k, -1).T
    coeff = exact_solve(flat_basis, conj)
    if coeff is None or not (flat_basis @ coeff - conj).is_zero():
        p = next(q for q in exact_pivots(PairMatrix.concat([flat_basis, conj], axis=1)) if q >= k)
        raise BasisNotClosed(f"Ad(rho({names[(p - k) // k]})) leaves the basis span")
    # coeff[j', i * k + j] is entry (j', j) of the image of generator i
    return LinearRep(racg, coeff.reshape(k, len(names), k).swapaxes(0, 1))


def adjoint_collapsed_rep(geometry):
    """Ad rho_0 on the ambient Lie algebra, in the adapted basis.

    rho_0 is built as the paths build their holonomies: the reflections
    in the collapsed lift for hyp/ads, phi of rho_lambda(0) for hp.
    """
    basis = adapted_basis(geometry)  # first: it names an unknown geometry
    if geometry == "hp":
        images = phi_to_projective(rho_lambda(0))
    else:
        lift = collapsed_lift_exact(geometry)
        images = reflection_matrix(lift.space, lift.table)
    return adjoint_rep(gamma22(), images, basis)


def so13_adjoint_rep():
    """Ad rho_0 on so(1,3) alone (the horizontal block)."""
    return adjoint_rep(gamma22(), rho0_linear(), so13_basis())


def split_h1(rep, report):
    """Dimensions of the projections of H^1 to the two adapted blocks.

    Requires every Ad-image to be block diagonal for the (so(1,3),
    rest) splitting of the adapted basis, whose first H_BLOCK = 6
    elements span so(1,3); returns (horizontal_dim, vertical_dim).
    ``report`` is this rep's cohomology_report, which every caller has
    already built; its representatives are independent modulo B^1.
    Elimination keeps each of them in one block, and B^1 splits too, so
    the dimensions are the counts of representatives per block; one that
    meets both blocks raises BasisNotAdapted.
    """
    R = rep.images
    if not (R[:, :H_BLOCK, H_BLOCK:].is_zero() and R[:, H_BLOCK:, :H_BLOCK].is_zero()):
        raise BasisNotAdapted("Ad images are not block diagonal in this basis")
    reps = report.h1_representatives.reshape(R.shape[0], rep.dimV, -1)
    nonzero = (reps.a != 0) | (reps.b != 0)
    horizontal = nonzero[:, :H_BLOCK].any(axis=(0, 1))
    vertical = nonzero[:, H_BLOCK:].any(axis=(0, 1))
    if (horizontal & vertical).any():
        raise BasisNotAdapted("an H^1 representative meets both adapted blocks")
    return int(horizontal.sum()), int(vertical.sum())


# -- the geometric cocycles and normalisation --------------------------------

def tau_lambda_cocycle(lam):
    """tau_lambda as the exact (22, 4) table of its R^{1,3} values (PairMatrix),
    a row per generator."""
    return rho_lambda(PairMatrix.of(lam)).translation


def reduce_mod_coboundary(tau):
    """Subtract the unique coboundary making tau vanish on A, B, C, D.

    ``tau`` is a cocycle of rho_0, flat or as a (22, 4) table; the
    result is a (22, 4) PairMatrix table.  The 4x4 system is
    -2 times the Gram matrix of the four letter normals, which is
    invertible; a failure here would contradict the non-degeneracy of
    the Minkowski form.
    """
    rep = rho0_rep()
    flat = _flatten_cocycle(rep.racg, 4, tau)
    cands = _coboundary_candidates(rep.images)
    letters = [4 * rep.racg.index(x) + r for x in ("A", "B", "C", "D") for r in range(4)]
    if exact_rank(cands[letters]) != 4:
        raise SingularNormalization("letter normalisation system is singular")
    w = exact_solve(cands[letters], flat[letters])
    if w is None:
        raise ValueError("tau is not a cocycle: no coboundary matches its letter values")
    reduced = flat - cands @ w
    assert reduced[letters].is_zero()
    return reduced.reshape(-1, 4)


def vertical_coefficient(tau):
    """The lam (a QSqrt2) with tau = tau_lambda, or None if tau is not in that family.

    ``tau`` is a cocycle of rho_0, flat or as a (22, 4) table.
    """
    lam = exact_solve(tau_lambda_cocycle(1).reshape(-1, 1), _flatten_cocycle(gamma22(), 4, tau))
    return None if lam is None else lam.item(0)
