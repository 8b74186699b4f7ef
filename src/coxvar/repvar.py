"""The representation variety as a quadratic zero locus.

A reflection representation of a RACG in dimension n is modelled by a
lift: one normal vector per generator, subject to quadratic constraints

    q(f(s)) = norm target        (one per generator),
    b(f(s1), f(s2)) = 0          (one per commuting pair),
    b(f(s1), f(s2)) = +-1        (optional pinned tangencies).

A Lift holds its normals as one table, a row per generator (a float
array, or a PairMatrix for an exact lift), and the flat coordinates of
the maps are that table read row by row.  For the 22-generator group
this is the map g: R^110 -> R^102, extended to g0: R^110 -> R^138 by
the 36 tangency conditions.  The module

* produces the explicit one-parameter family of lifts and its
  closed-form tangent vector: one body for H^4 and AdS^4, which differ
  only in the sign s = +-1 of the last coefficient of the form (the
  norm target of the positives, the scale 1/sqrt(1 + s t^2) and the
  recovery of t from the Gram matrix all read s),
* evaluates residuals and the analytic Jacobian,
* reports numeric kernels with an SVD rank cut and a mandatory
  spectral-gap check,
* projects nearby points back onto the variety (Gauss-Newton) and
  traces the variety through a gauge slice that freezes the four
  letter vectors A, B, C, D,
* finds the six-generator subsets whose Gram pattern is the cube
  (the cusp subgroups; 12 of them at every parameter off the collapse).

The LAPACK calls on the full constraint Jacobian (the SVD of
kernel_report and all of trace_path) run on one OpenBLAS thread, which
is faster on these 102/138 x 110 matrices.  The output bytes do not
depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import json
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations
from math import isfinite, sqrt

import numpy as np
from numpy.linalg import _umath_linalg

from .coxeter import _SIGNS, GAMMA22_NAMES, LETTER_NAMES, gamma22_vectors
from .geometry import DimensionMismatch, ParameterOutOfRange, QuadraticSpace, eval_bilinear
from .linalg_exact import PairMatrix, is_exact
from .scalars import format_scalar, parse_scalar

DEFAULT_RANK_TOL = 1e-9
MIN_GAP_RATIO = 1e3
# Gauss-Newton stops once max|F| <= TOL_RES
TOL_RES = 1e-12


class RepVarError(Exception):
    pass


class OverlappingConstraint(RepVarError):
    pass


class AmbiguousNearThreshold(RepVarError):
    pass


class NoConvergence(RepVarError):
    pass


class IllConditioned(RepVarError):
    pass


class SliceDegenerate(RepVarError):
    pass


class MixedBackends(RepVarError, ValueError):
    pass


# -- lifts ---------------------------------------------------------------

@dataclass(frozen=True)
class Lift:
    """One normal vector per generator, with norm targets.

    ``table`` holds the normals as one (len(names), space.dim) array, row
    k the normal of names[k]: a float array, or a PairMatrix for an exact
    lift.  A float table is copied in and made read-only, so a lift never
    shares its numbers with its caller.
    """

    space: QuadraticSpace
    names: tuple
    table: object
    norm_targets: dict

    def __post_init__(self):
        if (not self.names or len(set(self.names)) != len(self.names)
                or self.norm_targets.keys() != set(self.names)):
            raise ValueError("a lift needs one vector and one norm target for each of its "
                             "(one or more, distinct) names")
        if any(isinstance(t, bool) or t not in (-1, 1) for t in self.norm_targets.values()):
            raise ValueError("norm targets must be +1 or -1")
        if not self.exact:
            table = np.array(self.table, dtype=float)
            table.flags.writeable = False
            object.__setattr__(self, "table", table)
        if self.table.shape != (len(self.names), self.space.dim):
            raise DimensionMismatch(f"the table has shape {self.table.shape}, expected "
                                    f"{len(self.names)} vectors of dim {self.space.dim}")

    @property
    def vectors(self):
        """name -> normal, the rows of ``table`` (read-only)."""
        return {n: self.table[k] for k, n in enumerate(self.names)}

    @property
    def exact(self):
        return is_exact(self.table)

    @property
    def n_coords(self):
        return self.table.size

    def flatten(self):
        """The normals one after the other, as a new flat array."""
        return self.table.flatten()

    def with_flat(self, flat):
        """The lift whose normals are read, in order, from a flat array."""
        return replace(self, table=flat.reshape(self.table.shape))

    def as_float(self):
        return replace(self, table=np.asarray(self.table, dtype=float)) if self.exact else self

    def to_json(self):
        """The lift as JSON; a float entry 1 is written 1.0, so it reads back as a float."""
        def entry(x):
            s = format_scalar(x)
            return s + ".0" if not self.exact and s.lstrip("-").isdigit() else s

        return json.dumps({
            "schema_version": 1,
            "signature": list(self.space.signature),
            "norm_targets": {n: self.norm_targets[n] for n in self.names},
            "vectors": {n: [entry(self.table.item(k, j)) for j in range(self.space.dim)]
                        for k, n in enumerate(self.names)},
        })

    @classmethod
    def from_json(cls, text):
        """Parse a lift; decimal rows make a float table, exact rows a PairMatrix."""
        data = json.loads(text)
        try:
            sig = tuple(data["signature"])
            rows, targets = data["vectors"], data["norm_targets"]
            # dict() would also read a list of [name, value] pairs
            if not (isinstance(rows, dict) and isinstance(targets, dict)):
                raise TypeError("vectors and norm_targets must be JSON objects")
            for n, row in rows.items():
                if not isinstance(row, list):  # a string would pass as its characters
                    raise TypeError(f"vector {n!r} is not a list")
                if len(row) != len(sig):
                    raise DimensionMismatch(f"vector {n!r} has {len(row)} entries, space has "
                                            f"dim {len(sig)}")
            decimal = {any("." in s or "e" in s.lower() for s in row) for row in rows.values()}
            if len(decimal) > 1:
                raise MixedBackends("a lift mixes exact and decimal vectors")
            if decimal == {True}:
                table = np.array([[float(s) for s in row] for row in rows.values()])
            else:
                table = PairMatrix.of([[parse_scalar(s) for s in row] for row in rows.values()])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed lift JSON: {type(exc).__name__} {exc}") from None
        return cls(QuadraticSpace(len(sig), sig), tuple(rows), table, targets)


def _norm_targets(space):
    """q(f(i+)) = s, the last signature entry; every other normal is unit spacelike."""
    s = space.signature[-1]
    return {n: (s if n.endswith("+") else 1) for n in GAMMA22_NAMES}


def standard_lift(t, geometry):
    """The path of lifts in H^4 ("hyp") or AdS^4 ("ads", |t| < 1).

    With s = +-1 the last signature entry and c = 1/sqrt(1 + s t^2):
    f(i+) = c (sqrt2 t, e_i t, e), f(i-) = c (sqrt2, e_i, -s e t), the
    letters fixed.  At t = 0 both are the collapsed lift; at t = 1 the
    hyperbolic path gives the 22 unit normals.
    """
    space = QuadraticSpace.for_geometry(geometry, 4)
    s = space.signature[-1]
    t = float(t)
    q = 1.0 + s * t * t
    if not (q > 0 and isfinite(q)):
        raise ParameterOutOfRange(f"the {geometry} lift requires 0 < 1 + s t^2 < inf "
                                  f"(s = {s}), got t = {t}")
    c = 1.0 / sqrt(q)
    e_i, e = _SIGNS[:, :3], _SIGNS[:, 3:]
    one = np.ones((8, 1))
    pm = np.block([[sqrt(2.0) * t * one, e_i * t, e], [sqrt(2.0) * one, e_i, -s * e * t]])
    table = np.concatenate([c * pm, np.asarray(gamma22_vectors()[16:], dtype=float)])
    return Lift(space, GAMMA22_NAMES, table, _norm_targets(space))


def table_lift_exact():
    """Exact lift at t = 1 (hyperbolic): the 22 unit normals of the group."""
    space = QuadraticSpace.hyperbolic(4)
    return Lift(space, GAMMA22_NAMES, gamma22_vectors(), _norm_targets(space))


def collapsed_lift_exact(geometry):
    """Exact lift at t = 0, where the representation preserves H^3."""
    space = QuadraticSpace.for_geometry(geometry, 4)
    # i+ = x4 e_4 and i- = (sqrt2, x1, x2, x3, 0), the letters from the table
    a, b = np.zeros((16, 5), dtype=np.int64), np.zeros((16, 5), dtype=np.int64)
    a[:8, 4] = _SIGNS[:, 3]
    a[8:, 1:4], b[8:, 0] = _SIGNS[:, :3], 1
    table = PairMatrix.concat([PairMatrix(a, b), gamma22_vectors()[16:]])
    return Lift(space, GAMMA22_NAMES, table, _norm_targets(space))


# -- constraint systems ----------------------------------------------------

@dataclass(frozen=True)
class Pair:
    """One row  scale * b(x_a, x_b) - x_linear = target  over named blocks.

    A norm q(f(s)) = target is the pair (s, s); ``linear`` names a
    one-coordinate block subtracted from the row (none by default).
    """

    a: str
    b: str
    target: int
    scale: int = 1
    linear: str = None


@dataclass(frozen=True)
class ConstraintSystem:
    """Bilinear rows, compiled once to index arrays over their blocks.

    ``names`` lists the blocks the rows touch, in order of first use;
    ``maps`` binds them to flat coordinates.
    """

    constraints: tuple

    def __post_init__(self):
        cons = self.constraints
        names = tuple(dict.fromkeys(n for c in cons for n in (c.a, c.b, c.linear)
                                    if n is not None))
        slot = {n: k for k, n in enumerate(names)}
        rows = [(slot[c.a], slot[c.b], c.target, c.scale) for c in cons]
        linear = [(r, slot[c.linear]) for r, c in enumerate(cons) if c.linear is not None]
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_rows", np.array(rows, dtype=int).reshape(-1, 4))
        object.__setattr__(self, "_linear", np.array(linear, dtype=int).reshape(-1, 2))

    def __len__(self):
        return len(self.constraints)

    def maps(self, signature, start):
        """Residual and Jacobian as functions of flat coordinate vectors x.

        Block n occupies x[..., start[n]:start[n] + d], d = len(signature),
        and the form is diagonal with that signature.  Both maps act on
        the last axis, so a stack x of shape (..., n) gives residuals
        (..., rows) and Jacobians (..., rows, n), each row as the lone
        vector would.  The residual runs on float arrays or an exact
        PairMatrix alike (the latter with no linear rows, which would
        write into it); the Jacobian is built by scatter: a pairing row
        carries scale * Q x_b in block a and scale * Q x_a in block b
        (2 Q x_a for a norm), and -1 in the linear column.
        """
        sig = np.array(signature)
        try:
            offsets = np.array([start[n] for n in self.names], dtype=int)
        except KeyError as exc:
            raise DimensionMismatch(f"no coordinates for {exc.args[0]!r}") from None
        a, b, target, scale = self._rows.T
        lin_rows, lin = self._linear.T
        span = np.arange(len(sig))
        cols_a = offsets[a][:, None] + span
        cols_b = offsets[b][:, None] + span
        lin = offsets[lin]
        rows = np.arange(len(self))[:, None]

        def residual_at(x):
            r = scale * (sig * x[..., cols_a] * x[..., cols_b]).sum(axis=-1) - target
            if len(lin_rows):
                r[..., lin_rows] -= x[..., lin]
            return r

        def jacobian_at(x):
            J = np.zeros(x.shape[:-1] + (len(rows), x.shape[-1]))
            J[..., rows, cols_a] = scale[:, None] * (sig * x[..., cols_b])
            J[..., rows, cols_b] += scale[:, None] * (sig * x[..., cols_a])
            J[..., lin_rows, lin] = -1.0
            return J

        return residual_at, jacobian_at


def build_constraints(racg, norm_targets, tangency_pairs=None):
    """Norm + orthogonality constraints, plus optional pinned tangencies.

    Tangency targets are the signed values +-1 read off a reference
    lift, so Newton steps cannot jump between the 2^{|S|} sign sheets.
    """
    cons = [Pair(n, n, int(norm_targets[n])) for n in racg.generators]
    commuting = set(racg.commuting_pairs)
    for i, j in sorted(commuting):
        cons.append(Pair(racg.generators[i], racg.generators[j], 0))
    for (a, b), sign in (tangency_pairs or []):
        i, j = sorted((racg.index(a), racg.index(b)))
        if (i, j) in commuting:
            raise OverlappingConstraint(f"pair ({a}, {b}) already carries an orthogonality")
        cons.append(Pair(racg.generators[i], racg.generators[j], int(sign)))
    return ConstraintSystem(tuple(cons))


def find_tangency_pairs(lift, tol=1e-9):
    """All generator pairs with |b| = 1 within tol, with the sign of b.

    Read off gram_matrix, so an exact lift is censused on its float Gram
    matrix.  Raises AmbiguousNearThreshold when a pair sits between tol
    and 10*tol away from +-1: neither clearly tangent nor clearly not.
    """
    gram = gram_matrix(lift)
    out = []
    for (i, a), (j, b) in combinations(enumerate(lift.names), 2):
        v = gram[i, j]
        gap = abs(abs(v) - 1)
        if gap <= tol:
            out.append(((a, b), 1 if v > 0 else -1))
        elif gap <= 10 * tol:
            raise AmbiguousNearThreshold(
                f"pair ({a}, {b}) has |b| = {abs(v)!r}, within 10*tol of 1 but not within tol")
    return out


def canonical_tangency_pairs(geometry):
    """The 36 signed tangency pairs of the standard family.

    The pair set and signs are invariant along the path, so they are
    read off a single interior parameter; at the endpoints t = +-1 of
    the hyperbolic family extra pairs hit |b| = 1 and a direct census
    there would overcount.
    """
    return find_tangency_pairs(standard_lift(0.5, geometry))


def constraint_system(geometry, with_tangencies=True):
    """The quadratic system of the 22-generator group: g (102) or g0 (138)."""
    from .coxeter import gamma22

    targets = _norm_targets(QuadraticSpace.for_geometry(geometry, 4))
    tang = canonical_tangency_pairs(geometry) if with_tangencies else None
    return build_constraints(gamma22(), targets, tang)


def _lift_maps(system, lift):
    d = lift.space.dim
    return system.maps(lift.space.signature, {n: k * d for k, n in enumerate(lift.names)})


def residual(system, lift):
    """One entry per constraint: q - target, b, or b - sign."""
    return _lift_maps(system, lift)[0](lift.flatten())


def residual_max(system, lift):
    """Largest |residual| as a float: of an exact lift, the float view of
    its exact absolute values."""
    r = np.asarray(abs(residual(system, lift)), dtype=float)
    return float(np.max(r)) if len(r) else 0.0


def jacobian(system, lift):
    """Analytic derivative of the constraint map, rows = constraints.

    Norm rows carry 2*Q*f(s) in block s; pairing rows carry Q*f(s2) in
    block s1 and Q*f(s1) in block s2.
    """
    lift = lift.as_float()
    return _lift_maps(system, lift)[1](lift.flatten())


# -- rank / kernel reports -------------------------------------------------

@dataclass
class RankReport:
    singular_values: np.ndarray
    numeric_rank: int
    kernel_dim: int
    kernel_basis: np.ndarray
    gap_ratio: float


def _rank_cut(s, tol, shape):
    """Numeric rank and gap ratio at the cut of the singular values s of a matrix.

    The cut is relative (tol * sigma_max, with 0 < tol < 1).  The ratio
    across it must reach MIN_GAP_RATIO, and the largest value cut as zero
    must lie below the rounding floor sigma_max * max(shape) * eps
    (numpy's matrix_rank default); otherwise the dimension claim would be
    numerically meaningless and IllConditioned is raised.
    """
    if not 0 < tol < 1:
        raise ValueError(f"the relative rank tolerance must lie in (0, 1), got {tol}")
    rank = int(np.sum(s > tol * s[0]))
    if rank == len(s):
        return rank, np.inf
    gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else np.inf
    if gap < MIN_GAP_RATIO:
        raise IllConditioned(
            f"no spectral gap at the rank cut: sigma_{rank}/sigma_{rank + 1} = {gap:.3g}")
    floor = s[0] * max(shape) * np.finfo(float).eps
    if s[rank] > floor:
        raise IllConditioned(f"sigma_{rank + 1} = {s[rank]:.3g} is cut as zero above the "
                             f"rounding floor {floor:.3g}")
    return rank, gap


@cache
def _blas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS numpy loaded, or None.

    The library is the one mapped file whose name contains "openblas";
    None when there is none (no /proc, MKL, Accelerate), more than one,
    or it lacks the symbol (OpenBLAS before 0.3.27).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    if len(paths) != 1:
        return None
    try:
        setter = ctypes.CDLL(paths.pop()).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


_BLAS_SCOPE = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count.

    Despite its name, the setter changes the process-wide count in
    OpenBLAS's pthreads builds (numpy's wheels), so other threads' BLAS
    calls also run on one thread while the block runs, and the lock keeps
    concurrent blocks from restoring each other's counts out of order.
    With no setter this does nothing.
    """
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    with _BLAS_SCOPE:
        previous = setter(1)
        try:
            yield
        finally:
            setter(previous)


def kernel_report(system, lift, tol=DEFAULT_RANK_TOL):
    """SVD kernel of the constraint Jacobian with a spectral-gap check."""
    res = residual_max(system, lift)
    if res > 1e-8:
        warnings.warn(f"kernel_report at a point with residual {res:.3g}; "
                      "the lift is not on the variety", stacklevel=2)
    J = jacobian(system, lift)
    with _one_blas_thread():
        u, s, vt = np.linalg.svd(J)
    rank, gap = _rank_cut(s, tol, J.shape)
    return RankReport(
        singular_values=s,
        numeric_rank=rank,
        kernel_dim=J.shape[1] - rank,
        kernel_basis=vt[rank:],
        gap_ratio=gap,
    )


def form_algebra_basis(space):
    """Basis of the Lie algebra so(q) = {a : a^T Q + Q a = 0}, Q diagonal."""
    if any(s == 0 for s in space.signature):
        raise ValueError("so(q) basis requires a nondegenerate form")
    d = space.dim
    sig = space.signature
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            a = np.zeros((d, d))
            a[i, j] = 1.0
            a[j, i] = -sig[i] / sig[j]
            basis.append(a)
    return basis


def orbit_tangent(lift):
    """The tangent space of the conjugation orbit: the directions s -> a . f(s), a in so(q).

    Returns (rows, dim): a list of dim orthonormal flat vectors spanning
    the orbit directions, read off one SVD of the (basis, n_coords) orbit
    matrix with the gap-checked rank cut of kernel_report.
    """
    table = lift.as_float().table
    basis = np.array(form_algebra_basis(lift.space))
    orbit = (table @ basis.transpose(0, 2, 1)).reshape(len(basis), -1)
    _, s, vt = np.linalg.svd(orbit, full_matrices=False)
    dim = _rank_cut(s, DEFAULT_RANK_TOL, orbit.shape)[0]
    return list(vt[:dim]), dim


def known_tangent(t, geometry):
    """The closed-form tangent direction of the standard family at t.

    With lam = (1 + s t^2)^{-3/2}: dot p_i = lam * f(i-), dot m_i =
    -s lam * f(i+), letters fixed.  (The table rows are normalised, so
    this is the derivative of the family up to a positive scalar.)
    """
    lift = standard_lift(t, geometry)
    t = float(t)
    s = lift.space.signature[-1]
    lam = (1.0 + s * t * t) ** -1.5
    out = np.zeros(lift.table.shape)  # rows i+ (0-7), i- (8-15), the letters fixed
    out[:8] = lam * lift.table[8:16]
    out[8:16] = -s * lam * lift.table[:8]
    return out.reshape(-1)


# -- projection and tracing -------------------------------------------------

class NonFiniteResidual(np.linalg.LinAlgError):
    """A Gauss-Newton row reached a non-finite residual; ``row`` is its
    index in the stack and ``iterations`` the steps it had taken."""

    def __init__(self, row, iterations, residual):
        super().__init__(f"non-finite residual {residual} after {iterations} "
                         f"Gauss-Newton steps")
        self.row, self.iterations = row, iterations


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a, b):
    """Minimum-norm least-squares solutions of a stack: a (T, M, N), b (T, M).

    One call of the LAPACK gelsd gufunc that numpy's ``linalg.lstsq``
    wraps, with its default rcond = eps * max(M, N) and its error
    handling, so every row gets the bits a lone ``linalg.lstsq(a[k],
    b[k])`` returns.
    """
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(a, b[..., None], np.finfo(float).eps * max(m, n),
                                         signature="ddd->ddid")
    return x[..., 0]


def gauss_newton(F, J, x0, free_idx=None, max_iter=50):
    """Gauss-Newton least-squares iteration x <- x + lstsq(J(x), -F(x)) over a stack.

    x0 is one point (n,) or a stack (T, n); F and J act on the last axis
    as ConstraintSystem.maps does.  Only the coordinates in free_idx
    move (all of them when None).  Every row iterates as it would alone:
    it retires at the first iteration where max|F| <= TOL_RES, and the
    rows still active share one stacked least-squares step.  max_iter is
    50 for a projection (project_to_variety, the cusp trials) and 25 for
    a corrector step of trace_path.

    A stack returns (x, iterations, residual) as arrays over its rows; a
    row still above TOL_RES after max_iter steps keeps its last iterate,
    iterations max_iter and its last residual.  A single point returns
    (x, iterations, residual) as one vector and two scalars, and raises
    NoConvergence instead.  A non-finite residual raises
    NonFiniteResidual (a LinAlgError, raised before LAPACK sees the row)
    for the lowest-index row that reaches one, with that row's own
    iteration count.
    """
    free = slice(None) if free_idx is None else free_idx
    x = np.array(x0, dtype=float, ndmin=2)
    iters = np.full(len(x), max_iter)
    res = np.empty(len(x))
    active = np.arange(len(x))
    failed = None
    for it in range(max_iter + 1):
        xa = x[active]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: raised below
            r = F(xa)
            res_a = np.max(np.abs(r), axis=-1, initial=0.0)
        bad = np.flatnonzero(~np.isfinite(res_a))
        if len(bad):
            # rows after the first failure cannot change which row is reported
            k = bad[0]
            failed = (int(active[k]), it, float(res_a[k]))
            active, xa, r, res_a = active[:k], xa[:k], r[:k], res_a[:k]
        done = res_a <= TOL_RES
        iters[active[done]] = it
        res[active] = res_a
        if it == max_iter:
            break
        active, xa, r = active[~done], xa[~done], r[~done]
        if not len(active):
            break
        xa[:, free] += _lstsq(J(xa)[..., free], -r)
        x[active] = xa
    if failed is not None:
        raise NonFiniteResidual(*failed)
    if np.ndim(x0) > 1:
        return x, iters, res
    if res[0] > TOL_RES:
        raise NoConvergence(f"residual {res[0]:.3g} after {max_iter} Gauss-Newton steps")
    return x[0], int(iters[0]), float(res[0])


def project_to_variety(system, start):
    """Gauss-Newton least-squares projection onto the constraint variety.

    Returns (lift, iterations); raises NoConvergence when the residual is
    still above TOL_RES after 50 steps (outside the basin).
    """
    lift = start.as_float()
    x, iters, _ = gauss_newton(*_lift_maps(system, lift), lift.flatten())
    return lift.with_flat(x), iters


@_one_blas_thread()
def trace_path(system, start, steps, step_size, gauge=LETTER_NAMES[:4],
               orient=None, rank_tol=DEFAULT_RANK_TOL):
    """Predictor-corrector continuation in the gauge slice.

    The gauge freezes the coordinates of the given generators (by
    default the letters A, B, C, D), which kills the 10-dimensional
    conjugation orbit; the kernel of the Jacobian restricted to the
    remaining coordinates must be exactly one-dimensional, and is the
    step direction.  ``orient`` fixes the sign of the first step.  Each
    corrector is a gauss_newton of at most 25 steps to TOL_RES, raising
    NoConvergence beyond.  The rank cut is gap-checked as in
    kernel_report, and the whole trace runs on one BLAS thread.
    """
    lift = start.as_float()
    F, Jmap = _lift_maps(system, lift)
    frozen = np.zeros(lift.table.shape, dtype=bool)
    frozen[[lift.names.index(g) for g in gauge]] = True
    free_idx = np.flatnonzero(~frozen.reshape(-1))
    path = [lift]
    x = lift.flatten()
    prev = None if orient is None else np.asarray(orient, dtype=float)
    for _ in range(steps):
        J = Jmap(x)[:, free_idx]
        u, s, vt = np.linalg.svd(J)
        null_dim = J.shape[1] - _rank_cut(s, rank_tol, J.shape)[0]
        if null_dim != 1:
            raise SliceDegenerate(f"gauge-restricted kernel has dimension {null_dim}, expected 1")
        tangent = np.zeros(lift.n_coords)
        tangent[free_idx] = vt[-1]
        if prev is not None and np.dot(tangent, prev) < 0:
            tangent = -tangent
        elif prev is None:
            k = int(np.argmax(np.abs(tangent)))
            if tangent[k] < 0:
                tangent = -tangent
        x, _, _ = gauss_newton(F, Jmap, x + step_size * tangent, free_idx, 25)
        prev = tangent
        path.append(lift.with_flat(x))
    return path


# -- Gram matrices and the cusp census ---------------------------------------

def gram_matrix(lift):
    """Pairwise b-values in the order of lift.names (norms on the diagonal).

    One stacked eval_bilinear over the lift's table: an exact lift pairs
    exactly and is converted to float once, at the end.
    """
    table = lift.table
    return np.asarray(eval_bilinear(lift.space, table[:, None], table[None, :]), dtype=float)


def nearest_standard_t(lift, geometry):
    """Recover the path parameter from conjugation-invariant Gram entries.

    Uses g = b(f(0+), f(2+)), t^2 = (s - g)/(3 + s g), and the sign of
    b(f(0+), f(2-)) = -4t/(1 + s t^2); both are invariant under the
    isometry action.  The numerator is computed as s (1 - s g), so that
    t = -0.0 at the AdS collapse g = -1.
    """
    s = QuadraticSpace.for_geometry(geometry, 4).signature[-1]
    row = [lift.names.index(n) for n in ("0+", "2+", "2-")]
    g, g2 = np.asarray(eval_bilinear(lift.space, lift.table[row[0]], lift.table[row[1:]]),
                       dtype=float).tolist()
    t2 = max(s * (1.0 - s * g) / (3.0 + s * g), 0.0)
    t = sqrt(t2)
    if g2 > 0:
        t = -t
    return t


def find_cusp_subgroups(lift, tol=1e-9):
    """Six-element subsets whose Gram pattern is the cube.

    A subset qualifies when it splits into 3 disjoint pairs with
    |b| = 1 and all 12 remaining pairs are orthogonal.  Subsets are
    returned in cube order (a1, b1, c1, a2, b2, c2) with opposite pairs
    (a1, a2), (b1, b2), (c1, c2).

    Two tangent pairs are compatible when they are disjoint and all four
    cross pairings are orthogonal, so a cube is three mutually compatible
    tangent pairs: a triangle of the compatibility matrix over the
    tangent pairs.

    The census is meaningful where the 22 hyperplanes are distinct
    (interior parameters other than the collapse): there it returns the
    12 subsets attached to the ideal vertices.  At the collapsed lift
    the eight positive normals coincide in pairs and many accidental
    Gram matches appear; classify the 12 canonical subsets there
    instead of re-running the census.
    """
    names = lift.names
    gram = np.abs(gram_matrix(lift))
    a, b = np.nonzero(np.triu(np.abs(gram - 1) <= tol, 1))  # the tangent pairs a < b
    orthogonal = gram <= tol
    compatible = (orthogonal[a][:, a] & orthogonal[a][:, b] & orthogonal[b][:, a]
                  & orthogonal[b][:, b] & (a[:, None] != a) & (a[:, None] != b)
                  & (b[:, None] != a) & (b[:, None] != b))
    found = []
    for p in range(len(a)):
        later = np.flatnonzero(compatible[p, p + 1:]) + p + 1
        for q in later:
            for r in later[later > q]:
                if compatible[q, r]:
                    found.append(tuple(names[k] for k in (a[p], a[q], a[r], b[p], b[q], b[r])))
    return sorted(found)
