"""Finite-dimensional normed algebras: matrix blocks, direct sums, grid-sampled
function algebras, plus disks and their gauge semi-norms.

All values are complex, all containers immutable after construction, all
operations pure.  Norm kinds: ``op2`` (largest singular value) and ``maxrow``
(maximum absolute row sum).  Both are submultiplicative.

An element is one complex coordinate vector.  Its descriptor's ``runs`` cut
that vector into stacks of equal matrix blocks, and products, norms and
spectral radii act on whole stacks at once.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import DescriptorMismatch, NumericalFailure, UnsupportedDisk

NORM_TOL = 1e-10
RANK_TOL = 1e-9
LP_TOL = 1e-9

# the one relative rounding budget of the float bounds: a computed norm,
# eigenvalue modulus or product of j factors, a Frobenius or row-sum bound and
# a rate taken through log2 and pow stay within a factor 1 + ROUNDING of what
# they bound, as do two estimates of one set in nested corner embeddings; far
# above LAPACK's backward errors, NORM_TOL, gamma_d ~ d^2 2^-53 of a product
# of d x d blocks (||fl(AB) - AB|| <= gamma_d ||A|| ||B||) and those roundings
ROUNDING = 1e-8

OP2 = "op2"
MAXROW = "maxrow"


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """A finite ordered point set."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("grid must be nonempty")

    @staticmethod
    def circle(m):
        """Uniform m-point grid of angles on the circle."""
        return GridSpec(tuple(2.0 * math.pi * k / m for k in range(m)))

    @staticmethod
    def interval(lo, hi, m):
        """Uniform m-point grid on [lo, hi]."""
        if m == 1:
            return GridSpec((float(lo),))
        step = (hi - lo) / (m - 1)
        return GridSpec(tuple(float(lo + k * step) for k in range(m)))


class _Layout:
    """Block layout of the descriptors below, computed once per descriptor."""

    @cached_property
    def runs(self):
        """``(start, stop, count, dim, norm_kind)`` per run of consecutive
        equal matrix blocks in :func:`vec` order.  Coordinates ``start:stop``
        reshape to a ``(count, dim, dim)`` stack."""
        runs, start = [], 0
        for dim, kind in _blocks(self):
            stop = start + dim * dim
            if runs and runs[-1][3:] == (dim, kind):
                runs[-1] = (runs[-1][0], stop, runs[-1][2] + 1, dim, kind)
            else:
                runs.append((start, stop, 1, dim, kind))
            start = stop
        return tuple(runs)


@dataclass(frozen=True)
class MatrixAlgebra(_Layout):
    dim: int
    norm_kind: str = OP2

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("matrix algebra dimension must be >= 1")
        if self.norm_kind not in (OP2, MAXROW):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    def __str__(self):
        return f"M{self.dim}[{self.norm_kind}]"


@dataclass(frozen=True)
class DirectSum(_Layout):
    summands: tuple

    def __post_init__(self):
        if not self.summands:
            raise ValueError("direct sum needs at least one summand")

    def __str__(self):
        return "(" + " + ".join(str(s) for s in self.summands) + ")"


@dataclass(frozen=True)
class GridFunctionAlgebra(_Layout):
    grid: GridSpec
    fiber: object

    def __str__(self):
        return f"C({len(self.grid.points)} pts, {self.fiber})"


def linear_dim(desc):
    """Complex coordinate dimension of an algebra descriptor."""
    if not isinstance(desc, _Layout):
        raise TypeError(f"not a descriptor: {desc!r}")
    return desc.runs[-1][1]


def components(desc):
    """The descriptors a direct sum or a grid algebra is built from, in
    :func:`vec` order."""
    if isinstance(desc, DirectSum):
        return desc.summands
    if isinstance(desc, GridFunctionAlgebra):
        return (desc.fiber,) * len(desc.grid.points)
    raise TypeError(f"not a descriptor: {desc!r}")


def _blocks(desc):
    """``(dim, norm_kind)`` of each matrix block, in :func:`vec` order."""
    if isinstance(desc, MatrixAlgebra):
        return [(desc.dim, desc.norm_kind)]
    return [block for sub in components(desc) for block in _blocks(sub)]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _coords(desc, data, context="element"):
    """Coordinates in :func:`vec` order of ``data``: an element of ``desc``,
    the ``(d, d)`` matrix of a :class:`MatrixAlgebra` element, or one such
    item per component of a :class:`DirectSum` / :class:`GridFunctionAlgebra`.
    """
    if isinstance(data, AlgebraElement):
        if data.descriptor != desc:
            raise DescriptorMismatch(data.descriptor, desc, context)
        return data.coords
    if isinstance(desc, MatrixAlgebra):
        mat = np.asarray(data, dtype=np.complex128)
        if mat.shape != (desc.dim, desc.dim):
            raise ValueError(f"data shape {mat.shape} does not match {desc}")
        return mat.reshape(-1)
    parts, items = components(desc), tuple(data)
    if len(items) != len(parts):
        raise ValueError(f"{desc}: arity mismatch")
    return np.concatenate([_coords(sub, item, f"{desc} component")
                           for sub, item in zip(parts, items)])


class AlgebraElement:
    """A concrete element of a model algebra.

    ``coords`` is the element's read-only complex coordinate vector, in the
    order of :func:`vec`.  The constructor copies either ``coords`` or the
    ``data`` that :func:`_coords` reads.
    """

    __slots__ = ("descriptor", "coords")

    def __init__(self, descriptor, data=None, *, coords=None):
        coords = np.array(_coords(descriptor, data) if coords is None else coords,
                          dtype=np.complex128)
        if coords.shape != (linear_dim(descriptor),):
            raise ValueError("coordinate vector has wrong length")
        if not np.isfinite(coords).all():
            raise ValueError("non-finite entry in algebra element")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "descriptor", descriptor)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def data(self):
        """The ``(d, d)`` matrix of a :class:`MatrixAlgebra` element; other
        elements have none, as their descriptors have no ``dim``."""
        dim = self.descriptor.dim
        return self.coords.reshape(dim, dim)

    def __repr__(self):
        return f"AlgebraElement({self.descriptor}, coords={self.coords!r})"

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.descriptor == other.descriptor
                and bool(np.array_equal(self.coords, other.coords)))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already calls equal
        return hash((self.descriptor, (self.coords + 0.0).tobytes()))


def _stacks(desc, coords):
    """``(stack, norm_kind)`` per block run of ``(..., L)`` coordinates, as
    ``(..., count, dim, dim)`` arrays; views of a single vector's runs."""
    return [(coords[..., start:stop].reshape(coords.shape[:-1] + (count, dim, dim)),
             kind)
            for start, stop, count, dim, kind in desc.runs]


def matrix_element(data, norm_kind=OP2):
    mat = np.asarray(data, dtype=np.complex128)
    return AlgebraElement(MatrixAlgebra(mat.shape[0], norm_kind), mat)


def scalar_element(value, norm_kind=OP2):
    return matrix_element([[value]], norm_kind)


grid_element = AlgebraElement  # from per-point fiber data or elements


def identity(descriptor):
    coords = np.zeros(linear_dim(descriptor))
    for stack, _kind in _stacks(descriptor, coords):
        stack[:] = np.eye(stack.shape[-1])
    return AlgebraElement(descriptor, coords=coords)


def _check_same(a, b, context):
    if a.descriptor != b.descriptor:
        raise DescriptorMismatch(a.descriptor, b.descriptor, context)


def _matmul_stable(a, b, out):
    """Add the matrix products of the stacks ``a`` and ``b`` into ``out``.

    Sequential rank-one updates over the inner index: zero-padded corners
    then reproduce the unpadded product bit for bit, which BLAS kernels
    (whose fused accumulation depends on the matrix size) do not guarantee,
    and each matrix of a stack gets the bits it gets on its own.
    """
    for k in range(a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]


def products(desc, a, b):
    """Algebra products of coordinate rows: ``a`` and ``b`` are ``(..., L)``
    arrays that broadcast together, and each product gets the bits
    :func:`multiply` gives it alone; a non-finite entry raises ValueError."""
    runs = []
    for (x, _), (y, _) in zip(_stacks(desc, a), _stacks(desc, b)):
        # equal ndims, as in multiply: numpy multiplies one complex entry
        # by operands of unequal ndims in a loop that rounds differently
        x, y = x[(None,) * (y.ndim - x.ndim)], y[(None,) * (x.ndim - y.ndim)]
        z = np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
        _matmul_stable(x, y, z)
        if not np.isfinite(z).all():
            raise ValueError("non-finite entry in algebra element")
        runs.append(z.reshape(z.shape[:-3] + (-1,)))
    return runs[0] if len(runs) == 1 else np.concatenate(runs, axis=-1)


def multiply(a, b):
    """Algebra product: block matrix product, pointwise on grids."""
    _check_same(a, b, "multiply")
    return AlgebraElement(a.descriptor,
                          coords=products(a.descriptor, a.coords, b.coords))


def add(a, b):
    _check_same(a, b, "add")
    return AlgebraElement(a.descriptor, coords=a.coords + b.coords)


def subtract(a, b):
    _check_same(a, b, "subtract")
    return AlgebraElement(a.descriptor, coords=a.coords - b.coords)


def scale(c, a):
    return AlgebraElement(a.descriptor, coords=c * a.coords)


# ---------------------------------------------------------------------------
# norms and spectral radius of a single element
# ---------------------------------------------------------------------------

def _power_iteration_bracket(mat):
    """Largest singular value by power iteration on A^H A.

    Returns (estimate, converged, bracket).  An estimate counts as converged
    only when its A^H A residual is within NORM_TOL * sigma^2, the limit of
    the SVD path's residual check.
    """
    n = mat.shape[0]
    upper = float(np.linalg.norm(mat, "fro"))
    if upper == 0.0:
        return 0.0, True, (0.0, 0.0)
    gram = mat.conj().T @ mat
    v = np.ones(n, dtype=np.complex128) / math.sqrt(n)
    sigma = 0.0
    for _ in range(2000):
        w = gram @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # the start vector lies in the kernel of A^H A, but A is nonzero
            return 0.0, False, (0.0, upper)
        v_new = w / nw
        sigma_new = math.sqrt(nw)
        if abs(sigma_new - sigma) <= NORM_TOL * max(sigma_new, 1e-300):
            resid = float(np.linalg.norm(gram @ v_new - nw * v_new))
            if resid <= NORM_TOL * nw:
                return sigma_new, True, (sigma_new, upper)
        sigma, v = sigma_new, v_new
    return sigma, False, (sigma, upper)


# with entries up to 2^250 no norm the residual check or the power iteration
# takes overflows (the iteration squares sigma^2) for matrices of side < 2^6;
# with the largest entry at least 2^-250 their squares do not underflow
_SQUARE_SAFE = math.ldexp(1.0, 250)
_SQUARE_TINY = math.ldexp(1.0, -250)


def _unsafe_peaks(peaks):
    """Where a matrix whose largest entry modulus is ``peaks`` needs scaling
    by a power of two before the squares of its norms are taken."""
    return (peaks > _SQUARE_SAFE) | ((peaks > 0.0) & (peaks < _SQUARE_TINY))


def _bracket(mat_s, exp, failure):
    """The power-iteration estimate for ``mat_s``, scaled back by 2^exp: inf
    where that exceeds the float range."""
    est, ok, bracket = _power_iteration_bracket(mat_s)
    with np.errstate(over="ignore"):
        est, *bracket = np.ldexp([est, *bracket], exp).tolist()
    if not ok:
        raise NumericalFailure(failure, tuple(bracket))
    return est


def _matrix_norms(stack, kind):
    """The ``kind`` norm of each matrix of a ``(count, d, d)`` stack.

    For ``op2``, one batched SVD gives each matrix the bits of its own SVD,
    and a residual check of its leading singular triple certifies it.  A
    matrix with an entry above ``_SQUARE_SAFE``, or a nonzero one whose
    entries are all below ``_SQUARE_TINY``, is checked and bracketed as its
    copy scaled by the power of two that brings its largest entry into
    [1/2, 1).  Such scaling commutes with every rounding here, so a matrix
    whose norms neither overflow nor underflow gets the verdict it gets
    unscaled.  The SVD runs on the unscaled stack.  A matrix that fails its
    check is bracketed by power iteration, and a stack whose SVD fails is
    redone matrix by matrix.
    """
    if kind == MAXROW:
        return np.max(np.sum(np.abs(stack), axis=2), axis=1)
    peaks = np.max(np.abs(stack), axis=(1, 2))
    exps = np.where(_unsafe_peaks(peaks), np.frexp(peaks)[1], 0)
    scaled = (stack * np.ldexp(1.0, -exps)[:, None, None] if exps.any()
              else stack)
    try:
        u, s, vh = np.linalg.svd(stack)
    except np.linalg.LinAlgError:
        if len(stack) > 1:
            return np.concatenate([_matrix_norms(mat[None], kind)
                                   for mat in stack])
        return np.array([_bracket(
            scaled[0], int(exps[0]),
            "operator-2-norm iteration did not converge")])
    sigma, left, right = s[:, 0], u[:, :, 0], vh[:, 0, :].conj()
    sigma_s = np.ldexp(sigma, -exps)
    # an overflowing SVD's sigma = inf gives nan residuals: bracketed below
    with np.errstate(invalid="ignore"):
        r1 = np.linalg.norm(np.einsum("nij,nj->ni", scaled, right)
                            - sigma_s[:, None] * left, axis=1)
        r2 = np.linalg.norm(np.einsum("nji,nj->ni", scaled.conj(), left)
                            - sigma_s[:, None] * right, axis=1)
    limit = NORM_TOL * sigma_s + 1e-13 * np.linalg.norm(scaled, axis=(1, 2))
    for i in np.flatnonzero((sigma != 0.0) & ~(np.maximum(r1, r2) <= limit)):
        sigma[i] = _bracket(scaled[i], int(exps[i]),
                            "operator-2-norm residual check failed")
    return sigma


def _matrix_bounds(stack, kind):
    """An upper bound, with no SVD, on the computed ``kind`` norm and
    eigenvalue moduli of each matrix of a ``(count, d, d)`` stack: its
    Frobenius norm for ``op2``, its norm for ``maxrow``, widened by
    ``ROUNDING``, and inf where :func:`_unsafe_peaks` says its squares
    overflow or underflow."""
    mags = np.abs(stack)
    if kind == MAXROW:
        size = np.max(np.sum(mags, axis=2), axis=1)
    else:
        with np.errstate(over="ignore"):
            size = np.sqrt(np.einsum("nij,nij->n", mags, mags))
    return np.where(_unsafe_peaks(np.max(mags, axis=(1, 2))), np.inf,
                    size * (1.0 + ROUNDING))


def _block_bounds(stacks):
    """:func:`_matrix_bounds` of each block of ``(n, count, d, d)``
    ``stacks``, as an ``(n, blocks)`` array in :func:`vec` order."""
    return np.concatenate([_matrix_bounds(stack.reshape(-1, *stack.shape[2:]),
                                          kind).reshape(stack.shape[:2])
                           for stack, kind in stacks], axis=1)


def _row_max(desc, rows, per_matrix):
    """The maximum over each row's matrix blocks of ``per_matrix(stack,
    norm_kind)``, which maps a ``(count, d, d)`` stack to one value a matrix,
    at most its :func:`_matrix_bounds`; ``rows`` is an ``(n, L)`` coordinate
    array.

    A row of several blocks has ``per_matrix`` evaluated first on its block
    of largest bound, and then only on the blocks whose bound exceeds that
    value: no other block can exceed it.  Each matrix gets the bits it gets
    alone, so the maxima are bytewise those over every block; a block
    skipped this way raises no NumericalFailure.
    """
    stacks = _stacks(desc, rows)
    if len(stacks) == 1 and stacks[0][0].shape[1] == 1:
        stack, kind = stacks[0]
        return per_matrix(stack[:, 0], kind)
    bounds = _block_bounds(stacks)
    values = np.full(bounds.shape, -np.inf)

    def evaluate(chosen):
        at = 0
        for stack, kind in stacks:
            row, block = np.nonzero(chosen[:, at:at + stack.shape[1]])
            if len(row):
                values[row, at + block] = per_matrix(stack[row, block], kind)
            at += stack.shape[1]

    top = np.zeros(bounds.shape, dtype=bool)
    top[np.arange(len(rows)), np.argmax(bounds, axis=1)] = True
    evaluate(top)
    evaluate(~top & (bounds > values.max(axis=1, keepdims=True)))
    return values.max(axis=1)


def norm_bounds(desc, rows):
    """An upper bound, with no SVD, on :func:`norms` and
    :func:`spectral_radii` of each row of an ``(n, L)`` coordinate array:
    the largest :func:`_matrix_bounds` of its blocks."""
    return _block_bounds(_stacks(desc, rows)).max(axis=1)


def norms(desc, rows):
    """:func:`norm` of each row of an ``(n, L)`` coordinate array."""
    return _row_max(desc, rows, _matrix_norms)


def norm(a):
    """Algebra norm of an element; submultiplicative for both norm kinds.

    The maximum over blocks, so over grid points and summands.
    """
    return float(norms(a.descriptor, a.coords[None])[0])


def _gelfand_bracket(mat, kind, kmax=64):
    """Fallback bracket for the classical spectral radius via ||a^k||^(1/k)."""
    best_upper = math.inf
    power = mat
    elem_kind = MatrixAlgebra(mat.shape[0], kind)
    for k in range(1, kmax + 1):
        if k > 1:
            power = power @ mat
        if not np.all(np.isfinite(power.view(np.float64))):
            break
        nk = norm(AlgebraElement(elem_kind, power))
        best_upper = min(best_upper, nk ** (1.0 / k))
    return (0.0, best_upper)


def _eig_radii(stack, kind):
    """Largest eigenvalue modulus of each matrix of a stack.  A batched
    ``eigvals`` gives each matrix the bits of its own; a failing stack is
    redone matrix by matrix, and a failing matrix raises with its Gelfand
    bracket."""
    try:
        return np.max(np.abs(np.linalg.eigvals(stack)), axis=1)
    except np.linalg.LinAlgError:
        if len(stack) > 1:
            return np.concatenate([_eig_radii(mat[None], kind) for mat in stack])
        raise NumericalFailure("eigenvalue iteration failed",
                               _gelfand_bracket(stack[0], kind))


def spectral_radii(desc, rows):
    """:func:`spectral_radius_single` of each row of an ``(n, L)`` array."""
    return _row_max(desc, rows, _eig_radii)


def spectral_radius_single(a):
    """Classical spectral radius: maximum eigenvalue modulus, blockwise max."""
    return float(spectral_radii(a.descriptor, a.coords[None])[0])


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

def vec(a):
    """The element's read-only complex coordinate vector (row-major blocks)."""
    return a.coords


def unvec(descriptor, coords):
    """Inverse of :func:`vec`."""
    return AlgebraElement(descriptor, coords=coords)


def basis(descriptor):
    """Canonical coordinate basis as elements, ordered consistently with vec()."""
    return [unvec(descriptor, row) for row in np.eye(linear_dim(descriptor))]


# ---------------------------------------------------------------------------
# bounded sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedSet:
    """A finite generator list of one descriptor.

    The set and its disked hull have the same spectral radius, so the
    joint-spectral-radius kernel reads only the generators; as a disk the
    hull is :class:`FiniteHull`.
    """

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("bounded set needs at least one generator")
        d0 = self.generators[0].descriptor
        for g in self.generators[1:]:
            if g.descriptor != d0:
                raise DescriptorMismatch(g.descriptor, d0, "bounded set generator")

    @property
    def descriptor(self):
        return self.generators[0].descriptor

    @property
    def rows(self):
        """The generators' coordinates as a new ``(k, L)`` array."""
        return np.stack([g.coords for g in self.generators])

    def scaled(self, c):
        return BoundedSet(tuple(scale(c, g) for g in self.generators))


def bounded_set(elements):
    """A BoundedSet of ``elements``; a BoundedSet is returned as it is."""
    if isinstance(elements, BoundedSet):
        return elements
    return BoundedSet(tuple(elements))


# ---------------------------------------------------------------------------
# disks and gauges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormBall:
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("norm ball radius must be positive")


class FiniteHull(BoundedSet):
    """Absolutely convex hull of a bounded set's generators, real coefficients."""


@dataclass(frozen=True)
class Scaled:
    factor: float
    inner: object

    def __post_init__(self):
        if not self.factor > 0:
            raise ValueError("disk scale must be positive")


@dataclass(frozen=True)
class SumDisk:
    left: object
    right: object


def _real_rows(rows):
    """Real coordinates ``[re, im]`` of each row of an ``(..., L)`` array."""
    return np.concatenate([rows.real, rows.imag], axis=-1)


def _flatten_disk(disk, mult=1.0):
    """Normalize a disk term into ('ball', r) or ('hull', [(hull, scale)...]).

    Mixed ball/hull sums have no exact formula and raise UnsupportedDisk.
    """
    if isinstance(disk, NormBall):
        return ("ball", disk.radius * mult)
    if isinstance(disk, FiniteHull):
        return ("hull", [(disk, mult)])
    if isinstance(disk, Scaled):
        return _flatten_disk(disk.inner, mult * disk.factor)
    if isinstance(disk, SumDisk):
        left = _flatten_disk(disk.left, mult)
        right = _flatten_disk(disk.right, mult)
        if left[0] != right[0]:
            raise UnsupportedDisk(
                "sum of a norm ball and a finite hull has no exact gauge formula"
            )
        if left[0] == "ball":
            return ("ball", left[1] + right[1])
        return ("hull", left[1] + right[1])
    raise TypeError(f"not a disk: {disk!r}")


@cache
def _highs():
    """scipy's HiGHS extension and the options ``linprog(method="highs")``
    sets, loaded on the first LP.

    borno never imports ``scipy.optimize``, whose package init also loads
    scipy.sparse, scipy.linalg and more.  It loads only the extension, from
    its file under scipy's install directory, and registers it under its
    scipy name, so that a later ``import scipy.optimize`` reuses it; if
    scipy's optimizer is already imported, its module is used.  After
    ``import numpy`` (Python 3.11.7, scipy 1.17.1, a 2-core x86-64 host),
    ``import scipy.optimize`` takes 0.56-0.61 s and raises peak RSS from 27
    to 76 MB; the extension alone takes 5-7 ms and raises it to 31 MB.
    :func:`_solve_lp` builds one solver instance per thread from these.
    """
    name = "scipy.optimize._highspy._core"
    core = sys.modules.get(name)
    if core is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        stem = os.path.join(root, "optimize", "_highspy", "_core")
        path = next(stem + suffix for suffix in EXTENSION_SUFFIXES
                    if os.path.isfile(stem + suffix))
        spec = importlib.util.spec_from_file_location(name, path)
        core = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    return core, options


# per thread: ``solver``, the HiGHS instance _solve_lp reuses, and ``model``,
# the (shape, matrix bytes, cost bytes) of the model it holds
_LP = threading.local()


def _solve_lp(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """``(x, objective, row duals)`` of min c.x over x >= 0 with
    ``a_ub @ x <= b_ub`` and ``a_eq @ x = b_eq``, inequality rows first.

    HiGHS gets the model and options that linprog gives it, so the bits are
    linprog's.  As in linprog, an optimum must be feasible within ``LP_TOL``;
    any other outcome raises NumericalFailure.

    Each thread reuses one HiGHS instance, built again only when
    :func:`_highs` returns another solver class, and passes a model only when
    the constraint matrix or the costs differ from its previous LP's; else it
    changes the row bounds alone.  Building an instance, passing it options
    and a model took about as long as the solve.  Every solve still starts
    cold: the instance's basis and solution are cleared first, so the bits
    are those of a new instance.  Warm-started from the previous LP's basis,
    the hull closure LPs end in other last bits, which changed the closure
    defect of every hull measured and left one optimum infeasible.
    """
    core, options = _highs()
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_eq if a_ub is None else np.concatenate([a_ub, a_eq]),
                   dtype=np.float64)
    n_ub = 0 if a_ub is None else len(a_ub)
    lower = np.concatenate([np.full(n_ub, -np.inf), b_eq])
    upper = b_eq if a_ub is None else np.concatenate([b_ub, b_eq])
    solver = getattr(_LP, "solver", None)
    if type(solver) is not core._Highs:
        solver = _LP.solver = core._Highs()
        solver.passOptions(options)
        _LP.model = None
    model = (a.shape, a.tobytes(), c.tobytes())
    if model == _LP.model:
        for row, bounds in enumerate(zip(lower.tolist(), upper.tolist())):
            solver.changeRowBounds(row, *bounds)
        solver.clearSolver()
    else:
        _LP.model = None  # until the new model is in place
        solver.passModel(_highs_lp(core, c, a, lower, upper))
        _LP.model = model
    ran, status = solver.run(), solver.getModelStatus()
    if ran == core.HighsStatus.kError or status != core.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = upper - np.array(solution.row_value)
    if not (np.all(x >= -LP_TOL) and np.all(slack[:n_ub] >= -LP_TOL)
            and np.all(np.abs(slack[n_ub:]) <= LP_TOL)):
        raise NumericalFailure(f"LP optimum is infeasible by more than {LP_TOL}")
    return x, solver.getInfo().objective_function_value, np.array(solution.row_dual)


def _highs_lp(core, c, a, lower, upper):
    """The HiGHS model of min c.x over x >= 0 with lower <= a @ x <= upper,
    its matrix in linprog's CSC form."""
    col, row = np.nonzero(a.T)
    lp = core.HighsLp()
    matrix = lp.a_matrix_
    matrix.num_row_, matrix.num_col_ = lp.num_row_, lp.num_col_ = a.shape
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.start_ = np.searchsorted(col, np.arange(a.shape[1] + 1))
    matrix.index_, matrix.value_ = row, a[row, col]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.zeros(len(c)), np.full(len(c), np.inf)
    lp.row_lower_, lp.row_upper_ = lower, upper
    return lp


linprog = _solve_lp  # the name perfbench/tracing.py times the LPs under


def _misses(cols, lam, target):
    """Whether ``cols @ lam`` misses ``target`` by more than the span test's
    tolerance."""
    return np.linalg.norm(cols @ lam - target) > RANK_TOL * (1.0 + np.linalg.norm(target))


def _check_primal(cols, lam, target, context):
    """Raise NumericalFailure if an LP's ``lam`` misses its target."""
    if _misses(cols, lam, target):
        raise NumericalFailure(f"{context} primal misses its target")


def _hull_gauge_lp(cols, target, spanned=False):
    """min sum |lambda_i| with cols @ lambda = target over real lambda.

    ``cols`` holds the hull generators' real coordinates as columns.  Returns
    ``(value, lambda, y)`` with the LP's dual ``y``: ``|cols^T y| <= 1`` and
    ``y . target = value``.  A target off the columns' span, which least
    squares misses, gives ``(inf, None, None)``.  ``spanned`` says that the
    caller holds a decomposition of ``target`` that shows least squares
    would not miss it (``jsr._spanned``): the span test is skipped.
    """
    if not spanned and _misses(cols, np.linalg.lstsq(cols, target, rcond=None)[0],
                               target):
        return math.inf, None, None
    n = cols.shape[1]
    # lambda = p - q with p, q >= 0; minimize 1.(p + q)
    x, value, dual = _solve_lp(np.ones(2 * n), np.concatenate([cols, -cols], axis=1),
                               target)
    lam = x[:n] - x[n:]
    _check_primal(cols, lam, target, "gauge LP")
    return value, lam, dual


def _hull_gauge_groups(groups, target):
    """Gauge of real coordinates ``target`` for a Minkowski sum of scaled
    hulls: one hull of scale 1 by :func:`_hull_gauge_lp`, else by a single
    grouped LP that minimizes t subject to target = sum_i sum_j lambda_ij g_ij
    and sum_j |lambda_ij| <= t * scale_i for each group i.
    """
    cols = np.ascontiguousarray(
        np.concatenate([_real_rows(hull.rows) for hull, _s in groups]).T)
    if len(groups) == 1 and groups[0][1] == 1.0:
        return _hull_gauge_lp(cols, target)[0]
    if _misses(cols, np.linalg.lstsq(cols, target, rcond=None)[0], target):
        return math.inf
    n = cols.shape[1]
    # variables p, q (n each) and t; row i bounds group i's sum of |lambda|
    group = np.repeat(np.arange(len(groups)),
                      [len(hull.generators) for hull, _s in groups])
    member = (group == np.arange(len(groups))[:, None]).astype(float)
    a_ub = np.concatenate([member, member, -np.array([[s] for _g, s in groups])],
                          axis=1)
    c = np.zeros(2 * n + 1)
    c[-1] = 1.0
    x_opt, value, _duals = _solve_lp(
        c, np.concatenate([cols, -cols, np.zeros((len(target), 1))], axis=1),
        target, a_ub, np.zeros(len(groups)))
    _check_primal(cols, x_opt[:n] - x_opt[n:-1], target, "grouped gauge LP")
    return value


def gauges(disk, desc, rows):
    """:func:`gauge` of each row of an ``(n, L)`` coordinate array of ``desc``."""
    kind = _flatten_disk(disk)
    if kind[0] == "ball":
        return norms(desc, rows) / kind[1]
    return np.array([_hull_gauge_groups(kind[1], x) for x in _real_rows(rows)])


def gauge(disk, x):
    """Minkowski gauge of ``x`` with respect to ``disk``; may be +inf."""
    return float(gauges(disk, x.descriptor, x.coords[None])[0])
