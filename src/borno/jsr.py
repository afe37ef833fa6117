"""Certified interval computation of the spectral radius of a bounded set.

For a finite set of matrices this is the joint spectral radius.  The interval
bracket rests on two classical facts, both consequences of submultiplicativity
and the power identity rho(S^n) = rho(S)^n:

* every word product P_w gives the lower bound rho(P_w)^(1/|w|);
* every fully expanded level l gives the upper bound max_{|w|=l} ||P_w||^(1/l).

The search is a level-synchronous expansion with *safe* pruning: a word is
dropped only when an optimistic bound on every descendant it could still
produce (within the depth budget) falls below the current lower bound by at
least the pruning slack.  Safe pruning provably changes neither the per-level
maxima nor the best lower bound, so the returned interval is identical to the
one exhaustive enumeration would produce, while skipping decayed subtrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    RANK_TOL,
    AlgebraElement,
    FiniteHull,
    GridFunctionAlgebra,
    MatrixAlgebra,
    bounded_set,
    multiply,
    norms,
    products,
    spectral_radii,
    unvec,
    _hull_gauge_lp,
    _real_rows,
)
from .errors import CapExceeded, InvariantViolation

# no code here multiplies elements one at a time; the name stays bound because
# perfbench/test_perfbench.py checks that its tracer rewraps this binding
multiply = multiply

CERTIFIED = "certified"
DEPTH_LIMITED = "depth-limited"

# products are renormalized by exact powers of two outside this norm range,
# with the exponent carried separately; power-of-two scaling is bit-exact
_RESCALE_HI = math.ldexp(1.0, 500)
_RESCALE_LO = math.ldexp(1.0, -500)

# children per batched product, SVD and eigvals call: nearly as fast as a
# whole level at once, without a whole level's temporaries in memory
_CHUNK = 256

# relative slack within which the stages of a direct union must agree
_UNION_SLACK = 1e-8


@dataclass(frozen=True)
class RadiusEstimate:
    lower: float
    upper: float
    witness_word: tuple
    depth: int
    status: str

    @property
    def gap(self):
        return self.upper - self.lower


@dataclass(frozen=True)
class HullCertificate:
    hull: FiniteHull
    scale: float
    closure_defect: float


def _rate(value, exponent, length):
    """(value * 2^exponent)^(1/length) without forming the scaled number;
    exact at length 1."""
    if value == 0.0:
        return 0.0
    if length == 1:
        return math.ldexp(value, exponent)
    if exponent == 0:
        return value ** (1.0 / length)
    return math.pow(2.0, (math.log2(value) + exponent) / length)


def _optimistic_rate(child_norm, exponent, length, log2_gen_max, depth):
    """Best norm rate any descendant of this word could reach within depth.

    The log2 rate bound (base + (n - length) * log2_gen_max) / n of a
    length-n descendant is monotone in n, so its maximum over
    length <= n <= depth lies at an end of that range.
    """
    if child_norm == 0.0:
        return 0.0
    base = math.log2(child_norm) + exponent
    return math.pow(2.0, max(base / length,
                             (base + (depth - length) * log2_gen_max) / depth))


def jsr_estimate(s, depth, gap_target=1e-3):
    """Certified interval for the spectral radius of a bounded set.

    Each level is expanded in chunks of about ``_CHUNK`` children: one
    product, one SVD and one ``eigvals`` call per chunk give every child the
    bits it gets alone.  A scalar pass then visits the chunk's children in
    lexicographic order of their words and updates the lower bound child by
    child, so pruning, witnesses and ties do not depend on the chunking.  A
    norm that overflows ends the search with the levels before its own.
    """
    s = bounded_set(s)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not gap_target > 0:
        raise ValueError("gap target must be positive")
    desc = s.descriptor
    gens = s.rows
    k = len(gens)
    gen_norms = norms(desc, gens)
    gen_max = float(np.max(gen_norms))
    log2_gen_max = math.log2(gen_max) if gen_max > 0 else -math.inf
    slack = gap_target / 2.0
    step = max(1, _CHUNK // k)

    lower = 0.0
    upper = math.inf
    witness = ()

    # the surviving words, their products' coordinate rows (none for the
    # empty word) and the power-of-two exponents the rows are scaled by
    words, rows, exponents = [()], None, [0]
    for level in range(1, depth + 1):
        kept_words, kept_rows, kept_exponents = [], [], []
        level_max = 0.0
        overflowed = False
        for first in range(0, len(words), step):
            if rows is None:
                coords, child_norms = gens.copy(), gen_norms.tolist()
            else:
                coords = products(desc, rows[first:first + step, None], gens)
                coords = coords.reshape(-1, gens.shape[1])
                child_norms = norms(desc, coords).tolist()
            child_exponents = [e for e in exponents[first:first + step]
                               for _ in range(k)]
            for j, child_norm in enumerate(child_norms):
                if (child_norm != 0.0 and math.isfinite(child_norm)
                        and not _RESCALE_LO <= child_norm <= _RESCALE_HI):
                    shift = int(math.floor(math.log2(child_norm)))
                    coords[j] = math.ldexp(1.0, -shift) * coords[j]
                    child_exponents[j] += shift
                    child_norms[j] = float(norms(desc, coords[j:j + 1])[0])
            finite = np.isfinite(child_norms)
            rhos = np.zeros(len(coords))
            rhos[finite] = spectral_radii(desc, coords[finite])
            keep = []
            for j, (child_norm, exponent, rho) in enumerate(
                    zip(child_norms, child_exponents, rhos.tolist())):
                if not math.isfinite(child_norm):
                    overflowed = True
                    continue
                word = words[first + j // k] + (j % k,)
                level_max = max(level_max, _rate(child_norm, exponent, level))
                rrate = _rate(rho, exponent, level)
                if rrate > lower:
                    lower = rrate
                    witness = word
                opt = _optimistic_rate(child_norm, exponent, level,
                                       log2_gen_max, depth)
                if opt <= lower - slack:
                    continue
                keep.append(j)
                kept_words.append(word)
                kept_exponents.append(exponent)
            kept_rows.append(coords[keep])
        if overflowed:
            break
        upper = min(upper, level_max)
        words, rows, exponents = kept_words, np.concatenate(kept_rows), kept_exponents
        if upper - lower <= gap_target or not words:
            break

    status = CERTIFIED if upper - lower <= gap_target else DEPTH_LIMITED
    return RadiusEstimate(lower, upper, witness, level, status)


# ---------------------------------------------------------------------------
# identities of the spectral radius
# ---------------------------------------------------------------------------

def _require_meet(what, a, b, rel, scale):
    """Raise InvariantViolation unless the intervals ``a`` and ``b`` meet
    within ``rel * max(1, scale)``, a non-finite scale read as 1.  A nan
    endpoint (0 * inf) bounds nothing."""
    slack = rel * max(1.0, scale if math.isfinite(scale) else 1.0)
    if a[0] > b[1] + slack or b[0] > a[1] + slack:
        raise InvariantViolation(
            f"{what}: [{a[0]}, {a[1]}] misses [{b[0]}, {b[1]}]")


def _expand_products(s, n):
    """All length-n products of generators, in lexicographic word order:
    one row-kernel call per level."""
    desc, gens = s.descriptor, s.rows
    rows = gens
    for _ in range(n - 1):
        rows = products(desc, rows[:, None], gens).reshape(-1, gens.shape[1])
    return bounded_set(unvec(desc, row) for row in rows)


def check_specrad_identities(s, c, n, depth, gap_target=1e-6):
    """Interval consistency of rho(cS) = |c| rho(S) and rho(S^n) = rho(S)^n.

    Raises InvariantViolation on any inconsistency, which would indicate a
    kernel bug rather than a property of the input.
    """
    s = bounded_set(s)
    if n not in (2, 3):
        raise ValueError("power identity is checked for n in {2, 3}")
    base = jsr_estimate(s, depth, gap_target)
    scaled = jsr_estimate(s.scaled(c), depth, gap_target)
    power_depth = max(1, depth // n)
    powered = jsr_estimate(_expand_products(s, n), power_depth, gap_target)

    mag = abs(c)
    _require_meet("|c| rho(S) against rho(cS)",
                  (mag * base.lower, mag * base.upper),
                  (scaled.lower, scaled.upper), 1e-9, mag * base.upper)
    lower, upper = base.lower ** n, base.upper ** n
    _require_meet(f"rho(S)^{n} against rho(S^{n})", (lower, upper),
                  (powered.lower, powered.upper), 1e-9, upper)
    return {
        "base": base,
        "scaled": scaled,
        "powered": powered,
        "scalar": c,
        "power": n,
    }


# ---------------------------------------------------------------------------
# submultiplicative hulls
# ---------------------------------------------------------------------------

_DECAY_CUT = 1e-12
_INSIDE_TOL = 1e-12
# an unsolved pair is skipped once its bound is this far (relative) below the
# running maximum: far above the LP solver's error, so the skip is safe
_BOUND_MARGIN = 1e-6


def _decomposition_bounds(cols, pinv, targets):
    """||z||_1 of the decomposition z = ``pinv @ targets`` over ``cols`` of
    each target column, or inf where ``cols @ z`` misses its target by more
    than half the span tolerance of :func:`_hull_gauge_lp`; ``cols`` and its
    pseudo-inverse ``pinv`` may be stacks.

    A decomposition that fits is a feasible point of the target's gauge LP,
    so its ||z||_1 bounds the gauge; half the tolerance keeps the targets it
    accepts ones that the LP's own span test also accepts.
    """
    z = pinv @ targets
    tol = RANK_TOL * (1.0 + np.linalg.norm(targets, axis=0))
    fits = np.linalg.norm(cols @ z - targets, axis=-2) <= 0.5 * tol
    return np.where(fits, np.abs(z).sum(axis=-2), math.inf)


class _HullStack:
    """A hull's real coordinates as one growing column stack G, with the
    certificates of the membership LPs solved on it.

    :meth:`inside` decides gauge(t) <= 1 + ``_INSIDE_TOL`` and solves an LP
    only when no known certificate decides it:

    * outside: a solved LP's dual y, renormalised by max |G^T y| over the
      current columns, is dual feasible, so y.t / max |G^T y| bounds the
      gauge of t from below;
    * inside: a decomposition G z = t bounds it by ||z||_1 from above
      (:meth:`upper`).

    Each screen keeps ``_BOUND_MARGIN`` from the threshold, far above the LP
    solver's error, so a screened decision is the one the LP would make.
    """

    def __init__(self, columns):
        self.cols = np.stack(columns, axis=1)
        # pinv(cols) and rank(cols), computed when first needed
        self._pinv = self._rank = None
        dim = self.cols.shape[0]
        self.duals = np.empty((0, dim))
        # each distinct basis of the solved LPs, in solving order: its columns
        # zero-padded to dim x dim, and their pseudo-inverse
        self.pinvs = np.empty((0, dim, dim))
        self.basis_cols = np.empty((0, dim, dim))

    def append(self, column):
        self.cols = np.concatenate([self.cols, column[:, None]], axis=1)
        self._pinv = self._rank = None

    def upper(self, targets):
        """Per target column, the least ||z||_1 of a decomposition z that
        reproduces it over all columns or over one recorded basis."""
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.cols)
        bound = _decomposition_bounds(self.cols, self._pinv, targets)
        # bases in batches of about _CHUNK targets' worth, as in the search
        step = max(1, _CHUNK // targets.shape[1])
        for b in range(0, len(self.pinvs), step):
            np.minimum(bound, _decomposition_bounds(
                self.basis_cols[b:b + step], self.pinvs[b:b + step], targets
            ).min(axis=0), out=bound)
        return bound

    def screen(self, target):
        """True (inside) or False (outside) when a certificate decides, else None."""
        if len(self.duals):
            lower = (self.duals @ target) / np.abs(self.duals @ self.cols).max(axis=1)
            if lower.max() > 1.0 + _BOUND_MARGIN:
                return False
        if self.upper(target[:, None])[0] <= 1.0 - _BOUND_MARGIN:
            return True
        return None

    def gauge(self, target):
        """The hull gauge of ``target`` by LP.  Records the LP's dual and its
        basis: the rank-many columns with the largest |lambda|."""
        value, lam, dual = _hull_gauge_lp(self.cols, target)
        if lam is None:
            return value
        if self._rank is None:
            self._rank = np.linalg.matrix_rank(self.cols)
        basis = np.argsort(-np.abs(lam), kind="stable")[:self._rank]
        cols = np.zeros((1,) + self.pinvs.shape[1:])
        cols[0, :, :len(basis)] = self.cols[:, basis]
        if not (self.basis_cols == cols).all(axis=(1, 2)).any():
            self.pinvs = np.concatenate([self.pinvs, np.linalg.pinv(cols)])
            self.basis_cols = np.concatenate([self.basis_cols, cols])
        # the dual of a zero target may be zero, and bounds nothing
        if np.abs(self.cols.T @ dual).max() > 0:
            self.duals = np.concatenate([self.duals, dual[None]])
        return value

    def inside(self, target):
        decided = self.screen(target)
        if decided is not None:
            return decided
        return self.gauge(target) <= 1.0 + _INSIDE_TOL

    def closure_max(self, hull):
        """max(1, the largest hull gauge of a pairwise product of the generators
        of ``hull``, whose columns these are): the float an LP for every pair
        gives, with LPs only for the pairs whose :meth:`upper` bound could
        still set it; each new basis tightens the bounds.  A gauge <= 1 cannot
        change the clamped defect, so the maximum starts at 1; a product off
        the span keeps bound inf.
        """
        rows = hull.rows
        prods = products(hull.descriptor, rows[:, None], rows)
        prods = _real_rows(prods.reshape(len(rows) ** 2, -1)).T
        upper = self.upper(prods)
        best = 1.0
        while True:
            p = int(np.argmax(upper))
            if upper[p] < best - _BOUND_MARGIN * (1.0 + best):
                return best
            upper[p] = -math.inf
            known = len(self.pinvs)
            value = self.gauge(prods[:, p])
            if value == math.inf:
                return value
            best = max(best, value)
            if len(self.pinvs) > known:
                np.minimum(upper, _decomposition_bounds(
                    self.basis_cols[-1], self.pinvs[-1], prods), out=upper)


def submultiplicative_hull(s, r, max_products=512):
    """Finite disked hull T with S <= r*T and T*T inside (1+defect)*T.

    Expands products of (1/r) S level by level.  A product already inside the
    hull built so far adds nothing and is dropped; products decayed below the
    norm cut are kept as terminal generators but not extended.  Membership is
    screened with the certificates of the LPs solved so far (:class:`_HullStack`)
    before an LP is solved, and the closure reuses them.  The closure defect
    is measured on all pairwise products of the final generators, so the
    certificate does not depend on the expansion strategy.
    """
    s = bounded_set(s)
    if not r > 0:
        raise ValueError("scale r must be positive")
    desc = s.descriptor
    gens = (1.0 / r) * s.rows
    generators = [unvec(desc, row) for row in gens]  # rejects non-finite rows
    stack = _HullStack(list(_real_rows(gens)))
    decay_profile = {}

    def note(level, value):
        decay_profile[level] = max(decay_profile.get(level, 0.0), value)

    first_norms = norms(desc, gens).tolist()
    for n in first_norms:
        note(1, n)
    frontier = [row for row, n in zip(gens, first_norms) if n >= _DECAY_CUT]
    level = 1
    while frontier:
        level += 1
        new_frontier = []
        for p in frontier:
            children = products(desc, p, gens)
            for q, nq in zip(children, norms(desc, children).tolist()):
                note(level, nq)
                x = _real_rows(q)
                if nq >= _DECAY_CUT and stack.inside(x):
                    continue
                generators.append(unvec(desc, q))
                stack.append(x)
                if nq < _DECAY_CUT:
                    continue
                new_frontier.append(q)
                if len(generators) > max_products:
                    raise CapExceeded(
                        f"hull cap {max_products} reached at product length {level}",
                        decay_profile,
                    )
        frontier = new_frontier

    # S <= r*T by construction: the scaled generators are T's first ones
    hull = FiniteHull(tuple(generators))
    return HullCertificate(hull, r, max(0.0, stack.closure_max(hull) - 1.0))


# ---------------------------------------------------------------------------
# pointwise-max formula on grid-function algebras
# ---------------------------------------------------------------------------

def jsr_grid_max(s, depth, gap_target=1e-3):
    """Fiberwise profile plus global estimate for a grid-function set.

    The global interval must intersect [max lower, max upper] of the profile;
    this is the pointwise-max formula for spectral radii of function sets.
    """
    s = bounded_set(s)
    desc = s.descriptor
    if not isinstance(desc, GridFunctionAlgebra):
        raise TypeError("jsr_grid_max requires a grid-function algebra")
    fibers = s.rows.reshape(len(s.generators), len(desc.grid.points), -1)
    profile = []
    for i in range(len(desc.grid.points)):
        fiber_set = bounded_set([unvec(desc.fiber, f) for f in fibers[:, i]])
        profile.append(jsr_estimate(fiber_set, depth, gap_target))
    global_est = jsr_estimate(s, depth, gap_target)
    max_lower = max(p.lower for p in profile)
    max_upper = max(p.upper for p in profile)
    _require_meet("global interval against fiber max interval",
                  (global_est.lower, global_est.upper), (max_lower, max_upper),
                  1e-9, max_upper)
    return {"global": global_est, "profile": profile}


# ---------------------------------------------------------------------------
# Kronecker bound and direct unions
# ---------------------------------------------------------------------------

def kronecker_bound_check(s_a, s_b, depth, gap_target=1e-3):
    """rho of the set of Kronecker products obeys rho(A (x) B) <= rho(A) rho(B)."""
    s_a = bounded_set(s_a)
    s_b = bounded_set(s_b)
    da, db = s_a.descriptor, s_b.descriptor
    if not (isinstance(da, MatrixAlgebra) and isinstance(db, MatrixAlgebra)):
        raise TypeError("kronecker_bound_check requires matrix algebras")
    desc = MatrixAlgebra(da.dim * db.dim, da.norm_kind)
    prods = [AlgebraElement(desc, np.kron(a.data, b.data))
             for a in s_a.generators for b in s_b.generators]
    est_a = jsr_estimate(s_a, depth, gap_target)
    est_b = jsr_estimate(s_b, depth, gap_target)
    est_ab = jsr_estimate(bounded_set(prods), depth, gap_target)
    bound = est_a.upper * est_b.upper
    _require_meet("rho(S_A (x) S_B) against [0, rho(S_A) rho(S_B)]",
                  (est_ab.lower, est_ab.upper), (0.0, bound), 1e-9, bound)
    return {"left": est_a, "right": est_b, "product": est_ab, "bound": bound}


def pad_to(element, dim):
    """Embed a matrix element into the top-left corner of a larger algebra."""
    desc = element.descriptor
    if not isinstance(desc, MatrixAlgebra):
        raise TypeError("padding is defined for matrix algebras")
    if dim < desc.dim:
        raise ValueError("cannot pad into a smaller algebra")
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: desc.dim, : desc.dim] = element.data
    return AlgebraElement(MatrixAlgebra(dim, desc.norm_kind), out)


def direct_union_liminf(chain, depth, gap_target=1e-3):
    """Stagewise estimates across nested corner embeddings must agree.

    ``chain`` is an ordered list of BoundedSets realizing the same set inside
    nested matrix algebras (each element a padded copy).  After the support
    stabilizes, padding changes neither norms nor eigenvalues, so all stages
    produce the same interval up to solver noise.
    """
    stages = [jsr_estimate(s, depth, gap_target) for s in chain]
    ref = stages[0]
    for est in stages[1:]:
        # an end's difference against [0, 0] misses iff |difference| > slack
        for diff in (est.lower - ref.lower, est.upper - ref.upper):
            _require_meet(f"direct-union stages [{ref.lower}, {ref.upper}] and "
                          f"[{est.lower}, {est.upper}] differ", (diff, diff),
                          (0.0, 0.0), _UNION_SLACK, ref.upper)
    return {"stages": stages}
