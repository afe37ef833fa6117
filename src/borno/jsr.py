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
    gauge,
    multiply,
    norm,
    norms,
    products,
    scale,
    spectral_radii,
    unvec,
    vec,
    _hull_gauge_lp,
    _real_coords,
)
from .errors import CapExceeded, InvariantViolation, NumericalFailure

CERTIFIED = "certified"
DEPTH_LIMITED = "depth-limited"

# products are renormalized by exact powers of two outside this norm range,
# with the exponent carried separately; power-of-two scaling is bit-exact
_RESCALE_HI = math.ldexp(1.0, 500)
_RESCALE_LO = math.ldexp(1.0, -500)

# children per batched product, SVD and eigvals call: nearly as fast as a
# whole level at once, without a whole level's temporaries in memory
_CHUNK = 256


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

    def as_dict(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "witness_word": list(self.witness_word),
            "depth": self.depth,
            "status": self.status,
        }


@dataclass(frozen=True)
class HullCertificate:
    hull: FiniteHull
    scale: float
    closure_defect: float


def _exp2(x):
    return math.pow(2.0, x)


def _rate(value, exponent, length):
    """(value * 2^exponent)^(1/length) without forming the scaled number."""
    if value == 0.0:
        return 0.0
    if exponent == 0:
        return value ** (1.0 / length)
    return _exp2((math.log2(value) + exponent) / length)


def _optimistic_rate(child_norm, exponent, length, log2_gen_max, depth):
    """Best norm rate any descendant of this word could reach within depth.

    The log2 rate bound (base + (n - length) * log2_gen_max) / n of a
    length-n descendant is monotone in n, so its maximum over
    length <= n <= depth lies at an end of that range.
    """
    if child_norm == 0.0:
        return 0.0
    base = math.log2(child_norm) + exponent
    if log2_gen_max == -math.inf:
        return _exp2(base / length)
    return _exp2(max(base / length,
                     (base + (depth - length) * log2_gen_max) / depth))


def jsr_estimate(s, depth, gap_target=1e-3):
    """Certified interval for the spectral radius of a bounded set.

    Each level is expanded in chunks of about ``_CHUNK`` children: one
    product, one SVD and one ``eigvals`` call per chunk give every child the
    bits it gets alone.  A scalar pass then visits the chunk's children in
    lexicographic order of their words and updates the lower bound child by
    child, so pruning, witnesses and ties do not depend on the chunking.
    """
    s = bounded_set(s)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not gap_target > 0:
        raise ValueError("gap target must be positive")
    desc = s.descriptor
    gens = np.stack([g.coords for g in s.generators])
    k = len(gens)
    gen_max = float(np.max(norms(desc, gens)))
    log2_gen_max = math.log2(gen_max) if gen_max > 0 else -math.inf
    slack = gap_target / 2.0
    step = max(1, _CHUNK // k)

    lower = 0.0
    upper = math.inf
    witness = ()
    explored = 0

    # the surviving words, their products' coordinate rows (none for the
    # empty word) and the power-of-two exponents the rows are scaled by
    words, rows, exponents = [()], None, [0]
    for level in range(1, depth + 1):
        explored = level
        kept_words, kept_rows, kept_exponents = [], [], []
        level_max = 0.0
        overflowed = False
        for first in range(0, len(words), step):
            if rows is None:
                coords = gens.copy()
            else:
                coords = products(desc, rows[first:first + step, None], gens)
                coords = coords.reshape(-1, gens.shape[1])
                if not np.isfinite(coords).all():
                    raise ValueError("non-finite entry in algebra element")
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
            return RadiusEstimate(lower, math.inf, witness, explored, DEPTH_LIMITED)
        upper = min(upper, level_max)
        words, rows, exponents = kept_words, np.concatenate(kept_rows), kept_exponents
        if upper - lower <= gap_target or not words:
            break

    status = CERTIFIED if upper - lower <= gap_target else DEPTH_LIMITED
    return RadiusEstimate(lower, upper, witness, explored, status)


# ---------------------------------------------------------------------------
# identities of the spectral radius
# ---------------------------------------------------------------------------

def _intervals_intersect(lo1, hi1, lo2, hi2, slack):
    return lo1 <= hi2 + slack and lo2 <= hi1 + slack


def _expand_products(s, n):
    """All length-n products of generators, expanded explicitly."""
    gens = list(s.generators)
    current = gens
    for _ in range(n - 1):
        current = [multiply(p, g) for p in current for g in gens]
    return bounded_set(current)


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
    slack = 1e-9 * max(1.0, mag * base.upper if math.isfinite(base.upper) else 1.0)
    if not _intervals_intersect(mag * base.lower, mag * base.upper,
                                scaled.lower, scaled.upper, slack):
        raise InvariantViolation(
            f"rho(cS) interval [{scaled.lower}, {scaled.upper}] misses "
            f"|c|*rho(S) interval [{mag * base.lower}, {mag * base.upper}]"
        )
    pow_slack = 1e-9 * max(1.0, base.upper ** n if math.isfinite(base.upper) else 1.0)
    if not _intervals_intersect(base.lower ** n, base.upper ** n,
                                powered.lower, powered.upper, pow_slack):
        raise InvariantViolation(
            f"rho(S^{n}) interval [{powered.lower}, {powered.upper}] misses "
            f"rho(S)^{n} interval [{base.lower ** n}, {base.upper ** n}]"
        )
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


def _closure_max(generators):
    """max(1, the largest hull gauge of a pairwise product of the generators).

    The same float as ``max(1, max gauge(hull, a * b))`` over all pairs, but an
    LP is solved only for the pairs that could still set the maximum.  Each
    solved LP's primal names a basis B of generators (the rank-many with the
    largest |lambda|).  Where B reproduces a product x, its coefficients z are
    a feasible decomposition of x, so ||z||_1 bounds the gauge of x.  Pairs
    whose bound falls below the running maximum are never solved; a gauge <= 1
    cannot change the clamped defect, so the maximum starts at 1.  Products
    off the generators' span keep an infinite bound and get their LP, which
    reports inf.
    """
    cols = np.stack([_real_coords(g) for g in generators], axis=1)
    targets = [_real_coords(multiply(a, b)) for a in generators for b in generators]
    prods = np.stack(targets, axis=1)
    tol = RANK_TOL * (1.0 + np.linalg.norm(prods, axis=0))
    rank = np.linalg.lstsq(cols, prods, rcond=None)[2]
    upper = np.full(len(targets), math.inf)
    best = 1.0
    while True:
        p = int(np.argmax(upper))
        if upper[p] < best - _BOUND_MARGIN * (1.0 + best):
            return best
        upper[p] = -math.inf
        value, lam = _hull_gauge_lp(cols, targets[p])
        if value == math.inf:
            return value
        if np.linalg.norm(cols @ lam - targets[p]) > tol[p]:
            raise NumericalFailure(
                f"closure LP primal misses its product by more than {tol[p]:.1e}"
            )
        best = max(best, value)
        basis = cols[:, np.argsort(-np.abs(lam), kind="stable")[:rank]]
        coeffs = np.linalg.lstsq(basis, prods, rcond=None)[0]
        # half the span tolerance: a product B fits is one the LP's own span
        # test also accepts, so no skipped pair could have read inf
        fits = np.linalg.norm(basis @ coeffs - prods, axis=0) <= 0.5 * tol
        np.minimum(upper, np.where(fits, np.abs(coeffs).sum(axis=0), math.inf),
                   out=upper)


def submultiplicative_hull(s, r, max_products=512):
    """Finite disked hull T with S <= r*T and T*T inside (1+defect)*T.

    Expands products of (1/r) S level by level.  A product already inside the
    hull built so far adds nothing and is dropped; products decayed below the
    norm cut are kept as terminal generators but not extended.  The returned
    closure defect is measured directly on all pairwise products of the final
    generators, so the certificate does not depend on the expansion strategy.
    """
    s = bounded_set(s)
    if not r > 0:
        raise ValueError("scale r must be positive")
    scaled_gens = [scale(1.0 / r, g) for g in s.generators]
    generators = []
    frontier = []
    decay_profile = {}

    def note(level, value):
        decay_profile[level] = max(decay_profile.get(level, 0.0), value)

    for g in scaled_gens:
        n = norm(g)
        note(1, n)
        generators.append(g)
        if n >= _DECAY_CUT:
            frontier.append(g)
    level = 1
    while frontier:
        level += 1
        new_frontier = []
        for p in frontier:
            for g in scaled_gens:
                q = multiply(p, g)
                nq = norm(q)
                note(level, nq)
                if nq < _DECAY_CUT:
                    generators.append(q)
                    continue
                if gauge(FiniteHull(tuple(generators)), q) <= 1.0 + _INSIDE_TOL:
                    continue
                generators.append(q)
                new_frontier.append(q)
                if len(generators) > max_products:
                    raise CapExceeded(
                        f"hull cap {max_products} reached at product length {level}",
                        decay_profile,
                    )
        frontier = new_frontier

    hull = FiniteHull(tuple(generators))
    defect = max(0.0, _closure_max(generators) - 1.0)
    containment = max(gauge(hull, g) for g in scaled_gens)
    if containment > 1.0 + _INSIDE_TOL:
        raise InvariantViolation("hull does not absorb (1/r) S")
    return HullCertificate(hull, r, defect)


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
    fibers = [vec(g).reshape(len(desc.grid.points), -1) for g in s.generators]
    profile = []
    for i in range(len(desc.grid.points)):
        fiber_set = bounded_set([unvec(desc.fiber, f[i]) for f in fibers])
        profile.append(jsr_estimate(fiber_set, depth, gap_target))
    global_est = jsr_estimate(s, depth, gap_target)
    max_lower = max(p.lower for p in profile)
    max_upper = max(p.upper for p in profile)
    slack = 1e-9 * max(1.0, max_upper if math.isfinite(max_upper) else 1.0)
    if not _intervals_intersect(global_est.lower, global_est.upper,
                                max_lower, max_upper, slack):
        raise InvariantViolation(
            f"global interval [{global_est.lower}, {global_est.upper}] misses "
            f"fiber max interval [{max_lower}, {max_upper}]"
        )
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
    slack = 1e-9 * max(1.0, bound if math.isfinite(bound) else 1.0)
    if est_ab.lower > bound + slack:
        raise InvariantViolation(
            f"Kronecker lower bound {est_ab.lower} exceeds "
            f"rho(S_A) rho(S_B) bound {bound}"
        )
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


def direct_union_liminf(chain, depth, gap_target=1e-3, slack=1e-8):
    """Stagewise estimates across nested corner embeddings must agree.

    ``chain`` is an ordered list of BoundedSets realizing the same set inside
    nested matrix algebras (each element a padded copy).  After the support
    stabilizes, padding changes neither norms nor eigenvalues, so all stages
    produce the same interval up to solver noise.
    """
    stages = [jsr_estimate(s, depth, gap_target) for s in chain]
    reference = stages[0]
    scale_ref = max(1.0, reference.upper if math.isfinite(reference.upper) else 1.0)
    for est in stages[1:]:
        if (abs(est.lower - reference.lower) > slack * scale_ref
                or abs(est.upper - reference.upper) > slack * scale_ref):
            raise InvariantViolation(
                "direct-union stages disagree: "
                f"[{reference.lower}, {reference.upper}] vs [{est.lower}, {est.upper}]"
            )
    return {"stages": stages}
