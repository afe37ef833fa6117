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

The bound on a descendant is ||P_wv|| <= ||P_w|| max_{|v|=r} ||P_v||, and the
levels already expanded bound the second factor: by submultiplicativity,
max_{|v|=r} ||P_v|| <= max_{|v|=j} ||P_v|| * max_{|v|=r-j} ||P_v||, which
is far below ||g||^r, g the largest generator, once the products decay
(:class:`_Tail`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    RANK_TOL,
    ROUNDING,
    AlgebraElement,
    FiniteHull,
    GridFunctionAlgebra,
    MatrixAlgebra,
    bounded_set,
    multiply,
    norm_bounds,
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
    """(value * 2^exponent)^(1/length) without forming the scaled number,
    within a few ulps and exact at length 1: 2^whole (m 2^rest)^(1/length)
    for value = m 2^k, m in [1, 2), exponent + k = whole * length + rest."""
    if exponent == 0:
        return value ** (1.0 / length)
    k = math.frexp(value)[1] - 1
    whole, rest = divmod(exponent + k, length)
    return math.ldexp(math.ldexp(value, -k) ** (1.0 / length)
                      * 2.0 ** (rest / length), whole)


class _Tail:
    """log2 of bounds T_r on the computed norm of a product extended by any
    r more generators, relative to the norm of the product it extends.

    T_r starts at (g (1 + m))^r, g the largest generator norm and m =
    ``ROUNDING``.  Each completed level j, whose largest computed norm is
    M_j, tightens it by submultiplicativity to at most
    (M_j (1 + m) + 2 j m g^j) T_{r-j}: M_j + (j - 1) gamma_d g^j bounds every
    exact length-j product, and the j factors computed onto a product add at
    most j gamma_d g^j times its norm.  A level is folded only when the
    search goes on past it, so its maximum rate exceeds the lower bound and
    thus the rate of every word of its length that pruning skipped: M_j is
    the maximum over every word.
    """

    def __init__(self, log2_gen_max, depth):
        self.log2_gen_max = log2_gen_max
        self.depth = depth
        step = log2_gen_max + math.log2(1.0 + ROUNDING)
        # r < depth: a word of length >= 1 has at most depth - 1 more
        # factors; log2 T_0 = 0 even where every generator is zero (no
        # 0 * -inf)
        self.logs = [0.0] + [r * step for r in range(1, depth)]

    def fold(self, level, level_max):
        """Tighten by the completed ``level``, whose largest norm rate is
        ``level_max`` > 0, every T_r a later level reads (r < depth - level):
        O(depth), as T_{r-level} is already tightened where it is read."""
        if 2 * level >= self.depth:  # no T_r read later has r >= level
            return
        excess = level * (math.log2(level_max) - self.log2_gen_max)
        factor = level * self.log2_gen_max + math.log2(
            2.0 ** excess * (1.0 + ROUNDING) + 2 * level * ROUNDING)
        logs = self.logs
        for r in range(level, self.depth - level):
            logs[r] = min(logs[r], factor + logs[r - level])

    def lines(self, level):
        """``(log2 T_r, level + r)`` of the lines b -> (b + log2 T_r) /
        (level + r), r = 1 .. depth - level, that form their upper envelope:
        the maximum over every r is the maximum over these few."""
        hull = []
        for n in range(self.depth, level, -1):  # slopes 1/n ascending
            line = (self.logs[n - level], n)
            if line[0] == -math.inf:  # every generator is zero
                continue
            while len(hull) > 1 and (_crossing(hull[-2], hull[-1])
                                     >= _crossing(hull[-1], line)):
                hull.pop()
            hull.append(line)
        return hull


def _crossing(a, b):
    """The b at which the lines of :meth:`_Tail.lines` ``a`` and ``b`` meet."""
    (ta, na), (tb, nb) = a, b
    return (tb * na - ta * nb) / (nb - na)


def _optimistic_rate(child_norm, exponent, lines):
    """Best norm rate any descendant of this word could reach within depth;
    the word's own rate is not included.

    A word of computed norm N = ``child_norm`` * 2^``exponent`` has
    descendants r >= 1 factors longer whose computed norms are at most
    N T_r (:class:`_Tail`), so its bound is the largest of the ``lines`` of
    its level at b = log2 N, and 0 at the last level, which has none.
    """
    if child_norm == 0.0:
        return 0.0
    base = math.log2(child_norm) + exponent
    return math.pow(2.0, max([(base + t) / n for t, n in lines],
                             default=-math.inf))


def _inert(bounds, exponents, level, lines, lower, slack):
    """``(bound rates, inert)`` of children whose norms and eigenvalue moduli
    are at most ``bounds``, scaled by 2^``exponents``.

    A child is inert when its bound shows, against the ``lower`` bound its
    chunk starts with, that the search prunes it and gives it no eigenvalues:
    its norm rate and its descendants' (the envelope ``lines`` of its level)
    are at most ``lower - slack``, and its norm rate times
    (1 + ``ROUNDING``) at most ``lower``.  Only its norm rate, through the
    level maximum, can still count.  Such a bound is finite, so the child's
    norm is 0 or within [2^-250, 2^256] and needs no rescaling.  The bounds'
    margin dwarfs the rounding of numpy's ``log2`` and ``exp2``.
    """
    with np.errstate(divide="ignore", over="ignore"):
        base = np.log2(bounds) + exponents
        rates = np.exp2(base / level)
        reach = np.exp2(functools.reduce(
            np.maximum, [(base + t) / n for t, n in lines], base / level))
    return rates, ((reach <= lower - slack)
                   & (rates * (1.0 + ROUNDING) <= lower))


def jsr_estimate(s, depth, gap_target=1e-3):
    """Certified interval for the spectral radius of a bounded set.

    Each level is expanded in chunks of about ``_CHUNK`` children: one
    product, one SVD and one ``eigvals`` call per chunk give every child the
    bits it gets alone.  From level 2 on, :func:`norm_bounds` first bounds
    every child, and the :func:`_inert` ones, which the search would prune
    without eigenvalues, get neither call.  The ``eigvals`` call takes only
    the children whose norm rate could raise the lower bound the chunk starts
    with; the others count as rho = 0, which leaves the lower bound where
    their rho would.  A scalar pass then visits the chunk's other children in
    lexicographic order of their words and updates the lower bound child by
    child, so pruning, witnesses and ties do not depend on the chunking.  Both
    :func:`_inert` and the scalar pass bound a child's descendants by the
    levels expanded before its own (:class:`_Tail`).  Last, the inert
    children whose bound rate exceeds the level maximum so far get their
    norms, so the upper bound is the one every norm gives.  A norm that
    overflows ends the search with the levels before its own.
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
    tail = _Tail(log2_gen_max, depth)

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
        lines = tail.lines(level)
        for first in range(0, len(words), step):
            # the children's exponents, before any rescaling of their own
            inherited = [e for e in exponents[first:first + step]
                         for _ in range(k)]
            if rows is None:
                coords, active = gens.copy(), np.arange(k)
                child_norms = gen_norms.tolist()
            else:
                coords = products(desc, rows[first:first + step, None], gens)
                coords = coords.reshape(-1, gens.shape[1])
                bound_rates, inert = _inert(
                    norm_bounds(desc, coords), np.array(inherited),
                    level, lines, lower, slack)
                active = np.flatnonzero(~inert)
                child_norms = norms(desc, coords[active]).tolist()
            child_exponents = [inherited[j] for j in active]
            for i, (j, child_norm) in enumerate(zip(active, child_norms)):
                if (child_norm != 0.0 and math.isfinite(child_norm)
                        and not _RESCALE_LO <= child_norm <= _RESCALE_HI):
                    shift = int(math.floor(math.log2(child_norm)))
                    coords[j] = math.ldexp(1.0, -shift) * coords[j]
                    child_exponents[i] += shift
                    child_norms[i] = float(norms(desc, coords[j:j + 1])[0])
            rates = [_rate(n, e, level)
                     for n, e in zip(child_norms, child_exponents)]
            # computed rho <= rate (1 + ROUNDING): no other can raise lower
            live = np.isfinite(child_norms) & (
                np.array(rates) * (1.0 + ROUNDING) > lower)
            rhos = np.zeros(len(active))
            rhos[live] = spectral_radii(desc, coords[active[live]])
            keep = []
            for j, child_norm, exponent, rate, rho in zip(
                    active.tolist(), child_norms, child_exponents, rates,
                    rhos.tolist()):
                if not math.isfinite(child_norm):
                    overflowed = True
                    continue
                word = words[first + j // k] + (j % k,)
                level_max = max(level_max, rate)
                rrate = _rate(rho, exponent, level)
                if rrate > lower:
                    lower = rrate
                    witness = word
                if rate <= lower - slack and _optimistic_rate(
                        child_norm, exponent, lines) <= lower - slack:
                    continue
                keep.append(j)
                kept_words.append(word)
                kept_exponents.append(exponent)
            kept_rows.append(coords[keep])
            if rows is not None:
                # an inert child needs its norm only for the level maximum
                late = np.flatnonzero(inert & (bound_rates > level_max))
                if len(late):
                    level_max = max([level_max] + [
                        _rate(n, inherited[j], level) for n, j in zip(
                            norms(desc, coords[late]).tolist(), late)])
        if overflowed:
            break
        upper = min(upper, level_max)
        words, rows, exponents = kept_words, np.concatenate(kept_rows), kept_exponents
        if upper - lower <= gap_target or not words:
            break
        tail.fold(level, level_max)

    # a computed rho above a later level's norms would invert the interval
    _require_meet("jsr lower bound against its upper bound", (lower, lower),
                  (0.0, upper), upper, ROUNDING)
    status = CERTIFIED if upper - lower <= gap_target else DEPTH_LIMITED
    return RadiusEstimate(lower, upper, witness, level, status)


# ---------------------------------------------------------------------------
# identities of the spectral radius
# ---------------------------------------------------------------------------

# the relative slack within which the intervals of an identity check meet
_IDENTITY_SLACK = 1e-9


def _require_meet(what, a, b, scale, rel=_IDENTITY_SLACK):
    """Raise InvariantViolation unless the intervals ``a`` and ``b`` meet
    within ``rel * max(1, scale)``, a non-finite scale read as 1.  A nan
    endpoint (0 * inf) bounds nothing."""
    slack = rel * max(1.0, scale if math.isfinite(scale) else 1.0)
    if a[0] > b[1] + slack or b[0] > a[1] + slack:
        raise InvariantViolation(
            f"{what}: [{a[0]}, {a[1]}] misses [{b[0]}, {b[1]}]")


def _power(x, n):
    """x ** n for a float x >= 0, inf where it overflows."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


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
    kernel bug rather than a property of the input.  Where a product of n
    generators overflows, rho(S^n) gets the depth-limited interval [0, inf],
    which bounds nothing.
    """
    s = bounded_set(s)
    if n not in (2, 3):
        raise ValueError("power identity is checked for n in {2, 3}")
    base = jsr_estimate(s, depth, gap_target)
    scaled = jsr_estimate(s.scaled(c), depth, gap_target)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s_n = _expand_products(s, n)
    except ValueError:  # a product of n generators overflows
        powered = RadiusEstimate(0.0, math.inf, (), 0, DEPTH_LIMITED)
    else:
        powered = jsr_estimate(s_n, max(1, depth // n), gap_target)

    mag = abs(c)
    _require_meet("|c| rho(S) against rho(cS)",
                  (mag * base.lower, mag * base.upper),
                  (scaled.lower, scaled.upper), mag * base.upper)
    lower, upper = (_power(x, n) for x in (base.lower, base.upper))
    _require_meet(f"rho(S)^{n} against rho(S^{n})", (lower, upper),
                  (powered.lower, powered.upper), upper)
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
# the relative margin each hull screen keeps from its threshold: far above the
# LP solver's error, so a screened decision, or a skipped pair, is the LP's
_SCREEN_MARGIN = 1e-6


def _decomposition_bounds(cols, pinv, targets):
    """||z||_1 of the decomposition z = ``pinv @ targets`` over ``cols`` of
    each target column, or inf where ``cols @ z`` misses its target by more
    than half the span tolerance of :func:`_hull_gauge_lp`; ``cols`` and its
    pseudo-inverse ``pinv`` may be stacks.

    A decomposition that fits is a feasible point of the target's gauge LP,
    so its ||z||_1 bounds the gauge.  Where :func:`_spanned` also holds, the
    LP's own span test accepts the target too.
    """
    z = pinv @ targets
    tol = RANK_TOL * (1.0 + np.linalg.norm(targets, axis=0))
    fits = np.linalg.norm(cols @ z - targets, axis=-2) <= 0.5 * tol
    return np.where(fits, np.abs(z).sum(axis=-2), math.inf)


# the largest ||G||_F ||z||_1 / (1 + ||t||) of a fitting decomposition z that
# _spanned takes as proof that least squares finds t in the span of G
_SPAN_WITNESS = 1e4


def _spanned(cols, bound, target):
    """Whether a decomposition z of ``target`` over ``cols`` that fits, with
    ||z||_1 = ``bound`` (:func:`_decomposition_bounds`), shows that least
    squares, the span test of :func:`_hull_gauge_lp`, accepts ``target``.

    A fit leaves half the span tolerance to least squares, whose rounding
    grows like eps ||cols|| ||z||: on nearly dependent stacks it was seen to
    miss such targets from ||cols||_2 ||z||_1 / (1 + ||target||) = 9e5 on,
    so a fit counts only up to ``_SPAN_WITNESS``.  An infinite bound, no
    fit, shows nothing.
    """
    return bool(bound * np.linalg.norm(cols)
                <= _SPAN_WITNESS * (1.0 + np.linalg.norm(target)))


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

    Each screen keeps ``_SCREEN_MARGIN`` from the threshold, far above the LP
    solver's error, so a screened decision is the one the LP would make.
    """

    def __init__(self, columns):
        self.cols = np.stack(columns, axis=1)
        # pinv(cols) and rank(cols), computed when first needed
        self._pinv = self._rank = None
        # whether a decomposition of the last screened target is _spanned
        self.fits = False
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
        """True (inside) or False (outside) when a certificate decides, else
        None; :attr:`fits` says whether a decomposition of ``target`` shows it
        :func:`_spanned`."""
        self.fits = False
        if len(self.duals):
            lower = (self.duals @ target) / np.abs(self.duals @ self.cols).max(axis=1)
            if lower.max() > 1.0 + _SCREEN_MARGIN:
                return False
        bound = self.upper(target[:, None])[0]
        self.fits = _spanned(self.cols, bound, target)
        if bound <= 1.0 - _SCREEN_MARGIN:
            return True
        return None

    def gauge(self, target, spanned=False):
        """The hull gauge of ``target`` by LP, with no span test where
        ``spanned`` says a decomposition shows it :func:`_spanned`.  Records
        the LP's dual and its basis: the rank-many columns with the largest
        |lambda|."""
        value, lam, dual = _hull_gauge_lp(self.cols, target, spanned)
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
        return self.gauge(target, self.fits) <= 1.0 + _INSIDE_TOL

    def closure_max(self, prods):
        """max(1, the largest hull gauge of ``prods``, the (n, n, L) rows of
        the pairwise products of the n generators whose columns these are):
        the float an LP for every pair gives, with LPs only for the pairs
        whose :meth:`upper` bound could still set it; each new basis tightens
        the bounds.  A gauge <= 1 cannot change the clamped defect, so the
        maximum starts at 1; a product off the span keeps bound inf.
        """
        prods = _real_rows(prods.reshape(-1, prods.shape[-1])).T
        upper = self.upper(prods)
        best = 1.0
        while True:
            p = int(np.argmax(upper))
            if upper[p] < best - _SCREEN_MARGIN * (1.0 + best):
                return best
            spanned = _spanned(self.cols, upper[p], prods[:, p])
            upper[p] = -math.inf
            known = len(self.pinvs)
            value = self.gauge(prods[:, p], spanned)
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

    def grown(a, b, where):
        """``products(desc, a, b)``; an overflow is a numerical failure."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return products(desc, a, b)
        except ValueError:
            raise CapExceeded(f"hull product overflows {where}",
                              decay_profile) from None

    first_norms = norms(desc, gens).tolist()
    for n in first_norms:
        note(1, n)
    frontier = [row for row, n in zip(gens, first_norms) if n >= _DECAY_CUT]
    level = 1
    while frontier:
        level += 1
        new_frontier = []
        for p in frontier:
            children = grown(p, gens, f"at product length {level}")
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
    rows = hull.rows
    closure = stack.closure_max(grown(rows[:, None], rows, "in the closure"))
    return HullCertificate(hull, r, max(0.0, closure - 1.0))


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
                  max_upper)
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
                  (est_ab.lower, est_ab.upper), (0.0, bound), bound)
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
                          (0.0, 0.0), ref.upper, ROUNDING)
    return {"stages": stages}
