"""Model bornological sequence spaces with exact decision procedures.

Elements are rational coordinate vectors: a finite sparse prefix plus
optional geometric coordinate tails a * s^k.  Sequences of elements are
eventually-geometric closed forms plus moving-window remainders, so that
partial-sum sequences are expressible.  Every check below (Cauchy,
convergence, completeness, completion equality) is an exact decision over
the rationals; a boundary case outside the decidable fragment raises
NotDecided instead of silently sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .closedforms import (
    INF,
    SUM,
    SUP,
    CoordForm,
    DiskForm,
    Envelope,
    EnvTerm,
    EpsForm,
    _frac,
    decay_start,
    first_true,
    geom_poly_sup,
    sum_shift_poly_geom,
)
from .errors import InvariantViolation, NotDecided, UnboundedMap

_SCAN_CAP = 512


# ---------------------------------------------------------------------------
# elements: sparse rational prefix + geometric coordinate tails
# ---------------------------------------------------------------------------

class SeqVector:
    """x_k = prefix[k] for k < tail_start, sum_i a_i s_i^k for k >= tail_start."""

    __slots__ = ("prefix", "tails", "tail_start")

    def __init__(self, prefix=None, tails=(), tail_start=0):
        pref = {}
        for k, v in (prefix or {}).items():
            v = _frac(v)
            if v != 0:
                if k < 0:
                    raise ValueError("coordinates are indexed by naturals")
                pref[int(k)] = v
        merged = {}
        for a, s in tails:
            a, s = _frac(a), _frac(s)
            if a == 0:
                continue
            if not 0 < abs(s) < 1:
                raise ValueError("tail ratios must satisfy 0 < |s| < 1")
            merged[s] = merged.get(s, Fraction(0)) + a
        tails = tuple(sorted(((a, s) for s, a in merged.items() if a != 0),
                             key=lambda t: (-abs(t[1]), t[1] < 0)))
        tail_start = int(tail_start)
        if tails and any(k >= tail_start for k in pref):
            raise ValueError("prefix coordinates must sit below the tail start")
        object.__setattr__(self, "prefix", pref)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "tail_start", tail_start if tails else
                           (max(pref) + 1 if pref else 0))

    def __setattr__(self, name, value):
        raise AttributeError("SeqVector is immutable")

    @staticmethod
    def zero():
        return SeqVector()

    @staticmethod
    def unit(k, value=1):
        return SeqVector({k: value})

    @staticmethod
    def from_coords(values):
        return SeqVector({k: v for k, v in enumerate(values)})

    @staticmethod
    def geometric(a, s, start=0):
        """x_k = a s^k for k >= start, zero below."""
        return SeqVector({}, ((a, s),), start)

    def value(self, k):
        if k in self.prefix:
            return self.prefix[k]
        if k >= self.tail_start:
            return sum((a * s**k for a, s in self.tails), Fraction(0))
        return Fraction(0)

    def _materialized(self, new_start):
        if new_start <= self.tail_start or not self.tails:
            return self
        pref = dict(self.prefix)
        for k in range(self.tail_start, new_start):
            v = self.value(k)
            if v != 0:
                pref[k] = v
        return SeqVector(pref, self.tails, new_start)

    def add(self, other):
        start = max(self.tail_start, other.tail_start)
        a = self._materialized(start)
        b = other._materialized(start)
        pref = dict(a.prefix)
        for k, v in b.prefix.items():
            pref[k] = pref.get(k, Fraction(0)) + v
        return SeqVector(pref, a.tails + b.tails, start)

    def scale(self, c):
        c = _frac(c)
        return SeqVector({k: c * v for k, v in self.prefix.items()},
                         tuple((c * a, s) for a, s in self.tails),
                         self.tail_start)

    def subtract(self, other):
        return self.add(other.scale(-1))

    def restrict_beyond(self, n):
        """The window remainder 1_{k > n} * x."""
        pref = {k: v for k, v in self.prefix.items() if k > n}
        start = max(self.tail_start, n + 1)
        return SeqVector(pref, self.tails, start)

    def shift_left(self):
        """(fx)_k = x_{k+1}."""
        pref = {k - 1: v for k, v in self.prefix.items() if k >= 1}
        tails = tuple((a * s, s) for a, s in self.tails)
        return SeqVector(pref, tails, max(self.tail_start - 1, 0))

    def diagonal(self, c, u):
        """x_k -> c u^k x_k for rational 0 < |u| <= 1."""
        c, u = _frac(c), _frac(u)
        if u == 0:
            raise ValueError("diagonal ratio must be nonzero")
        pref = {k: c * u**k * v for k, v in self.prefix.items()}
        tails = tuple((c * a, s * u) for a, s in self.tails)
        return SeqVector(pref, tails, self.tail_start)

    def coordinate_sum(self):
        total = sum(self.prefix.values(), Fraction(0))
        for a, s in self.tails:
            total += a * s**self.tail_start / (1 - s)
        return total

    @property
    def is_zero(self):
        return not self.prefix and not self.tails

    @property
    def finitely_supported(self):
        return not self.tails

    def __eq__(self, other):
        if not isinstance(other, SeqVector):
            return NotImplemented
        return self.subtract(other).is_zero

    def __hash__(self):
        # equal vectors have the same merged tails, and without tails the
        # same prefix; a tail start can move over materialized coordinates
        return hash(self.tails if self.tails
                    else tuple(sorted(self.prefix.items())))

    def __repr__(self):
        return (f"SeqVector({dict(sorted(self.prefix.items()))}, "
                f"tails={self.tails}, start={self.tail_start})")


# ---------------------------------------------------------------------------
# disks: weighted sup / weighted l1 gauges, exact on SeqVectors
# ---------------------------------------------------------------------------

def _tail_classes(tails, start):
    """Parity classes of the tail coordinates, with positive ratios.

    Yields (offset, stride, alphas): x_{offset + stride t} =
    sum_i alpha_i rho_i^t for t >= 0, with distinct rho_i in (0,1) sorted
    decreasing and all alpha_i nonzero; classes without terms are left out.
    """
    stride = 2 if any(s < 0 for _a, s in tails) else 1
    classes = []
    for r in range(stride):
        offset = start + r
        merged = {}
        for a, s in tails:
            rho = s * s if stride == 2 else s
            alpha = a * s**offset
            merged[rho] = merged.get(rho, Fraction(0)) + alpha
        alphas = sorted(((rho, alpha) for rho, alpha in merged.items()
                         if alpha != 0), key=lambda t: -t[0])
        if alphas:
            classes.append((offset, stride, alphas))
    return classes


def _sign_stable_index(alphas):
    """First t from which sum_i alpha_i rho_i^t has the dominant term's sign."""
    rho_d, alpha_d = alphas[0]
    rest = alphas[1:]
    sign = 1 if alpha_d > 0 else -1
    if not rest:
        return 0, sign
    # the other ratios are below rho_d, so once the dominant term outweighs
    # the rest it keeps doing so
    t = first_true(lambda t: sum(abs(a) * r**t for r, a in rest)
                   < abs(alpha_d) * rho_d**t, 0, 8 * _SCAN_CAP)
    if t is None:
        raise NotDecided("sign stabilization scan exceeded its cap")
    return t, sign


def gauge_value(disk, x):
    """Exact gauge of a SeqVector; a Fraction, or math.inf."""
    w = disk.weight
    # the tail coefficients over the scale put the tail terms in the gauge's
    # units, those of the prefix's of_vector
    classes = _tail_classes(tuple((a / disk.scale, s) for a, s in x.tails),
                            x.tail_start)
    if disk.kind == SUM:
        total = disk.of_vector(x.prefix)
        for offset, stride, alphas in classes:
            if w.ratio**stride * alphas[0][0] >= 1:
                return INF
            t_star, sign = _sign_stable_index(alphas)
            for t in range(t_star):
                k = offset + stride * t
                val = sum(a * r**t for r, a in alphas)
                total += w.value(k) * abs(val)
            for rho, alpha in alphas:
                y_i = w.ratio**stride * rho
                total += (sign * alpha * w.coeff * w.ratio**offset
                          * sum_shift_poly_geom(w.power, offset + 1, y_i,
                                                t_star, stride))
        return total

    best = disk.of_vector(x.prefix)
    for offset, stride, alphas in classes:
        rho_d, alpha_d = alphas[0]
        y_d = w.ratio**stride * rho_d
        if y_d > 1 or (y_d == 1 and w.power > 0):
            return INF
        t_star, _sign = _sign_stable_index(alphas)
        limit = (w.coeff * w.ratio**offset * abs(alpha_d)) if y_d == 1 else Fraction(0)
        t = 0
        while True:
            k = offset + stride * t
            val = sum(a * r**t for r, a in alphas)
            best = max(best, w.value(k) * abs(val))
            t += 1
            if t >= t_star:
                # per-ratio sups (finite: y_i <= y_d) bound the remainder;
                # (k+1)^p <= ((offset+stride)(t+1))^p at k = offset+stride*t
                remainder = sum((geom_poly_sup(
                    abs(alpha) * w.coeff * w.ratio**offset
                    * Fraction(offset + stride) ** w.power,
                    w.ratio**stride * rho, w.power, t) for rho, alpha in alphas),
                    Fraction(0))
                if remainder <= max(best, limit):
                    break
            if t > 16 * _SCAN_CAP:
                raise NotDecided(
                    "sup gauge with interfering non-decaying tails is outside "
                    "the exact fragment")
        best = max(best, limit)
    return best


def window_gauge_envelope(u, disk):
    """(Envelope E, valid_from) with gauge(u restricted beyond n) <= E(n)
    for all n >= valid_from; uses the per-tail triangle bound."""
    w = disk.weight
    valid_from = max(u.tail_start - 1, max(u.prefix, default=-1), 0)
    terms = []
    for a, s in u.tails:
        y = w.ratio * abs(s)
        if disk.kind == SUM:
            if y >= 1:
                return Envelope((), True), valid_from
            # sum_{k>n} w(k)|a s^k| = |a| c sum_{j>=1} y^(n+j) (n+j+1)^p
            for i in range(w.power + 1):
                coeff = (abs(a) * w.coeff / disk.scale
                         * math.comb(w.power, i)
                         * sum_shift_poly_geom(i, 1, y, 1))
                terms.append(EnvTerm(coeff, y, 1, w.power - i))
        else:
            if y > 1 or (y == 1 and w.power > 0):
                return Envelope((), True), valid_from
            valid_from = max(valid_from, decay_start(y, w.power))
            terms.append(EnvTerm(abs(a) * w.coeff * y / disk.scale, y, 2,
                                 w.power))
    return Envelope(terms), valid_from


# ---------------------------------------------------------------------------
# sequences: prefix, geometric terms, and moving-window remainders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeoTerm:
    """Contributes coeff * n^power * ratio^n * vector for n >= N.

    ratio is 1 (constant or polynomially growing term) or of modulus < 1.
    """

    coeff: Fraction
    ratio: Fraction
    vector: SeqVector
    power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "ratio", _frac(self.ratio))
        if not (self.ratio == 1 or 0 <= abs(self.ratio) < 1):
            raise ValueError("sequence ratios must be 1 or of modulus < 1")
        if self.power < 0:
            raise ValueError("polynomial factors have nonnegative powers")

    def factor(self, n):
        return self.coeff * Fraction(n) ** self.power * self.ratio**n


@dataclass(frozen=True)
class WindowTerm:
    """Contributes coeff * ratio^n * (vector restricted beyond stride*n + offset)."""

    coeff: Fraction
    vector: SeqVector
    stride: int = 1
    offset: int = 0
    ratio: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "ratio", _frac(self.ratio))
        if self.stride < 1:
            raise ValueError("window stride must be >= 1")
        if self.ratio == 0:
            raise ValueError("window ratio must be nonzero")


class SequenceModel:
    """x_n = prefix[n] for n < start, else the sum of the closed-form terms."""

    __slots__ = ("prefix", "geo_terms", "window_terms")

    def __init__(self, prefix=(), geo_terms=(), window_terms=()):
        # a term with coefficient 0 or a zero vector adds nothing at any n
        def live(terms):
            return tuple(t for t in terms if t.coeff != 0 and not t.vector.is_zero)

        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "geo_terms", live(geo_terms))
        object.__setattr__(self, "window_terms", live(window_terms))

    def __setattr__(self, name, value):
        raise AttributeError("SequenceModel is immutable")

    @property
    def start(self):
        return len(self.prefix)

    @staticmethod
    def constant(v):
        return SequenceModel(geo_terms=(GeoTerm(1, 1, v),))

    @staticmethod
    def geometric_multiple(v, c, r):
        """x_n = c r^n v."""
        return SequenceModel(geo_terms=(GeoTerm(c, r, v),))

    @staticmethod
    def partial_sums_of_geometric(a, s):
        """x_n = sum_{k<=n} a s^k e_k, as limit minus a moving window."""
        limit = SeqVector.geometric(a, s)
        return SequenceModel(
            geo_terms=(GeoTerm(1, 1, limit),),
            window_terms=(WindowTerm(-1, limit),),
        )

    def at(self, n):
        """Exact element at index n."""
        if n < self.start:
            return self.prefix[n]
        acc = SeqVector.zero()
        for t in self.geo_terms:
            acc = acc.add(t.vector.scale(t.factor(n)))
        for t in self.window_terms:
            cut = t.stride * n + t.offset
            acc = acc.add(t.vector.restrict_beyond(cut)
                          .scale(t.coeff * t.ratio**n))
        return acc

    def add(self, other):
        start = max(self.start, other.start)
        prefix = tuple(self.at(n).add(other.at(n)) for n in range(start))
        return SequenceModel(prefix, self.geo_terms + other.geo_terms,
                             self.window_terms + other.window_terms)

    def subtract(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = _frac(c)
        return SequenceModel(
            tuple(v.scale(c) for v in self.prefix),
            tuple(GeoTerm(c * g.coeff, g.ratio, g.vector, g.power)
                  for g in self.geo_terms),
            tuple(WindowTerm(c * t.coeff, t.vector, t.stride, t.offset, t.ratio)
                  for t in self.window_terms),
        )

    def subsequence(self, a, b):
        """The sequence m -> x_{a m + b} for integers a >= 1, b >= 0."""
        if a < 1 or b < 0:
            raise ValueError("subsequence reindexing must be monotone")
        geo = []
        for g in self.geo_terms:
            # (a n + b)^p ratio^(a n + b) splits binomially
            for i in range(g.power + 1):
                geo.append(GeoTerm(
                    g.coeff * math.comb(g.power, i)
                    * Fraction(a) ** i * Fraction(b) ** (g.power - i)
                    * g.ratio**b,
                    g.ratio**a, g.vector, i))
        win = tuple(WindowTerm(t.coeff * t.ratio**b, t.vector, t.stride * a,
                               t.stride * b + t.offset, t.ratio**a)
                    for t in self.window_terms)
        n_pref = max(-(-(self.start - b) // a), 0)
        prefix = tuple(self.at(a * n + b) for n in range(n_pref))
        return SequenceModel(prefix, geo, win)

    def limit_vector(self):
        """Coordinatewise limit of the decaying closed form.

        Growing terms (ratio one with a polynomial factor) have no limit;
        they surface through an infinite deviation envelope instead.
        """
        acc = SeqVector.zero()
        for t in self.geo_terms:
            if t.ratio == 1 and t.power == 0:
                acc = acc.add(t.vector.scale(t.coeff))
        return acc

    def deviation_envelope(self, disk):
        """(Envelope E, valid_from): gauge(x_n - limit) <= E(n) for n >= valid_from."""
        scan = _deviation_scan(self, disk)
        if scan is None:
            return Envelope((), True), self.start
        geo, windows, valid_from = scan
        terms = [EnvTerm(abs(t.coeff) * g, abs(t.ratio), 1, t.power)
                 for t, g in geo]
        terms += [e for _t, reindexed in windows for e in reindexed]
        return Envelope(terms), valid_from


def _deviation_scan(x, disk):
    """(geo, windows, valid_from) under both deviation envelopes: each
    decaying term with its vector's gauge, each window term with its window
    envelope reindexed to n, valid for n >= valid_from; None when a term
    grows or a gauge is infinite."""
    geo = []
    for t in x.geo_terms:
        if t.ratio == 1 and t.power == 0:
            continue
        g = INF if t.ratio == 1 else gauge_value(disk, t.vector)
        if g == INF:
            return None
        geo.append((t, g))
    windows = []
    valid_from = x.start
    for t in x.window_terms:
        env, vf = window_gauge_envelope(t.vector, disk)
        if env.infinite:
            return None
        windows.append((t, [_reindexed_term(e, t.stride, t.offset,
                                            abs(t.coeff), abs(t.ratio))
                            for e in env.terms]))
        valid_from = max(valid_from, -(-max(vf - t.offset, 0) // t.stride))
    return geo, windows, valid_from


def _reindexed_term(e, stride, offset, c, extra_ratio):
    # envelope term at index stride*n + offset, times extra_ratio^n:
    # (m + shift)^power at m = stride n + offset is soundly bounded by
    # (stride (n + shift + max(offset, 0)))^power
    return EnvTerm(c * e.coeff * e.ratio**offset * Fraction(stride) ** e.power,
                   extra_ratio * e.ratio**stride,
                   e.shift + max(offset, 0), e.power)


# ---------------------------------------------------------------------------
# model spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpace:
    """A countable-disk model: weighted gauges and the declared tail
    discipline for elements."""

    disks: tuple
    tails_admitted: bool = True

    def __post_init__(self):  # gauge_value would measure l2 as a sup
        for d in self.disks:
            if not (isinstance(d, DiskForm) and d.kind in (SUM, SUP)):
                raise ValueError(f"not a sum or sup DiskForm: {d!r}")

    def disk(self, index):
        return self.disks[index]

    def contains(self, v):
        return self.tails_admitted or v.finitely_supported


def _absorbing_disk(space, sources):
    """The first family disk m with a finite absorption constant against
    every source disk, as (m, those constants), or None.  The absorption
    constant sup{gauge_m(u) : gauge_i(u) <= 1} is the identity map's bound."""
    identity = CoordinateMap("diagonal")
    for m, target in enumerate(space.disks):
        kappas = [coordinate_map_bound(identity, space.disk(i), target)
                  for i in sources]
        if INF not in kappas:
            return m, kappas
    return None


def directedness_check(space):
    """For each pair (j, k), find m absorbing both after scaling."""
    report = {}
    for j in range(len(space.disks)):
        for k in range(len(space.disks)):
            found = _absorbing_disk(space, (j, k))
            if found is not None:
                m, kappas = found
                found = (m, max(*kappas, Fraction(1)))
            report[(j, k)] = found
    directed = all(v is not None for v in report.values())
    return {"directed": directed, "witnesses": report}


# ---------------------------------------------------------------------------
# Cauchy and convergence deciders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionReport:
    decision: str  # "yes" | "no"
    disk_index: int
    eps: EpsForm
    witness: dict = field(default_factory=dict)
    violating_pair: tuple = None

    @property
    def holds(self):
        return self.decision == "yes"


def _one_sided_ok(limit, xm, x, n0):
    """Certify gauge(x_n - x_m) <= gauge(limit - x_m) for all n >= n0.

    Sufficient per-coordinate condition: the deviation x_n - limit always
    pulls each coordinate of limit - x_m toward zero and never overshoots.
    Restricted to window-free models with finitely supported data; returns
    False when it cannot certify (which is not a violation).
    """
    if x.window_terms:
        return False
    decaying = [t for t in x.geo_terms if abs(t.ratio) < 1 and t.power == 0]
    if len(decaying) + sum(1 for t in x.geo_terms
                           if t.ratio == 1 and t.power == 0) != len(x.geo_terms):
        return False
    base = limit.subtract(xm)
    if not base.finitely_supported or any(
            not t.vector.finitely_supported for t in decaying):
        return False
    coords = set(base.prefix)
    for t in decaying:
        coords |= set(t.vector.prefix)
    for k in coords:
        a_k = base.value(k)
        terms = [(t.coeff * t.vector.value(k), t.ratio) for t in decaying
                 if t.vector.value(k) != 0]
        if not terms:
            continue
        if a_k == 0:
            return False
        env0 = sum(abs(c) * abs(r) ** n0 for c, r in terms)
        if env0 > 2 * abs(a_k):
            return False
        for offset, stride, alphas in _tail_classes(
                tuple((c, r) for c, r in terms), n0):
            t_star, sign = _sign_stable_index(alphas)
            if sign == (1 if a_k > 0 else -1):
                return False
            for t in range(t_star):
                val = sum(al * rho**t for rho, al in alphas)
                if abs(a_k + val) > abs(a_k):
                    return False
    return True


def _decide_single_m(x, m, disk, eps, env, env_from, limit):
    """Decide whether gauge(x_n - x_m) <= eps_m for all n > m.

    Returns None when the bound holds, a violating pair (m, n) otherwise.
    """
    xm = x.at(m)
    diff_limit = limit.subtract(xm)
    d_inf = gauge_value(disk, diff_limit)
    n = m + 1
    steps = 0
    while True:
        g = gauge_value(disk, x.at(n).subtract(xm))
        if g == INF or not eps.ge_value(m, g):
            return (m, n)
        tail_sup = env.sup_from(max(n + 1, env_from))
        if d_inf != INF and tail_sup != INF and n + 1 >= env_from:
            if eps.ge_value(m, d_inf + tail_sup):
                return None
            # boundary: the limit sits exactly on the budget (tail_sup > 0,
            # or the check above would have closed the pair)
            if (eps.ge_value(m, d_inf) and eps.le_value(m, d_inf)
                    and _one_sided_ok(limit, xm, x, n + 1)):
                return None
        n += 1
        steps += 1
        if steps > _SCAN_CAP:
            raise NotDecided(
                f"pair check at m={m} did not close within the scan cap")


def _hunt_violation(x, disk, eps):
    """Search for an explicit violating pair (m, n); None if none found."""
    for m in range(_SCAN_CAP):
        xm = x.at(m)
        for n in range(m + 1, m + 1 + 64):
            g = gauge_value(disk, x.at(n).subtract(xm))
            if g == INF or not eps.ge_value(m, g):
                return (m, n)
    return None


def pair_deviation_envelope(x, disk):
    """(Envelope U, valid_from): gauge(x_n - x_m) <= U(m), all n > m >= valid_from.

    Sharper than doubling the one-sided deviation envelope: a positive-ratio
    geometric term contributes |c| g (r^m - r^n) <= |c| g r^m, and nested
    windows differ exactly on the coordinates between the two cuts.  Every
    decay start searched below exists, as its ratio is below 1: a growing
    ratio-1 geometric term ends the scan in _deviation_scan.
    """
    scan = _deviation_scan(x, disk)
    if scan is None:
        return Envelope((), True), x.start
    geo, windows, valid_from = scan
    terms = []
    for t, g in geo:
        r = abs(t.ratio)
        if t.power > 0 and r > 0:
            valid_from = max(valid_from, decay_start(r, t.power))
            terms.append(EnvTerm(2 * abs(t.coeff) * g, r, 1, t.power))
        else:
            factor = 1 if t.ratio >= 0 else 2
            terms.append(EnvTerm(factor * abs(t.coeff) * g, r, 1, 0))
    for t, reindexed in windows:
        if t.ratio == 1 and t.stride == 1:  # nested windows
            terms += reindexed
            continue
        for e in reindexed:
            if e.ratio > 1 or (e.ratio == 1 and e.power > 0):
                return Envelope((), True), x.start
            if e.ratio < 1:
                valid_from = max(valid_from,
                                 decay_start(e.ratio, e.power, 0, e.shift))
            terms.append(EnvTerm(2 * e.coeff, e.ratio, e.shift, e.power))
    return Envelope(terms), valid_from


def dominating_eps(envelope):
    """A geometric EpsForm with eps(m) >= envelope(m) for all m >= 0, with
    ratio at least 1/2, for a finite envelope of terms with ratios below 1.

    Its one caller passes the canonical witness's pair envelope: nonzero
    terms whose ratio base * s is at most 1/2, so the sup below is finite
    and positive.
    """
    ratio_max = max(t.ratio for t in envelope.terms)
    if any(t.power > 0 and t.ratio == ratio_max for t in envelope.terms):
        q = (1 + ratio_max) / 2
    else:
        q = max(ratio_max, Fraction(1, 2))
    return EpsForm.geometric(envelope.sup_from(0, q), q)


def cauchy_check(x, space, disk_index, eps):
    """Exact decision of the Cauchy condition x_n - x_m in eps_m * S, n >= m."""
    if not eps.is_null:
        raise ValueError("eps must be a positive null sequence")
    disk = space.disk(disk_index)
    limit = x.limit_vector()
    env, env_from = x.deviation_envelope(disk)
    pair_env, pair_from = pair_deviation_envelope(x, disk)
    m_star = pair_env.dominated_from(eps, pair_from)
    if m_star is None:
        pair = _hunt_violation(x, disk, eps)
        if pair is not None:
            return DecisionReport("no", disk_index, eps, violating_pair=pair)
        if pair_env.infinite:
            raise NotDecided("deviation envelope is unbounded but no explicit "
                             "violation was found within the scan cap")
        raise NotDecided("no envelope domination certificate and no explicit "
                         "violation within the scan cap")
    for m in range(0, m_star):
        if m >= pair_from and eps.ge_value(m, pair_env.value(m)):
            continue
        pair = _decide_single_m(x, m, disk, eps, env, env_from, limit)
        if pair is not None:
            return DecisionReport("no", disk_index, eps, violating_pair=pair)
    witness = {"certified_from": m_star,
               "envelope_terms": len(pair_env.terms)}
    return DecisionReport("yes", disk_index, eps, witness=witness)


def convergence_check(x, space, disk_index, eps, limit=None):
    """Exact decision of x_n - limit in eps_n * S for all n."""
    if not eps.is_null:
        raise ValueError("eps must be a positive null sequence")
    disk = space.disk(disk_index)
    if limit is None:
        limit = x.limit_vector()
    y = x.subtract(SequenceModel.constant(limit))
    const = y.limit_vector()
    g_const = gauge_value(disk, const)
    env, env_from = y.deviation_envelope(disk)
    n_star = None if g_const else env.dominated_from(eps, env_from)
    # below n_star every index is checked; without a certificate the same
    # loop hunts for a violation up to the scan cap
    for n in range(4 * _SCAN_CAP if n_star is None else n_star):
        g = gauge_value(disk, y.at(n))
        if g == INF or not eps.ge_value(n, g):
            return DecisionReport("no", disk_index, eps,
                                  violating_pair=(n, n))
    if n_star is None:
        if env.infinite or g_const:
            raise NotDecided("non-null deviation without an explicit "
                             "violation within the scan cap")
        raise NotDecided("no envelope domination certificate and no explicit "
                         "violation within the scan cap")
    return DecisionReport("yes", disk_index, eps,
                          witness={"certified_from": n_star})


# ---------------------------------------------------------------------------
# metrizability scalars and the strengthened series condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetrizabilityReport:
    verdict: str  # "bounded" | "not-within-family"
    absorbing_index: int = None
    epsilons: tuple = ()
    bound: Fraction = None


def metrizability_scalars(space, disk_indices):
    """Closed-form epsilons with all partial sums of eps_n S_n in one disk.

    Searches the family for an absorbing disk M; gauge_M(sum eps_n x_n) <=
    sum eps_n max(kappa_n, 1) = sum_{n<N} 2^-(n+1) = 1 - 2^-N is the
    certificate, and ``bound`` is that middle sum.
    An inconclusive outcome means the family is too small to absorb, which
    is reported, not asserted as a property of the abstract space.
    """
    found = _absorbing_disk(space, disk_indices)
    if found is None:
        return MetrizabilityReport("not-within-family")
    m_idx, kappas = found
    epsilons = tuple(Fraction(1, 2 ** (n + 1)) / max(k, Fraction(1))
                     for n, k in enumerate(kappas))
    bound = 1 - Fraction(1, 2 ** len(kappas))
    return MetrizabilityReport("bounded", m_idx, epsilons, bound)


def _rational_root_upper(x, tower):
    """A rational u >= x^(1/2^tower), within 10^-6, for rational x > 0."""
    x = _frac(x)
    lo, hi = (x, Fraction(1)) if x < 1 else (Fraction(1), x)
    while hi - lo > Fraction(1, 10**6):
        mid = (lo + hi) / 2
        if mid ** (2 ** tower) >= x:
            hi = mid
        else:
            lo = mid
    return hi


def strengthened_series_check(space, disk_index, eps):
    """Do the full infinite sums sum lambda_n x_n (|lambda_n| <= eps_n,
    x_n in S) land in a family disk?  Exact geometric comparison, with sound
    rational bounds for inverse-polynomial and root-tower descriptors."""
    total = None
    if eps.kind == "geom":
        ratio = eps.ratio if eps.level == 0 else _rational_root_upper(
            eps.ratio, eps.level)
        amp = eps.amp if eps.level == 0 else _rational_root_upper(
            eps.amp, eps.level)
        if ratio < 1:
            total = amp * ratio / (1 - ratio)  # sum over n >= 1
    elif eps.power >= 2 and eps.level == 0 and eps.alpha != 0:
        # (alpha n + beta)^p >= alpha^p n^2 for n >= 1 and p >= 2, so
        # sum_{n>=1} a/(alpha n + beta)^p <= (a/alpha^p) sum 1/n^2 < 5a/(3 alpha^p)
        total = Fraction(5, 3) * eps.amp / eps.alpha ** eps.power
    found = None if total is None else _absorbing_disk(space, (disk_index,))
    if found is None:
        return {"verdict": "fail", "disk_index": None, "bound": None,
                "certificate": "no family disk absorbs the series"}
    m_idx, (kappa,) = found
    bound = total * max(kappa, Fraction(1))
    return {
        "verdict": "bounded",
        "disk_index": m_idx,
        "bound": bound,
        "certificate": f"sum eps_n * kappa <= {bound}",
    }


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------

def _canonical_witness(space, disk_index):
    """Partial sums of a geometric vector that is summable under the disk."""
    w = space.disk(disk_index).weight
    s = min(Fraction(1, 2), Fraction(1, 2) / w.ratio)
    return SequenceModel.partial_sums_of_geometric(Fraction(1), s)


@dataclass(frozen=True)
class CompletenessVerdict:
    disk_index: int
    complete: bool
    witness: object = None
    justification: str = ""


def completeness_check(space, condition="iii"):
    """Per-disk completeness verdicts on the sequence model.

    Condition (iii): every S-Cauchy closed form is T-convergent for a family
    disk T.  On weighted models with tails admitted this holds with T = S:
    the coordinatewise limit is again a closed form and its gauge never
    exceeds the Cauchy budget (a Fatou argument on exact coordinates).  With
    tails excluded, partial-sum witnesses converge only outside the space.

    Condition (iv): the direct check (every Cauchy test sequence converges
    and limit points stay bounded) run over the canonical witness family;
    used as cross-validation for (iii).
    """
    verdicts = []
    for idx in range(len(space.disks)):
        if condition == "iii":
            if space.tails_admitted:
                verdicts.append(CompletenessVerdict(
                    idx, True,
                    justification="closed-form limits keep finite gauge "
                                  "(coordinatewise Fatou)"))
            else:
                verdicts.append(CompletenessVerdict(
                    idx, False, witness=_canonical_witness(space, idx),
                    justification="partial sums converge only to an "
                                  "infinite-support limit"))
        elif condition == "iv":
            model = _canonical_witness(space, idx)
            env, _vf = pair_deviation_envelope(model, space.disk(idx))
            eps = dominating_eps(env)
            # every pair gauge of the partial sums at m is at most the pair
            # envelope's sup from m, which the decreasing eps dominates, so
            # the decision can only be "yes"
            if not cauchy_check(model, space, idx, eps).holds:
                raise InvariantViolation("canonical witness is not Cauchy "
                                         "under its dominating eps")
            limit = model.limit_vector()
            if not space.contains(limit):
                verdicts.append(CompletenessVerdict(
                    idx, False, witness=model,
                    justification="Cauchy witness has its limit outside "
                                  "the declared tail discipline"))
                continue
            conv = convergence_check(model, space, idx,
                                     eps.scaled(2), limit)
            bounded = gauge_value(space.disk(idx), limit) != INF
            verdicts.append(CompletenessVerdict(
                idx, conv.holds and bounded,
                justification="direct check on the canonical family"))
        else:
            raise ValueError("condition must be 'iii' or 'iv'")
    return verdicts


# ---------------------------------------------------------------------------
# completion: Cauchy sequences modulo null sequences
# ---------------------------------------------------------------------------

class CompletionElement:
    """A Cauchy-certified representative sequence; equality is null difference."""

    __slots__ = ("model", "disk_index", "eps")

    def __init__(self, model, disk_index, eps, _completion):
        report = cauchy_check(model, _completion.ambient, disk_index, eps)
        if not report.holds:
            raise ValueError(
                f"representative is not Cauchy: violating pair "
                f"{report.violating_pair}")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "disk_index", disk_index)
        object.__setattr__(self, "eps", eps)

    def __setattr__(self, name, value):
        raise AttributeError("CompletionElement is immutable")

    def limit_vector(self):
        return self.model.limit_vector()


class Completion:
    """The completion of the finitely-supported part of a weighted model.

    Representatives are closed-form Cauchy sequences; two are equal when the
    difference is a null sequence, which for closed forms means exactly that
    the coordinatewise limits coincide.  The quotient gauge of a class is the
    limiting gauge of its closed form.
    """

    def __init__(self, space):
        # the ambient space admits tails, so condition iii makes it complete
        self.space = space
        self.ambient = ModelSpace(space.disks, True)

    def embed(self, v):
        if not self.space.contains(v):
            raise ValueError("embed takes elements of the underlying space")
        return CompletionElement(SequenceModel.constant(v), 0,
                                 EpsForm.geometric(1, Fraction(1, 2)), self)

    def element(self, model, disk_index, eps):
        return CompletionElement(model, disk_index, eps, self)

    def add(self, a, b):
        eps = _combine_eps(a.eps, b.eps)
        return CompletionElement(a.model.add(b.model), a.disk_index, eps, self)

    def scale(self, c, a):
        c = _frac(c)
        eps = a.eps.scaled(max(abs(c), 1))
        return CompletionElement(a.model.scale(c), a.disk_index, eps, self)

    def equal(self, a, b):
        """Exact: the difference is null iff its coordinatewise limit is zero."""
        diff = a.model.subtract(b.model).limit_vector()
        if diff.is_zero:
            return True, None
        separating = None
        for idx in range(len(self.space.disks)):
            g = gauge_value(self.space.disk(idx), diff)
            if g != 0:
                separating = (idx, g)
                break
        return False, separating

    def gauge_in_quotient(self, a, disk_index):
        """Limiting gauge of the representative closed form."""
        return gauge_value(self.space.disk(disk_index), a.limit_vector())


def _combine_eps(e1, e2):
    """A descriptor with eps(m) >= e1(m) + e2(m) for all m >= 0, staying in
    the closed family.

    At tower level L both sides are compared at the power n = 2^L, where
    (x + y)^n <= 2^(n-1) (x^n + y^n).  Geometric towers a_i r_i^m then add
    up below (a_1 + a_2) max(r_1, r_2)^m; inverse-polynomial towers with one
    alpha and beta below (a_1 + a_2) beta^-|p_1 - p_2| / (alpha m + beta)^p
    for the smaller power p, as alpha m + beta >= beta.
    """
    if (e1.kind, e1.level) != (e2.kind, e2.level) or (
            e1.kind == "invpoly" and (e1.alpha, e1.beta) != (e2.alpha, e2.beta)):
        raise NotDecided("cannot combine eps descriptors of different shapes")
    amp = 2 ** (2**e1.level - 1) * (e1.amp + e2.amp)
    if e1.kind == "geom":
        return EpsForm("geom", amp, max(e1.ratio, e2.ratio), level=e1.level)
    gap = abs(e1.power - e2.power)
    return EpsForm("invpoly", amp * max(1, e1.beta**-gap), alpha=e1.alpha,
                   beta=e1.beta, power=min(e1.power, e2.power),
                   level=e1.level)


def completion_construct(space):
    """The completion interface for the finitely supported part of a model."""
    restricted = ModelSpace(space.disks, False)
    return Completion(restricted)


# ---------------------------------------------------------------------------
# bounded coordinate maps and their extension to the completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateMap:
    """shift-left, geometric diagonal, or the summation functional."""

    kind: str  # "shift" | "diagonal" | "summation"
    coeff: Fraction = Fraction(1)
    ratio: Fraction = Fraction(1)
    power: int = 0  # for diagonal boundedness analysis only

    def __post_init__(self):
        if self.kind not in ("shift", "diagonal", "summation"):
            raise ValueError(f"unknown coordinate map kind {self.kind!r}")
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "ratio", _frac(self.ratio))


def coordinate_map_bound(f, source_disk, target_disk):
    """Upper bound for sup{gauge_target(f u) : gauge_source(u) <= 1}, or inf;
    for the identity, ``CoordinateMap("diagonal")``, the constant with which
    the target disk absorbs the source disk.

    f takes the unit vector of source gauge 1 at each k >= start to one of
    target gauge form(k).  A sup ball spreads over all coordinates, so into
    a sum the bound is the form's tail sum, else its sup.  Exact except for
    a sup source against a sum target with a negative power left in the
    form, which gets the certified bound of :meth:`CoordForm.tail_sum`.
    """
    ws, wt = source_disk.weight, target_disk.weight
    # gauge_source(e_k) = ws(k) / source scale
    c = abs(f.coeff) * source_disk.scale / (target_disk.scale * ws.coeff)
    kind, start = target_disk.kind, 0
    if f.kind == "summation":  # f(e_k) = coeff e_0: all coordinates add up
        form, kind = CoordForm(c * wt.value(0), 1 / ws.ratio, -ws.power), SUM
    elif f.kind == "shift":  # f(e_k) = coeff e_{k-1} for k >= 1
        form, start = CoordForm(c * wt.coeff / wt.ratio, wt.ratio / ws.ratio,
                                wt.power - ws.power), 1
    else:
        form = CoordForm(c * wt.coeff, abs(f.ratio) * wt.ratio / ws.ratio,
                         f.power + wt.power - ws.power)
    if source_disk.kind == SUP and kind == SUM:
        return form.tail_sum(start)
    return form.sup_from(start)


def apply_coordinate_map(f, v):
    if f.kind == "shift":
        return v.shift_left().scale(f.coeff)
    if f.kind == "diagonal":
        if f.power != 0 and not v.finitely_supported:
            raise NotDecided("polynomial diagonal multipliers apply only to "
                             "finitely supported vectors")
        if f.power != 0:
            pref = {k: val * f.coeff * f.ratio**k * Fraction(k + 1) ** f.power
                    for k, val in v.prefix.items()}
            return SeqVector(pref)
        return v.diagonal(f.coeff, f.ratio)
    return SeqVector.unit(0, f.coeff * v.coordinate_sum())


def apply_map_to_model(f, model):
    """Termwise application; stays inside the closed-form sequence family."""
    geo = [GeoTerm(g.coeff, g.ratio, apply_coordinate_map(f, g.vector), g.power)
           for g in model.geo_terms]
    if f.kind != "summation":
        prefix = tuple(apply_coordinate_map(f, v) for v in model.prefix)
        windows = []
        for t in model.window_terms:
            if f.kind == "shift":
                windows.append(WindowTerm(t.coeff * f.coeff,
                                          t.vector.shift_left(),
                                          t.stride, t.offset - 1, t.ratio))
            else:
                windows.append(WindowTerm(t.coeff,
                                          apply_coordinate_map(f, t.vector),
                                          t.stride, t.offset, t.ratio))
        return SequenceModel(prefix, tuple(geo), tuple(windows))
    # summation: window remainders become geometric scalar terms once the
    # cut index has passed the window vector's prefix coordinates
    new_start = model.start
    for t in model.window_terms:
        head = max(t.vector.tail_start, 0)
        new_start = max(new_start, -(-(head - t.offset) // t.stride))
        for a, s in t.vector.tails:
            # coeff ratio^n sum_{k > stride n + offset} a s^k
            #   = (coeff a s^(offset+1) / (1-s)) (ratio s^stride)^n
            combined = t.ratio * s**t.stride
            if not abs(combined) < 1:
                raise NotDecided("summed window grows; outside the closed "
                                 "sequence family")
            geo.append(GeoTerm(t.coeff * a * s ** (t.offset + 1) / (1 - s),
                               combined, SeqVector.unit(0, 1)))
    prefix = tuple(apply_coordinate_map(f, model.at(n))
                   for n in range(new_start))
    return SequenceModel(prefix, tuple(geo), ())


@dataclass(frozen=True)
class ExtendedMap:
    base: CoordinateMap
    bound: Fraction
    target_disk: int

    def __call__(self, completion, element):
        model = apply_map_to_model(self.base, element.model)
        eps = element.eps.scaled(max(self.bound, Fraction(1)))
        return completion.element(model, self.target_disk, eps)


def extend_map_to_completion(f, completion, source_disk=0, target_disk=0):
    """Extend a bounded coordinate map to completion classes, termwise.

    The declared gauge-to-gauge bound is verified on coordinate vectors; an
    unbounded map is rejected.  Boundedness makes the extension well defined:
    null representatives map to null representatives.
    """
    space = completion.space
    bound = coordinate_map_bound(f, space.disk(source_disk),
                                 space.disk(target_disk))
    if bound == INF:
        raise UnboundedMap(
            f"{f.kind} map has no finite gauge bound from disk "
            f"{source_disk} to disk {target_disk}")
    return ExtendedMap(f, bound, target_disk)
