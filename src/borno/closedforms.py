"""Exact rational closed forms for the sequence-space and finite-rank
engines: coordinate forms c*r^k*(k+1)^p with their sups and tail sums (a
weight is one with positive c and r and p >= 0), the weighted gauges both
engines measure with, series tails in closed form (O(p^2) terms whatever the
start), decay starts of c*r^k*(k+s)^p, a filtered exact comparison, null
sequence descriptors closed under square roots, and nonnegative envelopes
with sups and a domination comparator.

Every value here is an exact Fraction and every decision the exact one.
Floats only filter: at_least encloses log2 of both sides of a comparison
with a proven error margin and decides when the enclosures are disjoint;
near-ties and zeros are decided in Fraction arithmetic.  Square roots of
descriptors are handled by tracking a power-of-two tower, so comparisons
stay in the rationals (both sides are positive and can be raised to the
tower power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

INF = math.inf
SUM = "sum"
SUP = "sup"
L2 = "l2"


def _frac(x):
    """The exact rational value of x; a float keeps its binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


def _nonnegative(x):
    """_frac(x) for the nonnegative x that EpsForm compares with."""
    x = _frac(x)
    if x < 0:
        raise ValueError("comparisons are for nonnegative values")
    return x


# ---------------------------------------------------------------------------
# geometric-polynomial series, sups and decay indices, exact for rationals
# ---------------------------------------------------------------------------

def sum_poly_geom(power, y, start):
    """sum_{t >= start} t^power y^t, exact; requires |y| < 1."""
    return sum_shift_poly_geom(power, 0, y, start)


def sum_shift_poly_geom(power, shift, y, start, stride=1):
    """sum_{t >= start} (stride t + shift)^power y^t, exact; requires |y| < 1.

    With t = start + u and base = stride start + shift the sum is
    y^start sum_{i <= p} C(p,i) base^(p-i) stride^i N_i(y) / (1-y)^(i+1),
    where sum_{u >= 0} u^i y^u = N_i(y) / (1-y)^(i+1) with N_0 = 1 and
    N_i(y) = sum_{k < i} A(i,k) y^(k+1) for the Eulerian numbers
    A(i,k) = sum_{j <= k} (-1)^j C(i+1,j) (k+1-j)^i (Graham, Knuth and
    Patashnik, Concrete Mathematics, 6.2): O(p^2) terms whatever the start.
    """
    y = _frac(y)
    if not abs(y) < 1:
        raise ValueError("series requires |y| < 1")
    base = stride * start + _frac(shift)
    total = Fraction(0)
    for i in range(power + 1):
        n_i = sum(sum((-1) ** j * math.comb(i + 1, j) * (k + 1 - j) ** i
                      for j in range(k + 1)) * y ** (k + 1)
                  for k in range(i)) if i else Fraction(1)
        total += (math.comb(power, i) * base ** (power - i) * stride**i
                  * n_i / (1 - y) ** (i + 1))
    return y**start * total


def first_true(pred, lo, hi=None):
    """Smallest k in [lo, hi] with pred(k), for a pred that stays true once
    it holds, or None when pred(hi) is false (no cap when hi is None).
    Doubles a step, then bisects: O(log(k - lo)) calls of pred."""
    bad, good, step = lo - 1, lo, 1
    while not pred(good):
        if hi is not None and good >= hi:
            return None
        bad, good, step = good, good + step, 2 * step
        if hi is not None:
            good = min(good, hi)
    while good - bad > 1:
        mid = (bad + good) // 2
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good


def _step_factors(ratio, power, k, shift):
    """value(k+1)/value(k) of k -> ratio^k (k+shift)^power, as the
    (base, exponent) factors of at_least."""
    return (ratio, 1), (k + 1 + shift, power), (k + shift, -power)


def _step_ratio(ratio, power, k, shift):
    """value(k+1)/value(k) of k -> ratio^k (k+shift)^power."""
    return _exact_sum([_step_factors(ratio, power, k, shift)])


def decay_start(ratio, power, start=0, shift=1, cap=None):
    """First k in [start, cap] from which ratio^k (k+shift)^power is
    nonincreasing, or None when it is not by the cap (no cap when None).

    For ratio >= 0, power >= 0 and shift >= 1 the step ratio does not grow
    with k, so once it is <= 1 it stays so, and first_true finds the first
    such k."""
    return first_true(lambda k: _step_ratio(ratio, power, k, shift) <= 1,
                      start, cap)


def geom_poly_sup(c, b, p, start):
    """sup_{k >= start} c b^k (k+1)^p for c > 0 and p >= 0; inf when
    unbounded.  Every caller settles c = 0 first."""
    c, b = _frac(c), _frac(b)
    if b > 1 or (b == 1 and p > 0):
        return INF
    # the values rise up to the decay start and never exceed it after
    peak = decay_start(b, p, start)
    return c * b**peak * Fraction(peak + 1) ** p


# ---------------------------------------------------------------------------
# coordinate forms and weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordForm:
    """k -> coeff * ratio^k * (k+1)^power, ratio >= 0, power any integer."""

    coeff: Fraction
    ratio: Fraction = Fraction(1)
    power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "ratio", _frac(self.ratio))
        if self.ratio < 0:
            raise ValueError("coordinate forms use nonnegative ratios")

    def value(self, k):
        return self.coeff * self.ratio**k * Fraction(k + 1) ** self.power

    def __mul__(self, other):
        return CoordForm(self.coeff * other.coeff, self.ratio * other.ratio,
                         self.power + other.power)

    def abs_form(self):
        return CoordForm(abs(self.coeff), self.ratio, self.power)

    def sup_from(self, start, last=None):
        """Exact sup_{start <= k <= last} value(k) for coeff >= 0 (no end
        when ``last`` is None), or inf.  A power >= 0 makes the values
        log-concave, rising up to the decay start and falling after it; a
        negative one makes them log-convex, so the sup is at an end."""
        if self.coeff == 0 or (last is not None and last < start):
            return Fraction(0)
        if self.power >= 0:
            if last is None:
                return geom_poly_sup(self.coeff, self.ratio, self.power, start)
            peak = decay_start(self.ratio, self.power, start, cap=last)
            return self.value(last if peak is None else peak)
        if last is not None:
            return max(self.value(start), self.value(last))
        if self.ratio > 1:
            return INF
        return self.value(start)  # nonincreasing from the start

    @property
    def _diverges(self):  # the series of a nonzero form
        return self.ratio > 1 or (self.ratio == 1 and self.power > -2)

    def tail_sum(self, start, last=None):
        """Certified upper bound for sum_{start <= k <= last} value(k) (no
        end when ``last`` is None), or inf; :meth:`sums_exactly` says when it
        is the sum.  A series sums in closed form for a power >= 0, else by
        an integral bound; a window sums as the difference of its two tails
        where they converge (each bound drops by at least the terms it
        skips), else as its length times its sup."""
        if self.coeff == 0 or (last is not None and last < start):
            return Fraction(0)
        if self.coeff < 0:
            raise ValueError("tail sums are for nonnegative forms")
        if self._diverges:
            return INF if last is None else (
                (last - start + 1) * self.sup_from(start, last))
        if last is not None:
            return self.tail_sum(start) - self.tail_sum(last + 1)
        if self.ratio == 1:
            # sum_{k>=K} (k+1)^-p <= K^(1-p)/(p-1) for K >= 1
            p, k0 = -self.power, max(start, 1)
            head = sum((self.value(k) for k in range(start, k0)), Fraction(0))
            return head + self.coeff * Fraction(k0) ** (1 - p) / (p - 1)
        if self.power >= 0:
            return self.coeff * sum_shift_poly_geom(self.power, 1, self.ratio,
                                                    start)
        # decaying ratio, negative power: drop the decaying polynomial factor
        return (self.coeff * Fraction(start + 1) ** self.power
                * self.ratio**start / (1 - self.ratio))

    def sums_exactly(self, last=None):
        """Whether tail_sum(start, last) is the sum itself: the closed forms
        of a power >= 0, inf for a divergent series and a constant's sums."""
        if self.coeff == 0 or (self.ratio, self.power) == (1, 0):
            return True
        if last is None:
            return self.power >= 0 or self._diverges
        return self.power >= 0 and self.ratio < 1


@dataclass(frozen=True)
class WeightForm(CoordForm):
    """A weight: a coordinate form with positive coeff and ratio, power >= 0."""

    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        coeff, ratio = _frac(self.coeff), _frac(self.ratio)
        if coeff <= 0 or ratio <= 0:
            raise ValueError("weights must be strictly positive")
        if self.power < 0:
            raise ValueError("weight powers are nonnegative")
        super().__post_init__()

    # its own binding, so a profiler can time weights apart from other forms
    value = CoordForm.value

    @staticmethod
    def constant(c=1):
        return WeightForm(_frac(c))

    @staticmethod
    def geometric(c, b):
        return WeightForm(_frac(c), _frac(b))

    @staticmethod
    def polynomial(c, p):
        return WeightForm(_frac(c), Fraction(1), p)


# ---------------------------------------------------------------------------
# weighted gauges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskForm:
    """gauge(x) = (1/scale) agg_k weight(k) |x_k| for agg sum or sup, or
    (1/scale) sqrt(sum_k weight(k) |x_k|^2) for l2."""

    kind: str
    weight: WeightForm = field(default_factory=WeightForm)
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in (SUM, SUP, L2):
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        object.__setattr__(self, "scale", _frac(self.scale))
        if self.scale <= 0:
            raise ValueError("disk scale must be positive")

    @property
    def _divisor(self):  # an l2 aggregate is the radicand
        return self.scale**2 if self.kind == L2 else self.scale

    def of_magnitudes(self, pieces):
        """(certified bound, exact flag) for the gauge of |x_k| = the sum of
        ``pieces``: nonnegative forms ``(form, first, last)`` that vanish
        outside first <= k <= last (``last`` None: no end); the bound is the
        radicand under l2.  Each piece is measured on its own window by its
        form's ``sup_from`` or ``tail_sum``, and the bound is exact where
        every such measure is."""
        w = self.weight
        if self.kind == L2:  # expand the square, each product on its common window
            pieces = [(f * g, max(lo, lo_g),
                       min((h for h in (hi, hi_g) if h is not None), default=None))
                      for f, lo, hi in pieces for g, lo_g, hi_g in pieces]
        live = sorted(((w * f, lo, hi) for f, lo, hi in pieces
                       if hi is None or hi >= lo), key=lambda p: p[1])
        if self.kind != SUP:
            raw = sum((f.tail_sum(lo, hi) for f, lo, hi in live), Fraction(0))
            exact = all(f.sums_exactly(hi) for f, _lo, hi in live)
        else:
            sups = [f.sup_from(lo, hi) for f, lo, hi in live]
            # pieces on disjoint windows never add up at one index
            exact = all(a[2] is not None and a[2] < b[1]
                        for a, b in zip(live, live[1:]))
            raw = max(sups, default=Fraction(0)) if exact else sum(sups, Fraction(0))
        return raw / self._divisor, exact

    @cached_property
    def _weight_at(self):
        """k -> w(k), each weight computed once per gauge."""
        return cache(self.weight.value)

    def of_vector(self, values):
        """Gauge of explicit coordinates (index -> Fraction); the radicand
        under l2."""
        w, l2 = self._weight_at, self.kind == L2
        terms = [w(k) * (v * v if l2 else abs(v)) for k, v in values.items()]
        raw = (max(terms, default=Fraction(0)) if self.kind == SUP
               else sum(terms, Fraction(0)))
        return raw / self._divisor

    def finalize(self, raw):
        """Convert a bound (radicand for l2) to a float rate."""
        if raw == INF:
            return math.inf
        return math.sqrt(float(raw)) if self.kind == L2 else float(raw)


# ---------------------------------------------------------------------------
# filtered exact comparison of sums of products
# ---------------------------------------------------------------------------

_LOG2_MARGIN = 2.0**-40  # enclosure radius per unit of magnitude


def _log2_product(factors):
    """(log2, magnitude) of the product of ``factors``, or None when a
    factor is 0.

    A factor is (base, exponent): a rational base >= 0 and an integer
    exponent below 2^53 in size; a base 0 makes the product 0 when its
    exponent is positive, and no caller raises 0 to a negative power.  A
    base's log2 is that of its integer numerator minus that of its
    denominator, never that of a float of the base, which underflows for
    10^-400.  Each factor adds |exponent| (1 + both logs) to the magnitude,
    the unit of the error budget in _log2_sum."""
    log = mag = 0.0
    for base, exp in factors:
        if exp:
            top, bottom = base.as_integer_ratio()
            if not top:
                return None
            top, bottom = math.log2(top), math.log2(bottom)
            log += exp * (top - bottom)
            mag += abs(exp) * (1.0 + top + bottom)
    return log, mag


def _log2_sum(products):
    """(centre, size) with log2 of the sum of ``products`` within 2^-40 size
    of centre, from each product's (log2, magnitude) by _log2_product; None
    when the sum is 0.

    Error budget, with u = 2^-53.  math.log2 of an integer n >= 1 rounds n
    to a double (or, from 2^1024 on, to a double mantissa times a power of
    two) with relative error u, which moves log2 by at most 1.5u, and libm's
    log2 is within a few ulps (glibc's within one): allowing 4 ulps, a log
    is within 10u (1 + log2 n).  A base's log, the difference of two such
    logs, is then within 21u (1 + both logs), and scaling it by the exponent
    keeps a factor within 22u times its magnitude.  Adding up f factors
    rounds f times by at most u times the product's magnitude, so a
    product's log is within (22 + f) u times its magnitude, whatever order
    the factors are added in.  The log-sum of k > 1 products, the largest log
    plus math.log2 of the sum of 2^(log - largest), adds at most 8ku plus u
    times the largest magnitude.  |centre| never exceeds size, so the
    caller's scaling and subtraction round by a few u times the sizes.  The
    radius 2^-40 size = 2^13 u size covers all of this for products of
    fewer than 2^12 factors; the ones built here have at most three."""
    if len(products) == 1:
        return _log2_product(products[0])
    parts = [part for part in map(_log2_product, products) if part is not None]
    if len(parts) < 2:
        return parts[0] if parts else None
    logs, mags = zip(*parts)
    top = max(logs)
    return (top + math.log2(sum([2.0 ** (log - top) for log in logs])),
            max(mags) + len(parts))


def at_least(lhs, rhs, power=1):
    """Whether sum(lhs) >= sum(rhs)^power, decided exactly, for lists of
    products of factors as in _log2_product and an integer power >= 1.

    A filtered predicate (H. Brönnimann, C. Burnikel and S. Pion, Discrete
    Appl. Math. 109, 2001; J. R. Shewchuk, Discrete Comput. Geom. 18, 1997):
    two disjoint log2 enclosures decide at once; where they overlap, or a
    side is 0, the Fraction comparison of _exact_at_least decides.
    """
    left, right = _log2_sum(lhs), _log2_sum(rhs)
    if left is not None and right is not None:
        gap = left[0] - power * right[0]
        width = _LOG2_MARGIN * (left[1] + power * right[1])
        if gap > width:
            return True
        if gap < -width:
            return False
    return _exact_at_least(lhs, rhs, power)


def _exact_sum(products):
    """The sum of the products of at_least's factors, as a Fraction."""
    return sum((math.prod(Fraction(b) ** e for b, e in p) for p in products),
               Fraction(0))


def _exact_at_least(lhs, rhs, power=1):
    """at_least in Fraction arithmetic."""
    return _exact_sum(lhs) >= _exact_sum(rhs) ** power


# ---------------------------------------------------------------------------
# null-sequence descriptors, closed under subsequences and square roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsForm:
    """A positive closed-form sequence with a power-of-two root tower.

    value(m)^(2^level) = amp * ratio^m            (geometric kind)
    value(m)^(2^level) = amp / (alpha m + beta)^power   (inverse-polynomial)

    Comparisons raise both sides to 2^level, so they stay exact rationals
    even after square roots have been applied.
    """

    kind: str  # "geom" | "invpoly"
    amp: Fraction
    ratio: Fraction = Fraction(1, 2)  # geometric ratio (tower power applied)
    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(1)
    power: int = 1
    level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "amp", _frac(self.amp))
        object.__setattr__(self, "ratio", _frac(self.ratio))
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))
        if self.kind not in ("geom", "invpoly"):
            raise ValueError(f"unknown eps kind {self.kind!r}")
        if self.amp <= 0:
            raise ValueError("eps must be strictly positive")
        if self.kind == "geom" and not self.ratio > 0:
            raise ValueError("geometric ratio must be positive")
        if self.kind == "invpoly" and not (self.alpha >= 0 and self.beta > 0):
            raise ValueError("inverse-polynomial eps needs alpha >= 0, beta > 0")

    @staticmethod
    def geometric(a, q):
        """eps_m = a * q^m with 0 < q < 1 (null) or q = 1 (constant)."""
        a, q = _frac(a), _frac(q)
        if not 0 < q <= 1:
            raise ValueError("geometric eps needs 0 < q <= 1")
        return EpsForm("geom", a, q)

    @property
    def is_null(self):
        if self.kind == "geom":
            return self.ratio < 1
        return self.power >= 1 and self.alpha > 0

    def _tower_value(self, m):
        """value(m)^(2^level), an exact Fraction; m >= 0."""
        return _exact_sum([self._tower_factors(m)])

    def _tower_factors(self, m):
        """value(m)^(2^level) as the (base, exponent) factors of at_least."""
        if self.kind == "geom":
            return (self.amp, 1), (self.ratio, m)
        return (self.amp, 1), (self.alpha * m + self.beta, -self.power)

    def value_float(self, m):
        return float(self._tower_value(m)) ** (0.5 ** self.level)

    def ge_value(self, m, x):
        """Does value(m) >= x hold?  x is a nonnegative rational, or a list
        of products of (base, exponent) factors as in at_least standing for
        their sum."""
        if not isinstance(x, list):
            x = [((_nonnegative(x), 1),)]
        return at_least([self._tower_factors(m)], x, 2**self.level)

    def le_value(self, m, x):
        """Does value(m) <= x hold, for a nonnegative rational x?"""
        power = ((_nonnegative(x), 2**self.level),)
        return at_least([power], [self._tower_factors(m)])

    def ratio_at_least(self, m, r):
        """Does value(m+1)/value(m) >= r hold?  r is a nonnegative rational,
        or a tuple of (base, exponent) factors as in at_least standing for
        their product.

        The tower's step value(m+1)^(2^level) / value(m)^(2^level) is its
        ratio (geometric) or ((alpha m + beta) / (alpha (m+1) + beta))^power
        (inverse-polynomial)."""
        if not isinstance(r, tuple):
            r = ((_nonnegative(r), 1),)
        if self.kind == "geom":
            step = ((self.ratio, 1),)
        else:
            base = self.alpha * m + self.beta
            step = ((base, self.power), (base + self.alpha, -self.power))
        return at_least([step], [r], 2**self.level)

    def sqrt(self):
        return EpsForm(self.kind, self.amp, self.ratio, self.alpha,
                       self.beta, self.power, self.level + 1)

    def subsequence(self, a, b):
        """The descriptor m -> value(a m + b) for integers a >= 1, b >= 0."""
        if a < 1 or b < 0:
            raise ValueError("subsequence reindexing must be monotone")
        if self.kind == "geom":
            return EpsForm("geom", self.amp * self.ratio**b, self.ratio**a,
                           level=self.level)
        return EpsForm("invpoly", self.amp, alpha=self.alpha * a,
                       beta=self.alpha * b + self.beta, power=self.power,
                       level=self.level)

    def scaled(self, c):
        """c * value(m) for rational c > 0."""
        c = _frac(c)
        if c <= 0:
            raise ValueError("scale must be positive")
        return EpsForm(self.kind, self.amp * c ** (2 ** self.level),
                       self.ratio, self.alpha, self.beta, self.power,
                       self.level)


# ---------------------------------------------------------------------------
# nonnegative envelope sequences and the domination comparator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvTerm:
    """coeff * ratio^m * (m + shift)^power with coeff >= 0, ratio >= 0."""

    coeff: Fraction
    ratio: Fraction
    shift: int = 1
    power: int = 0

    def __post_init__(self):
        # dominated_from's ratio certificate needs terms that never grow
        # faster than ratio^m, and _step_ratio and at_least need m + shift >= 1
        # and bases >= 0
        if self.power < 0:
            raise ValueError("envelope powers are nonnegative")
        if self.shift < 1:
            raise ValueError("envelope shifts are at least 1")
        if self.coeff < 0 or self.ratio < 0:
            raise ValueError("envelope coefficients and ratios are nonnegative")

    def value(self, m):
        return _exact_sum([self.factors(m)])

    def factors(self, m):
        """value(m) as the (base, exponent) factors of at_least."""
        return (self.coeff, 1), (self.ratio, m), (m + self.shift, self.power)


class Envelope:
    """A finite nonnegative sum of EnvTerms, possibly infinite."""

    def __init__(self, terms=(), infinite=False):
        self.terms = tuple(t for t in terms if t.coeff != 0)
        self.infinite = bool(infinite)

    def value(self, m):
        """The finite envelope's value; every caller checks ``infinite`` first."""
        return sum((t.value(m) for t in self.terms), Fraction(0))

    def sup_from(self, n0, divisor=Fraction(1)):
        """Upper bound for sup_{m >= n0} value(m) / divisor^m, or inf as soon
        as a term does not decay (later Fraction sums must not meet a float)."""
        if self.infinite:
            return INF
        total = Fraction(0)
        for t in self.terms:
            # (m + shift)^p <= shift^p (m + 1)^p for shift >= 1
            sup = geom_poly_sup(t.coeff * Fraction(t.shift) ** t.power,
                                t.ratio / divisor, t.power, n0)
            if sup == INF:
                return INF
            total += sup
        return total

    def dominated_from(self, eps, m_start):
        """Smallest M >= m_start with value(m) <= eps(m) for all m >= M.

        Certifies by per-term ratio domination: beyond M every term shrinks
        at least as fast as eps does, and the value at M already fits.
        Returns None when no such certificate exists within 4,096 steps of
        m_start.  Each step is one filtered comparison, which builds no
        Fraction power unless the comparison is a near-tie.
        """
        scan_cap = 4096
        if self.infinite:
            return None
        m_ratio = m_start
        for t in self.terms:
            m = m_start
            while True:
                if eps.ratio_at_least(m, _step_factors(t.ratio, t.power, m,
                                                       t.shift)):
                    break
                m += 1
                if m > m_start + scan_cap:
                    return None
            m_ratio = max(m_ratio, m)
        m = m_ratio
        while m <= m_start + scan_cap:
            if eps.ge_value(m, [t.factors(m) for t in self.terms]):
                return m
            m += 1
        return None
