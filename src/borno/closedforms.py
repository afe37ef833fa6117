"""Exact rational closed forms used by the sequence-space and finite-rank
modules: weights c*b^k*(k+1)^p, coordinate forms with their sups and tail
sums, geometric-polynomial series sums, null sequence descriptors closed
under square roots, and nonnegative envelope sequences with an
eventual-domination comparator.

Everything here is Fraction arithmetic; no decision ever goes through a
float.  Square roots of descriptors are handled by tracking a power-of-two
tower, so comparisons stay in the rationals (both sides are positive and can
be raised to the tower power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf
SUP = "sup"


def _frac(x):
    """The exact rational value of x; a float keeps its binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


# ---------------------------------------------------------------------------
# polylogarithm-style sums: sum_{t>=T} t^p y^t, exact for rational |y| < 1
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, y):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _eulerian_numerators(p):
    """N_p with sum_{t>=0} t^p y^t = N_p(y) / (1-y)^(p+1)."""
    n = [Fraction(1)]
    for i in range(1, p + 1):
        # N_i = y * (N'_{i-1} (1 - y) + i N_{i-1})
        deriv = [k * c for k, c in enumerate(n)][1:] or [Fraction(0)]
        term = [a - b for a, b in zip(deriv + [Fraction(0)],
                                      [Fraction(0)] + deriv)]
        # term = N' - y N'  (coefficients of N'(1-y))
        combined = [Fraction(0)] * max(len(term), len(n))
        for k, c in enumerate(term):
            combined[k] += c
        for k, c in enumerate(n):
            combined[k] += i * c
        n = [Fraction(0)] + combined  # multiply by y
        while len(n) > 1 and n[-1] == 0:
            n.pop()
    return n


def sum_poly_geom(power, y, start):
    """sum_{t >= start} t^power y^t, exact; requires |y| < 1."""
    y = _frac(y)
    if not abs(y) < 1:
        raise ValueError("series requires |y| < 1")
    if y == 0:
        return Fraction(0) if (start > 0 or power > 0) else Fraction(1)
    # full sum from 0, then subtract the finite head
    full = _poly_eval(_eulerian_numerators(power), y) / (1 - y) ** (power + 1)
    head = sum((Fraction(t) ** power if power else Fraction(1)) * y**t
               for t in range(start))
    return full - head


def sum_shift_poly_geom(power, shift, y, start, stride=1):
    """sum_{t >= start} (stride t + shift)^power y^t, exact."""
    y = _frac(y)
    shift = _frac(shift)
    total = Fraction(0)
    for i in range(power + 1):
        total += (math.comb(power, i) * shift ** (power - i) * stride**i
                  * sum_poly_geom(i, y, start))
    return total


def geom_poly_sup(c, b, p, start):
    """sup_{k >= start} c b^k (k+1)^p for c > 0; returns (value, attained).

    ``attained`` is False when the supremum is only a limit.  Returns
    (inf, False) for divergent combinations.
    """
    c, b = _frac(c), _frac(b)
    if c == 0:
        return Fraction(0), True
    if b > 1:
        return INF, False
    if b == 1:
        if p > 0:
            return INF, False
        return c, True
    # b < 1: values eventually decrease; scan past the unimodal peak
    k = start
    best = c * b**k * Fraction(k + 1) ** p
    while True:
        ratio = b * (Fraction(k + 2) / Fraction(k + 1)) ** p
        if ratio <= 1:
            break
        k += 1
        best = max(best, c * b**k * Fraction(k + 1) ** p)
    return best, True


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

    def sup_from(self, start):
        """Exact sup_{k >= start} value(k) for coeff >= 0, or inf."""
        if self.power >= 0:
            return geom_poly_sup(self.coeff, self.ratio, self.power, start)[0]
        if self.ratio > 1:
            return INF
        return self.value(start)  # nonincreasing from the start

    def tail_sum(self, start):
        """Certified upper bound for sum_{k >= start} value(k), or inf; exact
        when the power is nonnegative, an integral bound otherwise."""
        if self.coeff == 0:
            return Fraction(0)
        if self.coeff < 0:
            raise ValueError("tail sums are for nonnegative forms")
        if self.ratio >= 1:
            p = -self.power
            if self.ratio > 1 or p < 2:
                return INF
            # sum_{k>=K} (k+1)^-p <= K^(1-p)/(p-1) for K >= 1
            k0 = max(start, 1)
            head = sum((self.value(k) for k in range(start, k0)), Fraction(0))
            return head + self.coeff * Fraction(k0) ** (1 - p) / (p - 1)
        if self.power >= 0:
            return self.coeff * sum_shift_poly_geom(self.power, 1, self.ratio,
                                                    start)
        # decaying ratio, negative power: drop the decaying polynomial factor
        return (self.coeff * Fraction(start + 1) ** self.power
                * self.ratio**start / (1 - self.ratio))


@dataclass(frozen=True)
class WeightForm:
    """w(k) = coeff * base^k * (k+1)^power with positive rational coeff/base."""

    coeff: Fraction = Fraction(1)
    base: Fraction = Fraction(1)
    power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "base", _frac(self.base))
        if self.coeff <= 0 or self.base <= 0:
            raise ValueError("weights must be strictly positive")
        if self.power < 0:
            raise ValueError("weight powers are nonnegative")

    def value(self, k):
        return self.coeff * self.base**k * Fraction(k + 1) ** self.power

    @staticmethod
    def constant(c=1):
        return WeightForm(_frac(c))

    @staticmethod
    def geometric(c, b):
        return WeightForm(_frac(c), _frac(b))

    @staticmethod
    def polynomial(c, p):
        return WeightForm(_frac(c), Fraction(1), p)

    def as_dict(self):
        return {"coeff": str(self.coeff), "base": str(self.base),
                "power": self.power}

    @staticmethod
    def from_dict(d):
        return WeightForm(Fraction(d.get("coeff", 1)),
                          Fraction(d.get("base", 1)),
                          int(d.get("power", 0)))


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

    @staticmethod
    def geometric(a, q):
        """eps_m = a * q^m with 0 < q < 1 (null) or q = 1 (constant)."""
        a, q = _frac(a), _frac(q)
        if not 0 < q <= 1:
            raise ValueError("geometric eps needs 0 < q <= 1")
        return EpsForm("geom", a, q)

    @staticmethod
    def inverse_poly(a, p):
        """eps_m = a / (m+1)^p with p >= 1."""
        if p < 1:
            raise ValueError("inverse-polynomial eps needs power >= 1")
        return EpsForm("invpoly", _frac(a), power=p)

    @property
    def is_null(self):
        if self.kind == "geom":
            return self.ratio < 1
        return self.power >= 1 and self.alpha > 0

    def _tower_value(self, m):
        """value(m)^(2^level), an exact Fraction; m >= 0."""
        if self.kind == "geom":
            return self.amp * self.ratio**m
        return self.amp / (self.alpha * m + self.beta) ** self.power

    def value_float(self, m):
        return float(self._tower_value(m)) ** (0.5 ** self.level)

    def ge_value(self, m, x):
        """Does value(m) >= x hold, for a nonnegative rational x?"""
        x = _frac(x)
        if x < 0:
            raise ValueError("comparisons are for nonnegative values")
        return self._tower_value(m) >= x ** (2 ** self.level)

    def le_value(self, m, x):
        x = _frac(x)
        if x < 0:
            raise ValueError("comparisons are for nonnegative values")
        return self._tower_value(m) <= x ** (2 ** self.level)

    def ratio_at_least(self, m, r):
        """Does value(m+1)/value(m) >= r hold, for rational r > 0?"""
        r = _frac(r)
        lhs = self._tower_value(m + 1)
        rhs = self._tower_value(m) * r ** (2 ** self.level)
        return lhs >= rhs

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

    def as_dict(self):
        if self.kind == "geom":
            return {"kind": "geom", "amp": str(self.amp),
                    "ratio": str(self.ratio), "level": self.level}
        return {"kind": "invpoly", "amp": str(self.amp), "power": self.power,
                "alpha": str(self.alpha), "beta": str(self.beta),
                "level": self.level}

    @staticmethod
    def from_dict(d):
        if d["kind"] == "geom":
            return EpsForm("geom", Fraction(d["amp"]), Fraction(d["ratio"]),
                           level=int(d.get("level", 0)))
        return EpsForm("invpoly", Fraction(d["amp"]),
                       alpha=Fraction(d.get("alpha", 1)),
                       beta=Fraction(d.get("beta", 1)),
                       power=int(d["power"]), level=int(d.get("level", 0)))


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
        # faster than ratio^m
        if self.power < 0:
            raise ValueError("envelope powers are nonnegative")

    def value(self, m):
        return self.coeff * self.ratio**m * Fraction(m + self.shift) ** self.power


class Envelope:
    """A finite nonnegative sum of EnvTerms, possibly infinite."""

    def __init__(self, terms=(), infinite=False):
        self.terms = tuple(t for t in terms if t.coeff != 0)
        self.infinite = bool(infinite)

    def value(self, m):
        if self.infinite:
            return INF
        return sum((t.value(m) for t in self.terms), Fraction(0))

    def dominated_from(self, eps, m_start):
        """Smallest M >= m_start with value(m) <= eps(m) for all m >= M.

        Certifies by per-term ratio domination: beyond M every term shrinks
        at least as fast as eps does, and the value at M already fits.
        Returns None when no such certificate exists within 4,096 steps of
        m_start.
        """
        scan_cap = 4096
        if self.infinite:
            return None
        if not self.terms:
            return m_start
        m_ratio = m_start
        for t in self.terms:
            m = m_start
            while True:
                term_ratio = t.ratio * (Fraction(m + 1 + t.shift)
                                        / Fraction(m + t.shift)) ** t.power
                if eps.ratio_at_least(m, term_ratio):
                    break
                m += 1
                if m > m_start + scan_cap:
                    return None
            m_ratio = max(m_ratio, m)
        m = m_ratio
        while m <= m_start + scan_cap:
            if eps.ge_value(m, self.value(m)):
                return m
            m += 1
        return None
