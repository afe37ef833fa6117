"""Finite-rank approximation of operators uniformly on compact model sets.

A compact set is a coordinate box |x_k| <= a_k with a summable closed-form
envelope (the Hilbert-cube surrogate for precompactness).  Supported
operators are closed-form bands (Fx)_k = sum_d mu_d(k) x_{k+d}, optionally
cut off after a coordinate, so the supremum of gauge((F_n - f)x) over the
box is bounded by the gauge of closed forms at x_k = a_k: rationally for
geometric data, via integral bounds for inverse-polynomial envelopes.
Certified rates are always valid upper bounds, and exact where one closed
form equals the supremum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .closedforms import INF, L2, SUP, CoordForm, _frac, first_true
from .errors import BornoError, EquiboundednessError, InvariantViolation


# ---------------------------------------------------------------------------
# compact boxes and operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompactSetModel:
    """The coordinate box |x_k| <= envelope(k)."""

    envelope: CoordForm

    @staticmethod
    def geometric(a, s):
        return CompactSetModel(CoordForm(a, s))

    @staticmethod
    def inverse_poly(a, p):
        return CompactSetModel(CoordForm(a, Fraction(1), -p))

    def coordinate_bound(self, k):
        return self.envelope.value(k)


def precompactness_check(s, gauge):
    """Envelope summability surrogate: the box is gauge-compact."""
    a = s.envelope.abs_form()
    prod = gauge.weight * a
    if prod.coeff == 0:
        return True  # the zero box, compact under every gauge
    if gauge.kind != SUP:
        return gauge.of_magnitudes([(a, 0, None)])[0] != INF
    # sup-type needs w_k a_k -> 0, which also makes the sup finite
    return prod.ratio < 1 or (prod.ratio == 1 and prod.power < 0)


@dataclass(frozen=True)
class OperatorModel:
    """Coordinate action (Fx)_k = sum_d mu_d(k) x_{k+d} in closed form: a
    tuple of ``(d, mu)`` bands, where bands at one offset add up, and with a
    cutoff only the coordinates k <= cutoff are kept.
    """

    bands: tuple = ()
    cutoff: int = None

    @staticmethod
    def identity():
        return OperatorModel(((0, CoordForm(1)),))

    @staticmethod
    def zero():
        return OperatorModel()

    @staticmethod
    def truncation(n):
        return OperatorModel(((0, CoordForm(1)),), n)

    @staticmethod
    def diagonal(form):
        return OperatorModel(((0, form),))

    @staticmethod
    def banded(bands):
        return OperatorModel(tuple(bands))

    def multiplier(self, k, d=0):
        """mu_d(k), the coefficient of x_{k+d} in (Fx)_k."""
        if self.cutoff is not None and k > self.cutoff:
            return Fraction(0)
        return sum((form.value(k) for off, form in self.bands if off == d),
                   Fraction(0))

    def apply(self, values):
        """Exact action on an explicit finitely supported vector."""
        out = {}
        for d, form in self.bands:
            for j, v in values.items():
                k = j - d
                if k >= 0 and (self.cutoff is None or k <= self.cutoff):
                    out[k] = out.get(k, 0) + form.value(k) * v
        return {k: v for k, v in out.items() if v != 0}


def _diagonal_form(op):
    """The multiplier of an operator with no band or one band at offset 0,
    or None."""
    if not op.bands:
        return CoordForm(0)
    if len(op.bands) == 1 and op.bands[0][0] == 0:
        return op.bands[0][1]
    return None


def _shifted_envelope(env, d):
    """A closed form g >= a_{k+d} on k >= 0, for the box envelope a (zero at
    negative indices), and whether g equals it there.

    a_{k+d} = c r^d r^k (k+1+d)^p, and for k >= max(0, -d) the ratio
    (k+1+d)/(k+1) lies in [1/(1-d), 1] when d < 0 and in [1, 1+d] when
    d > 0: it raises (k+1)^p by at most (1+|d|)^|p| when d p > 0.
    """
    c, r, p = env.coeff, env.ratio, env.power
    if d == 0 or c == 0:
        return env, True
    if r == 0 and d < 0:  # a_j is c at j = 0 only
        return CoordForm(c * 2**-d, Fraction(1, 2)), False
    factor = Fraction(1 + abs(d)) ** abs(p) if d * p > 0 else 1
    return CoordForm(c * r**d * factor, r, p), d > 0 and p == 0


def _difference_magnitude_forms(f_n, f_inf, s):
    """Pieces ``(form, first, last)`` (see :meth:`DiskForm.of_magnitudes`)
    whose sum bounds sup_{x in box} |(F-f)x|_k, and whether the sum equals
    that supremum.  Diagonal closed forms that match (a truncation's is 1)
    subtract exactly up to the first cutoff, past which the later-cut
    operator acts alone; identical operators give no pieces."""
    if f_n == f_inf:
        return [], True
    env = s.envelope.abs_form()
    diag_n, diag_inf = _diagonal_form(f_n), _diagonal_form(f_inf)
    if diag_n is not None and diag_inf is not None and (
            (diag_n.ratio, diag_n.power) == (diag_inf.ratio, diag_inf.power)
            or diag_n.coeff == 0 or diag_inf.coeff == 0):
        delta = CoordForm(abs(diag_n.coeff - diag_inf.coeff),
                          diag_n.ratio if diag_n.coeff else diag_inf.ratio,
                          diag_n.power if diag_n.coeff else diag_inf.power)
        (lo, _), (hi, later) = sorted(
            ((f_n.cutoff, diag_n), (f_inf.cutoff, diag_inf)),
            key=lambda cut: math.inf if cut[0] is None else cut[0])
        pieces = [(delta * env, 0, lo)]
        if lo is not None:
            pieces.append((later.abs_form() * env, lo + 1, hi))
        return [(f, first, last) for f, first, last in pieces
                if f.coeff and (last is None or last >= first)], True
    # the triangle: |(F-f)x|_k <= sum over both operators' bands (d, mu) of
    # |mu(k)| a_{k+d}, on the k >= -d where x_{k+d} exists, up to the cutoff
    pieces, exact = [], True
    for op in (f_n, f_inf):
        for d, mu in op.bands:
            g, eq = _shifted_envelope(env, d)
            pieces.append((mu.abs_form() * g, max(0, -d), op.cutoff))
            exact = exact and eq
    return pieces, exact and len(pieces) <= 1


# ---------------------------------------------------------------------------
# rates and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSequence:
    rates: tuple
    verdict: str  # "converges" | "diverges"
    exact: bool


def _rate_of_pair(f_n, f_inf, s, t_gauge):
    """(certified raw rate, exact flag); raw is the radicand for l2 gauges."""
    pieces, exact = _difference_magnitude_forms(f_n, f_inf, s)
    raw, measured = t_gauge.of_magnitudes(pieces)
    return raw, exact and measured


def uniform_convergence_on_set(family, f_inf, s, t_gauge):
    """Certified rates eps_n with (F_n - f)(box) inside eps_n * (gauge ball).

    For truncation and matching-diagonal pairs the supremum over the box is
    attained at x_k = a_k up to phase, so a rate is exact where its window
    measures are (one floating square root for l2), else a certified bound.
    """
    pairs = [_rate_of_pair(f_n, f_inf, s, t_gauge) for f_n in family]
    raws = [r for r, _ in pairs]
    rates = tuple(t_gauge.finalize(r) for r in raws)
    exact = all(flag for _, flag in pairs)
    converges = _raws_converge(raws)
    return RateSequence(rates, "converges" if converges else "diverges",
                        exact), raws


def _raws_converge(raws):
    if not raws or INF in raws:
        return False
    # closed forms: nonincreasing down to (near) zero within the family plus
    # a final value consistent with decay
    nonincreasing = all(raws[i + 1] <= raws[i] for i in range(len(raws) - 1))
    return nonincreasing and raws[-1] < raws[0] or raws[-1] == 0


@dataclass(frozen=True)
class OperatorFamily:
    """An equibounded family: operators plus one declared gauge bound."""

    operators: tuple
    declared_bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "declared_bound", _frac(self.declared_bound))


def operator_gauge_bound(op, gauge):
    """Certified bound for the gauge-to-gauge norm of a coordinate operator.

    A band (d, mu) adds sup_k |mu(k)| q_k under sum and sup gauges and
    sup_k |mu(k)| sqrt(q_k) <= sup_k |mu(k)| max(1, q_k) under l2 gauges,
    where q_k = w(k)/w(k+d) = r^-d ((k+1)/(k+1+d))^p is at most r^-d (1-d)^p
    for k >= -d when d < 0 and at most r^-d when d >= 0, for the weight's
    ratio r.  A cut operator's band is bounded by its sup over the kept
    coordinates 0 <= k <= cutoff.
    """
    w = gauge.weight
    total = Fraction(0)
    for d, form in op.bands:
        b = form.abs_form().sup_from(0, op.cutoff)
        if b == INF:
            return INF
        ratio = w.ratio ** -d * (Fraction(1 - d) ** w.power if d < 0 else 1)
        total += b * (max(1, ratio) if gauge.kind == L2 else ratio)
    return total


def pointwise_vs_uniform_check(family, f_inf, s, t_gauge, n_patterns=8):
    """Pointwise convergence on box extreme points must match the uniform
    verdict for an equibounded family; disagreement is a kernel bug.

    Each of the ``n_patterns`` sampled points takes seeded random signs on
    the first 64 coordinates.
    """
    if not precompactness_check(s, t_gauge):
        raise ValueError("envelope is not compact under this gauge")
    bound = family.declared_bound
    for op in family.operators:
        b = operator_gauge_bound(op, t_gauge)
        if b == INF or b > bound:
            bands = ", ".join(f"({d}, {f.coeff}*{f.ratio}^k*(k+1)^{f.power})"
                              for d, f in op.bands)
            raise EquiboundednessError(
                f"operator with bands [{bands}] exceeds the declared bound "
                f"{bound}")
    uniform, raws = uniform_convergence_on_set(family.operators, f_inf, s,
                                               t_gauge)
    rng = random.Random(0xB00C)
    pointwise_ok = True
    bounds = [s.coordinate_bound(k) for k in range(64)]
    for _ in range(n_patterns):
        x = {k: rng.choice((1, -1)) * bounds[k] for k in range(64)}
        x = {k: v for k, v in x.items() if v != 0}
        f_x = f_inf.apply(x)
        values = []
        for op in family.operators:
            diff = dict(op.apply(x))
            for k, v in f_x.items():
                diff[k] = diff.get(k, Fraction(0)) - v
            values.append(t_gauge.of_vector(diff))
        pointwise_ok = pointwise_ok and _raws_converge(values)
        if values and uniform.verdict == "converges":
            # sampled points never exceed the certified rates
            for v, raw in zip(values, raws):
                if raw != INF and v > raw + Fraction(1, 10**12):
                    raise InvariantViolation(
                        "sampled point exceeds its certified rate")
    pointwise_verdict = "converges" if pointwise_ok else "diverges"
    if uniform.verdict != pointwise_verdict:
        raise InvariantViolation(
            "pointwise and uniform verdicts disagree for an equibounded "
            "family")
    return {"uniform": uniform, "pointwise": pointwise_verdict}


@dataclass(frozen=True)
class ApproxPropertyReport:
    rank: int
    rates: tuple
    witness_scale: float
    tolerance: float


class RankBudgetError(BornoError):
    def __init__(self, budget, required):
        self.budget = budget
        self.required = required
        super().__init__(
            f"rank budget {budget} insufficient; extrapolated rank {required}")


def local_approx_property_check(s, t_gauge, tolerance, rank_budget=128):
    """Truncation-based finite-rank approximation of the inclusion of the box.

    The witness disk is the ambient gauge ball scaled to contain the box;
    rates are reported in the ambient gauge.  Returns the smallest rank
    (number of kept coordinates) meeting the tolerance, which must be
    positive.
    """
    tol = _frac(tolerance)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not precompactness_check(s, t_gauge):
        raise ValueError("envelope is not compact under this gauge")
    target = tol * tol if t_gauge.kind == L2 else tol
    identity = OperatorModel.identity()

    def rate(n):  # truncation(-1) is the zero map
        return _rate_of_pair(OperatorModel.truncation(n), identity, s,
                             t_gauge)[0]

    # the rate of truncation(n) is the box's tail gauge from n + 1: it does
    # not grow with n and tends to 0 on a compact box
    n = first_true(lambda n: rate(n) <= target, -1)
    if n > rank_budget:
        raise RankBudgetError(rank_budget, n + 1)
    scale = t_gauge.finalize(
        t_gauge.of_magnitudes([(s.envelope.abs_form(), 0, None)])[0])
    return ApproxPropertyReport(
        n + 1, tuple(t_gauge.finalize(rate(k)) for k in range(-1, n + 1)),
        scale, float(tol))
