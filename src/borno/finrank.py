"""Finite-rank approximation of operators uniformly on compact model sets.

A compact set is a coordinate box |x_k| <= a_k with a summable closed-form
envelope (the Hilbert-cube surrogate for precompactness).  Supported
operators act coordinate-wise in closed form (diagonal, truncation, banded),
so the supremum of gauge((F_n - f)x) over the box is attained at x_k = a_k
up to phase and is computable exactly: rationally for geometric data, via
integral bounds for inverse-polynomial envelopes.  Certified rates are
always valid upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .closedforms import INF, SUP, CoordForm, WeightForm, _frac
from .errors import BornoError, EquiboundednessError, InvariantViolation

L1 = "l1"
L2 = "l2"


# ---------------------------------------------------------------------------
# compact boxes, gauges, operators
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


@dataclass(frozen=True)
class GaugeModel:
    """gauge(x) = sup_k w_k |x_k|, sum_k w_k |x_k|, or sqrt(sum w_k |x_k|^2)."""

    kind: str
    weight: WeightForm = field(default_factory=WeightForm)

    def __post_init__(self):
        if self.kind not in (SUP, L1, L2):
            raise ValueError(f"unknown gauge kind {self.kind!r}")

    def weight_form(self):
        return CoordForm(self.weight.coeff, self.weight.base,
                         self.weight.power)

    def of_magnitudes(self, forms, start=0):
        """Certified bound for the gauge of |x_k| = sum of nonnegative forms."""
        if self.kind == SUP:
            return sum((self.weight_form() * f).sup_from(start) for f in forms)
        if self.kind == L1:
            return sum((self.weight_form() * f).tail_sum(start) for f in forms)
        # l2: expand the square exactly
        return self.squared_of_magnitudes(forms, start)

    def squared_of_magnitudes(self, forms, start=0):
        """Exact rational sum_k w_k (sum forms)^2 from start, or inf."""
        total = Fraction(0)
        for f in forms:
            for g in forms:
                s = (self.weight_form() * f * g).tail_sum(start)
                if s == INF:
                    return INF
                total += s
        return total

    def of_vector(self, values):
        """Gauge of explicit coordinates (index -> Fraction magnitude)."""
        if self.kind == SUP:
            return max((self.weight.value(k) * abs(v)
                        for k, v in values.items()), default=Fraction(0))
        if self.kind == L1:
            return sum((self.weight.value(k) * abs(v)
                        for k, v in values.items()), Fraction(0))
        return sum((self.weight.value(k) * v * v
                    for k, v in values.items()), Fraction(0))

    def finalize(self, raw):
        """Convert a raw bound (radicand for l2) to a float rate."""
        if raw == INF:
            return math.inf
        return math.sqrt(float(raw)) if self.kind == L2 else float(raw)


def precompactness_check(s, gauge):
    """Envelope summability surrogate: the box is gauge-compact."""
    a = s.envelope.abs_form()
    prod = gauge.weight_form() * a
    if prod.coeff == 0:
        return True  # the zero box, compact under every gauge
    if gauge.kind == L1:
        return prod.tail_sum(0) != INF
    if gauge.kind == L2:
        return (prod * a).tail_sum(0) != INF
    # sup-type needs w_k a_k -> 0, which also makes the sup finite
    return prod.ratio < 1 or (prod.ratio == 1 and prod.power < 0)


@dataclass(frozen=True)
class OperatorModel:
    """Coordinate action (Fx)_k = sum_d mu_d(k) x_{k+d} in closed form.

    kinds: identity, zero, truncation (keep k <= cutoff), diagonal (mu in
    closed form), banded (list of (offset, form)).
    """

    kind: str
    cutoff: int = None
    form: CoordForm = None
    bands: tuple = ()

    @staticmethod
    def identity():
        return OperatorModel("identity")

    @staticmethod
    def zero():
        return OperatorModel("zero")

    @staticmethod
    def truncation(n):
        return OperatorModel("truncation", cutoff=n)

    @staticmethod
    def diagonal(form):
        return OperatorModel("diagonal", form=form)

    @staticmethod
    def banded(bands):
        return OperatorModel("banded", bands=tuple(bands))

    def multiplier(self, k, d=0):
        """mu_d(k), the coefficient of x_{k+d} in (Fx)_k."""
        if self.kind == "identity":
            return Fraction(1) if d == 0 else Fraction(0)
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "truncation":
            return Fraction(1) if (d == 0 and k <= self.cutoff) else Fraction(0)
        if self.kind == "diagonal":
            return self.form.value(k) if d == 0 else Fraction(0)
        for off, form in self.bands:
            if off == d:
                return form.value(k)
        return Fraction(0)

    def offsets(self):
        if self.kind == "banded":
            return tuple(off for off, _ in self.bands)
        return (0,)

    def apply(self, values):
        """Exact action on an explicit finitely supported vector."""
        out = {}
        support = set()
        for d in self.offsets():
            support |= {k - d for k in values}
        for k in support:
            if k < 0:
                continue
            acc = Fraction(0)
            for d in self.offsets():
                acc += self.multiplier(k, d) * values.get(k + d, Fraction(0))
            if acc != 0:
                out[k] = acc
        return out


def _diagonal_form(op):
    """The multiplier of a diagonal-like operator as a CoordForm, or None."""
    if op.kind == "identity":
        return CoordForm(1)
    if op.kind == "zero":
        return CoordForm(0)
    if op.kind == "diagonal":
        return op.form
    return None


def _difference_magnitude_forms(f_n, f_inf, s):
    """Nonnegative closed forms whose sum bounds sup_{x in box} |(F-f)x|_k,
    the index where the forms become exact (truncations make the difference
    vanish below the cutoff), and the last index of a two-truncation
    difference (None otherwise).  Matching diagonal closed forms subtract
    exactly, so identical operators give a zero rate."""
    if {f_n.kind, f_inf.kind} == {"truncation", "identity"}:
        cut = f_n.cutoff if f_n.kind == "truncation" else f_inf.cutoff
        return [s.envelope.abs_form()], cut + 1, None
    if f_n.kind == "truncation" and f_inf.kind == "truncation":
        lo, hi = sorted((f_n.cutoff, f_inf.cutoff))
        return [s.envelope.abs_form()], lo + 1, hi
    diag_n, diag_inf = _diagonal_form(f_n), _diagonal_form(f_inf)
    if diag_n is not None and diag_inf is not None and (
            (diag_n.ratio, diag_n.power) == (diag_inf.ratio, diag_inf.power)
            or diag_n.coeff == 0 or diag_inf.coeff == 0):
        delta = CoordForm(abs(diag_n.coeff - diag_inf.coeff),
                          diag_n.ratio if diag_n.coeff else diag_inf.ratio,
                          diag_n.power if diag_n.coeff else diag_inf.power)
        return [delta * s.envelope.abs_form()], 0, None
    offsets = sorted(set(f_n.offsets()) | set(f_inf.offsets()))
    forms = []
    for d in offsets:
        # |mu^n_d(k) - mu^inf_d(k)| bounded by the triangle of the two forms
        forms_d = []
        for op in (f_n, f_inf):
            if op.kind == "diagonal" and d == 0:
                forms_d.append(op.form)
            elif op.kind == "identity" and d == 0:
                forms_d.append(CoordForm(1))
            elif op.kind == "banded":
                for off, form in op.bands:
                    if off == d:
                        forms_d.append(form)
            elif op.kind == "zero":
                pass
            elif op.kind == "truncation":
                raise InvariantViolation(
                    "truncation differences mix only with identity/truncation")
        shifted_env = CoordForm(
            s.envelope.coeff * s.envelope.ratio**d if d >= 0
            else s.envelope.coeff,
            s.envelope.ratio, s.envelope.power)
        for g in forms_d:
            forms.append(g.abs_form() * shifted_env.abs_form())
    return forms, 0, None


# ---------------------------------------------------------------------------
# rates and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSequence:
    rates: tuple
    verdict: str  # "converges" | "diverges"
    exact: bool

    def as_dict(self):
        return {"rates": list(self.rates), "verdict": self.verdict,
                "exact": self.exact}


def _rate_of_pair(f_n, f_inf, s, t_gauge):
    """(certified raw rate, exact flag); raw is the radicand for l2 gauges."""
    forms, start, hi = _difference_magnitude_forms(f_n, f_inf, s)
    if hi is not None:
        # difference of two truncations lives on [start, hi]
        total = t_gauge.of_magnitudes(forms, start)
        beyond = t_gauge.of_magnitudes(forms, hi + 1)
        if t_gauge.kind == L2:
            raw = total - beyond if total != INF and beyond != INF else INF
            return raw, True
        if t_gauge.kind == L1 and total != INF and beyond != INF:
            return total - beyond, True
        return total, False  # sup over a superset: upper bound only
    exact = len(forms) <= 1  # single closed form: sup attained at the envelope
    return t_gauge.of_magnitudes(forms, start), exact


def uniform_convergence_on_set(family, f_inf, s, t_gauge):
    """Certified rates eps_n with (F_n - f)(box) inside eps_n * (gauge ball).

    For truncation and matching-diagonal pairs the supremum over the box is
    attained at x_k = a_k up to phase, so the rates are exact (one floating
    square root for the l2 gauge); otherwise they are certified upper bounds.
    """
    pairs = [_rate_of_pair(f_n, f_inf, s, t_gauge) for f_n in family]
    raws = [r for r, _ in pairs]
    rates = tuple(t_gauge.finalize(r) for r in raws)
    exact = all(flag for _, flag in pairs)
    converges = _raws_converge(raws)
    return RateSequence(rates, "converges" if converges else "diverges",
                        exact), raws


def _raws_converge(raws):
    if any(r == INF for r in raws):
        return False
    if not raws:
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
    """Certified bound for the gauge-to-gauge norm of a coordinate operator."""
    if op.kind in ("identity", "truncation"):
        return Fraction(1)
    if op.kind == "zero":
        return Fraction(0)
    if op.kind == "diagonal":
        return op.form.abs_form().sup_from(0)
    total = Fraction(0)
    for _off, form in op.bands:
        b = form.abs_form().sup_from(0)
        if b == INF:
            return INF
        total += b
    return total


def pointwise_vs_uniform_check(family, f_inf, s, t_gauge, n_patterns=8):
    """Pointwise convergence on box extreme points must match the uniform
    verdict for an equibounded family; disagreement is a kernel bug.

    Each of the ``n_patterns`` sampled points takes seeded random signs on
    the first 64 coordinates.
    """
    bound = family.declared_bound
    for op in family.operators:
        b = operator_gauge_bound(op, t_gauge)
        if b == INF or b > bound:
            raise EquiboundednessError(
                f"operator {op.kind} exceeds the declared bound {bound}")
    uniform, raws = uniform_convergence_on_set(family.operators, f_inf, s,
                                               t_gauge)
    rng = np.random.default_rng(0xB00C)
    pointwise_ok = True
    for _ in range(n_patterns):
        signs = rng.integers(0, 2, size=64) * 2 - 1
        x = {k: Fraction(int(signs[k])) * s.coordinate_bound(k)
             for k in range(64)}
        x = {k: v for k, v in x.items() if v != 0}
        f_x = f_inf.apply(x)
        values = []
        for op in family.operators:
            diff = dict(op.apply(x))
            for k, v in f_x.items():
                diff[k] = diff.get(k, Fraction(0)) - v
            values.append(t_gauge.of_vector(diff))
        if values and not (values[-1] <= values[0] or values[-1] == 0):
            pointwise_ok = False
        if values and uniform.verdict == "converges":
            # sampled points never exceed the certified rates
            for v, raw in zip(values, raws):
                if raw != INF and v > raw + Fraction(1, 10**12):
                    raise InvariantViolation(
                        "sampled point exceeds its certified rate")
    pointwise_verdict = "converges" if pointwise_ok else "diverges"
    if (uniform.verdict == "converges") != (pointwise_verdict == "converges"):
        raise InvariantViolation(
            "pointwise and uniform verdicts disagree for an equibounded "
            "family")
    return {"uniform": uniform, "pointwise": pointwise_verdict,
            "agree": True}


@dataclass(frozen=True)
class ApproxPropertyReport:
    rank: int
    rates: tuple
    witness_scale: float
    tolerance: float

    def as_dict(self):
        return {"rank": self.rank, "rates": list(self.rates),
                "witness_scale": self.witness_scale,
                "tolerance": self.tolerance}


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
    (number of kept coordinates) meeting the tolerance.
    """
    if not precompactness_check(s, t_gauge):
        raise ValueError("envelope is not compact under this gauge")
    tol = _frac(tolerance)
    target = tol * tol if t_gauge.kind == L2 else tol
    identity = OperatorModel.identity()
    raws = []
    rank = None
    for n in range(-1, rank_budget + 1):  # truncation(-1) is the zero map
        raw, _exact = _rate_of_pair(OperatorModel.truncation(n), identity, s,
                                    t_gauge)
        raws.append(raw)
        if raw <= target:
            rank = n + 1  # coordinates 0..n
            break
    if rank is None:
        required = len(raws)
        n = rank_budget
        while n < 10**6:
            n += max(1, n)
            if _rate_of_pair(OperatorModel.truncation(n), identity, s,
                             t_gauge)[0] <= target:
                required = n + 1
                break
        raise RankBudgetError(rank_budget, required)
    scale = t_gauge.finalize(t_gauge.of_magnitudes([s.envelope.abs_form()], 0))
    return ApproxPropertyReport(rank, tuple(t_gauge.finalize(r) for r in raws),
                                scale, float(tol))
