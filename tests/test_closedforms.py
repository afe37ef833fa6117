"""The shared closed-form layer: CoordForm sups and tail sums, shifted
series sums, and exact conversion of inputs, checked against brute-force
windows."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from borno import closedforms
from borno.closedforms import (CoordForm, DiskForm, EnvTerm, Envelope,
                               EpsForm, WeightForm, _exact_at_least, _frac,
                               _step_ratio, at_least, decay_start, first_true,
                               geom_poly_sup, sum_poly_geom,
                               sum_shift_poly_geom)

INF = math.inf

coeffs = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
# 0 <= r <= 9/10: c r^k (k+1)^p with p <= 4 peaks below k = 40
decaying = st.builds(lambda n, d: Fraction(n, d),
                     st.integers(0, 9), st.integers(10, 12))
growing = st.builds(lambda n, d: Fraction(n, d) + 1,
                    st.integers(1, 5), st.integers(1, 5))
starts = st.integers(0, 20)
WINDOW = 200
SETTINGS = settings(max_examples=60, deadline=None)


def window(form, start, length=WINDOW):
    return [form.value(k) for k in range(start, start + length)]


class TestSupFrom:
    @SETTINGS
    @given(c=coeffs, r=decaying, p=st.integers(0, 4), start=starts)
    def test_matches_window_past_the_peak(self, c, r, p, start):
        form = CoordForm(c, r, p)
        assert form.sup_from(start) == max(window(form, start))

    @SETTINGS
    @given(c=coeffs, r=st.one_of(decaying, st.just(Fraction(1))),
           p=st.integers(-4, -1), start=starts)
    def test_negative_power_peaks_at_the_start(self, c, r, p, start):
        form = CoordForm(c, r, p)
        assert form.sup_from(start) == form.value(start)
        assert form.value(start) == max(window(form, start))

    @SETTINGS
    @given(c=coeffs, r=growing, p=st.integers(-4, 4), start=starts)
    def test_growing_ratio_is_unbounded(self, c, r, p, start):
        assert CoordForm(c, r, p).sup_from(start) == INF
        assert CoordForm(c, r, p).tail_sum(start) == INF

    @SETTINGS
    @given(c=coeffs, p=st.integers(1, 4), start=starts)
    def test_unit_ratio_with_growing_power_is_unbounded(self, c, p, start):
        assert CoordForm(c, 1, p).sup_from(start) == INF

    @SETTINGS
    @given(c=coeffs, r=st.one_of(decaying, growing, st.just(Fraction(1))),
           p=st.integers(-4, 4), start=starts, length=st.integers(0, 60))
    def test_sup_over_a_window_matches_the_window(self, c, r, p, start,
                                                  length):
        # the last index may fall before, at or past the peak
        form = CoordForm(c, r, p)
        assert form.sup_from(start, start + length - 1) == max(
            window(form, start, length), default=0)

    def test_unit_ratio_constant_and_zero_form(self):
        assert CoordForm(Fraction(3, 2)).sup_from(7) == Fraction(3, 2)
        assert CoordForm(0, 2, 3).sup_from(0) == 0
        assert CoordForm(0, 2, 3).tail_sum(0) == 0

    @pytest.mark.parametrize("ratio, power", [(2, -1), (3, -4), (1, -1),
                                              (Fraction(1, 2), -2)])
    def test_zero_form_with_negative_power_has_sup_zero(self, ratio, power):
        assert CoordForm(0, ratio, power).sup_from(0) == 0
        assert CoordForm(0, ratio, power).sup_from(5) == 0


class TestTailSum:
    @SETTINGS
    @given(c=coeffs, r=decaying, p=st.integers(0, 4), start=starts,
           n=st.integers(0, 30))
    def test_exact_tail_identity(self, c, r, p, start, n):
        form = CoordForm(c, r, p)
        head = sum(window(form, start, n + 1), Fraction(0))
        assert form.tail_sum(start) - head == form.tail_sum(start + n + 1)

    @SETTINGS
    @given(c=coeffs, p=st.integers(-1, 4), start=starts)
    def test_unit_ratio_without_fast_decay_diverges(self, c, p, start):
        assert CoordForm(c, 1, p).tail_sum(start) == INF

    @SETTINGS
    @given(c=coeffs, r=st.one_of(decaying, st.just(Fraction(1))),
           p=st.integers(-4, -2), start=starts)
    def test_negative_power_bound_dominates_the_window(self, c, r, p, start):
        form = CoordForm(c, r, p)
        assert form.tail_sum(start) >= sum(window(form, start), Fraction(0))

    @settings(max_examples=200, deadline=None)
    @given(c=st.integers(0, 12),
           r=st.one_of(st.just(Fraction(1)),
                       st.fractions(0, 3, max_denominator=6)),
           p=st.integers(-3, 3), a=st.integers(0, 40), b=st.integers(0, 40))
    def test_window_measures_match_the_window(self, c, r, p, a, b):
        a, b = min(a, b), max(a, b)
        form = CoordForm(c, r, p)
        values = [form.value(k) for k in range(a, b + 1)]
        assert form.sup_from(a, b) == max(values)
        total = sum(values, Fraction(0))
        assert form.tail_sum(a, b) >= total
        if form.sums_exactly(b):
            assert form.tail_sum(a, b) == total
        assert form.sup_from(b + 1, b) == form.tail_sum(b + 1, b) == 0

    def test_window_of_a_growing_form_is_its_length_times_its_sup(self):
        # 4^k on 0 <= k <= 3 sums to 85; 2^k / (k+1) is log-convex
        assert CoordForm(1, 4).tail_sum(0, 3) == 4 * 64
        assert not CoordForm(1, 4).sums_exactly(3)
        assert CoordForm(1, 4).sums_exactly(None)  # inf is the sum
        assert CoordForm(1, 2, -1).tail_sum(2, 5) == 4 * Fraction(32, 6)
        assert CoordForm(3).tail_sum(2, 5) == 12
        assert CoordForm(3).sums_exactly(5)


class TestShiftedSums:
    @SETTINGS
    @given(p=st.integers(0, 4), shift=st.integers(0, 5),
           y=st.builds(Fraction, st.integers(-9, 9), st.just(10)),
           start=starts, n=st.integers(0, 30), stride=st.sampled_from([1, 2]))
    def test_exact_tail_identity(self, p, shift, y, start, n, stride):
        head = sum((Fraction(stride * t + shift) ** p * y**t
                    for t in range(start, start + n + 1)), Fraction(0))
        assert (sum_shift_poly_geom(p, shift, y, start, stride) - head
                == sum_shift_poly_geom(p, shift, y, start + n + 1, stride))

    def test_stride_two_closed_form(self):
        # sum_{t>=0} (2t + 1) (1/4)^t = 2 (4/9) + 4/3 = 20/9
        total = sum_shift_poly_geom(1, 1, Fraction(1, 4), 0, 2)
        assert total == Fraction(20, 9)

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(0, 6),
           shift=st.fractions(-8, 8, max_denominator=6),
           stride=st.integers(1, 3), start=st.integers(0, 200),
           y=st.one_of(st.just(Fraction(0)),
                       st.fractions(Fraction(-99, 100), Fraction(99, 100),
                                    max_denominator=100)))
    def test_matches_full_sum_minus_head(self, p, shift, stride, start, y):
        assert (sum_shift_poly_geom(p, shift, y, start, stride)
                == shift_sum_by_head(p, shift, y, start, stride))

    def test_eulerian_sum_matches_the_recurrence(self):
        # the full sums from 0 carry N_p(y) / (1-y)^(p+1), for p <= 8
        for p in range(9):
            for y in (Fraction(1, 2), Fraction(-2, 3), Fraction(9, 10)):
                numer = sum_poly_geom(p, y, 0) * (1 - y) ** (p + 1)
                assert numer == poly_eval(eulerian_by_recurrence(p), y)

    def test_start_far_out_is_fast_and_exact(self):
        # the closed form sums no head, so the start does not enter its cost
        y = Fraction(99, 100)
        far = sum_poly_geom(2, y, 2000)
        near = sum_poly_geom(2, y, 1990)
        assert near - far == sum(Fraction(t) ** 2 * y**t
                                 for t in range(1990, 2000))

    def test_zero_ratio(self):
        assert sum_shift_poly_geom(0, 5, 0, 0) == 1
        assert sum_shift_poly_geom(3, 2, 0, 0) == 8
        assert sum_shift_poly_geom(3, 2, 0, 1) == 0
        with pytest.raises(ValueError, match="requires"):
            sum_shift_poly_geom(1, 0, 1, 0)


def poly_eval(coeffs, y):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def eulerian_by_recurrence(p):
    """N_p with sum_{t>=0} t^p y^t = N_p(y) / (1-y)^(p+1), from
    N_i = y (N'_{i-1} (1 - y) + i N_{i-1})."""
    n = [Fraction(1)]
    for i in range(1, p + 1):
        deriv = [k * c for k, c in enumerate(n)][1:] or [Fraction(0)]
        term = [a - b for a, b in zip(deriv + [Fraction(0)],
                                      [Fraction(0)] + deriv)]
        combined = [Fraction(0)] * max(len(term), len(n))
        for k, c in enumerate(term):
            combined[k] += c
        for k, c in enumerate(n):
            combined[k] += i * c
        n = [Fraction(0)] + combined
        while len(n) > 1 and n[-1] == 0:
            n.pop()
    return n


def shift_sum_by_head(power, shift, y, start, stride=1):
    """The series as the full sums from 0 minus a head of ``start`` terms,
    expanded binomially in the shift: the formula the closed form replaced."""
    def poly_geom(i):
        if y == 0:
            return Fraction(0) if (start > 0 or i > 0) else Fraction(1)
        full = poly_eval(eulerian_by_recurrence(i), y) / (1 - y) ** (i + 1)
        head = sum((Fraction(t) ** i if i else Fraction(1)) * y**t
                   for t in range(start))
        return full - head
    return sum((math.comb(power, i) * shift ** (power - i) * stride**i
                * poly_geom(i) for i in range(power + 1)), Fraction(0))


class TestDiskFormScale:
    """A gauge at scale c is the scale-1 gauge over c; an l2 bound is a
    radicand, so over c^2."""

    pieces = st.lists(st.tuples(
        st.builds(CoordForm, coeffs, decaying, st.integers(-2, 3)),
        st.integers(0, 10), st.one_of(st.none(), st.integers(0, 30))),
        max_size=3)

    @SETTINGS
    @given(kind=st.sampled_from(["sum", "sup", "l2"]),
           weight=st.builds(WeightForm, coeffs, st.sampled_from(
               [Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
               st.integers(0, 3)),
           scale=coeffs, pieces=pieces,
           coords=st.dictionaries(st.integers(0, 40), st.builds(
               Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6))
    def test_scale_divides_the_aggregate(self, kind, weight, scale, pieces,
                                         coords):
        unit, scaled = DiskForm(kind, weight), DiskForm(kind, weight, scale)
        divisor = scale**2 if kind == "l2" else scale
        assert scaled.of_vector(coords) == unit.of_vector(coords) / divisor
        bound, exact = unit.of_magnitudes(pieces)
        assert scaled.of_magnitudes(pieces) == (bound / divisor, exact)

    def test_unknown_kind_and_scale_are_rejected(self):
        with pytest.raises(ValueError, match="unknown gauge kind 'l1'"):
            DiskForm("l1")
        with pytest.raises(ValueError, match="scale must be positive"):
            DiskForm("l2", scale=0)


class TestExactInputs:
    def test_floats_keep_their_binary_value(self):
        assert _frac(1e-13) == Fraction(1e-13) != 0
        assert _frac(1 / 3) == Fraction(1 / 3) != Fraction(1, 3)
        assert _frac(0.5) == Fraction(1, 2)

    def test_tiny_float_form_is_not_zero(self):
        form = CoordForm(1e-13, 0.5)
        assert form.coeff == Fraction(1e-13)
        assert form.sup_from(0) == Fraction(1e-13)


class TestEpsSubsequence:
    @pytest.mark.parametrize("eps", [
        EpsForm.geometric(3, Fraction(2, 3)),
        EpsForm("invpoly", 3, alpha=2, beta=Fraction(1, 2), power=2),
    ], ids=["geom", "invpoly"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_reindexes_the_tower(self, eps, level):
        eps = eps.sqrt() if level else eps
        sub = eps.subsequence(3, 4)
        assert (sub.kind, sub.level) == (eps.kind, level)
        for m in range(20):
            assert sub._tower_value(m) == eps._tower_value(3 * m + 4)


class TestEnvTerm:
    def test_negative_power_is_rejected(self):
        # (m + 1)^-5 2^-m has a smaller ratio than 0.45^m early on, which
        # would certify domination from 0, yet it exceeds 0.45^m from m = 265
        m = 265
        assert Fraction(1, 2) ** m * Fraction(m + 1) ** -5 > Fraction(45, 100) ** m
        with pytest.raises(ValueError, match="nonnegative"):
            EnvTerm(Fraction(1), Fraction(1, 2), 1, -5)

    @pytest.mark.parametrize("shift", [0, -1])
    def test_shift_below_one_is_rejected(self, shift):
        # the step ratio divides by m + shift, and the filter takes its log
        with pytest.raises(ValueError, match="shift"):
            EnvTerm(Fraction(1), Fraction(1, 2), shift, 0)

    @pytest.mark.parametrize("coeff, ratio", [(-1, Fraction(1, 2)),
                                              (1, Fraction(-1, 2))])
    def test_negative_coefficient_or_ratio_is_rejected(self, coeff, ratio):
        # the filter takes the log of both
        with pytest.raises(ValueError, match="nonnegative"):
            EnvTerm(Fraction(coeff), ratio)

    def test_zero_power_dominates_as_before(self):
        env = Envelope([EnvTerm(Fraction(1), Fraction(1, 3), 1, 0)])
        assert env.dominated_from(EpsForm.geometric(1, Fraction(1, 2)), 0) == 0


def linear_first_true(pred, lo, hi=None):
    """The linear scan first_true replaces: lo, lo + 1, ... up to hi."""
    k = lo
    while hi is None or k <= hi:
        if pred(k):
            return k
        k += 1
    return None


def geom_poly_sup_scan(c, b, p, start):
    """The walk geom_poly_sup used for b < 1: the running maximum of the
    values up to the first k whose step ratio is <= 1."""
    c, b = Fraction(c), Fraction(b)
    k = start
    best = c * b**k * Fraction(k + 1) ** p
    while True:
        ratio = b * (Fraction(k + 2) / Fraction(k + 1)) ** p
        if ratio <= 1:
            break
        k += 1
        best = max(best, c * b**k * Fraction(k + 1) ** p)
    return best


class TestFirstTrue:
    @settings(max_examples=200, deadline=None)
    @given(threshold=st.integers(0, 3000), lo=st.integers(0, 3000),
           cap=st.one_of(st.none(), st.integers(0, 3000)))
    def test_matches_linear_scan(self, threshold, lo, cap):
        # cap None: no cap; otherwise hi = lo + cap, hit or missed
        hi = None if cap is None else lo + cap
        pred = lambda k: k >= threshold  # noqa: E731
        assert first_true(pred, lo, hi) == linear_first_true(pred, lo, hi)

    @pytest.mark.parametrize("threshold, expected",
                             [(0, 0), (5, 5), (6, 6), (7, None), (100, None)])
    def test_cap_is_inclusive(self, threshold, expected):
        assert first_true(lambda k: k >= threshold, 0, 6) == expected

    def test_calls_grow_with_the_log_of_the_index(self):
        calls = []
        assert first_true(lambda k: calls.append(k) or k >= 4000, 0) == 4000
        assert len(calls) <= 30


# b < 1 near 1, powers 0-4, starts before and past the peak
NEAR_ONE = [Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(2, 3),
            Fraction(9, 10), Fraction(19, 20), Fraction(99, 100)]


class TestGeomPolySupWalk:
    @pytest.mark.parametrize("b", NEAR_ONE, ids=str)
    @pytest.mark.parametrize("p", range(5))
    def test_matches_the_running_maximum(self, b, p):
        # the peak of b^k (k+1)^p sits near p / (1 - b); start before it,
        # at it and past it
        peak = int(p / (1 - b)) if b < 1 else 0
        for start in sorted({0, 1, max(peak - 1, 0), peak, peak + 1,
                             peak + 17}):
            for c in (Fraction(1), Fraction(3, 7)):
                assert (geom_poly_sup(c, b, p, start)
                        == geom_poly_sup_scan(c, b, p, start))

    @SETTINGS
    @given(c=coeffs, r=decaying, p=st.integers(0, 4), start=st.integers(0, 80))
    def test_property_against_the_walk(self, c, r, p, start):
        assert geom_poly_sup(c, r, p, start) == geom_poly_sup_scan(c, r, p,
                                                                   start)


class TestDecayStart:
    @SETTINGS
    @given(r=decaying, p=st.integers(0, 4), start=st.integers(0, 60),
           shift=st.integers(1, 5))
    def test_matches_the_linear_scan(self, r, p, start, shift):
        def pred(k):
            return r * (Fraction(k + 1 + shift) / Fraction(k + shift)) ** p <= 1
        assert decay_start(r, p, start, shift) == linear_first_true(pred, start)

    def test_cap_is_inclusive(self):
        # (11/12) (k+2)/(k+1) <= 1 exactly from k = 10 on, (12/13) from 11
        assert decay_start(Fraction(11, 12), 1, cap=10) == 10
        assert decay_start(Fraction(12, 13), 1, cap=10) is None


class TestEnvelopeSup:
    def test_bounds_the_window(self):
        env = Envelope([EnvTerm(Fraction(3), Fraction(9, 10), 2, 2),
                        EnvTerm(Fraction(1), Fraction(1, 2), 1, 0)])
        for n0 in (0, 5, 40):
            assert env.sup_from(n0) >= max(env.value(m)
                                           for m in range(n0, n0 + 300))
        # with divisor 1/2 every term's ratio doubles
        assert env.sup_from(3, Fraction(1, 2)) == INF

    def test_returns_inf_before_adding_later_terms(self):
        env = Envelope([EnvTerm(Fraction(1), Fraction(2), 1, 0),
                        EnvTerm(Fraction(1), Fraction(1, 2), 1, 0)])
        assert env.sup_from(0) == INF
        assert Envelope((), True).sup_from(0) == INF
        assert Envelope(()).sup_from(7) == 0


# ---------------------------------------------------------------------------
# filtered comparisons against Fraction arithmetic
# ---------------------------------------------------------------------------

def exact_ge_value(eps, m, x):
    return eps._tower_value(m) >= Fraction(x) ** (2**eps.level)


def exact_ratio_at_least(eps, m, r):
    return (eps._tower_value(m + 1)
            >= eps._tower_value(m) * Fraction(r) ** (2**eps.level))


def dominated_from_walk(env, eps, m_start):
    """Envelope.dominated_from as an exact linear walk: the same two loops
    and the same cap, every comparison in Fraction arithmetic."""
    scan_cap = 4096
    if env.infinite:
        return None
    m_ratio = m_start
    for t in env.terms:
        m = m_start
        while not exact_ratio_at_least(
                eps, m, _step_ratio(t.ratio, t.power, m, t.shift)):
            m += 1
            if m > m_start + scan_cap:
                return None
        m_ratio = max(m_ratio, m)
    for m in range(m_ratio, m_start + scan_cap + 1):
        if exact_ge_value(eps, m, env.value(m)):
            return m
    return None


@st.composite
def big_rationals(draw):
    """Positive rationals of magnitude 10^-400 to 10^400."""
    return (Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
            * Fraction(10) ** draw(st.integers(-400, 400)))


@st.composite
def products(draw):
    """c r^m (m+s)^p as at_least's factors, now and then with c = 0."""
    c = draw(st.one_of(big_rationals(), st.just(Fraction(0))))
    r = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    m = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**16)))
    return ((c, 1), (r, m),
            (m + draw(st.integers(1, 5)), draw(st.integers(-3, 3))))


def nudged(product, sign, digits):
    """product times 1 + sign 10^-digits."""
    return product + ((Fraction(10**digits + sign, 10**digits), 1),)


class TestFilteredComparison:
    @settings(max_examples=150, deadline=None)
    @given(rhs=st.lists(products(), max_size=3), level=st.integers(0, 2),
           how=st.sampled_from(["equal", "near", "far"]),
           sign=st.sampled_from([1, -1]), digits=st.integers(1, 400),
           far=st.lists(products(), max_size=3))
    def test_matches_the_exact_comparison(self, rhs, level, how, sign,
                                          digits, far):
        power = 2**level
        if power > 1:  # one product on the right: its power is a product
            rhs = rhs[:1]
        lhs = [tuple((b, e * power) for b, e in p) for p in reversed(rhs)]
        if how == "near" and lhs:
            lhs[0] = nudged(lhs[0], sign, digits)
        elif how == "far":
            lhs = far
        assert at_least(lhs, rhs, power) == _exact_at_least(lhs, rhs, power)
        assert at_least(rhs, lhs) == _exact_at_least(rhs, lhs)

    @settings(max_examples=60, deadline=None)
    @given(a=big_rationals(), q=st.fractions(Fraction(1, 40), 1, max_denominator=40),
           kind=st.sampled_from(["geom", "invpoly"]), level=st.integers(0, 2),
           m=st.one_of(st.integers(0, 64), st.integers(0, 2**16)),
           how=st.sampled_from(["equal", "near", "far"]),
           sign=st.sampled_from([1, -1]), digits=st.integers(1, 400),
           far=big_rationals())
    def test_eps_comparisons_match_fraction_arithmetic(
            self, a, q, kind, level, m, how, sign, digits, far):
        # value(m) is rational: a q^m, or a / (m + 1/2)^2 (power 2 per level)
        power = 2**level
        if kind == "geom":
            eps = EpsForm("geom", a**power, q**power, level=level)
            value = lambda k: a * q**k  # noqa: E731
        else:
            eps = EpsForm("invpoly", a**power, alpha=1, beta=Fraction(1, 2),
                          power=2 * power, level=level)
            value = lambda k: a / (k + Fraction(1, 2)) ** 2  # noqa: E731
        value, step = value(m), value(m + 1) / value(m)
        x, r = {"equal": (value, step),
                "near": (value * (1 + Fraction(sign, 10**digits)),
                         step * (1 + Fraction(sign, 10**digits))),
                "far": (far, far)}[how]
        assert eps.ge_value(m, x) == exact_ge_value(eps, m, x)
        assert eps.le_value(m, x) == (eps._tower_value(m) <= x**power)
        assert eps.ratio_at_least(m, r) == exact_ratio_at_least(eps, m, r)
        assert eps.ge_value(m, 0) and not eps.le_value(m, 0)
        assert eps.ratio_at_least(m, 0)

    def test_tiny_values_do_not_underflow(self):
        # 10^-400 (3/4)^m against (1/2)^m: a float of either side is 0
        eps = EpsForm.geometric(1, Fraction(1, 2))
        tiny = Fraction(1, 10**400)
        for m in (2271, 2272):
            x = tiny * Fraction(3, 4) ** m
            assert eps.ge_value(m, x) == exact_ge_value(eps, m, x)
            assert eps.ge_value(m, x) == (m < 2272)


# eps ratios at level 0 and term ratios share values, so equal ratios tie
TIE_RATIOS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]


@st.composite
def envelopes(draw):
    return Envelope([EnvTerm(draw(st.one_of(coeffs, big_rationals())),
                             draw(st.sampled_from([Fraction(0), Fraction(1)]
                                                  + TIE_RATIOS)),
                             draw(st.integers(1, 3)), draw(st.integers(0, 2)))
                     for _ in range(draw(st.integers(1, 3)))])


@st.composite
def eps_forms(draw):
    level = draw(st.integers(0, 2))
    if draw(st.booleans()):
        q = draw(st.sampled_from(TIE_RATIOS))
        eps = EpsForm.geometric(draw(st.one_of(coeffs, big_rationals())),
                                q ** 2**level)
    else:
        eps = EpsForm("invpoly", draw(coeffs), alpha=draw(coeffs),
                      beta=draw(coeffs), power=draw(st.integers(1, 3)))
    for _ in range(level):
        eps = eps.sqrt()
    return eps


class TestDominatedFrom:
    @settings(max_examples=25, deadline=None)
    @given(env=envelopes(), eps=eps_forms(), m_start=st.integers(0, 30))
    def test_matches_the_exact_walk(self, env, eps, m_start):
        assert (env.dominated_from(eps, m_start)
                == dominated_from_walk(env, eps, m_start))

    @settings(max_examples=12, deadline=None)
    @given(m_start=st.integers(0, 30), offset=st.integers(-2, 2),
           power=st.integers(1, 2), shift=st.integers(1, 3),
           level=st.integers(0, 2))
    def test_ratio_certificate_near_the_cap(self, m_start, offset, power,
                                            shift, level):
        # the term's step ratio r ((k+1+s)/(k+s))^p equals eps's 1/2 at
        # k = m_start + 4096 + offset, and is below it from there on
        k = m_start + 4096 + offset
        r = Fraction(1, 2) * (Fraction(k + shift, k + 1 + shift)) ** power
        env = Envelope([EnvTerm(Fraction(1, 10**9), r, shift, power)])
        eps = EpsForm.geometric(1, Fraction(1, 2) ** 2**level)
        for _ in range(level):
            eps = eps.sqrt()
        got = env.dominated_from(eps, m_start)
        assert got == dominated_from_walk(env, eps, m_start)
        assert got == (k if offset <= 0 else None)

    @settings(max_examples=6, deadline=None)
    @given(m_start=st.integers(0, 30), offset=st.integers(-2, 2),
           level=st.integers(0, 2))
    def test_value_certificate_near_the_cap(self, m_start, offset, level):
        # 2^k (1/4)^m equals eps's (1/2)^m at k = m_start + 4096 + offset
        k = m_start + 4096 + offset
        env = Envelope([EnvTerm(Fraction(2**k), Fraction(1, 4), 1, 0)])
        eps = EpsForm.geometric(1, Fraction(1, 2) ** 2**level)
        for _ in range(level):
            eps = eps.sqrt()
        got = env.dominated_from(eps, m_start)
        assert got == dominated_from_walk(env, eps, m_start)
        assert got == (k if offset <= 0 else None)

    def test_a_far_walk_to_the_cap_never_goes_exact(self, monkeypatch):
        calls = []
        exact = closedforms._exact_at_least
        monkeypatch.setattr(closedforms, "_exact_at_least",
                            lambda *a: calls.append(a) or exact(*a))
        env = Envelope([EnvTerm(1, Fraction(3, 4))])
        assert env.dominated_from(EpsForm.geometric(1, Fraction(2, 3)), 0) is None
        assert calls == []

    def test_an_equal_ratio_tie_goes_exact(self, monkeypatch):
        calls = []
        exact = closedforms._exact_at_least
        monkeypatch.setattr(closedforms, "_exact_at_least",
                            lambda *a: calls.append(a) or exact(*a))
        # both ratio and value tie at m = 0: (2/3)^m against (2/3)^m
        env = Envelope([EnvTerm(1, Fraction(2, 3))])
        eps = EpsForm.geometric(1, Fraction(2, 3))
        assert env.dominated_from(eps, 0) == dominated_from_walk(env, eps, 0) == 0
        assert len(calls) == 2
