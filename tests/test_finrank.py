import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borno.closedforms import INF, WeightForm, first_true
from borno.errors import EquiboundednessError
from borno.finrank import (
    CompactSetModel,
    CoordForm,
    GaugeModel,
    OperatorFamily,
    OperatorModel,
    RankBudgetError,
    _rate_of_pair,
    local_approx_property_check,
    operator_gauge_bound,
    pointwise_vs_uniform_check,
    precompactness_check,
    uniform_convergence_on_set,
)

HALF = Fraction(1, 2)
GEO_BOX = CompactSetModel.geometric(1, HALF)
L2 = GaugeModel("l2")
L1 = GaugeModel("l1")
SUP = GaugeModel("sup")
GROWING_L1 = GaugeModel("l1", WeightForm.geometric(1, Fraction(3, 2)))
GAUGES = [GaugeModel(kind, weight) for kind in ("sup", "l1", "l2")
          for weight in (WeightForm(), WeightForm.geometric(1, Fraction(3, 2)),
                         WeightForm(1, HALF, 2))]

FORMS = st.builds(CoordForm, st.sampled_from([1, -1, HALF, 2]),
                  st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4), 1]),
                  st.integers(-2, 2))
BANDS = st.lists(st.tuples(st.integers(-2, 3), FORMS), max_size=3)
OPERATORS = st.one_of(
    BANDS.map(OperatorModel.banded),
    st.integers(-1, 4).map(OperatorModel.truncation),
    FORMS.map(OperatorModel.diagonal),
    st.sampled_from([OperatorModel.identity(), OperatorModel.zero()]))
BOXES = st.builds(lambda c, r, p: CompactSetModel(CoordForm(c, r, p)),
                  st.sampled_from([1, 3, HALF]),
                  st.integers(1, 9).map(lambda n: Fraction(n, 10)),
                  st.integers(-2, 3))


def sampled_box_points(box, seed, count=4, horizon=64):
    """Box points with seeded random signs on the first ``horizon``
    coordinates and the envelope's magnitudes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        signs = rng.integers(0, 2, size=horizon) * 2 - 1
        yield {k: int(signs[k]) * box.coordinate_bound(k)
               for k in range(horizon)}


def window_max(f_n, f_inf, box, gauge, window=8):
    """The largest gauge of (F-f)x over the box points with every sign
    pattern on the first ``window`` coordinates and zeros beyond: a lower
    bound for the supremum any certified rate must reach."""
    best = Fraction(0)
    for signs in itertools.product((1, -1), repeat=window):
        x = {k: signs[k] * box.coordinate_bound(k) for k in range(window)}
        best = max(best, gauge.of_vector(difference(f_n, f_inf, x)))
    return best


def difference(f_n, f_inf, x):
    diff = dict(f_n.apply(x))
    for k, v in f_inf.apply(x).items():
        diff[k] = diff.get(k, Fraction(0)) - v
    return diff


class TestPrecompactness:
    def test_geometric_box_is_compact(self):
        for gauge in (L2, L1, SUP):
            assert precompactness_check(GEO_BOX, gauge)

    def test_unit_box_not_compact_in_l1(self):
        box = CompactSetModel(CoordForm(1))
        assert not precompactness_check(box, L1)
        assert not precompactness_check(box, SUP)  # coordinates do not decay

    def test_zero_box_is_compact_under_every_gauge(self):
        box = CompactSetModel(CoordForm(0))
        for gauge in (SUP, L1, L2):
            assert precompactness_check(box, gauge)
            assert local_approx_property_check(box, gauge,
                                               Fraction(1, 100)).rank == 0

    def test_inverse_poly_box(self):
        box = CompactSetModel.inverse_poly(1, 2)
        assert precompactness_check(box, L1)


class TestUniformConvergence:
    def test_truncation_rates_closed_form(self):
        fam = [OperatorModel.truncation(n) for n in range(1, 9)]
        rates, raws = uniform_convergence_on_set(fam, OperatorModel.identity(),
                                                 GEO_BOX, L2)
        for n, rate in zip(range(1, 9), rates.rates):
            assert rate == pytest.approx(2.0 ** (-n) / math.sqrt(3),
                                         abs=1e-15)
        assert rates.verdict == "converges"
        assert rates.exact

    def test_eps4_value(self):
        fam = [OperatorModel.truncation(4)]
        rates, _ = uniform_convergence_on_set(fam, OperatorModel.identity(),
                                              GEO_BOX, L2)
        assert abs(rates.rates[0] - 2.0 ** (-4) / math.sqrt(3)) <= 1e-12

    def test_identical_family_zero_rates(self):
        f = OperatorModel.diagonal(CoordForm(1, HALF))
        rates, _ = uniform_convergence_on_set([f, f], f, GEO_BOX, L2)
        assert rates.rates == (0.0, 0.0)
        assert rates.verdict == "converges"

    def test_l2_rate_without_a_finite_square_sum(self):
        # |(F - 0) x|_k reaches 2^k 2^-k = 1 on the box, for every k
        grow = OperatorModel.diagonal(CoordForm(1, 2))
        rates, raws = uniform_convergence_on_set([grow], OperatorModel.zero(),
                                                 GEO_BOX, L2)
        assert raws == [INF] and rates.rates == (math.inf,)
        assert rates.verdict == "diverges"

    def test_identity_vs_zero_constant_rates(self):
        fam = [OperatorModel.identity()] * 3
        rates, _ = uniform_convergence_on_set(fam, OperatorModel.zero(),
                                              GEO_BOX, L2)
        assert rates.verdict == "diverges"
        assert rates.rates[0] == rates.rates[-1] > 0

    def test_truncation_monotonicity(self):
        fam = [OperatorModel.truncation(n) for n in range(12)]
        rates, _ = uniform_convergence_on_set(fam, OperatorModel.identity(),
                                              GEO_BOX, L1)
        assert all(rates.rates[i + 1] <= rates.rates[i]
                   for i in range(len(rates.rates) - 1))

    def test_tiny_float_box_keeps_its_exact_value(self):
        # the box coordinates are 1e-13 * 2^-k, the float's own binary value
        box = CompactSetModel(CoordForm(1e-13, 0.5))
        fam = [OperatorModel.truncation(n) for n in range(3)]
        rates, raws = uniform_convergence_on_set(fam, OperatorModel.identity(),
                                                 box, SUP)
        a = Fraction(1e-13)
        assert raws == [a / 2, a / 4, a / 8]
        assert rates.rates == tuple(float(r) for r in raws)
        assert all(r > 0 for r in rates.rates) and rates.exact

    def test_banded_difference_bound(self):
        shift = OperatorModel.banded([(1, CoordForm(1))])
        rates, _ = uniform_convergence_on_set([shift], OperatorModel.zero(),
                                              GEO_BOX, L1)
        # sum_k a_{k+1} = 1 under unit weights
        assert rates.rates[0] == pytest.approx(1.0)
        assert rates.exact

    def test_bands_at_one_offset_add_up(self):
        op = OperatorModel.banded([(0, CoordForm(1)), (0, CoordForm(HALF))])
        assert op.multiplier(0) == Fraction(3, 2)
        assert op.apply({0: Fraction(1)}) == {0: Fraction(3, 2)}
        rates, _ = uniform_convergence_on_set([op], OperatorModel.zero(),
                                              GEO_BOX, SUP)
        assert rates.rates == (1.5,)

    @pytest.mark.parametrize("band, box, gauge, point_gauge", [
        # (Fx)_k = (k+1) x_{k-1}: 2 at k = 1
        pytest.param((-1, CoordForm(1, 1, 1)), GEO_BOX, SUP, 2, id="left-sup"),
        # sum_{k >= 1} (3/2)^k 2^(1-k) = 6
        pytest.param((-1, CoordForm(1)), GEO_BOX, GROWING_L1, 6,
                     id="left-growing-l1"),
        # (k+2)^3 2^(-k-1) is 8 at k = 2
        pytest.param((1, CoordForm(1)), CompactSetModel(CoordForm(1, HALF, 3)),
                     SUP, 8, id="right-power-box"),
        # the box is the segment x_0 in [-1, 1]; F e_0 = e_1 has gauge 3/2
        pytest.param((-1, CoordForm(1)), CompactSetModel(CoordForm(1, 0)),
                     GROWING_L1, Fraction(3, 2), id="left-point-box"),
    ])
    def test_shifted_band_rate_covers_the_box(self, band, box, gauge,
                                              point_gauge):
        rates, _ = uniform_convergence_on_set([OperatorModel.banded([band])],
                                              OperatorModel.zero(), box, gauge)
        assert rates.rates[0] >= point_gauge
        assert not rates.exact

    @pytest.mark.parametrize("other", [
        OperatorModel.zero(), OperatorModel.diagonal(CoordForm(HALF)),
        OperatorModel.diagonal(CoordForm(-2, HALF, 1)),
        OperatorModel.banded([(1, CoordForm(1))]),
        OperatorModel.banded([(-1, CoordForm(1)), (0, CoordForm(HALF))]),
    ], ids=["zero", "diagonal", "decaying-diagonal", "right-shift", "left-band"])
    @pytest.mark.parametrize("gauge", [SUP, L1, L2, GROWING_L1],
                             ids=["sup", "l1", "l2", "growing-l1"])
    def test_truncation_against_other_operators(self, other, gauge):
        trunc = OperatorModel.truncation(3)
        for f_n, f_inf in ((trunc, other), (other, trunc)):
            _, (raw,) = uniform_convergence_on_set([f_n], f_inf, GEO_BOX, gauge)
            assert raw >= window_max(f_n, f_inf, GEO_BOX, gauge)

    @pytest.mark.parametrize("other, gauge, rate, exact", [
        # the box point x = a cut after coordinate 3
        (OperatorModel.zero(), SUP, 1, False),
        (OperatorModel.zero(), L1, Fraction(15, 8), True),
        (OperatorModel.zero(), L2, Fraction(85, 64), True),
        (OperatorModel.zero(), GROWING_L1, Fraction(175, 64), True),
        # |1 - 1/2| a_k up to the cutoff and |1/2| a_k past it
        (OperatorModel.diagonal(CoordForm(HALF)), SUP, HALF, False),
        (OperatorModel.diagonal(CoordForm(HALF)), L1, 1, True),
        (OperatorModel.diagonal(CoordForm(HALF)), L2, Fraction(1, 3), True),
        # the triangle: a_k on 0..3 plus a_{k+1} everywhere
        (OperatorModel.banded([(1, CoordForm(1))]), L1, Fraction(23, 8), False),
        (OperatorModel.banded([(1, CoordForm(1))]), SUP, Fraction(3, 2), False),
    ], ids=["zero-sup", "zero-l1", "zero-l2", "zero-growing-l1", "half-sup",
            "half-l1", "half-l2", "right-shift-l1", "right-shift-sup"])
    def test_truncation_rates(self, other, gauge, rate, exact):
        rates, (raw,) = uniform_convergence_on_set(
            [OperatorModel.truncation(3)], other, GEO_BOX, gauge)
        assert raw == rate
        assert rates.exact == exact

    @pytest.mark.parametrize("band, diagonal, rate", [
        # the same operator built two ways
        (CoordForm(HALF), CoordForm(HALF), 0),
        # |1 - 1/2| a_k summed: 1, the supremum at x = a
        (CoordForm(1), CoordForm(HALF), 1),
    ], ids=["same", "half"])
    def test_one_band_at_offset_zero_is_a_diagonal(self, band, diagonal,
                                                   rate):
        rates, (raw,) = uniform_convergence_on_set(
            [OperatorModel.banded([(0, band)])],
            OperatorModel.diagonal(diagonal), GEO_BOX, L1)
        assert raw == rate and rates.exact

    @pytest.mark.parametrize("band, gauge, rate", [
        # sum_{k >= 1} (3/2)^k 2^(1-k) = 6, the supremum
        ((-1, CoordForm(1)), GROWING_L1, 6),
        # sum_{k >= 2} 2^(2-k) = 2
        ((-2, CoordForm(1)), L1, 2),
        # sum_{k >= 1} 4^(1-k) = 4/3
        ((-1, CoordForm(1)), L2, Fraction(4, 3)),
        # sup_{k >= 2} 2^(2-k) (k+1) = 3 at k = 2
        ((-2, CoordForm(1, 1, 1)), SUP, 3),
    ], ids=["left-growing-l1", "left-2-l1", "left-l2", "left-2-power-sup"])
    def test_left_band_counts_only_existing_coordinates(self, band, gauge,
                                                        rate):
        op = OperatorModel.banded([band])
        _, (raw,) = uniform_convergence_on_set([op], OperatorModel.zero(),
                                               GEO_BOX, gauge)
        assert raw == rate
        assert raw >= window_max(op, OperatorModel.zero(), GEO_BOX, gauge)

    @settings(max_examples=40, deadline=None)
    @given(f_n=OPERATORS, f_inf=OPERATORS, box=BOXES,
           gauge=st.sampled_from(GAUGES), seed=st.integers(0, 2**16))
    def test_rates_bound_sampled_box_points(self, f_n, f_inf, box, gauge,
                                            seed):
        _, (raw,) = uniform_convergence_on_set([f_n], f_inf, box, gauge)
        for x in sampled_box_points(box, seed):
            diff = difference(f_n, f_inf, x)
            assert raw == INF or gauge.of_vector(diff) <= raw


class TestPointwiseVsUniform:
    def test_truncations_agree(self):
        fam = OperatorFamily(tuple(OperatorModel.truncation(n)
                                   for n in range(1, 9)), Fraction(1))
        out = pointwise_vs_uniform_check(fam, OperatorModel.identity(),
                                         GEO_BOX, L2)
        assert out["uniform"].verdict == "converges"

    def test_growing_family_rejected(self):
        fam = OperatorFamily(tuple(OperatorModel.diagonal(CoordForm(n))
                                   for n in range(1, 5)), Fraction(1))
        with pytest.raises(EquiboundednessError,
                           match=r"bands \[\(0, 2\*1\^k\*\(k\+1\)\^0\)\]"):
            pointwise_vs_uniform_check(fam, OperatorModel.zero(), GEO_BOX, L2)

    @pytest.mark.parametrize("gauge", [SUP, L1, L2], ids=["sup", "l1", "l2"])
    def test_copies_of_one_banded_operator_agree(self, gauge):
        r = OperatorModel.banded([(1, CoordForm(HALF))])
        out = pointwise_vs_uniform_check(OperatorFamily((r, r), 4), r,
                                         GEO_BOX, gauge)
        assert out["uniform"].rates == (0.0, 0.0) and out["uniform"].exact
        assert out["uniform"].verdict == out["pointwise"] == "converges"

    def test_non_compact_box_is_an_input_error(self):
        fam = OperatorFamily((OperatorModel.truncation(1),), Fraction(1))
        box = CompactSetModel.inverse_poly(1, 3)
        with pytest.raises(ValueError, match="not compact"):
            pointwise_vs_uniform_check(fam, OperatorModel.identity(), box,
                                       GROWING_L1)

    def test_zero_family(self):
        fam = OperatorFamily((OperatorModel.zero(), OperatorModel.zero()),
                             Fraction(1))
        out = pointwise_vs_uniform_check(fam, OperatorModel.zero(), GEO_BOX,
                                         L2)
        assert out["uniform"].rates == (0.0, 0.0)

    def test_constant_family_diverges_on_both_sides(self):
        fam = OperatorFamily((OperatorModel.identity(),
                              OperatorModel.identity()), Fraction(1))
        box = CompactSetModel.geometric(1, Fraction(1, 4))
        out = pointwise_vs_uniform_check(fam, OperatorModel.zero(), box, L1)
        assert out["uniform"].verdict == out["pointwise"] == "diverges"

    def test_empty_family_diverges_on_both_sides(self):
        out = pointwise_vs_uniform_check(OperatorFamily((), Fraction(1)),
                                         OperatorModel.zero(), GEO_BOX, L1)
        assert out["uniform"].verdict == out["pointwise"] == "diverges"

    def test_sampled_points_respect_certified_rates(self):
        # rate-soundness is enforced inside the check itself; run it on a
        # nontrivial family and gauge mix
        fam = OperatorFamily(tuple(OperatorModel.truncation(n)
                                   for n in range(64)), Fraction(1))
        for gauge in (L1, L2, SUP):
            pointwise_vs_uniform_check(fam, OperatorModel.identity(),
                                       GEO_BOX, gauge, n_patterns=16)


class TestOperatorBounds:
    def test_truncation_bound_one(self):
        assert operator_gauge_bound(OperatorModel.truncation(3), L2) == 1

    def test_decaying_diagonal(self):
        op = OperatorModel.diagonal(CoordForm(1, HALF))
        assert operator_gauge_bound(op, L2) == 1

    def test_truncation_multiplier_vanishes_past_the_cutoff(self):
        trunc = OperatorModel.truncation(2)
        assert [trunc.multiplier(k) for k in range(5)] == [1, 1, 1, 0, 0]

    def test_unbounded_band_is_not_equibounded(self):
        grow = OperatorModel.diagonal(CoordForm(1, 2))
        assert operator_gauge_bound(grow, SUP) == INF
        with pytest.raises(EquiboundednessError):
            pointwise_vs_uniform_check(OperatorFamily((grow,), 10),
                                       OperatorModel.identity(), GEO_BOX, SUP)

    def test_zero_band_bounds_zero(self):
        op = OperatorModel.banded([(0, CoordForm(0, 2, -1))])
        assert operator_gauge_bound(op, SUP) == 0

    @pytest.mark.parametrize("offset, gauge, ratio", [
        # F e_0 = e_1, whose weight is 3/2 times that of e_0
        pytest.param(-1, GROWING_L1, Fraction(3, 2), id="left-growing"),
        # F e_1 = e_0, whose weight is 2 times that of e_1
        pytest.param(1, GaugeModel("l1", WeightForm.geometric(1, HALF)),
                     Fraction(2), id="right-decaying"),
    ])
    def test_shift_bound_reads_the_weight(self, offset, gauge, ratio):
        op = OperatorModel.banded([(offset, CoordForm(1))])
        assert operator_gauge_bound(op, gauge) >= ratio
        fam = OperatorFamily((op,), Fraction(1))
        with pytest.raises(EquiboundednessError):
            pointwise_vs_uniform_check(fam, OperatorModel.zero(), GEO_BOX,
                                       gauge)

    @settings(max_examples=40, deadline=None)
    @given(bands=BANDS, box=BOXES, gauge=st.sampled_from(GAUGES),
           seed=st.integers(0, 2**16))
    def test_bound_covers_sampled_points(self, bands, box, gauge, seed):
        op = OperatorModel.banded(bands)
        bound = operator_gauge_bound(op, gauge)
        # l2 gauges compare radicands
        factor = bound * bound if gauge.kind == "l2" else bound
        for x in sampled_box_points(box, seed):
            image = op.apply(x)
            assert (bound == INF
                    or gauge.of_vector(image) <= factor * gauge.of_vector(x))


def approx_rank_walk(box, gauge, tolerance, rank_budget):
    """The linear walk within the budget and the first_true search past it
    that one first_true search from n = -1 replaced: (rank, rates), or the
    extrapolated rank of the budget error."""
    tol = Fraction(tolerance)
    target = tol * tol if gauge.kind == "l2" else tol
    identity = OperatorModel.identity()
    raws = []
    for n in range(-1, rank_budget + 1):
        raw, _exact = _rate_of_pair(OperatorModel.truncation(n), identity,
                                    box, gauge)
        raws.append(raw)
        if raw <= target:
            return n + 1, tuple(gauge.finalize(r) for r in raws)
    n = first_true(lambda n: _rate_of_pair(
        OperatorModel.truncation(n), identity, box, gauge)[0] <= target,
        rank_budget + 1)
    return ("budget", n + 1)


def approx_rank(box, gauge, tolerance, rank_budget):
    try:
        report = local_approx_property_check(box, gauge, tolerance,
                                             rank_budget)
    except RankBudgetError as exc:
        assert exc.budget == rank_budget
        return ("budget", exc.required)
    return report.rank, report.rates


class TestLocalApproxProperty:
    def test_geometric_envelope_rank_eleven(self):
        report = local_approx_property_check(GEO_BOX, L2, Fraction(1, 1000))
        assert report.rank == 11

    def test_zero_set_rank_zero(self):
        box = CompactSetModel(CoordForm(0))
        report = local_approx_property_check(box, L2, Fraction(1, 1000))
        assert report.rank == 0

    def test_inverse_poly_envelope(self):
        # tail sum_{k>n} (k+1)^-2 <= 1/(n+1): rank about 1/tol
        box = CompactSetModel.inverse_poly(1, 2)
        report = local_approx_property_check(box, L1, Fraction(1, 100),
                                             rank_budget=256)
        assert 50 <= report.rank <= 110

    def test_rates_nonincreasing(self):
        report = local_approx_property_check(GEO_BOX, L2, Fraction(1, 1000))
        rates = report.rates
        assert all(rates[i + 1] <= rates[i] for i in range(len(rates) - 1))

    def test_budget_error_extrapolates(self):
        with pytest.raises(RankBudgetError) as err:
            local_approx_property_check(GEO_BOX, L2, Fraction(1, 10**9),
                                        rank_budget=4)
        # the smallest rank, which a larger budget finds directly
        assert err.value.required == local_approx_property_check(
            GEO_BOX, L2, Fraction(1, 10**9), rank_budget=64).rank

    @pytest.mark.parametrize("tolerance", [Fraction(0), Fraction(-1, 100),
                                           -0.0])
    @pytest.mark.parametrize("gauge", [L1, L2, SUP], ids=lambda g: g.kind)
    def test_tolerance_must_be_positive(self, gauge, tolerance):
        # no truncation rate of the geometric box reaches 0, and under l2 a
        # negative tolerance would be squared
        with pytest.raises(ValueError, match="tolerance must be positive"):
            local_approx_property_check(GEO_BOX, gauge, tolerance)

    @settings(max_examples=120, deadline=None)
    @given(box=BOXES, gauge=st.sampled_from(GAUGES),
           tolerance=st.sampled_from([Fraction(1, 10), Fraction(1, 1000),
                                      Fraction(1, 10**6)]),
           budget=st.sampled_from([4, 64]))
    def test_rank_matches_the_linear_walk(self, box, gauge, tolerance,
                                          budget):
        assume(precompactness_check(box, gauge))
        assert (approx_rank(box, gauge, tolerance, budget)
                == approx_rank_walk(box, gauge, tolerance, budget))

    def test_sampling_never_exceeds_certificates(self):
        rng = np.random.default_rng(0xB00C)
        horizon = 64
        fam = [OperatorModel.truncation(n) for n in range(1, 17)]
        _, raws = uniform_convergence_on_set(fam, OperatorModel.identity(),
                                             GEO_BOX, L2)
        for _ in range(100):
            mags = rng.random(horizon)
            x = {k: Fraction(float(mags[k])).limit_denominator(10**6)
                 * GEO_BOX.coordinate_bound(k) for k in range(horizon)}
            for op, raw in zip(fam, raws):
                diff = dict(op.apply(x))
                for k, v in x.items():
                    diff[k] = diff.get(k, Fraction(0)) - v
                measured = L2.of_vector(diff)
                assert measured <= raw
