import math
from fractions import Fraction

import numpy as np
import pytest

from borno.errors import EquiboundednessError
from borno.finrank import (
    CompactSetModel,
    CoordForm,
    GaugeModel,
    OperatorFamily,
    OperatorModel,
    RankBudgetError,
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
        with pytest.raises(EquiboundednessError):
            pointwise_vs_uniform_check(fam, OperatorModel.zero(), GEO_BOX, L2)

    def test_zero_family(self):
        fam = OperatorFamily((OperatorModel.zero(), OperatorModel.zero()),
                             Fraction(1))
        out = pointwise_vs_uniform_check(fam, OperatorModel.zero(), GEO_BOX,
                                         L2)
        assert out["uniform"].rates == (0.0, 0.0)

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
        assert err.value.required > 4

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
