import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borno.closedforms import (EnvTerm, EpsForm, WeightForm, decay_start,
                               sum_shift_poly_geom)
from borno.errors import NotDecided, UnboundedMap
from borno.seqspace import (
    _SCAN_CAP,
    CoordinateMap,
    DiskForm,
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    WindowTerm,
    _canonical_witness,
    _combine_eps,
    _one_sided_ok,
    _rational_root_upper,
    _sign_stable_index,
    apply_coordinate_map,
    apply_map_to_model,
    cauchy_check,
    completeness_check,
    completion_construct,
    convergence_check,
    coordinate_map_bound,
    directedness_check,
    dominating_eps,
    extend_map_to_completion,
    gauge_value,
    metrizability_scalars,
    pair_deviation_envelope,
    strengthened_series_check,
    window_gauge_envelope,
)

HALF = Fraction(1, 2)
L1 = ModelSpace((DiskForm("sum"),))
SUP = ModelSpace((DiskForm("sup"),))
# absorption constants are the identity map's bounds
IDENTITY = CoordinateMap("diagonal")

# sum and sup disks with weight powers 0-3 and scales other than 1
SCALED_DISKS = st.builds(
    DiskForm, st.sampled_from(["sum", "sup"]),
    st.builds(WeightForm, st.sampled_from([Fraction(1, 3), HALF, Fraction(2)]),
              st.sampled_from([HALF, Fraction(1), Fraction(3, 2)]),
              st.integers(0, 3)),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(2), Fraction(5, 2)]))


def unit_gauge(disk, k):
    """gauge(e_k) = w(k) / scale, written out."""
    w = disk.weight
    return w.coeff * w.ratio**k * (k + 1) ** w.power / disk.scale


def geometric_seq(ratio=HALF, coord=1):
    return SequenceModel.geometric_multiple(SeqVector.unit(coord, 1), 1, ratio)


class TestSeqVector:
    def test_evaluation_of_tails(self):
        v = SeqVector.geometric(1, HALF)
        assert v.value(3) == Fraction(1, 8)
        assert v.value(0) == 1

    def test_add_merges_tails(self):
        v = SeqVector.geometric(1, HALF)
        w = SeqVector.geometric(-1, HALF)
        assert v.add(w).is_zero

    def test_zero_tail_coefficients_are_dropped(self):
        # scaling by 0 gives a tail with coefficient 0, which the vector
        # drops; otherwise only some hypothesis draws reach this case
        v = SeqVector({0: 1}, ((2, HALF),), 1)
        assert v.scale(0) == SeqVector() and v.scale(0).tails == ()

    def test_restrict_beyond(self):
        v = SeqVector.geometric(1, HALF)
        w = v.restrict_beyond(2)
        assert w.value(2) == 0 and w.value(3) == Fraction(1, 8)

    def test_distinct_ratios_never_cancel(self):
        v = SeqVector.geometric(1, HALF)
        w = SeqVector.geometric(-1, Fraction(1, 3))
        assert not v.add(w).is_zero

    def test_equal_vectors_hash_alike(self):
        # a tail start can move over coordinates the prefix spells out
        a = SeqVector({0: 1}, ((1, HALF),), 1)
        b = SeqVector.geometric(1, HALF)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SeqVector.from_coords([1, 0]),
                    SeqVector.unit(0, 1)}) == 2

    def test_repr_and_foreign_operands(self):
        v = SeqVector({0: 2}, ((1, HALF),), 1)
        assert repr(v) == ("SeqVector({0: Fraction(2, 1)}, tails=((Fraction(1, "
                           "1), Fraction(1, 2)),), start=1)")
        assert v != 2 and v != {0: 2}


class TestGauges:
    def test_l1_gauge_of_geometric_tail(self):
        # sum_k 2^-k = 2
        assert gauge_value(DiskForm("sum"), SeqVector.geometric(1, HALF)) == 2

    def test_sup_gauge(self):
        assert gauge_value(DiskForm("sup"), SeqVector.geometric(1, HALF)) == 1

    def test_alternating_tail_exact(self):
        # sum_k |(-1/2)^k| = 2 under weight one
        v = SeqVector.geometric(1, Fraction(-1, 2))
        assert gauge_value(DiskForm("sum"), v) == 2

    def test_mixed_tails_with_cancellation(self):
        # x_k = 2^-k - 3^-k >= 0; l1 gauge = 2 - 3/2
        v = SeqVector.geometric(1, HALF).add(
            SeqVector.geometric(-1, Fraction(1, 3)))
        assert gauge_value(DiskForm("sum"), v) == Fraction(1, 2)

    def test_geometric_weight_beats_tail(self):
        disk = DiskForm("sum", WeightForm.geometric(1, 3))
        assert gauge_value(disk, SeqVector.geometric(1, HALF)) == math.inf

    def test_scaled_disk(self):
        disk = DiskForm("sum", scale=Fraction(4))
        assert gauge_value(disk, SeqVector.geometric(1, HALF)) == HALF

    def test_polynomial_weight_sum(self):
        disk = DiskForm("sum", WeightForm.polynomial(1, 1))
        # sum (k+1) 2^-k = 4
        assert gauge_value(disk, SeqVector.geometric(1, HALF)) == 4
        assert sum_shift_poly_geom(1, 1, HALF, 0) == 4

    @settings(max_examples=150, deadline=None)
    @given(disk=SCALED_DISKS, coords=st.dictionaries(
        st.integers(0, 40), st.builds(Fraction, st.integers(-20, 20),
                                      st.integers(1, 9)), max_size=8))
    def test_gauge_of_a_finite_vector_is_written_out(self, disk, coords):
        terms = [unit_gauge(disk, k) * abs(v) for k, v in coords.items()]
        expected = (sum(terms, Fraction(0)) if disk.kind == "sum"
                    else max(terms, default=Fraction(0)))
        assert gauge_value(disk, SeqVector(coords)) == expected

    def test_model_spaces_take_only_sum_and_sup_disks(self):
        # gauge_value would measure an l2 disk as a sup
        with pytest.raises(ValueError, match="not a sum or sup DiskForm"):
            ModelSpace((DiskForm("sum"), DiskForm("l2")))


class TestCauchyCheck:
    def test_geometric_with_doubled_budget(self):
        rep = cauchy_check(geometric_seq(), L1, 0, EpsForm.geometric(2, HALF))
        assert rep.holds

    def test_constant_sequence(self):
        rep = cauchy_check(SequenceModel.constant(SeqVector.unit(0, 7)), L1,
                           0, EpsForm.geometric(Fraction(1, 10**6), HALF))
        assert rep.holds

    def test_unbounded_sequence_with_witness(self):
        model = SequenceModel(
            geo_terms=(GeoTerm(1, 1, SeqVector.unit(1, 1), power=1),))
        rep = cauchy_check(model, L1, 0, EpsForm.geometric(HALF, HALF))
        assert not rep.holds
        m, n = rep.violating_pair
        assert n == m + 1
        diff = model.at(n).subtract(model.at(m))
        assert not EpsForm.geometric(HALF, HALF).ge_value(
            m, gauge_value(L1.disk(0), diff))

    def test_exact_boundary_budget(self):
        # gauge(x_n - x_m) = 2^-m - 2^-n < 2^-m exactly on the budget
        model = SequenceModel(geo_terms=(
            GeoTerm(1, 1, SeqVector.unit(1, 1)),
            GeoTerm(-1, HALF, SeqVector.unit(1, 1))))
        rep = cauchy_check(model, L1, 0, EpsForm.geometric(1, HALF))
        assert rep.holds

    def test_partial_sums_hand_bound(self):
        # sum_{k>m} 2^-k = 2^-m
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        assert cauchy_check(ps, L1, 0, EpsForm.geometric(1, HALF)).holds

    def test_partial_sums_fail_tighter_budget(self):
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        rep = cauchy_check(ps, L1, 0, EpsForm.geometric(Fraction(1, 3), HALF))
        assert not rep.holds

    def test_too_fast_budget_fails(self):
        rep = cauchy_check(geometric_seq(), L1, 0,
                           EpsForm.geometric(1, Fraction(1, 4)))
        assert not rep.holds

    def test_subsequence_stability(self):
        x = geometric_seq()
        eps = EpsForm.geometric(2, HALF)
        assert cauchy_check(x, L1, 0, eps).holds
        for a, b in ((2, 0), (2, 1), (3, 2)):
            sub = x.subsequence(a, b)
            sub_eps = eps.subsequence(a, b)
            assert cauchy_check(sub, L1, 0, sub_eps).holds

    def test_sqrt_budget_still_exact(self):
        eps = EpsForm.geometric(4, HALF).sqrt()  # 2 * (1/sqrt2)^m
        assert cauchy_check(geometric_seq(), L1, 0, eps).holds

    def test_polynomial_times_decaying_term(self):
        # x_n = n^2 2^-n e_0 rises to 9/8 at n = 3; the pair envelope
        # 2 (m+1)^2 2^-m is nonincreasing from m = 2, where (1/2)(4/3)^2 <= 1
        x = SequenceModel(
            geo_terms=(GeoTerm(1, HALF, SeqVector.unit(0, 1), 2),))
        env, valid_from = pair_deviation_envelope(x, L1.disk(0))
        assert env.terms == (EnvTerm(Fraction(2), HALF, 1, 2),)
        assert valid_from == 2
        rep = cauchy_check(x, L1, 0, EpsForm.geometric(8, Fraction(3, 4)))
        assert rep.holds and rep.witness["certified_from"] == 7
        for m in range(40):
            for n in range(m + 1, 60):
                g = gauge_value(L1.disk(0), x.at(n).subtract(x.at(m)))
                assert g <= 8 * Fraction(3, 4) ** m
        # |x_7 - x_2| = 1 - 49/128 exceeds 2 * 2^-2
        tight = cauchy_check(x, L1, 0, EpsForm.geometric(2, HALF))
        assert tight.violating_pair == (2, 7)


    def test_one_sided_boundary_closes_the_first_index(self, monkeypatch):
        # x_n = e0 - 2^-n e0 + (1/8)(-1/4)^n e0: at m = 0 the limit sits
        # exactly on the budget, |e0 - x_0| = 7/8 = eps_0, and every later
        # x_n lies between x_0 and the limit, which only _one_sided_ok sees
        e0 = SeqVector.unit(0, 1)
        x = SequenceModel(geo_terms=(GeoTerm(1, 1, e0), GeoTerm(-1, HALF, e0),
                                     GeoTerm(Fraction(1, 8), Fraction(-1, 4),
                                             e0)))
        eps = EpsForm.geometric(Fraction(7, 8), Fraction(3, 4))
        rep = cauchy_check(x, L1, 0, eps)
        assert rep.holds and rep.witness["certified_from"] == 1
        monkeypatch.setattr("borno.seqspace._one_sided_ok",
                            lambda *args: False)
        with pytest.raises(NotDecided, match="pair check at m=0 did not "
                           "close within the scan cap"):
            cauchy_check(x, L1, 0, eps)


class TestConvergenceCheck:
    def test_geometric_approach(self):
        model = SequenceModel(geo_terms=(
            GeoTerm(1, 1, SeqVector.unit(1, 1)),
            GeoTerm(-1, HALF, SeqVector.unit(1, 1))))
        rep = convergence_check(model, L1, 0, EpsForm.geometric(1, HALF),
                                SeqVector.unit(1, 1))
        assert rep.holds

    def test_unit_vectors_do_not_converge_in_sup(self):
        v = SeqVector.geometric(1, HALF)
        e_n = SequenceModel(window_terms=(
            WindowTerm(1, v, 1, -1, Fraction(2)),
            WindowTerm(-1, v, 1, 0, Fraction(2))))
        assert e_n.at(3).value(3) == 1 and e_n.at(3).value(2) == 0
        rep = convergence_check(e_n, SUP, 0, EpsForm.geometric(1, HALF),
                                SeqVector.zero())
        assert not rep.holds

    def test_constant_converges_to_itself(self):
        v = SeqVector.unit(0, 3)
        rep = convergence_check(SequenceModel.constant(v), L1, 0,
                                EpsForm.geometric(1, HALF), v)
        assert rep.holds

    def test_wrong_limit_detected(self):
        rep = convergence_check(geometric_seq(), L1, 0,
                                EpsForm.geometric(1, HALF),
                                SeqVector.unit(1, 1))
        assert not rep.holds


class TestMetrizability:
    def family(self):
        # S_n = (n+1) * unit l1 ball
        return ModelSpace(tuple(DiskForm("sum", scale=Fraction(n + 1))
                                for n in range(4)))

    def test_scaled_ball_family(self):
        rep = metrizability_scalars(self.family(), [0, 1, 2, 3])
        assert rep.verdict == "bounded"
        assert rep.bound <= 1
        # eps_n = 2^-(n+1) / (n+1) against the absorbing unit ball
        assert rep.epsilons[1] == Fraction(1, 8)

    def test_single_disk_repeated(self):
        rep = metrizability_scalars(L1, [0, 0, 0])
        assert rep.verdict == "bounded"
        assert rep.bound <= 1

    def test_incomparable_family_is_inconclusive(self):
        # sup weights k+1 against flat l1 weights: sum 1/(k+1) diverges, and
        # e_i has sup gauge i+1, so neither disk absorbs the other
        space = ModelSpace((
            DiskForm("sup", WeightForm.polynomial(1, 1)),
            DiskForm("sum", WeightForm.constant(1)),
        ))
        rep = metrizability_scalars(space, [0, 1])
        assert rep.verdict == "not-within-family"

    def test_square_weight_sup_disk_is_absorbed_by_l1(self):
        # sum_k (k+1)^-2 <= 1 + 1 = 2: the l1 ball absorbs the sup disk with
        # weights (k+1)^2
        space = ModelSpace((
            DiskForm("sup", WeightForm.polynomial(1, 2)),
            DiskForm("sum", WeightForm.constant(1)),
        ))
        assert coordinate_map_bound(IDENTITY, space.disk(0),
                                    space.disk(1)) == 2
        rep = metrizability_scalars(space, [0, 1])
        assert rep.verdict == "bounded"
        assert rep.absorbing_index == 1

    def test_directedness_of_scaled_family(self):
        out = directedness_check(self.family())
        assert out["directed"]

    def test_strengthened_series_geometric(self):
        out = strengthened_series_check(L1, 0,
                                        EpsForm.geometric(1, Fraction(1, 4)))
        assert out["verdict"] == "bounded"
        assert out["bound"] == Fraction(1, 3)

    def test_strengthened_series_root_tower_exact(self):
        # sqrt(9 * 9^-n) = 3 * 3^-n; bisection lands on 3 and 1/3 exactly,
        # so the bound is sum_{n>=1} 3^(1-n) = 3/2
        eps = EpsForm.geometric(9, Fraction(1, 9)).sqrt()
        out = strengthened_series_check(L1, 0, eps)
        assert out["verdict"] == "bounded"
        assert out["bound"] == Fraction(3, 2)

    def test_strengthened_series_root_tower_upper(self):
        # sqrt(4^-n) = 2^-n sums to 1; the rational root is 1/2 + 2^-21
        eps = EpsForm.geometric(1, Fraction(1, 4)).sqrt()
        out = strengthened_series_check(L1, 0, eps)
        assert out["bound"] == Fraction(2**20 + 1, 2**20 - 1)
        assert 1 < out["bound"] < 1 + Fraction(1, 10**5)

    def test_strengthened_series_inverse_poly_bound_is_sound(self):
        # sum_{n>=1} 1/(n/2 + 1/100)^3 is about 9.12, above (5/3)/(1/2)^2;
        # the bound is (5/3) / (1/2)^3 = 40/3
        eps = EpsForm("invpoly", 1, alpha=HALF, beta=Fraction(1, 100), power=3)
        out = strengthened_series_check(L1, 0, eps)
        assert out["verdict"] == "bounded"
        assert out["bound"] == Fraction(40, 3)
        partial = math.fsum(1 / (n / 2 + 0.01) ** 3 for n in range(1, 10**5))
        assert 9.1 < partial < out["bound"]

    def test_strengthened_series_skips_unabsorbing_disks(self):
        # the l1 disk does not absorb the sup disk; the sup disk does
        space = ModelSpace((DiskForm("sum"), DiskForm("sup")))
        out = strengthened_series_check(space, 1, EpsForm.geometric(1, HALF))
        assert out["verdict"] == "bounded"
        assert out["disk_index"] == 1 and out["bound"] == 1

    def test_strengthened_series_skips_constant_inverse_poly(self):
        # alpha = 0: eps_n = a / beta^p is not null, so no disk absorbs it
        eps = EpsForm("invpoly", 1, alpha=0, beta=2, power=2)
        assert strengthened_series_check(L1, 0, eps)["verdict"] == "fail"

    @pytest.mark.parametrize("alpha, beta", [(1, 0), (0, 0), (-1, 3),
                                             (1, -1)])
    def test_inverse_poly_eps_needs_a_positive_denominator(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha >= 0, beta > 0"):
            EpsForm("invpoly", 1, alpha=alpha, beta=beta, power=1)

    def test_strengthened_series_fails_for_constant_eps(self):
        # sup-gauge with growing weights against a non-decaying eps: the
        # infinite series cannot land in any family disk
        space = ModelSpace((DiskForm("sup", WeightForm.geometric(1, 2)),))
        out = strengthened_series_check(space, 0,
                                        EpsForm.geometric(1, Fraction(1)))
        assert out["verdict"] == "fail"


def directedness_scan(space):
    """The per-pair disk loop _absorbing_disk replaced."""
    report = {}
    for j in range(len(space.disks)):
        for k in range(len(space.disks)):
            found = None
            for m in range(len(space.disks)):
                cj = coordinate_map_bound(IDENTITY, space.disk(j),
                                          space.disk(m))
                ck = coordinate_map_bound(IDENTITY, space.disk(k),
                                          space.disk(m))
                if cj != math.inf and ck != math.inf:
                    found = (m, max(cj, ck, Fraction(1)))
                    break
            report[(j, k)] = found
    directed = all(v is not None for v in report.values())
    return {"directed": directed, "witnesses": report}


def metrizability_scan(space, disk_indices):
    """The disk loop and epsilon sum _absorbing_disk replaced."""
    for m_idx in range(len(space.disks)):
        kappas = [coordinate_map_bound(IDENTITY, space.disk(i),
                                       space.disk(m_idx))
                  for i in disk_indices]
        if all(k != math.inf for k in kappas):
            epsilons = tuple(
                Fraction(1, 2 ** (n + 1)) / max(k, Fraction(1))
                for n, k in enumerate(kappas)
            )
            bound = sum(
                (e * max(k, Fraction(1)) for e, k in zip(epsilons, kappas)),
                Fraction(0),
            )
            return ("bounded", m_idx, epsilons, bound)
    return ("not-within-family", None, (), None)


def series_scan(space, disk_index, eps):
    """The disk loop that recomputed the eps sum for every disk."""
    source = space.disk(disk_index)
    for m_idx in range(len(space.disks)):
        kappa = coordinate_map_bound(IDENTITY, source, space.disk(m_idx))
        if kappa == math.inf:
            continue
        kappa = max(kappa, Fraction(1))
        if eps.kind == "geom":
            ratio = eps.ratio if eps.level == 0 else _rational_root_upper(
                eps.ratio, eps.level)
            amp = eps.amp if eps.level == 0 else _rational_root_upper(
                eps.amp, eps.level)
            if ratio >= 1:
                continue
            total = amp * ratio / (1 - ratio)
        else:
            if eps.power < 2 or eps.level > 0 or eps.alpha == 0:
                continue
            total = Fraction(5, 3) * eps.amp / eps.alpha ** eps.power
        bound = total * kappa
        return {"verdict": "bounded", "disk_index": m_idx, "bound": bound,
                "certificate": f"sum eps_n * kappa <= {bound}"}
    return {"verdict": "fail", "disk_index": None, "bound": None,
            "certificate": "no family disk absorbs the series"}


# rational weights and scales where sup weights k+1 or (k+1)^2 meet flat or
# geometric sums, so that some pairs have no absorbing disk in the family
RATIONALS = st.sampled_from([Fraction(1, 3), HALF, Fraction(1), Fraction(2),
                             Fraction(3, 2)])
DISKS = st.one_of(
    st.builds(DiskForm, st.sampled_from(["sum", "sup"]),
              st.builds(WeightForm, RATIONALS,
                        st.sampled_from([HALF, Fraction(1), Fraction(3, 2),
                                         Fraction(2)]),
                        st.integers(0, 2)),
              RATIONALS),
    st.sampled_from([DiskForm("sup", WeightForm.polynomial(1, 1)),
                     DiskForm("sum")]))
SPACES = st.lists(DISKS, min_size=1, max_size=4).map(
    lambda disks: ModelSpace(tuple(disks)))
EPS = st.one_of(
    st.builds(lambda a, q, level: EpsForm("geom", a, q, level=level),
              RATIONALS, st.sampled_from([Fraction(1, 4), HALF,
                                          Fraction(9, 10), Fraction(1),
                                          Fraction(3, 2)]),
              st.integers(0, 2)),
    st.builds(lambda a, alpha, beta, power, level: EpsForm(
                  "invpoly", a, alpha=alpha, beta=beta, power=power,
                  level=level),
              RATIONALS, st.sampled_from([Fraction(0), HALF, Fraction(2)]),
              RATIONALS, st.integers(0, 3), st.integers(0, 1)))


class TestAbsorbingDiskSearch:
    """The one absorbing-disk search against the three loops it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(space=SPACES)
    def test_directedness_witnesses(self, space):
        assert directedness_check(space) == directedness_scan(space)

    @settings(max_examples=150, deadline=None)
    @given(space=SPACES, data=st.data())
    def test_metrizability_scalars(self, space, data):
        indices = data.draw(st.lists(st.integers(0, len(space.disks) - 1),
                                     max_size=5))
        rep = metrizability_scalars(space, indices)
        assert ((rep.verdict, rep.absorbing_index, rep.epsilons, rep.bound)
                == metrizability_scan(space, indices))

    @settings(max_examples=150, deadline=None)
    @given(space=SPACES, eps=EPS, data=st.data())
    def test_strengthened_series(self, space, eps, data):
        index = data.draw(st.integers(0, len(space.disks) - 1))
        assert (strengthened_series_check(space, index, eps)
                == series_scan(space, index, eps))

    def test_incomparable_pair_has_no_witness(self):
        # sup weights k+1 against flat sums: neither absorbs the other
        space = ModelSpace((DiskForm("sup", WeightForm.polynomial(1, 1)),
                            DiskForm("sum")))
        out = directedness_check(space)
        assert not out["directed"]
        assert out["witnesses"] == {(0, 0): (0, 1), (0, 1): None,
                                    (1, 0): None, (1, 1): (1, 1)}


class TestCompleteness:
    def test_full_model_complete_both_conditions(self):
        full = ModelSpace((DiskForm("sum"), DiskForm("sup")), tails_admitted=True)
        iii = completeness_check(full, "iii")
        iv = completeness_check(full, "iv")
        assert all(v.complete for v in iii)
        assert [a.complete for a in iii] == [b.complete for b in iv]

    def test_finite_support_model_incomplete_with_witness(self):
        fin = ModelSpace((DiskForm("sum"),), tails_admitted=False)
        iii = completeness_check(fin, "iii")
        iv = completeness_check(fin, "iv")
        assert not iii[0].complete and not iv[0].complete
        witness = iii[0].witness
        assert witness is not None
        assert not witness.limit_vector().finitely_supported

    @pytest.mark.parametrize("kind", ["sum", "sup"])
    def test_polynomial_weights_complete_both_conditions(self, kind):
        # the witness's pair envelope has terms (m+shift)^2 (1/2)^m, so its
        # dominating eps slows to ratio 3/4
        space = ModelSpace((DiskForm(kind, WeightForm.polynomial(1, 2)),))
        env, _ = pair_deviation_envelope(_canonical_witness(space, 0),
                                         space.disk(0))
        eps = dominating_eps(env)
        assert eps.ratio == Fraction(3, 4)
        assert all(eps.ge_value(m, env.value(m)) for m in range(80))
        assert [v.complete for v in completeness_check(space, "iv")] == [True]
        assert [v.complete for v in completeness_check(space, "iii")] == [True]

    def test_zero_space_trivially_complete(self):
        # a space whose only closed forms are zero sequences
        full = ModelSpace((DiskForm("sum"),), tails_admitted=True)
        rep = cauchy_check(SequenceModel.constant(SeqVector.zero()), full, 0,
                           EpsForm.geometric(1, HALF))
        assert rep.holds


class TestCompletion:
    def setup_method(self):
        self.comp = completion_construct(ModelSpace((DiskForm("sum"),)))

    def test_embed_idempotent_equality(self):
        v = SeqVector.unit(1, 1)
        eq, _ = self.comp.equal(self.comp.embed(v), self.comp.embed(v))
        assert eq

    def test_partial_sums_equal_declared_limit(self):
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        a = self.comp.element(ps, 0, EpsForm.geometric(1, HALF))
        z = SeqVector.geometric(1, HALF)
        b = self.comp.element(SequenceModel.constant(z), 0,
                              EpsForm.geometric(1, HALF))
        eq, _ = self.comp.equal(a, b)
        assert eq

    def test_distinct_limits_get_separating_bound(self):
        a = self.comp.embed(SeqVector.unit(1, 1))
        b = self.comp.embed(SeqVector.unit(2, 1))
        eq, separating = self.comp.equal(a, b)
        assert not eq
        disk_index, bound = separating
        assert bound == 2  # l1 distance between distinct unit vectors

    def test_quotient_gauge_isometric_on_embeddings(self):
        v = SeqVector.from_coords([1, HALF, Fraction(1, 4)])
        assert (self.comp.gauge_in_quotient(self.comp.embed(v), 0)
                == gauge_value(DiskForm("sum"), v))

    def test_non_cauchy_representative_rejected(self):
        bad = SequenceModel(
            geo_terms=(GeoTerm(1, 1, SeqVector.unit(0, 1), power=1),))
        with pytest.raises(ValueError):
            self.comp.element(bad, 0, EpsForm.geometric(1, HALF))

    def test_completion_idempotence(self):
        # equal classes stay equal under re-embedding as constant sequences
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        a = self.comp.element(ps, 0, EpsForm.geometric(1, HALF))
        z = SeqVector.geometric(1, HALF)
        b = self.comp.element(SequenceModel.constant(z), 0,
                              EpsForm.geometric(1, HALF))
        amb = self.comp.ambient
        re_a = self.comp.element(SequenceModel.constant(a.limit_vector()), 0,
                                 EpsForm.geometric(1, HALF))
        re_b = self.comp.element(SequenceModel.constant(b.limit_vector()), 0,
                                 EpsForm.geometric(1, HALF))
        eq, _ = self.comp.equal(re_a, re_b)
        assert eq

    def test_add_with_unequal_ratios(self):
        # 50 2^-n e0 with eps 100 2^-m plus the constant e1 with eps (3/4)^m:
        # the sum's deviation 50 2^-m needs 101 (3/4)^m, not 2 (3/4)^m
        a = self.comp.element(SequenceModel.geometric_multiple(
            SeqVector.unit(0, 1), 50, HALF), 0, EpsForm.geometric(100, HALF))
        b = self.comp.element(SequenceModel.constant(SeqVector.unit(1, 1)), 0,
                              EpsForm.geometric(1, Fraction(3, 4)))
        total = self.comp.add(a, b)
        assert total.eps == EpsForm.geometric(101, Fraction(3, 4))
        assert total.limit_vector() == SeqVector.unit(1, 1)

    def test_algebra_of_classes(self):
        a = self.comp.embed(SeqVector.unit(0, 1))
        b = self.comp.embed(SeqVector.unit(0, 2))
        s = self.comp.add(a, self.comp.scale(-1, b))
        assert s.limit_vector().value(0) == -1


class TestMapExtension:
    def setup_method(self):
        self.comp = completion_construct(ModelSpace((DiskForm("sum"),)))

    def test_shift_extends_with_bound_one(self):
        ext = extend_map_to_completion(CoordinateMap("shift"), self.comp)
        assert ext.bound == 1
        a = self.comp.embed(SeqVector.unit(1, 1))
        image = ext(self.comp, a)
        assert image.limit_vector().value(0) == 1

    def test_unbounded_diagonal_rejected(self):
        with pytest.raises(UnboundedMap):
            extend_map_to_completion(CoordinateMap("diagonal", power=1),
                                     self.comp)

    def test_summation_on_geometric_class(self):
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        a = self.comp.element(ps, 0, EpsForm.geometric(1, HALF))
        ext = extend_map_to_completion(CoordinateMap("summation"), self.comp)
        image = ext(self.comp, a)
        assert image.limit_vector().value(0) == 2

    def test_diagonal_on_a_vector_with_tails(self):
        # (f v)_k = 3 3^-k v_k: the prefix scales by 3 and the tail 2^-k
        # becomes 3 * 6^-k
        v = SeqVector({0: 1}, ((1, HALF),), 1)
        third = CoordinateMap("diagonal", 3, Fraction(1, 3))
        image = apply_coordinate_map(third, v)
        assert image.prefix == {0: 3}
        assert image.tails == ((3, Fraction(1, 6)),) and image.tail_start == 1
        assert image.value(2) == Fraction(1, 12)
        flip = apply_coordinate_map(CoordinateMap("diagonal", 2, -1),
                                    SeqVector.geometric(1, HALF))
        assert flip.tails == ((2, -HALF),)
        assert flip.value(3) == Fraction(-1, 4)

    @pytest.mark.parametrize("f", [CoordinateMap("shift", 3),
                                   CoordinateMap("diagonal", 2, Fraction(1, 3))],
                             ids=["shift", "diagonal"])
    def test_windows_map_termwise(self, f):
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        for model in (ps, ps.subsequence(2, 1)):  # stride 1 and 2 windows
            image = apply_map_to_model(f, model)
            assert len(image.window_terms) == 1
            for n in range(8):
                assert image.at(n) == apply_coordinate_map(f, model.at(n))

    def test_null_maps_to_null(self):
        null = SequenceModel(geo_terms=(
            GeoTerm(1, HALF, SeqVector.unit(0, 1)),))
        a = self.comp.element(null, 0, EpsForm.geometric(2, HALF))
        zero = self.comp.embed(SeqVector.zero())
        ext = extend_map_to_completion(CoordinateMap("summation"), self.comp)
        eq, _ = self.comp.equal(ext(self.comp, a), ext(self.comp, zero))
        assert eq


class TestMapBoundsFromSupDisks:
    """From a sup disk the unit ball spreads over all coordinates, so a sum
    target, or the summation functional, sees a tail sum."""

    def setup_method(self):
        self.comp = completion_construct(
            ModelSpace((DiskForm("sup"), DiskForm("sum"))))

    @pytest.mark.parametrize("kind", ["diagonal", "shift"])
    def test_unweighted_sup_into_sum_is_unbounded(self, kind):
        # x_k = (99/100)^k has sup gauge 1 and sum gauge 100
        with pytest.raises(UnboundedMap):
            extend_map_to_completion(CoordinateMap(kind), self.comp, 0, 1)

    def test_decaying_diagonal_sup_into_sum(self):
        ext = extend_map_to_completion(CoordinateMap("diagonal", 1, HALF),
                                       self.comp, 0, 1)
        assert ext.bound == 2

    def test_summation_from_sup_is_unbounded(self):
        # the vector of N ones has sup gauge 1 and coordinate sum N
        for target in ("sup", "sum"):
            assert coordinate_map_bound(CoordinateMap("summation"),
                                        DiskForm("sup"), DiskForm(target)) == math.inf

    def test_summation_from_square_weighted_sup(self):
        # the unit ball of the sup disk with weights (k+1)^2 has
        # |x_k| <= (k+1)^-2, and sum_k (k+1)^-2 <= 1 + 1
        comp = completion_construct(ModelSpace((
            DiskForm("sup", WeightForm.polynomial(1, 2)), DiskForm("sum"))))
        ext = extend_map_to_completion(CoordinateMap("summation"), comp, 0, 1)
        assert ext.bound == 2

    def test_coefficient_scales_the_bound(self):
        # f(e_1) = 3 e_0 and f(e_0) = -2 e_0 under the l1 gauge
        l1 = DiskForm("sum")
        assert coordinate_map_bound(CoordinateMap("shift", 3), l1, l1) == 3
        assert coordinate_map_bound(CoordinateMap("summation", -2), l1, l1) == 2

    @pytest.mark.parametrize("source", ["sup", "sum"])
    @pytest.mark.parametrize("target", ["sup", "sum"])
    def test_bound_dominates_sampled_vectors(self, source, target):
        weights = (WeightForm(), WeightForm.geometric(1, 2),
                   WeightForm.polynomial(1, 1))
        maps = (CoordinateMap("diagonal"), CoordinateMap("diagonal", 3, HALF),
                CoordinateMap("diagonal", 1, Fraction(1, 4), 1),
                CoordinateMap("shift"), CoordinateMap("shift", -2),
                CoordinateMap("summation"), CoordinateMap("summation", 5))
        vectors = (SeqVector.geometric(1, Fraction(99, 100)),
                   SeqVector.geometric(-1, -HALF), SeqVector.from_coords([1] * 40),
                   SeqVector.from_coords([1, -1] * 20), SeqVector.unit(3, 2))
        for ws in weights:
            for wt in weights:
                src, tgt = DiskForm(source, ws), DiskForm(target, wt, 3)
                for f in maps:
                    bound = coordinate_map_bound(f, src, tgt)
                    if bound == math.inf:
                        continue
                    for v in vectors:
                        if f.power == 0 or v.finitely_supported:
                            image = apply_coordinate_map(f, v)
                            assert (gauge_value(tgt, image)
                                    <= bound * gauge_value(src, v)), (f, src, tgt, v)


class TestZeroTerms:
    """A term with coefficient 0 or a zero vector adds nothing at any n."""

    @pytest.mark.parametrize("term", [GeoTerm(1, 1, SeqVector.zero(), 1),
                                      GeoTerm(0, 1, SeqVector.unit(0), 2)])
    @pytest.mark.parametrize("check", [cauchy_check, convergence_check])
    def test_zero_sequence_is_decided(self, term, check):
        model = SequenceModel(geo_terms=(term,))
        assert model.geo_terms == ()
        rep = check(model, L1, 0, EpsForm.geometric(1, HALF))
        assert rep.decision == "yes"

    def test_zero_window_term_is_dropped(self):
        limit = SeqVector.geometric(1, HALF)
        model = SequenceModel(geo_terms=(GeoTerm(1, 1, limit),),
                              window_terms=(WindowTerm(0, limit),
                                            WindowTerm(-1, SeqVector.zero())))
        assert model.window_terms == ()
        assert model.at(3) == limit


class TestAbsorption:
    @settings(max_examples=150, deadline=None)
    @given(source=SCALED_DISKS, target=SCALED_DISKS)
    def test_identity_bound_covers_the_unit_vectors(self, source, target):
        # e_k / gauge_source(e_k) lies in the source ball
        bound = coordinate_map_bound(IDENTITY, source, target)
        for k in range(65):
            assert bound >= unit_gauge(target, k) / unit_gauge(source, k)

    def test_scale_enters_linearly(self):
        big = DiskForm("sum", scale=Fraction(3))
        unit = DiskForm("sum")
        assert coordinate_map_bound(IDENTITY, big, unit) == 3
        assert coordinate_map_bound(IDENTITY, unit, big) == Fraction(1, 3)

    def test_sup_into_sum_needs_summability(self):
        assert coordinate_map_bound(IDENTITY, DiskForm("sup"),
                                    DiskForm("sum")) == math.inf
        decaying = DiskForm("sup", WeightForm.geometric(1, 2))
        # sup ball with growing weights sits inside the l1 unit ball region
        assert coordinate_map_bound(IDENTITY, decaying,
                                    DiskForm("sum")) != math.inf


def decay_start_scan(ratio, shift, power, cap=None):
    """The walk decay_start replaced: k = 0, 1, ... up to the cap, if any."""
    k = 0
    while ratio * (Fraction(k + 1 + shift) / Fraction(k + shift)) ** power > 1:
        k += 1
        if cap is not None and k > cap:
            return None
    return k


def sign_stable_index_scan(alphas):
    """The walk _sign_stable_index replaced: t = 0, 1, ... up to 8 caps."""
    rho_d, alpha_d = alphas[0]
    rest = alphas[1:]
    if not rest:
        return 0, (1 if alpha_d > 0 else -1)
    t = 0
    while True:
        dom = abs(alpha_d) * rho_d**t
        other = sum(abs(a) * r**t for r, a in rest)
        if other < dom:
            return t, (1 if alpha_d > 0 else -1)
        t += 1
        if t > 8 * _SCAN_CAP:
            raise NotDecided("sign stabilization scan exceeded its cap")


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotDecided as exc:
        return str(exc)


class TestConvertedWalks:
    """The monotone searches against the linear walks they replaced."""

    @pytest.mark.parametrize("ratio", [
        Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100),
        # decay starts near 2,000 and 4,000
        Fraction(998, 1000), Fraction(999, 1000), Fraction(1)], ids=str)
    @pytest.mark.parametrize("power", range(5))
    @pytest.mark.parametrize("shift", [1, 2, 5])
    def test_monotone_from(self, ratio, power, shift):
        # pair_deviation_envelope searches only ratios below 1, with no cap;
        # at ratio 1 a positive power never decays, and only a cap ends both
        cap = None if ratio < 1 else 4096
        assert (decay_start(ratio, power, 0, shift, cap)
                == decay_start_scan(ratio, shift, power, cap))

    @settings(max_examples=60, deadline=None)
    @given(rhos=st.lists(st.integers(1, 99), min_size=1, max_size=3,
                         unique=True),
           alphas=st.lists(st.sampled_from([1, -1, 3, -7, 50, -400]),
                           min_size=3, max_size=3))
    def test_sign_stable_index(self, rhos, alphas):
        terms = sorted(((Fraction(r, 100), Fraction(a))
                        for r, a in zip(rhos, alphas)), key=lambda t: -t[0])
        assert (outcome(_sign_stable_index, terms)
                == outcome(sign_stable_index_scan, terms))

    @pytest.mark.parametrize("weight", [10**3, 10**12])
    def test_sign_stable_index_near_the_cap(self, weight):
        # 99/100 against 98/100: 10^3 settles near t = 680, 10^12 passes
        # the cap of 4,096
        terms = [(Fraction(99, 100), Fraction(1)),
                 (Fraction(98, 100), Fraction(-weight))]
        assert (outcome(_sign_stable_index, terms)
                == outcome(sign_stable_index_scan, terms))


class TestInfiniteWindowEnvelopes:
    """A window of a tail with ratio s under a weight base b with b |s| >= 1
    has no finite gauge, so every envelope built from it is infinite, and
    the pair gauges grow until the hunt meets the budget."""

    @pytest.mark.parametrize("disk, pair", [
        (DiskForm("sum", WeightForm.geometric(1, 2)), (0, 2)),  # n - m
        (DiskForm("sup", WeightForm.geometric(1, 3)), (0, 1)),  # (3/2)^n
    ], ids=["sum", "sup"])
    def test_partial_sums(self, disk, pair):
        ps = SequenceModel.partial_sums_of_geometric(1, HALF)
        assert window_gauge_envelope(SeqVector.geometric(1, HALF),
                                     disk)[0].infinite
        assert ps.deviation_envelope(disk)[0].infinite
        assert pair_deviation_envelope(ps, disk)[0].infinite
        rep = cauchy_check(ps, ModelSpace((disk,)), 0,
                           EpsForm.geometric(1, HALF))
        assert rep.violating_pair == pair

    def test_growing_window_ratio(self):
        # 3^n times the window of 2^-k beyond n: the deviation envelope's
        # term has ratio 3/2, which no pair envelope bounds
        x = SequenceModel(window_terms=(
            WindowTerm(1, SeqVector.geometric(1, HALF), ratio=3),))
        assert not x.deviation_envelope(L1.disk(0))[0].infinite
        assert pair_deviation_envelope(x, L1.disk(0))[0].infinite
        assert not cauchy_check(x, L1, 0, EpsForm.geometric(1, HALF)).holds


class TestUndecidedHunt:
    def test_cancelling_terms_are_not_decided(self, monkeypatch):
        # x_n = 2^-n e0 - 2^-n e0 = 0, but the pair envelope adds both terms
        # to 2 2^-m, twice the budget, and no pair violates it; a small scan
        # cap keeps the hunt short
        monkeypatch.setattr("borno.seqspace._SCAN_CAP", 4)
        e0 = SeqVector.unit(0, 1)
        x = SequenceModel(geo_terms=(GeoTerm(1, HALF, e0),
                                     GeoTerm(-1, HALF, e0)))
        with pytest.raises(NotDecided, match="no envelope domination"):
            cauchy_check(x, L1, 0, EpsForm.geometric(1, HALF))


E0 = SeqVector.unit(0, 1)


def one_sided(base, terms, n0=0, x=None):
    """_one_sided_ok for limit - x_m = ``base`` on the sequence e0 plus the
    decaying terms ``(coeff, ratio)`` on e0, or on ``x``."""
    if x is None:
        x = SequenceModel(geo_terms=(GeoTerm(1, 1, E0),) + tuple(
            GeoTerm(c, r, E0) for c, r in terms))
    limit = x.limit_vector()
    return _one_sided_ok(limit, limit.subtract(base), x, n0)


class TestOneSided:
    """_one_sided_ok certifies |a_k + d_k(n)| <= |a_k| for each coordinate k
    of a = limit - x_m and the deviation d(n) = x_n - limit."""

    def test_pull_toward_zero(self):
        # a = 2 e0 - 3 e1 and d_0(n) = -2^-n - 4^-n: e1 has no deviation, and
        # d_0 lies in [-2, 0] before its dominant term settles the sign
        assert one_sided(SeqVector({0: 2, 1: -3}),
                         [(-1, HALF), (-1, Fraction(1, 4))])

    @pytest.mark.parametrize("base, terms, x", [
        # a growing term
        (SeqVector({0: 1}), [], SequenceModel(geo_terms=(
            GeoTerm(1, 1, E0), GeoTerm(-1, HALF, E0, power=1)))),
        # a = limit - x_m has a tail
        (SeqVector.geometric(1, HALF), [(-1, HALF)], None),
        # a_0 = 0 while d_0 moves
        (SeqVector({1: 1}), [(-1, HALF)], None),
        # d_0(0) = -3 overshoots a_0 = 1
        (SeqVector({0: 1}), [(-3, HALF)], None),
        # d_0 has the sign of a_0: it pushes away from zero
        (SeqVector({0: 1}), [(1, HALF)], None),
        # d_0(0) = -1 + 3/2 > 0 before the dominant -2^-n settles the sign
        (SeqVector({0: 2}), [(-1, HALF), (Fraction(3, 2), Fraction(1, 4))],
         None),
    ], ids=["growing", "tail", "zero-coordinate", "overshoot", "same-sign",
            "early-sign"])
    def test_rejections(self, base, terms, x):
        assert not one_sided(base, terms, x=x)


def tower(eps, level):
    for _ in range(level):
        eps = eps.sqrt()
    return eps


COMBINED = [
    (EpsForm.geometric(100, HALF), EpsForm.geometric(1, Fraction(3, 4))),
    (EpsForm.geometric(1, HALF), EpsForm.geometric(1, HALF)),
    (EpsForm.geometric(3, Fraction(9, 10)), EpsForm.geometric(5, Fraction(1, 10))),
    (EpsForm("invpoly", 1, alpha=1, beta=HALF, power=1),
     EpsForm("invpoly", 1, alpha=1, beta=HALF, power=3)),
    (EpsForm("invpoly", 2, alpha=3, beta=2, power=2),
     EpsForm("invpoly", 7, alpha=3, beta=2, power=1)),
]


class TestCombineEps:
    @pytest.mark.parametrize("level", range(3))
    @pytest.mark.parametrize("e1, e2", COMBINED, ids=[
        "unequal-ratios", "equal", "far-ratios", "invpoly-beta-half",
        "invpoly-beta-two"])
    def test_dominates_the_sum(self, e1, e2, level):
        e1, e2 = tower(e1, level), tower(e2, level)
        combined = _combine_eps(e1, e2)
        assert combined.level == level
        for m in range(60):
            if level == 0:  # exact
                assert combined.ge_value(m, e1._tower_value(m)
                                         + e2._tower_value(m))
            else:  # equal towers meet the bound, so allow rounding
                assert (combined.value_float(m) >= (e1.value_float(m)
                        + e2.value_float(m)) * (1 - 1e-12))

    def test_equal_ratios_add_their_amplitudes(self):
        assert (_combine_eps(EpsForm.geometric(2, HALF),
                             EpsForm.geometric(3, HALF))
                == EpsForm.geometric(5, HALF))

    @pytest.mark.parametrize("e1, e2", [
        (EpsForm.geometric(1, HALF), EpsForm.geometric(1, HALF).sqrt()),
        (EpsForm.geometric(1, HALF), EpsForm("invpoly", 1)),
        (EpsForm("invpoly", 1, beta=1), EpsForm("invpoly", 1, beta=2)),
    ], ids=["levels", "kinds", "betas"])
    def test_other_shapes_are_not_decided(self, e1, e2):
        with pytest.raises(NotDecided, match="different shapes"):
            _combine_eps(e1, e2)
