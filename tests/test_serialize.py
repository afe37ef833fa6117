import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borno.algebra import (
    DirectSum,
    FiniteHull,
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    NormBall,
    Scaled,
    SumDisk,
    bounded_set,
    matrix_element,
    unvec,
)
from borno.closedforms import EpsForm, WeightForm
from borno.errors import SchemaError
from borno.fixtures import corner_embedding
from borno.maps import LinearMap
from borno.seqspace import (
    DiskForm,
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    WindowTerm,
)
from borno.serialize import (
    bounded_set_from_json,
    bounded_set_to_json,
    canonical_json,
    descriptor_from_json,
    descriptor_to_json,
    disk_form_from_json,
    disk_form_to_json,
    disk_from_json,
    disk_to_json,
    element_from_json,
    element_to_json,
    eps_from_json,
    eps_to_json,
    instance_digest,
    map_from_json,
    map_to_json,
    model_space_from_json,
    model_space_to_json,
    sequence_from_json,
    sequence_to_json,
    vector_from_json,
    vector_to_json,
    weight_from_json,
    weight_to_json,
)


def roundtrip(obj, to_json, from_json):
    return from_json(json.loads(json.dumps(to_json(obj))))


class TestDescriptors:
    def test_matrix_roundtrip(self):
        desc = MatrixAlgebra(3, "maxrow")
        assert roundtrip(desc, descriptor_to_json, descriptor_from_json) == desc

    def test_nested_roundtrip(self):
        desc = DirectSum((
            MatrixAlgebra(2),
            GridFunctionAlgebra(GridSpec.circle(3), MatrixAlgebra(1)),
        ))
        assert roundtrip(desc, descriptor_to_json, descriptor_from_json) == desc

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            descriptor_from_json({"kind": "quaternionic"})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            descriptor_from_json({"kind": "matrix", "dim": 2, "extra": 1})

    def test_grid_distances_rejected(self):
        obj = descriptor_to_json(
            GridFunctionAlgebra(GridSpec.interval(0.0, 1.0, 2),
                                MatrixAlgebra(1)))
        assert sorted(obj) == ["fiber", "kind", "points"]
        obj["distances"] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(SchemaError, match="distances"):
            descriptor_from_json(obj)


class TestElements:
    def test_complex_entries_roundtrip(self):
        rng = np.random.default_rng(0)
        desc = DirectSum((MatrixAlgebra(2),
                          GridFunctionAlgebra(GridSpec.circle(2),
                                              MatrixAlgebra(1))))
        elem = unvec(desc, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        back = roundtrip(elem, element_to_json, element_from_json)
        assert back == elem

    def test_bounded_set_roundtrip(self):
        s = bounded_set([matrix_element([[1, 2], [3, 4]]),
                         matrix_element([[0, 1j], [0, 0]])])
        back = roundtrip(s, bounded_set_to_json, bounded_set_from_json)
        assert back.generators == s.generators

    def test_bounded_set_interpretation_rejected(self):
        obj = bounded_set_to_json(bounded_set([matrix_element(np.eye(2))]))
        assert sorted(obj) == ["descriptor", "generators"]
        obj["interpretation"] = "set"
        with pytest.raises(SchemaError, match="interpretation"):
            bounded_set_from_json(obj)

    def test_real_shorthand_accepted(self):
        elem = element_from_json({
            "descriptor": {"kind": "matrix", "dim": 1, "norm": "op2"},
            "data": [[2.5]],
        })
        assert elem.data[0, 0] == 2.5


class TestDisks:
    def test_all_variants_roundtrip(self):
        hull = FiniteHull((matrix_element(np.eye(2)),))
        disk = SumDisk(Scaled(2.0, hull), hull)
        back = roundtrip(disk, disk_to_json, disk_from_json)
        assert isinstance(back, SumDisk)
        assert isinstance(back.left, Scaled)
        ball = Scaled(0.5, NormBall(3.0))
        back_ball = roundtrip(ball, disk_to_json, disk_from_json)
        assert back_ball == ball

    def test_hull_is_a_bounded_set_with_a_kind(self):
        gens = (matrix_element(np.eye(2)), matrix_element([[0, 1j], [0, 0]]))
        obj = disk_to_json(FiniteHull(gens))
        assert obj == {"kind": "finite_hull",
                       **bounded_set_to_json(bounded_set(gens))}
        assert disk_from_json(obj) == FiniteHull(gens)

    def test_empty_family_rejected(self):
        obj = {"descriptor": {"kind": "matrix", "dim": 1, "norm": "op2"},
               "generators": []}
        with pytest.raises(SchemaError, match="^set: .*at least one generator"):
            bounded_set_from_json(obj, "set")
        with pytest.raises(SchemaError, match="^disk: .*at least one generator"):
            disk_from_json({"kind": "finite_hull", **obj})


class TestMaps:
    def test_homomorphism_roundtrip(self):
        f = corner_embedding(2, 3)
        back = roundtrip(f, map_to_json, map_from_json)
        assert back.source == f.source
        assert back.target == f.target
        assert np.array_equal(back.action, f.action)

    def test_linear_map_roundtrip(self):
        desc = MatrixAlgebra(2)
        transpose = LinearMap.from_callable(
            desc, desc, lambda e: matrix_element(e.data.T))
        back = map_from_json(json.loads(json.dumps(map_to_json(transpose))),
                             homomorphism=False)
        assert np.array_equal(back.action, transpose.action)

    def test_non_multiplicative_map_rejected_as_homomorphism(self):
        desc = MatrixAlgebra(2)
        transpose = LinearMap.from_callable(
            desc, desc, lambda e: matrix_element(e.data.T))
        with pytest.raises(ValueError):
            map_from_json(json.loads(json.dumps(map_to_json(transpose))))


class TestSequenceObjects:
    def test_vector_roundtrip(self):
        v = SeqVector({0: Fraction(3, 7)}, ((Fraction(1, 2), Fraction(-1, 3)),),
                      tail_start=2)
        back = roundtrip(v, vector_to_json, vector_from_json)
        assert back == v

    def test_sequence_roundtrip_evaluates_identically(self):
        model = SequenceModel(
            geo_terms=(GeoTerm(1, 1, SeqVector.unit(1, 1)),
                       GeoTerm(Fraction(-1, 2), Fraction(1, 2),
                               SeqVector.unit(1, 1), power=1)),
            window_terms=(WindowTerm(1, SeqVector.geometric(1, Fraction(1, 2)),
                                     2, 1, Fraction(1, 3)),))
        back = roundtrip(model, sequence_to_json, sequence_from_json)
        for n in range(6):
            assert back.at(n) == model.at(n)

    def test_model_space_roundtrip(self):
        space = ModelSpace((DiskForm("sum"), DiskForm("sup")),
                           tails_admitted=False)
        back = roundtrip(space, model_space_to_json, model_space_from_json)
        assert back == space

    def test_eps_roundtrip_preserves_tower(self):
        eps = EpsForm.geometric(4, Fraction(1, 2)).sqrt()
        back = roundtrip(eps, eps_to_json, eps_from_json)
        for m in (0, 3, 7):
            assert back.value_float(m) == eps.value_float(m)

    def test_bad_rational_rejected(self):
        with pytest.raises(SchemaError):
            vector_from_json({"prefix": {"0": "1/0"}, "tails": [],
                              "tail_start": 0})


def fractions(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=64)


POSITIVE = fractions(Fraction(1, 64), 64)
TAIL_RATIOS = fractions(Fraction(-63, 64), Fraction(63, 64)).filter(bool)
WEIGHTS = st.builds(WeightForm, POSITIVE, POSITIVE, st.integers(0, 3))
EPS_FORMS = st.one_of(
    st.builds(lambda a, q, level: EpsForm("geom", a, q, level=level),
              POSITIVE, fractions(Fraction(1, 64), 1), st.integers(0, 2)),
    st.builds(lambda a, p, alpha, beta, level: EpsForm(
        "invpoly", a, alpha=alpha, beta=beta, power=p, level=level),
        POSITIVE, st.integers(1, 4), POSITIVE, POSITIVE, st.integers(0, 2)))
DISK_FORMS = st.builds(DiskForm, st.sampled_from(["sum", "sup"]), WEIGHTS,
                       POSITIVE)


@st.composite
def vectors(draw):
    tails = draw(st.lists(st.tuples(fractions(-4, 4), TAIL_RATIOS),
                          max_size=2))
    start = draw(st.integers(1, 4)) if tails else 8
    prefix = draw(st.dictionaries(st.integers(0, start - 1),
                                  fractions(-4, 4), max_size=3))
    return SeqVector(prefix, tails, start)


SEQUENCES = st.builds(
    SequenceModel,
    st.lists(vectors(), max_size=2),
    st.lists(st.builds(GeoTerm, fractions(-4, 4),
                       st.one_of(st.just(Fraction(1)), TAIL_RATIOS),
                       vectors(), st.integers(0, 2)), max_size=2),
    st.lists(st.builds(WindowTerm, fractions(-4, 4), vectors(),
                       st.integers(1, 3), st.integers(0, 3),
                       fractions(-4, 4).filter(bool)), max_size=2))


class TestClosedFormRoundtrips:
    """to_json, then JSON text, then from_json gives the object back."""

    @settings(max_examples=60, deadline=None)
    @given(WEIGHTS)
    def test_weights(self, w):
        assert roundtrip(w, weight_to_json, weight_from_json) == w

    @settings(max_examples=60, deadline=None)
    @given(EPS_FORMS)
    def test_eps(self, eps):
        assert roundtrip(eps, eps_to_json, eps_from_json) == eps

    @settings(max_examples=60, deadline=None)
    @given(DISK_FORMS)
    def test_disk_forms(self, disk):
        assert roundtrip(disk, disk_form_to_json, disk_form_from_json) == disk

    @settings(max_examples=40, deadline=None)
    @given(SEQUENCES)
    def test_sequences(self, model):
        back = roundtrip(model, sequence_to_json, sequence_from_json)
        assert back.prefix == model.prefix
        assert back.geo_terms == model.geo_terms
        assert back.window_terms == model.window_terms

    def test_json_number_reads_as_its_decimal_text(self):
        assert (weight_from_json({"base": 0.1})
                == weight_from_json({"base": "1/10"})
                == WeightForm(1, Fraction(1, 10)))

    def test_unknown_eps_kind_is_named(self):
        with pytest.raises(SchemaError, match="unknown kind 'zzz'"):
            eps_from_json({"kind": "zzz", "amp": "1"})


class TestDigest:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_ignores_key_order(self):
        a = {"x": [1.5, 2.5], "y": {"p": 1, "q": 2}}
        b = {"y": {"q": 2, "p": 1}, "x": [1.5, 2.5]}
        assert instance_digest(a) == instance_digest(b)

    def test_digest_rejects_nan(self):
        with pytest.raises(ValueError):
            instance_digest({"x": math.nan})
