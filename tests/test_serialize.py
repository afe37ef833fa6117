import json
import math
from fractions import Fraction

import numpy as np
import pytest

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
from borno.closedforms import EpsForm
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
    disk_from_json,
    disk_to_json,
    element_from_json,
    element_to_json,
    instance_digest,
    map_from_json,
    map_to_json,
    model_space_from_json,
    model_space_to_json,
    sequence_from_json,
    sequence_to_json,
    vector_from_json,
    vector_to_json,
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
        back = EpsForm.from_dict(json.loads(json.dumps(eps.as_dict())))
        for m in (0, 3, 7):
            assert back.value_float(m) == eps.value_float(m)

    def test_bad_rational_rejected(self):
        with pytest.raises(SchemaError):
            vector_from_json({"prefix": {"0": "1/0"}, "tails": [],
                              "tail_start": 0})


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
