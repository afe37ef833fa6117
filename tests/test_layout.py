"""The one-array element layout against a per-block numpy reference.

The reference walks descriptors itself and treats every matrix block on its
own, so it shares nothing with the batched block-run kernels in
``borno.algebra``.  Every kernel must reproduce it bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borno.algebra import (
    AlgebraElement,
    DirectSum,
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    add,
    linear_dim,
    multiply,
    norm,
    scale,
    spectral_radius_single,
    unvec,
    vec,
)
from borno.serialize import canonical_json, element_from_json, element_to_json

OP2, MAXROW = "op2", "maxrow"
G2 = GridSpec.interval(0.0, 1.0, 2)
G3 = GridSpec.circle(3)


# ---------------------------------------------------------------------------
# reference: one matrix block at a time
# ---------------------------------------------------------------------------

def ref_blocks(desc):
    """(dim, norm_kind) of every matrix block, in coordinate order."""
    if isinstance(desc, MatrixAlgebra):
        return [(desc.dim, desc.norm_kind)]
    if isinstance(desc, DirectSum):
        return [b for s in desc.summands for b in ref_blocks(s)]
    return ref_blocks(desc.fiber) * len(desc.grid.points)


def ref_matrices(desc, coords):
    out, offset = [], 0
    for dim, kind in ref_blocks(desc):
        out.append((coords[offset:offset + dim * dim].reshape(dim, dim), kind))
        offset += dim * dim
    return out


def ref_children(desc, coords):
    """The element as the nested data of its descriptor's components."""
    if isinstance(desc, MatrixAlgebra):
        return coords.reshape(desc.dim, desc.dim)
    subs = (desc.summands if isinstance(desc, DirectSum)
            else [desc.fiber] * len(desc.grid.points))
    out, offset = [], 0
    for sub in subs:
        n = sum(d * d for d, _ in ref_blocks(sub))
        out.append(ref_children(sub, coords[offset:offset + n]))
        offset += n
    return out


def ref_json(nested):
    if isinstance(nested, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in nested]
    return [ref_json(x) for x in nested]


def ref_product(x, y):
    out = np.zeros_like(x)
    for k in range(x.shape[0]):
        out += x[:, k, None] * y[None, k, :]
    return out


def ref_norm(x, kind):
    if kind == MAXROW:
        return float(np.max(np.sum(np.abs(x), axis=1)))
    return float(np.linalg.svd(x)[1][0])


def ref_radius(x):
    return float(np.max(np.abs(np.linalg.eigvals(x))))


# ---------------------------------------------------------------------------
# nested descriptors and their elements
# ---------------------------------------------------------------------------

matrices = st.builds(MatrixAlgebra, st.integers(1, 3), st.sampled_from([OP2, MAXROW]))
grids = st.sampled_from([GridSpec.circle(1), G2, G3])
descriptors = st.recursive(
    matrices,
    lambda inner: st.one_of(
        st.builds(GridFunctionAlgebra, grids, inner),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda subs: DirectSum(tuple(subs)))),
    max_leaves=5)

GRID_OF_SUM = GridFunctionAlgebra(
    G3, DirectSum((MatrixAlgebra(2), MatrixAlgebra(3, MAXROW))))
GRID_OF_GRID = GridFunctionAlgebra(G2, GridFunctionAlgebra(G3, MatrixAlgebra(2)))
SUM_OF_GRIDS = DirectSum((GridFunctionAlgebra(G3, MatrixAlgebra(1, MAXROW)),
                          GridFunctionAlgebra(G2, MatrixAlgebra(2)),
                          MatrixAlgebra(2, MAXROW)))


def draw_coords(desc, seed, magnitude=0):
    rng = np.random.default_rng(seed)
    n = linear_dim(desc)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** magnitude


def bits(values):
    return np.asarray(values, dtype=np.complex128).tobytes()


nested_cases = given(desc=descriptors, seed=st.integers(0, 2**32 - 1),
                     magnitude=st.integers(-3, 3))


def with_named_shapes(test):
    for desc in (GRID_OF_SUM, GRID_OF_GRID, SUM_OF_GRIDS):
        test = example(desc=desc, seed=7, magnitude=0)(test)
    return test


class TestLayoutAgainstReference:
    @settings(max_examples=60, deadline=None)
    @with_named_shapes
    @nested_cases
    def test_coordinates_round_trip(self, desc, seed, magnitude):
        coords = draw_coords(desc, seed, magnitude)
        x = unvec(desc, coords)
        assert bits(vec(x)) == bits(coords)
        assert unvec(desc, vec(x)) == x
        # built from nested components, the coordinates come out in order
        built = AlgebraElement(desc, ref_children(desc, coords))
        assert bits(vec(built)) == bits(coords)

    @settings(max_examples=60, deadline=None)
    @with_named_shapes
    @nested_cases
    def test_json_round_trip(self, desc, seed, magnitude):
        x = unvec(desc, draw_coords(desc, seed, magnitude))
        text = canonical_json(element_to_json(x))
        assert json.loads(text)["data"] == ref_json(ref_children(desc, vec(x)))
        back = element_from_json(json.loads(text))
        assert back == x
        assert canonical_json(element_to_json(back)) == text

    @settings(max_examples=60, deadline=None)
    @with_named_shapes
    @nested_cases
    def test_linear_operations(self, desc, seed, magnitude):
        a = draw_coords(desc, seed)
        b = draw_coords(desc, seed + 1, magnitude)
        x, y = unvec(desc, a), unvec(desc, b)
        c = float(np.random.default_rng(seed).standard_normal())
        assert bits(vec(add(x, y))) == bits(a + b)
        assert bits(vec(scale(c, x))) == bits(c * a)
        assert bits(vec(scale(1j * c, y))) == bits(1j * c * b)

    @settings(max_examples=60, deadline=None)
    @with_named_shapes
    @nested_cases
    def test_product_norm_and_radius(self, desc, seed, magnitude):
        a = draw_coords(desc, seed)
        b = draw_coords(desc, seed + 1, magnitude)
        x, y = unvec(desc, a), unvec(desc, b)
        blocks = ref_matrices(desc, a)
        products = [ref_product(p, q) for (p, _), (q, _)
                    in zip(blocks, ref_matrices(desc, b))]
        assert bits(vec(multiply(x, y))) == bits(
            np.concatenate([p.reshape(-1) for p in products]))
        assert norm(x).hex() == max(ref_norm(p, k) for p, k in blocks).hex()
        assert spectral_radius_single(x).hex() == max(
            ref_radius(p) for p, _ in blocks).hex()


class TestElementSurface:
    def test_matrix_data_is_the_read_only_matrix(self):
        x = unvec(MatrixAlgebra(2), [1, 2, 3, 4])
        assert x.data.tolist() == [[1, 2], [3, 4]]
        with pytest.raises(ValueError):
            x.data[0, 0] = 5
        with pytest.raises(ValueError):
            vec(x)[0] = 5

    def test_composite_elements_have_no_matrix(self):
        x = unvec(GRID_OF_GRID, np.zeros(linear_dim(GRID_OF_GRID)))
        with pytest.raises(AttributeError):
            x.data

    def test_unvec_copies_its_input(self):
        coords = np.arange(4, dtype=np.complex128)
        x = unvec(MatrixAlgebra(2), coords)
        coords[0] = 9
        assert vec(x)[0] == 0 and coords.flags.writeable

    def test_same_blocks_merge_into_one_run(self):
        assert GRID_OF_GRID.runs == ((0, 24, 6, 2, OP2),)
        mixed = DirectSum((MatrixAlgebra(2), MatrixAlgebra(2, MAXROW),
                           MatrixAlgebra(2, MAXROW)))
        assert mixed.runs == ((0, 4, 1, 2, OP2), (4, 12, 2, 2, MAXROW))
