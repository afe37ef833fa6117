import math
import os
import subprocess
import sys

import numpy as np
import pytest

from borno.algebra import (
    AlgebraElement,
    DirectSum,
    FiniteHull,
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    NormBall,
    Scaled,
    SumDisk,
    bounded_set,
    basis,
    gauge,
    grid_element,
    linear_dim,
    matrix_element,
    multiply,
    norm,
    norms,
    products,
    scale,
    spectral_radii,
    spectral_radius_single,
    unvec,
    vec,
)
from borno.errors import DescriptorMismatch, UnsupportedDisk


def random_matrix(rng, dim, norm_kind="op2"):
    data = (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    return matrix_element(data, norm_kind)


class TestMultiply:
    def test_identity(self):
        i2 = matrix_element(np.eye(2))
        assert multiply(i2, i2) == i2

    def test_nilpotent_square_vanishes(self):
        a = matrix_element([[0, 1], [0, 0]])
        assert np.array_equal(multiply(a, a).data, np.zeros((2, 2)))

    def test_diagonal_product(self):
        a = matrix_element(np.diag([2.0, 3.0]))
        b = matrix_element(np.diag([5.0, 7.0]))
        assert np.array_equal(multiply(a, b).data, np.diag([10.0, 21.0]))

    def test_descriptor_mismatch_names_both(self):
        a = matrix_element(np.eye(2))
        b = matrix_element(np.eye(3))
        with pytest.raises(DescriptorMismatch) as err:
            multiply(a, b)
        assert "M2" in str(err.value) and "M3" in str(err.value)

    def test_grid_product_is_pointwise(self):
        desc = GridFunctionAlgebra(GridSpec.circle(3), MatrixAlgebra(1))
        f = grid_element(desc, [[[1.0]], [[2.0]], [[3.0]]])
        g = grid_element(desc, [[[4.0]], [[5.0]], [[6.0]]])
        prod = multiply(f, g)
        assert list(vec(prod)) == [4.0, 10.0, 18.0]

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            matrix_element([[math.nan, 0], [0, 0]])


class TestNorm:
    def test_identity_op2(self):
        assert norm(matrix_element(np.eye(2))) == pytest.approx(1.0)

    def test_rank_one_op2(self):
        assert norm(matrix_element([[0, 2], [0, 0]])) == pytest.approx(2.0)

    def test_maxrow(self):
        a = matrix_element([[1, 1], [0, 1]], "maxrow")
        assert norm(a) == 2.0

    def test_direct_sum_is_max(self):
        desc = DirectSum((MatrixAlgebra(2), MatrixAlgebra(1)))
        elem = AlgebraElement(desc, (matrix_element(np.eye(2)),
                                     matrix_element([[5.0]])))
        assert norm(elem) == pytest.approx(5.0)

    def test_submultiplicative_both_kinds(self):
        rng = np.random.default_rng(7)
        for kind in ("op2", "maxrow"):
            for _ in range(25):
                a = random_matrix(rng, 3, kind)
                b = random_matrix(rng, 3, kind)
                lhs = norm(multiply(a, b))
                rhs = norm(a) * norm(b)
                assert lhs <= rhs * (1 + 1e-12)


class TestSpectralRadiusSingle:
    def test_nilpotent(self):
        assert spectral_radius_single(matrix_element([[0, 1], [0, 0]])) == 0.0

    def test_diagonal(self):
        assert spectral_radius_single(
            matrix_element(np.diag([2.0, -3.0]))) == pytest.approx(3.0)

    def test_closed_form_quadratic(self):
        a = matrix_element([[2, 1], [1, 1]])
        expected = (3 + math.sqrt(5)) / 2
        assert spectral_radius_single(a) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_norm_and_equality_for_normal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_matrix(rng, 4)
            assert spectral_radius_single(a) <= norm(a) * (1 + 1e-12)
        for _ in range(10):
            h = rng.standard_normal((3, 3))
            a = matrix_element(h + h.T)  # symmetric = normal
            assert spectral_radius_single(a) == pytest.approx(norm(a),
                                                              abs=1e-8)

    def test_grid_is_max_over_points(self):
        desc = GridFunctionAlgebra(GridSpec.circle(2), MatrixAlgebra(2))
        elem = grid_element(desc, [np.diag([1.0, 2.0]), np.diag([3.0, 0.5])])
        assert spectral_radius_single(elem) == pytest.approx(3.0)


class TestGauge:
    def test_norm_ball_scaling(self):
        x = matrix_element([[0, 1], [0, 0]])  # norm 1
        assert gauge(NormBall(2.0), x) == pytest.approx(0.5)

    def test_single_generator_hull(self):
        i2 = matrix_element(np.eye(2))
        hull = FiniteHull((i2,))
        assert gauge(hull, scale(3.0, i2)) == pytest.approx(3.0, abs=1e-9)

    def test_two_generator_hull_lp(self):
        # e1, e2 as diagonal projections; e1 + e2 has gauge 2
        e1 = matrix_element(np.diag([1.0, 0.0]))
        e2 = matrix_element(np.diag([0.0, 1.0]))
        hull = FiniteHull((e1, e2))
        target = matrix_element(np.eye(2))
        assert gauge(hull, target) == pytest.approx(2.0, abs=1e-8)

    def test_outside_span_is_infinite(self):
        e1 = matrix_element(np.diag([1.0, 0.0]))
        off = matrix_element([[0, 1], [0, 0]])
        assert gauge(FiniteHull((e1,)), off) == math.inf

    def test_scaled_disk(self):
        rng = np.random.default_rng(11)
        ball = NormBall(1.0)
        for c in (0.5, 2.0, 10.0):
            x = random_matrix(rng, 2)
            assert gauge(Scaled(c, ball), x) == pytest.approx(
                gauge(ball, x) / c, rel=1e-12)

    def test_sum_of_balls_adds_radii(self):
        x = matrix_element([[0, 3], [0, 0]])
        d = SumDisk(NormBall(1.0), NormBall(2.0))
        assert gauge(d, x) == pytest.approx(1.0)

    def test_sum_of_hulls_via_grouped_lp(self):
        e1 = matrix_element(np.diag([1.0, 0.0]))
        e2 = matrix_element(np.diag([0.0, 1.0]))
        d = SumDisk(FiniteHull((e1,)), FiniteHull((e2,)))
        # e1 + e2 = 1*e1 + 1*e2 with per-hull budget 1 each
        assert gauge(d, matrix_element(np.eye(2))) == pytest.approx(1.0,
                                                                    abs=1e-8)

    def test_import_defers_scipy_until_first_hull_gauge(self):
        import borno

        code = (
            "import sys\n"
            "import borno, borno.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "import numpy as np\n"
            "from borno import FiniteHull, gauge, matrix_element\n"
            "e1 = matrix_element(np.diag([1.0, 0.0]))\n"
            "e2 = matrix_element(np.diag([0.0, 1.0]))\n"
            "print(repr(gauge(FiniteHull((e1, e2)),"
            " matrix_element(np.eye(2)))))\n"
        )
        src = os.path.dirname(os.path.dirname(borno.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        loaded, value = out.stdout.split()
        assert loaded == "False"
        e1 = matrix_element(np.diag([1.0, 0.0]))
        e2 = matrix_element(np.diag([0.0, 1.0]))
        assert float(value) == gauge(FiniteHull((e1, e2)),
                                     matrix_element(np.eye(2)))

    def test_mixed_sum_rejected(self):
        e1 = matrix_element(np.diag([1.0, 0.0]))
        with pytest.raises(UnsupportedDisk):
            gauge(SumDisk(NormBall(1.0), FiniteHull((e1,))), e1)

    def test_hull_gauge_is_a_seminorm(self):
        rng = np.random.default_rng(23)
        gens = tuple(random_matrix(rng, 2) for _ in range(5))
        # close under multiplication by i so complex combinations are covered
        gens = gens + tuple(scale(1j, g) for g in gens)
        hull = FiniteHull(gens)
        for _ in range(10):
            lam = rng.standard_normal(len(gens))
            x = matrix_element(sum(l * g.data for l, g in zip(lam, gens)))
            y = matrix_element(sum(l * g.data for l, g in zip(
                rng.standard_normal(len(gens)), gens)))
            gx, gy = gauge(hull, x), gauge(hull, y)
            gxy = gauge(hull, matrix_element(x.data + y.data))
            assert gxy <= gx + gy + 1e-7
            assert gauge(hull, scale(2.0, x)) == pytest.approx(2 * gx,
                                                               abs=1e-7)


class TestCoordinates:
    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(5)
        desc = DirectSum((MatrixAlgebra(2),
                          GridFunctionAlgebra(GridSpec.circle(3),
                                              MatrixAlgebra(1))))
        coords = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        elem = unvec(desc, coords)
        assert np.allclose(vec(elem), coords)

    def test_basis_matches_vec_order(self):
        desc = MatrixAlgebra(2)
        for k, e in enumerate(basis(desc)):
            v = vec(e)
            assert v[k] == 1.0 and np.count_nonzero(v) == 1


class TestEquality:
    def test_signed_zeros_hash_alike(self):
        desc = GridFunctionAlgebra(GridSpec.circle(2), MatrixAlgebra(1))
        pairs = [
            (matrix_element([[0.0]]), matrix_element([[-0.0]])),
            (matrix_element([[complex(1, 0.0)]]),
             matrix_element([[complex(1, -0.0)]])),
            (unvec(desc, [complex(-0.0, -0.0), 2]), unvec(desc, [0, 2])),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1


class TestRowKernels:
    """Each row of a batch gets the bits the per-element kernel gives it."""

    @pytest.mark.parametrize("desc", [
        MatrixAlgebra(1), MatrixAlgebra(3), MatrixAlgebra(3, "maxrow"),
        GridFunctionAlgebra(GridSpec.circle(4), MatrixAlgebra(2)),
        GridFunctionAlgebra(GridSpec.circle(2),
                            DirectSum((MatrixAlgebra(2),
                                       MatrixAlgebra(1, "maxrow")))),
    ], ids=str)
    def test_rows_match_elements(self, desc):
        rng = np.random.default_rng(8)
        dim = linear_dim(desc)
        rows = rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim))
        rows[1] = 0.0
        gens = rows[:3]
        elems = [unvec(desc, r) for r in rows]
        prods = products(desc, rows[:, None], gens)
        for i, a in enumerate(elems):
            for j, g in enumerate(elems[:3]):
                assert prods[i, j].tobytes() == multiply(a, g).coords.tobytes()
        assert norms(desc, rows).tolist() == [norm(a) for a in elems]
        assert (spectral_radii(desc, rows).tolist()
                == [spectral_radius_single(a) for a in elems])


class TestBoundedSet:
    def test_hull_flag_roundtrip(self):
        s = bounded_set([matrix_element(np.eye(2))])
        assert s.as_hull().interpretation == "hull"
        assert s.as_hull().generators == s.generators

    def test_mixed_descriptors_rejected(self):
        with pytest.raises(DescriptorMismatch):
            bounded_set([matrix_element(np.eye(2)),
                         matrix_element(np.eye(3))])


class TestHullGaugeOracle:
    def test_matches_unique_decomposition(self):
        # linearly independent generators decompose uniquely, so the minimal
        # coefficient sum is forced; independent of the LP solver
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            gens = []
            while True:
                cand = [random_matrix(rng, 2) for _ in range(k)]
                cols = np.stack([np.concatenate([vec(g).real, vec(g).imag])
                                 for g in cand], axis=1)
                if np.linalg.matrix_rank(cols) == k:
                    gens = cand
                    break
            lam = rng.standard_normal(k)
            x = matrix_element(sum(l * g.data for l, g in zip(lam, gens)))
            value = gauge(FiniteHull(tuple(gens)), x)
            assert value == pytest.approx(float(np.sum(np.abs(lam))),
                                          abs=1e-8)


class TestFallbackKernels:
    def test_power_iteration_agrees_with_svd(self):
        from borno.algebra import _power_iteration_bracket
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            est, ok, bracket = _power_iteration_bracket(m)
            sigma = float(np.linalg.svd(m, compute_uv=False)[0])
            assert ok
            assert est == pytest.approx(sigma, rel=1e-6)
            assert bracket[0] <= sigma * (1 + 1e-9)
            assert bracket[1] >= sigma * (1 - 1e-9)

    @pytest.mark.parametrize("points", [1, 2])
    def test_huge_entries_do_not_pass_a_wrong_sigma(self, monkeypatch, points):
        # entries near 2^600 overflow the squares the residual check takes; a
        # wrong leading singular value must still fail the check, on the lone
        # matrix path and on the batched one
        base = np.array([[3.0, 1.0], [0.0, 1.0]])
        mats = [math.ldexp(1.0, 600) * (p + 1) * base for p in range(points)]
        want = max(float(np.linalg.svd(m, compute_uv=False)[0]) for m in mats)
        desc = GridFunctionAlgebra(GridSpec.interval(0.0, 1.0, points),
                                   MatrixAlgebra(2))
        element = grid_element(desc, mats)
        real_svd = np.linalg.svd

        def wrong_svd(a, *args, **kwargs):
            u, s, vh = real_svd(a, *args, **kwargs)
            return u, 1.5 * s, vh

        monkeypatch.setattr(np.linalg, "svd", wrong_svd)
        assert norm(element) == pytest.approx(want, rel=1e-8)

    def test_power_iteration_zero_matrix(self):
        from borno.algebra import _power_iteration_bracket
        est, ok, bracket = _power_iteration_bracket(np.zeros((3, 3), complex))
        assert ok and est == 0.0

    def test_gelfand_bracket_bounds_spectral_radius(self):
        from borno.algebra import _gelfand_bracket
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = (rng.standard_normal((4, 4))
                 + 1j * rng.standard_normal((4, 4))) / 2
            lo, hi = _gelfand_bracket(m, "op2", kmax=32)
            rho = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert lo <= rho <= hi * (1 + 1e-9)
