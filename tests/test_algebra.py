import importlib.util
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
    gauges,
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
from borno.errors import DescriptorMismatch, NumericalFailure, UnsupportedDisk


def run_python(code):
    """The words ``code`` prints in a fresh interpreter that imports
    borno from this checkout."""
    import borno

    src = os.path.dirname(os.path.dirname(borno.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


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

    def test_beyond_the_float_range_is_infinite(self):
        # finite entries whose op2 norm 1.5e308 * sqrt(2) overflows: inf,
        # with neither an OverflowError nor a RuntimeWarning
        big = np.array([[1.5e308, 1.5e308], [0.0, 0.0]])
        assert norm(matrix_element(big)) == math.inf
        stack = np.stack([big, np.eye(2)]).reshape(2, 4)
        assert norms(MatrixAlgebra(2), stack).tolist() == [math.inf, 1.0]

    def test_submultiplicative_both_kinds(self):
        rng = np.random.default_rng(7)
        for kind in ("op2", "maxrow"):
            for _ in range(25):
                a = random_matrix(rng, 3, kind)
                b = random_matrix(rng, 3, kind)
                lhs = norm(multiply(a, b))
                rhs = norm(a) * norm(b)
                assert lhs <= rhs * (1 + 1e-12)


def _op2_norm(mat):
    """Reference op2 certificate, one matrix at a time.

    The SVD runs on ``mat``; the residual check of its leading singular
    triple and the power-iteration fallback run on the copy scaled by the
    power of two that brings the largest entry into [1/2, 1), when that
    entry is outside [2^-250, 2^250].
    """
    from borno.algebra import NORM_TOL, _bracket, _unsafe_peaks
    peak = float(np.max(np.abs(mat)))
    exp = (math.frexp(peak)[1]
           if _unsafe_peaks(peak) and peak < math.inf else 0)
    mat_s = math.ldexp(1.0, -exp) * mat if exp else mat
    try:
        u, s, vh = np.linalg.svd(mat)
    except np.linalg.LinAlgError:
        return _bracket(mat_s, exp,
                        "operator-2-norm iteration did not converge")
    sigma = float(s[0])
    if sigma == 0.0:
        return 0.0
    sigma_s = math.ldexp(sigma, -exp)
    r1 = float(np.linalg.norm(mat_s @ vh[0].conj() - sigma_s * u[:, 0]))
    r2 = float(np.linalg.norm(mat_s.conj().T @ u[:, 0]
                              - sigma_s * vh[0].conj()))
    fro = float(np.linalg.norm(mat_s, "fro"))
    if max(r1, r2) > NORM_TOL * sigma_s + 1e-13 * fro:
        return _bracket(mat_s, exp, "operator-2-norm residual check failed")
    return sigma


def _norm_stacks(rng):
    """``(d, count, stack)`` over sides 1-8, counts 1, 2, 5 and 40, uniform
    scales 2^0, 2^+-300 and 2^+-600 and mixed-scale stacks, each with its
    random matrices, its rank-one matrices and its zero matrices."""
    for d in range(1, 9):
        for count in (1, 2, 5, 40):
            for scale in (0, 300, -300, 600, -600, None):
                mats = (rng.standard_normal((count, d, d))
                        + 1j * rng.standard_normal((count, d, d)))
                rank_one = np.einsum("ni,nj->nij",
                                     rng.standard_normal((count, d)),
                                     rng.standard_normal((count, d)) + 1j)
                exps = (rng.choice([0, 250, -250, 300, -300, 600, -600],
                                   size=count)
                        if scale is None else np.full(count, scale))
                for stack in (mats, rank_one, np.zeros_like(mats)):
                    yield d, count, stack * np.ldexp(1.0, exps)[:, None, None]
                mixed = mats.copy()
                mixed[1::3] = rank_one[1::3]
                mixed[2::3] = 0.0
                yield d, count, mixed * np.ldexp(1.0, exps)[:, None, None]


class TestNormReference:
    """Each row of :func:`norms` is the scalar reference's value, bit for
    bit, also when the SVD lies or fails and the fallbacks decide."""

    @staticmethod
    def check(kind, reference):
        rng = np.random.default_rng(2010)
        for d, count, stack in _norm_stacks(rng):
            got = norms(MatrixAlgebra(d, kind), stack.reshape(count, d * d))
            want = [reference(mat) for mat in stack]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
            lone = unvec(MatrixAlgebra(d, kind), stack[0].reshape(-1))
            assert norm(lone).hex() == want[0].hex()

    def test_maxrow(self):
        self.check("maxrow",
                   lambda mat: float(np.max(np.sum(np.abs(mat), axis=1))))

    @pytest.mark.parametrize("svd_mode", [
        "exact",
        1.5,
        1.0 + 1.5e-10,  # a residual between the limit and twice the limit
        "fails-on-stacks",
        "fails",
    ])
    def test_op2(self, monkeypatch, svd_mode):
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if svd_mode == "fails" or (svd_mode == "fails-on-stacks"
                                       and a.ndim == 3 and len(a) > 1):
                raise np.linalg.LinAlgError("SVD did not converge")
            u, s, vh = real_svd(a, *args, **kwargs)
            return u, (s if isinstance(svd_mode, str) else svd_mode * s), vh

        monkeypatch.setattr(np.linalg, "svd", svd)
        self.check("op2", _op2_norm)


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
        # the gauge solves an LP, which loads HiGHS's extension and neither
        # scipy's optimizer nor the sparse package its init imports
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
            "print('scipy.optimize._highspy._core' in sys.modules,"
            " 'scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)\n"
        )
        loaded, value, *after = run_python(code)
        assert loaded == "False"
        assert after == ["True", "False", "False"]
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


HIGHS_CORE = "scipy.optimize._highspy._core"

# one LP with inequality and equality rows by borno's direct HiGHS call and by
# linprog, with scipy's optimizer imported before the first borno LP or after
LP_BOTH_WAYS = """\
import sys
import numpy as np
{before}import borno.algebra
c = np.array([1.0, 2.0, 1.0, 3.0])
a_ub, b_ub = np.array([[1.0, -1.0, 0.5, 0.0]]), np.array([0.25])
a_eq, b_eq = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, -1.0, 2.0]]), np.array([2.0, 0.5])
x, fun, duals = borno.algebra._solve_lp(c, a_eq, b_eq, a_ub, b_ub)
from scipy.optimize import linprog
res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
ref = np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
print(x.tobytes() == res.x.tobytes(),
      np.float64(fun).tobytes() == np.float64(res.fun).tobytes(),
      duals.tobytes() == ref.tobytes(),
      sys.modules["scipy.optimize._highspy._core"] is borno.algebra._highs()[0])
"""


class TestHighsLoader:
    """``_highs`` loads HiGHS's extension alone, or reuses scipy's."""

    @pytest.mark.parametrize("before", ["", "from scipy.optimize import linprog\n"],
                             ids=["linprog-after", "linprog-before"])
    def test_direct_lp_matches_linprog_in_either_import_order(self, before):
        assert run_python(LP_BOTH_WAYS.format(before=before)) == ["True"] * 4

    def test_reuses_the_module_scipy_loaded(self):
        import scipy.optimize  # noqa: F401
        from borno.algebra import _highs

        core, options = _highs.__wrapped__()
        assert core is sys.modules[HIGHS_CORE]
        assert options.presolve == "on" and not options.output_flag

    def test_loads_the_extension_from_its_file(self, monkeypatch):
        from borno.algebra import _highs

        monkeypatch.delitem(sys.modules, HIGHS_CORE)
        core, _options = _highs.__wrapped__()
        assert sys.modules[HIGHS_CORE] is core
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        assert os.path.dirname(core.__spec__.origin) == os.path.join(
            scipy_dir, "optimize", "_highspy")
        assert isinstance(core.HighsOptions(), core.HighsOptions)


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

    def test_repr_and_foreign_operands(self):
        a = matrix_element([[2.0]])
        assert repr(a) == ("AlgebraElement(M1[op2], "
                           "coords=array([2.+0.j]))")
        assert a != 2.0 and a != [[2.0]]


ROW_DESCS = [
    MatrixAlgebra(1), MatrixAlgebra(3), MatrixAlgebra(3, "maxrow"),
    GridFunctionAlgebra(GridSpec.circle(4), MatrixAlgebra(2)),
    GridFunctionAlgebra(GridSpec.circle(2),
                        DirectSum((MatrixAlgebra(2),
                                   MatrixAlgebra(1, "maxrow")))),
]


class TestRowKernels:
    """Each row of a batch gets the bits the per-element kernel gives it."""

    @pytest.mark.parametrize("desc", ROW_DESCS, ids=str)
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

    @pytest.mark.parametrize("desc", [
        MatrixAlgebra(1), DirectSum((MatrixAlgebra(2), MatrixAlgebra(1)))],
        ids=str)
    def test_lone_one_by_one_products_match_multiply(self, desc):
        # one row times one generator makes each 1x1 block's product a lone
        # complex entry, which numpy rounds in another loop when the two
        # operands' ndims differ
        rng = np.random.default_rng(89)
        dim = linear_dim(desc)
        for _ in range(50):
            a, g = (rng.standard_normal((2, dim))
                    + 1j * rng.standard_normal((2, dim)))
            want = multiply(unvec(desc, a), unvec(desc, g)).coords.tobytes()
            assert products(desc, a[None, None], g[None])[0, 0].tobytes() == want
            assert products(desc, a, g[None])[0].tobytes() == want
            assert products(desc, a[None], g)[0].tobytes() == want

    @pytest.mark.parametrize("desc", ROW_DESCS, ids=str)
    def test_gauges_match_gauge(self, desc):
        rng = np.random.default_rng(9)
        dim = linear_dim(desc)
        rows = rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim))
        rows[1] = 0.0
        # rows in the generators' span, inside and outside their hull
        rows[4] = 0.3 * rows[0] - 0.2 * rows[2]
        rows[5] = 2.0 * rows[3] - rows[0]
        rows[6] = rows[2]
        gens = tuple(unvec(desc, r) for r in rows[:4])
        disks = [NormBall(2.0), Scaled(0.5, NormBall(1.0)), FiniteHull(gens),
                 SumDisk(FiniteHull(gens[:2]), Scaled(3.0, FiniteHull(gens[2:])))]
        for disk in disks:
            assert (gauges(disk, desc, rows).tolist()
                    == [gauge(disk, unvec(desc, r)) for r in rows])


class TestBoundedSet:
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

    @pytest.mark.parametrize("exp, points", [
        pytest.param(600, 1, id="1"),
        pytest.param(600, 2, id="2"),
        pytest.param(-600, 1, id="tiny-1"),
        pytest.param(-600, 3, id="tiny-3"),
    ])
    def test_huge_entries_do_not_pass_a_wrong_sigma(self, monkeypatch, exp,
                                                    points):
        # entries near 2^600 overflow the squares the residual check takes,
        # and entries near 2^-600 underflow them; a wrong leading singular
        # value must still fail the check, on the lone matrix path and on
        # the batched one
        base = np.array([[3.0, 1.0], [0.0, 1.0]])
        mats = [math.ldexp(1.0, exp) * (p + 1) * base for p in range(points)]
        want = max(float(np.linalg.svd(m, compute_uv=False)[0]) for m in mats)
        desc = GridFunctionAlgebra(GridSpec.interval(0.0, 1.0, points),
                                   MatrixAlgebra(2))
        element = grid_element(desc, mats)
        real_svd = np.linalg.svd

        def wrong_svd(a, *args, **kwargs):
            u, s, vh = real_svd(a, *args, **kwargs)
            return u, 1.5 * s, vh

        monkeypatch.setattr(np.linalg, "svd", wrong_svd)
        assert norm(element) == pytest.approx(want, rel=1e-8, abs=0.0)

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

    @staticmethod
    def failing(real, stacks_only=False):
        """``real`` that raises LinAlgError, on every call or only on
        stacks of more than one matrix."""
        def call(a, *args, **kwargs):
            if not stacks_only or (a.ndim == 3 and len(a) > 1):
                raise np.linalg.LinAlgError("did not converge")
            return real(a, *args, **kwargs)
        return call

    @pytest.mark.parametrize("data, bracket", [
        # A^H A kills the start vector (1, 1)/sqrt 2, though |A| = 2
        ([[1.0, -1.0], [1.0, -1.0]], (0.0, 2.0)),
        # singular values 1 and 0.999: 2,000 steps do not settle sigma
        ([[1.0, 0.0], [0.0, 0.999]], (0.9999996651526147, 1.4135066324570253)),
        # singular values 1 and 1 - 10^-5: sigma settles below 1, but its
        # A^H A residual stays above NORM_TOL * sigma^2
        ([[1.0, 0.0], [0.0, 1 - 1e-5]], (0.9999951998319997, 1.414206491322961)),
    ])
    def test_power_iteration_that_cannot_certify_raises(self, monkeypatch,
                                                        data, bracket):
        from borno.algebra import _power_iteration_bracket
        est, ok, got = _power_iteration_bracket(np.array(data, complex))
        assert not ok and got == pytest.approx(bracket, rel=1e-12)
        monkeypatch.setattr(np.linalg, "svd", self.failing(np.linalg.svd))
        with pytest.raises(NumericalFailure, match="best bracket") as info:
            norm(matrix_element(data))
        assert info.value.bracket == got

    def test_eigvals_failing_on_stacks_retries_each_matrix(self, monkeypatch):
        rng = np.random.default_rng(14)
        desc = GridFunctionAlgebra(GridSpec.circle(3), MatrixAlgebra(2))
        rows = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        want = spectral_radii(desc, rows)
        monkeypatch.setattr(np.linalg, "eigvals",
                            self.failing(np.linalg.eigvals, stacks_only=True))
        assert spectral_radii(desc, rows).tobytes() == want.tobytes()

    def test_eigvals_failing_on_a_matrix_raises_its_gelfand_bracket(
            self, monkeypatch):
        # the square of a matrix with entries 2^600 overflows (with numpy's
        # warnings), which stops the bracket after its first power
        big = matrix_element(math.ldexp(1.0, 600) * np.array([[1.0, 1.0],
                                                              [0.0, 1.0]]))
        monkeypatch.setattr(np.linalg, "eigvals",
                            self.failing(np.linalg.eigvals))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericalFailure, match="eigenvalue") as info:
                spectral_radius_single(big)
        assert info.value.bracket == (0.0, norm(big))
