import functools
import math
import sys
import threading
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import borno.algebra
from borno import jsr
from borno.algebra import (
    DirectSum,
    FiniteHull,
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    bounded_set,
    gauge,
    grid_element,
    matrix_element,
    multiply,
    norm,
    norms,
    Scaled,
    scale,
    SumDisk,
    spectral_radius_single,
)
from borno.errors import CapExceeded, InvariantViolation, NumericalFailure
from borno.jsr import (
    RadiusEstimate,
    check_specrad_identities,
    direct_union_liminf,
    jsr_estimate,
    jsr_grid_max,
    kronecker_bound_check,
    _HullStack,
    pad_to,
    submultiplicative_hull,
)

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = [matrix_element([[1, 1], [0, 1]]),
          matrix_element([[1, 0], [1, 1]])]


def stable_matmul(a, b):
    """Sequential rank-one accumulation, mirroring the kernel's size-stable
    product discipline."""
    out = np.zeros_like(a)
    for k in range(a.shape[0]):
        out += a[:, k, None] * b[None, k, :]
    return out


def real_coords(m):
    v = np.asarray(m, dtype=np.complex128).reshape(-1)
    return np.concatenate([v.real, v.imag])


def closure_max(generators):
    """The hull closure maximum of ``generators`` on a new column stack."""
    hull = FiniteHull(tuple(generators))
    rows = hull.rows
    prods = borno.algebra.products(hull.descriptor, rows[:, None], rows)
    return _HullStack(list(borno.algebra._real_rows(rows))).closure_max(prods)


def all_pairs_closure_max(mats):
    """max(1, max over pairs of the hull gauge of a b): one plain LP a pair.

    Independent of the kernel's bound-and-solve loop: every product gets its
    own scipy LP over the hull's real coordinates, and an infeasible LP (a
    product off the generators' span) reads inf.
    """
    from scipy.optimize import linprog

    cols = np.stack([real_coords(m) for m in mats], axis=1)
    n = cols.shape[1]
    best = 1.0
    for a in mats:
        for b in mats:
            res = linprog(np.ones(2 * n),
                          A_eq=np.concatenate([cols, -cols], axis=1),
                          b_eq=real_coords(stable_matmul(a, b)),
                          bounds=[(0, None)] * (2 * n), method="highs")
            best = max(best, float(res.fun) if res.success else math.inf)
    return best


def family_set(seed):
    """A seeded 2 x (2x2) complex family."""
    rng = np.random.default_rng(seed)
    return bounded_set([matrix_element((rng.standard_normal((2, 2))
                                        + 1j * rng.standard_normal((2, 2))) / 3)
                        for _ in range(2)])


@functools.lru_cache(maxsize=None)
def hull_family(seed):
    """(estimate, hull certificate) of a seeded 2 x (2x2) complex family."""
    s = family_set(seed)
    est = jsr_estimate(s, depth=8, gap_target=1e-6)
    return est, submultiplicative_hull(s, r=1.1 * est.upper, max_products=512)


def per_candidate_hull(mats, r, max_products):
    """(generator matrices, LP count) of the plain hull expansion.

    Independent of the kernel's screened membership test: every product not
    decayed below the norm cut gets its own scipy LP over all generators so
    far, and an infeasible LP (a product off their span) reads outside.
    """
    from scipy.optimize import linprog

    scaled = [(1.0 / r) * np.asarray(m, dtype=np.complex128) for m in mats]
    gens = list(scaled)
    frontier = [m for m in scaled if np.linalg.norm(m, 2) >= 1e-12]
    lps = 0
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in scaled:
                q = stable_matmul(p, g)
                if np.linalg.norm(q, 2) < 1e-12:
                    gens.append(q)
                    continue
                cols = np.stack([real_coords(m) for m in gens], axis=1)
                n = cols.shape[1]
                res = linprog(np.ones(2 * n),
                              A_eq=np.concatenate([cols, -cols], axis=1),
                              b_eq=real_coords(q), bounds=[(0, None)] * (2 * n),
                              method="highs")
                lps += 1
                if res.success and res.fun <= 1 + 1e-12:
                    continue
                gens.append(q)
                new_frontier.append(q)
                assert len(gens) <= max_products
        frontier = new_frontier
    return gens, lps


def exhaustive_jsr(mats, depth, gap, norm_kind="op2"):
    """Plain breadth-first enumeration: every word at every level.

    Independent of the branch-and-bound search; shares only the elementary
    LAPACK primitives (SVD / eigenvalues), so interval equality checks the
    pruning and reduction logic of the kernel bit for bit.
    """
    def mat_norm(p):
        if norm_kind == "maxrow":
            return float(np.max(np.sum(np.abs(p), axis=1)))
        u, s, vh = np.linalg.svd(p)
        return float(s[0]) if s.size else 0.0

    lower, upper, witness, explored = 0.0, math.inf, (), 0
    level = [((), None)]
    for ell in range(1, depth + 1):
        explored = ell
        nxt, level_max = [], 0.0
        for word, prod in level:
            for i, m in enumerate(mats):
                p = m.copy() if prod is None else stable_matmul(prod, m)
                nrm = mat_norm(p)
                rate = nrm ** (1.0 / ell) if nrm else 0.0
                level_max = max(level_max, rate)
                rho = float(np.max(np.abs(np.linalg.eigvals(p))))
                rrate = rho ** (1.0 / ell) if rho else 0.0
                if rrate > lower:
                    lower, witness = rrate, word + (i,)
                nxt.append((word + (i,), p))
        upper = min(upper, level_max)
        level = nxt
        if upper - lower <= gap:
            break
    status = "certified" if upper - lower <= gap else "depth-limited"
    return lower, upper, witness, explored, status


class TestJsrEstimate:
    def test_nilpotent_certifies_zero(self):
        est = jsr_estimate(bounded_set([matrix_element([[0, 1], [0, 0]])]),
                           depth=2)
        assert (est.lower, est.upper) == (0.0, 0.0)
        assert est.status == "certified"

    def test_scaled_identity(self):
        est = jsr_estimate(bounded_set([matrix_element(2 * np.eye(3))]),
                           depth=1)
        assert est.lower == est.upper == pytest.approx(2.0)

    def test_golden_pair(self):
        est = jsr_estimate(bounded_set(GOLDEN), depth=12, gap_target=1e-3)
        assert est.lower >= 1.6180339
        assert est.upper <= 1.6190
        assert est.gap < 1e-3
        assert est.status == "certified"

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n_mats = 1 + seed % 2
        dim = 2 + seed % 2
        mats = [(rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
                for _ in range(n_mats)]
        est = jsr_estimate(bounded_set([matrix_element(m) for m in mats]),
                           depth=8, gap_target=1e-9)
        lo, hi, wit, depth, status = exhaustive_jsr(mats, 8, 1e-9)
        assert est.lower == lo
        assert est.upper == hi
        assert est.witness_word == wit
        assert est.depth == depth
        assert est.status == status

    def test_monotonicity_under_generator_inclusion(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = matrix_element(rng.standard_normal((2, 2)))
            b = matrix_element(rng.standard_normal((2, 2)))
            small = jsr_estimate(bounded_set([a]), depth=6)
            big = jsr_estimate(bounded_set([a, b]), depth=6)
            assert small.lower <= big.upper + 1e-9

    def test_singleton_normal_collapses_at_depth_one(self):
        a = matrix_element(np.diag([0.3, 0.9]))
        est = jsr_estimate(bounded_set([a]), depth=32, gap_target=1e-8)
        assert est.upper - est.lower <= 1e-8
        assert est.lower == pytest.approx(0.9, abs=1e-10)

    def test_determinism_across_runs(self):
        s = bounded_set(GOLDEN)
        a = jsr_estimate(s, depth=8)
        b = jsr_estimate(s, depth=8)
        assert a == b

    def test_witness_word_reproduces_lower(self):
        rng = np.random.default_rng(1)
        mats = [matrix_element(rng.standard_normal((2, 2))) for _ in range(2)]
        est = jsr_estimate(bounded_set(mats), depth=6, gap_target=1e-9)
        prod = mats[est.witness_word[0]]
        for idx in est.witness_word[1:]:
            prod = multiply(prod, mats[idx])
        from borno.algebra import spectral_radius_single
        rate = spectral_radius_single(prod) ** (1.0 / len(est.witness_word))
        assert rate == est.lower


class TestIdentities:
    def test_diagonal_scaling(self):
        s = bounded_set([matrix_element(np.diag([1.0, 2.0]))])
        report = check_specrad_identities(s, c=3.0, n=2, depth=4)
        assert report["scaled"].lower == pytest.approx(6.0, abs=1e-9)

    def test_golden_pair_power(self):
        report = check_specrad_identities(bounded_set(GOLDEN), c=1 + 1j,
                                          n=2, depth=8)
        assert report["powered"].lower == pytest.approx(PHI**2, rel=1e-6)

    def test_zero_matrix(self):
        s = bounded_set([matrix_element(np.zeros((2, 2)))])
        report = check_specrad_identities(s, c=5.0, n=3, depth=3)
        assert report["base"].lower == report["base"].upper == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        size = 1 + seed % 2
        mats = [matrix_element((rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2))) / 2)
                for _ in range(size)]
        c = complex(rng.standard_normal(), rng.standard_normal())
        check_specrad_identities(bounded_set(mats), c=c, n=2 + seed % 2,
                                 depth=6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_power_set_matches_elementwise_products(self, n):
        # S^n by one row-kernel call per level against n - 1 rounds of
        # per-element products, in the same (lexicographic) word order
        rng = np.random.default_rng(2718)
        gens = [matrix_element(rng.standard_normal((3, 3))
                               + 1j * rng.standard_normal((3, 3)))
                for _ in range(3)]
        current = gens
        for _ in range(n - 1):
            current = [multiply(p, g) for p in current for g in gens]
        got = jsr._expand_products(bounded_set(gens), n)
        assert len(got.generators) == 3 ** n
        assert ([g.coords.tobytes() for g in got.generators]
                == [g.coords.tobytes() for g in current])


class TestHull:
    def test_commuting_contraction(self):
        s = bounded_set([matrix_element(0.5 * np.eye(2))])
        cert = submultiplicative_hull(s, r=1.0, max_products=64)
        assert cert.closure_defect <= 1e-12
        assert all(gauge(cert.hull, scale(1.0, g)) <= 1 + 1e-9
                   for g in (scale(0.5, matrix_element(np.eye(2))),))

    def test_nilpotent_exact_closure(self):
        s = bounded_set([matrix_element([[0, 1], [0, 0]])])
        cert = submultiplicative_hull(s, r=1.0, max_products=16)
        assert cert.closure_defect <= 1e-12

    def test_golden_pair_scaled(self):
        s = bounded_set([scale(0.5, g) for g in GOLDEN])
        cert = submultiplicative_hull(s, r=1.0, max_products=256)
        assert cert.closure_defect <= 1e-6
        # certificate: S inside r * hull
        for g in s.generators:
            assert gauge(cert.hull, g) <= 1 + 1e-9

    def test_overflowing_products_are_a_numerical_failure(self):
        # the products of [[1e200]] overflow at length 2: CapExceeded with
        # the decay profile so far, with no overflow warning on the way
        s = bounded_set([matrix_element([[1e200]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceeded) as err:
                submultiplicative_hull(s, r=1.0, max_products=64)
        assert err.value.decay_profile == {1: 1e200}

    def test_cap_exceeded_reports_decay(self):
        s = bounded_set([scale(0.5, g) for g in GOLDEN])
        with pytest.raises(CapExceeded) as err:
            submultiplicative_hull(s, r=1.0, max_products=3)
        assert err.value.decay_profile

    def test_pairwise_closure_holds_on_returned_hull(self):
        s = bounded_set([scale(0.5, g) for g in GOLDEN])
        cert = submultiplicative_hull(s, r=1.0, max_products=256)
        gens = cert.hull.generators
        for a in gens:
            for b in gens:
                assert gauge(cert.hull, multiply(a, b)) <= \
                    1 + cert.closure_defect + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_implies_radius_bound(self, seed):
        # T.T inside (1+d)T and S inside r T force rho(S) <= r (1+d)
        est, cert = hull_family(400 + seed)
        assert est.lower <= cert.scale * (1 + cert.closure_defect) + 1e-9


class TestClosureDifferential:
    """The bound-and-solve closure loop against a plain all-pairs LP loop."""

    @staticmethod
    def matrices(cert):
        return [g.data for g in cert.hull.generators]

    @pytest.mark.parametrize("seed", [411, 407, 400])
    def test_hull_family_defect(self, seed):
        _est, cert = hull_family(seed)
        oracle = all_pairs_closure_max(self.matrices(cert))
        assert oracle > 1.0
        assert cert.closure_defect == oracle - 1.0

    def test_golden_pair_defect(self):
        s = bounded_set([scale(0.5, g) for g in GOLDEN])
        cert = submultiplicative_hull(s, r=1.0, max_products=256)
        oracle = all_pairs_closure_max(self.matrices(cert))
        assert cert.closure_defect == max(0.0, oracle - 1.0)

    def test_real_pair_spans_half_the_coordinates(self):
        rng = np.random.default_rng(6)
        s = bounded_set([matrix_element(rng.standard_normal((2, 2)) / 2)
                         for _ in range(2)])
        est = jsr_estimate(s, depth=8, gap_target=1e-6)
        cert = submultiplicative_hull(s, r=1.1 * est.upper, max_products=512)
        mats = self.matrices(cert)
        coords = np.stack([real_coords(m) for m in mats], axis=1)
        assert np.linalg.matrix_rank(coords) == 4
        oracle = all_pairs_closure_max(mats)
        assert oracle > 1.0
        assert cert.closure_defect == oracle - 1.0

    def test_product_off_the_span_is_infinite(self):
        gens = [matrix_element([[0, 1], [0, 0]]), matrix_element([[0, 0], [1, 0]])]
        assert all_pairs_closure_max([g.data for g in gens]) == math.inf
        assert closure_max(gens) == math.inf

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           count=st.integers(2, 9),
           kind=st.sampled_from(["complex", "real", "triangular", "diagonal"]))
    def test_arbitrary_generator_lists(self, seed, dim, count, kind):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(count):
            m = rng.standard_normal((dim, dim))
            if kind == "complex":
                m = m + 1j * rng.standard_normal((dim, dim))
            elif kind == "triangular":
                m = np.triu(m)
            elif kind == "diagonal":
                m = np.diag(np.diag(m))
            mats.append(matrix_element(m))
        assert closure_max(mats) == all_pairs_closure_max(
            [g.data for g in mats])

    def test_inaccurate_primal_raises(self, monkeypatch):
        solve = borno.algebra._solve_lp

        def skewed(*args):
            x, value, duals = solve(*args)
            return x * (1 + 1e-6), value, duals

        monkeypatch.setattr(borno.algebra, "_solve_lp", skewed)
        with pytest.raises(NumericalFailure):
            closure_max([matrix_element([[2.0]]), matrix_element([[3.0]])])
        # the expansion's membership LPs, gauge and the grouped gauge alike
        with pytest.raises(NumericalFailure):
            submultiplicative_hull(bounded_set([scale(0.5, g) for g in GOLDEN]),
                                   r=1.0, max_products=256)
        e1 = matrix_element(np.diag([1.0, 0.0]))
        e2 = matrix_element(np.diag([0.0, 1.0]))
        with pytest.raises(NumericalFailure):
            gauge(FiniteHull((e1, e2)), matrix_element(np.eye(2)))
        with pytest.raises(NumericalFailure):
            gauge(SumDisk(FiniteHull((e1,)), FiniteHull((e2,))),
                  matrix_element(np.eye(2)))

    def test_closure_solves_few_lps(self, monkeypatch):
        # the bound screen must stay on: at most a quarter of the n^2 pairs
        _est, cert = hull_family(411)
        gens = cert.hull.generators
        solve = borno.algebra._solve_lp
        calls = []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(borno.algebra, "_solve_lp", counting)
        best = closure_max(gens)
        assert cert.closure_defect == max(0.0, best - 1.0)
        assert 0 < len(calls) <= len(gens) ** 2 / 4


class TestScreenedExpansion:
    """The screened hull expansion against one plain LP per candidate."""

    @staticmethod
    def check(cert, s, max_products, closure=True):
        r = cert.scale
        mats = [g.data for g in s.generators]
        reference, _lps = per_candidate_hull(mats, r, max_products)
        got = [g.data for g in cert.hull.generators]
        assert len(got) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(got, reference))
        if closure:
            # the closure loop on the reference list, unseeded by the
            # expansion's bases; TestClosureDifferential checks that loop
            # against all pairs
            ref_gens = [matrix_element(m) for m in reference]
            assert cert.closure_defect == max(0.0, closure_max(ref_gens) - 1.0)

    @pytest.mark.parametrize("seed", range(400, 412))
    def test_hull_families(self, seed):
        est, cert = hull_family(seed)
        assert cert.scale == 1.1 * est.upper
        # the closure is re-solved on the hulls of at most 31 generators:
        # the others (41-83) would take several seconds each
        self.check(cert, family_set(seed), 512,
                   closure=seed not in (403, 404, 406, 408, 410))

    @pytest.mark.parametrize("name", ["golden", "nilpotent", "contraction"])
    def test_fixed_sets(self, name):
        mats = {"golden": [0.5 * g.data for g in GOLDEN],
                "nilpotent": [np.array([[0, 1], [0, 0]])],
                "contraction": [0.5 * np.eye(2)]}[name]
        cap = {"golden": 256, "nilpotent": 16, "contraction": 64}[name]
        s = bounded_set([matrix_element(m) for m in mats])
        self.check(submultiplicative_hull(s, 1.0, cap), s, cap)

    def test_real_pair(self):
        rng = np.random.default_rng(6)
        s = bounded_set([matrix_element(rng.standard_normal((2, 2)) / 2)
                         for _ in range(2)])
        est = jsr_estimate(s, depth=8, gap_target=1e-6)
        cert = submultiplicative_hull(s, 1.1 * est.upper, 512)
        assert cert.scale == 1.1 * est.upper
        self.check(cert, s, 512)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           count=st.integers(2, 8),
           steps=st.lists(st.tuples(
               st.integers(1, 3),
               st.sampled_from([1 - 1e-7, 1 + 1e-7]) | st.floats(0.9, 1.1),
               st.booleans()), min_size=1, max_size=8))
    def test_screen_decides_as_the_lp(self, seed, dim, count, steps):
        # targets s * (an l1-unit combination of the columns), the stack
        # growing between them so that old duals need renormalising
        rng = np.random.default_rng(seed)
        stack = jsr._HullStack(list(rng.standard_normal((count, dim))))
        for support, factor, grow in steps:
            if grow:
                stack.append(3 * rng.standard_normal(dim))
            cols = stack.cols
            idx = rng.choice(cols.shape[1], size=min(support, cols.shape[1]),
                             replace=False)
            c = rng.standard_normal(len(idx))
            target = factor * (cols[:, idx] @ (c / np.abs(c).sum()))
            decided = stack.screen(target)
            if decided is not None:
                value = borno.algebra._hull_gauge_lp(cols, target)[0]
                assert decided == (value <= 1 + jsr._INSIDE_TOL)
            stack.inside(target)

    def test_screen_saves_lps(self, monkeypatch):
        # the screen must stay on: at most 3/4 of the per-candidate LPs
        est, _cert = hull_family(411)
        s = family_set(411)
        r = 1.1 * est.upper
        _gens, reference = per_candidate_hull([g.data for g in s.generators],
                                              r, 512)
        solve = borno.algebra._solve_lp
        calls = []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(borno.algebra, "_solve_lp", counting)
        monkeypatch.setattr(jsr._HullStack, "closure_max", lambda self, gens: 1.0)
        submultiplicative_hull(s, r, 512)
        assert 0 < len(calls) <= 0.75 * reference


class TestLpPaths:
    """The direct HiGHS call against ``scipy.optimize.linprog``."""

    @staticmethod
    def linprog_lp(c, a_eq, b_eq, a_ub=None, b_ub=None):
        """``_solve_lp``'s result by ``scipy.optimize.linprog``."""
        from scipy.optimize import linprog

        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      method="highs")
        assert res.success
        return res.x, res.fun, np.concatenate([res.ineqlin.marginals,
                                               res.eqlin.marginals])

    @classmethod
    def both_ways(cls, monkeypatch):
        """Solve every LP by both paths, requiring the same bytes; returns
        the list of solved LPs' arguments."""
        direct = borno.algebra._solve_lp
        solved = []

        def both(*args):
            got = direct(*args)
            ref = cls.linprog_lp(*args)
            assert got[0].tobytes() == ref[0].tobytes()
            assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
            assert got[2].tobytes() == ref[2].tobytes()
            solved.append(args)
            return got

        monkeypatch.setattr(borno.algebra, "_solve_lp", both)
        return solved

    @pytest.mark.parametrize("seed", range(400, 412))
    def test_hull_lps(self, seed, monkeypatch):
        est, cert = hull_family(seed)
        solved = self.both_ways(monkeypatch)
        again = submultiplicative_hull(family_set(seed), 1.1 * est.upper, 512)
        assert solved and all(len(args) == 3 for args in solved)
        assert again.hull.generators == cert.hull.generators
        assert again.closure_defect == cert.closure_defect

    def test_grouped_gauge(self, monkeypatch):
        rng = np.random.default_rng(11)
        hulls = [FiniteHull(tuple(matrix_element(rng.standard_normal((2, 2)))
                                  for _ in range(k))) for k in (3, 4)]
        disk = SumDisk(hulls[0], Scaled(2.5, hulls[1]))
        points = [matrix_element(rng.standard_normal((2, 2))) for _ in range(6)]
        values = [gauge(disk, x) for x in points]
        solved = self.both_ways(monkeypatch)
        assert [gauge(disk, x) for x in points] == values
        assert len(solved) == 6 and all(len(args) == 5 for args in solved)

    def test_non_optimal_status_raises(self, monkeypatch):
        core, options = borno.algebra._highs()

        class Stalled(core._Highs):
            def getModelStatus(self):
                return core.HighsModelStatus.kIterationLimit

        stalled = types.SimpleNamespace(**{**vars(core), "_Highs": Stalled})
        monkeypatch.setattr(borno.algebra, "_highs", lambda: (stalled, options))
        e1 = matrix_element(np.diag([1.0, 0.0]))
        e2 = matrix_element(np.diag([0.0, 1.0]))
        with pytest.raises(NumericalFailure, match="Iteration limit"):
            gauge(FiniteHull((e1, e2)), matrix_element(np.eye(2)))
        with pytest.raises(NumericalFailure):
            gauge(SumDisk(FiniteHull((e1,)), FiniteHull((e2,))),
                  matrix_element(np.eye(2)))
        # a hull certificate raises rather than report a verdict
        with pytest.raises(NumericalFailure):
            submultiplicative_hull(bounded_set([scale(0.5, g) for g in GOLDEN]),
                                   r=1.0, max_products=256)

    @staticmethod
    def same_bits(got, ref):
        return (got[0].tobytes() == ref[0].tobytes()
                and np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
                and got[2].tobytes() == ref[2].tobytes())

    @settings(max_examples=25, deadline=None)
    @example(seed=1, steps=[(0, False), (0, False), (1, False), (0, True),
                            (0, False), (2, False), (2, False), (1, False),
                            (0, False)])
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                          min_size=2, max_size=10))
    def test_kept_model_solves_cold(self, seed, steps):
        # LPs from three models in any order: gauge LPs over 3 and over 5
        # columns, and a grouped LP over the 5 with two inequality rows.  A
        # model kept from the previous LP gets new row bounds only, and every
        # LP must give linprog's bits; a target off the 3 columns' span is
        # infeasible and raises, and the LPs after it are unaffected
        rng = np.random.default_rng(seed)
        narrow, wide = rng.standard_normal((4, 3)), rng.standard_normal((4, 5))
        normal = np.linalg.svd(narrow)[0][:, -1]
        member = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0]])
        for which, off in steps:
            cols = (narrow, wide, wide)[which]
            target = cols @ rng.standard_normal(cols.shape[1])
            n = cols.shape[1]
            if which < 2:
                args = (np.ones(2 * n), np.concatenate([cols, -cols], axis=1),
                        target)
            else:
                args = (np.eye(2 * n + 1)[-1],
                        np.concatenate([cols, -cols, np.zeros((4, 1))], axis=1),
                        target,
                        np.concatenate([member, member, [[-1.0], [-2.5]]], axis=1),
                        np.zeros(2))
            if which == 0 and off:
                args = args[:2] + (target + normal,)
                with pytest.raises(NumericalFailure, match="Infeasible"):
                    borno.algebra._solve_lp(*args)
                continue
            assert self.same_bits(borno.algebra._solve_lp(*args),
                                  self.linprog_lp(*args))

    def test_threads_keep_their_own_models(self):
        # three threads, more than the cores CI has, switching often: each
        # alternates between two matrices, out of step with the next thread,
        # and must get linprog's bits for every LP
        rng = np.random.default_rng(5)
        stacks = [rng.standard_normal((4, n)) for n in (3, 5)]
        runs = []
        for i in range(3):
            run = []
            for k in range(20):
                cols = stacks[(i + k // 2) % 2]
                run.append((np.ones(2 * cols.shape[1]),
                            np.concatenate([cols, -cols], axis=1),
                            cols @ rng.standard_normal(cols.shape[1])))
            runs.append(run)
        refs = [[self.linprog_lp(*args) for args in run] for run in runs]
        results = [None] * len(runs)
        start = threading.Barrier(len(runs))

        def work(i):
            start.wait(timeout=30)
            results[i] = [borno.algebra._solve_lp(*args) for args in runs[i]]

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(results, refs):
            assert got is not None
            assert all(self.same_bits(g, r) for g, r in zip(got, ref))

    def test_hull_lps_keep_the_model_and_test_the_span_once(self, monkeypatch):
        # family 411's hull: most LPs keep the previous LP's matrix, and least
        # squares runs only for the targets no decomposition shows spanned
        est, cert = hull_family(411)
        core, options = borno.algebra._highs()
        passed = []

        class Counting(core._Highs):
            def passModel(self, lp):
                passed.append(1)
                return super().passModel(lp)

        counting = types.SimpleNamespace(**{**vars(core), "_Highs": Counting})
        monkeypatch.setattr(borno.algebra, "_highs", lambda: (counting, options))
        events, lps = [], []
        lstsq, gauge = np.linalg.lstsq, jsr._HullStack.gauge
        solve = borno.algebra._solve_lp

        def counting_lstsq(*args, **kwargs):
            events.append("lstsq")
            return lstsq(*args, **kwargs)

        def recording_gauge(self, target, spanned=False):
            events.append(spanned)
            return gauge(self, target, spanned)

        def counting_solve(*args):
            lps.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        monkeypatch.setattr(jsr._HullStack, "gauge", recording_gauge)
        monkeypatch.setattr(borno.algebra, "_solve_lp", counting_solve)
        again = submultiplicative_hull(family_set(411), 1.1 * est.upper, 512)
        assert again.hull.generators == cert.hull.generators
        assert again.closure_defect == cert.closure_defect
        assert 0 < len(passed) < len(lps)
        spans = [e for e in events if e != "lstsq"]
        assert True in spans
        assert events == [e for spanned in spans
                          for e in ([True] if spanned else [False, "lstsq"])]


def span_case(seed, dim, count, kind, gap, magnitude):
    """(columns, targets, basis) of a seeded span test: a ``dim`` x ``count``
    stack that is rank-deficient, has its last column within 10^-gap of the
    others' span, or is a plain Gaussian one, scaled by 10^magnitude; three
    targets on its span, three near it and three off it; and a random subset
    of its columns zero-padded to ``dim`` x ``dim``, as a hull basis is."""
    rng = np.random.default_rng(seed)
    if kind == "deficient":
        rank = int(rng.integers(1, min(dim, count) + 1))
        cols = rng.standard_normal((dim, rank)) @ rng.standard_normal((rank, count))
    else:
        cols = rng.standard_normal((dim, count))
        if kind == "dependent" and count > 1:
            cols[:, -1] = (cols[:, :-1] @ rng.standard_normal(count - 1)
                           + 10.0 ** -gap * rng.standard_normal(dim))
    cols *= 10.0 ** magnitude
    size = np.abs(cols).max()
    on = cols @ rng.standard_normal((count, 3))
    near = on + (10.0 ** -rng.integers(6, 14, size=3) * size
                 * rng.standard_normal((dim, 3)))
    off = size * rng.standard_normal((dim, 3))
    k = int(rng.integers(1, min(dim, count) + 1))
    basis = np.zeros((1, dim, dim))
    basis[0, :, :k] = cols[:, rng.choice(count, k, replace=False)]
    return cols, np.concatenate([on, near, off], axis=1), basis


class TestSpanWitness:
    """A hull LP skips its least-squares span test where a decomposition
    shows the target spanned (``jsr._spanned``): least squares must not miss
    such a target."""

    @settings(max_examples=200, deadline=None)
    # a nearly dependent square stack whose basis decomposition fits, with
    # ||z||_1 = 2e8, where least squares misses: a fit alone shows nothing
    @example(seed=5, dim=4, count=4, kind="dependent", gap=6, magnitude=-2)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
           count=st.integers(1, 12),
           kind=st.sampled_from(["deficient", "dependent", "conditioned"]),
           gap=st.integers(4, 15), magnitude=st.integers(-3, 3))
    def test_spanned_targets_pass_the_span_test(self, seed, dim, count, kind,
                                                gap, magnitude):
        cols, targets, basis = span_case(seed, dim, count, kind, gap, magnitude)
        for bounds in (
                jsr._decomposition_bounds(cols, np.linalg.pinv(cols), targets),
                jsr._decomposition_bounds(basis, np.linalg.pinv(basis),
                                          targets)[0]):
            for bound, target in zip(bounds, targets.T):
                if jsr._spanned(cols, bound, target):
                    lam = np.linalg.lstsq(cols, target, rcond=None)[0]
                    assert not borno.algebra._misses(cols, lam, target)

    def test_a_fit_is_not_enough_on_a_nearly_dependent_stack(self):
        # the example above: the basis decomposition of its eighth target
        # fits, yet least squares misses it, and _spanned rejects the fit
        cols, targets, basis = span_case(5, 4, 4, "dependent", 6, -2)
        target = targets[:, 7]
        bound = jsr._decomposition_bounds(basis, np.linalg.pinv(basis),
                                          targets)[0][7]
        assert bound < math.inf
        lam = np.linalg.lstsq(cols, target, rcond=None)[0]
        assert borno.algebra._misses(cols, lam, target)
        assert not jsr._spanned(cols, bound, target)


class TestGridMax:
    def grid_set(self, fibers):
        desc = GridFunctionAlgebra(GridSpec.circle(len(fibers[0])),
                                   fibers[0][0].descriptor)
        return bounded_set([grid_element(desc, list(f)) for f in fibers])

    def test_forced_by_max_formula(self):
        two = matrix_element(2 * np.eye(2))
        three = matrix_element(3 * np.eye(2))
        s = self.grid_set([(two, three)])
        out = jsr_grid_max(s, depth=3)
        assert out["global"].lower == pytest.approx(3.0)
        assert out["profile"][0].upper == pytest.approx(2.0)
        assert out["profile"][1].upper == pytest.approx(3.0)

    def test_constant_family(self):
        a = matrix_element([[0.5, 0.2], [0.0, 0.3]])
        s = self.grid_set([(a, a)])
        out = jsr_grid_max(s, depth=5)
        assert out["global"].lower == pytest.approx(out["profile"][0].lower)

    def test_golden_fiber(self):
        half = matrix_element(0.5 * np.eye(2))
        s = self.grid_set([(GOLDEN[0], half), (GOLDEN[1], half)])
        out = jsr_grid_max(s, depth=12)
        assert out["global"].lower >= 1.618
        assert out["global"].upper <= 1.619


class TestKroneckerAndUnions:
    def test_scaled_identities(self):
        s_a = bounded_set([matrix_element(2 * np.eye(2))])
        s_b = bounded_set([matrix_element(3 * np.eye(2))])
        out = kronecker_bound_check(s_a, s_b, depth=3)
        assert out["product"].lower == pytest.approx(6.0, rel=1e-9)

    def test_nilpotent_absorbs(self):
        s_a = bounded_set([matrix_element([[0, 1], [0, 0]])])
        s_b = bounded_set(GOLDEN)
        out = kronecker_bound_check(s_a, s_b, depth=4)
        assert out["product"].upper <= 1e-6 or out["product"].lower == 0.0

    def test_golden_kron_half(self):
        s_b = bounded_set([matrix_element(0.5 * np.eye(2))])
        out = kronecker_bound_check(bounded_set(GOLDEN), s_b, depth=10)
        assert out["product"].lower == pytest.approx(PHI / 2, rel=1e-3)

    def test_padding_chain(self):
        chain = [bounded_set(GOLDEN),
                 bounded_set([pad_to(g, 4) for g in GOLDEN]),
                 bounded_set([pad_to(g, 8) for g in GOLDEN])]
        direct_union_liminf(chain, depth=8)

    def test_zero_stage(self):
        z = matrix_element(np.zeros((2, 2)))
        chain = [bounded_set([z]), bounded_set([pad_to(z, 4)])]
        out = direct_union_liminf(chain, depth=3)
        assert out["stages"][0].upper == 0.0


class TestOtherDescriptors:
    def test_maxrow_matches_exhaustive(self):
        rng = np.random.default_rng(77)
        # complex dtype up front: elements are stored as complex128, and
        # real/complex LAPACK paths differ in the last ulp
        mats = [rng.standard_normal((3, 3)).astype(np.complex128)
                for _ in range(2)]
        est = jsr_estimate(
            bounded_set([matrix_element(m, "maxrow") for m in mats]),
            depth=6, gap_target=1e-9)
        lo, hi, wit, depth, status = exhaustive_jsr(mats, 6, 1e-9,
                                                    norm_kind="maxrow")
        assert (est.lower, est.upper, est.witness_word) == (lo, hi, wit)

    def test_direct_sum_is_blockwise_max(self):
        from borno.algebra import AlgebraElement, DirectSum, MatrixAlgebra
        desc = DirectSum((MatrixAlgebra(2), MatrixAlgebra(2)))
        elem = AlgebraElement(desc, (matrix_element(0.5 * np.eye(2)),
                                     matrix_element(np.diag([2.0, 0.1]))))
        est = jsr_estimate(bounded_set([elem]), depth=4)
        assert est.lower == pytest.approx(2.0, abs=1e-10)
        assert est.upper == pytest.approx(2.0, abs=1e-10)


class TestUpperBoundSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_deep_products_stay_below_certified_upper(self, seed):
        # rho(P_w)^(1/|w|) <= JSR <= certified upper must hold for words far
        # beyond the explored depth
        rng = np.random.default_rng(500 + seed)
        mats = [matrix_element((rng.standard_normal((3, 3))
                                + 1j * rng.standard_normal((3, 3))) / 2)
                for _ in range(2)]
        est = jsr_estimate(bounded_set(mats), depth=6, gap_target=1e-9)
        for _ in range(20):
            word = rng.integers(0, 2, size=30)
            prod = mats[word[0]]
            for idx in word[1:]:
                prod = multiply(prod, mats[int(idx)])
            from borno.algebra import spectral_radius_single
            rate = spectral_radius_single(prod) ** (1.0 / len(word))
            assert rate <= est.upper * (1 + 1e-10)


def per_node_jsr(s, depth, gap_target, trace=None):
    """The search one node at a time through the per-element kernels.

    Each child is its own ``multiply``, ``norm`` and
    ``spectral_radius_single`` call, in lexicographic order, with the same
    rescaling, rates and pruning rule as the kernel, its tail bound folded
    from this search's own level maxima.  ``trace`` collects, per level,
    the number of children and the indices of the pruned ones.
    """
    gens = s.generators
    gen_max = max(norm(g) for g in gens)
    log2_gen_max = math.log2(gen_max) if gen_max > 0 else -math.inf
    tail = jsr._Tail(log2_gen_max, depth)
    slack = gap_target / 2.0
    lower, upper, witness, explored = 0.0, math.inf, (), 0
    alive = [((), None, 0)]
    for level in range(1, depth + 1):
        explored = level
        nxt, level_max, overflowed, pruned = [], 0.0, False, []
        lines = tail.lines(level)
        for word, element, parent_exponent in alive:
            for idx, g in enumerate(gens):
                child = g if element is None else multiply(element, g)
                exponent = parent_exponent
                child_norm = norm(child)
                if not math.isfinite(child_norm):
                    overflowed = True
                    continue
                if child_norm != 0.0 and not (
                        jsr._RESCALE_LO <= child_norm <= jsr._RESCALE_HI):
                    shift = int(math.floor(math.log2(child_norm)))
                    child = scale(math.ldexp(1.0, -shift), child)
                    exponent += shift
                    child_norm = norm(child)
                rate = jsr._rate(child_norm, exponent, level)
                level_max = max(level_max, rate)
                rrate = jsr._rate(spectral_radius_single(child), exponent, level)
                if rrate > lower:
                    lower, witness = rrate, word + (idx,)
                if rate <= lower - slack and jsr._optimistic_rate(
                        child_norm, exponent, lines) <= lower - slack:
                    pruned.append(len(nxt) + len(pruned))
                    continue
                nxt.append((word + (idx,), child, exponent))
        if trace is not None:
            trace.append((len(nxt) + len(pruned), pruned))
        if overflowed:
            break
        upper = min(upper, level_max)
        alive = nxt
        if upper - lower <= gap_target or not alive:
            break
        tail.fold(level, level_max)
    status = "certified" if upper - lower <= gap_target else "depth-limited"
    return RadiusEstimate(lower, upper, witness, explored, status)


def random_elements(desc, count, rng, factor=1.0):
    dim = borno.algebra.linear_dim(desc)
    return [borno.algebra.unvec(desc, factor * (rng.standard_normal(dim)
                                                + 1j * rng.standard_normal(dim)))
            for _ in range(count)]


class TestBatchedSearch:
    """The chunked level expansion against :func:`per_node_jsr`, bit for bit."""

    @pytest.mark.parametrize("desc, count, depth", [
        (GridFunctionAlgebra(GridSpec.circle(5), MatrixAlgebra(2)), 3, 6),
        # the blocks alternate between the summands' shapes: six runs
        (GridFunctionAlgebra(GridSpec.circle(3),
                             DirectSum((MatrixAlgebra(2),
                                        MatrixAlgebra(3, "maxrow")))), 2, 7),
        (MatrixAlgebra(3, "maxrow"), 3, 6),
    ], ids=["grid", "grid-over-direct-sum", "maxrow"])
    def test_matches_per_node_search(self, desc, count, depth):
        s = bounded_set(random_elements(desc, count, np.random.default_rng(3),
                                        0.4))
        for gap in (1e-2, 1e-9):
            assert jsr_estimate(s, depth, gap) == per_node_jsr(s, depth, gap)

    @staticmethod
    def deep_witness_set():
        # the witness has length 7: the lower bound still rises inside the
        # last, multi-chunk levels, which moves later prunes
        rng = np.random.default_rng(30)
        return bounded_set([matrix_element((rng.standard_normal((3, 3))
                                            + 1j * rng.standard_normal((3, 3)))
                                           / 2.5) for _ in range(3)])

    @staticmethod
    def record(monkeypatch, name, calls):
        """Append each call's (rows, values) of the jsr module's kernel
        ``name`` to ``calls``."""
        kernel = getattr(jsr, name)

        def recorded(desc, rows):
            values = kernel(desc, rows)
            calls.append((rows.copy(), values.tolist()))
            return values
        monkeypatch.setattr(jsr, name, recorded)

    def test_pruning_across_chunk_boundaries(self, monkeypatch):
        s = self.deep_witness_set()
        trace = []
        ref = per_node_jsr(s, 7, 1e-2, trace)
        per_chunk = (jsr._CHUNK // 3) * 3
        # some level spans several chunks and prunes children in more than one
        assert any(n > per_chunk and len({i // per_chunk for i in pruned}) > 1
                   for n, pruned in trace)
        assert len(ref.witness_word) == 7
        # safe pruning leaves the estimate alone, so count the children the
        # search evaluates: a prune missed or misplaced changes the count.
        # Each child after level 1 is bounded once; only some are normed
        children = sum(n for n, _pruned in trace)
        bounded, normed = [], []
        self.record(monkeypatch, "norm_bounds", bounded)
        self.record(monkeypatch, "norms", normed)
        for chunk in (jsr._CHUNK, 1, 7):
            monkeypatch.setattr(jsr, "_CHUNK", chunk)
            bounded.clear()
            normed.clear()
            assert jsr_estimate(s, 7, 1e-2) == ref
            assert (sum(len(rows) for rows, _ in bounded)
                    == children - len(s.generators))
            # the bounds spare some children their SVD
            assert sum(len(rows) for rows, _ in normed) < children

    def test_level_maxima_prune_more_than_the_generator_norm(self,
                                                            monkeypatch):
        # the same search with the tail bound left at (g (1 + m))^r, as if
        # no level were folded in, evaluates 1,245 children to this 1,122
        s = self.deep_witness_set()
        trace, coarse = [], []
        ref = per_node_jsr(s, 7, 1e-2, trace)
        bounded = []
        self.record(monkeypatch, "norm_bounds", bounded)
        assert jsr_estimate(s, 7, 1e-2) == ref
        children = sum(len(rows) for rows, _ in bounded) + len(s.generators)
        assert children == sum(n for n, _pruned in trace) == 1122
        monkeypatch.setattr(jsr._Tail, "fold", lambda *args: None)
        assert per_node_jsr(s, 7, 1e-2, coarse) == ref
        assert sum(n for n, _pruned in coarse) == 1245

    def test_eigenvalues_only_where_the_norm_rate_can_raise_the_lower_bound(
            self, monkeypatch):
        s = self.deep_witness_set()
        trace = []
        ref = per_node_jsr(s, 7, 1e-2, trace)
        level_sizes = [n for n, _pruned in trace]
        bounded, radii = [], []
        self.record(monkeypatch, "norm_bounds", bounded)
        self.record(monkeypatch, "spectral_radii", radii)
        for chunk in (jsr._CHUNK, 1, 7):
            monkeypatch.setattr(jsr, "_CHUNK", chunk)
            bounded.clear()
            radii.clear()
            assert jsr_estimate(s, 7, 1e-2) == ref
            # one spectral_radii call a chunk, level by level: the generators
            # first, then each chunk of children the bounds see
            chunks = [s.rows] + [rows for rows, _ in bounded]
            assert len(chunks) == len(radii)
            assert (sum(len(rows) for rows, _ in radii)
                    < sum(len(rows) for rows in chunks))
            lower, level, seen = 0.0, 1, 0
            for rows, (taken, rhos) in zip(chunks, radii):
                taken = {row.tobytes() for row in taken}
                for row, child_norm in zip(rows, norms(s.descriptor,
                                                       rows).tolist()):
                    rate = jsr._rate(child_norm, 0, level)
                    if rate > lower * (1 + jsr.ROUNDING):
                        assert row.tobytes() in taken
                lower = max([lower] + [jsr._rate(r, 0, level) for r in rhos])
                seen += len(rows)
                if seen == level_sizes[level - 1]:
                    level, seen = level + 1, 0
            assert lower == ref.lower
            # with one parent a chunk, some chunk has no child to take
            if chunk == 1:
                assert any(len(taken) == 0 for taken, _ in radii)

    def test_inert_children_still_set_the_level_maximum(self, monkeypatch):
        # with rho = 0.99 ||P|| (LAPACK's rho <= ||P||, nearly attained), A
        # sets lower = 0.99 at level 1 and every level-2 child is inert: the
        # upper bound 0.1 = ||A^2||^(1/2) comes from the norms the search
        # takes after the chunk, only for the level maximum, and the
        # inverted interval [0.99, 0.1] is refused, not called certified
        monkeypatch.setattr(
            borno.algebra, "_eig_radii",
            lambda stack, kind: 0.99 * borno.algebra._matrix_norms(stack, kind))
        eps = 1e-2
        s = bounded_set([matrix_element([[0.0, 1.0], [eps, 0.0]]),
                         matrix_element([[0.0, 0.5], [0.0, 0.0]])])
        ref = per_node_jsr(s, 4, 1e-3)
        assert (ref.lower, ref.upper, ref.depth) == (0.99, 0.1, 2)
        bounded, normed = [], []
        self.record(monkeypatch, "norm_bounds", bounded)
        self.record(monkeypatch, "norms", normed)
        with pytest.raises(InvariantViolation, match=r"\[0\.99, 0\.99\] "
                           r"misses \[0\.0, 0\.1\]"):
            jsr_estimate(s, 4, 1e-3)
        # norms for the generators, for none of the chunk's inert children
        # in the chunk, and for both after it
        assert [len(rows) for rows, _ in bounded] == [2]
        assert [len(rows) for rows, _ in normed] == [2, 0, 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           count=st.integers(1, 3), depth=st.integers(1, 5),
           gap=st.sampled_from([1e-2, 1e-9]),
           kind=st.sampled_from(["diagonal", "unitary", "permutation",
                                 "maxrow", "general", "grid"]))
    def test_random_families_match_per_node_search(self, seed, dim, count,
                                                   depth, gap, kind):
        # diagonal, scaled unitary and permutation words have rho = ||.||,
        # up to rounding: the children the eigenvalue filter skips or keeps
        # by the narrowest margins
        rng = np.random.default_rng(seed)
        if kind == "grid":
            desc = GridFunctionAlgebra(GridSpec.circle(3), MatrixAlgebra(dim))
            s = bounded_set(random_elements(desc, count, rng, 0.5))
        else:
            mats = []
            for _ in range(count):
                m = (rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim))) / 2
                if kind == "diagonal":
                    m = np.diag(np.diag(m))
                elif kind == "unitary":
                    m = rng.choice([0.5, 1.0, 1.5]) * np.linalg.qr(m)[0]
                elif kind == "permutation":
                    m = rng.choice([0.5, 1.0, 2.0]) * np.eye(dim)[
                        rng.permutation(dim)]
                mats.append(matrix_element(
                    m, "maxrow" if kind == "maxrow" else "op2"))
            s = bounded_set(mats)
        assert jsr_estimate(s, depth, gap) == per_node_jsr(s, depth, gap)

    @pytest.mark.parametrize("exponent", [300, -300])
    def test_rescaled_products_keep_the_interval(self, exponent):
        # depth-2 products cross 2^(+-500), so the search renormalizes them
        factor = math.ldexp(1.0, exponent)
        rng = np.random.default_rng(21)
        mats = [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                / 2 for _ in range(2)]
        plain = bounded_set([matrix_element(m) for m in mats])
        scaled = bounded_set([matrix_element(factor * m) for m in mats])
        assert not 2.0 ** -500 <= norm(multiply(*scaled.generators)) <= 2.0 ** 500
        base = jsr_estimate(plain, 6, 1e-9)
        est = jsr_estimate(scaled, 6, 1e-9 * factor)
        assert est == per_node_jsr(scaled, 6, 1e-9 * factor)
        assert est.depth == base.depth == 6
        assert est.lower / factor == pytest.approx(base.lower, rel=1e-12)
        assert est.upper / factor == pytest.approx(base.upper, rel=1e-12)

    def test_overflowing_products_stop_the_search(self):
        # g = M [[1, 1], [0, 1]] has maxrow norm 2M below the float limit;
        # its rescaled square keeps finite entries, but their row sum 3M
        # overflows, so the search stops at depth 2 with level 1's upper bound
        big = 8.5e307
        g = matrix_element(big * np.array([[1.0, 1.0], [0.0, 1.0]]), "maxrow")
        with pytest.warns(RuntimeWarning, match="overflow"):
            est = jsr_estimate(bounded_set([g]), 4)
        assert est.status == "depth-limited"
        assert (est.depth, est.witness_word) == (2, (0,))
        assert est.upper == jsr_estimate(bounded_set([g]), 1).upper
        assert (est.upper, est.lower) == (2 * big, big)

    @pytest.mark.parametrize("exponent", [700, -700])
    def test_rescaled_level_one_rates_are_exact(self, exponent):
        # a level-1 norm outside 2^(+-500) is rescaled; its rate is the
        # rescaled value times 2^shift, with no log2/exp2 round trip
        for x in np.linspace(1.01, 1.99, 50).tolist():
            x = math.ldexp(x, exponent)
            est = jsr_estimate(bounded_set([matrix_element([[x]])]), 1)
            assert est.lower == est.upper == x

    def test_overflowing_first_level_leaves_no_upper_bound(self):
        g = matrix_element([[1.5e308, 1.5e308], [0.0, 0.0]])
        est = jsr_estimate(bounded_set([g]), 4)
        assert (est.status, est.depth, est.upper) == ("depth-limited", 1, math.inf)


def within_ulps(got, value, exponent, length, ulps):
    """Whether ``got`` is within ``ulps`` ulps of (value 2^exponent)^(1/length),
    decided in exact arithmetic."""
    target = Fraction(value) * Fraction(2) ** exponent
    step = ulps * Fraction(math.ulp(got))
    return ((Fraction(got) - step) ** length <= target
            <= (Fraction(got) + step) ** length)


class TestRate:
    @settings(max_examples=400, deadline=None)
    @given(mantissa=st.floats(1.0, 2.0, exclude_max=True),
           scale=st.integers(-500, 500), length=st.integers(1, 12),
           exponent=st.one_of(st.just(0), st.integers(-3000, 3000)))
    def test_rate_is_within_four_ulps(self, mantissa, scale, length, exponent):
        value = math.ldexp(mantissa, scale)
        assume(abs(scale + exponent) <= 1000 * length)  # a normal float
        got = jsr._rate(value, exponent, length)
        if exponent == 0:  # the search's usual case keeps its bits
            assert got == value ** (1.0 / length)
        elif length == 1:  # a rescaled level-1 norm
            assert got == math.ldexp(value, exponent)
        else:
            assert within_ulps(got, value, exponent, length, 4)
        assert jsr._rate(0.0, exponent, length) == 0.0

    @pytest.mark.parametrize("c", [3e250, 1e200])
    def test_rescaled_words_bracket_the_nilpotent_radius(self, c):
        # rho{c E12, c E21} = c, attained by the word (0, 1), whose product
        # c^2 E11 is rescaled; a log2/pow round trip of its exponent gave
        # 2.9999999999999006e250 for c = 3e250, below rho, and for c = 1e200
        # a lower bound 1.0000000000000336e200 above the upper bound
        s = bounded_set([matrix_element([[0, c], [0, 0]]),
                         matrix_element([[0, 0], [c, 0]])])
        est = jsr_estimate(s, 4)
        assert (est.lower, est.upper, est.witness_word) == (c, c, (0, 1))


def word_levels(s, depth):
    """Per length 1 .. ``depth``, the computed norms and spectral radii of
    every word product in lexicographic order: the batched row kernels with
    no pruning (the search's bits, as no norm here leaves 2^(+-500))."""
    desc, gens = s.descriptor, s.rows
    rows, levels = gens, []
    for level in range(1, depth + 1):
        if level > 1:
            rows = borno.algebra.products(desc, rows[:, None], gens)
            rows = rows.reshape(-1, gens.shape[1])
        levels.append((norms(desc, rows).tolist(),
                       borno.algebra.spectral_radii(desc, rows).tolist()))
    return levels


def levels_estimate(levels, gap):
    """The interval of :func:`exhaustive_jsr`, read off ``word_levels``."""
    k = len(levels[0][0])
    lower, upper, witness = 0.0, math.inf, ()
    for ell, (level_norms, rhos) in enumerate(levels, 1):
        upper = min(upper, max(n ** (1.0 / ell) for n in level_norms))
        for i, rho in enumerate(rhos):
            if rho and rho ** (1.0 / ell) > lower:
                lower = rho ** (1.0 / ell)
                witness = tuple(i // k ** (ell - 1 - p) % k for p in range(ell))
        if upper - lower <= gap:
            break
    status = "certified" if upper - lower <= gap else "depth-limited"
    return RadiusEstimate(lower, upper, witness, ell, status)


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


class TestTailBound:
    """The bound on descendants built from the level maxima (``_Tail``)."""

    @staticmethod
    def family(kind, count, rng):
        """(set, matrices or None) of one drawn family."""
        if kind == "grid":
            desc = GridFunctionAlgebra(GridSpec.circle(3), MatrixAlgebra(2))
            return bounded_set(random_elements(desc, count, rng, 0.5)), None
        if kind == "grid-over-direct-sum":
            desc = GridFunctionAlgebra(GridSpec.circle(2), DirectSum(
                (MatrixAlgebra(2), MatrixAlgebra(3, "maxrow"))))
            return bounded_set(random_elements(desc, count, rng, 0.4)), None
        if kind == "non-normal":
            # ||g|| = c >> rho: [[1/2, c], [0, 1/2]] and its reflection
            # [[1/2, -c], [0, 1/2]], rotated by nearby angles, so that the
            # c^2 terms of their products cancel; a computed product is then
            # accurate only to about u c^2, which E_j allows for
            c = 10.0 ** rng.uniform(2, 4)
            theta = rng.uniform(0, math.pi)
            mats = []
            for i in range(count):
                r = rotation(theta + 10.0 ** rng.uniform(-12, -4) * i)
                mats.append(r @ np.array([[0.5, (-1) ** i * c], [0.0, 0.5]])
                            @ r.T)
            mats = [m.astype(np.complex128) for m in mats]
            return bounded_set([matrix_element(m) for m in mats]), mats
        dim = int(rng.integers(1, 4))
        mats = [(rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim))) / 2
                for _ in range(count)]
        return bounded_set([matrix_element(m, kind) for m in mats]), mats

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 3),
           depth=st.integers(1, 7), gap=st.sampled_from([1e-2, 1e-9]),
           kind=st.sampled_from(["op2", "maxrow", "grid",
                                 "grid-over-direct-sum", "non-normal"]))
    def test_descendants_stay_below_the_optimistic_rate(self, seed, count,
                                                        depth, gap, kind):
        s, mats = self.family(kind, count, np.random.default_rng(seed))
        levels = word_levels(s, depth)
        rates = [np.array([jsr._rate(n, 0, ell) for n in level_norms])
                 for ell, (level_norms, _rhos) in enumerate(levels, 1)]
        tail = jsr._Tail(math.log2(max(levels[0][0])), depth)
        for ell, (level_norms, _rhos) in enumerate(levels, 1):
            lines = tail.lines(ell)
            opt = np.array([jsr._optimistic_rate(n, 0, lines)
                            for n in level_norms])
            # every descendant, each length's block of words under a word
            for later in rates[ell:]:
                assert (later.reshape(len(opt), -1).max(axis=1) <= opt).all()
            if rates[ell - 1].max() > 0:
                tail.fold(ell, float(rates[ell - 1].max()))
        est = jsr_estimate(s, depth, gap)
        assert est == levels_estimate(levels, gap)
        if mats is not None:
            assert (est.lower, est.upper, est.witness_word, est.depth,
                    est.status) == exhaustive_jsr(mats, depth, gap, kind if
                                                  kind == "maxrow" else "op2")

    @pytest.mark.parametrize("mats", [
        [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]]],  # nilpotent pair
        [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 1.0], [0.0, 0.25]]],
        [[[0.0, 0.0], [0.0, 0.0]]],
    ], ids=["nilpotent-pair", "zero-and-triangular", "zero"])
    def test_zero_level_maxima_keep_their_estimates(self, mats):
        mats = [np.array(m, dtype=np.complex128) for m in mats]
        s = bounded_set([matrix_element(m) for m in mats])
        for gap in (1e-2, 1e-9):
            est = jsr_estimate(s, 6, gap)
            assert (est.lower, est.upper, est.witness_word, est.depth,
                    est.status) == exhaustive_jsr(mats, 6, gap)
            assert est == per_node_jsr(s, 6, gap)
        # an all-zero set: log2 T_r = -inf from r = 1 on, with no nan from
        # 0 * -inf at r = 0, and no descendant left to bound
        tail = jsr._Tail(-math.inf, 3)
        assert tail.logs == [0.0, -math.inf, -math.inf]
        assert tail.lines(1) == []
        assert jsr._optimistic_rate(1.0, 0, tail.lines(1)) == 0.0

    def test_envelope_is_the_maximum_over_every_length(self):
        tail = jsr._Tail(0.5, 9)
        for level, level_max in [(1, 2.0 ** 0.5), (2, 0.9), (3, 0.3)]:
            tail.fold(level, level_max)
        assert tail.logs[3] < 3 * 0.5
        assert tail.lines(9) == []
        for level in range(1, 9):
            lines = tail.lines(level)
            assert lines[-1] == (tail.logs[1], level + 1)
            for base in np.linspace(-40.0, 10.0, 101).tolist():
                every = max((base + tail.logs[n - level]) / n
                            for n in range(level + 1, 10))
                assert max((base + t) / n for t, n in lines) == every


# ---------------------------------------------------------------------------
# the interval rule of the identity checks
# ---------------------------------------------------------------------------

SCALAR_SET = bounded_set([matrix_element([[1.0]])])
GRID_SET = bounded_set([grid_element(
    GridFunctionAlgebra(GridSpec.circle(2), MatrixAlgebra(1)), [[[1.0]], [[2.0]]])])


def replayed(mp, estimates):
    """Make ``jsr.jsr_estimate`` return ``estimates`` in turn."""
    queue = iter(estimates)
    mp.setattr(jsr, "jsr_estimate", lambda s, depth, gap_target=None: next(queue))


def est(lower, upper):
    return RadiusEstimate(lower, upper, (), 1, "depth-limited")


def run_specrad(base, scaled, powered, c, n):
    with pytest.MonkeyPatch.context() as mp:
        replayed(mp, [base, scaled, powered])
        check_specrad_identities(SCALAR_SET, c, n, 2)


def run_grid(profile, global_est):
    with pytest.MonkeyPatch.context() as mp:
        replayed(mp, [*profile, global_est])
        jsr_grid_max(GRID_SET, 2)


def run_kronecker(left, right, product):
    with pytest.MonkeyPatch.context() as mp:
        replayed(mp, [left, right, product])
        kronecker_bound_check(SCALAR_SET, SCALAR_SET, 2)


def run_union(stages):
    with pytest.MonkeyPatch.context() as mp:
        replayed(mp, stages)
        direct_union_liminf([SCALAR_SET] * len(stages), 2)


# The parent's inline predicates, copied as they were: each raises where the
# check raised.

def _intervals_intersect(lo1, hi1, lo2, hi2, slack):
    return lo1 <= hi2 + slack and lo2 <= hi1 + slack


def parent_specrad(base, scaled, powered, c, n):
    mag = abs(c)
    slack = 1e-9 * max(1.0, mag * base.upper if math.isfinite(base.upper) else 1.0)
    if not _intervals_intersect(mag * base.lower, mag * base.upper,
                                scaled.lower, scaled.upper, slack):
        raise InvariantViolation("scaled")
    pow_slack = 1e-9 * max(1.0, base.upper ** n if math.isfinite(base.upper) else 1.0)
    if not _intervals_intersect(base.lower ** n, base.upper ** n,
                                powered.lower, powered.upper, pow_slack):
        raise InvariantViolation("powered")


def parent_grid(profile, global_est):
    max_lower = max(p.lower for p in profile)
    max_upper = max(p.upper for p in profile)
    slack = 1e-9 * max(1.0, max_upper if math.isfinite(max_upper) else 1.0)
    if not _intervals_intersect(global_est.lower, global_est.upper,
                                max_lower, max_upper, slack):
        raise InvariantViolation("grid")


def parent_kronecker(left, right, product):
    bound = left.upper * right.upper
    slack = 1e-9 * max(1.0, bound if math.isfinite(bound) else 1.0)
    if product.lower > bound + slack:
        raise InvariantViolation("kronecker")


def parent_union(stages):
    reference = stages[0]
    scale_ref = max(1.0, reference.upper if math.isfinite(reference.upper) else 1.0)
    for e in stages[1:]:
        if (abs(e.lower - reference.lower) > jsr.ROUNDING * scale_ref
                or abs(e.upper - reference.upper) > jsr.ROUNDING * scale_ref):
            raise InvariantViolation("union")


def outcome(check, *args):
    try:
        check(*args)
    except InvariantViolation:
        return "raises"
    except OverflowError:
        return "overflows"
    return "passes"


# endpoints: zero, one, infinity, huge and tiny values and any other
# nonnegative float; an interval may be a point
ENDS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 1e300, 5e-324, math.inf]),
                 st.floats(min_value=0.0, allow_nan=False))


@st.composite
def near(draw, x, unit):
    """``x`` moved by a few slack ``unit``s and then a few ulps, at least 0:
    the rule's boundary cases."""
    y = x + draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0])) * unit
    for _ in range(draw(st.integers(0, 2))):
        y = math.nextafter(y, draw(st.sampled_from([math.inf, -math.inf])))
    return max(y, 0.0) if not math.isnan(y) else 0.0


@st.composite
def interval(draw, ends=ENDS):
    lower = draw(ends)
    return est(lower, draw(st.one_of(st.just(lower), ends)))


@st.composite
def interval_near(draw, lower, upper, unit):
    """An interval, or one whose ends are near ``lower`` and ``upper``."""
    if draw(st.booleans()):
        return draw(interval())
    return est(draw(near(lower, unit)), draw(near(upper, unit)))


def unit_of(scale):
    return 1e-9 * max(1.0, scale if math.isfinite(scale) else 1.0)


class TestIdentityChecks:
    """Each identity check raises InvariantViolation when its intervals
    disagree, and decides as the parent's inline predicates did."""

    def test_scaled_identity_raises(self):
        with pytest.raises(InvariantViolation, match=r"rho\(cS\)"):
            run_specrad(est(1.0, 1.0), est(3.0, 3.0), est(1.0, 1.0), 2.0, 2)

    def test_power_identity_raises(self):
        with pytest.raises(InvariantViolation, match=r"rho\(S\^2\)"):
            run_specrad(est(1.0, 1.0), est(2.0, 2.0), est(5.0, 5.0), 2.0, 2)

    def test_grid_max_raises(self):
        with pytest.raises(InvariantViolation, match="fiber max"):
            run_grid([est(1.0, 1.0), est(0.5, 0.5)], est(2.0, 2.0))

    def test_kronecker_raises(self):
        with pytest.raises(InvariantViolation, match="S_A"):
            run_kronecker(est(1.0, 1.0), est(1.0, 1.0), est(2.0, 2.0))

    @pytest.mark.parametrize("stage", [est(1.1, 2.0), est(1.0, 2.1)],
                             ids=["lower", "upper"])
    def test_union_raises(self, stage):
        with pytest.raises(InvariantViolation, match="direct-union"):
            run_union([est(1.0, 2.0), est(1.0, 2.0), stage])

    def test_agreeing_intervals_pass(self):
        run_specrad(est(1.0, 2.0), est(2.0, 4.0), est(1.0, 4.0), -2.0, 2)
        run_grid([est(1.0, 1.0), est(0.5, 0.5)], est(1.0, 1.0))
        run_kronecker(est(1.0, 2.0), est(1.0, 2.0), est(3.0, 4.0))
        run_union([est(1.0, math.inf), est(1.0, math.inf)])

    # Three inputs decide otherwise than at the parent: where |c| times an
    # end of rho(S)'s interval is nan (0 * inf), which the parent read as a
    # miss; where |c| times a finite upper end overflows, which the parent
    # gave an infinite slack; and where an end of rho(S)'s interval to the
    # n-th power overflows, where the parent raised OverflowError.  The
    # property leaves them out, and the three tests after it pin them.

    @staticmethod
    def parent_differs(base, c, n):
        mag = abs(c)
        try:
            base.lower ** n, base.upper ** n
        except OverflowError:
            return True
        return (math.isnan(mag * base.lower) or math.isnan(mag * base.upper)
                or (math.isfinite(base.upper)
                    and not math.isfinite(mag * base.upper)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_specrad_decides_as_the_parent(self, data):
        base = data.draw(interval())
        c = data.draw(st.one_of(st.sampled_from([0.0, 1.0, -0.5, 3.0]),
                                st.floats(allow_nan=False, allow_infinity=False)))
        n = data.draw(st.sampled_from([2, 3]))
        assume(not self.parent_differs(base, c, n))
        mag = abs(c)
        scaled = data.draw(interval_near(mag * base.lower, mag * base.upper,
                                         unit_of(mag * base.upper)))
        try:
            lower, upper = base.lower ** n, base.upper ** n
        except OverflowError:
            lower = upper = math.inf
        powered = data.draw(interval_near(lower, upper, unit_of(upper)))
        args = (base, scaled, powered, c, n)
        assert outcome(run_specrad, *args) == outcome(parent_specrad, *args)

    def test_zero_times_infinity_is_no_miss(self):
        # ρ(0·S) = 0 for a set whose interval is [1, inf]: the parent read
        # 0 * inf = nan as a miss and raised
        args = (est(1.0, math.inf), est(0.0, 0.0), est(1.0, math.inf), 0.0, 2)
        assert outcome(parent_specrad, *args) == "raises"
        assert outcome(run_specrad, *args) == "passes"

    def test_overflowing_scale_is_read_as_one(self):
        # |c| * 1e150 overflows: the parent's slack was inf, the rule's is
        # 1e-9, and [inf, inf] misses [0, 1]
        args = (est(1e150, 1e150), est(0.0, 1.0), est(1e300, 1e300), 1e200, 2)
        assert outcome(parent_specrad, *args) == "passes"
        assert outcome(run_specrad, *args) == "raises"

    def test_overflowing_power_reads_infinity(self):
        # (1e200)^2 overflows: the parent raised OverflowError, the rule
        # reads rho(S)^2 as [inf, inf], which meets [0, inf] only
        args = (est(1e200, 1e200), est(1e200, 1e200), est(0.0, math.inf),
                1.0, 2)
        assert outcome(parent_specrad, *args) == "overflows"
        assert outcome(run_specrad, *args) == "passes"
        args = (est(1e200, 1e200), est(1e200, 1e200), est(0.0, 1e300), 1.0, 2)
        assert outcome(run_specrad, *args) == "raises"

    def test_overflowing_products_bound_nothing(self):
        # the products of {1e200 I} overflow: rho(S^2) is the depth-limited
        # [0, inf], with no overflow warning on the way
        s = bounded_set([matrix_element(1e200 * np.eye(2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_specrad_identities(s, c=1, n=2, depth=4)
        assert report["base"].lower == report["base"].upper == 1e200
        assert report["powered"] == RadiusEstimate(0.0, math.inf, (), 0,
                                                   "depth-limited")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_grid_decides_as_the_parent(self, data):
        profile = [data.draw(interval()), data.draw(interval())]
        lower = max(p.lower for p in profile)
        upper = max(p.upper for p in profile)
        global_est = data.draw(interval_near(lower, upper, unit_of(upper)))
        assert (outcome(run_grid, profile, global_est)
                == outcome(parent_grid, profile, global_est))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kronecker_decides_as_the_parent(self, data):
        left, right = data.draw(interval()), data.draw(interval())
        bound = left.upper * right.upper
        product = data.draw(interval_near(bound, bound, unit_of(bound)))
        args = (left, right, product)
        assert outcome(run_kronecker, *args) == outcome(parent_kronecker, *args)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_union_decides_as_the_parent(self, data):
        ref = data.draw(interval())
        unit = jsr.ROUNDING / 1e-9 * unit_of(ref.upper)
        stages = [ref] + [data.draw(interval_near(ref.lower, ref.upper, unit))
                          for _ in range(data.draw(st.integers(1, 3)))]
        assert outcome(run_union, stages) == outcome(parent_union, stages)
