import math

import numpy as np
import pytest

from borno import algebra
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
    gauge,
    linear_dim,
    matrix_element,
    multiply,
    norm,
    scalar_element,
    scale,
    subtract,
    unvec,
)
from borno.approx_mult import (
    _homotopy_coefficients,
    apple_certificate,
    chebyshev_grid,
    curvature,
    curvature_radius,
    is_approximately_multiplicative,
    linear_homotopy_certificate,
    sigma_approximation_check,
)
from borno.fixtures import corner_embedding, fixture, fixture_catalog
from borno.isoradial import SamplerConfig
from borno.maps import Homomorphism, LinearMap, multiplicativity_defect

SCALAR = MatrixAlgebra(1)
FAST = SamplerConfig(per_size=4)


def scalar_map(factor):
    return LinearMap(SCALAR, SCALAR, [[factor]])


def unit_scalar_set():
    return bounded_set([scalar_element(1.0)])


class TestCurvature:
    def test_homomorphism_curvature_vanishes(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        rng = np.random.default_rng(0)
        s = bounded_set([unvec(f.source, rng.standard_normal(4))
                         for _ in range(2)])
        cs = curvature(f, s)
        assert all(np.all(e.data == 0) for e in cs.generators)
        est = curvature_radius(f, s)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_zero_map_is_multiplicative(self):
        z = LinearMap.zero(SCALAR, SCALAR)
        est = curvature_radius(z, unit_scalar_set())
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_scalar_closed_form(self):
        eps = 0.1
        g = scalar_map(1 + eps)
        cs = curvature(g, unit_scalar_set())
        value = cs.generators[0].data[0, 0]
        assert value == pytest.approx(-eps * (1 + eps), abs=1e-15)
        est = curvature_radius(g, unit_scalar_set())
        assert est.lower == pytest.approx(eps * (1 + eps), abs=1e-9)
        assert est.upper == pytest.approx(eps * (1 + eps), abs=1e-9)

    def test_perturbed_corner_embedding_has_positive_radius(self):
        f = corner_embedding(2, 3)
        bump = np.zeros((9, 4), dtype=complex)
        bump[0, 0] = 0.01  # shifts the image of E11 by 0.01 E11
        g = LinearMap(f.source, f.target, f.action + bump)
        s = bounded_set([matrix_element(np.eye(2))])
        est = curvature_radius(g, s)
        assert est.lower > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_law(self, seed):
        rng = np.random.default_rng(seed)
        g = LinearMap(MatrixAlgebra(2), MatrixAlgebra(2),
                      rng.standard_normal((4, 4)) / 2)
        s = bounded_set([unvec(g.source, rng.standard_normal(4))])
        t = 0.5 + rng.random()
        base = curvature_radius(g, s, depth=4)
        scaled = curvature_radius(g, s.scaled(t), depth=4)
        assert scaled.lower == pytest.approx(t * t * base.lower, rel=1e-9,
                                             abs=1e-12)
        assert scaled.upper == pytest.approx(t * t * base.upper, rel=1e-9,
                                             abs=1e-12)


class TestApproximateMultiplicativity:
    def test_homomorphism_yes(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        s = bounded_set([matrix_element(np.eye(2))])
        assert is_approximately_multiplicative(f, s) == "yes"

    def test_doubling_map_no(self):
        assert is_approximately_multiplicative(scalar_map(2.0),
                                               unit_scalar_set()) == "no"

    def test_borderline_inconclusive_contract(self):
        # |g|_omega = 1 exactly: neither certified below nor above one
        phi = (1 + math.sqrt(5)) / 2
        g = scalar_map(phi)  # omega = phi - phi^2 = -1
        verdict = is_approximately_multiplicative(g, unit_scalar_set())
        assert verdict in ("no", "inconclusive")
        cs = curvature(g, unit_scalar_set())
        assert abs(cs.generators[0].data[0, 0]) == pytest.approx(1.0)


    def test_wide_interval_is_inconclusive(self):
        # g(1) = A = [[1/5, 5], [0, 1/5]] has curvature A - A^2 =
        # [[4/25, 3], [0, 4/25]]: radius 4/25, norm above 3, so depth 1
        # brackets the radius by [4/25, 3.01] around 1
        g = LinearMap(SCALAR, MatrixAlgebra(2), [[0.2], [5.0], [0.0], [0.2]])
        assert is_approximately_multiplicative(g, unit_scalar_set(),
                                               depth=1) == "inconclusive"
        assert is_approximately_multiplicative(g, unit_scalar_set()) == "yes"


class TestSigmaApproximation:
    def test_exact_inverse_gives_zero_rates(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        rep = sigma_approximation_check(
            f, [Homomorphism.identity(MatrixAlgebra(2))] * 3,
            bounded_set([matrix_element(np.eye(2))]), NormBall(1.0))
        assert rep.rates == (0.0, 0.0, 0.0)
        assert rep.converged

    def test_fejer_rates_match_closed_form(self):
        fix = fixture("trig-fejer")
        rep = sigma_approximation_check(fix.map, fix.sigmas,
                                        bounded_set(fix.family),
                                        NormBall(1.0), modulus=fix.modulus)
        for n, rate in enumerate(rep.rates, start=1):
            assert rate == pytest.approx(0.5 / (n + 1), abs=1e-12)
        assert rep.nonincreasing
        assert rep.rates[63] <= 1e-2
        assert rep.modulus_bound_ok

    def test_tower_compression_vanishes_at_support(self):
        fix = fixture("tower-compression")
        rep = sigma_approximation_check(fix.map, fix.sigmas,
                                        bounded_set(fix.family),
                                        NormBall(1.0))
        # orders 1..8, family supported in the 4-corner
        assert all(r == 0.0 for r in rep.rates[3:])
        assert any(r > 0 for r in rep.rates[:3])


class TestLinearHomotopy:
    def test_constant_homomorphism_path(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        s = bounded_set([matrix_element(np.eye(2))])
        cert = linear_homotopy_certificate(f, f, s)
        assert cert.verdict == "pass"
        assert all(e.lower == e.upper == 0.0 for e in cert.per_t)
        assert cert.sup_bound == 0.0

    def test_scalar_small_perturbation(self):
        h0, h1 = scalar_map(1.0), scalar_map(0.99)
        cert = linear_homotopy_certificate(h0, h1, unit_scalar_set())
        # |q(1-q)| with q = 1 - 0.01 t, maximal at t = 1
        assert cert.verdict == "pass"
        assert cert.sup_bound == pytest.approx(0.01 * 0.99, abs=1e-9)
        assert cert.sup_bound < 0.011

    def test_scalar_pass_fail_pair(self):
        h0, h1 = scalar_map(1.0), scalar_map(0.0)
        cert = linear_homotopy_certificate(h0, h1, unit_scalar_set())
        assert cert.verdict == "pass"
        assert cert.sup_bound == pytest.approx(0.25, abs=1e-9)
        scaled = bounded_set([scalar_element(3.0)])
        cert3 = linear_homotopy_certificate(h0, h1, scaled)
        assert cert3.verdict == "fail"
        assert cert3.sup_bound == pytest.approx(2.25, abs=1e-6)

    def test_every_one_dimensional_target_gets_the_scalar_bound(self):
        # a 1-point grid over M1 and DirectSum((M1,)) are the scalars too
        bounds = []
        for desc in (SCALAR, GridFunctionAlgebra(GridSpec.circle(1), SCALAR),
                     DirectSum((SCALAR,))):
            cert = linear_homotopy_certificate(
                LinearMap.identity(desc), LinearMap(desc, desc, [[0.5]]),
                bounded_set([unvec(desc, [0.3])]))
            bounds.append(cert.sup_bound)
        assert bounds[0] == bounds[1] == bounds[2]

    @pytest.mark.parametrize("kappa", [0.3, 0.45, 0.8, 1.0, 1.7])
    def test_certified_sup_matches_closed_form(self, kappa):
        # h_t = (1 - kappa t) id on the unit scalar set:
        # curvature value q(t)(1 - q(t)) with q = 1 - kappa t
        h0, h1 = scalar_map(1.0), scalar_map(1.0 - kappa)
        cert = linear_homotopy_certificate(h0, h1, unit_scalar_set())
        ts = np.linspace(0, 1, 2_000_001)
        q = 1 - kappa * ts
        closed = np.max(np.abs(q * (1 - q)))
        assert cert.sup_bound == pytest.approx(closed, abs=1e-6)

    def test_endpoints_bit_exact(self):
        rng = np.random.default_rng(4)
        h0 = LinearMap(MatrixAlgebra(2), MatrixAlgebra(2),
                       rng.standard_normal((4, 4)) / 3)
        h1 = LinearMap(MatrixAlgebra(2), MatrixAlgebra(2),
                       rng.standard_normal((4, 4)) / 3)
        s = bounded_set([unvec(h0.source, rng.standard_normal(4))])
        cert = linear_homotopy_certificate(h0, h1, s, t_points=(0.0, 0.5, 1.0))
        assert cert.per_t[0] == curvature_radius(h0, s)
        assert cert.per_t[2] == curvature_radius(h1, s)

    def test_grid_contains_midpoint(self):
        grid = chebyshev_grid(65)
        assert 0.0 in grid and 1.0 in grid and 0.5 in grid
        assert all(grid[i] < grid[i + 1] for i in range(len(grid) - 1))


class TestAppleCertificate:
    def test_identity_with_identity_sigmas(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        h = Homomorphism.identity(MatrixAlgebra(2))
        s = bounded_set([scale(0.5, matrix_element(np.eye(2)))])
        out = apple_certificate(f, [f], h, s, sampler=FAST, depth=4)
        assert out["verdict"] == "pass"

    def test_trig_fejer_fixture_passes(self):
        fix = fixture("trig-fejer")
        h = Homomorphism.identity(fix.map.target)
        out = apple_certificate(fix.map, list(fix.sigmas), h,
                                bounded_set(fix.family), sampler=FAST,
                                depth=4)
        assert out["verdict"] == "pass"
        assert out["homotopy"].sup_bound < 1.0

    def test_rates_that_do_not_converge_are_inconclusive(self):
        # the zero sigma leaves f o sigma - id = -id: every rate is the
        # pushed set's norm, while the other stages pass
        f = Homomorphism.identity(MatrixAlgebra(2))
        sigma = LinearMap.zero(f.target, f.source)
        s = bounded_set([scale(0.5, matrix_element(np.eye(2)))])
        out = apple_certificate(f, [sigma], f, s, sampler=FAST, depth=4)
        assert out["isoradial"].verdict == "pass"
        assert out["h_approximately_multiplicative"] == "yes"
        assert out["sigma_rates"].rates == (0.5,)
        assert out["homotopy"] is None
        assert out["verdict"] == "inconclusive"

    def test_negative_control_fails_at_isoradial_stage(self):
        fix = fixture("interval-restriction")
        h = Homomorphism.identity(fix.map.target)
        sigma = LinearMap.zero(fix.map.target, fix.map.source)
        from borno.algebra import identity as alg_identity
        s = bounded_set([scale(0.5, alg_identity(fix.map.target))])
        out = apple_certificate(fix.map, [sigma], h, s, sampler=FAST, depth=4)
        assert out["verdict"] == "fail"
        assert out["isoradial"].verdict == "fail"


# ---------------------------------------------------------------------------
# the row-stack families against the per-pair element loops they replaced
# ---------------------------------------------------------------------------

def per_pair_omega(g, xy, gx, gy):
    return subtract(g(xy), multiply(gx, gy))


def per_pair_curvature(g, s):
    """((i, j), omega_g(x_i, x_j)) over generator pairs, one element a pair."""
    gens = s.generators
    images = [g(x) for x in gens]
    return [((i, j), per_pair_omega(g, multiply(x, y), images[i], images[j]))
            for i, x in enumerate(gens) for j, y in enumerate(gens)]


def per_pair_coefficients(h0, h1, s):
    """(C0, C1, C2) elements per generator pair, built as the pair loop did."""
    gens = s.generators
    delta = h1.subtract(h0)
    h0_img = [h0(x) for x in gens]
    d_img = [delta(x) for x in gens]
    coeffs = []
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            xy = multiply(x, y)
            c0 = per_pair_omega(h0, xy, h0_img[i], h0_img[j])
            c1 = subtract(subtract(delta(xy), multiply(d_img[i], h0_img[j])),
                          multiply(h0_img[i], d_img[j]))
            c2 = algebra.scale(-1.0, multiply(d_img[i], d_img[j]))
            coeffs.append((c0, c1, c2))
    return coeffs


def per_pair_defect(f):
    elems = algebra.basis(f.source)
    images = [f(e) for e in elems]
    worst = 0.0
    for i, ei in enumerate(elems):
        for j, ej in enumerate(elems):
            defect = per_pair_omega(f, multiply(ei, ej), images[i], images[j])
            worst = max(worst, norm(defect))
    return worst


def per_generator_rates(f, sigmas, s, t_disk):
    rates = []
    for sigma in sigmas:
        approx = f.compose(sigma)
        worst = 0.0
        for gen in s.generators:
            worst = max(worst, gauge(t_disk, subtract(approx(gen), gen)))
        rates.append(worst)
    return rates


ROW_DESCS = [
    MatrixAlgebra(1), MatrixAlgebra(3), MatrixAlgebra(3, "maxrow"),
    GridFunctionAlgebra(GridSpec.circle(4), MatrixAlgebra(2)),
    GridFunctionAlgebra(GridSpec.circle(2),
                        DirectSum((MatrixAlgebra(2), MatrixAlgebra(1, "maxrow")))),
]


def random_rows(rng, desc, n):
    dim = linear_dim(desc)
    return (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / 2


def random_map(rng, source, target):
    action = random_rows(rng, source, linear_dim(target)) / linear_dim(source)
    return LinearMap(source, target, action)


def random_set(rng, desc, n=3):
    return bounded_set([unvec(desc, row) for row in random_rows(rng, desc, n)])


def map_cases():
    """(name, map, generator set) per map fixture and per random map from
    each descriptor to itself and to the next one."""
    rng = np.random.default_rng(41)
    cases = [(name, fx.map, random_set(rng, fx.map.source))
             for name, fx in fixture_catalog().items()]
    for k, src in enumerate(ROW_DESCS):
        for tgt in (src, ROW_DESCS[(k + 1) % len(ROW_DESCS)]):
            cases.append((f"{src}->{tgt}", random_map(rng, src, tgt),
                          random_set(rng, src)))
    return cases


MAP_CASES = map_cases()
CASE_IDS = [name for name, _f, _s in MAP_CASES]


def same_bytes(rows, elements):
    return [r.tobytes() for r in rows] == [e.coords.tobytes() for e in elements]


class TestRowFamilies:
    """Each family evaluated on row stacks gets the bytes of its per-pair
    element loop."""

    @pytest.mark.parametrize("name, f, s", MAP_CASES, ids=CASE_IDS)
    def test_row_application_is_the_call(self, name, f, s):
        rows = np.stack([x.coords for x in s.generators])
        assert same_bytes(f.rows(rows), [f(x) for x in s.generators])

    @pytest.mark.parametrize("name, f, s", MAP_CASES, ids=CASE_IDS)
    def test_multiplicativity_defect(self, name, f, s):
        got, want = multiplicativity_defect(f), per_pair_defect(f)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name, f, s", MAP_CASES, ids=CASE_IDS)
    def test_curvature(self, name, f, s):
        got = curvature(f, s).generators
        want = per_pair_curvature(f, s)
        k = len(s.generators)
        assert [p for p, _e in want] == [divmod(q, k) for q in range(len(got))]
        assert same_bytes([e.coords for e in got], [e for _p, e in want])

    @pytest.mark.parametrize("name, f, s", MAP_CASES, ids=CASE_IDS)
    def test_homotopy_coefficients(self, name, f, s):
        rng = np.random.default_rng(7)
        h1 = f.add(random_map(rng, f.source, f.target))
        rows = np.stack([x.coords for x in s.generators])
        got = _homotopy_coefficients(f, h1, rows)
        want = per_pair_coefficients(f, h1, s)
        for k in range(3):
            assert same_bytes(got[k], [c[k] for c in want])

    @pytest.mark.parametrize("name, f, s", MAP_CASES, ids=CASE_IDS)
    def test_sigma_rates(self, name, f, s):
        rng = np.random.default_rng(9)
        sigmas = [random_map(rng, f.target, f.source) for _ in range(3)]
        family = random_set(rng, f.target, 4)
        gens = family.generators
        disks = [NormBall(1.0), Scaled(2.0, NormBall(0.5)), FiniteHull(gens),
                 SumDisk(FiniteHull(gens[:2]), Scaled(3.0, FiniteHull(gens[2:])))]
        for disk in disks:
            got = sigma_approximation_check(f, sigmas, family, disk).rates
            want = per_generator_rates(f, sigmas, family, disk)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", ["trig-fejer", "tower-compression"])
    def test_fixture_sigma_rates(self, name):
        fx = fixture(name)
        family = bounded_set(fx.family)
        got = sigma_approximation_check(fx.map, fx.sigmas, family,
                                        NormBall(1.0)).rates
        want = per_generator_rates(fx.map, fx.sigmas, family, NormBall(1.0))
        assert np.array(got).tobytes() == np.array(want).tobytes()
