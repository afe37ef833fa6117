import math

import numpy as np
import pytest

from borno.algebra import (
    DirectSum,
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    NormBall,
    bounded_set,
    matrix_element,
    scalar_element,
    scale,
    unvec,
)
from borno.approx_mult import (
    apple_certificate,
    chebyshev_grid,
    curvature,
    curvature_radius,
    is_approximately_multiplicative,
    linear_homotopy_certificate,
    sigma_approximation_check,
)
from borno.fixtures import corner_embedding, fixture
from borno.isoradial import SamplerConfig
from borno.maps import Homomorphism, LinearMap

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
        assert all(np.all(e.data == 0) for _, e in cs.pairs)
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
        value = cs.set.generators[0].data[0, 0]
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
        assert abs(cs.set.generators[0].data[0, 0]) == pytest.approx(1.0)


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

    def test_negative_control_fails_at_isoradial_stage(self):
        fix = fixture("interval-restriction")
        h = Homomorphism.identity(fix.map.target)
        sigma = LinearMap.zero(fix.map.target, fix.map.source)
        from borno.algebra import identity as alg_identity
        s = bounded_set([scale(0.5, alg_identity(fix.map.target))])
        out = apple_certificate(fix.map, [sigma], h, s, sampler=FAST, depth=4)
        assert out["verdict"] == "fail"
        assert out["isoradial"].verdict == "fail"
