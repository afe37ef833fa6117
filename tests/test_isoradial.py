import math

import numpy as np
import pytest

from borno.algebra import (
    DirectSum,
    MatrixAlgebra,
    NormBall,
    bounded_set,
    identity,
    matrix_element,
    norm,
    spectral_radius_single,
    unvec,
)
from borno.fixtures import (
    FIXTURE_BUILDERS,
    corner_embedding,
    fixture,
    fixture_catalog,
    grid_function,
    trig_interpolation_map,
)
from borno.isoradial import (
    SamplerConfig,
    check_multiplicative,
    isoradial_certificate,
    local_density_probe,
    sample_bounded_sets,
)
from borno.jsr import jsr_estimate
from borno.maps import Homomorphism, LinearMap, multiplicativity_defect

FAST = SamplerConfig(per_size=4)


class TestCheckMultiplicative:
    def test_identity_defect_zero(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        assert check_multiplicative(f).defect == 0.0

    @pytest.mark.parametrize("target", ["M3", "sum", "trig-fejer"])
    def test_identity_defect_equals_full_check(self, target):
        desc = {"M3": lambda: MatrixAlgebra(3),
                "sum": lambda: DirectSum((MatrixAlgebra(2),
                                          MatrixAlgebra(1, "maxrow"))),
                "trig-fejer": lambda: fixture("trig-fejer").map.target}[target]()
        defect = Homomorphism.identity(desc).mult_defect
        assert defect == multiplicativity_defect(LinearMap.identity(desc))
        assert defect == 0.0

    def test_explicit_action_keeps_its_check(self):
        desc = MatrixAlgebra(2)
        swap = np.eye(4)[[0, 2, 1, 3]]  # the transpose on row-major coordinates
        with pytest.raises(ValueError):
            Homomorphism(desc, desc, swap)
        assert Homomorphism(desc, desc, np.eye(4)).mult_defect == 0.0

    def test_corner_embedding_defect_zero(self):
        f = corner_embedding(2, 3)
        assert check_multiplicative(f).defect == 0.0

    def test_transpose_is_antihomomorphism(self):
        desc = MatrixAlgebra(2)
        transpose = LinearMap.from_callable(
            desc, desc, lambda e: matrix_element(e.data.T))
        report = check_multiplicative(transpose)
        assert report.defect > 0.5
        assert not report.multiplicative

    def test_homomorphism_constructor_rejects_transpose(self):
        desc = MatrixAlgebra(2)
        with pytest.raises(ValueError):
            Homomorphism.from_callable(desc, desc,
                                       lambda e: matrix_element(e.data.T))


class TestLocalDensityProbe:
    def test_surjective_map_hits_every_probe(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        rng = np.random.default_rng(0)
        probes = [unvec(f.target, rng.standard_normal(4)) for _ in range(3)]
        report = local_density_probe(f, probes, NormBall(1.0), 1e-9)
        assert report.passed
        assert all(v <= 1e-9 for v in report.gauges)

    def test_square_interpolation_is_exact(self):
        f = trig_interpolation_map(degree=3)  # 7 coefficients onto 7 points
        rng = np.random.default_rng(1)
        probes = [unvec(f.target, rng.standard_normal(7)
                        + 1j * rng.standard_normal(7)) for _ in range(3)]
        report = local_density_probe(f, probes, NormBall(1.0), 1e-8)
        assert report.passed

    def test_sawtooth_residual_decreases_in_degree(self):
        # fixed 16-point grid (>= 4d throughout) so the spaces are nested
        residuals = []
        for d in (2, 3, 4):
            f = trig_interpolation_map(degree=d, points=16)
            angles = np.array(f.target.grid.points)
            saw = (angles % (2 * math.pi)) / math.pi - 1.0
            probe = grid_function(f.target, saw)
            rep = local_density_probe(f, [probe], NormBall(1.0), 1e-12)
            residuals.append(rep.gauges[0])
        assert residuals[0] > residuals[1] > residuals[2] > 0


class TestSampling:
    def test_direct_sum_ramp_is_the_identity(self):
        desc = DirectSum((MatrixAlgebra(2), MatrixAlgebra(1)))
        sets = sample_bounded_sets(desc, SamplerConfig(per_size=1))
        # the identity, the ramp (the identity again) and one set of each
        # size 1, 2 and 3
        assert [len(s.generators) for s in sets] == [1, 1, 1, 2, 3]
        assert sets[1] == sets[0] == bounded_set([identity(desc)])


class TestIsoradialCertificate:
    def test_identity_ratio_one(self):
        f = Homomorphism.identity(MatrixAlgebra(2))
        rep = isoradial_certificate(f, FAST, depth=4)
        assert rep.verdict == "pass"
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_corner_embedding_passes(self):
        rep = isoradial_certificate(corner_embedding(2, 4), FAST, depth=4)
        assert rep.verdict == "pass"
        assert abs(rep.worst_ratio - 1.0) <= 1e-2

    def test_negative_control_fails_with_ratio_two(self):
        rep = isoradial_certificate(fixture("interval-restriction").map,
                                    FAST, depth=6)
        assert rep.verdict == "fail"
        assert rep.worst_ratio >= 1.9

    def test_similarity_straddling_the_gate_is_inconclusive(self):
        # x -> S x S^-1 diagonalizes the least normal sampled matrix x, so at
        # depth 1 the image's upper end is rho(x) while the source's stays at
        # ||x||: the rescaled source interval straddles 1 + tol
        desc = MatrixAlgebra(2)
        singles = [s.generators[0]
                   for s in sample_bounded_sets(desc, FAST)[2:6]]
        x = max(singles, key=lambda g: norm(g) / spectral_radius_single(g))
        _, vecs = np.linalg.eig(x.data)
        s_inv = np.linalg.inv(vecs)
        f = Homomorphism.from_callable(
            desc, desc, lambda e: matrix_element(s_inv @ e.data @ vecs))
        rep = isoradial_certificate(f, FAST, depth=1)
        assert rep.verdict == "inconclusive"
        assert rep.n_samples == 14

    def test_zero_map_samples_nothing(self):
        desc = MatrixAlgebra(2)
        zero = Homomorphism(desc, desc, np.zeros((4, 4)))
        rep = isoradial_certificate(zero, FAST, depth=1)
        assert rep.verdict == "inconclusive"
        assert rep.n_samples == 0

    def test_rejects_non_homomorphisms(self):
        desc = MatrixAlgebra(2)
        transpose = LinearMap.from_callable(
            desc, desc, lambda e: matrix_element(e.data.T))
        with pytest.raises(ValueError):
            isoradial_certificate(transpose, FAST)

    def test_easy_inequality_for_contractions(self):
        # rho(f(S)) <= rho(S) for a multiplicative contraction f
        f = corner_embedding(2, 5)
        rng = np.random.default_rng(9)
        for _ in range(6):
            gens = [unvec(f.source, (rng.standard_normal(4)
                                     + 1j * rng.standard_normal(4)) / 2)
                    for _ in range(2)]
            s = bounded_set(gens)
            image = bounded_set([f(g) for g in gens])
            est_s = jsr_estimate(s, depth=5)
            est_t = jsr_estimate(image, depth=5)
            assert est_t.upper <= est_s.upper + 1e-9


class TestFixtureCatalog:
    def test_expected_verdicts(self):
        assert fixture("trig-grid-d3").expected == "pass"
        assert fixture("matrix-tower-2-6").expected == "pass"
        assert fixture("interval-restriction").expected == "fail"

    def test_table_builds_each_fixture_under_its_name(self):
        catalog = fixture_catalog()
        assert list(catalog) == list(FIXTURE_BUILDERS) == [
            "trig-grid-d3", "matrix-tower-2-6", "interval-restriction",
            "trig-fejer", "tower-compression"]
        for name, fix in catalog.items():
            assert fix.name == name

    def test_trig_grid_passes(self):
        rep = isoradial_certificate(fixture("trig-grid-d3").map,
                                    FAST, depth=4)
        assert rep.verdict == "pass"
        assert abs(rep.worst_ratio - 1.0) <= 1e-2

    def test_all_fixture_maps_are_multiplicative(self):
        for fixture in fixture_catalog().values():
            assert check_multiplicative(fixture.map).defect <= 1e-9

    def test_padding_invariance_of_intervals(self):
        f = corner_embedding(2, 6)
        rng = np.random.default_rng(17)
        gens = [unvec(f.source, rng.standard_normal(4)) for _ in range(2)]
        s = bounded_set(gens)
        image = bounded_set([f(g) for g in gens])
        a = jsr_estimate(s, depth=6)
        b = jsr_estimate(image, depth=6)
        assert a.lower == pytest.approx(b.lower, rel=1e-10, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, rel=1e-10, abs=1e-12)
