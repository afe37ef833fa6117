"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
from borno.algebra import (
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    NormBall,
    bounded_set,
    grid_element,
    matrix_element,
    scalar_element,
    unvec,
)
from borno.approx_mult import (
    curvature_radius,
    linear_homotopy_certificate,
    sigma_approximation_check,
)
from borno.cli import builtin_instances, main as cli_main
from borno.closedforms import DiskForm, EpsForm
from borno.finrank import (
    CompactSetModel,
    OperatorModel,
    uniform_convergence_on_set,
)
from borno.fixtures import fixture, fixture_catalog
from borno.isoradial import SamplerConfig, isoradial_certificate
from borno.jsr import check_specrad_identities, jsr_estimate, jsr_grid_max
from borno.maps import LinearMap
from borno.seqspace import (
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    cauchy_check,
    completeness_check,
    completion_construct,
    convergence_check,
    gauge_value,
)

from test_jsr import exhaustive_jsr  # the independent enumeration oracle


def _report(number, ok, detail):
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_matrices(seed, max_size=2, max_dim=3):
    rng = np.random.default_rng(seed)
    size = 1 + seed % max_size
    dim = 2 + seed % (max_dim - 1)
    return [(rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
            for _ in range(size)]


def test_criterion_1_jsr_vs_brute_force():
    started = time.perf_counter()
    mismatches = []
    for seed in range(20):
        mats = _random_matrices(seed)
        est = jsr_estimate(bounded_set([matrix_element(m) for m in mats]),
                           depth=8, gap_target=1e-9)
        lo, hi, wit, depth, status = exhaustive_jsr(mats, 8, 1e-9)
        if (est.lower, est.upper, est.witness_word, est.depth,
                est.status) != (lo, hi, wit, depth, status):
            mismatches.append(seed)
    elapsed = time.perf_counter() - started
    _report(1, not mismatches and elapsed < 5.0,
            f"20 seeded instances, exact interval equality at depth 8, "
            f"{elapsed:.2f}s (< 5 s), mismatches: {mismatches}")


def test_criterion_2_golden_pair():
    started = time.perf_counter()
    est = jsr_estimate(bounded_set([matrix_element([[1, 1], [0, 1]]),
                                    matrix_element([[1, 0], [1, 1]])]),
                       depth=12, gap_target=1e-3)
    elapsed = time.perf_counter() - started
    ok = (est.lower >= 1.6180339 and est.upper <= 1.6190
          and est.gap < 1e-3 and elapsed < 10.0)
    _report(2, ok, f"golden pair: [{est.lower:.9f}, {est.upper:.9f}], "
                   f"gap {est.gap:.2e}, {elapsed:.2f}s")


def test_criterion_3_specrad_identities():
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        size = 1 + seed % 2
        mats = [matrix_element((rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2))) / 2)
                for _ in range(size)]
        c = complex(rng.standard_normal(), rng.standard_normal())
        try:
            check_specrad_identities(bounded_set(mats), c=c, n=2 + seed % 2,
                                     depth=6)
        except Exception:
            violations += 1
    _report(3, violations == 0,
            f"50 seeded instances of rho(cS) and rho(S^n): "
            f"{violations} violations")


def test_criterion_4_pointwise_max_formula():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        n_points = 2 + seed % 2
        desc = GridFunctionAlgebra(GridSpec.circle(n_points), MatrixAlgebra(2))
        gens = []
        for _ in range(1 + seed % 2):
            fibers = [matrix_element((rng.standard_normal((2, 2))
                                      + 1j * rng.standard_normal((2, 2))) / 2)
                      for _ in range(n_points)]
            gens.append(grid_element(desc, fibers))
        try:
            jsr_grid_max(bounded_set(gens), depth=5)
        except Exception:
            violations += 1
    _report(4, violations == 0,
            f"20 grid instances of the pointwise-max formula: "
            f"{violations} violations")


def test_criterion_5_isoradial_fixtures():
    cfg = SamplerConfig(per_size=8)
    rep_a = isoradial_certificate(fixture("trig-grid-d3").map, cfg, depth=6)
    rep_b = isoradial_certificate(fixture("matrix-tower-2-6").map, cfg,
                                  depth=6)
    rep_c = isoradial_certificate(fixture("interval-restriction").map, cfg,
                                  depth=6)
    ok = (rep_a.verdict == "pass" and abs(rep_a.worst_ratio - 1) <= 1e-2
          and rep_b.verdict == "pass" and abs(rep_b.worst_ratio - 1) <= 1e-2
          and rep_c.verdict == "fail" and rep_c.worst_ratio >= 1.9)
    _report(5, ok,
            f"fixture ratios: (a) {rep_a.worst_ratio:.6f} {rep_a.verdict}, "
            f"(b) {rep_b.worst_ratio:.6f} {rep_b.verdict}, "
            f"(c) {rep_c.worst_ratio:.6f} {rep_c.verdict}")


def test_criterion_6_curvature():
    catalog = fixture_catalog()
    zero_ok = True
    rng = np.random.default_rng(0xB00C)
    for fixture in catalog.values():
        f = fixture.map
        gens = [unvec(f.source, (rng.standard_normal(
            f.action.shape[1]) + 1j * rng.standard_normal(
            f.action.shape[1])) / 2) for _ in range(2)]
        est = curvature_radius(f, bounded_set(gens), depth=3)
        if (est.lower, est.upper) != (0.0, 0.0):
            zero_ok = False
    eps = 0.1
    g = LinearMap(MatrixAlgebra(1), MatrixAlgebra(1), [[1 + eps]])
    est = curvature_radius(g, bounded_set([scalar_element(1.0)]))
    scalar_ok = (abs(est.lower - eps * (1 + eps)) <= 1e-9
                 and abs(est.upper - eps * (1 + eps)) <= 1e-9)
    scaling_ok = True
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        g = LinearMap(MatrixAlgebra(2), MatrixAlgebra(2),
                      rng.standard_normal((4, 4)) / 2)
        s = bounded_set([unvec(g.source, rng.standard_normal(4))])
        t = 0.5 + rng.random()
        base = curvature_radius(g, s, depth=4)
        scaled = curvature_radius(g, s.scaled(t), depth=4)
        tol = 1e-9 * max(1.0, t * t * base.upper)
        if (abs(scaled.lower - t * t * base.lower) > tol
                or abs(scaled.upper - t * t * base.upper) > tol):
            scaling_ok = False
    _report(6, zero_ok and scalar_ok and scaling_ok,
            f"homomorphism curvature [0,0]: {zero_ok}, scalar closed form "
            f"within 1e-9: {scalar_ok}, scaling law on 20 instances: "
            f"{scaling_ok}")


def test_criterion_7_homotopy_soundness():
    def scalar_map(v):
        return LinearMap(MatrixAlgebra(1), MatrixAlgebra(1), [[v]])

    cases = [(1.0, kappa) for kappa in
             (0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0, 1.3)]
    worst = 0.0
    for rho_s, kappa in cases:
        s = bounded_set([scalar_element(rho_s)])
        cert = linear_homotopy_certificate(scalar_map(1.0),
                                           scalar_map(1.0 - kappa), s)
        ts = np.linspace(0.0, 1.0, 2_000_001)
        q = 1 - kappa * ts
        closed = float(np.max(np.abs(rho_s * rho_s * q * (1 - q))))
        worst = max(worst, abs(cert.sup_bound - closed))
    # the pass/fail pair at rho(S) in {1, 3} for the full contraction path
    pass_cert = linear_homotopy_certificate(
        scalar_map(1.0), scalar_map(0.0), bounded_set([scalar_element(1.0)]))
    fail_cert = linear_homotopy_certificate(
        scalar_map(1.0), scalar_map(0.0), bounded_set([scalar_element(3.0)]))
    worst = max(worst, abs(pass_cert.sup_bound - 0.25),
                abs(fail_cert.sup_bound - 2.25))
    ok = (worst <= 1e-6 and pass_cert.verdict == "pass"
          and fail_cert.verdict == "fail")
    _report(7, ok, f"10 scalar homotopies: certified sup within "
                   f"{worst:.2e} of the closed form; pass/fail pair "
                   f"{pass_cert.verdict}/{fail_cert.verdict}")


def test_criterion_8_sigma_rates():
    fej = fixture("trig-fejer")
    rep = sigma_approximation_check(fej.map, fej.sigmas,
                                    bounded_set(fej.family), NormBall(1.0),
                                    modulus=fej.modulus)
    fejer_ok = (rep.nonincreasing and rep.rates[63] <= 1e-2
                and rep.modulus_bound_ok)
    tow = fixture("tower-compression")
    rep_t = sigma_approximation_check(tow.map, tow.sigmas,
                                      bounded_set(tow.family), NormBall(1.0))
    tower_ok = all(r == 0.0 for r in rep_t.rates[3:])
    _report(8, fejer_ok and tower_ok,
            f"Fejer rates nonincreasing with eps_64 = {rep.rates[63]:.4f} "
            f"<= 1e-2: {fejer_ok}; tower rates vanish from the support "
            f"size: {tower_ok}")


def test_criterion_9_sequence_machinery():
    HALF = Fraction(1, 2)
    l1 = ModelSpace((DiskForm("sum"),))
    sup = ModelSpace((DiskForm("sup"),))
    e1 = SeqVector.unit(1, 1)
    geo = SequenceModel.geometric_multiple(e1, 1, HALF)
    ps = SequenceModel.partial_sums_of_geometric(1, HALF)
    approach = SequenceModel(geo_terms=(GeoTerm(1, 1, e1),
                                        GeoTerm(-1, HALF, e1)))
    v = SeqVector.geometric(1, HALF)
    e_n = SequenceModel(window_terms=(
        __import__("borno.seqspace", fromlist=["WindowTerm"])
        .WindowTerm(1, v, 1, -1, Fraction(2)),
        __import__("borno.seqspace", fromlist=["WindowTerm"])
        .WindowTerm(-1, v, 1, 0, Fraction(2))))
    # ten closed-form cases with hand-derived geometric bounds
    cases = [
        # sum_{k>m} 2^-k = 2^-m: partial sums exactly on the budget
        (cauchy_check(ps, l1, 0, EpsForm.geometric(1, HALF)).holds, True),
        (cauchy_check(ps, l1, 0,
                      EpsForm.geometric(Fraction(1, 3), HALF)).holds, False),
        # |2^-n - 2^-m| <= 2 * 2^-m with room, and exactly at amp 1
        (cauchy_check(geo, l1, 0, EpsForm.geometric(2, HALF)).holds, True),
        (cauchy_check(geo, l1, 0, EpsForm.geometric(1, HALF)).holds, True),
        # too-fast budget fails
        (cauchy_check(geo, l1, 0,
                      EpsForm.geometric(1, Fraction(1, 4))).holds, False),
        # constant sequences are Cauchy for any budget
        (cauchy_check(SequenceModel.constant(e1), l1, 0,
                      EpsForm.geometric(Fraction(1, 10**6), HALF)).holds,
         True),
        # convergence of 1 - 2^-n to 1 at the geometric rate
        (convergence_check(approach, l1, 0, EpsForm.geometric(1, HALF),
                           e1).holds, True),
        (convergence_check(approach, l1, 0, EpsForm.geometric(1, HALF),
                           SeqVector.zero()).holds, False),
        # unit vectors never converge in the constant-weight sup gauge
        (convergence_check(e_n, sup, 0, EpsForm.geometric(1, HALF),
                           SeqVector.zero()).holds, False),
        # square-root budgets stay exact
        (cauchy_check(geo, l1, 0, EpsForm.geometric(4, HALF).sqrt()).holds,
         True),
    ]
    decisions_ok = all(got == want for got, want in cases)
    full = ModelSpace((DiskForm("sum"), DiskForm("sup")), tails_admitted=True)
    fin = ModelSpace((DiskForm("sum"), DiskForm("sup")), tails_admitted=False)
    cross_ok = True
    for space in (full, fin):
        iii = completeness_check(space, "iii")
        iv = completeness_check(space, "iv")
        if [a.complete for a in iii] != [b.complete for b in iv]:
            cross_ok = False
    comp = completion_construct(ModelSpace((DiskForm("sum"),)))
    a = comp.element(ps, 0, EpsForm.geometric(1, HALF))
    b = comp.element(SequenceModel.constant(SeqVector.geometric(1, HALF)), 0,
                     EpsForm.geometric(1, HALF))
    idempotence_ok = comp.equal(a, b)[0] and comp.equal(
        comp.embed(e1), comp.embed(e1))[0]
    w = SeqVector.from_coords([1, HALF, Fraction(1, 4)])
    quotient_ok = (comp.gauge_in_quotient(comp.embed(w), 0)
                   == gauge_value(DiskForm("sum"), w))
    ok = decisions_ok and cross_ok and idempotence_ok and quotient_ok
    _report(9, ok,
            f"10 closed-form deciders: {decisions_ok}; completeness (iii) "
            f"vs (iv) cross-validation: {cross_ok}; completion idempotence: "
            f"{idempotence_ok}; quotient gauge exact: {quotient_ok}")


def test_criterion_10_finite_rank_rates():
    box = CompactSetModel.geometric(1, Fraction(1, 2))
    gauge = DiskForm("l2")
    family = [OperatorModel.truncation(n) for n in range(1, 17)]
    rates, raws = uniform_convergence_on_set(family, OperatorModel.identity(),
                                             box, gauge)
    eps4 = rates.rates[3]
    eps4_ok = abs(eps4 - 2.0 ** (-4) / math.sqrt(3)) <= 1e-12
    horizon = 64
    rng = np.random.default_rng(0xB00C)
    envelope = np.array([float(box.coordinate_bound(k))
                         for k in range(horizon)])
    sound = True
    for _ in range(1000):
        mags = rng.random(horizon) * envelope
        phases = np.exp(2j * np.pi * rng.random(horizon))
        x = mags * phases
        for op, rate in zip(family, rates.rates):
            tail = x.copy()
            tail[: op.cutoff + 1] = 0.0  # (P_n - id) x = -x beyond n
            measured = float(np.linalg.norm(tail))
            if measured > rate + 1e-12:
                sound = False
    _report(10, eps4_ok and sound,
            f"eps_4 = {eps4!r} vs 2^-4/sqrt(3) within 1e-12: {eps4_ok}; "
            f"1000-point sampling never exceeds certified rates: {sound}")


def test_criterion_11_determinism_across_threads(tmp_path):
    names = ["golden-pair", "nilpotent", "contraction-hull", "trig-grid",
             "matrix-tower", "interval-restriction", "trig-fejer",
             "cauchy-geometric", "completion-demo", "approx-truncation"]
    instances = builtin_instances()
    all_equal = True
    for name in names:
        inst_path = tmp_path / f"{name}.json"
        inst_path.write_text(json.dumps(instances[name], sort_keys=True))
        blobs = []
        for threads in ("1", "4", "0"):
            out = tmp_path / f"{name}-{threads}.json"
            code = cli_main(["run", "--input", str(inst_path),
                             "--out", str(out), "--threads", threads])
            assert code in (0, 1, 2)
            report = json.loads(out.read_text())
            report.pop("wall_time_ms")
            blobs.append(json.dumps(report, sort_keys=True))
        if not (blobs[0] == blobs[1] == blobs[2]):
            all_equal = False
    _report(11, all_equal,
            f"reports for {len(names)} instances bit-identical across "
            f"thread counts 1, 4, max")
