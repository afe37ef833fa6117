"""Isoradiality certificates and local-density probes for algebra maps.

A bounded homomorphism with locally dense range preserves spectral radii as
soon as rho(S) <= 1 whenever rho(f(S)) < 1.  That criterion is sampled here:
structured bounded sets are drawn in the source, rescaled so the certified
target radius sits strictly below one, and the source radius is then checked
against one.  Sampling can only ever establish "no violation found", so the
verdict vocabulary is pass / fail / inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    AlgebraElement,
    GridFunctionAlgebra,
    MatrixAlgebra,
    bounded_set,
    gauge,
    identity,
    unvec,
    vec,
)
from .jsr import jsr_estimate
from .maps import Homomorphism, check_multiplicative, HOM_DEFECT_TOL
from .fixtures import fixture_catalog  # re-exported: the catalog is part of this surface

__all__ = [
    "DensityReport",
    "SamplerConfig",
    "CertificateReport",
    "check_multiplicative",
    "local_density_probe",
    "isoradial_certificate",
    "fixture_catalog",
    "Homomorphism",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_MARGIN = 0.05  # targets are rescaled to certified radius 1 - margin


# ---------------------------------------------------------------------------
# local density probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    gauges: tuple
    verdict: str

    @property
    def passed(self):
        return self.verdict == PASS


def local_density_probe(f, probes, t_disk, epsilon):
    """Best gauge distance from each probe to the range of ``f``.

    For each probe b the coordinates of the minimizer of ||b - f(a)|| are
    found by least squares on the action matrix, then the residual is
    measured in the gauge of ``t_disk``.  A finite-probe surrogate for
    sequential T-convergence onto the range.
    """
    values = []
    for b in probes:
        coeffs, *_ = np.linalg.lstsq(f.action, vec(b), rcond=None)
        best = unvec(f.source, coeffs)
        residual = algebra.subtract(b, f(best))
        values.append(gauge(t_disk, residual))
    verdict = PASS if all(v <= epsilon for v in values) else FAIL
    return DensityReport(tuple(values), verdict)


# ---------------------------------------------------------------------------
# structured sampling of bounded sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    per_size: int = 32
    seed: int = 0xB00C


def _random_element(desc, rng):
    d = algebra.linear_dim(desc)
    coords = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
    return unvec(desc, coords)


def _ramp_element(desc):
    """A deterministic probe that separates unequal grid fibers."""
    if isinstance(desc, GridFunctionAlgebra):
        ramp = [float(p if np.isscalar(p) else np.linalg.norm(p))
                for p in desc.grid.points]
        return unvec(desc, np.outer(ramp, vec(identity(desc.fiber))).ravel())
    if isinstance(desc, MatrixAlgebra):
        diag = np.diag(np.arange(1, desc.dim + 1, dtype=np.float64) / desc.dim)
        return AlgebraElement(desc, diag)
    return identity(desc)


def sample_bounded_sets(desc, config):
    """Deterministic probes first, then seeded complex-Gaussian draws of
    ``config.per_size`` sets of each size 1, 2 and 3."""
    sets = [bounded_set([identity(desc)])]
    ramp = _ramp_element(desc)
    if algebra.norm(ramp) > 0:
        sets.append(bounded_set([ramp]))
    rng = np.random.default_rng(config.seed)
    for size in (1, 2, 3):
        for _ in range(config.per_size):
            sets.append(bounded_set([_random_element(desc, rng)
                                     for _ in range(size)]))
    return sets


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    verdict: str
    worst_ratio: float
    n_samples: int
    depth: int
    tolerance: float
    margin: float

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "worst_ratio": self.worst_ratio,
            "n_samples": self.n_samples,
            "depth": self.depth,
            "tolerance": self.tolerance,
            "margin": self.margin,
        }


def isoradial_certificate(f, config=None, depth=6, tol=1e-2):
    """Sampled spectral-radius-preservation check for a homomorphism.

    Every sampled set is rescaled so the certified upper bound of the target
    radius equals 1 - DEFAULT_MARGIN; the rescaled source radius must then
    stay below 1 + tol.  A certified source lower bound above 1 + tol is a
    proof of failure; wide intervals yield an inconclusive sample.
    """
    if isinstance(f, Homomorphism):
        defect = f.mult_defect
    else:
        defect = check_multiplicative(f).defect
    if defect > HOM_DEFECT_TOL:
        raise ValueError(
            f"isoradial certificates require a homomorphism "
            f"(multiplicativity defect {defect:.3e})"
        )
    config = config or SamplerConfig()
    n_samples = 0
    any_violation = False
    any_inconclusive = False
    worst = 0.0
    for s in sample_bounded_sets(f.source, config):
        image = bounded_set([f(g) for g in s.generators])
        est_t = jsr_estimate(image, depth, 1e-3)
        if est_t.upper == 0.0 or not math.isfinite(est_t.upper):
            continue
        factor = (1.0 - DEFAULT_MARGIN) / est_t.upper
        est_s = jsr_estimate(s, depth, 1e-3)
        scaled_lower = factor * est_s.lower
        scaled_upper = factor * est_s.upper
        ratio = est_s.upper / est_t.upper
        if scaled_lower > 1.0 + tol:
            any_violation = True
        elif scaled_upper > 1.0 + tol:
            any_inconclusive = True
        worst = max(worst, ratio)
        n_samples += 1
    if any_violation:
        overall = FAIL
    elif any_inconclusive or not n_samples:
        overall = INCONCLUSIVE
    else:
        overall = PASS
    return CertificateReport(overall, worst, n_samples, depth, tol,
                             DEFAULT_MARGIN)
