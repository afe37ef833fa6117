"""Curvature of linear maps, approximate multiplicativity, smoothing rates,
and linear-homotopy certificates.

The curvature of a linear map g on a bounded set S is the family
omega_g(x, y) = g(xy) - g(x) g(y) over ordered generator pairs; g is
approximately multiplicative when the spectral radius of that family is
below one.  Along the linear homotopy h_t = h0 + t (h1 - h0) the curvature
is a quadratic polynomial in t with exactly computable matrix coefficients,
which is what lets a finite grid of radius estimates cover all of [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    BoundedSet,
    NormBall,
    bounded_set,
    gauge,
    multiply,
    norm,
    subtract,
    vec,
)
from .errors import DescriptorMismatch
from .jsr import jsr_estimate
from .maps import omega
from .isoradial import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SamplerConfig,
    isoradial_certificate,
)

YES = "yes"
NO = "no"


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureSet:
    """omega_g(x, y) over all ordered generator pairs of S, as a bounded set."""

    pairs: tuple  # ((i, j), element) in pair order
    set: BoundedSet


def curvature(g, s):
    s = bounded_set(s)
    if s.descriptor != g.source:
        raise DescriptorMismatch(s.descriptor, g.source, "curvature set")
    gens = s.generators
    images = [g(x) for x in gens]
    entries = []
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            entries.append(((i, j),
                            omega(g, multiply(x, y), images[i], images[j])))
    return CurvatureSet(tuple(entries),
                        bounded_set([e for _, e in entries]))


def curvature_radius(g, s, depth=6):
    return jsr_estimate(curvature(g, s).set, depth, 1e-6)


def is_approximately_multiplicative(g, s, depth=6):
    """yes iff the certified curvature radius is < 1, no iff certified >= 1."""
    est = curvature_radius(g, s, depth)
    if est.upper < 1.0:
        return YES
    if est.lower >= 1.0:
        return NO
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# sigma approximation rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    rates: tuple
    threshold: float
    nonincreasing: bool
    converged: bool
    modulus_bound_ok: object = None  # None when no modulus was declared

    def as_dict(self):
        return {
            "rates": list(self.rates),
            "threshold": self.threshold,
            "nonincreasing": self.nonincreasing,
            "converged": self.converged,
            "modulus_bound_ok": self.modulus_bound_ok,
        }


def sigma_approximation_check(f, sigmas, s, t_disk, modulus=None):
    """Rates eps_n = max_s gauge(T, (f o sigma_n - id)(s)) over the generators.

    Instantiates uniform convergence on the set: (f_n - id)(S) inside eps_n T,
    converged when the rates do not increase and the last is at most 1e-2.
    When a Lipschitz ``modulus`` is declared for the family, the classical
    smoothing bound eps_n <= modulus * pi / (n + 1) is verified as well.
    """
    s = bounded_set(s)
    rates = []
    for sigma in sigmas:
        approx = f.compose(sigma)
        worst = 0.0
        for gen in s.generators:
            worst = max(worst, gauge(t_disk, subtract(approx(gen), gen)))
        rates.append(worst)
    threshold = 1e-2
    slack = 1e-12
    nonincreasing = all(rates[i + 1] <= rates[i] + slack
                        for i in range(len(rates) - 1))
    converged = nonincreasing and bool(rates) and rates[-1] <= threshold
    bound_ok = None
    if modulus is not None:
        bound_ok = all(
            r <= modulus * math.pi / (n + 1.0) + slack
            for n, r in enumerate(rates, start=1)
        )
    return RateReport(tuple(rates), threshold, nonincreasing, converged, bound_ok)


# ---------------------------------------------------------------------------
# linear homotopies
# ---------------------------------------------------------------------------

def chebyshev_grid(n=65):
    """Chebyshev-Lobatto points on [0, 1], increasing and exactly symmetric.

    Contains 0 and 1 exactly, and 0.5 when n is odd; the second half mirrors
    the first so the grid is symmetric to the last bit.
    """
    if n < 2:
        raise ValueError("need at least the two endpoints")
    half = [0.5 * (1.0 - math.cos(math.pi * k / (n - 1)))
            for k in range((n + 1) // 2)]
    if n % 2 == 1:
        half[-1] = 0.5
    mirrored = [1.0 - t for t in reversed(half[: n // 2])]
    return tuple(half + mirrored)


@dataclass(frozen=True)
class HomotopyCertificate:
    t_grid: tuple
    per_t: tuple  # RadiusEstimate per grid point
    segment_bounds: tuple  # one bound per grid interval
    sup_bound: float
    verdict: str

    def as_dict(self):
        return {
            "t_grid": list(self.t_grid),
            "per_t_upper": [e.upper for e in self.per_t],
            "segment_bounds": list(self.segment_bounds),
            "sup_bound": self.sup_bound,
            "verdict": self.verdict,
        }


def _homotopy_coefficients(h0, h1, s):
    """Per-pair quadratic coefficients of t -> omega_{h_t}(x, y).

    With delta = h1 - h0:
      C0 = omega_{h0}(x, y)
      C1 = delta(xy) - delta(x) h0(y) - h0(x) delta(y)
      C2 = -delta(x) delta(y)
    """
    gens = s.generators
    delta = h1.subtract(h0)
    h0_img = [h0(x) for x in gens]
    d_img = [delta(x) for x in gens]
    coeffs = []
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            xy = multiply(x, y)
            c0 = omega(h0, xy, h0_img[i], h0_img[j])
            c1 = subtract(subtract(delta(xy), multiply(d_img[i], h0_img[j])),
                          multiply(h0_img[i], d_img[j]))
            c2 = algebra.scale(-1.0, multiply(d_img[i], d_img[j]))
            coeffs.append((c0, c1, c2))
    return coeffs


def _scalar_quadratic_sup(c0, c1, c2, a, b):
    """Exact sup of |c0 + c1 t + c2 t^2| over [a, b] for complex coefficients.

    |c(t)|^2 is a real quartic; its maximum sits at an endpoint or a real
    critical point inside the interval.
    """
    p = np.polynomial.polynomial.Polynomial((c0, c1, c2))
    sq = np.array([
        abs(c0) ** 2,
        2 * (c0 * np.conj(c1)).real,
        abs(c1) ** 2 + 2 * (c0 * np.conj(c2)).real,
        2 * (c1 * np.conj(c2)).real,
        abs(c2) ** 2,
    ])
    deriv = np.array([sq[1], 2 * sq[2], 3 * sq[3], 4 * sq[4]])
    candidates = [a, b]
    if np.any(deriv != 0.0):
        for root in np.roots(deriv[::-1]):
            if abs(root.imag) < 1e-12 and a <= root.real <= b:
                candidates.append(float(root.real))
    return max(abs(p(t)) for t in candidates)


def _segment_bound(coeffs, coeff_norms, a, b, anchor_norms):
    """Upper bound for sup over [a, b] of the curvature radius.

    Scalar targets (``coeff_norms`` None) get the exact quartic maximum;
    otherwise the level-one norm bound around the nearer anchor, padded by
    the exact coefficient norms |t - s| C1 + |t^2 - s^2| C2.
    """
    if coeff_norms is None:
        return max(
            _scalar_quadratic_sup(vec(c0)[0], vec(c1)[0], vec(c2)[0], a, b)
            for c0, c1, c2 in coeffs
        )
    bound = 0.0
    for idx, (n1, n2) in enumerate(coeff_norms):
        from_a = anchor_norms[0][idx] + (b - a) * n1 + (b * b - a * a) * n2
        from_b = anchor_norms[1][idx] + (b - a) * n1 + (b * b - a * a) * n2
        bound = max(bound, min(from_a, from_b))
    return bound


def linear_homotopy_certificate(h0, h1, s, t_points=None, depth=6):
    """Certified sup over [0, 1] of |h_t|_omega along the linear homotopy.

    Grid points get full radius estimates; between grid points the quadratic
    coefficient norms control the variation, so the certificate covers the
    whole interval, not just the grid.  At t = 0 the entries are C0, which
    is curvature(h0, s) to the bit; t = 1 goes through the plain curvature
    path, so both endpoints agree bit-for-bit with curvature_radius.
    """
    if (h0.source, h0.target) != (h1.source, h1.target):
        raise DescriptorMismatch(h0.source, h1.source, "homotopy endpoints")
    s = bounded_set(s)
    grid = tuple(t_points) if t_points is not None else chebyshev_grid()
    coeffs = _homotopy_coefficients(h0, h1, s)
    coeff_norms = (None if algebra.linear_dim(h0.target) == 1
                   else [(norm(c1), norm(c2)) for _, c1, c2 in coeffs])

    per_t = []
    per_t_entry_norms = []
    for t in grid:
        if t == 0.0:
            entries = tuple(c0 for c0, _, _ in coeffs)
        elif t == 1.0:
            entries = curvature(h1, s).set.generators
        else:
            entries = tuple(
                algebra.add(c0, algebra.add(algebra.scale(t, c1),
                                            algebra.scale(t * t, c2)))
                for c0, c1, c2 in coeffs
            )
        per_t.append(jsr_estimate(bounded_set(entries), depth, 1e-6))
        per_t_entry_norms.append([norm(e) for e in entries])

    segment_bounds = []
    for k in range(len(grid) - 1):
        segment_bounds.append(
            _segment_bound(coeffs, coeff_norms, grid[k], grid[k + 1],
                           (per_t_entry_norms[k], per_t_entry_norms[k + 1]))
        )
    sup_bound = max(
        max(e.upper for e in per_t),
        max(segment_bounds) if segment_bounds else 0.0,
    )
    verdict = PASS if sup_bound < 1.0 else FAIL
    return HomotopyCertificate(grid, tuple(per_t),
                               tuple(segment_bounds), sup_bound, verdict)


# ---------------------------------------------------------------------------
# the combined apple check
# ---------------------------------------------------------------------------

def apple_certificate(f, sigmas, h, s, depth=6, t_points=None, sampler=None,
                      tol=1e-2):
    """Hypothesis check for "isoradial + approximation implies apple".

    Stages: the isoradial certificate for f, the smoothing rates of the
    sigmas on the set the homotopy argument needs, and the linear homotopy
    between h and f o sigma_N o h for the best smoothing stage.  A passing
    verdict asserts the hypotheses were verified at desk scale, never the
    infinitary conclusion itself.
    """
    s = bounded_set(s)
    iso = isoradial_certificate(f, sampler or SamplerConfig(), depth=depth, tol=tol)

    h_mult = is_approximately_multiplicative(h, s, depth)

    # the set the proof pushes through the sigmas: h(S u S.S) and h(S) h(S)
    h_img = [h(x) for x in s.generators]
    pushed = list(h_img)
    for x in s.generators:
        for y in s.generators:
            pushed.append(h(multiply(x, y)))
    for a in h_img:
        for b in h_img:
            pushed.append(multiply(a, b))
    rates = sigma_approximation_check(f, sigmas, bounded_set(pushed),
                                      NormBall(1.0))

    homotopy = None
    stages_pass = (iso.verdict == PASS and rates.converged and h_mult == YES)
    if stages_pass:
        best = int(np.argmin(rates.rates))
        smoothed = f.compose(sigmas[best]).compose(h)
        homotopy = linear_homotopy_certificate(h, smoothed, s, t_points, depth)
        verdict = PASS if homotopy.verdict == PASS else FAIL
    elif iso.verdict == FAIL or h_mult == NO:
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
    return {
        "isoradial": iso,
        "h_approximately_multiplicative": h_mult,
        "sigma_rates": rates,
        "homotopy": homotopy,
        "verdict": verdict,
    }
