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
    NormBall,
    bounded_set,
    gauges,
    norms,
    products,
    unvec,
)
from .errors import DescriptorMismatch
from .jsr import jsr_estimate
from .maps import curvature_rows
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

def _pairs(desc, a, b):
    """The products a_i b_j of coordinate rows, over all pairs in pair order."""
    return products(desc, a[:, None], b).reshape(len(a) * len(b), -1)


def _pair_curvature(g, gens):
    """omega_g over all ordered pairs of the coordinate rows ``gens``."""
    images = g.rows(gens)
    return curvature_rows(g, gens[:, None], gens, images[:, None], images)


def curvature(g, s):
    """omega_g over all ordered generator pairs of S as a bounded set in pair
    order: generator i * k + j is omega_g(x_i, x_j), for the k generators."""
    s = bounded_set(s)
    if s.descriptor != g.source:
        raise DescriptorMismatch(s.descriptor, g.source, "curvature set")
    return bounded_set([unvec(g.target, row)
                        for row in _pair_curvature(g, s.rows)])


def curvature_radius(g, s, depth=6):
    return jsr_estimate(curvature(g, s), depth, 1e-6)


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


def sigma_approximation_check(f, sigmas, s, t_disk, modulus=None):
    """Rates eps_n = max_s gauge(T, (f o sigma_n - id)(s)) over the generators.

    Instantiates uniform convergence on the set: (f_n - id)(S) inside eps_n T,
    converged when the rates do not increase and the last is at most 1e-2.
    When a Lipschitz ``modulus`` is declared for the family, the classical
    smoothing bound eps_n <= modulus * pi / (n + 1) is verified as well.
    """
    s = bounded_set(s)
    gens = s.rows
    rates = [max([0.0] + gauges(t_disk, s.descriptor,
                                f.compose(sigma).rows(gens) - gens).tolist())
             for sigma in sigmas]
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


def _homotopy_coefficients(h0, h1, gens):
    """Per-pair quadratic coefficients of t -> omega_{h_t}(x, y) over the
    coordinate rows ``gens``, as three ``(pairs, L)`` arrays.

    With delta = h1 - h0:
      C0 = omega_{h0}(x, y)
      C1 = delta(xy) - delta(x) h0(y) - h0(x) delta(y)
      C2 = -delta(x) delta(y)
    """
    delta, target = h1.subtract(h0), h0.target
    h0_img, d_img = h0.rows(gens), delta.rows(gens)
    c1 = (delta.rows(_pairs(h0.source, gens, gens))
          - _pairs(target, d_img, h0_img) - _pairs(target, h0_img, d_img))
    c2 = -1.0 * _pairs(target, d_img, d_img)
    return curvature_rows(h0, gens[:, None], gens, h0_img[:, None], h0_img), c1, c2


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
        return max(_scalar_quadratic_sup(c0, c1, c2, a, b)
                   for c0, c1, c2 in zip(*(c[:, 0] for c in coeffs)))
    n1, n2 = coeff_norms
    from_a = anchor_norms[0] + (b - a) * n1 + (b * b - a * a) * n2
    from_b = anchor_norms[1] + (b - a) * n1 + (b * b - a * a) * n2
    return max(0.0, float(np.minimum(from_a, from_b).max()))


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
    gens = s.rows
    c0, c1, c2 = coeffs = _homotopy_coefficients(h0, h1, gens)
    coeff_norms = (None if algebra.linear_dim(h0.target) == 1
                   else norms(h0.target, np.concatenate([c1, c2])).reshape(2, -1))

    per_t = []
    per_t_entry_norms = []
    for t in grid:
        if t == 0.0:
            rows = c0
        elif t == 1.0:
            rows = _pair_curvature(h1, gens)
        else:
            rows = c0 + (t * c1 + (t * t) * c2)
        entries = bounded_set([unvec(h0.target, row) for row in rows])
        per_t.append(jsr_estimate(entries, depth, 1e-6))
        per_t_entry_norms.append(norms(h0.target, rows))

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
    gens = s.rows
    h_img = h.rows(gens)
    pushed = np.concatenate([h_img, h.rows(_pairs(s.descriptor, gens, gens)),
                             _pairs(h.target, h_img, h_img)])
    rates = sigma_approximation_check(
        f, sigmas, bounded_set([unvec(h.target, row) for row in pushed]), NormBall(1.0))

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
