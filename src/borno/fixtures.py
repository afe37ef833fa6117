"""Built-in model maps: function-algebra embeddings, matrix towers, and the
negative control, together with the smoothing families used by the
approximation certificates.

The function-algebra fixtures realize dense-subalgebra embeddings at desk
scale as pullbacks along point maps, which are exactly multiplicative.  The
trigonometric structure (interpolation, Fejer means) lives in the linear
smoothing and density maps, where no multiplicativity is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    GridFunctionAlgebra,
    GridSpec,
    MatrixAlgebra,
    matrix_element,
    unvec,
)
from .errors import SchemaError
from .jsr import pad_to
from .maps import Homomorphism, LinearMap

SCALAR = MatrixAlgebra(1)


def scalar_grid_algebra(grid):
    return GridFunctionAlgebra(grid, SCALAR)


grid_function = unvec  # a scalar grid's coordinates are its values


# ---------------------------------------------------------------------------
# pullbacks along point maps (always exactly multiplicative)
# ---------------------------------------------------------------------------

def pullback_map(source_desc, target_desc, point_map):
    """f(x)(t) = x(point_map(t)), as a 0/1 selection on coordinates."""
    m_t = len(target_desc.grid.points)
    action = np.zeros((m_t, len(source_desc.grid.points)))
    action[range(m_t), [point_map(t_idx) for t_idx in range(m_t)]] = 1.0
    return Homomorphism(source_desc, target_desc, action)


def corner_embedding(k, n, norm_kind="op2"):
    """M_k into the top-left corner of M_n, as a 0/1 selection on coordinates."""
    action = np.zeros((n * n, k * k))
    action[[i * n + j for i in range(k) for j in range(k)], range(k * k)] = 1.0
    return Homomorphism(MatrixAlgebra(k, norm_kind), MatrixAlgebra(n, norm_kind),
                        action)


def corner_compression(n, k, norm_kind="op2"):
    """Compression of M_n onto its top-left M_k corner, padded back into M_n."""
    desc = MatrixAlgebra(n, norm_kind)
    corner = np.zeros((n, n))
    corner[:k, :k] = 1.0
    return LinearMap(desc, desc, np.diag(corner.reshape(-1)))


# ---------------------------------------------------------------------------
# trigonometric machinery on uniform circle grids
# ---------------------------------------------------------------------------

def fourier_synthesis_matrix(degree, angles):
    """Evaluation of a degree <= d trig polynomial at the given angles.

    Columns are indexed by frequency -d..d; entry (k, f) = exp(i f angle_k).
    """
    freqs = np.arange(-degree, degree + 1)
    angles = np.asarray(angles, dtype=np.float64)
    return np.exp(1j * np.outer(angles, freqs))


def fejer_matrix(m, order):
    """Fejer smoothing of order n acting on values on the uniform m-grid.

    Diagonal in the discrete Fourier basis with weights max(0, 1-|f|/(n+1)).
    """
    freqs = np.fft.fftfreq(m, d=1.0 / m)  # 0, 1, ..., -1 convention
    weights = np.maximum(0.0, 1.0 - np.abs(freqs) / (order + 1.0))
    dft = np.fft.fft(np.eye(m), axis=0)
    idft = np.conj(dft).T / m
    return idft @ (weights[:, None] * dft)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapFixture:
    name: str
    map: LinearMap
    expected: str  # "pass" or "fail" under the isoradial certificate
    sigmas: tuple = ()
    family: tuple = ()  # declared bounded family in the target, for rates
    modulus: object = None  # Lipschitz constant wrt the grid metric, if declared


def trig_grid_fixture():
    """Coarse circle-grid functions inside a finer grid, by nearest-point pullback.

    The coarse grid has 2d+1 = 7 points for degree d = 3 (the sample count
    that determines a degree-d trig polynomial); the fine grid doubles it,
    satisfying the m >= 4d rule of thumb.
    """
    source = scalar_grid_algebra(GridSpec.circle(7))
    target = scalar_grid_algebra(GridSpec.circle(14))

    def nearest(t_idx):
        return (t_idx + 1) // 2 % 7

    return MapFixture(
        name="trig-grid-d3",
        map=pullback_map(source, target, nearest),
        expected="pass",
    )


def matrix_tower_fixture():
    """M_2 in the top-left corner of M_6: norms and eigenvalues are kept."""
    return MapFixture(
        name="matrix-tower-2-6",
        map=corner_embedding(2, 6),
        expected="pass",
    )


def interval_restriction_fixture():
    """Negative control: functions on [0, 2] restricted to the [0, 1] part.

    Restriction is multiplicative, but the sup over [0, 2] of the coordinate
    function is twice its sup over [0, 1], so spectral radii are not preserved.
    """
    source = scalar_grid_algebra(GridSpec.interval(0.0, 2.0, 9))
    target = scalar_grid_algebra(GridSpec.interval(0.0, 1.0, 5))
    points = source.grid.points  # every target point is a source point
    hom = pullback_map(source, target,
                       lambda t_idx: points.index(target.grid.points[t_idx]))
    return MapFixture(
        name="interval-restriction",
        map=hom,
        expected="fail",
    )


def trig_fejer_fixture():
    """Half-step rotation pullback on the 16-point circle grid plus Fejer maps.

    f relabels grid values along the rotated grid (an exact isomorphism); the
    smoothing maps sigma_n, n = 1..64, are chosen so that f o sigma_n is the
    order-n Fejer mean, which converges to the identity on the declared
    Lipschitz family.
    """
    m = 16
    amplitude = 0.5
    half_step = math.pi / m
    fine = GridSpec.circle(m)
    rotated = GridSpec.from_points(
        tuple(a + half_step for a in fine.points),
        lambda a, b: min(abs(a - b) % (2 * math.pi),
                         2 * math.pi - abs(a - b) % (2 * math.pi)),
    )
    source = scalar_grid_algebra(rotated)
    target = scalar_grid_algebra(fine)
    hom = Homomorphism(source, target, np.eye(m))
    sigmas = tuple(
        LinearMap(target, source, fejer_matrix(m, n)) for n in range(1, 65)
    )
    angles = np.array(fine.points)
    family = (
        grid_function(target, amplitude * np.sin(angles)),
        grid_function(target, amplitude * np.cos(angles)),
    )
    return MapFixture(
        name="trig-fejer",
        map=hom,
        expected="pass",
        sigmas=sigmas,
        family=family,
        modulus=amplitude,  # |sin|, |cos| are 1-Lipschitz; family scales them
    )


def tower_compression_fixture():
    """Identity on M_8 with corner compressions of ranks 1..8 as the
    smoothing family.

    The family is supported in the top-left 4 x 4 corner, so the rates vanish
    as soon as the compression rank reaches 4.
    """
    hom = Homomorphism.identity(MatrixAlgebra(8))
    sigmas = tuple(corner_compression(8, k) for k in range(1, 9))
    rng = np.random.default_rng(0xB00C)
    block = rng.standard_normal((4, 4))
    family = tuple(pad_to(matrix_element(m), 8) for m in (block, np.eye(4)))
    return MapFixture(
        name="tower-compression",
        map=hom,
        expected="pass",
        sigmas=sigmas,
        family=family,
    )


def trig_interpolation_map(degree, points=None):
    """Trig coefficients (frequency -d..d) evaluated on a circle grid.

    With 2d+1 grid points the synthesis matrix is square and invertible, so
    interpolation is exact; with more points it is a strict least-squares
    problem.  The coefficient space is modeled as a scalar grid over the
    frequency labels; the map is linear only and not labeled a homomorphism.
    """
    n_coeff = 2 * degree + 1
    m = points if points is not None else n_coeff
    freq_grid = GridSpec.from_points(
        tuple(float(f) for f in range(-degree, degree + 1)),
        lambda a, b: abs(a - b),
    )
    source = scalar_grid_algebra(freq_grid)
    target = scalar_grid_algebra(GridSpec.circle(m))
    action = fourier_synthesis_matrix(degree, target.grid.points)
    return LinearMap(source, target, action)


# name -> builder, in catalog order; each name is its fixture's ``.name``
FIXTURE_BUILDERS = {
    "trig-grid-d3": trig_grid_fixture,
    "matrix-tower-2-6": matrix_tower_fixture,
    "interval-restriction": interval_restriction_fixture,
    "trig-fejer": trig_fejer_fixture,
    "tower-compression": tower_compression_fixture,
}


def fixture(name):
    """Build the one ready-made fixture called ``name``."""
    if name not in FIXTURE_BUILDERS:
        raise SchemaError(f"unknown fixture {name!r}")
    return FIXTURE_BUILDERS[name]()


def fixture_catalog():
    """Every ready-made fixture, keyed by name."""
    return {name: build() for name, build in FIXTURE_BUILDERS.items()}
