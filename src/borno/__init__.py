"""borno: certified spectral-radius computation for bounded sets in model
algebras, isoradiality and approximate-multiplicativity certificates, and an
exact engine for Cauchy sequences, completeness, completion, and finite-rank
operator approximation in weighted sequence spaces."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    BoundedSet,
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
    matrix_element,
    multiply,
    norm,
    spectral_radius_single,
)
from .jsr import (
    HullCertificate,
    RadiusEstimate,
    check_specrad_identities,
    direct_union_liminf,
    jsr_estimate,
    jsr_grid_max,
    kronecker_bound_check,
    submultiplicative_hull,
)
from .maps import Homomorphism, LinearMap, check_multiplicative
from .isoradial import (
    CertificateReport,
    DensityReport,
    SamplerConfig,
    isoradial_certificate,
    local_density_probe,
)
from .fixtures import fixture_catalog
from .approx_mult import (
    HomotopyCertificate,
    apple_certificate,
    curvature,
    curvature_radius,
    is_approximately_multiplicative,
    linear_homotopy_certificate,
    sigma_approximation_check,
)
from .closedforms import CoordForm, EpsForm, WeightForm
from .seqspace import (
    CoordinateMap,
    DiskForm,
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    WindowTerm,
    cauchy_check,
    completeness_check,
    completion_construct,
    convergence_check,
    extend_map_to_completion,
    gauge_value,
    metrizability_scalars,
    strengthened_series_check,
)
from .finrank import (
    CompactSetModel,
    GaugeModel,
    OperatorFamily,
    OperatorModel,
    local_approx_property_check,
    pointwise_vs_uniform_check,
    uniform_convergence_on_set,
)
