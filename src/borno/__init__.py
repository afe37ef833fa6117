"""borno: certified spectral-radius computation for bounded sets in model
algebras, isoradiality and approximate-multiplicativity certificates, and an
exact engine for Cauchy sequences, completeness, completion, and finite-rank
operator approximation in weighted sequence spaces.

``import borno`` loads none of its modules: each exported name is looked up
in its module on access (PEP 562), so a sequence-space user never loads
numpy.  The name is not cached here, so a rebinding in the module shows.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": """AlgebraElement BoundedSet DirectSum FiniteHull
        GridFunctionAlgebra GridSpec MatrixAlgebra NormBall Scaled SumDisk
        bounded_set gauge matrix_element multiply norm
        spectral_radius_single""",
    "jsr": """HullCertificate RadiusEstimate check_specrad_identities
        direct_union_liminf jsr_estimate jsr_grid_max kronecker_bound_check
        submultiplicative_hull""",
    "maps": "Homomorphism LinearMap check_multiplicative",
    "isoradial": """CertificateReport DensityReport SamplerConfig
        isoradial_certificate local_density_probe""",
    "fixtures": "fixture_catalog",
    "approx_mult": """HomotopyCertificate apple_certificate curvature
        curvature_radius is_approximately_multiplicative
        linear_homotopy_certificate sigma_approximation_check""",
    "closedforms": "CoordForm DiskForm EpsForm WeightForm",
    "seqspace": """CoordinateMap GeoTerm ModelSpace SeqVector
        SequenceModel WindowTerm cauchy_check completeness_check
        completion_construct convergence_check extend_map_to_completion
        gauge_value metrizability_scalars strengthened_series_check""",
    "finrank": """CompactSetModel OperatorFamily OperatorModel
        local_approx_property_check pointwise_vs_uniform_check
        uniform_convergence_on_set""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                   name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
