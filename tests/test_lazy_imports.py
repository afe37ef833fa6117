"""A process loads only the modules its work runs: ``import borno`` loads
none, a sequence-space or finite-rank command never loads numpy, and a jsr
command never loads the sequence-space or finite-rank engines."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import borno
from borno.cli import builtin_instances

# the names the package exports, by the module that defines them
EXPORTS = {
    "algebra": ["AlgebraElement", "BoundedSet", "DirectSum", "FiniteHull",
                "GridFunctionAlgebra", "GridSpec", "MatrixAlgebra", "NormBall",
                "Scaled", "SumDisk", "bounded_set", "gauge", "matrix_element",
                "multiply", "norm", "spectral_radius_single"],
    "jsr": ["HullCertificate", "RadiusEstimate", "check_specrad_identities",
            "direct_union_liminf", "jsr_estimate", "jsr_grid_max",
            "kronecker_bound_check", "submultiplicative_hull"],
    "maps": ["Homomorphism", "LinearMap", "check_multiplicative"],
    "isoradial": ["CertificateReport", "DensityReport", "SamplerConfig",
                  "isoradial_certificate", "local_density_probe"],
    "fixtures": ["fixture_catalog"],
    "approx_mult": ["HomotopyCertificate", "apple_certificate", "curvature",
                    "curvature_radius", "is_approximately_multiplicative",
                    "linear_homotopy_certificate",
                    "sigma_approximation_check"],
    "closedforms": ["CoordForm", "DiskForm", "EpsForm", "WeightForm"],
    "seqspace": ["CoordinateMap", "GeoTerm", "ModelSpace", "SeqVector",
                 "SequenceModel", "WindowTerm", "cauchy_check",
                 "completeness_check", "completion_construct",
                 "convergence_check", "extend_map_to_completion",
                 "gauge_value", "metrizability_scalars",
                 "strengthened_series_check"],
    "finrank": ["CompactSetModel", "OperatorFamily",
                "OperatorModel", "local_approx_property_check",
                "pointwise_vs_uniform_check", "uniform_convergence_on_set"],
}

# prints the exit code (or -), whether numpy is loaded, and the loaded borno
# modules, after running ``{body}`` in a fresh interpreter
PROBE = """\
import json, sys
code = '-'
{body}
print(json.dumps([code, 'numpy' in sys.modules,
                  sorted(m for m in sys.modules if m.startswith('borno'))]))
"""


def probe(body):
    """(exit code, numpy loaded, loaded borno modules) after ``body``."""
    src = os.path.dirname(os.path.dirname(borno.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_builtin(name, tmp_path):
    """``probe`` of one built-in instance run by the CLI from its file."""
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    path.write_text(json.dumps(builtin_instances()[name]))
    return probe("from borno.cli import main\n"
                 f"code = main(['run', '--input', {str(path)!r},"
                 f" '--out', {str(out)!r}])")


def test_import_loads_no_module_and_no_numpy():
    assert probe("import borno") == ["-", False, ["borno"]]


@pytest.mark.parametrize("name", ["cauchy-geometric", "completion-demo"])
def test_sequence_instances_never_load_numpy(name, tmp_path):
    code, numpy_loaded, modules = run_builtin(name, tmp_path)
    assert code == 0 and not numpy_loaded
    assert "borno.algebra" not in modules and "borno.seqspace" in modules


def test_approx_instance_never_loads_numpy(tmp_path):
    code, numpy_loaded, modules = run_builtin("approx-truncation", tmp_path)
    assert code == 0 and not numpy_loaded
    assert "borno.algebra" not in modules and "borno.finrank" in modules


@pytest.mark.parametrize("name", ["cauchy-geometric", "completion-demo"])
def test_sequence_fixtures_build_without_numpy(name, tmp_path):
    out = tmp_path / f"{name}.json"
    code, numpy_loaded, modules = probe(
        f"from borno.cli import main\ncode = main(['fixture', {name!r},"
        f" '--out', {str(out)!r}])")
    assert code == 0 and not numpy_loaded
    assert "borno.algebra" not in modules
    assert json.loads(out.read_text()) == builtin_instances()[name]


def test_jsr_instance_loads_no_sequence_or_map_engine(tmp_path):
    code, numpy_loaded, modules = run_builtin("golden-pair", tmp_path)
    assert code == 0 and numpy_loaded and "borno.jsr" in modules
    unused = {"seqspace", "closedforms", "finrank", "isoradial",
              "approx_mult", "fixtures"}
    assert not unused & {m.removeprefix("borno.") for m in modules}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_module_objects(module):
    defining = importlib.import_module(f"borno.{module}")
    for name in EXPORTS[module]:
        assert getattr(borno, name) is getattr(defining, name)
        assert name in dir(borno)


def test_star_import_gives_exactly_the_exports():
    star = {}
    exec("from borno import *", star)
    assert sorted(n for n in star if n != "__builtins__") == sorted(
        n for names in EXPORTS.values() for n in names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'jsr_estimator'"):
        borno.jsr_estimator  # noqa: B018
    assert not hasattr(borno, "serialize_everything")
