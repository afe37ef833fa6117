"""JSON encodings for toolkit objects.

Complex entries are two-element arrays [re, im]; matrices are row-major
arrays of rows; descriptors are tagged objects.  Rationals travel as "p/q"
strings.  Bit-exactness across platforms is not required; reports carry
floats at full repr precision (17 significant digits).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

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
    components,
    linear_dim,
    vec,
)
from .closedforms import EpsForm, WeightForm  # WeightForm re-exported for schema users
from .errors import SchemaError
from .maps import Homomorphism, LinearMap
from .seqspace import (
    DiskForm,
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    WindowTerm,
)

SCHEMA = "borno/2"


def _req(obj, key, context):
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    if key not in obj:
        raise SchemaError(f"{context}: missing field {key!r}")
    return obj[key]


def _check_fields(obj, allowed, context):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"{context}: unknown fields {sorted(unknown)}")


# ---------------------------------------------------------------------------
# descriptors and elements
# ---------------------------------------------------------------------------

def descriptor_to_json(desc):
    if isinstance(desc, MatrixAlgebra):
        return {"kind": "matrix", "dim": desc.dim,
                "norm": "op2" if desc.norm_kind == "op2" else "maxrow"}
    if isinstance(desc, DirectSum):
        return {"kind": "direct_sum",
                "summands": [descriptor_to_json(s) for s in desc.summands]}
    if isinstance(desc, GridFunctionAlgebra):
        return {"kind": "grid",
                "points": list(desc.grid.points),
                "fiber": descriptor_to_json(desc.fiber)}
    raise TypeError(f"not a descriptor: {desc!r}")


def descriptor_from_json(obj):
    kind = _req(obj, "kind", "descriptor")
    if kind == "matrix":
        _check_fields(obj, {"kind", "dim", "norm"}, "matrix descriptor")
        return MatrixAlgebra(int(_req(obj, "dim", "matrix descriptor")),
                             obj.get("norm", "op2"))
    if kind == "direct_sum":
        _check_fields(obj, {"kind", "summands"}, "direct-sum descriptor")
        return DirectSum(tuple(descriptor_from_json(s)
                               for s in _req(obj, "summands", "direct sum")))
    if kind == "grid":
        _check_fields(obj, {"kind", "points", "fiber"}, "grid descriptor")
        grid = GridSpec(tuple(_req(obj, "points", "grid")))
        return GridFunctionAlgebra(grid,
                                   descriptor_from_json(_req(obj, "fiber",
                                                             "grid")))
    raise SchemaError(f"unknown descriptor kind {kind!r}")


def _complex_to_json(z):
    return [float(z.real), float(z.imag)]


def _complex_from_json(v, context):
    if isinstance(v, (int, float)):
        return complex(v, 0.0)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise SchemaError(f"{context}: complex entries are [re, im] pairs")


def _matrix_to_json(mat):
    return [[_complex_to_json(z) for z in row] for row in mat]


def _matrix_from_json(rows, context):
    return np.array([[_complex_from_json(v, context) for v in row]
                     for row in rows], dtype=np.complex128)


def _coords_to_json(desc, coords):
    if isinstance(desc, MatrixAlgebra):
        return _matrix_to_json(coords.reshape(desc.dim, desc.dim))
    parts = components(desc)
    cuts = np.cumsum([linear_dim(p) for p in parts])[:-1]
    return [_coords_to_json(p, c) for p, c in zip(parts, np.split(coords, cuts))]


def element_data_to_json(element):
    return _coords_to_json(element.descriptor, vec(element))


def _data_from_json(desc, data, context):
    if isinstance(desc, MatrixAlgebra):
        return _matrix_from_json(data, context)
    parts = components(desc)
    if not isinstance(data, list) or len(data) != len(parts):
        raise SchemaError(f"{context}: component count mismatch")
    return [_data_from_json(s, d, context) for s, d in zip(parts, data)]


def element_data_from_json(desc, data, context="element"):
    return AlgebraElement(desc, _data_from_json(desc, data, context))


def element_to_json(element):
    return {"descriptor": descriptor_to_json(element.descriptor),
            "data": element_data_to_json(element)}


def element_from_json(obj, context="element"):
    _check_fields(obj, {"descriptor", "data"}, context)
    desc = descriptor_from_json(_req(obj, "descriptor", context))
    return element_data_from_json(desc, _req(obj, "data", context), context)


def bounded_set_to_json(s):
    return {"descriptor": descriptor_to_json(s.descriptor),
            "generators": [element_data_to_json(g) for g in s.generators]}


def bounded_set_from_json(obj, context="bounded set"):
    _check_fields(obj, {"descriptor", "generators"}, context)
    desc = descriptor_from_json(_req(obj, "descriptor", context))
    gens = [element_data_from_json(desc, g, context)
            for g in _req(obj, "generators", context)]
    if not gens:
        raise SchemaError(f"{context}: needs at least one generator")
    return BoundedSet(tuple(gens))


# ---------------------------------------------------------------------------
# disks
# ---------------------------------------------------------------------------

def disk_to_json(disk):
    if isinstance(disk, NormBall):
        return {"kind": "norm_ball", "radius": disk.radius}
    if isinstance(disk, FiniteHull):
        return {"kind": "finite_hull",
                "descriptor": descriptor_to_json(
                    disk.generators[0].descriptor),
                "generators": [element_data_to_json(g)
                               for g in disk.generators]}
    if isinstance(disk, Scaled):
        return {"kind": "scaled", "factor": disk.factor,
                "inner": disk_to_json(disk.inner)}
    return {"kind": "sum", "left": disk_to_json(disk.left),
            "right": disk_to_json(disk.right)}


def disk_from_json(obj, context="disk"):
    kind = _req(obj, "kind", context)
    if kind == "norm_ball":
        _check_fields(obj, {"kind", "radius"}, context)
        return NormBall(float(obj.get("radius", 1.0)))
    if kind == "finite_hull":
        _check_fields(obj, {"kind", "descriptor", "generators"}, context)
        desc = descriptor_from_json(_req(obj, "descriptor", context))
        return FiniteHull(tuple(
            element_data_from_json(desc, g, context)
            for g in _req(obj, "generators", context)))
    if kind == "scaled":
        _check_fields(obj, {"kind", "factor", "inner"}, context)
        return Scaled(float(_req(obj, "factor", context)),
                      disk_from_json(_req(obj, "inner", context), context))
    if kind == "sum":
        _check_fields(obj, {"kind", "left", "right"}, context)
        return SumDisk(disk_from_json(_req(obj, "left", context), context),
                       disk_from_json(_req(obj, "right", context), context))
    raise SchemaError(f"{context}: unknown disk kind {kind!r}")


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def map_to_json(f):
    return {"source": descriptor_to_json(f.source),
            "target": descriptor_to_json(f.target),
            "basis_action": _matrix_to_json(f.action)}


def map_from_json(obj, homomorphism=True, context="map"):
    _check_fields(obj, {"source", "target", "basis_action"}, context)
    source = descriptor_from_json(_req(obj, "source", context))
    target = descriptor_from_json(_req(obj, "target", context))
    action = _matrix_from_json(_req(obj, "basis_action", context), context)
    cls = Homomorphism if homomorphism else LinearMap
    return cls(source, target, action)


# ---------------------------------------------------------------------------
# sequence-space objects (rationals as "p/q" strings)
# ---------------------------------------------------------------------------

def _frac_to_json(x):
    return str(Fraction(x))


def _frac_from_json(v, context):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{context}: bad rational {v!r}") from exc


def vector_to_json(v):
    return {"prefix": {str(k): _frac_to_json(x) for k, x in v.prefix.items()},
            "tails": [[_frac_to_json(a), _frac_to_json(s)] for a, s in v.tails],
            "tail_start": v.tail_start}


def vector_from_json(obj, context="vector"):
    _check_fields(obj, {"prefix", "tails", "tail_start"}, context)
    prefix = {int(k): _frac_from_json(x, context)
              for k, x in obj.get("prefix", {}).items()}
    tails = [(_frac_from_json(a, context), _frac_from_json(s, context))
             for a, s in obj.get("tails", [])]
    return SeqVector(prefix, tuple(tails), int(obj.get("tail_start", 0)))


def model_space_to_json(space):
    return {"disks": [d.as_dict() for d in space.disks],
            "tails_admitted": space.tails_admitted}


def model_space_from_json(obj, context="space"):
    _check_fields(obj, {"disks", "tails_admitted"}, context)
    disks = tuple(DiskForm.from_dict(d) for d in _req(obj, "disks", context))
    return ModelSpace(disks, bool(obj.get("tails_admitted", True)))


def sequence_to_json(model):
    return {
        "prefix": [vector_to_json(v) for v in model.prefix],
        "geo_terms": [
            {"coeff": _frac_to_json(g.coeff), "ratio": _frac_to_json(g.ratio),
             "power": g.power, "vector": vector_to_json(g.vector)}
            for g in model.geo_terms],
        "window_terms": [
            {"coeff": _frac_to_json(t.coeff), "ratio": _frac_to_json(t.ratio),
             "stride": t.stride, "offset": t.offset,
             "vector": vector_to_json(t.vector)}
            for t in model.window_terms],
    }


def sequence_from_json(obj, context="sequence"):
    _check_fields(obj, {"prefix", "geo_terms", "window_terms"}, context)
    prefix = tuple(vector_from_json(v, context)
                   for v in obj.get("prefix", []))
    geo = tuple(GeoTerm(_frac_from_json(g["coeff"], context),
                        _frac_from_json(g["ratio"], context),
                        vector_from_json(g["vector"], context),
                        int(g.get("power", 0)))
                for g in obj.get("geo_terms", []))
    win = tuple(WindowTerm(_frac_from_json(t["coeff"], context),
                           vector_from_json(t["vector"], context),
                           int(t.get("stride", 1)), int(t.get("offset", 0)),
                           _frac_from_json(t.get("ratio", "1"), context))
                for t in obj.get("window_terms", []))
    return SequenceModel(prefix, geo, win)


def eps_from_json(obj, context="eps"):
    try:
        return EpsForm.from_dict(obj)
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical hashing
# ---------------------------------------------------------------------------

def canonical_json(obj):
    """Sorted-keys compact encoding used for instance digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def instance_digest(instance):
    return hashlib.sha256(canonical_json(instance).encode()).hexdigest()
