"""The borno/2 format in both directions: instances, model objects, reports.

Complex entries are two-element arrays [re, im]; matrices are row-major
arrays of rows; descriptors are tagged objects.  Rationals travel as "p/q"
strings, and every rational field is read as ``Fraction(str(v))``, so the
JSON number 0.1 is 1/10, not its binary value.  Every object at every level
is read by :func:`fields`, or by :func:`tagged` for a ``kind`` union: a
non-object, a missing required field or any other field is a SchemaError
that names the object's path.  Bit-exactness across platforms is not
required; reports carry floats at full repr precision (17 significant
digits).  Each codec imports the module whose objects it builds or tests
when it runs, so reading a sequence-space instance never loads numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .errors import SchemaError

SCHEMA = "borno/2"


# ---------------------------------------------------------------------------
# the strict reader
# ---------------------------------------------------------------------------

def fields(obj, context, required=(), optional=None):
    """The values of the ``required`` fields of the JSON object ``obj``, then
    of the ``optional`` ones (a dict of their defaults).  A non-object, a
    missing required field or any field in neither is a SchemaError."""
    optional = optional or {}
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{context}: missing field {key!r}")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise SchemaError(f"{context}: unknown fields {sorted(unknown)}")
    return ([obj[k] for k in required]
            + [obj.get(k, d) for k, d in optional.items()])


def tagged(obj, context, kinds):
    """(kind, field values) of an object tagged by its ``kind`` field;
    ``kinds`` maps each kind to its other (required, optional) fields."""
    if isinstance(obj, dict) and "kind" in obj:
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise SchemaError(f"{context}: unknown kind {kind!r}; "
                              f"known: {sorted(kinds)}")
        required, optional = kinds[kind]
        return kind, fields(obj, context, ("kind", *required), optional)[1:]
    return fields(obj, context, ("kind",))  # raises: no object, or no kind


def integer(v, context):
    """A JSON integer (not a boolean)."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{context}: expected an integer, got {v!r}")
    return v


def real(v, context):
    """A finite JSON number, as a float."""
    if isinstance(v, bool) or not (isinstance(v, (int, float))
                                   and math.isfinite(v)):
        raise SchemaError(f"{context}: expected a finite number, got {v!r}")
    return float(v)


def entries(v, context, length=None):
    """(entry, its path) for each entry of a JSON array (of ``length``)."""
    if not isinstance(v, list) or length not in (None, len(v)):
        size = f" of {length} entries" if length else ""
        raise SchemaError(f"{context}: expected an array{size}")
    return [(x, f"{context}[{i}]") for i, x in enumerate(v)]


def _build(make, context, *args, **kwargs):
    """``make(*args, **kwargs)``, with a rejected value reported at its path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# descriptors and elements
# ---------------------------------------------------------------------------

def descriptor_to_json(desc):
    from .algebra import DirectSum, GridFunctionAlgebra, MatrixAlgebra
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


def _grid_points(points, context):
    """The points of a grid descriptor: distinct finite numbers."""
    if not (isinstance(points, list) and all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            and math.isfinite(p) for p in points)):
        raise SchemaError(f"{context}: grid descriptor points must be a list "
                          "of finite numbers")
    if len(set(points)) != len(points):
        raise SchemaError(f"{context}: grid descriptor has a repeated point")
    return tuple(points)


def descriptor_from_json(obj, context="descriptor"):
    from .algebra import DirectSum, GridFunctionAlgebra, GridSpec, MatrixAlgebra
    kind, values = tagged(obj, context, {
        "matrix": (("dim",), {"norm": "op2"}),
        "direct_sum": (("summands",), {}),
        "grid": (("points", "fiber"), {}),
    })
    if kind == "matrix":
        return _build(MatrixAlgebra, context, integer(values[0], context),
                      values[1])
    if kind == "direct_sum":
        return _build(DirectSum, context, tuple(
            descriptor_from_json(s, path)
            for s, path in entries(values[0], f"{context}.summands")))
    points, fiber = values
    return GridFunctionAlgebra(
        _build(GridSpec, context, _grid_points(points, context)),
        descriptor_from_json(fiber, f"{context}.fiber"))


def _complex_to_json(z):
    return [float(z.real), float(z.imag)]


def _complex_from_json(v, context):
    if isinstance(v, list):
        (re, _), (im, _) = entries(v, context, 2)
        return complex(real(re, context), real(im, context))
    return complex(real(v, context), 0.0)


def _matrix_to_json(mat):
    return [[_complex_to_json(z) for z in row] for row in mat]


def _matrix_from_json(rows, context):
    import numpy as np
    return _build(np.array, context,
                  [[_complex_from_json(v, p) for v, p in entries(row, path)]
                   for row, path in entries(rows, context)],
                  dtype=np.complex128)


def _coords_to_json(desc, coords):
    import numpy as np
    from .algebra import MatrixAlgebra, components, linear_dim
    if isinstance(desc, MatrixAlgebra):
        return _matrix_to_json(coords.reshape(desc.dim, desc.dim))
    parts = components(desc)
    cuts = np.cumsum([linear_dim(p) for p in parts])[:-1]
    return [_coords_to_json(p, c) for p, c in zip(parts, np.split(coords, cuts))]


def element_data_to_json(element):
    return _coords_to_json(element.descriptor, element.coords)


def _data_from_json(desc, data, context):
    from .algebra import MatrixAlgebra, components
    if isinstance(desc, MatrixAlgebra):
        return _matrix_from_json(data, context)
    parts = components(desc)
    if not isinstance(data, list) or len(data) != len(parts):
        raise SchemaError(f"{context}: component count mismatch")
    return [_data_from_json(s, d, f"{context}[{i}]")
            for i, (s, d) in enumerate(zip(parts, data))]


def element_data_from_json(desc, data, context="element"):
    from .algebra import AlgebraElement
    return _build(AlgebraElement, context, desc,
                  _data_from_json(desc, data, context))


def element_to_json(element):
    return {"descriptor": descriptor_to_json(element.descriptor),
            "data": element_data_to_json(element)}


def element_from_json(obj, context="element"):
    desc, data = fields(obj, context, ("descriptor", "data"))
    return element_data_from_json(
        descriptor_from_json(desc, f"{context}.descriptor"), data,
        f"{context}.data")


def _family_from_json(family, desc, gens, context):
    desc = descriptor_from_json(desc, f"{context}.descriptor")
    return _build(family, context, tuple(
        element_data_from_json(desc, g, path)
        for g, path in entries(gens, f"{context}.generators")))


def bounded_set_to_json(s):
    return {"descriptor": descriptor_to_json(s.descriptor),
            "generators": [element_data_to_json(g) for g in s.generators]}


def bounded_set_from_json(obj, context="bounded set"):
    from .algebra import BoundedSet
    return _family_from_json(
        BoundedSet, *fields(obj, context, ("descriptor", "generators")), context)


# ---------------------------------------------------------------------------
# disks
# ---------------------------------------------------------------------------

def disk_to_json(disk):
    from .algebra import FiniteHull, NormBall, Scaled
    if isinstance(disk, NormBall):
        return {"kind": "norm_ball", "radius": disk.radius}
    if isinstance(disk, FiniteHull):
        return {"kind": "finite_hull", **bounded_set_to_json(disk)}
    if isinstance(disk, Scaled):
        return {"kind": "scaled", "factor": disk.factor,
                "inner": disk_to_json(disk.inner)}
    return {"kind": "sum", "left": disk_to_json(disk.left),
            "right": disk_to_json(disk.right)}


def disk_from_json(obj, context="disk"):
    from .algebra import FiniteHull, NormBall, Scaled, SumDisk
    kind, values = tagged(obj, context, {
        "norm_ball": ((), {"radius": 1.0}),
        "finite_hull": (("descriptor", "generators"), {}),
        "scaled": (("factor", "inner"), {}),
        "sum": (("left", "right"), {}),
    })
    if kind == "norm_ball":
        return _build(NormBall, context, real(values[0], f"{context}.radius"))
    if kind == "finite_hull":
        return _family_from_json(FiniteHull, *values, context)
    if kind == "scaled":
        factor, inner = values
        return _build(Scaled, context, real(factor, f"{context}.factor"),
                      disk_from_json(inner, f"{context}.inner"))
    left, right = values
    return SumDisk(disk_from_json(left, f"{context}.left"),
                   disk_from_json(right, f"{context}.right"))


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def map_to_json(f):
    return {"source": descriptor_to_json(f.source),
            "target": descriptor_to_json(f.target),
            "basis_action": _matrix_to_json(f.action)}


def map_from_json(obj, homomorphism=True, context="map"):
    from .maps import Homomorphism, LinearMap
    source, target, action = fields(obj, context,
                                    ("source", "target", "basis_action"))
    cls = Homomorphism if homomorphism else LinearMap
    return cls(descriptor_from_json(source, f"{context}.source"),
               descriptor_from_json(target, f"{context}.target"),
               _matrix_from_json(action, f"{context}.basis_action"))


# ---------------------------------------------------------------------------
# closed forms, sequence-space and finite-rank objects, decision reports
# ---------------------------------------------------------------------------

def _frac_to_json(x):
    return str(Fraction(x))


def _frac_from_json(v, context):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{context}: bad rational {v!r}") from exc


def weight_to_json(w):
    return {"coeff": str(w.coeff), "base": str(w.ratio), "power": w.power}


def weight_from_json(obj, context="weight"):
    from .closedforms import WeightForm
    coeff, base, power = fields(obj, context, (),
                                {"coeff": "1", "base": "1", "power": 0})
    return _build(WeightForm, context, _frac_from_json(coeff, context),
                  _frac_from_json(base, context),
                  integer(power, context))


def eps_to_json(eps):
    if eps.kind == "geom":
        return {"kind": "geom", "amp": str(eps.amp), "ratio": str(eps.ratio),
                "level": eps.level}
    return {"kind": "invpoly", "amp": str(eps.amp), "power": eps.power,
            "alpha": str(eps.alpha), "beta": str(eps.beta),
            "level": eps.level}


def eps_from_json(obj, context="eps"):
    from .closedforms import EpsForm
    kind, values = tagged(obj, context, {
        "geom": (("amp", "ratio"), {"level": 0}),
        "invpoly": (("amp", "power"), {"alpha": "1", "beta": "1", "level": 0}),
    })
    if kind == "geom":
        (amp, ratio, level), alpha, beta, power = values, "1", "1", 1
    else:
        (amp, power, alpha, beta, level), ratio = values, "1/2"
    return _build(EpsForm, context, kind,
                  *(_frac_from_json(x, context) for x in (amp, ratio, alpha, beta)),
                  integer(power, context), integer(level, context))


def disk_form_to_json(disk):
    return {"kind": disk.kind, "weight": weight_to_json(disk.weight),
            "scale": str(disk.scale)}


def _disk_form(kinds, context, kind, weight, scale="1"):
    """The DiskForm of a wire ``kind`` that ``kinds`` maps to a gauge kind."""
    from .closedforms import DiskForm
    weight = weight_from_json(weight, f"{context}.weight")
    scale = _frac_from_json(scale, context)
    if not isinstance(kind, str) or kind not in kinds:
        raise SchemaError(f"{context}: unknown gauge kind {kind!r}")
    return _build(DiskForm, context, kinds[kind], weight, scale)


def disk_form_from_json(obj, context="disk"):
    return _disk_form({"sum": "sum", "sup": "sup"}, context, *fields(
        obj, context, ("kind",), {"weight": {}, "scale": "1"}))


def vector_to_json(v):
    return {"prefix": {str(k): _frac_to_json(x) for k, x in v.prefix.items()},
            "tails": [[_frac_to_json(a), _frac_to_json(s)] for a, s in v.tails],
            "tail_start": v.tail_start}


def vector_from_json(obj, context="vector"):
    from .seqspace import SeqVector
    prefix, tails, start = fields(obj, context, (),
                                  {"prefix": {}, "tails": [], "tail_start": 0})
    if not isinstance(prefix, dict):
        raise SchemaError(f"{context}.prefix: expected an object")
    pairs = [entries(t, path, 2) for t, path in entries(tails, f"{context}.tails")]
    return _build(SeqVector, context,
                  {_build(int, context, k): _frac_from_json(x, context)
                   for k, x in prefix.items()},
                  tuple((_frac_from_json(a, path), _frac_from_json(s, path))
                        for (a, path), (s, _) in pairs),
                  integer(start, context))


def model_space_to_json(space):
    return {"disks": [disk_form_to_json(d) for d in space.disks],
            "tails_admitted": space.tails_admitted}


def model_space_from_json(obj, context="space"):
    from .seqspace import ModelSpace
    disks, tails = fields(obj, context, ("disks",), {"tails_admitted": True})
    if not isinstance(tails, bool):
        raise SchemaError(f"{context}.tails_admitted: expected true or false")
    return ModelSpace(tuple(disk_form_from_json(d, path)
                            for d, path in entries(disks, f"{context}.disks")),
                      tails)


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


def _geo_term_from_json(obj, context):
    from .seqspace import GeoTerm
    coeff, ratio, vector, power = fields(obj, context,
                                         ("coeff", "ratio", "vector"),
                                         {"power": 0})
    return _build(GeoTerm, context, _frac_from_json(coeff, context),
                  _frac_from_json(ratio, context),
                  vector_from_json(vector, f"{context}.vector"),
                  integer(power, context))


def _window_term_from_json(obj, context):
    from .seqspace import WindowTerm
    coeff, vector, stride, offset, ratio = fields(
        obj, context, ("coeff", "vector"),
        {"stride": 1, "offset": 0, "ratio": "1"})
    return _build(WindowTerm, context, _frac_from_json(coeff, context),
                  vector_from_json(vector, f"{context}.vector"),
                  integer(stride, context),
                  integer(offset, context),
                  _frac_from_json(ratio, context))


def sequence_from_json(obj, context="sequence"):
    from .seqspace import SequenceModel
    prefix, geo, win = fields(obj, context, (), {
        "prefix": [], "geo_terms": [], "window_terms": []})
    return _build(SequenceModel, context,
                  tuple(vector_from_json(v, path)
                        for v, path in entries(prefix, f"{context}.prefix")),
                  tuple(_geo_term_from_json(g, path)
                        for g, path in entries(geo, f"{context}.geo_terms")),
                  tuple(_window_term_from_json(t, path)
                        for t, path in entries(win, f"{context}.window_terms")))


def box_from_json(obj, context="box"):
    """A compact envelope box: geometric a*s^k or inverse-polynomial a/(k+1)^p."""
    from .finrank import CompactSetModel
    kind, values = tagged(obj, context, {
        "geometric": (("ratio",), {"amp": "1"}),
        "invpoly": (("power",), {"amp": "1"}),
    })
    amp = _frac_from_json(values[1], context)
    if kind == "geometric":
        return _build(CompactSetModel.geometric, context, amp,
                      _frac_from_json(values[0], context))
    return _build(CompactSetModel.inverse_poly, context, amp,
                  integer(values[0], context))


def gauge_from_json(obj, context="gauge"):
    """An approx gauge, with no scale; its sum kind is named l1."""
    return _disk_form({"l1": "sum", "sup": "sup", "l2": "l2"}, context,
                      *fields(obj, context, ("kind",), {"weight": {}}))


def decision_to_json(report):
    """A Cauchy or convergence :class:`DecisionReport`."""
    return {
        "decision": report.decision,
        "disk_index": report.disk_index,
        "eps": eps_to_json(report.eps),
        "witness": {k: str(v) for k, v in report.witness.items()},
        "violating_pair": (list(report.violating_pair)
                           if report.violating_pair else None),
    }


def homotopy_to_json(cert):
    """A linear-homotopy certificate, each grid point's radius estimate by
    its upper bound."""
    return {
        "t_grid": list(cert.t_grid),
        "per_t_upper": [e.upper for e in cert.per_t],
        "segment_bounds": list(cert.segment_bounds),
        "sup_bound": cert.sup_bound,
        "verdict": cert.verdict,
    }


# ---------------------------------------------------------------------------
# canonical hashing
# ---------------------------------------------------------------------------

def canonical_json(obj):
    """Sorted-keys compact encoding used for instance digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def instance_digest(instance):
    return hashlib.sha256(canonical_json(instance).encode()).hexdigest()
