"""Batch front door: parse an instance file, dispatch, write a JSON report.

Exit codes: 0 all verdicts pass, 1 some verdict fails, 2 inconclusive present
with none failing, 3 input or schema error, 4 numerical failure.  One
instance per invocation; --threads is accepted for symmetry with the
concurrency contract but never affects results (all kernels are
deterministic and order-independent).

Instances are read by :mod:`borno.serialize`'s strict reader: every object
at every level, the payload and ``config`` included, rejects a missing
required field and any unknown one, and the error names the object's path.
``config`` takes exactly the settings its command reads (``_SETTINGS``),
each also set by the flag of its name, which overrides the key and is read
as the key is (a non-finite real is an input error); any other key or flag,
--csv without --out and --fixture with --input are input errors, as are
argparse's usage errors (a mistyped or unknown flag), and a sample count must
not be negative.  For isoradial, a bare map JSON stands
for the payload {"map": ...}.  A cauchy ``disk`` must
index the payload's space.  Each handler imports its kernel modules when it
runs, and ``borno fixture`` builds only the instance it names, so a process
loads only what its command needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import serialize
from .errors import (
    BornoError,
    CapExceeded,
    NotDecided,
    NumericalFailure,
    SchemaError,
)
from .serialize import SCHEMA, entries, fields, integer, real, tagged

PASS_VERDICTS = {"pass", "yes", "complete", "converges", "agree"}
FAIL_VERDICTS = {"fail", "no", "diverges", "incomplete"}

# the settings each command reads, with their defaults: each is set by its
# config key and by the flag of its name, and has the type of its default
_SETTINGS = {
    "jsr": {"depth": 10, "gap": 1e-3}, "hull": {"tol": 1e-6},
    "isoradial": {"depth": 6, "tol": 1e-2, "samples": 32, "seed": 0xB00C},
    "apple": {"depth": 4, "tol": 1e-2, "samples": 8, "seed": 0xB00C,
              "tgrid": 65},
    "cauchy": {}, "complete": {}, "approx": {},
}
_FLAGS = {key: type(v) for s in _SETTINGS.values() for key, v in s.items()}


def _instance(command, payload, **config):
    return {"schema": SCHEMA, "command": command, "payload": payload,
            "config": config}


def _load_instance(path, subcommand):
    """The instance in ``path``; for isoradial, a bare map JSON
    {"source", "target", "basis_action"} stands for the payload {"map": ...}."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}")
    if (subcommand == "isoradial" and isinstance(obj, dict)
            and set(obj) == {"source", "target", "basis_action"}):
        return _instance(subcommand, {"map": obj})
    schema, command, _payload, _config = fields(
        obj, "instance", ("schema", "command"), {"payload": {}, "config": {}})
    if schema != SCHEMA:
        raise SchemaError(f"instance.schema: expected schema {SCHEMA!r}")
    if not isinstance(command, str) or command not in _HANDLERS:
        raise SchemaError(f"instance.command: unknown command {command!r}")
    return obj


def _config(instance, flags):
    """Its command's settings: the defaults, under the instance's config,
    under ``flags``; a key or flag the command never reads is an error."""
    command = instance["command"]
    defaults = _SETTINGS[command]

    def read(key, v, context):  # a flag is read as its config key is
        value = (integer if type(defaults[key]) is int else real)(v, context)
        if key == "samples" and value < 0:
            raise SchemaError(f"{context}: sample count must be nonnegative, "
                              f"got {value}")
        return value

    values = fields(instance.get("config", {}), "config", (),
                    dict.fromkeys(defaults))
    cfg = {key: d if v is None else read(key, v, f"config.{key}")
           for (key, d), v in zip(defaults.items(), values)}
    inert = sorted(set(flags) - set(defaults))
    if inert:
        raise SchemaError(f"--{inert[0]}: the {command} command never reads it")
    cfg.update((key, read(key, v, f"--{key}")) for key, v in flags.items())
    return cfg


# ---------------------------------------------------------------------------
# command handlers: return (verdicts dict, results dict)
# ---------------------------------------------------------------------------

def _run_jsr(payload, cfg):
    from .jsr import CERTIFIED, jsr_estimate
    (s,) = fields(payload, "payload", ("set",))
    est = jsr_estimate(serialize.bounded_set_from_json(s, "payload.set"),
                       cfg["depth"], cfg["gap"])
    verdict = "pass" if est.status == CERTIFIED else "inconclusive"
    return {"estimate": verdict}, est


def _run_hull(payload, cfg):
    from .jsr import submultiplicative_hull
    s, r, cap = fields(payload, "payload", ("set", "r"), {"max_products": 512})
    cert = submultiplicative_hull(
        serialize.bounded_set_from_json(s, "payload.set"),
        real(r, "payload.r"), integer(cap, "payload.max_products"))
    verdict = "pass" if cert.closure_defect <= cfg["tol"] else "fail"
    return {"closure": verdict}, {
        "scale": cert.scale,
        "closure_defect": cert.closure_defect,
        "n_generators": len(cert.hull.generators),
    }


def _map_fixture(payload):
    """The built-in fixture a payload {"fixture": name} names, else None."""
    if not (isinstance(payload, dict) and "fixture" in payload):
        return None
    from .fixtures import fixture
    return fixture(*fields(payload, "payload", ("fixture",)))


def _run_isoradial(payload, cfg):
    from .isoradial import SamplerConfig, isoradial_certificate
    named = _map_fixture(payload)
    hom = named.map if named is not None else serialize.map_from_json(
        *fields(payload, "payload", ("map",)), context="payload.map")
    sampler = SamplerConfig(per_size=cfg["samples"], seed=cfg["seed"])
    report = isoradial_certificate(hom, sampler, depth=cfg["depth"],
                                   tol=cfg["tol"])
    return {"isoradial": report.verdict}, report


def _run_apple(payload, cfg):
    from .algebra import bounded_set, identity
    from .approx_mult import apple_certificate, chebyshev_grid
    from .isoradial import SamplerConfig
    from .maps import Homomorphism
    named = _map_fixture(payload)
    if named is not None:
        hom = named.map
        sigmas = list(named.sigmas)
        h = Homomorphism.identity(hom.target)
        family = bounded_set(named.family or [identity(hom.target)])
    else:
        hom, sigmas, h, family = fields(payload, "payload",
                                        ("map", "sigmas", "h", "set"))
        hom = serialize.map_from_json(hom, context="payload.map")
        sigmas = [serialize.map_from_json(m, homomorphism=False, context=path)
                  for m, path in entries(sigmas, "payload.sigmas")]
        h = serialize.map_from_json(h, homomorphism=False, context="payload.h")
        family = serialize.bounded_set_from_json(family, "payload.set")
    if not sigmas:
        sigmas = [Homomorphism.identity(hom.target)]
    sampler = SamplerConfig(per_size=cfg["samples"], seed=cfg["seed"])
    report = apple_certificate(hom, sigmas, h, family, depth=cfg["depth"],
                               t_points=chebyshev_grid(cfg["tgrid"]),
                               sampler=sampler, tol=cfg["tol"])
    results = {
        "isoradial": report["isoradial"],
        "h_approximately_multiplicative":
            report["h_approximately_multiplicative"],
        "sigma_rates": report["sigma_rates"],
        "homotopy": (serialize.homotopy_to_json(report["homotopy"])
                     if report["homotopy"] else None),
        "verdict": report["verdict"],
    }
    return {"apple": report["verdict"]}, results


def _run_cauchy(payload, cfg):
    from .seqspace import cauchy_check, convergence_check
    space, model, eps, disk, mode, limit = fields(
        payload, "payload", ("space", "sequence", "eps"),
        {"disk": 0, "mode": "cauchy", "limit": None})
    space = serialize.model_space_from_json(space, "payload.space")
    model = serialize.sequence_from_json(model, "payload.sequence")
    eps = serialize.eps_from_json(eps, "payload.eps")
    if not 0 <= integer(disk, "payload.disk") < len(space.disks):
        raise SchemaError(f"payload.disk: {disk} does not index the "
                          f"{len(space.disks)} disks of the space")
    if mode == "convergence":
        if limit is not None:
            limit = serialize.vector_from_json(limit, "payload.limit")
        report = convergence_check(model, space, disk, eps, limit)
    elif mode != "cauchy":
        raise SchemaError(f"payload.mode: unknown cauchy mode {mode!r}")
    elif limit is not None:
        raise SchemaError("payload.limit: only the convergence mode reads it")
    else:
        report = cauchy_check(model, space, disk, eps)
    return {mode: report.decision}, serialize.decision_to_json(report)


def _run_complete(payload, cfg):
    from .seqspace import completeness_check
    space = serialize.model_space_from_json(
        *fields(payload, "payload", ("space",)), "payload.space")
    direct = completeness_check(space, "iii")
    cross = completeness_check(space, "iv")
    agree = all(a.complete == b.complete for a, b in zip(direct, cross))
    verdicts = {}
    results = {"disks": []}
    for a, b in zip(direct, cross):
        verdicts[f"disk_{a.disk_index}"] = ("complete" if a.complete
                                            else "incomplete")
        results["disks"].append({
            "disk_index": a.disk_index,
            "condition_iii": a.complete,
            "condition_iv": b.complete,
            "justification": a.justification,
        })
    verdicts["cross_validation"] = "agree" if agree else "fail"
    return verdicts, results


def _run_approx(payload, cfg):
    from .finrank import (OperatorFamily, OperatorModel, RankBudgetError,
                          local_approx_property_check,
                          pointwise_vs_uniform_check)
    box, gauge, ops, tol = fields(payload, "payload", ("set", "gauge", "ops"),
                                  {"tol": "1/100"})
    box = serialize.box_from_json(box, "payload.set")
    gauge = serialize.gauge_from_json(gauge, "payload.gauge")
    _kind, (orders,) = tagged(ops, "payload.ops",
                              {"truncation": (("orders",), {})})
    family = OperatorFamily(tuple(
        OperatorModel.truncation(integer(n, path))
        for n, path in entries(orders, "payload.ops.orders")), Fraction(1))
    tol = serialize._frac_from_json(tol, "payload.tol")
    check = pointwise_vs_uniform_check(family, OperatorModel.identity(), box,
                                       gauge)
    try:
        prop = local_approx_property_check(box, gauge, tol)
        prop_verdict = "pass"
    except RankBudgetError as exc:
        prop = {"error": str(exc)}
        prop_verdict = "fail"
    return ({"uniform": check["uniform"].verdict,
             "equivalence": "agree",
             "approximation_property": prop_verdict},
            {"rates": check["uniform"],
             "pointwise": check["pointwise"],
             "property": prop})


_HANDLERS = {
    "jsr": _run_jsr,
    "hull": _run_hull,
    "isoradial": _run_isoradial,
    "apple": _run_apple,
    "cauchy": _run_cauchy,
    "complete": _run_complete,
    "approx": _run_approx,
}


# ---------------------------------------------------------------------------
# fixtures as ready-made instance files
# ---------------------------------------------------------------------------

def _matrix_set(*mats):
    from .algebra import bounded_set, matrix_element
    return serialize.bounded_set_to_json(
        bounded_set([matrix_element(m) for m in mats]))


def _sum_space():
    from .closedforms import DiskForm
    from .seqspace import ModelSpace
    return serialize.model_space_to_json(ModelSpace((DiskForm("sum"),)))


def _cauchy_geometric():
    from .closedforms import EpsForm
    from .seqspace import SeqVector, SequenceModel
    half = Fraction(1, 2)
    geo_seq = SequenceModel.geometric_multiple(SeqVector.unit(1, 1), 1, half)
    return _instance("cauchy", {
        "space": _sum_space(),
        "sequence": serialize.sequence_to_json(geo_seq),
        "disk": 0,
        "eps": serialize.eps_to_json(EpsForm.geometric(2, half)),
        "mode": "cauchy",
    })


# each built-in instance's builder, so that one instance is built, and its
# modules loaded, only when it is asked for
_BUILTINS = {
    "golden-pair": lambda: _instance(
        "jsr", {"set": _matrix_set([[1, 1], [0, 1]], [[1, 0], [1, 1]])},
        depth=12, gap=1e-3),
    "nilpotent": lambda: _instance(
        "jsr", {"set": _matrix_set([[0, 1], [0, 0]])}, depth=2, gap=1e-3),
    "contraction-hull": lambda: _instance("hull", {
        "set": _matrix_set([[0.5, 0], [0, 0.5]]), "r": 1.0,
        "max_products": 64}),
    "trig-grid": lambda: _instance("isoradial", {"fixture": "trig-grid-d3"},
                                   depth=6, samples=8),
    "matrix-tower": lambda: _instance(
        "isoradial", {"fixture": "matrix-tower-2-6"}, depth=4, samples=4),
    "interval-restriction": lambda: _instance(
        "isoradial", {"fixture": "interval-restriction"}, depth=6, samples=8),
    "trig-fejer": lambda: _instance("apple", {"fixture": "trig-fejer"},
                                    depth=4, samples=4),
    "cauchy-geometric": _cauchy_geometric,
    "completion-demo": lambda: _instance("complete", {"space": _sum_space()}),
    "approx-truncation": lambda: _instance("approx", {
        "set": {"kind": "geometric", "amp": "1", "ratio": "1/2"},
        "gauge": {"kind": "l2",
                  "weight": {"coeff": "1", "base": "1", "power": 0}},
        "ops": {"kind": "truncation", "orders": list(range(1, 12))},
        "tol": "1/1000",
    }),
}


def builtin_instances():
    return {name: build() for name, build in _BUILTINS.items()}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _write(text, path):
    """``text`` and a newline into the file ``path``, or onto stdout."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(report, out_path, want_csv):
    _write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False),
           out_path)
    if want_csv:
        csv_path = os.path.splitext(out_path)[0] + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["field", "index", "value"])
            _flatten_csv(writer, report.get("results", {}), "")


def _flatten_csv(writer, obj, prefix):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten_csv(writer, obj[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                _flatten_csv(writer, v, f"{prefix}[{i}]")
            else:
                writer.writerow([prefix, i, v])
    else:
        writer.writerow([prefix, "", obj])


def _sanitize(obj):
    """JSON-safe copy: a dataclass becomes the object of its fields, a
    non-finite float a tagged string."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def run_instance(instance, flags):
    handler, cfg = _HANDLERS[instance["command"]], _config(instance, flags)
    started = time.perf_counter()
    verdicts, results = handler(instance.get("payload", {}), cfg)
    results = _sanitize(results)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "schema": SCHEMA,
        "command": instance["command"],
        "instance_digest": serialize.instance_digest(instance),
        "toolkit_version": __version__,
        "verdicts": verdicts,
        "results": results,
        "wall_time_ms": elapsed_ms,
    }


def _exit_code(verdicts):
    states = set(verdicts.values())
    if states & FAIL_VERDICTS:
        return 1
    if states - PASS_VERDICTS:
        return 2
    return 0


def _parse_threads(value):
    """Validate --threads; absent, empty or 0 stand for any count."""
    if value not in (None, "", "0") and int(value) < 1:
        raise SchemaError("--threads must be a positive integer")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="borno",
        description="certified spectral-radius and approximation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--input", required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--csv", action="store_true")
        p.add_argument("--threads", default=None)
        for key, kind in _FLAGS.items():
            p.add_argument(f"--{key}", type=kind, default=argparse.SUPPRESS)

    add_common(sub.add_parser("run", help="dispatch on the instance's command"))
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run a {name} instance")
        add_common(p)
        if name in ("isoradial", "apple"):
            p.add_argument("--fixture", default=None)

    fix_p = sub.add_parser("fixture", help="write a ready-made instance file")
    fix_p.add_argument("name")
    fix_p.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help
            raise
        return 3  # argparse printed its usage error; 2 means inconclusive

    if args.subcommand == "fixture":
        if args.name not in _BUILTINS:
            print(f"unknown fixture {args.name!r}; known: "
                  f"{sorted(_BUILTINS)}", file=sys.stderr)
            return 3
        _write(json.dumps(_BUILTINS[args.name](), sort_keys=True, indent=2),
               args.out)
        return 0

    try:
        _parse_threads(args.threads)  # validated; results never depend on it
        if args.csv and not args.out:
            raise SchemaError("--csv writes beside the --out file: give --out")
        fixture = getattr(args, "fixture", None)
        if bool(args.input) == bool(fixture):
            raise SchemaError("an instance comes from an --input file or a "
                              "--fixture: give exactly one")
        instance = (_load_instance(args.input, args.subcommand) if args.input
                    else _instance(args.subcommand, {"fixture": fixture}))
        if args.subcommand != "run" and instance["command"] != args.subcommand:
            raise SchemaError(
                f"instance command {instance['command']!r} does not match "
                f"subcommand {args.subcommand!r}")
        report = run_instance(instance, {
            key: v for key, v in vars(args).items() if key in _FLAGS})
        _emit_report(report, args.out, args.csv)
        return _exit_code(report["verdicts"])
    except (SchemaError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailure, CapExceeded, NotDecided) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except BornoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
