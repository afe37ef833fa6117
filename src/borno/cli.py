"""Batch front door: parse an instance file, dispatch, write a JSON report.

Exit codes: 0 all verdicts pass, 1 some verdict fails, 2 inconclusive present
with none failing, 3 input or schema error, 4 numerical failure.  One
instance per invocation; --threads is accepted for symmetry with the
concurrency contract but never affects results (all kernels are
deterministic and order-independent).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import bounded_set, identity, matrix_element
from .approx_mult import apple_certificate
from .closedforms import EpsForm, WeightForm
from .errors import (
    BornoError,
    CapExceeded,
    NotDecided,
    NumericalFailure,
    SchemaError,
)
from .finrank import (
    CompactSetModel,
    GaugeModel,
    OperatorFamily,
    OperatorModel,
    RankBudgetError,
    local_approx_property_check,
    pointwise_vs_uniform_check,
)
from .fixtures import fixture
from .isoradial import SamplerConfig, isoradial_certificate
from .jsr import jsr_estimate, submultiplicative_hull
from .maps import Homomorphism
from .seqspace import (
    DiskForm,
    SeqVector,
    SequenceModel,
    cauchy_check,
    completeness_check,
    convergence_check,
)
from . import serialize
from .serialize import (
    SCHEMA,
    bounded_set_from_json,
    bounded_set_to_json,
    instance_digest,
    map_from_json,
    model_space_from_json,
    sequence_from_json,
    vector_from_json,
)

PASS_VERDICTS = {"pass", "yes", "certified", "complete", "converges",
                 "bounded", "agree"}
FAIL_VERDICTS = {"fail", "no", "diverges", "incomplete", "violated"}


def _load_instance(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}")
    if not isinstance(obj, dict):
        raise SchemaError("instance must be a JSON object")
    serialize._check_fields(obj, {"schema", "command", "payload", "config"},
                            "instance")
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f"expected schema {SCHEMA!r}")
    command = serialize._req(obj, "command", "instance")
    if command not in _HANDLERS:
        raise SchemaError(f"unknown command {command!r}")
    return obj


def _load_instance_or_map(path, subcommand):
    """Instance files everywhere; bare map JSON for isoradial and apple."""
    if subcommand in ("isoradial", "apple"):
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read instance: {exc}")
        if (isinstance(obj, dict) and "schema" not in obj
                and {"source", "target", "basis_action"} <= set(obj)):
            return {"schema": SCHEMA, "command": subcommand,
                    "payload": {"map": obj}, "config": {}}
    return _load_instance(path)


def _config(instance, args):
    cfg = dict(instance.get("config") or {})
    for key in ("depth", "gap", "tol", "seed", "samples", "tgrid"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# command handlers: return (verdicts dict, results dict)
# ---------------------------------------------------------------------------

def _run_jsr(payload, cfg):
    s = bounded_set_from_json(serialize._req(payload, "set", "jsr payload"))
    est = jsr_estimate(s, int(cfg.get("depth", 10)),
                       float(cfg.get("gap", 1e-3)))
    verdict = "pass" if est.status == "certified" else "inconclusive"
    return {"estimate": verdict}, est.as_dict()


def _run_hull(payload, cfg):
    s = bounded_set_from_json(serialize._req(payload, "set", "hull payload"))
    r = float(serialize._req(payload, "r", "hull payload"))
    cert = submultiplicative_hull(s, r,
                                  int(payload.get("max_products", 512)))
    tol = float(cfg.get("tol", 1e-6))
    verdict = "pass" if cert.closure_defect <= tol else "fail"
    return {"closure": verdict}, {
        "scale": cert.scale,
        "closure_defect": cert.closure_defect,
        "n_generators": len(cert.hull.generators),
    }


def _resolve_map(payload):
    """The named built-in fixture, built alone, or None for an inline map."""
    return fixture(payload["fixture"]) if "fixture" in payload else None


def _run_isoradial(payload, cfg):
    fixture = _resolve_map(payload)
    if fixture is not None:
        hom = fixture.map
    else:
        hom = map_from_json(serialize._req(payload, "map",
                                           "isoradial payload"))
    sampler = SamplerConfig(per_size=int(cfg.get("samples", 32)),
                            seed=int(cfg.get("seed", 0xB00C)))
    report = isoradial_certificate(hom, sampler,
                                   depth=int(cfg.get("depth", 6)),
                                   tol=float(cfg.get("tol", 1e-2)))
    return {"isoradial": report.verdict}, report.as_dict()


def _run_apple(payload, cfg):
    fixture = _resolve_map(payload)
    if fixture is not None:
        hom = fixture.map
        sigmas = list(fixture.sigmas)
        h = Homomorphism.identity(hom.target)
        family = bounded_set(fixture.family or [identity(hom.target)])
    else:
        hom = map_from_json(serialize._req(payload, "map", "apple payload"))
        sigmas = [map_from_json(m, homomorphism=False, context="sigma")
                  for m in serialize._req(payload, "sigmas", "apple payload")]
        h = map_from_json(serialize._req(payload, "h", "apple payload"),
                          homomorphism=False)
        family = bounded_set_from_json(serialize._req(payload, "set",
                                                      "apple payload"))
    if not sigmas:
        sigmas = [Homomorphism.identity(hom.target)]
    sampler = SamplerConfig(per_size=int(cfg.get("samples", 8)),
                            seed=int(cfg.get("seed", 0xB00C)))
    t_points = None
    if cfg.get("tgrid") is not None:
        from .approx_mult import chebyshev_grid
        t_points = chebyshev_grid(int(cfg["tgrid"]))
    report = apple_certificate(hom, sigmas, h, family,
                               depth=int(cfg.get("depth", 4)),
                               t_points=t_points,
                               sampler=sampler,
                               tol=float(cfg.get("tol", 1e-2)))
    results = {
        "isoradial": report["isoradial"].as_dict(),
        "h_approximately_multiplicative":
            report["h_approximately_multiplicative"],
        "sigma_rates": report["sigma_rates"].as_dict(),
        "homotopy": report["homotopy"].as_dict() if report["homotopy"] else None,
        "verdict": report["verdict"],
    }
    return {"apple": report["verdict"]}, results


def _run_cauchy(payload, cfg):
    space = model_space_from_json(serialize._req(payload, "space",
                                                 "cauchy payload"))
    model = sequence_from_json(serialize._req(payload, "sequence",
                                              "cauchy payload"))
    disk = int(payload.get("disk", 0))
    eps = serialize.eps_from_json(serialize._req(payload, "eps",
                                                 "cauchy payload"))
    mode = payload.get("mode", "cauchy")
    if mode == "cauchy":
        report = cauchy_check(model, space, disk, eps)
    elif mode == "convergence":
        limit = (vector_from_json(payload["limit"])
                 if payload.get("limit") is not None else None)
        report = convergence_check(model, space, disk, eps, limit)
    else:
        raise SchemaError(f"unknown cauchy mode {mode!r}")
    return {mode: report.decision}, report.as_dict()


def _run_complete(payload, cfg):
    space = model_space_from_json(serialize._req(payload, "space",
                                                 "complete payload"))
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


def _envelope_from_json(obj):
    serialize._check_fields(obj, {"kind", "amp", "ratio", "power"}, "envelope")
    kind = serialize._req(obj, "kind", "envelope")
    if kind == "geometric":
        return CompactSetModel.geometric(Fraction(str(obj.get("amp", 1))),
                                         Fraction(str(obj["ratio"])))
    if kind == "invpoly":
        return CompactSetModel.inverse_poly(Fraction(str(obj.get("amp", 1))),
                                            int(obj["power"]))
    raise SchemaError(f"unknown envelope kind {kind!r}")


def _gauge_from_json(obj):
    serialize._check_fields(obj, {"kind", "weight"}, "gauge")
    return GaugeModel(serialize._req(obj, "kind", "gauge"),
                      WeightForm.from_dict(obj.get("weight", {})))


def _run_approx(payload, cfg):
    box = _envelope_from_json(serialize._req(payload, "set", "approx payload"))
    gauge = _gauge_from_json(serialize._req(payload, "gauge",
                                            "approx payload"))
    ops_spec = serialize._req(payload, "ops", "approx payload")
    if ops_spec.get("kind") != "truncation":
        raise SchemaError("only truncation families are accepted here")
    orders = [int(n) for n in serialize._req(ops_spec, "orders",
                                             "approx ops")]
    family = OperatorFamily(tuple(OperatorModel.truncation(n)
                                  for n in orders), Fraction(1))
    check = pointwise_vs_uniform_check(family, OperatorModel.identity(), box,
                                       gauge)
    tol = Fraction(str(payload.get("tol", "1/100")))
    try:
        prop = local_approx_property_check(box, gauge, tol)
        prop_dict = prop.as_dict()
        prop_verdict = "pass"
    except RankBudgetError as exc:
        prop_dict = {"error": str(exc)}
        prop_verdict = "fail"
    return ({"uniform": check["uniform"].verdict,
             "equivalence": "agree" if check["agree"] else "fail",
             "approximation_property": prop_verdict},
            {"rates": check["uniform"].as_dict(),
             "pointwise": check["pointwise"],
             "property": prop_dict})


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

def builtin_instances():
    golden = bounded_set([matrix_element([[1, 1], [0, 1]]),
                          matrix_element([[1, 0], [1, 1]])])
    nilpotent = bounded_set([matrix_element([[0, 1], [0, 0]])])
    geo_seq = SequenceModel.geometric_multiple(SeqVector.unit(1, 1), 1,
                                               Fraction(1, 2))
    instances = {
        "golden-pair": {
            "command": "jsr",
            "payload": {"set": bounded_set_to_json(golden)},
            "config": {"depth": 12, "gap": 1e-3},
        },
        "nilpotent": {
            "command": "jsr",
            "payload": {"set": bounded_set_to_json(nilpotent)},
            "config": {"depth": 2, "gap": 1e-3},
        },
        "contraction-hull": {
            "command": "hull",
            "payload": {"set": bounded_set_to_json(
                bounded_set([matrix_element([[0.5, 0], [0, 0.5]])])),
                "r": 1.0, "max_products": 64},
            "config": {},
        },
        "trig-grid": {
            "command": "isoradial",
            "payload": {"fixture": "trig-grid-d3"},
            "config": {"depth": 6, "samples": 8},
        },
        "matrix-tower": {
            "command": "isoradial",
            "payload": {"fixture": "matrix-tower-2-6"},
            "config": {"depth": 4, "samples": 4},
        },
        "interval-restriction": {
            "command": "isoradial",
            "payload": {"fixture": "interval-restriction"},
            "config": {"depth": 6, "samples": 8},
        },
        "trig-fejer": {
            "command": "apple",
            "payload": {"fixture": "trig-fejer"},
            "config": {"depth": 4, "samples": 4},
        },
        "cauchy-geometric": {
            "command": "cauchy",
            "payload": {
                "space": {"disks": [DiskForm("sum").as_dict()],
                          "tails_admitted": True},
                "sequence": serialize.sequence_to_json(geo_seq),
                "disk": 0,
                "eps": EpsForm.geometric(2, Fraction(1, 2)).as_dict(),
                "mode": "cauchy",
            },
            "config": {},
        },
        "completion-demo": {
            "command": "complete",
            "payload": {"space": {"disks": [DiskForm("sum").as_dict()],
                                  "tails_admitted": True}},
            "config": {},
        },
        "approx-truncation": {
            "command": "approx",
            "payload": {
                "set": {"kind": "geometric", "amp": "1", "ratio": "1/2"},
                "gauge": {"kind": "l2", "weight": WeightForm().as_dict()},
                "ops": {"kind": "truncation",
                        "orders": list(range(1, 12))},
                "tol": "1/1000",
            },
            "config": {},
        },
    }
    for inst in instances.values():
        inst["schema"] = SCHEMA
    return instances


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _emit_report(report, out_path, want_csv):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if want_csv and out_path:
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
    """JSON-safe copy: non-finite floats become tagged strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def run_instance(instance, cfg):
    handler = _HANDLERS[instance["command"]]
    started = time.perf_counter()
    verdicts, results = handler(instance.get("payload") or {}, cfg)
    results = _sanitize(results)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "schema": SCHEMA,
        "command": instance["command"],
        "instance_digest": instance_digest(instance),
        "toolkit_version": __version__,
        "verdicts": verdicts,
        "results": results,
        "wall_time_ms": elapsed_ms,
    }
    return report


def _exit_code(verdicts):
    states = set(verdicts.values())
    if states & FAIL_VERDICTS:
        return 1
    if states - PASS_VERDICTS:
        return 2
    return 0


def _parse_threads(value):
    if value is None:
        value = os.environ.get("BORNO_THREADS")
    if value in (None, "", "0"):
        return os.cpu_count() or 1
    n = int(value)
    if n < 1:
        raise SchemaError("--threads must be a positive integer")
    return n


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
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--gap", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tgrid", type=int, default=None)

    run_p = sub.add_parser("run", help="dispatch on the instance's command")
    add_common(run_p)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run a {name} instance")
        add_common(p)
        if name in ("isoradial", "apple"):
            p.add_argument("--fixture", default=None)

    fix_p = sub.add_parser("fixture", help="write a ready-made instance file")
    fix_p.add_argument("name")
    fix_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.subcommand == "fixture":
        instances = builtin_instances()
        if args.name not in instances:
            print(f"unknown fixture {args.name!r}; known: "
                  f"{sorted(instances)}", file=sys.stderr)
            return 3
        text = json.dumps(instances[args.name], sort_keys=True, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    try:
        _parse_threads(args.threads)  # validated; results never depend on it
        if args.input:
            instance = _load_instance_or_map(args.input, args.subcommand)
        elif getattr(args, "fixture", None):
            instance = {
                "schema": SCHEMA,
                "command": args.subcommand,
                "payload": {"fixture": args.fixture},
                "config": {},
            }
        else:
            raise SchemaError("an --input file (or --fixture) is required")
        if args.subcommand != "run" and instance["command"] != args.subcommand:
            raise SchemaError(
                f"instance command {instance['command']!r} does not match "
                f"subcommand {args.subcommand!r}")
        cfg = _config(instance, args)
        report = run_instance(instance, cfg)
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
