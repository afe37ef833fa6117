"""Seeded inputs, operations and output checks of the four workloads.

Inputs are made in two steps.  A fixed structural bank (drawn from constant
structure seeds) fixes what sets each op's amount of work: spectra and
perturbation sizes of the JSR families, the hull families, the closed-form
shapes of the sequence models.  The workload seed then draws the coordinates
the program actually sees: a random unitary frame per JSR and hull family
(norms, spectra and hull gauges are unitarily invariant, so the search and the
LPs do the same work in new coordinates) and a random rational scale per
sequence op (gauges scale with it and eps is scaled alike, so every decision
and scan length is kept).  Runs with different seeds therefore measure the
same work on different inputs, and their figures can be compared.  For the
CLI workload the seed is the sampler seed of the isoradial and apple
instances, as a CLI user would pass it.

Nothing here imports from the repository's tests; every check is owned by
the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

WORKLOADS = ("cli-fixtures", "jsr-sweep", "hull-certify", "seq-decide")

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One closed-loop request: ``run`` returns an output, ``check`` judges it.

    ``check`` returns (ok, decided); ``decided`` is False only for an honest
    NotDecided in seq-decide.
    """

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def canonical_bytes(spec):
    """Byte form of a generated input spec, for determinism tests."""
    def enc(x):
        if isinstance(x, np.ndarray):
            return {"shape": list(x.shape), "re": x.real.tolist(),
                    "im": x.imag.tolist()}
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, dict):
            return {str(k): enc(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [enc(v) for v in x]
        return x
    return json.dumps(enc(spec), sort_keys=True).encode()


def _unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(rng, mats):
    """U A U^H for every A in ``mats`` (shape (..., d, d)), one U per point."""
    mats = np.asarray(mats)
    if mats.ndim == 3:  # (k, d, d): one frame for the family
        u = _unitary(rng, mats.shape[-1])
        return np.einsum("ij,kjl,ml->kim", u, mats, u.conj())
    # (k, m, d, d): grid family, one frame per grid point
    us = np.stack([_unitary(rng, mats.shape[-1]) for _ in range(mats.shape[1])])
    return np.einsum("pij,kpjl,pml->kpim", us, mats, us.conj())


# ---------------------------------------------------------------------------
# jsr-sweep
# ---------------------------------------------------------------------------

JSR_DEPTH = 10
JSR_GAP = 1e-3
JSR_GRID_POINTS = 8
JSR_PER_CELL = 2
JSR_ENUM_LIMIT = 4096


def _near_normal(rng, d, eps):
    """Q diag(lambda) Q^H + eps G with |lambda| in [0.5, 1]."""
    lam = rng.uniform(0.5, 1.0, d) * np.exp(2j * np.pi * rng.uniform(size=d))
    q = _unitary(rng, d)
    g = (rng.standard_normal((d, d))
         + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0 * d)
    return q @ np.diag(lam) @ q.conj().T + eps * g


def jsr_cells():
    """(kind, k, d, eps) cells; grid cells have 2x2 fibers on 8 points."""
    cells = [("matrix", k, d, eps) for k in (2, 3) for d in (2, 3, 4)
             for eps in (0.02, 0.1, 0.3)]
    cells += [("grid", k, 2, eps) for k in (2, 3) for eps in (0.02, 0.1, 0.3)]
    return cells


def jsr_inputs(seed):
    families = []
    for c, (kind, k, d, eps) in enumerate(jsr_cells()):
        for j in range(JSR_PER_CELL):
            srng = np.random.default_rng([0xB0, c, j])  # structure
            if kind == "matrix":
                base = np.stack([_near_normal(srng, d, eps) for _ in range(k)])
            else:
                base = np.stack([
                    np.stack([_near_normal(srng, d, eps)
                              for _ in range(JSR_GRID_POINTS)])
                    for _ in range(k)])
            frame = np.random.default_rng([seed, 0xB0, c, j])
            families.append({"kind": kind, "k": k, "d": d, "eps": eps,
                             "mats": _conjugate(frame, base)})
    return {"families": families}


def _jsr_set(fam):
    from borno import (GridFunctionAlgebra, GridSpec, MatrixAlgebra,
                       bounded_set, matrix_element)
    from borno.algebra import grid_element
    if fam["kind"] == "matrix":
        return bounded_set([matrix_element(m) for m in fam["mats"]])
    desc = GridFunctionAlgebra(GridSpec.circle(JSR_GRID_POINTS),
                               MatrixAlgebra(fam["d"]))
    return bounded_set([grid_element(desc, list(g)) for g in fam["mats"]])


def _stacked(mats):
    """Generators as (k, points, d, d) arrays; plain matrices have 1 point."""
    mats = np.asarray(mats)
    return mats[:, None] if mats.ndim == 3 else mats


def _rho(p):
    """Spectral radius of a (points, d, d) stack: max over points."""
    return float(np.max(np.abs(np.linalg.eigvals(p))))


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_jsr(fam, est):
    """Witness reproduces ``lower``; small trees match a numpy enumeration."""
    gens = _stacked(fam["mats"])
    word = est.witness_word
    if not word:
        return False
    prod = gens[word[0]]
    for idx in word[1:]:
        prod = prod @ gens[idx]
    if not _rel_close(_rho(prod) ** (1.0 / len(word)), est.lower):
        return False
    k = gens.shape[0]
    if k ** est.depth > JSR_ENUM_LIMIT:
        return True
    lower, upper = 0.0, math.inf
    level = gens  # (words, points, d, d)
    for length in range(1, est.depth + 1):
        if length > 1:
            level = (level[:, None] @ gens[None]).reshape(-1, *gens.shape[1:])
        norms = np.linalg.norm(level, 2, axis=(-2, -1)).max(axis=1)
        rhos = np.abs(np.linalg.eigvals(level)).max(axis=(1, 2))
        upper = min(upper, float(norms.max()) ** (1.0 / length))
        lower = max(lower, float(rhos.max()) ** (1.0 / length))
    return _rel_close(lower, est.lower) and _rel_close(upper, est.upper)


# Ops call borno's entry points through the package at call time, so that
# the traced run's wrappers see them.


def jsr_ops(spec, workdir):
    import borno
    ops = []
    for i, fam in enumerate(spec["families"]):
        s = _jsr_set(fam)
        ops.append(Op(
            f"{fam['kind']}-k{fam['k']}-d{fam['d']}-e{fam['eps']}-{i}",
            lambda s=s: borno.jsr_estimate(s, JSR_DEPTH, JSR_GAP),
            lambda est, fam=fam: (check_jsr(fam, est), True)))
    return ops


# ---------------------------------------------------------------------------
# hull-certify
# ---------------------------------------------------------------------------

HULL_DEPTH = 8
HULL_GAP = 1e-6
HULL_R_FACTOR = 1.1
HULL_MAX_PRODUCTS = 512
# structure seeds of the 2 x (2x2) families, drawn as in the hull tests: the
# three lightest of 400-411 (21-26 hull generators, 1.6-3 s an op), so that
# a run holds several passes; the lightest goes first, as the warm-up op
HULL_STRUCTURE_SEEDS = (411, 400, 407)


def hull_inputs(seed):
    families = []
    for j, s in enumerate(HULL_STRUCTURE_SEEDS):
        srng = np.random.default_rng(s)
        base = np.stack([(srng.standard_normal((2, 2))
                          + 1j * srng.standard_normal((2, 2))) / 3
                         for _ in range(2)])
        frame = np.random.default_rng([seed, 0xC0, j])
        families.append({"structure": s, "mats": _conjugate(frame, base)})
    return {"families": families}


def _real_coords(m):
    v = np.asarray(m, dtype=np.complex128).reshape(-1)
    return np.concatenate([v.real, v.imag])


def _own_hull_gauge(generators, x):
    """min sum |lambda| with sum lambda_i g_i = x, by a direct LP."""
    from scipy.optimize import linprog
    cols = np.stack([_real_coords(g) for g in generators], axis=1)
    n = cols.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.concatenate([cols, -cols], axis=1),
                  b_eq=_real_coords(x), bounds=[(0, None)] * (2 * n),
                  method="highs")
    return float(res.fun) if res.success else math.inf


def check_hull(fam, out):
    est, r, cert = out
    gens = [g.data for g in cert.hull.generators]
    for m in fam["mats"]:
        if _own_hull_gauge(gens, m / r) > 1 + 1e-9:
            return False
    return est.lower <= r * (1 + cert.closure_defect) + 1e-9


def hull_ops(spec, workdir):
    import borno

    def run(s):
        est = borno.jsr_estimate(s, HULL_DEPTH, HULL_GAP)
        r = HULL_R_FACTOR * est.upper
        return est, r, borno.submultiplicative_hull(s, r, HULL_MAX_PRODUCTS)

    ops = []
    for fam in spec["families"]:
        s = borno.bounded_set([borno.matrix_element(m) for m in fam["mats"]])
        ops.append(Op(f"hull-{fam['structure']}", lambda s=s: run(s),
                      lambda out, fam=fam: (check_hull(fam, out), True)))
    return ops


# ---------------------------------------------------------------------------
# seq-decide
# ---------------------------------------------------------------------------

SEQ_RATIOS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
              Fraction(3, 4), Fraction(-1, 3)]
SEQ_COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
              Fraction(-3, 2)]
SEQ_SCALES = [Fraction(p, q) for p in (1, 2, 3, 5, 7) for q in (1, 2, 3, 4)]
SEQ_OPS = 36
SEQ_WINDOW = 12


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _seq_vector(rng, scale):
    """(prefix {k: value}, tails [(a, s)], start), values times ``scale``."""
    prefix = {}
    for _ in range(int(rng.integers(0, 3))):
        prefix[int(rng.integers(0, 4))] = _pick(rng, SEQ_COEFFS)
    tails = []
    start = max(prefix, default=-1) + 1
    if rng.random() < 0.4:
        tails = [(_pick(rng, SEQ_COEFFS), _pick(rng, SEQ_RATIOS))]
    if not prefix and not tails:
        prefix = {int(rng.integers(0, 4)): Fraction(1)}
        start = max(prefix) + 1
    return {"prefix": {k: v * scale for k, v in prefix.items()},
            "tails": [(a * scale, s) for a, s in tails], "start": start}


def _seq_op_spec(srng, scale):
    geo = []
    if srng.random() < 0.5:
        geo.append((Fraction(1), Fraction(1), _seq_vector(srng, scale)))
    for _ in range(int(srng.integers(1, 3))):
        geo.append((_pick(srng, SEQ_COEFFS), _pick(srng, SEQ_RATIOS),
                    _seq_vector(srng, scale)))
    windows = []
    if srng.random() < 0.3:
        a = _pick(srng, SEQ_COEFFS)
        s = abs(_pick(srng, SEQ_RATIOS))
        windows.append((_pick(srng, SEQ_COEFFS),
                        {"prefix": {}, "tails": [(a * scale, s)], "start": 0}))
    amp = abs(_pick(srng, SEQ_COEFFS))
    ratio = abs(_pick(srng, SEQ_RATIOS))
    return {"disk": int(srng.integers(0, 2)),
            "mode": "cauchy" if srng.random() < 0.5 else "convergence",
            "geo": geo, "windows": windows,
            "eps": (amp * abs(scale), ratio)}


def seq_inputs(seed):
    ops = []
    for j in range(SEQ_OPS):
        scale = _pick(np.random.default_rng([seed, 0xD0, j]), SEQ_SCALES)
        if np.random.default_rng([seed, 0xD1, j]).random() < 0.5:
            scale = -scale
        # the structure draw is replayed with the seed-drawn scale applied
        ops.append(_seq_op_spec(np.random.default_rng([0xD0, j]), scale))
    return {"ops": ops}


def _seq_objects(op):
    from borno.closedforms import EpsForm
    from borno.seqspace import (DiskForm, GeoTerm, ModelSpace, SeqVector,
                                SequenceModel, WindowTerm)

    def vec(v):
        return SeqVector(v["prefix"], tuple(v["tails"]), v["start"])

    model = SequenceModel(
        geo_terms=tuple(GeoTerm(c, r, vec(v)) for c, r, v in op["geo"]),
        window_terms=tuple(WindowTerm(c, vec(v)) for c, v in op["windows"]))
    space = ModelSpace((DiskForm("sum"), DiskForm("sup")))
    return model, space, EpsForm.geometric(*op["eps"])


def check_seq(op, objects, report):
    """A "no" pair is re-verified exactly; a "yes" survives a short window."""
    from borno.seqspace import gauge_value
    if report is None:  # NotDecided: honest, counts against decided_share
        return True, False
    model, space, eps = objects
    disk = space.disk(op["disk"])

    def violates(m, g):
        return g == math.inf or not eps.ge_value(m, g)

    if op["mode"] == "cauchy":
        if report.decision == "no":
            m, n = report.violating_pair
            return violates(m, gauge_value(disk, model.at(n).subtract(
                model.at(m)))), True
        for m in range(SEQ_WINDOW):
            xm = model.at(m)
            for n in range(m + 1, SEQ_WINDOW):
                if violates(m, gauge_value(disk, model.at(n).subtract(xm))):
                    return False, True
        return True, True
    limit = model.limit_vector()
    if report.decision == "no":
        n = report.violating_pair[0]
        return violates(n, gauge_value(disk, model.at(n).subtract(limit))), True
    for n in range(SEQ_WINDOW):
        if violates(n, gauge_value(disk, model.at(n).subtract(limit))):
            return False, True
    return True, True


def seq_ops(spec, workdir):
    import borno
    from borno.errors import NotDecided

    def run(op, objects):
        model, space, eps = objects
        try:
            if op["mode"] == "cauchy":
                return borno.cauchy_check(model, space, op["disk"], eps)
            return borno.convergence_check(model, space, op["disk"], eps)
        except NotDecided:
            return None

    ops = []
    for j, op in enumerate(spec["ops"]):
        objects = _seq_objects(op)
        ops.append(Op(f"{op['mode']}-disk{op['disk']}-{j}",
                      lambda op=op, o=objects: run(op, o),
                      lambda rep, op=op, o=objects: check_seq(op, o, rep)))
    return ops


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

SEEDED_COMMANDS = ("isoradial", "apple")


def cli_inputs(seed):
    from borno.cli import builtin_instances
    return {"instances": builtin_instances(), "sampler_seed": seed}


def cli_expected(instances):
    """(verdicts, exit code) per instance, from the benchmark's own table.

    Map fixtures declare their isoradial/apple verdict in ``expected``; the
    other instances have fixed verdicts.
    """
    from borno.fixtures import fixture_catalog
    catalog = fixture_catalog()
    fixed = {
        "golden-pair": {"estimate": "pass"},
        "nilpotent": {"estimate": "pass"},
        "contraction-hull": {"closure": "pass"},
        "cauchy-geometric": {"cauchy": "yes"},
        "completion-demo": {"disk_0": "complete", "cross_validation": "agree"},
        "approx-truncation": {"uniform": "converges", "equivalence": "agree",
                              "approximation_property": "pass"},
    }
    out = {}
    for name, inst in instances.items():
        if inst["command"] in SEEDED_COMMANDS:
            verdict = catalog[inst["payload"]["fixture"]].expected
            verdicts = {inst["command"]: verdict}
        else:
            verdicts = fixed[name]
        code = 1 if "fail" in verdicts.values() else 0
        out[name] = (verdicts, code)
    return out


def cli_ops(spec, workdir, probe=None):
    """One fresh CLI process per instance.

    The children inherit the worker's PYTHONPATH, which holds ``src``.
    ``run(trace)`` takes the path of a span file; with one, the child is the
    benchmark's traced stand-in, cli_child.py, instead of ``-m borno.cli``.
    While ``probe``, this process's host-speed probe, is running, the child
    is cli_child.py probing its own host speed: ``probe`` is paused, and the
    child's probes join it, since they time the CPU the work runs on.
    """
    expected = {}  # filled on the first check, outside the timed region
    ops = []
    for i, (name, inst) in enumerate(spec["instances"].items()):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(inst, fh, sort_keys=True, indent=2)
        out = os.path.join(workdir, f"{name}.out.json")
        argv = ["run", "--input", path, "--out", out]
        if inst["command"] in SEEDED_COMMANDS:
            argv += ["--seed", str(spec["sampler_seed"])]
        probes = os.path.join(workdir, f"{name}.probes.json")

        def run(trace=None, argv=argv, out=out, i=i, probes=probes):
            probing = trace is None and probe is not None and probe.running
            child = [sys.executable, os.path.join(HERE, "cli_child.py")]
            if trace is not None:
                cmd = child + ["--spans", trace, "--op", str(i), "--"] + argv
            elif probing:
                cmd = child + ["--probes", probes, "--"] + argv
                probe.stop()
            else:
                cmd = [sys.executable, "-m", "borno.cli"] + argv
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=150)
            finally:
                if probing:
                    probe.start()
            if probing and os.path.exists(probes):
                with open(probes) as fh:
                    probe.samples.extend(tuple(s) for s in json.load(fh))
                os.remove(probes)
            try:
                with open(out) as fh:
                    text = fh.read()
                os.remove(out)
            except OSError:
                text = None
            return proc.returncode, text

        def check(result, name=name):
            if not expected:
                expected.update(cli_expected(spec["instances"]))
            code, text = result
            if text is None:
                return False, True
            verdicts, want_code = expected[name]
            return (code == want_code
                    and json.loads(text).get("verdicts") == verdicts), True

        ops.append(Op(name, run, check))
    return ops


INPUTS = {"cli-fixtures": cli_inputs, "jsr-sweep": jsr_inputs,
          "hull-certify": hull_inputs, "seq-decide": seq_inputs}
BUILDERS = {"cli-fixtures": cli_ops, "jsr-sweep": jsr_ops,
            "hull-certify": hull_ops, "seq-decide": seq_ops}


def make_inputs(workload, seed):
    return INPUTS[workload](seed)


def build_ops(workload, spec, workdir, probe=None):
    """The workload's ops; ``probe`` is the worker's host-speed probe."""
    if workload == "cli-fixtures":
        return cli_ops(spec, workdir, probe)
    return BUILDERS[workload](spec, workdir)
