"""Span tracer for the traced benchmark run.

The program is not instrumented: the tracer replaces borno's public entry
points with timing wrappers from outside, at every binding they are looked
up through (module globals, from-imports, the package namespace, class
attributes).  Coarse entry points keep one span per call; the hot kernels
aggregate count and self time per (op, parent) so that overhead stays
bounded.  Self time is a span's duration minus the time its child spans
cover.  Calls are single-threaded and properly nested, so the children of a
span never overlap and their durations simply add up.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time

perf = time.perf_counter


def _result_len(attr=None):
    def extra(result):
        return len(getattr(result, attr) if attr else result)
    return extra


# (span name, module, attribute, extra-from-result)
COARSE_FUNCTIONS = [
    ("cli.run_instance", "borno.cli", "run_instance", None),
    ("serialize.emit_report", "borno.cli", "_emit_report", None),
    ("fixtures.fixture_catalog", "borno.fixtures", "fixture_catalog", None),
    ("maps.multiplicativity_defect", "borno.maps", "multiplicativity_defect",
     None),
    ("isoradial.isoradial_certificate", "borno.isoradial",
     "isoradial_certificate", None),
    ("isoradial.sample_bounded_sets", "borno.isoradial", "sample_bounded_sets",
     _result_len()),
    ("approx_mult.apple_certificate", "borno.approx_mult", "apple_certificate",
     None),
    ("approx_mult.sigma_approximation_check", "borno.approx_mult",
     "sigma_approximation_check", None),
    ("approx_mult.linear_homotopy_certificate", "borno.approx_mult",
     "linear_homotopy_certificate", _result_len("t_grid")),
    ("jsr.jsr_estimate", "borno.jsr", "jsr_estimate", None),
    ("jsr.submultiplicative_hull", "borno.jsr", "submultiplicative_hull",
     lambda cert: len(cert.hull.generators)),
    ("algebra.gauge", "borno.algebra", "gauge", None),
    ("algebra.linprog", "borno.algebra", "linprog", None),
    ("seqspace.cauchy_check", "borno.seqspace", "cauchy_check", None),
    ("seqspace.convergence_check", "borno.seqspace", "convergence_check",
     None),
    ("finrank.uniform_convergence_on_set", "borno.finrank",
     "uniform_convergence_on_set", None),
    ("finrank.pointwise_vs_uniform_check", "borno.finrank",
     "pointwise_vs_uniform_check", None),
    ("finrank.local_approx_property_check", "borno.finrank",
     "local_approx_property_check", None),
]

SERIALIZE_FUNCTIONS = [
    "descriptor_to_json", "descriptor_from_json", "element_data_to_json",
    "element_data_from_json", "element_to_json", "element_from_json",
    "bounded_set_to_json", "bounded_set_from_json", "disk_to_json",
    "disk_from_json", "map_to_json", "map_from_json", "vector_to_json",
    "vector_from_json", "model_space_to_json", "model_space_from_json",
    "sequence_to_json", "sequence_from_json", "eps_from_json",
    "canonical_json", "instance_digest",
]

HOT_FUNCTIONS = [
    ("algebra.multiply", "borno.algebra", "multiply"),
    ("algebra.norm", "borno.algebra", "norm"),
    ("algebra.spectral_radius_single", "borno.algebra",
     "spectral_radius_single"),
    ("seqspace.gauge_value", "borno.seqspace", "gauge_value"),
    ("closedforms.sum_poly_geom", "borno.closedforms", "sum_poly_geom"),
    ("closedforms.sum_shift_poly_geom", "borno.closedforms",
     "sum_shift_poly_geom"),
    ("closedforms.geom_poly_sup", "borno.closedforms", "geom_poly_sup"),
]

# (span name, module, class, method)
HOT_METHODS = [
    ("algebra.element_init", "borno.algebra", "AlgebraElement", "__init__"),
    ("seqspace.at", "borno.seqspace", "SequenceModel", "at"),
    ("closedforms.weight_value", "borno.closedforms", "WeightForm", "value"),
    ("closedforms.eps_ge_value", "borno.closedforms", "EpsForm", "ge_value"),
    ("closedforms.eps_le_value", "borno.closedforms", "EpsForm", "le_value"),
    ("closedforms.eps_ratio_at_least", "borno.closedforms", "EpsForm",
     "ratio_at_least"),
    ("closedforms.envelope_value", "borno.closedforms", "Envelope", "value"),
    ("closedforms.envelope_dominated_from", "borno.closedforms", "Envelope",
     "dominated_from"),
    ("closedforms.envterm_value", "borno.closedforms", "EnvTerm", "value"),
]


class Tracer:
    """In-memory span store; ``op`` tags every span with the current op id."""

    def __init__(self):
        self.op = None
        self.spans = []   # (id, name, start, end, parent id, op, self s, extra)
        self.hot = {}     # (op, name, parent name) -> [count, self s]
        self._stack = []
        self._ids = itertools.count(1)
        self._restore = []

    def _wrap(self, name, fn, hot, extra=None):
        stack = self._stack
        ids = self._ids
        spans = self.spans
        agg = self.hot
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, None if hot else next(ids), 0.0]
            stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self_time = duration - frame[2]
                if hot:
                    key = (tracer.op, name, parent[0] if parent else None)
                    rec = agg.get(key)
                    if rec is None:
                        agg[key] = [1, self_time]
                    else:
                        rec[0] += 1
                        rec[1] += self_time
                else:
                    spans.append((frame[1], name, start, end,
                                  parent[1] if parent else None, tracer.op,
                                  self_time,
                                  extra(result) if extra and result is not None
                                  else None))

        return wrapper

    def _rebind(self, original, wrapper):
        """Replace ``original`` at every borno module binding."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "borno"
                                      or modname.startswith("borno.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        """Wrap every traced entry point; returns the tracer."""
        functions = [(n, m, a, False, x) for n, m, a, x in COARSE_FUNCTIONS]
        functions += [(f"serialize.{a}", "borno.serialize", a, False, None)
                      for a in SERIALIZE_FUNCTIONS]
        functions += [(n, m, a, True, None) for n, m, a in HOT_FUNCTIONS]
        for name, modname, attr, hot, extra in functions:
            original = getattr(importlib.import_module(modname), attr)
            self._rebind(original, self._wrap(name, original, hot, extra))
        for name, modname, cls_name, method in HOT_METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original, True))
            self._restore.append((cls, method, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self):
        """JSON-ready copy of everything recorded."""
        return {"spans": [list(s) for s in self.spans],
                "hot": [[op, name, parent, c, t]
                        for (op, name, parent), (c, t) in self.hot.items()]}


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

def is_time(metric):
    """Per-layer metric names ending in ``_s`` or ``.s`` are seconds."""
    return metric.endswith(("_s", ".s"))


# layer of a span name, for the self-time breakdown
def layer_of(name):
    if name.startswith("serialize."):
        return "serialize"
    if name == "jsr.submultiplicative_hull":
        return "jsr hull"
    if name == "jsr.jsr_estimate":
        return "jsr search"
    if name in ("algebra.gauge", "algebra.linprog"):
        return "algebra gauge/LP"
    if name.startswith("algebra."):
        return "algebra kernels"
    return name.split(".", 1)[0]


LAYERS = ["cli", "serialize", "fixtures", "maps", "isoradial", "approx_mult",
          "jsr search", "jsr hull", "algebra kernels", "algebra gauge/LP",
          "seqspace", "closedforms", "finrank"]


def inclusive(spans, name):
    """(calls, inclusive seconds) of the outermost spans called ``name``."""
    by_id = {s[0]: s for s in spans}
    calls = 0
    total = 0.0
    for s in spans:
        if s[1] != name:
            continue
        calls += 1
        parent = s[4]
        nested = False
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                break
            if p[1] == name:
                nested = True
                break
            parent = p[4]
        if not nested:
            total += s[3] - s[2]
    return calls, total


def raw_layer_values(spans, hot):
    """Counts and times of one pass's spans, keyed by per-layer metric name."""
    def self_of(*names):
        return sum(s[6] for s in spans if s[1] in names)

    def hot_count(name, parent=None):
        return sum(c for (_op, n, p, c, _t) in hot
                   if n == name and (parent is None or p == parent))

    def hot_self(prefix):
        return sum(t for (_op, n, _p, _c, t) in hot if n.startswith(prefix))

    def extra_sum(name):
        return sum(s[7] or 0 for s in spans if s[1] == name)

    v = {}
    v["cli.run_instance_self_s"] = self_of("cli.run_instance")
    v["serialize.s"] = sum(s[6] for s in spans if s[1].startswith("serialize."))
    v["fixtures.catalog_calls"], v["fixtures.catalog_s"] = inclusive(
        spans, "fixtures.fixture_catalog")
    v["maps.mult_defect_calls"], v["maps.mult_defect_s"] = inclusive(
        spans, "maps.multiplicativity_defect")
    v["isoradial.sets_sampled"] = extra_sum("isoradial.sample_bounded_sets")
    v["isoradial.self_s"] = self_of("isoradial.isoradial_certificate",
                                    "isoradial.sample_bounded_sets")
    v["approx_mult.sigma_rates_s"] = inclusive(
        spans, "approx_mult.sigma_approximation_check")[1]
    v["approx_mult.homotopy_s"] = inclusive(
        spans, "approx_mult.linear_homotopy_certificate")[1]
    v["approx_mult.homotopy_points"] = extra_sum(
        "approx_mult.linear_homotopy_certificate")
    v["jsr.estimate_calls"], v["jsr.estimate_s"] = inclusive(
        spans, "jsr.jsr_estimate")
    v["jsr.words"] = hot_count("algebra.spectral_radius_single",
                               "jsr.jsr_estimate")
    v["jsr.estimate_self_s"] = self_of("jsr.jsr_estimate")
    v["jsr.hull_calls"], v["jsr.hull_s"] = inclusive(
        spans, "jsr.submultiplicative_hull")
    v["jsr.hull_generators"] = extra_sum("jsr.submultiplicative_hull")
    v["jsr.hull_self_s"] = self_of("jsr.submultiplicative_hull")
    v["algebra.elements_built"] = hot_count("algebra.element_init")
    v["algebra.elements_s"] = hot_self("algebra.element_init")
    v["algebra.multiply_calls"] = hot_count("algebra.multiply")
    v["algebra.multiply_s"] = hot_self("algebra.multiply")
    v["algebra.norm_calls"] = hot_count("algebra.norm")
    v["algebra.norm_s"] = hot_self("algebra.norm")
    v["algebra.specrad_calls"] = hot_count("algebra.spectral_radius_single")
    v["algebra.specrad_s"] = hot_self("algebra.spectral_radius_single")
    v["algebra.gauge_calls"], v["algebra.gauge_s"] = inclusive(
        spans, "algebra.gauge")
    v["algebra.lp_calls"], v["algebra.lp_s"] = inclusive(
        spans, "algebra.linprog")
    v["seqspace.decide_calls"] = sum(
        inclusive(spans, n)[0]
        for n in ("seqspace.cauchy_check", "seqspace.convergence_check"))
    v["seqspace.decide_self_s"] = self_of("seqspace.cauchy_check",
                                          "seqspace.convergence_check")
    v["seqspace.at_calls"] = hot_count("seqspace.at")
    v["seqspace.at_s"] = hot_self("seqspace.at")
    v["seqspace.gauge_value_calls"] = hot_count("seqspace.gauge_value")
    v["seqspace.gauge_value_s"] = hot_self("seqspace.gauge_value")
    v["closedforms.calls"] = sum(c for (_o, n, _p, c, _t) in hot
                                 if n.startswith("closedforms."))
    v["closedforms.s"] = hot_self("closedforms.")
    v["finrank.uniform_s"] = inclusive(
        spans, "finrank.uniform_convergence_on_set")[1]
    v["finrank.pointwise_s"] = inclusive(
        spans, "finrank.pointwise_vs_uniform_check")[1]
    v["finrank.property_s"] = inclusive(
        spans, "finrank.local_approx_property_check")[1]
    return v


def layer_self_times(spans, hot):
    """Self seconds per layer (see :func:`layer_of`)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, self_s in ([(s[1], s[6]) for s in spans]
                         + [(h[1], h[4]) for h in hot]):
        out[layer_of(name)] += self_s
    return out
