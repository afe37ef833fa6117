"""One benchmark process: set up, run the timed closed loop, check outputs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE MODE WORKDIR OUT

Started by run.py as a fresh interpreter with ``src`` on PYTHONPATH.  Set-up
is ``import borno``, input generation and one untimed warm-up op; the worker
then prints ``READY`` (run.py times set-up up to that line).  MODE ``setup``
stops there.  MODE ``run`` goes on with the timed phase, untraced or traced,
and checks every output outside the timed region.  Either way the worker
writes its result as JSON to OUT, with the host-speed probes it took (see
hostspeed.py); run.py turns times into full-speed times with them.

The timed phase is one client in a closed loop: ops run one at a time, in
the fixed order of the generated inputs.  One pass runs every op once; whole
passes repeat while the next one is due to end within SECONDS, so every run
measures the same mix of ops.  A traced run first times one untraced pass as
the base, then runs whole traced passes the same way, within the same
SECONDS, without probes.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

perf = time.perf_counter

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_op(op, trace=None):
    """(output, error text); an exception is an op failure, never fatal."""
    try:
        return (op.run(trace) if trace is not None else op.run()), None
    except Exception:  # recorded and counted as a failed op
        return None, traceback.format_exc(limit=3)


class Checker:
    """Checks outputs after the timed phase; a repeat equal to an already
    checked output of the same op reuses its verdict."""

    def __init__(self, ops):
        self.ops = ops
        self.seen = {}
        self.failed = 0
        self.decided = 0
        self.failures = []

    def add(self, index, output, error):
        if error is None:
            prior = self.seen.get(index)
            if prior is not None and prior[0] == output:
                ok, decided = prior[1]
            else:
                try:
                    ok, decided = self.ops[index].check(output)
                except Exception:  # a check that crashes rejects the output
                    ok, decided = False, True
                    error = traceback.format_exc(limit=3)
                if prior is None:
                    self.seen[index] = (output, (ok, decided))
        else:
            ok, decided = False, True
        self.decided += bool(ok and decided)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"op": self.ops[index].name,
                                      "error": error or "output check failed"})


def percentile(values, q):
    """q-th percentile, statistics.quantiles(n=100, method='inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_phase(ops, seconds, in_process):
    records = []
    intervals = []
    start = perf()
    while True:
        pass_start = perf()
        for index, op in enumerate(ops):
            a = perf()
            output, error = run_op(op)
            intervals.append((a, perf()))
            records.append((index, output, error))
        now = perf()
        # whole passes only, so that every run measures the same mix; another
        # pass starts only if it is due to end within SECONDS
        if now - start + (now - pass_start) > seconds:
            break
    elapsed = perf() - start
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_kb = resource.getrusage(who).ru_maxrss
    checker = check_all(ops, records)
    certified = sum(1 for _i, out, _e in records
                    if getattr(out, "status", None) == "certified")
    ms = [(b - a) * 1000.0 for a, b in intervals]
    per_op = {}
    for (index, _out, _err), x in zip(records, ms):
        per_op.setdefault(ops[index].name, []).append(round(x, 3))
    return {
        "attempted": len(records),
        "failed": checker.failed,
        "failures": checker.failures,
        "decided": checker.decided,
        "certified": certified,
        "elapsed_s": elapsed,
        "passes": len(records) // len(ops),
        "op_intervals": intervals,
        "ops_per_s_wall": (len(records) - checker.failed) / elapsed,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 90),
        "latency_samples": len(ms),
        "peak_rss_mb": peak_kb / 1024.0,
        "op_latency_ms": per_op,
    }


def check_all(ops, records):
    checker = Checker(ops)
    for index, output, error in records:
        checker.add(index, output, error)
    return checker


def traced_cli_op(op, path, instances):
    """Run one traced CLI child; (record, spans, hot, import seconds)."""
    from tracing import inclusive
    t = perf()
    output, error = run_op(op, trace=path)
    wall = perf() - t
    if not os.path.exists(path):  # the child died before writing its spans
        return (output, error), [], [], 0.0
    with open(path) as fh:
        child = json.load(fh)
    os.remove(path)
    instances.setdefault(op.name, []).append({
        "wall_s": wall, "import_s": child["import_s"],
        "catalog_s": inclusive(child["spans"], "fixtures.fixture_catalog")[1]})
    return (output, error), child["spans"], child["hot"], child["import_s"]


def traced_phase(workload, seed, ops, seconds, workdir, import_s):
    from tracing import Tracer, is_time, layer_self_times, raw_layer_values
    in_process = workload != "cli-fixtures"
    start = perf()
    for op in ops:
        run_op(op)
    base_pass_s = perf() - start

    records = []
    passes = []
    instances = {}
    tracer = Tracer().install() if in_process else None
    try:
        while True:
            t = perf()
            spans, hot, child_imports = [], [], 0.0
            for index, op in enumerate(ops):
                if in_process:
                    tracer.op = index
                    records.append((index, *run_op(op)))
                    continue
                path = os.path.join(workdir, f"spans-{len(passes)}-{index}.json")
                out, op_spans, op_hot, op_import = traced_cli_op(op, path,
                                                                 instances)
                records.append((index, *out))
                spans += op_spans
                hot += op_hot
                child_imports += op_import
            wall = perf() - t
            if in_process:
                record = tracer.dump()
                spans, hot = record["spans"], record["hot"]
                tracer.spans.clear()
                tracer.hot.clear()
            passes.append({"wall_s": wall, "spans": spans, "hot": hot,
                           "import_s": import_s if in_process
                           else child_imports})
            # the base pass counts against SECONDS too; a further traced
            # pass starts only if it is due to end within them
            if perf() - start + wall > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    checker = check_all(ops, records)

    per_pass = [raw_layer_values(p["spans"], p["hot"]) for p in passes]
    layers = {}
    counts_repeat = True
    for name in per_pass[0]:
        vals = [v[name] for v in per_pass]
        if is_time(name):
            layers[name] = sum(vals) / len(vals)
        else:
            layers[name] = vals[0]
            counts_repeat &= all(v == vals[0] for v in vals)
    pass_s = sum(p["wall_s"] for p in passes) / len(passes)
    layers["cli.import_s"] = sum(p["import_s"] for p in passes) / len(passes)
    layers["trace.pass_s"] = pass_s
    layers["trace.base_pass_s"] = base_pass_s
    layers["trace.overhead_ratio"] = pass_s / base_pass_s
    self_times = [layer_self_times(p["spans"], p["hot"]) for p in passes]
    layer_self = {k: sum(s[k] for s in self_times) / len(self_times)
                  for k in self_times[0]}
    if not in_process:
        layer_self["cli import"] = layers["cli.import_s"]

    trace_dir = os.path.join(".perfbench_out", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    with open(trace_file, "w") as fh:
        json.dump(passes, fh)
    return {
        "attempted": len(records),
        "failed": checker.failed,
        "failures": checker.failures,
        "decided": checker.decided,
        "passes": len(passes),
        "counts_repeat": counts_repeat,
        "layers": layers,
        "layer_self_s": layer_self,
        "instances": {k: {f: sum(r[f] for r in v) / len(v) for f in v[0]}
                      for k, v in instances.items()},
        "trace_file": trace_file,
    }


def main(argv):
    workload, seed, seconds, trace, mode, workdir, out_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed
    probe = hostspeed.Probe().start()
    t = perf()
    import borno  # noqa: F401  (timed: part of set-up)
    import_s = perf() - t
    import workloads

    ops = workloads.build_ops(workload, workloads.make_inputs(workload, seed),
                              workdir, probe)
    run_op(ops[0])  # untimed warm-up
    print("READY", flush=True)
    result = {}
    if mode == "run":
        if trace:
            probe.stop()  # the traced run reports raw times
            result = traced_phase(workload, seed, ops, seconds, workdir,
                                  import_s)
        else:
            result = timed_phase(ops, seconds, workload != "cli-fixtures")
        result.update(workload=workload, seed=seed, import_s=import_s,
                      n_ops=len(ops), environment=environment())
    probe.stop()
    result["probes"] = probe.samples
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
