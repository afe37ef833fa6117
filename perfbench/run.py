"""borno benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload jsr-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a borno checkout; the program is used from ``src``
as it is, with nothing installed.  Untraced (``--trace 0``) the run reports
the end-to-end metrics; traced (``--trace 1``) it reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result file
goes to ``.perfbench_out/results/``.  See perfbench/README.md.

Set-up is timed SETUP_SAMPLES times per run, each in a fresh interpreter
(the last one is the worker that goes on to the timed phase), and the
median is reported.  Set-up and op times are full-speed times: wall time
scaled by the host-speed probes the workers took (see hostspeed.py).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import hostspeed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"



def metric_units():
    """({end-to-end name: unit}, {per-layer name: unit}) from BENCHMARK.json."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class WorkerError(RuntimeError):
    pass


def _kill_group(proc):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def spawn_worker(workload, seed, seconds, trace, mode, workdir, deadline):
    """Run worker.py in a fresh interpreter; (set-up start, end, result)."""
    out_path = os.path.join(workdir, f"result-{mode}.json")
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(seconds), str(int(trace)), mode, workdir, out_path]
    start = time.perf_counter()
    # own process group: on any exit path the worker and its CLI children are
    # killed together and waited for
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            _kill_group, (proc,))
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if line.strip() != "READY":
            raise WorkerError(f"{workload} worker failed during set-up")
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{workload} worker exited with code {code}")
    with open(out_path) as fh:
        return start, ready, json.load(fh)


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR)
    try:
        workers = [spawn_worker(workload, seed, seconds, trace, mode, workdir,
                                deadline)
                   for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = workers[-1][2]
    setups = [hostspeed.full_speed_s(start, ready,
                                     [tuple(p) for p in r["probes"]])
              for start, ready, r in workers]
    setups_wall = [ready - start for start, ready, _r in workers]

    attempted, failed = result["attempted"], result["failed"]
    end_to_end, per_layer = metric_units()
    reported = {}
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit,
                          "samples": result["passes"]}
                   for name, unit in per_layer.items()}
    else:
        probes = [tuple(p) for p in result["probes"]]
        busy_s = sum(hostspeed.full_speed_s(a, b, probes)
                     for a, b in result["op_intervals"])
        values = dict(result, setup_s=statistics.median(setups),
                      ops_per_s=(attempted - failed) / busy_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end.items()}
        metrics["setup_s"]["samples"] = len(setups)
        metrics["ops_per_s"]["samples"] = attempted
        metrics["peak_rss_mb"]["samples"] = 1
        # reported with their sample counts, not gated (see README: Noise)
        reported = {name: {"value": result[name], "unit": "ms",
                           "samples": result["latency_samples"],
                           "percentile": q}
                    for name, q in (("op_p50_ms", 50), ("op_p90_ms", 90))}
    shares = {"failed_share": failed / attempted}
    if workload == "jsr-sweep" and not trace:
        shares["certified_share"] = result["certified"] / attempted
    if workload == "seq-decide":
        shares["decided_share"] = result["decided"] / attempted
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": git_commit(),
        "percentile_method": "statistics.quantiles(n=100, method='inclusive')",
        "setup_samples_s": setups,
        "setup_samples_wall_s": setups_wall,
        "probe_fast_s": hostspeed.fast_probe_s(
            [p for *_, r in workers for p in r["probes"]]),
        "probe_count": len(result["probes"]),
        "metrics": metrics, "reported": reported, "shares": shares,
        **{k: v for k, v in result.items()
           if k not in ("layers", "probes", "op_intervals")},
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join("src", "borno", "__init__.py")):
        print("perfbench: no src/borno here; run from the root of a borno "
              "checkout", file=sys.stderr)
        return 2
    try:
        record, path = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (WorkerError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in {**record["metrics"], **record["reported"]}.items():
        extra = "".join(f" {k}={m[k]}" for k in ("samples", "percentile")
                        if k in m)
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{extra}")
    for name, value in record["shares"].items():
        print(f"{args.workload} {name} {value:.4f} (of {record['attempted']} ops)")
    for failure in record["failures"]:
        print(f"failed op {failure['op']}: {failure['error']}", file=sys.stderr)
    print(f"result file: {path}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
