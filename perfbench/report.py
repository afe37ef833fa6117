"""Run every workload and print its metrics by name, with units.

    python3 perfbench/report.py            # end-to-end metrics, untraced
    python3 perfbench/report.py --trace    # per-layer self-time shares

Run from the root of a borno checkout.  Each workload runs as its own
``perfbench/run.py`` process; results are read back from
``.perfbench_out/results/``.  The traced report gives each layer's self time
as a share of the traced pass, the tracing overhead as the ratio of the
traced pass to the untraced base pass (both shown), and, for cli-fixtures,
how much of each isoradial/apple instance process went to ``import borno``
and to ``fixture_catalog()``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from tracing import LAYERS  # noqa: E402


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")


def run_workload(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")


def print_end_to_end(record):
    w = record["workload"]
    for name, m in {**record["metrics"], **record["reported"]}.items():
        extra = "".join(f" {k}={m[k]}" for k in ("samples", "percentile")
                        if k in m)
        print(f"{w:13s} {name:12s} {m['value']:12.6g} {m['unit']:5s}{extra}")
    for name, value in record["shares"].items():
        print(f"{w:13s} {name:16s} {value:8.4f}  of {record['attempted']} ops")


def print_layers(record):
    w = record["workload"]
    layers = {k: m["value"] for k, m in record["metrics"].items()}
    pass_s = layers["trace.pass_s"]
    self_s = record["layer_self_s"]
    print(f"\n{w}: traced pass {pass_s:.3f} s, untraced base pass "
          f"{layers['trace.base_pass_s']:.3f} s, overhead ratio "
          f"{layers['trace.overhead_ratio']:.3f} ({record['passes']} traced "
          f"passes; counts repeat: {record['counts_repeat']})")
    names = [n for n in LAYERS + ["cli import"] if n in self_s]
    for name in sorted(names, key=lambda n: -self_s[n]):
        if self_s[name] > 0:
            print(f"  {name:18s} {self_s[name]:9.4f} s  "
                  f"{100 * self_s[name] / pass_s:6.2f} %")
    rest = pass_s - sum(self_s[n] for n in names)
    print(f"  {'unattributed':18s} {rest:9.4f} s  {100 * rest / pass_s:6.2f} %"
          "  (benchmark loop, process start/exit, untraced code)")
    for name, inst in record.get("instances", {}).items():
        share = (inst["import_s"] + inst["catalog_s"]) / inst["wall_s"]
        print(f"  instance {name:20s} process {inst['wall_s']:.3f} s: "
              f"import {inst['import_s']:.3f} s + fixture_catalog "
              f"{inst['catalog_s']:.3f} s = {100 * share:.1f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        run_workload(workload, args.seed, args.seconds, args.trace)
        with open(result_path(workload, args.seed, args.trace)) as fh:
            record = json.load(fh)
        (print_layers if args.trace else print_end_to_end)(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
