"""Stand-in for ``python -m borno.cli``: one CLI process of cli-fixtures.

    python3 perfbench/cli_child.py --probes OUT.json -- run --input ...
    python3 perfbench/cli_child.py --spans OUT.json --op N -- run --input ...

Calls ``borno.cli.main`` with the arguments after ``--`` and exits with the
CLI's own exit code, as ``-m borno.cli`` does.  With ``--probes`` it runs
the host-speed probe (hostspeed.py) from before ``import borno`` to exit and
writes the probes to OUT.json.  With ``--spans`` it times ``import borno``,
installs the benchmark's wrappers and writes the recorded spans to OUT.json
once, at exit.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def option(opts, name):
    return opts[opts.index(name) + 1] if name in opts else None


def main():
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    probes_path = option(opts, "--probes")
    spans_path = option(opts, "--spans")
    if probes_path:
        import hostspeed
        probe = hostspeed.Probe().start()

    start = time.perf_counter()
    import borno.cli
    import_s = time.perf_counter() - start

    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer().install()
        tracer.op = int(option(opts, "--op"))
    try:
        return borno.cli.main(argv)
    finally:
        if probes_path:
            probe.stop()
            with open(probes_path, "w") as fh:
                json.dump(probe.samples, fh)
        if tracer is not None:
            tracer.uninstall()
            record = tracer.dump()
            record["import_s"] = import_s
            with open(spans_path, "w") as fh:
                json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
