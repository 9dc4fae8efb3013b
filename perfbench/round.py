"""One round of a workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N [--setup-only] [--trace-out FILE]

Imports gman from the checkout's ``src/``, builds and validates the
workload's inputs, runs every invocation of the round through
``gman.cli.main`` with ``--json`` (stdout captured), and prints one JSON
line: setup and wall times, peak resident memory, exit codes and reports.
With ``--trace-out`` the round runs under the span tracer and also
reports per-layer metrics and writes its spans to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    import workloads

    argvs = workloads.invocations(args.workload, args.seed)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    cli = importlib.import_module("gman.cli")
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"gman was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        cli = sys.modules["gman.cli"]

    scenario = sys.modules["gman.scenario"]
    t0 = time.perf_counter()
    for name, caps in workloads.inputs(argvs):
        doc = json.loads((SRC / "gman" / "data" / f"{name}.json").read_text())
        if caps is not None:
            doc["caps"] = dict(zip(("max_weight", "max_order", "max_arity"),
                                   map(int, caps.split(","))))
        scenario.load_scenario(doc)
    load_s = time.perf_counter() - t0
    out = {"setup_s": import_s + load_s}

    if not args.setup_only:
        runs = []
        wall = 0.0
        for argv in argvs:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--json"])
            dt = time.perf_counter() - t0
            wall += dt
            runs.append({"argv": argv, "exit": code, "seconds": dt,
                         "report": json.loads(buf.getvalue())})
        out.update(wall_s=wall, invocations=runs)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
