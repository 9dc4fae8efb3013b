"""gman benchmark: time to verdict of the gman command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of gman.  A run first measures
set-up alone in a few fresh interpreters, then repeats whole rounds of
the workload (each in a fresh interpreter, see round.py) for about S
seconds (a round that would end after S is not started), and checks
every report of every round against the oracles in oracles.py.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s, the mean
time to verdict of the run's rounds, and the medians of setup_s and
peak_rss_mb.  The mean, not the median, because the machine's speed
drifts in phases longer than a round, and over a run's rounds the mean
varied less from run to run than the median did.  With --trace 1
untraced and traced rounds alternate; the metrics are the per-layer ones
of the traced rounds (medians) and the tracing overhead against the
untraced rounds, and the spans of the last traced round are written to
perfbench/out/.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9      # set-up-only interpreters per run, besides the rounds
ROUND_TIMEOUT_S = 150


def run_child(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_round(result: dict) -> oracles.Verdict:
    verdict = oracles.Verdict()
    for inv in result["invocations"]:
        verdict.add(oracles.check_invocation(ROOT, inv["argv"], inv["exit"], inv["report"]))
    return verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gman" / "cli.py").is_file():
        print(f"error: no gman sources under {ROOT / 'src'}; run from a gman checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    setups = [run_child(args.workload, args.seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    verdict = oracles.Verdict()
    plain: list[dict] = []
    traced: list[dict] = []
    trace_file = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        tracing = bool(args.trace) and len(traced) < len(plain)
        extra = ("--trace-out", str(trace_file)) if tracing else ()
        if tracing:
            trace_file.parent.mkdir(exist_ok=True)
        result = run_child(args.workload, args.seed, *extra)
        v = check_round(result)
        verdict.add(v)
        (traced if tracing else plain).append(result)
        if not tracing:
            setups.append(result["setup_s"])
        print(f"round {len(plain) + len(traced)}{' traced' if tracing else ''}: "
              f"wall {result['wall_s']:.3f} s, setup {result['setup_s']:.4f} s, "
              f"{v.attempted} operations, {v.failed} failed, {len(v.problems)} problems",
              file=sys.stderr)
        durations.append(time.perf_counter() - t0)
        next_end = time.perf_counter() - start + statistics.median(durations)
        if next_end > args.seconds and (traced or not args.trace):
            break
    for problem in verdict.problems[:20]:
        print(f"INCORRECT: {problem}", file=sys.stderr)

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith("_share") else "count"

    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit(name)} for name in traced[0]["layers"]}
        overhead = (statistics.mean(r["wall_s"] for r in traced)
                    / statistics.mean(r["wall_s"] for r in plain) - 1) * 100
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": statistics.mean(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not verdict.problems, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
