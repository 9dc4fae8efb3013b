#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept as BENCH_<label>.json.

    python3 scripts/bench_pairs.py --label addmul --what "one line" --seed 7 \\
        --seconds 40 --pairs sl2-axioms=10 line-duflo=5 sec4-chain=5

Run from anywhere inside a gman checkout.  Both sides run from fresh
temporary directories, removed afterwards, so neither finds compiled
bytecode the other lacks.  The change side is a copy of the working
tree's tracked and unignored files.  The parent side is the committed
tree of ``--parent`` (default ``HEAD``, the commit an uncommitted change
sits on; pass ``HEAD~1`` once the change is committed), extracted with
``git archive``.  Each side runs ``perfbench/run.py --trace 0`` from its
own tree, one run at a time.  A pair is one run per side; the side that
goes first alternates from pair to pair, so slow drift of the machine's
speed falls on both sides alike.

The file records every run's last standard-output line and, for each
end-to-end metric of BENCHMARK.json, each side's median and quartiles
and the number of pairs the change won.  It also records each side's
line count of ``src/gman/*.py``, since set-up time includes compiling
the sources where no bytecode is cached, and, for each workload, the
per-layer metrics of one ``--trace 1`` run per side after its pairs,
which show where the time went.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, into: Path) -> None:
    """The committed files of rev, as a fresh directory tree."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(into, filter="data")


def snapshot(into: Path) -> None:
    """The working tree's tracked and unignored files, copied."""
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        if name and (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def source_lines(tree: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (tree / "src" / "gman").glob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        ps, cs = summary(par), summary(chg)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": ps,
            "change": cs,
            "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "median_change_pct": (cs["median"] / ps["median"] - 1) * 100,
            "median_gap_exceeds_parent_iqr":
                abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line: what the change does")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    args = parser.parse_args()
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = git("rev-parse", args.parent).decode().strip()

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent, sides["parent"])
        snapshot(sides["change"])
        lines = {side: source_lines(tree) for side, tree in sides.items()}
        for workload, n in plan:
            pairs = []
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], workload, args.seed, args.seconds)
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1}/{n} {side}: wall_s {wall:.3f}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            traced = {side: run(sides[side], workload, args.seed, args.seconds, trace=1)
                      for side in ("parent", "change")}
            results[workload] = {
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "failed": sum(p[s]["failed"] for p in pairs for s in ("parent", "change")),
                "summary": summarise(pairs, bench["end_to_end"]),
                "runs": pairs,
                "traced": traced,
            }

    doc = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": parent,
        "src_gman_lines": lines,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "os": f"{platform.system()} {platform.machine()}"},
        "protocol": "alternating pairs, one run per side each, the first side alternating "
                    "from pair to pair; each side from a fresh directory, the parent's "
                    "committed tree and a copy of the change's working tree; quartiles "
                    "inclusive; a win is a strictly better value",
        "results": results,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
