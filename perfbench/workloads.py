"""The benchmark's workloads: which gman invocations make up one round.

Each workload stresses a different layer, so that an optimisation of one
layer shows on one workload and predicts "no change" on another (see
README.md for the layer -> workload table).  Caps and counts are chosen
so that one round takes seconds, not minutes, on a 2-core machine.
"""

from __future__ import annotations

WHY = {
    "sl2-cohomology": "cohomology sl2_linear at caps 1,3,3: column assembly dominated "
                      "by the CE action term, plus the order-(N+1) audit and HKR match",
    "sec4-chain": "atiyah, todd and duflo-check on paper_sec4, then cohomology at caps "
                  "6,4,5: the paper's scenario, column assembly dominated by Hochschild",
    "line-duflo": "duflo-check abelian_trivial at caps 24,4,4 with 4000 sampled pairs: "
                  "cup, bracket, HKR, contract and image membership; no order audit",
    "sl2-axioms": "axioms sl2_linear, the same 80 cases in every run: bracket arithmetic "
                  "through checks, never enters Workspace or linalg",
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The gman command lines (without --json) of one round."""
    s = str(seed)
    if workload == "sl2-cohomology":
        return [["cohomology", "sl2_linear", "--caps", "1,3,3"]]
    if workload == "sec4-chain":
        return [["atiyah", "paper_sec4"],
                ["todd", "paper_sec4"],
                ["duflo-check", "paper_sec4", "--seed", s],
                ["cohomology", "paper_sec4", "--caps", "6,4,5"]]
    if workload == "line-duflo":
        return [["duflo-check", "abelian_trivial", "--caps", "24,4,4",
                 "--sample-cap", "4000", "--seed", s]]
    if workload == "sl2-axioms":
        # The cost of 80 random cases ranged over 3-8 s across seeds 1-10, far
        # beyond any timing bound, so every run draws the same cases: gman's
        # default seed 0.
        return [["axioms", "sl2_linear", "--cases", "80", "--seed", "0"]]
    raise KeyError(workload)


def inputs(argvs: list[list[str]]) -> list[tuple[str, str | None]]:
    """Distinct (bundled scenario, --caps) pairs the invocations load."""
    out = []
    for argv in argvs:
        caps = argv[argv.index("--caps") + 1] if "--caps" in argv else None
        if (argv[1], caps) not in out:
            out.append((argv[1], caps))
    return out
