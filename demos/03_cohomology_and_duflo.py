"""Weight-sliced cohomology and the windowed Duflo-type check.

The equivariant cochain complexes decompose into finite-dimensional
exact subcomplexes by weight, so each slice is a finite linear-algebra
problem over Q.  This script prints the nonzero cohomology of the
flagship scenario on both sides, confirms the HKR comparison, and runs
the twisted-HKR multiplicativity check on every pair of classes in the
stable window.

Run with:  python demos/03_cohomology_and_duflo.py  (about a second)
"""

from importlib import resources

from gman.cohomology import Workspace, cohomology_report, duflo_check, hkr_check
from gman.scenario import load_scenario


def main():
    text = resources.files("gman.data").joinpath("paper_sec4.json").read_text()
    s = load_scenario(text)

    # Build both workspaces once; every later call reuses their columns.
    tp = Workspace(s, "tpoly")
    dp = Workspace(s, "dpoly")

    rep = cohomology_report(s, "tpoly", workspace=tp)
    print("nonzero cohomology (polyvector side):")
    for e in rep["slices"]:
        if e["dim_H"]:
            print(f"  weight {e['weight']:+d}, total degree "
                  f"{e['total_degree']:+d}: dim H = {e['dim_H']}")
    print("order-cap stable:", rep["all_stable"])

    match = hkr_check(s, tp=tp, dp=dp)
    print("\nHKR comparison:")
    print("  dimensions match on both sides:", match["dimensions_match"])
    print("  hkr injective on cohomology:", match["hkr_injective_on_H"])

    # Twist HKR by the square root of the Todd cocycle and check that
    # cup products and Gerstenhaber brackets of classes are respected
    # up to coboundaries, pair by pair.
    dc = duflo_check(s, tp=tp, dp=dp)
    print(f"\nDuflo-type window check: {dc['classes']} classes, "
          f"{dc['pairs_checked']} pairs")
    print("  all products and brackets reduce to zero:", dc["all_reduce"])

    plain = duflo_check(s, use_todd=False, tp=tp, dp=dp)
    print("  untwisted comparison (hkr alone):", plain["all_reduce"])


if __name__ == "__main__":
    main()
