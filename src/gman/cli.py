"""Command-line front end.

Every subcommand loads and fully validates a scenario, runs its
computation, and emits either a one-screen summary or (with --json) a
deterministic JSON report: keys sorted, no timestamps, so identical
invocations are byte-identical.

Exit codes: 0 all checks pass, 1 a mathematical check was falsified
(the witness is in the report), 2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from importlib import resources

from .atiyah import (atiyah_cocycle, invariant_connection_obstruction,
                     is_ce_closed, todd_cocycle, todd_sqrt)
from .calculus import mixed_mul
from .checks import run_axiom_checks
from .cohomology import Workspace, cohomology_report, duflo_check, hkr_check
from .poly import Poly
from .scenario import Caps, Scenario, ScenarioError, load_scenario
from .series import log_todd_generator_series

VERSION = "0.1.0"
BUNDLED = ("paper_sec4", "sl2_linear", "abelian_trivial")


def _read_scenario_text(spec: str) -> str:
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        pass
    if spec in BUNDLED:
        return resources.files("gman.data").joinpath(spec + ".json").read_text()
    raise ScenarioError(f"no such scenario file or bundled name: {spec}")


def _load(args) -> tuple[Scenario, str]:
    text = _read_scenario_text(args.scenario)
    digest = hashlib.sha256(
        json.dumps(json.loads(text), sort_keys=True).encode()).hexdigest()
    s = load_scenario(text)
    if args.caps:
        parts = [int(v) for v in args.caps.split(",")]
        if len(parts) != 3:
            raise ScenarioError("--caps expects max_weight,max_order,max_arity")
        s = replace(s, caps=Caps(parts[0], parts[1], parts[2],
                                 s.caps.max_ce_degree))
    return s, digest


def _serialize_end_cochain(c) -> list:
    out = []
    for idx, tensor in sorted(c.terms.items()):
        for (i, j, k), p in sorted(tensor.terms.items()):
            out.append([list(idx), i, j, k, p.to_json()])
    return out


def _serialize_mixed(c) -> list:
    out = []
    for idx, form in sorted(c.terms.items()):
        for t, p in sorted(form.terms.items()):
            out.append([list(idx), list(t), p.to_json()])
    return out


def _emit(args, report: dict, summary_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in summary_lines:
            print(line)


def _frame(s: Scenario, digest: str, args, results: dict) -> dict:
    return {
        "tool": "gman",
        "version": VERSION,
        "subcommand": args.command,
        "scenario": s.name,
        "scenario_digest": digest,
        "caps": s.caps.to_json(),
        "seed": getattr(args, "seed", None),
        "results": results,
    }


def cmd_validate(s, digest, args) -> tuple[int, dict, list[str]]:
    results = {"valid": True, "dim_g": s.dim_g, "dim_m": s.n,
               "action_weights": list(s.action_weights)}
    return 0, results, [f"scenario {s.name or args.scenario}: valid "
                        f"(dim_g={s.dim_g}, dim_m={s.n})"]


def cmd_axioms(s, digest, args) -> tuple[int, dict, list[str]]:
    results = run_axiom_checks(s, cases=args.cases, seed=args.seed)
    lines = []
    for side in ("tpoly", "dpoly"):
        r = results[side]
        lines.append(f"{side}: {r['passed']}/{r['cases']} passed")
        for f in r["failures"][:5]:
            lines.append(f"  FAILED {f['identity']} at degrees {f['degrees']}")
    return (0 if results["all_passed"] else 1), results, lines


def cmd_atiyah(s, digest, args) -> tuple[int, dict, list[str]]:
    r = atiyah_cocycle(s)
    closed = is_ce_closed(s, r)
    obstruction = invariant_connection_obstruction(s, args.obstruction_weight)
    results = {
        "cocycle": _serialize_end_cochain(r),
        "ce_closed": closed,
        "obstruction": {k: v for k, v in obstruction.items()
                        if k in ("solvable", "certificates", "window")},
    }
    if obstruction["solvable"]:
        results["obstruction"]["invariant_christoffel"] = [
            [k, i, j, p.to_json()]
            for (k, i, j), p in sorted(obstruction["invariant_christoffel"].items())
        ]
    lines = [f"atiyah cocycle: {len(results['cocycle'])} entries, "
             f"closed={closed}"]
    for row in results["cocycle"][:8]:
        lines.append(f"  R(e_{row[0]}, d_{row[1]}) d_{row[2]} -> d_{row[3]}: {row[4]}")
    lines.append(f"invariant connection: "
                 f"{'exists' if obstruction['solvable'] else 'obstructed'}")
    return (0 if closed else 1), results, lines


def cmd_todd(s, digest, args) -> tuple[int, dict, list[str]]:
    r = atiyah_cocycle(s)
    td = todd_cocycle(s, r)
    half = todd_sqrt(s, r)
    square_ok = mixed_mul(half, half) == td
    nterms = min(s.dim_g, s.n) + 1
    coeffs = log_todd_generator_series(max(nterms, 5))
    results = {
        "todd": _serialize_mixed(td),
        "todd_sqrt": _serialize_mixed(half),
        "sqrt_squares_to_todd": square_ok,
        "log_series": [f"{c.numerator}/{c.denominator}" for c in coeffs],
    }
    lines = [f"todd cocycle: {len(results['todd'])} terms; "
             f"sqrt^2 == todd: {square_ok}",
             "log-series coefficients: " + ", ".join(results["log_series"])]
    return (0 if square_ok else 1), results, lines


def cmd_cohomology(s, digest, args) -> tuple[int, dict, list[str]]:
    tp = Workspace(s, "tpoly")
    dp = Workspace(s, "dpoly")
    rep_t = cohomology_report(s, "tpoly", workspace=tp)
    rep_d = cohomology_report(s, "dpoly", workspace=dp)
    match = hkr_check(s, tp=tp, dp=dp)
    results = {"tpoly": rep_t, "dpoly": rep_d, "hkr": match}
    ok = match["dimensions_match"] and match["hkr_injective_on_H"]
    lines = []
    for e in match["slices"]:
        if e["dim_H_tpoly"] or e["dim_H_dpoly"]:
            lines.append(f"  w={e['weight']:+d} k={e['total_degree']:+d}: "
                         f"dim H tpoly={e['dim_H_tpoly']} dpoly={e['dim_H_dpoly']}")
    lines.append(f"hkr dimension match: {match['dimensions_match']}; "
                 f"injective on H: {match['hkr_injective_on_H']}; "
                 f"order-cap stable: {rep_d['all_stable']}")
    return (0 if ok else 1), results, lines


def cmd_duflo(s, digest, args) -> tuple[int, dict, list[str]]:
    tp = Workspace(s, "tpoly")
    dp = Workspace(s, "dpoly")
    twisted = duflo_check(s, seed=args.seed, sample_cap=args.sample_cap,
                          tp=tp, dp=dp)
    plain = duflo_check(s, seed=args.seed, sample_cap=args.sample_cap,
                        use_todd=False, tp=tp, dp=dp)
    results = {"twisted": twisted, "hkr_only": plain}
    lines = [
        f"classes: {twisted['classes']}; pairs checked: {twisted['pairs_checked']}"
        + (" (sampled)" if twisted["sampled"] else " (exhaustive)"),
        f"hkr twisted by td^(1/2): all residuals reduce = {twisted['all_reduce']}",
        f"hkr alone: all residuals reduce = {plain['all_reduce']}",
    ]
    for f in twisted["failures"][:3]:
        lines.append(f"  FAILED pair {f['pair']}")
    return (0 if twisted["all_reduce"] else 1), results, lines


COMMANDS = {
    "validate": cmd_validate,
    "axioms": cmd_axioms,
    "atiyah": cmd_atiyah,
    "todd": cmd_todd,
    "cohomology": cmd_cohomology,
    "duflo-check": cmd_duflo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gman",
        description="Exact symbolic engine for g-manifolds with polynomial data")
    parser.add_argument("--version", action="version", version=f"gman {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "parse and validate a scenario"),
        ("axioms", "run the randomized graded-identity suite"),
        ("atiyah", "Atiyah cocycle and invariant-connection obstruction"),
        ("todd", "Todd cocycle, its square root, and the log series"),
        ("cohomology", "weight-sliced cohomology on both sides plus HKR match"),
        ("duflo-check", "windowed Kontsevich-Duflo morphism check"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON path or bundled name "
                                        f"({', '.join(BUNDLED)})")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--caps", default=None,
                       help="override caps: max_weight,max_order,max_arity")
        p.add_argument("--seed", type=int, default=0)
        if name == "axioms":
            p.add_argument("--cases", type=int, default=200)
        if name == "atiyah":
            p.add_argument("--obstruction-weight", type=int, default=None,
                           help="polynomial weight window for the obstruction solve")
        if name == "duflo-check":
            p.add_argument("--sample-cap", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        s, digest = _load(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, results, lines = COMMANDS[args.command](s, digest, args)
    _emit(args, _frame(s, digest, args, results), lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
