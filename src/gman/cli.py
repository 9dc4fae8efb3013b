"""Command-line front end.

Every subcommand loads and fully validates a scenario, runs its
computation, and emits either a one-screen summary or (with --json) a
deterministic JSON report: keys sorted, no timestamps, so identical
invocations are byte-identical.

Exit codes: 0 all checks pass, 1 a mathematical check was falsified
(the witness is in the report), 2 malformed input or usage error, or a
result that only a truncation cap decides (the caps and the slices or
pairs are named on stderr), 3 an internal error (traceback on stderr),
141 the reader closed standard output early (``gman ... | head``) on a
run that would have exited 0; a run that would have exited 1 or 2 keeps
that status.  Every subcommand takes its 0, 1 or 2 from ``_verdict``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

try:  # the built-in module: hashlib would also load OpenSSL, a sixth of a run's memory
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .atiyah import (atiyah_cocycle, invariant_connection_obstruction,
                     is_ce_closed, todd_cocycle, todd_sqrt)
from .calculus import mixed_mul
from .checks import run_axiom_checks
from .cohomology import Workspace, cohomology_report, duflo_check, hkr_check, twisting
from .scenario import Caps, Scenario, ScenarioError, load_scenario
from .series import log_todd_generator_series

VERSION = "0.1.0"
BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`
BUNDLED = ("paper_sec4", "sl2_linear", "abelian_trivial")
DATA = os.path.join(os.path.dirname(__file__), "data")


def _read_scenario_text(spec: str) -> str:
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        if spec in BUNDLED:
            return _read_scenario_text(os.path.join(DATA, spec + ".json"))
        if not isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            raise ScenarioError(f"cannot read scenario file {spec}: {exc.strerror}") from exc
    raise ScenarioError(f"no such scenario file or bundled name: {spec}")


def _load(args) -> tuple[Scenario, str]:
    text = _read_scenario_text(args.scenario)
    digest = sha256(json.dumps(json.loads(text), sort_keys=True).encode()).hexdigest()
    s = load_scenario(text)
    if args.caps is not None:
        parts = args.caps.split(",")
        for v in parts:
            if not re.fullmatch(r"-?[0-9]+", v):
                raise ScenarioError(f"--caps: {v!r} is not an integer in "
                                    f"{args.caps!r} (max_weight,max_order,max_arity)")
        if len(parts) != 3:
            raise ScenarioError("--caps expects max_weight,max_order,max_arity")
        s = s._replace(caps=Caps(*map(int, parts), s.caps.max_ce_degree))
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
        "results": results,
    }


def _verdict(failures: list[tuple[str, set[str]]]) -> int:
    """The exit status from a run's failing witnesses, each a label and the
    named caps it lies beyond: 0 with none, 1 if any lies within every cap,
    else 2, naming the caps and the witnesses on stderr."""
    if failures and all(caps for _, caps in failures):
        print(f"inconclusive: every failure lies beyond the cap(s) "
              f"{', '.join(sorted(set().union(*(caps for _, caps in failures))))}: "
              + ", ".join(label for label, _ in failures), file=sys.stderr)
        return 2
    return 1 if failures else 0


def cmd_validate(s, digest, args) -> tuple[int, dict, list[str]]:
    """parse and validate a scenario"""
    results = {"valid": True, "dim_g": s.dim_g, "dim_m": s.n,
               "action_weights": list(s.action_weights)}
    return _verdict([]), results, [f"scenario {s.name or args.scenario}: valid "
                                   f"(dim_g={s.dim_g}, dim_m={s.n})"]


def cmd_axioms(s, digest, args) -> tuple[int, dict, list[str]]:
    """run the randomized graded-identity suite"""
    results = run_axiom_checks(s, cases=args.cases, seed=args.seed)
    lines, failures = [], []
    for side in ("tpoly", "dpoly"):
        r = results[side]
        lines.append(f"{side}: {r['passed']}/{r['cases']} passed")
        for f in r["failures"][:5]:
            lines.append(f"  FAILED {f['identity']} at degrees {f['degrees']}")
        failures += [(f"{side} {f['identity']}", set()) for f in r["failures"]]
    return _verdict(failures), results, lines


def cmd_atiyah(s, digest, args) -> tuple[int, dict, list[str]]:
    """Atiyah cocycle and invariant-connection obstruction"""
    r = atiyah_cocycle(s)
    closed = is_ce_closed(s, r)
    obstruction = invariant_connection_obstruction(s)
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
    failures = [] if closed else [("atiyah cocycle not CE-closed", set())]
    return _verdict(failures), results, lines


def cmd_todd(s, digest, args) -> tuple[int, dict, list[str]]:
    """Todd cocycle, its square root, and the log series"""
    td = todd_cocycle(s)
    half = todd_sqrt(s)
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
    failures = [] if square_ok else [("sqrt^2 != todd", set())]
    return _verdict(failures), results, lines


def cmd_cohomology(s, digest, args) -> tuple[int, dict, list[str]]:
    """weight-sliced cohomology on both sides plus HKR match"""
    tp, dp = Workspace(s, "tpoly"), Workspace(s, "dpoly")
    rep_t, rep_d = cohomology_report(tp), cohomology_report(dp)
    match = hkr_check(tp, dp)
    results = {"tpoly": rep_t, "dpoly": rep_d, "hkr": match}
    unstable = {(e["weight"], e["total_degree"]) for e in rep_d["slices"] if not e["stable"]}
    cap = {f"max_order={s.caps.max_order}"}
    failures = [(f"(w {w}, k {k})", cap if (w, k) in unstable else set())
                for w, k in ((e["weight"], e["total_degree"]) for e in match["mismatches"])]
    if not match["hkr_injective_on_H"]:
        failures.append(("hkr not injective on H", set()))
    lines = []
    for e in match["slices"]:
        if e["dim_H_tpoly"] or e["dim_H_dpoly"]:
            lines.append(f"  w={e['weight']:+d} k={e['total_degree']:+d}: "
                         f"dim H tpoly={e['dim_H_tpoly']} dpoly={e['dim_H_dpoly']}")
    lines.append(f"hkr dimension match: {match['dimensions_match']}; "
                 f"injective on H: {match['hkr_injective_on_H']}; "
                 f"order-cap stable: {rep_d['all_stable']}")
    return _verdict(failures), results, lines


def _caps_exceeded(s, failure: dict) -> set[str]:
    """The caps that a failing Duflo pair's residual rows exceed: a row of
    higher arity or order than the operator basis cannot reduce in it."""
    mids = [row[1] for row in failure["product_residual"] + failure["bracket_residual"]]
    c = s.caps
    return ({f"max_arity={c.max_arity}" for mid in mids if len(mid) > c.max_arity}
            | {f"max_order={c.max_order}" for mid in mids if sum(map(sum, mid)) > c.max_order})


def cmd_duflo(s, digest, args) -> tuple[int, dict, list[str]]:
    """windowed Kontsevich-Duflo morphism check"""
    tp, dp = Workspace(s, "tpoly"), Workspace(s, "dpoly")
    run = partial(duflo_check, tp, dp, seed=args.seed, sample_cap=args.sample_cap)
    td_half = twisting(s, "td_sqrt")  # computes td^{1/2}, once per run
    twisted = run("td_sqrt", twisted=td_half)
    # td^{1/2} = 1 makes both twists one map, checked once
    plain = ({**twisted, "twist": "hkr_only"} if td_half is twisting(s, "hkr_only")
             else run("hkr_only"))
    results = {"twisted": twisted, "hkr_only": plain}
    lines = [
        f"classes: {twisted['classes']}; pairs checked: {twisted['pairs_checked']}"
        + (" (sampled)" if twisted["sampled"] else " (exhaustive)"),
        f"hkr twisted by td^(1/2): all residuals reduce = {twisted['all_reduce']}",
        f"hkr alone: all residuals reduce = {plain['all_reduce']}",
    ]
    for f in twisted["failures"][:3]:
        lines.append(f"  FAILED pair {f['pair']}")
    failures = [(" x ".join(f"(w {c['weight']}, k {c['degree']}, #{c['index']})"
                            for c in f["pair"]), _caps_exceeded(s, f))
                for f in twisted["failures"]]
    return _verdict(failures), results, lines


COMMANDS = {
    "validate": cmd_validate,
    "axioms": cmd_axioms,
    "atiyah": cmd_atiyah,
    "todd": cmd_todd,
    "cohomology": cmd_cohomology,
    "duflo-check": cmd_duflo,
}


def _int_at_least(lo: int):
    """argparse type: an integer >= lo, so that a value out of range
    exits 2 with a message naming its option."""
    def parse(text: str) -> int:
        if (value := int(text)) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names a type by it: "invalid int value"
    return parse


def _subcommand_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add subcommand name's arguments to p, its own parser or the tree's."""
    p.add_argument("scenario", help="scenario JSON path or bundled name "
                                    f"({', '.join(BUNDLED)})")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--caps", default=None,
                   help="override caps: max_weight,max_order,max_arity")
    if name in ("axioms", "duflo-check"):  # the two commands that draw at random
        p.add_argument("--seed", type=int, default=0)
    if name == "axioms":
        p.add_argument("--cases", type=_int_at_least(1), default=200)
    if name == "duflo-check":
        p.add_argument("--sample-cap", type=_int_at_least(1), default=1000)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: each subcommand's help text is its function's docstring."""
    parser = argparse.ArgumentParser(
        prog="gman",
        description="Exact symbolic engine for g-manifolds with polynomial data")
    parser.add_argument("--version", action="version", version=f"gman {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _subcommand_arguments(sub.add_parser(name, help=command.__doc__), name)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would take a value such as -3,4,4 for an option: glue it on
    while "--caps" in argv[:-1] and re.match(r"-[0-9]", argv[(i := argv.index("--caps")) + 1]):
        argv[i:i + 2] = [f"--caps={argv[i + 1]}"]
    try:
        if argv and argv[0] in COMMANDS:  # that subcommand's parser alone, not the whole tree
            parser = _subcommand_arguments(argparse.ArgumentParser(prog=f"gman {argv[0]}"), argv[0])
            args = parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:  # --help, --version, or no or an unknown subcommand
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        try:
            s, digest = _load(args)
        except (ScenarioError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status, results, lines = COMMANDS[args.command](s, digest, args)
    except Exception:
        import traceback  # here, not at the top: it adds ~4 ms to every start-up
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
    try:
        _emit(args, _frame(s, digest, args, results), lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest goes to devnull, so the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return status or BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
