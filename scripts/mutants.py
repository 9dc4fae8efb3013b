#!/usr/bin/env python3
"""Mutation gate: every listed mutation of gman must make Tier-1 fail.

    python3 scripts/mutants.py                 # every mutant, one after another
    python3 scripts/mutants.py --only sort-swap-sign contract-koszul

Each mutation is a file, an exact old string (found exactly once in it)
and a new string.  It is applied alone to a fresh copy of the working
tree's tracked and unignored files in a temporary directory, where
Tier-1 runs with ``-x``; the copy is removed afterwards.  Mutants run
one at a time, never in parallel, and no bytecode is written, so no run
sees another's compiled sources.  The last mutant is an inert control, a
changed comment, which must survive: that shows a surviving mutant is
reported.  A run that takes longer than TIMEOUT seconds, far above a
normal Tier-1 run (about 21 s on 2 cores), is stopped and its mutant
counted as killed, so a mutant that loops cannot hang the gate.

Prints one line per mutant: killed (with the first failing test, or
"timed out after ... s") or SURVIVED.  Exits 0 when every mutant but the
control is killed and the control survives, 1 otherwise, 2 when a
mutation no longer applies.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, snapshot

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
CONTROL = "inert-comment"
TIMEOUT = 120  # seconds per mutant run

# name: (file under src/gman, old string, new string)
MUTANTS = {
    "hkr-permutation-sign": (
        "dpoly.py", "_norm(Fraction(sort_indices(perm)[0], k))", "_norm(Fraction(1, k))"),
    "hkr-factorial": (
        "dpoly.py", "k = factorial(len(idx))", "k = 1"),
    "norm-int-first": (
        "poly.py", "return c.numerator if c.denominator == 1 else c", "return c"),
    "int-first-kept-fraction": (
        "poly.py", "return c if type(c) is int or c.denominator != 1 else c.numerator",
        "return c"),
    "residual-sign": (
        "cohomology.py", "hkr_terms(acc.setdefault(idx, {}), n, m, -1)",
        "hkr_terms(acc.setdefault(idx, {}), n, m, 1)"),
    "unit-skip-always": (
        "cohomology.py", "return _identity if td_half == unit else",
        "return _identity if True else"),
    "unit-skip-never": (
        "cohomology.py", "return _identity if td_half == unit else",
        "return _identity if False else"),
    "d-lambda-odd-derivation-sign": (
        "liealg.py", "(c if t % 2 else -c) * s[0]", "-c * s[0]"),
    "lie-end-leibniz-term": (
        "atiyah.py", "addmul(acc.setdefault((i, l, k), {}), dpx, pt.terms, f)", "pass"),
    "compose-merge-sign": (
        "atiyah.py", "               f * merged[0])", "               f)"),
    "compose-order": (
        "atiyah.py",
        "if ka[-2] == kb[-1] and (merged := merge_indices(ka[:-2], kb[:-2])):\n"
        "        addmul(acc.setdefault(merged[1] + (kb[-2], ka[-1]), {})",
        "if kb[-2] == ka[-1] and (merged := merge_indices(ka[:-2], kb[:-2])):\n"
        "        addmul(acc.setdefault(merged[1] + (ka[-2], kb[-1]), {})"),
    "maurer-cartan-half": (
        "scenario.py", "differential(lie, q.scale(Fraction(1, 2)), q, _schouten)",
        "differential(lie, q, q, _schouten)"),
    "duplicate-structure-constant": (
        "scenario.py", 'raise ScenarioError(f"[e_{i}, e_{j}] is given a second time")', "pass"),
    "order-bound-k": (
        "cohomology.py", "min(k + 1, ws.s.n)", "min(k, ws.s.n)"),
    "order-bound-k-plus-2": (
        "cohomology.py", "min(k + 1, ws.s.n)", "min(k + 2, ws.s.n)"),
    "ce-cap-window-ignored": (
        "cohomology.py", "return top if s.caps.max_ce_degree >= s.dim_g else",
        "return top if True else"),
    "order-0-slots-at-arity-2": (
        "cohomology.py", "for d in range(1, max_order + 1):",
        "for d in range(arity != 2, max_order + 1):"),
    "dim-cochains-normalized": (
        "cohomology.py", 'if self.side == "tpoly":\n            return len(self.basis(w, k))',
        'if True:\n            return len(self.basis(w, k))'),
    "contract-koszul": (
        "calculus.py", "return ext_bilinear(eta, a, _interior, lambda k1, p2: k1 * p2)",
        "return ext_bilinear(eta, a, _interior, lambda k1, p2: 0)"),
    "schouten-bracket-sign": (
        "calculus.py", "dpa, pb.terms, -f * left[0] * merged[0])",
        "dpa, pb.terms, f * left[0] * merged[0])"),
    "leibniz-wrong-slot": (
        "dpoly.py", "tuple(map(add, slots[j], d))", "tuple(map(add, slots[0], d))"),
    "leibniz-skip-first-part": (
        "dpoly.py", "for j, d in rest:", "for j, d in rest[1:]:"),
    "gerstenhaber-swap-sign": (
        "dpoly.py", "f if (k * l + j * k) % 2 else -f", "-f if (k * l + j * k) % 2 else f"),
    "vector-field-rule-at-order-2": (
        "dpoly.py", "len(key1) == 1 and sum(key1[0]) == 1", "len(key1) == 1 and sum(key1[0]) < 3"),
    "zero-run-parity": (
        "dpoly.py", "if (v - u) % 2 == 0}", "if (v - u) % 2}"),
    "extreme-split-kept": (
        "dpoly.py", "_split_multiindex(key[j], 2)[1:-1]", "_split_multiindex(key[j], 2)[:-1]"),
    "run-key-sign": (
        "dpoly.py", "c * (_sign2(f, u, 1, l) if u >= 0", "-c * (_sign2(f, u, 1, l) if u >= 0"),
    "sort-swap-sign": (
        "liealg.py", "            sign = -sign\n", "            sign = sign\n"),
    "schouten-right-parity": (
        "calculus.py", "fr = f if len(ia) % 2 else -f", "fr = f"),
    "label-row-identity": (
        "linalg.py", "    return -1 - u", "    return u"),
    "insert-label-only-is-dependent": (
        "linalg.py", "if not col or max(col) < 0:\n            if col:",
        "if not col:\n            if col:"),
    "contains-label-only": (
        "linalg.py", "return not col or max(col) < 0", "return not col"),
    "exact-step-sign-dropped": (
        "linalg.py", "sign = -sign if b < 0 else sign", "sign = sign"),
    "final-content-division-dropped": (
        "linalg.py", "return _primitive(col, sign)", "return {r: sign * v for r, v in col.items()}"),
    "exact-step-floor-division": (
        "linalg.py", "if a % b:", "if a % b and not a // b:"),
    "obstruction-last-kernel-vector": (
        "atiyah.py", "vec = reducer.kernel[-1]", "vec = reducer.kernel[0]"),
    "obstruction-solution-sign": (
        "atiyah.py", "Fraction(-v, lam)", "Fraction(v, lam)"),
    "caps-exceeded-at-the-cap": (
        "cli.py", "if sum(map(sum, mid)) > c.max_order}", "if sum(map(sum, mid)) >= c.max_order}"),
    "duflo-inconclusive-if-any-capped": (
        "cli.py", "if failures and all(caps for _, caps in failures):",
        "if failures and any(caps for _, caps in failures):"),
    "hkr-mismatch-any-unstable": (
        "cli.py", "if (w, k) in unstable else set())", "if unstable else set())"),
    "hkr-mismatches-unchecked": (
        "cli.py", 'for e in match["mismatches"])]', "for e in [])]"),
    "hkr-injectivity-unchecked": (
        "cli.py", 'failures.append(("hkr not injective on H", set()))', "pass"),
    "duflo-failures-unchecked": (
        "cli.py", 'for f in twisted["failures"]]', "for f in []]"),
    "axioms-failures-unchecked": (
        "cli.py", 'failures += [(f"{side} {f[\'identity\']}", set()) for f in r["failures"]]',
        "pass"),
    "atiyah-closed-unchecked": (
        "cli.py", 'failures = [] if closed else [("atiyah cocycle not CE-closed", set())]',
        "failures = []"),
    "hkr-injective-if-any-independent": (
        "cohomology.py", "if not all(dp.independent_mod_image(w, k, mapped)):",
        "if not any(dp.independent_mod_image(w, k, mapped)):"),
    "todd-square-unchecked": (
        "cli.py", 'failures = [] if square_ok else [("sqrt^2 != todd", set())]', "failures = []"),
    "caps-unvalidated": (
        "scenario.py", "self = super().__new__(cls, max_weight, max_order, max_arity, max_ce_degree)",
        "return super().__new__(cls, max_weight, max_order, max_arity, max_ce_degree)"),
    "caps-replace-unchecked": (
        "scenario.py", "    @classmethod\n    def _make(cls, iterable):  # _replace builds through "
        "this, so it checks too\n        return cls(*iterable)\n\n", ""),
    "digest-raw-text": (
        "cli.py", "sha256(json.dumps(json.loads(text), sort_keys=True).encode())",
        "sha256(text.encode())"),
    "antisymmetry-no-swap": (
        "liealg.py", "for t in ((i, j, k), (j, i, k))", "for t in ((i, j, k),)"),
    "key-weight-action-sign": (
        "scenario.py", "monomial_weight(exps, weights) - sum(action_weights[i] for i in idx)",
        "monomial_weight(exps, weights) + sum(action_weights[i] for i in idx)"),
    "window-ignores-action-weights": (
        "cohomology.py", "for p in range(min(s.dim_g, s.caps.max_ce_degree) + 1) for arity",
        "for p in (0,) for arity"),
    "residual-one-weight": (  # the whole residual at its lightest part's weight, w_a + w_b
        "cohomology.py",
        "parts.setdefault(key_weight(self.side, key, s.weights, s.action_weights), {})",
        "parts.setdefault(min(key_weight(self.side, x, s.weights, s.action_weights)"
        " for x in coords), {})"),
    "one-parser-wrong-command": (
        "cli.py", "argparse.Namespace(command=argv[0])", 'argparse.Namespace(command="validate")'),
    "one-parser-top-level-prog": (
        "cli.py", 'argparse.ArgumentParser(prog=f"gman {argv[0]}")',
        'argparse.ArgumentParser(prog="gman")'),
    "duflo-twist-recomputed": (
        "cli.py", 'run("td_sqrt", twisted=td_half)', 'run("td_sqrt")'),
    CONTROL: (
        "liealg.py", "# insertion sort, counting swaps; sequences here are short",
        "# insertion sort"),
}


def apply(tree: Path, name: str) -> None:
    rel, old, new = MUTANTS[name]
    path = tree / "src" / "gman" / rel
    path.write_text(path.read_text().replace(old, new))


def run(name: str) -> tuple[bool, str, float]:
    """(killed, verdict, seconds) of one mutant: a failing run kills it,
    and so does one stopped after TIMEOUT seconds."""
    with tempfile.TemporaryDirectory(prefix="gman-mutant-") as tmp:
        tree = Path(tmp)
        snapshot(tree)
        apply(tree, name)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"killed (timed out after {TIMEOUT} s)", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return False, "SURVIVED", seconds
    first = next((line for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))), "")
    return True, f"killed   {first}", seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="+", choices=sorted(MUTANTS), metavar="NAME",
                    help="run only these mutants")
    args = ap.parse_args(argv)
    names = args.only or list(MUTANTS)
    for name in names:  # every mutation applies, before any run
        rel, old, _ = MUTANTS[name]
        if (ROOT / "src" / "gman" / rel).read_text().count(old) != 1:
            print(f"{name}: the old string is not found exactly once in {rel}", file=sys.stderr)
            return 2
    wrong = []
    for name in names:
        killed, verdict, seconds = run(name)
        print(f"{name:32} {seconds:6.1f} s  {verdict}", flush=True)
        if killed == (name == CONTROL):
            wrong.append(name)
    if wrong:
        print("wrong verdict: " + ", ".join(wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
