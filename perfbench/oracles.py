"""Oracles for the gman reports the benchmark collects.

Nothing here imports gman.  Every expected value is either counted or
derived from the mathematics (Whitehead's lemma, the kernel and cokernel
of L_{x^2 d_x} on monomials, the Todd series from Bernoulli numbers) or
is a property the method must have (every axiom case passes, every Duflo
pair reduces).  No expected value is a stored copy of a program output.

An operation is one reported cohomology slice, one Duflo pair, one axiom
case, or one atiyah/todd verdict.  It *fails* when the program itself
reports it as failing (an unstable slice, an HKR mismatch, a pair in the
failures list, a failed axiom case).  Every operation that did not fail
must agree with its oracle; any disagreement, and any inconsistency in
the report as a whole, is a *problem* and makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


# ----------------------------------------------------------- scenario data

@dataclass(frozen=True)
class ScenarioData:
    """What the oracles need from a scenario file, read without gman."""
    name: str
    n: int
    weights: tuple[int, ...]
    dim_g: int
    action_weights: tuple[int, ...]
    caps: tuple[int, int, int]

    @staticmethod
    def from_json(doc: dict) -> "ScenarioData":
        weights = tuple(int(w) for w in doc["coordinate_weights"])
        action_weights = []
        for field_ in doc["action"]:
            ws = {sum(e * w for e, w in zip(term[:-1], weights)) - weights[j]
                  for j, comp in enumerate(field_) for term in comp
                  if Fraction(str(term[-1]))}
            if len(ws) > 1:
                raise ValueError(f"inhomogeneous action field in {doc.get('name')}")
            action_weights.append(ws.pop() if ws else 0)
        caps = doc.get("caps", {})
        return ScenarioData(
            name=str(doc.get("name", "")), n=int(doc["dim_m"]), weights=weights,
            dim_g=int(doc["dim_g"]), action_weights=tuple(action_weights),
            caps=(int(caps.get("max_weight", 6)), int(caps.get("max_order", 4)),
                  int(caps.get("max_arity", 4))))


def bundled_scenario(root: Path, name: str) -> ScenarioData:
    path = root / "src" / "gman" / "data" / f"{name}.json"
    return ScenarioData.from_json(json.loads(path.read_text()))


# ------------------------------------------------------- counting cochains

@lru_cache(maxsize=None)
def count_monomials(weights: tuple[int, ...], target: int) -> int:
    """Number of exponent vectors e with sum(e_i * weights_i) == target."""
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for w in weights:
        for t in range(w, target + 1):
            ways[t] += ways[t - w]
    return ways[target]


@lru_cache(maxsize=None)
def _multi_indices(n: int, max_order: int) -> tuple[tuple[int, ...], ...]:
    out = []

    def rec(prefix: tuple, budget: int):
        if len(prefix) == n:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), budget - e)

    rec((), max_order)
    return tuple(out)


@lru_cache(maxsize=None)
def _beta_shift_counts(weights: tuple[int, ...], arity: int, max_order: int) -> dict:
    """shift -> number of arity-tuples of multi-indices of total order
    <= max_order whose weights sum to shift."""
    states = {(0, 0): 1}  # (order used, weight) -> count
    multis = _multi_indices(len(weights), max_order)
    for _ in range(arity):
        nxt: dict = {}
        for (used, shift), c in states.items():
            for b in multis:
                o = used + sum(b)
                if o <= max_order:
                    key = (o, shift + sum(e * w for e, w in zip(b, weights)))
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    out: dict[int, int] = {}
    for (_, shift), c in states.items():
        out[shift] = out.get(shift, 0) + c
    return out


def dim_cochains(sc: ScenarioData, side: str, caps: dict, w: int, k: int,
                 max_order: int | None = None) -> int:
    """Dimension of the weight-w, total-degree-k cochains of
    Lambda g-dual (x) T_poly (side "tpoly") or (x) D_poly ("dpoly")."""
    pmax = min(sc.dim_g, caps["max_ce_degree"])
    qmax = sc.n - 1 if side == "tpoly" else caps["max_arity"] - 1
    order = caps["max_order"] if max_order is None else max_order
    total = 0
    for p in range(pmax + 1):
        q = k - p
        if not -1 <= q <= qmax:
            continue
        for idx in combinations(range(sc.dim_g), p):
            gshift = sum(sc.action_weights[i] for i in idx)
            if side == "tpoly":
                shifts: dict[int, int] = {}
                for jj in combinations(range(sc.n), q + 1):
                    s = sum(sc.weights[j] for j in jj)
                    shifts[s] = shifts.get(s, 0) + 1
            else:
                shifts = _beta_shift_counts(sc.weights, q + 1, order)
            for mshift, c in shifts.items():
                total += c * count_monomials(sc.weights, w + gshift + mshift)
    return total


# ------------------------------------------------- expected cohomology dims

def _whitehead_sl2(sc: ScenarioData, caps: dict, w: int, k: int) -> int:
    """sl2 acting linearly on R^2.  Whitehead: H(sl2, M) = H(sl2) (x) M^sl2
    for finite-dimensional M, and H(sl2) lives in CE degrees 0 and 3.  The
    invariant polyvectors are 1 (weight 0, q = -1), the Euler field
    x d_x + y d_y (weight 0, q = 0) and d_x ^ d_y (weight -2, q = 1)."""
    invariants = ((0, -1), (0, 0), (-2, 1))
    classes = {(wi, p + q) for wi, q in invariants for p in (0, 3)}
    return int((w, k) in classes)


@lru_cache(maxsize=None)
def _lie_x2dx_classes(max_exponent: int) -> set[tuple[int, int]]:
    """(weight, total degree) of the CE classes of g = R acting on the
    line by X = x^2 d_x.  On monomials L_X x^e = e x^(e+1) and
    L_X (x^e d_x) = (e - 2) x^(e+1) d_x; H^0 is the kernel, H^1 the
    cokernel.  The generator has weight 1, so xi (x) v has weight
    weight(v) - 1."""
    out = set()
    for q, coeff, vweight in ((-1, lambda e: e, lambda e: e),
                              (0, lambda e: e - 2, lambda e: e - 1)):
        hit = {e + 1 for e in range(max_exponent + 1) if coeff(e)}
        for e in range(max_exponent + 1):
            if coeff(e) == 0:
                out.add((vweight(e), q))          # H^0: kernel
            if e not in hit:
                out.add((vweight(e) - 1, q + 1))  # H^1: xi (x) cokernel
    return out


def _sec4(sc: ScenarioData, caps: dict, w: int, k: int) -> int:
    return int((w, k) in _lie_x2dx_classes(max(w + 4, 4)))


def _trivial_action(sc: ScenarioData, caps: dict, w: int, k: int) -> int:
    """Zero action: every differential vanishes and every cochain is a class."""
    return dim_cochains(sc, "tpoly", caps, w, k)


EXPECTED_H = {
    "sl2_linear": _whitehead_sl2,
    "paper_sec4": _sec4,
    "abelian_trivial": _trivial_action,
}


# --------------------------------------------------------------- helpers

def _window(rep: dict, where: str, v: Verdict) -> tuple[list[int], int] | None:
    try:
        lo, hi = rep["window"]["weights"]
        return list(range(lo, hi + 1)), int(rep["window"]["max_total_degree"])
    except (KeyError, TypeError, ValueError):
        v.problems.append(f"{where}: malformed window")
        return None


def _grid_ok(slices: list, ws: list[int], ktop: int, where: str, v: Verdict) -> bool:
    got = [(e.get("weight"), e.get("total_degree")) for e in slices]
    want = [(w, k) for w in ws for k in range(-1, ktop + 1)]
    if got != want:
        v.problems.append(f"{where}: slices do not cover the window exactly "
                          f"({len(got)} reported, {len(want)} expected)")
        return False
    return True


def _classes_inside(expected, sc, caps, ws, ktop, where, v) -> None:
    """The window must reach the weight cap and must not cut away a class
    the oracle knows about just below it."""
    if ws[-1] != caps["max_weight"]:
        v.problems.append(f"{where}: window ends at {ws[-1]}, not at max_weight")
    for w in range(ws[0] - 8, ws[0]):
        for k in range(-1, ktop + 1):
            if expected(sc, caps, w, k):
                v.problems.append(f"{where}: window starts at {ws[0]} and drops "
                                  f"the class at (w {w}, k {k})")


# ------------------------------------------------------------ cohomology

def check_cohomology(results: dict, sc: ScenarioData, caps: dict) -> Verdict:
    v = Verdict()
    expected = EXPECTED_H[sc.name]
    for side in ("tpoly", "dpoly"):
        rep = results[side]
        where = f"cohomology {sc.name} {side}"
        win = _window(rep, where, v)
        if win is None or not _grid_ok(rep["slices"], *win, where, v):
            continue
        ws, ktop = win
        _classes_inside(expected, sc, caps, ws, ktop, where, v)
        for e in rep["slices"]:
            w, k = e["weight"], e["total_degree"]
            v.attempted += 1
            if not e["stable"]:
                v.failed += 1
                continue
            want_c = dim_cochains(sc, side, caps, w, k)
            if e["dim_cochains"] != want_c:
                v.problems.append(f"{where} (w {w}, k {k}): dim_cochains "
                                  f"{e['dim_cochains']}, counted {want_c}")
            if e["dim_H"] != expected(sc, caps, w, k):
                v.problems.append(f"{where} (w {w}, k {k}): dim_H {e['dim_H']}, "
                                  f"expected {expected(sc, caps, w, k)}")
        if rep["all_stable"] != all(e["stable"] for e in rep["slices"]):
            v.problems.append(f"{where}: all_stable disagrees with its slices")

    hkr = results["hkr"]
    where = f"cohomology {sc.name} hkr"
    win = _window(hkr, where, v)
    mismatched = 0
    if win is not None and _grid_ok(hkr["slices"], *win, where, v):
        for e in hkr["slices"]:
            w, k = e["weight"], e["total_degree"]
            v.attempted += 1
            if e["dim_H_tpoly"] != e["dim_H_dpoly"]:
                v.failed += 1
                mismatched += 1
                continue
            if e["dim_H_tpoly"] != expected(sc, caps, w, k):
                v.problems.append(f"{where} (w {w}, k {k}): dim_H {e['dim_H_tpoly']}, "
                                  f"expected {expected(sc, caps, w, k)}")
    if hkr["dimensions_match"] != (mismatched == 0) or len(hkr["mismatches"]) != mismatched:
        v.problems.append(f"{where}: dimensions_match/mismatches disagree with the slices")
    v.attempted += 1  # HKR is a quasi-isomorphism, so it is injective on H
    if not hkr["hkr_injective_on_H"]:
        v.failed += 1
    return v


# ------------------------------------------------------------------ Duflo

def check_duflo(results: dict, sc: ScenarioData, caps: dict,
                sample_cap: int, seed: int) -> Verdict:
    v = Verdict()
    expected = EXPECTED_H[sc.name]
    for key, twist in (("twisted", "td_sqrt"), ("hkr_only", "hkr_only")):
        rep = results[key]
        where = f"duflo-check {sc.name} {key}"
        win = _window(rep, where, v)
        if win is None:
            continue
        ws, ktop = win
        _classes_inside(expected, sc, caps, ws, ktop, where, v)
        classes = sum(expected(sc, caps, w, k) for w in ws for k in range(-1, ktop + 1))
        pairs = classes * (classes + 1) // 2
        if rep["classes"] != classes:
            v.problems.append(f"{where}: {rep['classes']} classes, expected {classes}")
        if rep["pairs_checked"] != min(sample_cap, pairs):
            v.problems.append(f"{where}: {rep['pairs_checked']} pairs checked, "
                              f"expected min({sample_cap}, {pairs})")
        if rep["sampled"] != (pairs > sample_cap) or rep["seed"] != seed or rep["twist"] != twist:
            v.problems.append(f"{where}: sampled/seed/twist fields are wrong")
        v.attempted += rep["pairs_checked"]
        v.failed += len(rep["failures"])
        if rep["all_reduce"] != (not rep["failures"]):
            v.problems.append(f"{where}: all_reduce disagrees with the failures list")
    return v


# ------------------------------------------------------- atiyah and todd

def _poly(data) -> dict:
    return {tuple(e): Fraction(c) for c, e in data if Fraction(c)}


# Atiyah cocycle of X = x^2 d_x with the flat connection:
# R(e_0, d_x) d_x = d_x d_x (x^2) = 2.
SEC4_ATIYAH = Fraction(2)


def check_atiyah_sec4(results: dict) -> Verdict:
    v = Verdict(attempted=1)
    if not results["ce_closed"]:
        v.failed = 1
        return v
    rows = [(tuple(r[0]), r[1], r[2], r[3], _poly(r[4])) for r in results["cocycle"]]
    if rows != [((0,), 0, 0, 0, {(0,): SEC4_ATIYAH})]:
        v.problems.append(f"atiyah paper_sec4: cocycle {results['cocycle']}, "
                          f"expected the constant {SEC4_ATIYAH}")
    return v


def _mixed(data) -> dict:
    """Mixed form rows [xi indices, dx indices, poly] -> {(I, T): poly}."""
    return {(tuple(i), tuple(t)): _poly(p) for i, t, p in data if _poly(p)}


def _merge(a: tuple, b: tuple):
    """Sign and sorted union of two strictly increasing index tuples."""
    if set(a) & set(b):
        return None
    seq = list(a + b)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def mixed_product(a: dict, b: dict) -> dict:
    """(alpha (x) w1)(beta (x) w2) = (-1)^(|w1| |beta|) (alpha^beta) (x) (w1^w2)."""
    out: dict = {}
    for (i1, t1), p1 in a.items():
        for (i2, t2), p2 in b.items():
            mi, mt = _merge(i1, i2), _merge(t1, t2)
            if mi is None or mt is None:
                continue
            sign = mi[0] * mt[0] * (-1) ** (len(t1) * len(i2))
            acc = out.setdefault((mi[1], mt[1]), {})
            for e1, c1 in p1.items():
                for e2, c2 in p2.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    acc[e] = acc.get(e, 0) + sign * c1 * c2
    return {k: {e: c for e, c in p.items() if c} for k, p in out.items()
            if any(p.values())}


def bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} (B_1 = -1/2), from sum_j C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def log_todd_series(nterms: int) -> list[Fraction]:
    """Coefficients of log(x / (1 - e^-x)) = x/2 - sum_k B_2k x^2k / (2k (2k)!)."""
    b = bernoulli(nterms + 1)
    out = [Fraction(0)] * nterms
    if nterms > 1:
        out[1] = Fraction(1, 2)
    fact = 1
    for m in range(1, nterms):
        fact *= m
        if m >= 2 and m % 2 == 0:
            out[m] = -b[m] / (m * fact)
    return out


def check_todd_sec4(results: dict) -> Verdict:
    """td = det(R / (1 - e^-R)) with R = a u, u = xi (x) dx nilpotent:
    td = 1 + (a/2) u and td^(1/2) = 1 + (a/4) u."""
    v = Verdict(attempted=1)
    if not results["sqrt_squares_to_todd"]:
        v.failed = 1
        return v
    unit, u = ((), ()), ((0,), (0,))
    td, half = _mixed(results["todd"]), _mixed(results["todd_sqrt"])
    want_td = {unit: {(0,): Fraction(1)}, u: {(0,): SEC4_ATIYAH / 2}}
    want_half = {unit: {(0,): Fraction(1)}, u: {(0,): SEC4_ATIYAH / 4}}
    if td != want_td:
        v.problems.append(f"todd paper_sec4: td {results['todd']}, expected 1 + u")
    if half != want_half:
        v.problems.append(f"todd paper_sec4: td^(1/2) {results['todd_sqrt']}, "
                          f"expected 1 + u/2")
    if mixed_product(half, half) != td:
        v.problems.append("todd paper_sec4: td^(1/2) squared is not td")
    series = [Fraction(c) for c in results["log_series"]]
    if len(series) < 5 or series != log_todd_series(len(series)):
        v.problems.append(f"todd paper_sec4: log series {results['log_series']} "
                          f"is not log(x/(1-e^-x))")
    return v


# ----------------------------------------------------------------- axioms

def check_axioms(results: dict, cases: int, seed: int) -> Verdict:
    v = Verdict()
    for side in ("tpoly", "dpoly"):
        r = results[side]
        failed_cases = {f["case"] for f in r["failures"]}
        v.attempted += r["cases"]
        v.failed += len(failed_cases)
        if r["cases"] != cases or r["seed"] != seed:
            v.problems.append(f"axioms {side}: ran {r['cases']} cases at seed "
                              f"{r['seed']}, asked for {cases} at {seed}")
        if r["passed"] + len(failed_cases) != r["cases"]:
            v.problems.append(f"axioms {side}: passed + failed != cases")
    if results["all_passed"] != (v.failed == 0):
        v.problems.append("axioms: all_passed disagrees with the failures")
    return v


# --------------------------------------------------------------- dispatch

def _option(argv: list[str], flag: str, default):
    return type(default)(argv[argv.index(flag) + 1]) if flag in argv else default


def check_invocation(root: Path, argv: list[str], exit_code: int, report: dict) -> Verdict:
    """Check one ``gman <argv> --json`` report against its oracle."""
    command, name = argv[0], argv[1]
    sc = bundled_scenario(root, name)
    caps = dict(report["caps"])
    asked = argv[argv.index("--caps") + 1].split(",") if "--caps" in argv else sc.caps
    want = dict(zip(("max_weight", "max_order", "max_arity"), map(int, asked)))
    v = Verdict()
    if {k: caps[k] for k in want} != want or report["subcommand"] != command:
        v.problems.append(f"{' '.join(argv)}: report is for {report['subcommand']} "
                          f"at caps {caps}")
        return v
    results = report["results"]
    if command == "cohomology":
        v = check_cohomology(results, sc, caps)
        falsified = not (results["hkr"]["dimensions_match"]
                         and results["hkr"]["hkr_injective_on_H"])
    elif command == "duflo-check":
        v = check_duflo(results, sc, caps, _option(argv, "--sample-cap", 1000),
                        _option(argv, "--seed", 0))
        falsified = bool(results["twisted"]["failures"])
    elif command == "axioms":
        v = check_axioms(results, _option(argv, "--cases", 200), _option(argv, "--seed", 0))
        falsified = not results["all_passed"]
    elif (command, name) == ("atiyah", "paper_sec4"):
        v = check_atiyah_sec4(results)
        falsified = bool(v.failed)
    elif (command, name) == ("todd", "paper_sec4"):
        v = check_todd_sec4(results)
        falsified = bool(v.failed)
    else:
        raise ValueError(f"no oracle for {' '.join(argv)}")
    if exit_code != (1 if falsified else 0):
        v.problems.append(f"{' '.join(argv)}: exit code {exit_code} does not match "
                          f"the report's verdict")
    return v
