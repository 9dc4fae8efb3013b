"""Seeded randomized identity checks for the two graded structures.

Every check is an exact polynomial identity: a case passes only when
the residual is the zero cochain.  The same suite backs the test
battery and the ``axioms`` command, so a reported "200/200" means the
identities below held on 200 independently drawn homogeneous triples.
"""

from __future__ import annotations

import random
from itertools import combinations

from .calculus import PolyVector, ext_pv_wedge, ext_schouten
from .cohomology import side_differential
from .dpoly import PolyDiffOp, ext_gerstenhaber
from .liealg import Cochain
from .poly import Poly
from .scenario import Scenario


def sign(e: int) -> int:
    """(-1)^e as an int, also for negative e."""
    return -1 if e % 2 else 1


class Sampler:
    """Draws degree-homogeneous random cochains over a scenario."""

    def __init__(self, s: Scenario, rng: random.Random):
        self.s = s
        self.rng = rng
        self.n = s.n
        self.m = s.dim_g

    def poly(self, maxdeg: int = 2) -> Poly:
        terms = {}
        for _ in range(self.rng.randint(1, 3)):
            e = tuple(self.rng.randint(0, maxdeg) for _ in range(self.n))
            terms[e] = self.rng.randint(-3, 3)
        return Poly(self.n, terms)

    def polyvector(self, q: int) -> PolyVector:
        keys = list(combinations(range(self.n), q + 1))
        return PolyVector(self.n, {self.rng.choice(keys): self.poly()})

    def diffop(self, q: int, max_slot_order: int = 1) -> PolyDiffOp:
        key = tuple(tuple(self.rng.randint(0, max_slot_order) for _ in range(self.n))
                    for _ in range(q + 1))
        return PolyDiffOp(self.n, {key: self.poly(1)})

    def cochain_pv(self, p: int, q: int) -> Cochain:
        idx = tuple(sorted(self.rng.sample(range(self.m), p)))
        return Cochain(self.m, {idx: self.polyvector(q)})

    def cochain_dp(self, p: int, q: int) -> Cochain:
        idx = tuple(sorted(self.rng.sample(range(self.m), p)))
        return Cochain(self.m, {idx: self.diffop(q)})


def tpoly_axiom_checks(s: Scenario, cases: int = 200, seed: int = 0) -> dict:
    """Lemma-level identities on tot(Lambda g-dual (x) T_poly)."""
    rng = random.Random(seed)
    smp = Sampler(s, rng)
    d = side_differential(s, "tpoly")

    failures = []
    for case in range(cases):
        degs = [(rng.randint(0, min(2, s.dim_g)), rng.randint(-1, s.n - 1))
                for _ in range(3)]
        (p1, q1), (p2, q2), (p3, q3) = degs
        a, b, c = (smp.cochain_pv(p, q) for p, q in degs)
        g1, g2 = p1 + q1, p2 + q2
        t1, t2 = p1 + q1 + 1, p2 + q2 + 1
        ab, ac = ext_schouten(a, b), ext_schouten(a, c)
        wab, da, db = ext_pv_wedge(a, b), d(a), d(b)

        residuals = {
            "graded_commutativity": wab - ext_pv_wedge(b, a).scale(sign(t1 * t2)),
            "bracket_antisymmetry": ab + ext_schouten(b, a).scale(sign(g1 * g2)),
            "graded_jacobi": ext_schouten(a, ext_schouten(b, c))
                - ext_schouten(ab, c)
                - ext_schouten(b, ac).scale(sign(g1 * g2)),
            "graded_leibniz": ext_schouten(a, ext_pv_wedge(b, c))
                - ext_pv_wedge(ab, c)
                - ext_pv_wedge(b, ac).scale(sign(g1 * t2)),
            "d_squared": d(da),
            "d_derivation_product": d(wab)
                - ext_pv_wedge(da, b)
                - ext_pv_wedge(a, db).scale(sign(t1)),
            "d_derivation_bracket": d(ab)
                - ext_schouten(da, b)
                - ext_schouten(a, db).scale(sign(g1)),
        }
        for name, res in residuals.items():
            if not res.is_zero():
                failures.append({"case": case, "identity": name,
                                 "degrees": degs, "residual": repr(res)})
    return {"side": "tpoly", "cases": cases, "passed": cases - len({f["case"] for f in failures}),
            "failures": failures, "seed": seed}


def dpoly_axiom_checks(s: Scenario, cases: int = 200, seed: int = 0) -> dict:
    """dgla identities on tot(Lambda g-dual (x) D_poly)."""
    rng = random.Random(seed)
    smp = Sampler(s, rng)
    d = side_differential(s, "dpoly")

    qtop = min(2, s.caps.max_arity - 1)
    failures = []
    for case in range(cases):
        degs = [(rng.randint(0, min(2, s.dim_g)), rng.randint(-1, qtop))
                for _ in range(3)]
        (p1, q1), (p2, q2), _ = degs
        a, b, c = (smp.cochain_dp(p, q) for p, q in degs)
        g1, g2 = p1 + q1, p2 + q2
        ab, da = ext_gerstenhaber(a, b), d(a)

        residuals = {
            "bracket_antisymmetry": ab + ext_gerstenhaber(b, a).scale(sign(g1 * g2)),
            "graded_jacobi": ext_gerstenhaber(a, ext_gerstenhaber(b, c))
                - ext_gerstenhaber(ab, c)
                - ext_gerstenhaber(b, ext_gerstenhaber(a, c)).scale(sign(g1 * g2)),
            "D_squared": d(da),
            "D_derivation_bracket": d(ab)
                - ext_gerstenhaber(da, b)
                - ext_gerstenhaber(a, d(b)).scale(sign(g1)),
        }
        for name, res in residuals.items():
            if not res.is_zero():
                failures.append({"case": case, "identity": name,
                                 "degrees": degs, "residual": repr(res)})
    return {"side": "dpoly", "cases": cases, "passed": cases - len({f["case"] for f in failures}),
            "failures": failures, "seed": seed}


def run_axiom_checks(s: Scenario, cases: int = 200, seed: int = 0) -> dict:
    tp = tpoly_axiom_checks(s, cases, seed)
    dp = dpoly_axiom_checks(s, cases, seed)
    return {
        "cases": cases,
        "seed": seed,
        "tpoly": tp,
        "dpoly": dp,
        "all_passed": not tp["failures"] and not dp["failures"],
    }
