"""Seeded randomized identity checks for the two graded structures.

Every check is an exact polynomial identity, written as the terms of a
sum that vanishes: each term adds +-1 times a product, or a built
cochain such as a differential, into one raw term map, and a case
passes only when every coordinate of that map is zero.  A Cochain is built from the coordinates only to
print a failing residual.  The same suite backs the test battery and
the ``axioms`` command, so a reported "200/200" means the identities
below held on 200 independently drawn homogeneous triples.
"""

from __future__ import annotations

import random
from itertools import combinations

from .calculus import PolyVector, add_cochain, ext_pv_wedge, ext_schouten
from .cohomology import coords_cochain, raw_coords, side_differential
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


def residual(terms: list) -> dict:
    """Basis-key coordinates of a sum of terms (fn, args, f), each
    fn(*args, acc, f) adding f times a cochain into one raw map."""
    acc: dict = {}
    for fn, args, f in terms:
        fn(*args, acc, f)
    return raw_coords(acc)


def tpoly_identities(d, a, b, c, degs) -> dict[str, list]:
    """Lemma-level identities on tot(Lambda g-dual (x) T_poly), each as the
    terms of a sum that vanishes."""
    (p1, q1), (p2, q2), _ = degs
    g1, g2 = p1 + q1, p2 + q2
    t1, t2 = g1 + 1, g2 + 1
    ab, ac, wab, da, db = ext_schouten(a, b), ext_schouten(a, c), ext_pv_wedge(a, b), d(a), d(b)
    return {
        "graded_commutativity": [(add_cochain, (wab,), 1),
                                 (ext_pv_wedge, (b, a), -sign(t1 * t2))],
        "bracket_antisymmetry": [(add_cochain, (ab,), 1), (ext_schouten, (b, a), sign(g1 * g2))],
        "graded_jacobi": [(ext_schouten, (a, ext_schouten(b, c)), 1),
                          (ext_schouten, (ab, c), -1),
                          (ext_schouten, (b, ac), -sign(g1 * g2))],
        "graded_leibniz": [(ext_schouten, (a, ext_pv_wedge(b, c)), 1),
                           (ext_pv_wedge, (ab, c), -1),
                           (ext_pv_wedge, (b, ac), -sign(g1 * t2))],
        "d_squared": [(add_cochain, (d(da),), 1)],
        "d_derivation_product": [(add_cochain, (d(wab),), 1), (ext_pv_wedge, (da, b), -1),
                                 (ext_pv_wedge, (a, db), -sign(t1))],
        "d_derivation_bracket": [(add_cochain, (d(ab),), 1), (ext_schouten, (da, b), -1),
                                 (ext_schouten, (a, db), -sign(g1))],
    }


def dpoly_identities(d, a, b, c, degs) -> dict[str, list]:
    """dgla identities on tot(Lambda g-dual (x) D_poly), each as the terms
    of a sum that vanishes."""
    (p1, q1), (p2, q2), _ = degs
    g1, g2 = p1 + q1, p2 + q2
    ab, da = ext_gerstenhaber(a, b), d(a)
    return {
        "bracket_antisymmetry": [(add_cochain, (ab,), 1),
                                 (ext_gerstenhaber, (b, a), sign(g1 * g2))],
        "graded_jacobi": [(ext_gerstenhaber, (a, ext_gerstenhaber(b, c)), 1),
                          (ext_gerstenhaber, (ab, c), -1),
                          (ext_gerstenhaber, (b, ext_gerstenhaber(a, c)), -sign(g1 * g2))],
        "D_squared": [(add_cochain, (d(da),), 1)],
        "D_derivation_bracket": [(add_cochain, (d(ab),), 1), (ext_gerstenhaber, (da, b), -1),
                                 (ext_gerstenhaber, (a, d(b)), -sign(g1))],
    }


def _axiom_checks(s: Scenario, side: str, qtop: int, cases: int, seed: int) -> dict:
    """Draw cases triples of homogeneous cochains of the side, exterior
    degree at most 2 and tensor degree at most qtop, and check each of
    the side's identities on each."""
    rng = random.Random(seed)
    smp = Sampler(s, rng)
    d = side_differential(s, side)
    draw, identities = ((smp.cochain_pv, tpoly_identities) if side == "tpoly"
                        else (smp.cochain_dp, dpoly_identities))
    failures = []
    for case in range(cases):
        degs = [(rng.randint(0, min(2, s.dim_g)), rng.randint(-1, qtop))
                for _ in range(3)]
        a, b, c = (draw(p, q) for p, q in degs)
        for name, terms in identities(d, a, b, c, degs).items():
            if coords := residual(terms):
                failures.append({"case": case, "identity": name, "degrees": degs,
                                 "residual": repr(coords_cochain(s, side, coords))})
    return {"side": side, "cases": cases, "passed": cases - len({f["case"] for f in failures}),
            "failures": failures, "seed": seed}


def tpoly_axiom_checks(s: Scenario, cases: int = 200, seed: int = 0) -> dict:
    """Lemma-level identities on tot(Lambda g-dual (x) T_poly)."""
    return _axiom_checks(s, "tpoly", s.n - 1, cases, seed)


def dpoly_axiom_checks(s: Scenario, cases: int = 200, seed: int = 0) -> dict:
    """dgla identities on tot(Lambda g-dual (x) D_poly)."""
    return _axiom_checks(s, "dpoly", min(2, s.caps.max_arity - 1), cases, seed)


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
