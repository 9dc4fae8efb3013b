"""Weight-sliced cohomology of the two total complexes and the
windowed Kontsevich-Duflo comparison.

Cochain weight is preserved by every differential, so each weight is an
honest finite-dimensional subcomplex once the caps bound the basis.  On
the polyvector side nothing is truncated; on the operator side the
arity cap limits the total degrees whose cohomology is reliable to
k <= max_arity - 2 (one arity step of headroom for the outgoing
differential), and the order cap is a filtration whose effect is
audited by recomputing every dimension at max_order + 1.

Each (weight, total degree) slice is eliminated once: a Workspace keeps
one tracked echelon of the slice's differential columns and answers
rank, kernel (cocycle representatives) and image membership from it,
for the cohomology report, the HKR injectivity test and both Duflo
twists alike.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .actions import on_dpoly, on_polyvectors
from .atiyah import todd_sqrt
from .calculus import PolyVector, contract, ext_pv_wedge, ext_schouten
from .dpoly import PolyDiffOp, ext_cup, ext_gerstenhaber, ext_hkr, hochschild
from .liealg import Cochain, ce_differential, total_differential
from .linalg import ColumnReducer
from .poly import Poly, accumulate, grlex_key, monomial_weight, monomials_of_weight
from .scenario import Scenario

SIDES = ("tpoly", "dpoly")


def _beta_tuples(n: int, arity: int, max_order: int) -> list[tuple]:
    """All arity-tuples of multi-indices with total order <= max_order."""
    if arity == 0:
        return [()]
    multis = []
    for d in range(max_order + 1):
        multis.extend(monomials_of_weight(n, (1,) * n, d))

    out: list[tuple] = []

    def rec(t: int, budget: int, prefix: tuple):
        if t == arity:
            out.append(prefix)
            return
        for b in multis:
            db = sum(b)
            if db <= budget:
                rec(t + 1, budget - db, prefix + (b,))

    rec(0, max_order, ())
    out.sort(key=lambda bs: tuple(grlex_key(b) for b in bs))
    return out


def enumerate_slice(s: Scenario, side: str, weight: int, p: int, q: int,
                    max_order: int | None = None) -> list[tuple]:
    """Ordered basis of the (weight, p, q) slice.

    Elements are (I, mid, exps): dual-generator index tuple, middle
    structure (coordinate tuple for tpoly, multi-index tuple for dpoly),
    and a monomial exponent tuple.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")
    m, n, w = s.dim_g, s.n, s.weights
    order_cap = s.caps.max_order if max_order is None else max_order
    if not 0 <= p <= min(m, s.caps.max_ce_degree):
        raise ValueError(f"exterior degree {p} outside caps")
    if side == "dpoly" and q + 1 > s.caps.max_arity + 1:
        raise ValueError(f"arity {q + 1} outside caps")
    out: list[tuple] = []
    for idx in combinations(range(m), p):
        gshift = sum(s.action_weights[i] for i in idx)
        if side == "tpoly":
            mids = [(tuple(jj), sum(w[j] for j in jj))
                    for jj in combinations(range(n), q + 1)]
        else:
            mids = [(bs, sum(monomial_weight(b, w) for b in bs))
                    for bs in _beta_tuples(n, q + 1, order_cap)]
        for mid, mshift in mids:
            target = weight + gshift + mshift
            for exps in monomials_of_weight(n, w, target):
                out.append((idx, mid, exps))
    return out


def coords_cochain(s: Scenario, side: str, coords: dict[tuple, object]) -> Cochain:
    """The cochain with the given basis-key coordinates; inverse of
    cochain_coords."""
    value_type = PolyVector if side == "tpoly" else PolyDiffOp
    terms: dict[tuple, object] = {}
    for (idx, mid, exps), coeff in coords.items():
        accumulate(terms, idx, value_type(s.n, {mid: Poly.monomial(exps, coeff)}))
    return Cochain(s.dim_g, terms)


def basis_cochain(s: Scenario, side: str, elt: tuple) -> Cochain:
    return coords_cochain(s, side, {elt: 1})


def cochain_coords(c: Cochain) -> dict[tuple, Fraction]:
    """Flatten a tpoly/dpoly-valued cochain to basis-key coordinates."""
    out: dict[tuple, Fraction] = {}
    for idx, v in c.terms.items():
        for mid, p in v.terms.items():
            for exps, coeff in p.terms.items():
                out[(idx, mid, exps)] = coeff
    return out


def serialize_cochain(c: Cochain) -> list:
    rows = []
    for key, coeff in sorted(cochain_coords(c).items()):
        idx, mid, exps = key
        rows.append([list(idx), [list(b) for b in mid] if mid and isinstance(mid[0], tuple)
                     else list(mid), list(exps), f"{coeff.numerator}/{coeff.denominator}"])
    return rows


def weight_window(s: Scenario) -> list[int]:
    """Cochain weights reported: every weight that can carry a nonzero
    slice on either side, up to the cap."""
    lo = -max(sum(s.weights), s.caps.max_order * max(s.weights))
    return list(range(lo, s.caps.max_weight + 1))


def stable_degree_max(s: Scenario, side: str) -> int:
    if side == "tpoly":
        return min(s.dim_g, s.caps.max_ce_degree) + s.n - 1
    return s.caps.max_arity - 2


class Workspace:
    """Per-(scenario, side) cache of bases and of one echelon per slice.

    The echelon of slice (w, k) is a tracked ColumnReducer filled once
    with the images of the slice's basis under the total differential.
    Every question about the slice is answered from it: its pivot count
    is the rank of d on the slice, its kernel combinations are the
    cocycles, and its pivots span the image of d in slice (w, k + 1),
    against which membership and independence are tested.
    """

    def __init__(self, s: Scenario, side: str, max_order: int | None = None):
        if side not in SIDES:
            raise ValueError("cohomology is computed on the tpoly or dpoly side")
        self.s = s
        self.side = side
        self.max_order = s.caps.max_order if max_order is None else max_order
        self.pmax = min(s.dim_g, s.caps.max_ce_degree)
        self.qmax = s.n - 1 if side == "tpoly" else s.caps.max_arity - 1
        if side == "tpoly":
            act = on_polyvectors(s)
            self._diff = lambda c: ce_differential(s.lie, c, act)
        else:
            act = on_dpoly(s)
            self._diff = lambda c: total_differential(s.lie, c, act, hochschild)
        self._bases: dict[tuple[int, int], list] = {}
        self._rows: dict[int, dict[tuple, int]] = {}
        self._echelons: dict[tuple[int, int], ColumnReducer] = {}
        self._reps: dict[tuple[int, int], list[Cochain]] = {}

    @property
    def kmax(self) -> int:
        return self.pmax + self.qmax

    def basis(self, w: int, k: int) -> list:
        key = (w, k)
        if key not in self._bases:
            elems = []
            for p in range(self.pmax + 1):
                q = k - p
                if -1 <= q <= self.qmax:
                    elems.extend(enumerate_slice(self.s, self.side, w, p, q,
                                                 max_order=self.max_order))
            self._bases[key] = elems
        return self._bases[key]

    def _column(self, w: int, coords: dict[tuple, object]) -> dict[int, object]:
        """Basis-key coordinates as a sparse column over the shared
        per-weight row table."""
        table = self._rows.setdefault(w, {})
        return {table.setdefault(key, len(table)): v for key, v in coords.items()}

    def columns(self, w: int, k: int) -> list[dict]:
        """Images of the degree-k basis under the total differential.
        Built once per slice, to fill its echelon, and not kept."""
        return [self._column(w, cochain_coords(self._diff(basis_cochain(self.s, self.side, elt))))
                for elt in self.basis(w, k)]

    def _echelon(self, w: int, k: int) -> ColumnReducer:
        key = (w, k)
        if key not in self._echelons:
            red = ColumnReducer(track=True)
            for u, col in enumerate(self.columns(w, k)):
                red.insert(col, label=u)
            self._echelons[key] = red
        return self._echelons[key]

    def rank(self, w: int, k: int) -> int:
        return self._echelon(w, k).rank

    def dim_h(self, w: int, k: int) -> int:
        dim = len(self.basis(w, k))
        if dim == 0:
            return 0
        incoming = self.rank(w, k - 1) if k - 1 >= -1 else 0
        return dim - self.rank(w, k) - incoming

    def in_image(self, w: int, k: int, c: Cochain) -> bool:
        """Is the cochain, of slice (w, k), a coboundary?"""
        coords = cochain_coords(c)
        if not coords:
            return True
        image = self._echelon(w, k - 1)
        return image.contains(self._column(w, coords))

    def independent_mod_image(self, w: int, k: int, coords: list[dict]) -> list[bool]:
        """For each coordinate map of slice (w, k), in order: is it
        independent of the image of d and of the ones before it?"""
        quotient = ColumnReducer()
        quotient.pivots = dict(self._echelon(w, k - 1).pivots)
        return [quotient.insert(self._column(w, c)) for c in coords]

    def representatives(self, w: int, k: int) -> list[Cochain]:
        """One cocycle per cohomology class in the (w, k) slice."""
        key = (w, k)
        if key not in self._reps:
            basis = self.basis(w, k)
            kernel = self._echelon(w, k).kernel if basis else []
            cocycles = [{basis[u]: v for u, v in combo.items()} for combo in kernel]
            self._reps[key] = [
                coords_cochain(self.s, self.side, c)
                for c, new in zip(cocycles, self.independent_mod_image(w, k, cocycles)) if new]
        return self._reps[key]


def cohomology_report(s: Scenario, side: str, *, weights: list[int] | None = None,
                      kmax: int | None = None, stability: bool = True,
                      workspace: Workspace | None = None,
                      recheck_workspace: Workspace | None = None) -> dict:
    """Exact dims of H per (weight, total degree), with the order-cap
    stability audit on the operator side."""
    ws = Workspace(s, side) if workspace is None else workspace
    wlist = weight_window(s) if weights is None else list(weights)
    ktop = min(stable_degree_max(s, side), ws.kmax) if kmax is None else kmax
    recheck = recheck_workspace
    if recheck is None and stability and side == "dpoly":
        recheck = Workspace(s, side, max_order=s.caps.max_order + 1)
    slices = []
    for w in wlist:
        for k in range(-1, ktop + 1):
            dim = len(ws.basis(w, k))
            h = ws.dim_h(w, k)
            entry = {"weight": w, "total_degree": k,
                     "dim_cochains": dim, "dim_H": h}
            if recheck is not None:
                entry["stable"] = (recheck.dim_h(w, k) == h)
            else:
                entry["stable"] = True
            slices.append(entry)
    return {
        "side": side,
        "window": {"weights": [wlist[0], wlist[-1]], "max_total_degree": ktop,
                   "caps": s.caps.to_json()},
        "slices": slices,
        "all_stable": all(e["stable"] for e in slices),
    }


def hkr_check(s: Scenario, *, weights: list[int] | None = None,
              tp: Workspace | None = None, dp: Workspace | None = None) -> dict:
    """Dimension comparison between the two sides plus injectivity of
    the induced HKR map on representatives, within the stable window."""
    tp = Workspace(s, "tpoly") if tp is None else tp
    dp = Workspace(s, "dpoly") if dp is None else dp
    wlist = weight_window(s) if weights is None else list(weights)
    ktop = min(stable_degree_max(s, "tpoly"), stable_degree_max(s, "dpoly"))
    mismatches = []
    injective = True
    slices = []
    for w in wlist:
        for k in range(-1, ktop + 1):
            ht = tp.dim_h(w, k)
            hd = dp.dim_h(w, k)
            slices.append({"weight": w, "total_degree": k,
                           "dim_H_tpoly": ht, "dim_H_dpoly": hd})
            if ht != hd:
                mismatches.append({"weight": w, "total_degree": k,
                                   "dim_H_tpoly": ht, "dim_H_dpoly": hd})
            if ht:
                mapped = [cochain_coords(ext_hkr(rep)) for rep in tp.representatives(w, k)]
                if not all(dp.independent_mod_image(w, k, mapped)):
                    injective = False
    return {
        "window": {"weights": [wlist[0], wlist[-1]], "max_total_degree": ktop,
                   "caps": s.caps.to_json()},
        "slices": slices,
        "dimensions_match": not mismatches,
        "mismatches": mismatches,
        "hkr_injective_on_H": injective,
    }


# ----------------------------------------------------------------- Duflo check

def _pair_from_rank(r: int, count: int) -> tuple[int, int]:
    """The r-th unordered pair (i <= j) of range(count), row by row."""
    i = 0
    row = count
    while r >= row:
        r -= row
        i += 1
        row -= 1
    return i, i + r


def duflo_check(s: Scenario, *, seed: int = 0, sample_cap: int = 1000,
                weights: list[int] | None = None, use_todd: bool = True,
                tp: Workspace | None = None, dp: Workspace | None = None) -> dict:
    """Windowed Gerstenhaber-morphism check for hkr twisted by td^{1/2}.

    For sampled pairs of polyvector-side cohomology classes, the cup
    and bracket compatibility defects of the twisted HKR map are
    reduced modulo the image of the total differential in their slice;
    a non-reducible residual is reported as a falsification witness.
    """
    tp = Workspace(s, "tpoly") if tp is None else tp
    dp = Workspace(s, "dpoly") if dp is None else dp
    wlist = weight_window(s) if weights is None else list(weights)
    ktop = min(stable_degree_max(s, "tpoly"), stable_degree_max(s, "dpoly"))

    classes = []
    for w in wlist:
        for k in range(-1, ktop + 1):
            for i, rep in enumerate(tp.representatives(w, k)):
                classes.append({"weight": w, "degree": k, "index": i, "rep": rep})

    td_half = todd_sqrt(s)

    def phi_twisted(a: Cochain) -> Cochain:
        return ext_hkr(contract(td_half, a))

    phi = phi_twisted if use_todd else ext_hkr

    count = len(classes)
    total_pairs = count * (count + 1) // 2
    if total_pairs <= sample_cap:
        pair_ranks = list(range(total_pairs))
        sampled = False
    else:
        rng = random.Random(seed)
        pair_ranks = sorted(rng.sample(range(total_pairs), sample_cap))
        sampled = True

    failures = []
    checked = 0
    for r in pair_ranks:
        i, j = _pair_from_rank(r, count)
        a, b = classes[i], classes[j]
        fa, fb = phi(a["rep"]), phi(b["rep"])
        wsum = a["weight"] + b["weight"]

        prod_res = ext_cup(fa, fb) - phi(ext_pv_wedge(a["rep"], b["rep"]))
        prod_ok = dp.in_image(wsum, a["degree"] + b["degree"] + 1, prod_res)

        br_res = ext_gerstenhaber(fa, fb) - phi(ext_schouten(a["rep"], b["rep"]))
        br_ok = dp.in_image(wsum, a["degree"] + b["degree"], br_res)

        checked += 1
        if not (prod_ok and br_ok):
            failures.append({
                "pair": [{k2: v for k2, v in c.items() if k2 != "rep"} for c in (a, b)],
                "product_reduces": prod_ok,
                "bracket_reduces": br_ok,
                "product_residual": serialize_cochain(prod_res) if not prod_ok else [],
                "bracket_residual": serialize_cochain(br_res) if not br_ok else [],
            })
    return {
        "window": {"weights": [wlist[0], wlist[-1]], "max_total_degree": ktop,
                   "caps": s.caps.to_json()},
        "twist": "td_sqrt" if use_todd else "hkr_only",
        "classes": len(classes),
        "pairs_checked": checked,
        "sampled": sampled,
        "seed": seed,
        "failures": failures,
        "all_reduce": not failures,
    }
