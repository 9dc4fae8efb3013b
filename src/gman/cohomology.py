"""Weight-sliced cohomology of the two total complexes and the
windowed Kontsevich-Duflo comparison.

Cochain weight is preserved by every differential, so each weight is an
honest finite-dimensional subcomplex once the caps bound the basis.  On
the polyvector side nothing is truncated; on the operator side the
arity cap limits the total degrees whose cohomology is reliable to
k <= max_arity - 2 (one arity step of headroom for the outgoing
differential).  A CE-degree cap P < dim g limits both sides to k < P:
q >= -1 puts degree k at p <= k + 1, so those slices are the uncapped
ones, but a column at p = P keeps its rows at p = P + 1.

Every weight is a key weight (``scenario.key_weight``): a basis key
(I, mid, e) weighs the monomial weight of e less the action weights of I
and the weight of mid.  A monomial only adds weight, so the window's
floor, the smallest key weight of any slice within the caps, is the
smallest at e = 0 over the index tuples of at most min(dim g,
max_ce_degree) generators and the middle structures: the top positive
action weights and max(sum w, max_order * max w) come off.  A Duflo
residual may have parts of several weights (a connection of shift 1
gives td^{1/2} a part of weight 1), each reduced in its own slice.

The order cap N is exact by a theorem: with n = dim M, an operator
slice of total degree k has the dim H of the complex with no order cap
once N >= min(k + 1, n), and is reported stable exactly then.  Proof:
total order is a filtration (d_H splits a slot's multi-index, d_Lambda
keeps it, and the order-raising terms of [phi_a, -] cancel), so order
<= N is a subcomplex F_N.  On symbols d_H is the cobar differential of
Sym(V), V spanned by the d_i, with cohomology Lambda^a V at order exactly
a and zero for a > n (Hochschild-Kostant-Rosenberg).  Filtered by CE
degree p, the order-o piece gr_o has its E_1 page in total degree
p + o - 1 and only if o <= n (arity k + 1 <= max_arity - 1, the headroom
above), so H^j(gr_o) = 0 once o > min(j + 1, n).  So slice / F_N, filtered
by the gr_o with o > N, is acyclic in degrees k - 1 and k, and
H^k(F_N) = H^k(slice).

Operator bases are normalized, every slot of order >= 1: d, cup and the
bracket keep that, and the HKR image has it.  On each gr_o the inclusion
is the normalized Hochschild complex's, a quasi-isomorphism (Loday 1.5),
so by the CE filtration it is one on F_N and each slice, where the bound
holds alike.  ``dim_cochains`` counts the capped slice with order-0 slots.

Each (weight, total degree) slice is eliminated once: a Workspace keeps
one echelon of the slice's differential columns and answers rank,
kernel (cocycles, read off label rows on the polyvector side) and image
membership from it, for the cohomology report, the HKR injectivity test
and both Duflo twists alike.

Columns are built from unit generators.  The total differential is
linear over polynomial coefficients but for the g-action by vector
fields phi_a, and L_X(fV) = X(f)V + f L_X V for both brackets, so
d(x^e e_I (x) V) = x^e d(e_I (x) V) + sum_{a not in I} +-phi_a(x^e) e_{I+a} (x) V
with the sign of merge_indices((a,), I): the symbolic differential
(``side_differential``, [q, -] + d_Lambda through
``calculus.differential``), the one source of signs, runs once per
generator (I, V), and the action term is cached with it as raw entries
that each column shifts by e and scales by e_i, in one pass onto the
weight's row table, in the row order that decides pivots.

A Duflo residual is summed into one raw map (index tuple -> key -> term
map) and read off as basis-key coordinates, never built as a Cochain:
``ext_cup`` or ``ext_gerstenhaber`` adds the operator product into it,
and ``dpoly.hkr_terms`` subtracts hkr of the twisted polyvector product.
Where the twist is the identity (hkr alone, or a unit td^{1/2}) that
product is summed raw as well; under a real td^{1/2} it is built and
contracted.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations
from math import comb
from operator import add, sub
from typing import Callable

from .atiyah import todd_sqrt
from .calculus import (PolyVector, _schouten, contract, differential, ext_pv_wedge,
                       ext_schouten, mixed_unit)
from .dpoly import PolyDiffOp, _gerstenhaber, ext_cup, ext_gerstenhaber, ext_hkr, hkr_terms
from .liealg import Cochain, merge_indices
from .linalg import ColumnReducer, label_row
from .poly import (Coeff, Poly, _monomials, accumulate, grlex_key, int_first,
                   monomials_of_weight, unit)
from .scenario import Scenario, action_cochain, key_weight

SIDES = ("tpoly", "dpoly")


@cache
def _beta_tuples(n: int, arity: int, max_order: int) -> tuple[tuple, ...]:
    """All arity-tuples of multi-indices of order >= 1, total order <= max_order."""
    if arity == 0:
        return ((),)
    multis = []
    for d in range(1, max_order + 1):
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
    return tuple(out)


def enumerate_slice(s: Scenario, side: str, weight: int, p: int, q: int) -> list[tuple]:
    """Ordered basis of the (weight, p, q) slice at the scenario's caps.

    Elements are (I, mid, exps): dual-generator index tuple, middle
    structure (coordinate tuple for tpoly, multi-index tuple for dpoly),
    and a monomial exponent tuple.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")
    if not 0 <= p <= min(s.dim_g, s.caps.max_ce_degree):
        raise ValueError(f"exterior degree {p} outside caps")
    if side == "dpoly" and q + 1 > s.caps.max_arity + 1:
        raise ValueError(f"arity {q + 1} outside caps")
    return [(idx, mid, exps) for idx, mid, w0 in _unit_weights(
                side, s.weights, s.action_weights, p, q + 1, s.caps.max_order)
            for exps in _monomials(s.n, s.weights, weight - w0)]


@cache
def _unit_weights(side: str, weights: tuple[int, ...], action_weights: tuple[int, ...],
                  p: int, arity: int, max_order: int) -> tuple[tuple, ...]:
    """(I, mid, key weight at e = 0) of the unit generators e_I (x) mid with
    |I| = p and mid of the arity, in order: coordinate tuples on tpoly; on
    dpoly, multi-index tuples of total order at most max_order."""
    n, zero = len(weights), (0,) * len(weights)
    mids = (tuple(combinations(range(n), arity)) if side == "tpoly"
            else _beta_tuples(n, arity, max_order))
    return tuple((idx, mid, key_weight(side, (idx, mid, zero), weights, action_weights))
                 for idx in combinations(range(len(action_weights)), p) for mid in mids)


def coords_cochain(s: Scenario, side: str, coords: dict[tuple, object]) -> Cochain:
    """The cochain with the given basis-key coordinates; cochain_coords inverted."""
    value_type = PolyVector if side == "tpoly" else PolyDiffOp
    terms: dict[tuple, object] = {}
    for (idx, mid, exps), coeff in coords.items():
        accumulate(terms, idx, value_type(s.n, {mid: Poly.monomial(exps, coeff)}))
    return Cochain(s.dim_g, terms)


def cochain_coords(c: Cochain) -> dict[tuple, Coeff]:
    """Flatten a tpoly/dpoly-valued cochain to basis-key coordinates."""
    return {(idx, mid, exps): coeff for idx, v in c.terms.items()
            for mid, p in v.terms.items() for exps, coeff in p.terms.items()}


def serialize_coords(coords: dict[tuple, Coeff]) -> list:
    """Rows [I, mid, exps, "num/den"] of operator-side basis-key
    coordinates (mid a tuple of slot multi-indices), in key order."""
    return [[list(idx), [list(b) for b in mid], list(exps), f"{c.numerator}/{c.denominator}"]
            for (idx, mid, exps), c in sorted(coords.items())]


def raw_coords(acc: dict) -> dict[tuple, Coeff]:
    """Basis-key coordinates of a raw map (index tuple -> key -> term map),
    zeros dropped and coefficients int-first."""
    return {(idx, key, e): int_first(c)
            for idx, m in acc.items() for key, t in m.items() for e, c in t.items() if c}


def residual_coords(n: int, acc: dict, pv: dict) -> dict[tuple, Coeff]:
    """Basis-key coordinates of acc - ext_hkr(pv), for raw maps acc of an
    operator product and pv of a polyvector one: hkr of pv is subtracted
    into acc by ``hkr_terms``."""
    for idx, m in pv.items():
        hkr_terms(acc.setdefault(idx, {}), n, m, -1)
    return raw_coords(acc)


def twisted_terms(twisted: Callable, product: Callable, a: Cochain, b: Cochain) -> dict:
    """The raw map of twisted(product(a, b)): summed raw by product where
    the twist is ``_identity``, else built, twisted and read back."""
    if twisted is _identity:
        return product(a, b, {})
    return {idx: {k: p.terms for k, p in v.terms.items()}
            for idx, v in twisted(product(a, b)).terms.items()}


def side_differential(s: Scenario, side: str) -> Callable[[Cochain], Cochain]:
    """The total differential [q, -] + d_Lambda of a side: q is the action
    cochain with the Schouten kernel on tpoly, and the action by
    first-order operators plus the multiplication m with the
    Gerstenhaber kernel on dpoly, where [m, -] is the Hochschild
    differential."""
    q = action_cochain(s)
    if side == "tpoly":
        kernel = _schouten
    else:
        q = q.map_values(PolyDiffOp.from_vector_field) + Cochain(
            s.dim_g, {(): PolyDiffOp.multiplication(s.n)})
        kernel = _gerstenhaber
    return lambda c: differential(s.lie, q, c, kernel)


def weight_window(s: Scenario) -> list[int]:
    """Cochain weights reported: from the smallest key weight of any slice
    within the caps on either side (the module docstring) up to the cap."""
    lo = min(w0 for side, top in (("tpoly", s.n), ("dpoly", s.caps.max_arity))
             for p in range(min(s.dim_g, s.caps.max_ce_degree) + 1) for arity in range(top + 1)
             for _, _, w0 in _unit_weights(side, s.weights, s.action_weights, p, arity,
                                           s.caps.max_order))
    return list(range(lo, s.caps.max_weight + 1))


def stable_degree_max(s: Scenario, side: str) -> int:
    """The top total degree reported on a side: dim g + n - 1 on tpoly,
    max_arity - 2 on dpoly, and at most max_ce_degree - 1 on both where
    that cap is below dim g (the module docstring)."""
    top = s.dim_g + s.n - 1 if side == "tpoly" else s.caps.max_arity - 2
    return top if s.caps.max_ce_degree >= s.dim_g else min(top, s.caps.max_ce_degree - 1)


class Workspace:
    """Per-(scenario, side) cache of bases and of one echelon per slice.
    Operator-side bases are normalized (the module docstring).

    The echelon of slice (w, k) is a ColumnReducer filled once with the
    images of the slice's basis under the total differential.  Every
    question about the slice is answered from it: its pivot count is the
    rank of d on the slice, its kernel vectors are the cocycles (on the
    tpoly side, whose basis element u carries 1 at ``label_row(u)``;
    dpoly columns go in bare), and its pivots span the image of d in
    slice (w, k + 1), against which membership and independence are
    tested on matrix rows.  Stability takes no second elimination: a
    dpoly slice (w, k) has the dim H of the complex with no order cap
    once max_order >= min(k + 1, n), the bound of the module docstring.
    ``image_column`` builds each column in one pass from the cached
    template of its unit generator e_I (x) V straight onto the weight's
    row table, rows numbered in the order their keys first come out
    nonzero.
    """

    def __init__(self, s: Scenario, side: str):
        if side not in SIDES:
            raise ValueError("cohomology is computed on the tpoly or dpoly side")
        self.s = s
        self.side = side
        self.max_order = s.caps.max_order
        self.pmax = min(s.dim_g, s.caps.max_ce_degree)
        self.qmax = s.n - 1 if side == "tpoly" else s.caps.max_arity - 1
        self._diff = side_differential(s, side)
        self._units: dict[tuple, tuple] = {}  # (I, V) -> _template
        self._bases: dict[tuple[int, int], list] = {}
        self._rows: dict[int, dict[tuple, int]] = {}
        self._echelons: dict[tuple[int, int], ColumnReducer] = {}
        self._reps: dict[tuple[int, int], list[Cochain]] = {}

    def _degrees(self, k: int) -> list[tuple[int, int]]:
        """The (exterior, tensor) degrees (p, q) of total degree k."""
        return [(p, k - p) for p in range(self.pmax + 1) if -1 <= k - p <= self.qmax]

    def basis(self, w: int, k: int) -> list:
        key = (w, k)
        if key not in self._bases:
            self._bases[key] = [e for p, q in self._degrees(k)
                                for e in enumerate_slice(self.s, self.side, w, p, q)]
        return self._bases[key]

    def dim_cochains(self, w: int, k: int) -> int:
        """The size of slice (w, k) at the caps with order-0 slots allowed,
        counted: a dpoly mid of arity q + 1 is a normalized one of some
        arity j placed in j of the slots, the others of order and weight 0."""
        if self.side == "tpoly":
            return len(self.basis(w, k))
        s = self.s
        return sum(comb(q + 1, j) * len(_monomials(s.n, s.weights, w - w0))
                   for p, q in self._degrees(k) for j in range(q + 2)
                   for _, _, w0 in _unit_weights("dpoly", s.weights, s.action_weights, p, j,
                                                 self.max_order))

    def _column(self, w: int, coords: dict[tuple, object]) -> dict[int, object]:
        """Basis-key coordinates as a sparse column over the shared
        per-weight row table."""
        table = self._rows.setdefault(w, {})
        return {table.setdefault(key, len(table)): v for key, v in coords.items()}

    def _template(self, idx: tuple, mid: tuple) -> tuple[list, list]:
        """The image of the unit generator e_I (x) V as coordinates (key, c),
        and the action term as entries (J, g - u_i, sign * c, i), one per
        term c x^g d_i of each phi_a with e_a ^ e_I = sign e_J: it adds
        sign * c * e_i at exponent g - u_i + e to the image of x^e e_I (x) V."""
        if (idx, mid) not in self._units:
            n = self.s.n
            one = coords_cochain(self.s, self.side, {(idx, mid, (0,) * n): 1})
            action = []
            for a, field in enumerate(self.s.action):
                if (merged := merge_indices((a,), idx)) is not None:
                    sign, j = merged
                    for (i,), p in field.terms.items():
                        action.extend((j, tuple(map(sub, g, unit(n, i))), sign * c, i)
                                      for g, c in p.terms.items())
            self._units[idx, mid] = list(cochain_coords(self._diff(one)).items()), action
        return self._units[idx, mid]

    def image_column(self, table: dict[tuple, int], elt: tuple) -> dict[int, object]:
        """d(x^e e_I (x) V), for the key (I, V, e), as a column over the row
        table: the unit generator's image shifted by x^e, plus the action
        entries with e_i > 0 shifted by x^e and scaled by e_i.  Keys new to
        the table get rows once known nonzero, in first-met order."""
        idx, mid, exps = elt
        unit_image, action = self._template(idx, mid)
        col, new = {}, {}
        for (j, v, f), c in unit_image:
            key = (j, v, tuple(map(add, f, exps)))
            if (r := table.get(key)) is None:
                new[key] = c
            else:
                col[r] = c
        for j, f, c, i in action:
            if ei := exps[i]:
                key = (j, mid, tuple(map(add, f, exps)))
                if (r := table.get(key)) is None:
                    new[key] = int_first(new.get(key, 0) + c * ei)
                elif x := int_first(col.get(r, 0) + c * ei):
                    col[r] = x
                else:
                    del col[r]
        col.update({table.setdefault(key, len(table)): c for key, c in new.items() if c})
        return col

    def columns(self, w: int, k: int) -> list[dict]:
        """Images of the degree-k basis under the total differential.
        Built once per slice, to fill its echelon, and not kept."""
        return [self.image_column(self._rows.setdefault(w, {}), elt) for elt in self.basis(w, k)]

    def _echelon(self, w: int, k: int) -> ColumnReducer:
        key = (w, k)
        if key not in self._echelons:
            red = ColumnReducer()
            for u, col in enumerate(self.columns(w, k)):
                if self.side == "tpoly":
                    col[label_row(u)] = 1
                red.insert(col)
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

    def in_image(self, k: int, coords: dict[tuple, Coeff]) -> bool:
        """Are these basis-key coordinates (a Duflo residual) of total
        degree k a coboundary?  d preserves weight, so each weight part is
        reduced against the echelon of its own slice."""
        if not coords:
            return True
        parts, s = {}, self.s
        for key, c in coords.items():
            parts.setdefault(key_weight(self.side, key, s.weights, s.action_weights), {})[key] = c
        return all(self._echelon(w, k - 1).contains(self._column(w, part))
                   for w, part in parts.items())

    def independent_mod_image(self, w: int, k: int, coords: list[dict]) -> list[bool]:
        """For each coordinate map of slice (w, k), in order: is it
        independent of the image of d and of the ones before it?"""
        quotient = self._echelon(w, k - 1).copy()
        return [quotient.insert(self._column(w, c)) for c in coords]

    def representatives(self, w: int, k: int) -> list[Cochain]:
        """One cocycle per cohomology class in the (w, k) slice, on the
        tpoly side."""
        if self.side != "tpoly":
            raise ValueError("representatives are computed on the tpoly side only")
        key = (w, k)
        if key not in self._reps:
            basis = self.basis(w, k)
            kernel = self._echelon(w, k).kernel if basis else []
            cocycles = [{basis[label_row(r)]: v for r, v in vec.items()} for vec in kernel]
            self._reps[key] = [
                coords_cochain(self.s, self.side, c)
                for c, new in zip(cocycles, self.independent_mod_image(w, k, cocycles)) if new]
        return self._reps[key]


def _window(s: Scenario, ktop: int) -> dict:
    wlist = weight_window(s)
    return {"weights": [wlist[0], wlist[-1]], "max_total_degree": ktop,
            "caps": s.caps.to_json()}


def cohomology_report(ws: Workspace) -> dict:
    """Exact dims of H per (weight, total degree) on the workspace's
    side.  A slice is stable when its dim H is that of the complex with
    no order cap: every tpoly slice, and a dpoly slice of total degree k
    exactly when max_order >= min(k + 1, n)."""
    ktop = stable_degree_max(ws.s, ws.side)
    slices = [{"weight": w, "total_degree": k, "dim_cochains": ws.dim_cochains(w, k),
               "dim_H": ws.dim_h(w, k),
               "stable": ws.side == "tpoly" or ws.max_order >= min(k + 1, ws.s.n)}
              for w in weight_window(ws.s) for k in range(-1, ktop + 1)]
    return {
        "side": ws.side,
        "window": _window(ws.s, ktop),
        "slices": slices,
        "all_stable": all(e["stable"] for e in slices),
    }


def hkr_check(tp: Workspace, dp: Workspace) -> dict:
    """Dimension comparison between the two sides plus injectivity of
    the induced HKR map on representatives, within the stable window."""
    s = tp.s
    ktop = min(stable_degree_max(s, "tpoly"), stable_degree_max(s, "dpoly"))
    mismatches = []
    injective = True
    slices = []
    for w in weight_window(s):
        for k in range(-1, ktop + 1):
            ht = tp.dim_h(w, k)
            hd = dp.dim_h(w, k)
            slices.append({"weight": w, "total_degree": k,
                           "dim_H_tpoly": ht, "dim_H_dpoly": hd})
            if ht != hd:
                mismatches.append(slices[-1])
            if ht:
                mapped = [cochain_coords(ext_hkr(rep)) for rep in tp.representatives(w, k)]
                if not all(dp.independent_mod_image(w, k, mapped)):
                    injective = False
    return {
        "window": _window(s, ktop),
        "slices": slices,
        "dimensions_match": not mismatches,
        "mismatches": mismatches,
        "hkr_injective_on_H": injective,
    }


# ----------------------------------------------------------------- Duflo check

def _identity(a: Cochain) -> Cochain:
    return a


def twisting(s: Scenario, twist: str):
    """The polyvector-side map of a twist: contract(td^{1/2}, -) for
    "td_sqrt", else, or where td^{1/2} is the unit, the one ``_identity``."""
    if twist not in ("td_sqrt", "hkr_only"):
        raise ValueError(f"unknown twist {twist!r}: td_sqrt or hkr_only")
    unit = mixed_unit(s.dim_g, s.n)
    td_half = todd_sqrt(s) if twist == "td_sqrt" else unit
    return _identity if td_half == unit else (lambda a: contract(td_half, a))


def duflo_check(tp: Workspace, dp: Workspace, twist: str, *, seed: int = 0,
                sample_cap: int = 1000, twisted=None) -> dict:
    """Windowed Gerstenhaber-morphism check for hkr twisted by td^{1/2}
    (twist "td_sqrt") or for hkr alone (twist "hkr_only").

    For sampled pairs of polyvector-side cohomology classes, the cup
    and bracket compatibility defects of the map are reduced modulo the
    image of the total differential in their slice; a non-reducible
    residual is reported as a falsification witness.  Each class is
    mapped once, not once per pair.  Residuals are basis-key coordinates
    of one raw sum per pair and product (``residual_coords``), reduced by
    ``in_image``, serialised on failure.  ``twisted`` is the twist's map
    where the caller already has it from ``twisting``.
    """
    s = tp.s
    twisted = twisting(s, twist) if twisted is None else twisted
    if sample_cap < 1:
        raise ValueError(f"sample_cap must be at least 1, got {sample_cap}")
    ktop = min(stable_degree_max(s, "tpoly"), stable_degree_max(s, "dpoly"))
    classes = []
    for w in weight_window(s):
        for k in range(-1, ktop + 1):
            for i, rep in enumerate(tp.representatives(w, k)):
                classes.append({"weight": w, "degree": k, "index": i, "rep": rep})
    images = [ext_hkr(twisted(c["rep"])) for c in classes]

    count = len(classes)
    pairs = [(i, j) for i in range(count) for j in range(i, count)]  # row by row
    sampled = len(pairs) > sample_cap
    if sampled:
        ranks = random.Random(seed).sample(range(len(pairs)), sample_cap)
        pairs = [pairs[r] for r in sorted(ranks)]

    failures = []
    for i, j in pairs:
        a, b = classes[i], classes[j]
        fa, fb, ra, rb = images[i], images[j], a["rep"], b["rep"]

        prod_res = residual_coords(s.n, ext_cup(fa, fb, {}),
                                   twisted_terms(twisted, ext_pv_wedge, ra, rb))
        prod_ok = dp.in_image(a["degree"] + b["degree"] + 1, prod_res)

        br_res = residual_coords(s.n, ext_gerstenhaber(fa, fb, {}),
                                 twisted_terms(twisted, ext_schouten, ra, rb))
        br_ok = dp.in_image(a["degree"] + b["degree"], br_res)

        if not (prod_ok and br_ok):
            failures.append({
                "pair": [{k2: v for k2, v in c.items() if k2 != "rep"} for c in (a, b)],
                "product_reduces": prod_ok,
                "bracket_reduces": br_ok,
                "product_residual": serialize_coords(prod_res) if not prod_ok else [],
                "bracket_residual": serialize_coords(br_res) if not br_ok else [],
            })
    return {
        "window": _window(s, ktop),
        "twist": twist,
        "classes": count,
        "pairs_checked": len(pairs),
        "sampled": sampled,
        "seed": seed,
        "failures": failures,
        "all_reduce": not failures,
    }
