"""Polydifferential operators in normal form.

An operator of arity r is a finite map from r-tuples of multi-indices
to polynomial coefficients: the tuple (b_0, .., b_{r-1}) with
coefficient p stands for (f_0, .., f_{r-1}) |-> p * d^{b_0}f_0 * ... .
Functions are arity 0 (degree -1) with the empty tuple as only key.
Coefficients always sit in a single left factor, which makes equality
of operators equality of term maps.

The Gerstenhaber bracket is built from slot insertion, one product per
distinct derivative of the inserted coefficient, each target key
shifting only the slots a derivative reaches (the Leibniz split table
lists each split's nonzero parts, slot by slot); the Hochschild
differential is [m, -] with m the two-slot multiplication.  A vector
field or a first m in a term pair leaves out the terms that cancel,
signed by the loops' ``_sign1`` and ``_sign2``, the one source of signs.
Bracket and cup are term-pair kernels, run by ``calculus.ext_bilinear``
on cochains; a single operator is a cochain of degree 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial, prod
from operator import add

from .calculus import PolyVector, ext_bilinear
from .liealg import Cochain, sort_indices
from .poly import Coeff, Poly, Sparse, _norm, addmul, derive, int_first, polys, unit

MultiIndex = tuple[int, ...]
OpKey = tuple[MultiIndex, ...]


@cache
def _hkr_layout(idx: tuple[int, ...], n: int) -> tuple[tuple[OpKey, Coeff], ...]:
    """(unit slots, int-first sign/k!) for every permutation of idx, k = len(idx)."""
    k = factorial(len(idx))
    return tuple((tuple(unit(n, j) for j in perm), _norm(Fraction(sort_indices(perm)[0], k)))
                 for perm in permutations(idx))


@cache
def _split_multiindex(alpha: MultiIndex, parts: int) -> tuple[tuple[MultiIndex, tuple], ...]:
    """All ways to write alpha as a sum of ``parts`` multi-indices with their
    multinomial coefficients, grouped by the first part: (first, ((rest,
    coeff), ..)).  A rest is sparse: the (slot, part) pairs, slots counted
    from 0 after the first part, of its nonzero parts in ascending slot
    order.  Few distinct (alpha, parts) occur; each is computed once."""
    if parts == 1:
        return ((alpha, (((), 1),)),)
    out = []
    for first in product(*(range(a + 1) for a in alpha)):
        coeff = prod(comb(a, b) for a, b in zip(alpha, first))
        rest = tuple(a - b for a, b in zip(alpha, first))
        group = []
        for second, tails in _split_multiindex(rest, parts - 1):
            shifted = ((0, second),) if any(second) else ()
            group += ((shifted + tuple((j + 1, d) for j, d in tail), coeff * c)
                      for tail, c in tails)
        out.append((first, tuple(group)))
    return tuple(out)


class PolyDiffOp(Sparse):
    """Sparse polydifferential operator; sums of mixed arity allowed.

    Degrees are shifted: arity - 1, so functions count as -1."""

    __slots__ = ()
    SHIFT = -1

    def _check_key(self, key: OpKey) -> None:
        if any(len(b) != self.n for b in key):
            raise ValueError(f"bad multi-index tuple {key}")

    # ---------------------------------------------------------- constructors

    @staticmethod
    def function(p: Poly) -> "PolyDiffOp":
        return PolyDiffOp(p.n, {(): p})

    @staticmethod
    def multiplication(n: int) -> "PolyDiffOp":
        zero = (0,) * n
        return PolyDiffOp(n, {(zero, zero): Poly.const(n, 1)})

    @staticmethod
    def from_vector_field(x: PolyVector) -> "PolyDiffOp":
        return PolyDiffOp(x.n, {(unit(x.n, j),): p for j, p in enumerate(x.vf_components())})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*D{[list(b) for b in k]}"
                          for k, p in sorted(self.terms.items()))


# ------------------------------------------------------------------ insertion

def _insert(acc: dict, key1: OpKey, p1: Poly, slot: int, key2: OpKey, p2: Poly,
            sign: int, memo: dict, raising: bool) -> None:
    """acc += sign * (the term p2 D^key2 substituted into the given slot of
    the term p1 D^key1), where acc maps keys to raw term maps.

    The derivative on the consumed slot distributes over p2 and the
    slots of key2 by the multivariate Leibniz rule with multinomial
    coefficients.  Each first part a of a split is one product p1 d^a p2,
    kept in memo (a -> product), which the caller shares across the slots
    of key1, and added into each key of its group: key2 with the slots
    its rest lists shifted, in place of the consumed slot.  Unless
    ``raising``, the group a = 0 is left out where key2 has slots.
    """
    head, tail = key1[:slot], key1[slot + 1:]
    groups = _split_multiindex(key1[slot], len(key2) + 1)
    for first, group in groups if raising or not key2 else groups[1:]:
        if (pq := memo.get(first)) is None:
            dp2 = derive(p2.terms, first)
            pq = memo[first] = addmul({}, p1.terms, dp2, 1) if dp2 else {}
        if not pq:
            continue
        for rest, coeff in group:
            slots = list(key2)
            for j, d in rest:
                slots[j] = tuple(map(add, slots[j], d))
            target = acc.setdefault(head + tuple(slots) + tail, {})
            scale = sign * coeff
            for e, c in pq.items():
                target[e] = target.get(e, 0) + c * scale


def _sign1(f, i: int, l: int):
    """The sign of d2 inserted into slot i of d1 in f [d1, d2]."""
    return -f if i * l % 2 else f


def _sign2(f, j: int, k: int, l: int):
    """The sign of d1 inserted into slot j of d2 in f [d1, d2]."""
    return f if (k * l + j * k) % 2 else -f


def _gerstenhaber(acc: dict, key1: OpKey, p1: Poly, key2: OpKey, p2: Poly, f) -> None:
    """acc += f [p1 D^key1, p2 D^key2] = f (d1 o d2 - (-1)^{kl} d2 o d1) in
    shifted degrees k, l, where d1 o d2 = sum_i (-1)^{il} (d2 inserted
    into slot i of d1), its slots sharing one product memo.  With a
    vector field on either side, both compositions form p1 p2 at the
    same order-raising keys (first part 0) with opposite signs, so these
    are left out; with m = c D^(0, 0) first, see ``_hochschild``."""
    k, l, memo = len(key1) - 1, len(key2) - 1, {}
    if k == 1 and key1[0] == key1[1] and not any(key1[0]) and p1.terms.keys() == {key1[0]}:
        _hochschild(acc, key2, p2, p1, f)
        return
    raising = not (len(key1) == 1 and sum(key1[0]) == 1 or len(key2) == 1 and sum(key2[0]) == 1)
    for i in range(k + 1):
        _insert(acc, key1, p1, i, key2, p2, _sign1(f, i, l), memo, raising)
    memo = {}  # p1 and p2 swap roles
    for j in range(l + 1):
        _insert(acc, key2, p2, j, key1, p1, _sign2(f, j, k, l), memo, raising)


def _hochschild(acc: dict, key: OpKey, p: Poly, pm: Poly, f) -> None:
    """acc += f [pm D^(0, 0), p D^key] for a constant pm: the loops of
    ``_gerstenhaber`` without the terms that cancel.  Slot j splits into
    (gamma, beta_j - gamma) with the sign of slot j; gamma 0 or beta_j
    inserts a zero slot, and along a maximal run of r zero slots that
    key's r + 2 terms (the run and its neighbours, m's slots at the ends
    of key) alternate in sign, summing to the left neighbour's for odd r.
    Keys come in the order the loops first touch them."""
    l, ((zero, c),) = len(key) - 1, pm.terms.items()
    bounds = [-1, *(j for j, b in enumerate(key) if any(b)), l + 1]
    runs = {u: (key[:u + 1] + (zero,) + key[u + 1:],  # odd runs by left neighbour
                c * (_sign2(f, u, 1, l) if u >= 0 else _sign1(f, 1, l)))
            for u, v in zip(bounds, bounds[1:]) if (v - u) % 2 == 0}
    out = [runs.pop(bounds[-2], None), runs.pop(-1, None)]  # the runs at the end, at the start
    for j in bounds[1:-1]:  # the split table's first and last groups are gamma 0 and beta_j
        sign = c * _sign2(f, j, 1, l)
        out += [(key[:j] + (gamma, delta) + key[j + 1:], sign * b)
                for gamma, ((((_, delta),), b),) in _split_multiindex(key[j], 2)[1:-1]]
        out.append(runs.pop(j, None))
    for target_key, scale in filter(None, out):
        target = acc.setdefault(target_key, {})
        for e, x in p.terms.items():
            target[e] = target.get(e, 0) + x * scale


def _cup(acc: dict, k1: OpKey, p1: Poly, k2: OpKey, p2: Poly, f) -> None:
    """acc += f (p1 D^k1) cup (p2 D^k2): slots concatenate."""
    addmul(acc.setdefault(k1 + k2, {}), p1.terms, p2.terms, f)


def hkr_terms(acc: dict, n: int, pv: dict, f) -> dict:
    """acc[slots][e] += f * sign/k! * c over every term c x^e d_idx of the
    raw polyvector pv (coordinate tuple -> term map over n coordinates)
    and every signed permutation of idx, k = len(idx): the raw kernel of
    hkr.  Sums that cancel are dropped, zero entries of pv included;
    coefficients stay int-first."""
    for idx, t_in in pv.items():
        for slots, factor in _hkr_layout(idx, n):
            g, t = f * factor, acc.setdefault(slots, {})
            for e, c in t_in.items():
                if c := t.get(e, 0) + c * g:
                    t[e] = int_first(c)
                else:
                    t.pop(e, None)
    return acc


def hkr(pv: PolyVector) -> PolyDiffOp:
    """Antisymmetrized embedding of multivectors into operators, X_1 ^ ..
    ^ X_k |-> (1/k!) sum over signed permutations; identity on functions."""
    raw = {idx: p.terms for idx, p in pv.terms.items()}
    return PolyDiffOp(pv.n, polys(pv.n, hkr_terms({}, pv.n, raw, 1)))


# ----------------------------------------------------- Lambda g-dual extension

def ext_gerstenhaber(a: Cochain, b: Cochain, acc: dict | None = None, f: Coeff = 1):
    """Bracket extension with sign exponent q1*p2 (shifted degrees); with
    a raw map acc, adds f times the bracket into it (``ext_bilinear``)."""
    return ext_bilinear(a, b, _gerstenhaber, lambda q1, p2: q1 * p2, acc, f)


def ext_cup(a: Cochain, b: Cochain, acc: dict | None = None, f: Coeff = 1):
    """Cup extension; Koszul sign from the arity q1+1, matching the
    wedge extension on the polyvector side through hkr.  With a raw map
    acc, adds f times the product into it (``ext_bilinear``)."""
    return ext_bilinear(a, b, _cup, lambda q1, p2: (q1 + 1) * p2, acc, f)


def ext_hkr(a: Cochain) -> Cochain:
    """id (x) hkr on cochains with polyvector values."""
    return a.map_values(hkr)
