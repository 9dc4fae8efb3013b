"""Polydifferential operators in normal form.

An operator of arity r is a finite map from r-tuples of multi-indices
to polynomial coefficients: the tuple (b_0, .., b_{r-1}) with
coefficient p stands for (f_0, .., f_{r-1}) |-> p * d^{b_0}f_0 * ... .
Functions are arity 0 (degree -1) with the empty tuple as only key.
Coefficients always sit in a single left factor, which makes equality
of operators equality of term maps.

The Gerstenhaber bracket is built from slot insertion; the Hochschild
differential is [m, -] with m the two-slot multiplication, so there is
exactly one source of signs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .calculus import PolyVector, ext_bilinear
from .liealg import Cochain
from .poly import Poly, Sparse, accumulate

MultiIndex = tuple[int, ...]
OpKey = tuple[MultiIndex, ...]


def _permutations_signed(items: tuple):
    """(sign, permutation) pairs; plain recursive expansion."""
    if len(items) <= 1:
        yield 1, items
        return
    for i in range(len(items)):
        rest = items[:i] + items[i + 1:]
        head_sign = -1 if i % 2 else 1
        for sign, perm in _permutations_signed(rest):
            yield head_sign * sign, (items[i],) + perm


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _split_multiindex(alpha: MultiIndex, parts: int):
    """All ways to write alpha as a sum of ``parts`` multi-indices,
    with the multinomial coefficient of the split."""
    per_coord = []
    for a in alpha:
        options = []
        for comp in _compositions(a, parts):
            coeff = 1
            rem = a
            for c in comp[:-1]:
                coeff *= comb(rem, c)
                rem -= c
            options.append((comp, coeff))
        per_coord.append(options)

    def rec(c: int):
        if c == len(alpha):
            yield tuple(() for _ in range(parts)), 1
            return
        for tail, tcoeff in rec(c + 1):
            for comp, coeff in per_coord[c]:
                yield tuple((comp[t],) + tail[t] for t in range(parts)), coeff * tcoeff

    yield from rec(0)


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
        n = x.n
        terms: dict[OpKey, Poly] = {}
        for j, p in enumerate(x.vf_components()):
            if p.is_zero():
                continue
            e = [0] * n
            e[j] = 1
            terms[(tuple(e),)] = p
        return PolyDiffOp(n, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*D{[list(b) for b in k]}"
                          for k, p in sorted(self.terms.items()))


# ------------------------------------------------------------------ insertion

def dp_insert(d1: PolyDiffOp, slot: int, d2: PolyDiffOp) -> PolyDiffOp:
    """Substitute the output of d2 into the given argument slot of d1.

    The derivative on the consumed slot distributes over d2's
    coefficient and arguments by the multivariate Leibniz rule with
    multinomial coefficients.
    """
    n = d1.n
    acc: dict[OpKey, Poly] = {}
    for key1, p1 in d1.terms.items():
        if not 0 <= slot < len(key1):
            raise IndexError(f"slot {slot} out of range for arity {len(key1)}")
        alpha = key1[slot]
        for key2, p2 in d2.terms.items():
            parts = len(key2) + 1  # coefficient of d2 plus its slots
            for split, coeff in _split_multiindex(alpha, parts):
                dp2 = p2.partial_multi(split[0])
                if dp2.is_zero():
                    continue
                new_slots = tuple(
                    tuple(b + d for b, d in zip(key2[t], split[t + 1]))
                    for t in range(len(key2))
                )
                key = key1[:slot] + new_slots + key1[slot + 1:]
                accumulate(acc, key, (p1 * dp2).scale(coeff))
    return PolyDiffOp(n, acc)


def _circ(d1: PolyDiffOp, d2: PolyDiffOp) -> PolyDiffOp:
    """d1 o d2 = sum_i (-1)^{i * deg d2} insert(d1, i, d2), per arity."""
    n = d1.n
    out = PolyDiffOp(n)
    for k1, c1 in d1.components_by_degree():
        if k1 < 0:
            continue  # functions have no slots
        for l2, c2 in d2.components_by_degree():
            for i in range(k1 + 1):
                term = dp_insert(c1, i, c2)
                if (i * l2) % 2:
                    term = term.scale(-1)
                out = out + term
    return out


def gerstenhaber(d1: PolyDiffOp, d2: PolyDiffOp) -> PolyDiffOp:
    """[d1, d2] = d1 o d2 - (-1)^{kl} d2 o d1 in shifted degrees."""
    n = d1.n
    out = PolyDiffOp(n)
    for k, c1 in d1.components_by_degree():
        for l, c2 in d2.components_by_degree():
            term = _circ(c1, c2)
            swap = _circ(c2, c1)
            if (k * l) % 2:
                swap = swap.scale(-1)
            out = out + term - swap
    return out


def hochschild(d: PolyDiffOp) -> PolyDiffOp:
    """Hochschild differential as [m, -] with m the multiplication."""
    return gerstenhaber(PolyDiffOp.multiplication(d.n), d)


def cup(d1: PolyDiffOp, d2: PolyDiffOp) -> PolyDiffOp:
    """Concatenation product: arities add, coefficients multiply."""
    n = d1.n
    acc: dict[OpKey, Poly] = {}
    for k1, p1 in d1.terms.items():
        for k2, p2 in d2.terms.items():
            accumulate(acc, k1 + k2, p1 * p2)
    return PolyDiffOp(n, acc)


def hkr(pv: PolyVector) -> PolyDiffOp:
    """Antisymmetrized embedding of multivectors into operators.

    X_1 ^ .. ^ X_k |-> (1/k!) sum over permutations with sign; the
    identity on functions.
    """
    n = pv.n
    acc: dict[OpKey, Poly] = {}
    for idx, p in pv.terms.items():
        k = len(idx)
        if k == 0:
            accumulate(acc, (), p)
            continue
        factor = Fraction(1)
        for t in range(2, k + 1):
            factor /= t
        for sign, perm in _permutations_signed(idx):
            slots = []
            for j in perm:
                e = [0] * n
                e[j] = 1
                slots.append(tuple(e))
            accumulate(acc, tuple(slots), p.scale(factor * sign))
    return PolyDiffOp(n, acc)


# ----------------------------------------------------- Lambda g-dual extension

def ext_gerstenhaber(a: Cochain, b: Cochain) -> Cochain:
    """Bracket extension with sign exponent q1*p2 (shifted degrees)."""
    return ext_bilinear(a, b, gerstenhaber, PolyDiffOp.components_by_degree,
                        lambda q1, p2: q1 * p2)


def ext_cup(a: Cochain, b: Cochain) -> Cochain:
    """Cup extension; Koszul sign from the arity q1+1, matching the
    wedge extension on the polyvector side through hkr."""
    return ext_bilinear(a, b, cup, PolyDiffOp.components_by_degree,
                        lambda q1, p2: (q1 + 1) * p2)


def ext_hkr(a: Cochain) -> Cochain:
    """id (x) hkr on cochains with polyvector values."""
    return a.map_values(hkr)
