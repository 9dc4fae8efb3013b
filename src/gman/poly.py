"""Sparse multivariate polynomials over exact rationals.

A polynomial in n coordinates is a finite map from exponent tuples
(one non-negative int per coordinate) to nonzero exact coefficients.
A coefficient is an ``int`` when it is integral and a ``Fraction`` only
when it is not (``_norm``), so the integers that make up almost every
coefficient never pay for rational arithmetic, and equal polynomials
have equal term maps.  The zero polynomial has an empty term map.  All
arithmetic is exact; a float coefficient is refused with TypeError.

Monomials are ordered graded-lexicographically (total degree first,
then exponent tuple).  Serialization and basis enumeration elsewhere
rely on this order being fixed.

Every product is one multiply-accumulate kernel, ``addmul``, on raw
term maps (exponent -> coefficient).  A bilinear operation is a
term-pair kernel ``kernel(acc, k1, p1, k2, p2, f)`` adding f times the
product of two terms into ``acc[key]``; ``calculus.ext_bilinear`` runs
it over every term pair of two cochains (a single value is a cochain of
degree 0) and builds each Poly once, at the end (``polys``), dropping
zeros and normalising coefficients.  ``derive`` is the one derivative.

``Sparse`` is the one container above Poly: a zero-free map from keys
to Poly (or Sparse) values, with the linear operations every value
type shares; ``accumulate`` is its single in-place adder and subtracter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import perm
from operator import add, sub
from typing import Iterable, Mapping

Exponent = tuple[int, ...]
Coeff = int | Fraction


class DimensionMismatch(ValueError):
    """Operands live over different numbers of coordinates."""


def _norm(c):
    """The exact coefficient c: an int when integral, else a Fraction."""
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: coefficients are exact")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def int_first(c: Coeff) -> Coeff:
    """An exact coefficient, a Fraction with denominator 1 as its int."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def addmul(tgt: dict, a: Mapping, b: Mapping, f: Coeff) -> dict:
    """tgt[e1 + e2] += f * c1 * c2 over all terms of the term maps a and b.

    Returns tgt, which may hold zeros until a Poly is built from it."""
    for e1, c1 in a.items():
        c1 *= f
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            tgt[e] = tgt.get(e, 0) + c1 * c2
    return tgt


def derive(terms: Mapping, alpha: Exponent) -> Mapping:
    """The term map of d^alpha applied to a term map, in one pass: each
    exponent drops by alpha, times the falling factorials perm(k, a).
    Returns ``terms`` itself when alpha is zero; never mutate the result."""
    if not any(alpha):
        return terms
    out = {}
    for e, c in terms.items():
        for k, a in zip(e, alpha):
            if k < a:
                break
            if a:
                c *= perm(k, a)
        else:
            out[tuple(map(sub, e, alpha))] = c
    return out


@cache
def unit(n: int, i: int) -> Exponent:
    """The exponent of x_i among n coordinates."""
    return tuple(int(j == i) for j in range(n))


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


def monomial_weight(exps: Exponent, weights: tuple[int, ...]) -> int:
    return sum(e * w for e, w in zip(exps, weights))


class Poly:
    """Immutable sparse polynomial with int-first exact coefficients.

    ``terms`` never stores a zero coefficient, and stores an int for
    every integral one.  Instances should be treated as frozen; all
    operations return new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Coeff] | None = None):
        self.n = n
        clean: dict[Exponent, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, expected {n}"
                    )
                c = coeff if type(coeff) is int else _norm(coeff)
                if c:
                    clean[exps] = c
        self.terms = clean

    # ------------------------------------------------------------------ basics

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

    @staticmethod
    def const(n: int, value) -> "Poly":
        return Poly(n, {(0,) * n: value})

    @staticmethod
    def var(n: int, i: int, power: int = 1) -> "Poly":
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = power
        return Poly(n, {tuple(exps): 1})

    @staticmethod
    def monomial(exps: Iterable[int], coeff) -> "Poly":
        exps = tuple(exps)
        return Poly(len(exps), {exps: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -------------------------------------------------------------- arithmetic

    def _check(self, other: "Poly") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"polynomials over {self.n} and {other.n} coordinates")

    def _combine(self, other: "Poly", op) -> "Poly":
        """op(self, other) for op add or sub, on a copy of self's terms."""
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = op(out.get(exps, 0), coeff)
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return Poly(self.n, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, add)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, sub)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.n, addmul({}, self.terms, other.terms, 1))

    def scale(self, factor) -> "Poly":
        """factor * self; self itself for factor 1, as values are immutable."""
        f = factor if type(factor) is int else _norm(factor)
        if f == 1:
            return self
        return Poly(self.n, {e: c * f for e, c in self.terms.items()} if f else None)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to coordinate i."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range for n={self.n}")
        return self.partial_multi(unit(self.n, i))

    def partial_multi(self, alpha: Exponent) -> "Poly":
        """Apply the iterated derivative prescribed by a multi-index."""
        return Poly(self.n, derive(self.terms, alpha))

    # --------------------------------------------------------------- utilities

    def to_json(self) -> list:
        """Lists [coefficient string "num/den", exponent list], grlex order."""
        return [[f"{c.numerator}/{c.denominator}", list(e)] for e, c in self.sorted_terms()]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(exps) if k)
            if mono:
                parts.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                parts.append(str(coeff))
        return " + ".join(parts)


def polys(n: int, acc: dict) -> dict:
    """{key: Poly} from a map of raw term maps, zero values dropped."""
    return {k: p for k, t in acc.items() if (p := Poly(n, t))}


def accumulate(acc: dict, key, value, op=add) -> None:
    """acc[key] = op(acc[key], value), op add or sub, keeping acc zero-free."""
    if value.is_zero():
        return
    old = acc.get(key)
    if old is None:
        acc[key] = value if op is add else -value
        return
    total = op(old, value)
    if total.is_zero():
        del acc[key]
    else:
        acc[key] = total


class Sparse:
    """Zero-free finite map from keys to Poly or Sparse values.

    Polyvector fields, forms, polydifferential operators, End(T)-valued
    tensors and Lie algebra cochains are all such maps; they differ only
    in their keys and in their own operations.  ``n`` is the dimension
    the keys index.  A term with key ``k`` has degree ``len(k) + SHIFT``.
    Subclasses validate keys in ``_check_key``.
    """

    __slots__ = ("n", "terms")
    SHIFT = 0

    def __init__(self, n: int, terms: Mapping | None = None):
        self.n = n
        clean = {}
        if terms:
            for key, value in terms.items():
                self._check_key(key)
                if not value.is_zero():
                    clean[key] = value
        self.terms = clean

    def _check_key(self, key) -> None:
        pass

    def _like(self, terms: dict):
        """Same type and dimension, from an already zero-free map."""
        out = object.__new__(type(self))
        out.n = self.n
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def _combine(self, other, op):
        out = dict(self.terms)
        for key, value in other.terms.items():
            accumulate(out, key, value, op)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, add)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, factor):
        """factor * self; self itself for factor 1, as values are immutable."""
        f = factor if type(factor) is int else _norm(factor)
        return self if f == 1 else self._like(
            {k: v.scale(f) for k, v in self.terms.items()} if f else {})


def monomials_of_weight(n: int, weights: tuple[int, ...], target: int) -> list[Exponent]:
    """All exponent tuples with the given weighted degree, grlex order.

    Weights are positive, so the answer is finite.  A fresh list, from a cached table.
    """
    return list(_monomials(n, weights, target))


@cache
def _monomials(n: int, weights: tuple[int, ...], target: int) -> tuple[Exponent, ...]:
    if target < 0:
        return ()
    out: list[Exponent] = []

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[i]
        for k in range(remaining // w + 1):
            rec(i + 1, remaining - k * w, prefix + [k])

    rec(0, target, [])
    out.sort(key=grlex_key)
    return tuple(out)
