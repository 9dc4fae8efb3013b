"""Sparse multivariate polynomials over exact rationals.

A polynomial in n coordinates is a finite map from exponent tuples
(one non-negative int per coordinate) to nonzero Fractions.  The zero
polynomial has an empty term map, so equality of term maps is equality
of polynomials.  All arithmetic is exact; nothing in this package ever
touches a float.

Monomials are ordered graded-lexicographically (total degree first,
then exponent tuple).  Serialization and basis enumeration elsewhere
rely on this order being fixed.

``Sparse`` is the one container above Poly: a zero-free map from keys
to Poly (or Sparse) values, with the linear operations every value
type shares, and ``accumulate`` is its single in-place adder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponent = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands live over different numbers of coordinates."""


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


def monomial_weight(exps: Exponent, weights: tuple[int, ...]) -> int:
    return sum(e * w for e, w in zip(exps, weights))


class Poly:
    """Immutable sparse polynomial with Fraction coefficients.

    ``terms`` never stores a zero coefficient.  Instances should be
    treated as frozen; all operations return new objects.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        self.n = n
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, expected {n}"
                    )
                c = Fraction(coeff)
                if c != 0:
                    clean[exps] = c
        self.terms = clean
        self._hash = None

    # ------------------------------------------------------------------ basics

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

    @staticmethod
    def const(n: int, value) -> "Poly":
        return Poly(n, {(0,) * n: Fraction(value)})

    @staticmethod
    def var(n: int, i: int, power: int = 1) -> "Poly":
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = power
        return Poly(n, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(exps: Iterable[int], coeff) -> "Poly":
        exps = tuple(exps)
        return Poly(len(exps), {exps: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0])))))
        return self._hash

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -------------------------------------------------------------- arithmetic

    def _check(self, other: "Poly") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"polynomials over {self.n} and {other.n} coordinates")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, Fraction(0)) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return Poly(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, Fraction(0)) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return Poly(self.n, out)

    def scale(self, factor) -> "Poly":
        f = Fraction(factor)
        if f == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {e: c * f for e, c in self.terms.items()})

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to coordinate i."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range for n={self.n}")
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = list(exps)
            e[i] = k - 1
            out[tuple(e)] = coeff * k
        return Poly(self.n, out)

    def partial_multi(self, alpha: Exponent) -> "Poly":
        """Apply the iterated derivative prescribed by a multi-index."""
        p = self
        for i, k in enumerate(alpha):
            for _ in range(k):
                if p.is_zero():
                    return p
                p = p.partial(i)
        return p

    # --------------------------------------------------------------- utilities

    def total_degree(self) -> int:
        """Max total degree of any monomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def to_json(self) -> list:
        """Lists [coefficient string "num/den", exponent list], grlex order."""
        return [[f"{c.numerator}/{c.denominator}", list(e)] for e, c in self.sorted_terms()]

    @staticmethod
    def from_json(n: int, data: list) -> "Poly":
        terms: dict[Exponent, Fraction] = {}
        for item in data:
            coeff_s, exps = item
            e = tuple(int(x) for x in exps)
            terms[e] = terms.get(e, Fraction(0)) + Fraction(coeff_s)
        return Poly(n, terms)

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


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value for Poly or Sparse values, keeping acc zero-free."""
    if value.is_zero():
        return
    old = acc.get(key)
    if old is None:
        acc[key] = value
        return
    total = old + value
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

    def __add__(self, other):
        out = dict(self.terms)
        for key, value in other.terms.items():
            accumulate(out, key, value)
        return self._like(out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        f = Fraction(factor)
        return self._like({k: v.scale(f) for k, v in self.terms.items()} if f else {})

    def degrees(self) -> set[int]:
        return {len(k) + self.SHIFT for k in self.terms}

    def component(self, degree: int):
        return self._like({k: v for k, v in self.terms.items()
                           if len(k) + self.SHIFT == degree})

    def components_by_degree(self) -> list:
        return [(d, self.component(d)) for d in sorted(self.degrees())]


def monomials_of_weight(n: int, weights: tuple[int, ...], target: int) -> list[Exponent]:
    """All exponent tuples with the given weighted degree, grlex order.

    Weights are positive, so the answer is finite.
    """
    if target < 0:
        return []
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
    return out
