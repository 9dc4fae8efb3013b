"""Finite-dimensional Lie algebras, cochains on the exterior algebra
of the dual, and a generic Chevalley-Eilenberg differential.

The Lie algebra is given by structure constants; antisymmetry and the
Jacobi identity are checked exactly at construction.  Cochains with
values in an arbitrary coefficient module are represented as finite
maps from strictly increasing basis-index tuples to module values; the
module only needs to support ``+``, ``scale`` and ``is_zero``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping

from .poly import Sparse, accumulate

IndexTuple = tuple[int, ...]


class StructureError(ValueError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


def merge_indices(a: IndexTuple, b: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Merge two strictly increasing index tuples into one.

    Returns (sign, merged) where sign is the parity of the shuffle, or
    None if the tuples share an index (the wedge vanishes).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] hops over the remaining len(a)-i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def sort_indices(seq: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Sort an index sequence, returning (sign, sorted) or None on repeats."""
    if len(set(seq)) != len(seq):
        return None
    lst = list(seq)
    sign = 1
    # insertion sort, counting swaps; sequences here are short
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


class LieAlgebra:
    """Lie algebra over Q given by structure constants c[i][j][k]."""

    def __init__(self, dim: int, structure: Mapping[tuple[int, int, int], Fraction]):
        self.dim = dim
        self.c: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), v in structure.items():
            v = Fraction(v)
            if v:
                self.c[(i, j, k)] = v
        self._validate()

    def _validate(self) -> None:
        m = self.dim
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if self.c.get((i, j, k), Fraction(0)) != -self.c.get((j, i, k), Fraction(0)):
                        raise StructureError(
                            f"antisymmetry fails: c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]"
                        )
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        s = Fraction(0)
                        for r in range(m):
                            s += self.c.get((i, j, r), Fraction(0)) * self.c.get((r, k, l), Fraction(0))
                            s += self.c.get((j, k, r), Fraction(0)) * self.c.get((r, i, l), Fraction(0))
                            s += self.c.get((k, i, r), Fraction(0)) * self.c.get((r, j, l), Fraction(0))
                        if s != 0:
                            raise StructureError(
                                f"Jacobi fails on basis triple ({i},{j},{k}), "
                                f"component {l}: residual {s}"
                            )

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a map k -> coefficient."""
        out = {}
        for k in range(self.dim):
            v = self.c.get((i, j, k), Fraction(0))
            if v:
                out[k] = v
        return out

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(dim, {})


class Cochain(Sparse):
    """Element of Lambda^p g-dual tensor V, for a coefficient module V.

    ``terms`` maps strictly increasing index tuples to V values.  Terms of
    several exterior degrees may coexist (sums of mixed bidegree); most
    operations treat the object termwise.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.n

    def map_values(self, fn: Callable[[object], object]) -> "Cochain":
        return Cochain(self.n, {i: fn(v) for i, v in self.terms.items()})

    def evaluate(self, seq: IndexTuple):
        """Value on an arbitrary basis-index sequence, via antisymmetry.

        Returns None for the zero value (callers add nothing).
        """
        sorted_ = sort_indices(seq)
        if sorted_ is None:
            return None
        sign, idx = sorted_
        v = self.terms.get(idx)
        if v is None:
            return None
        return v if sign == 1 else v.scale(-1)

    def __repr__(self) -> str:
        return "Cochain(" + ", ".join(f"e{list(i)}: {v!r}" for i, v in sorted(self.terms.items())) + ")"


def ce_differential(g: LieAlgebra, c: Cochain,
                    action: Callable[[int, object], object]) -> Cochain:
    """Chevalley-Eilenberg differential with the Cartan sign convention.

    (dc)(a_0..a_p) = sum_i (-1)^i a_i . c(..a_i-hat..)
                   + sum_{i<j} (-1)^{i+j} c([a_i,a_j], ..hats..)
    computed on every strictly increasing (p+1)-tuple of basis indices.
    """
    m = g.dim
    out: dict[IndexTuple, object] = {}
    for p in sorted(c.degrees()):
        comp = c.component(p)
        for tup in combinations(range(m), p + 1):
            total = None
            # action terms
            for i in range(p + 1):
                rest = tup[:i] + tup[i + 1:]
                v = comp.terms.get(rest)
                if v is None:
                    continue
                av = action(tup[i], v)
                if av.is_zero():
                    continue
                if i % 2:
                    av = av.scale(-1)
                total = av if total is None else total + av
            # bracket terms
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                    br = g.bracket_basis(tup[i], tup[j])
                    for k, coeff in br.items():
                        v = comp.evaluate((k,) + rest)
                        if v is None:
                            continue
                        sgn = coeff if (i + j) % 2 == 0 else -coeff
                        total = v.scale(sgn) if total is None else total + v.scale(sgn)
            if total is not None:
                accumulate(out, tup, total)
    return Cochain(c.dim, out)


def vertical_differential(c: Cochain, d_v: Callable[[object], object]) -> Cochain:
    """(-1)^p id (x) d_V, the vertical map of the double complex."""
    out: dict[IndexTuple, object] = {}
    for idx, v in c.terms.items():
        dv = d_v(v)
        if dv.is_zero():
            continue
        if len(idx) % 2:
            dv = dv.scale(-1)
        out[idx] = dv
    return Cochain(c.dim, out)


def total_differential(g: LieAlgebra, c: Cochain,
                       action: Callable[[int, object], object],
                       d_v: Callable[[object], object]) -> Cochain:
    """d_CE + (-1)^p id (x) d_V."""
    return ce_differential(g, c, action) + vertical_differential(c, d_v)
