"""Finite-dimensional Lie algebras and cochains on the exterior algebra
of the dual.

The Lie algebra is given by structure constants.  Its
Chevalley-Eilenberg differential on Lambda g-dual, ``d_lambda``, is
the one part of every differential that acts on the indices; the rest
is a bracket with an action cochain (``calculus.differential``).
Antisymmetry is checked exactly at construction, and so is the Jacobi
identity, as d_lambda^2 = 0 on the generators.
Cochains with values in a coefficient module are finite maps from
strictly increasing basis-index tuples to module values.  Every
permutation sign is one routine, ``sort_indices``: merging two index
tuples is sorting their concatenation.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .poly import Coeff, Sparse, _norm

IndexTuple = tuple[int, ...]


class StructureError(ValueError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


def merge_indices(a: IndexTuple, b: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Merge two strictly increasing index tuples into one.

    Returns (sign, merged) where sign is the parity of the shuffle, or
    None if the tuples share an index (the wedge vanishes): the sort of
    their concatenation.
    """
    if not a or not b:
        return 1, a or b
    return sort_indices(a + b)


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

    def __init__(self, dim: int, structure: Mapping[tuple[int, int, int], Coeff]):
        self.dim = dim
        self.c: dict[tuple[int, int, int], Coeff] = {}
        for (i, j, k), v in structure.items():
            v = _norm(v)
            if v:
                self.c[(i, j, k)] = v
        self._d_lambda: dict[IndexTuple, list[tuple[IndexTuple, Coeff]]] = {}
        self._validate()

    def _validate(self) -> None:
        m, c = self.dim, self.c
        # a triple and its swap fail together, and only where one is stored
        if bad := min((t for i, j, k in c for t in ((i, j, k), (j, i, k))
                       if c.get(t, 0) != -c.get((t[1], t[0], t[2]), 0)), default=None):
            i, j, k = bad
            raise StructureError(f"antisymmetry fails: c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]")
        # Jacobi: d_Lambda^2 e^l at e^i^e^j^e^k is the cyclic sum of c^r_ij c^l_rk
        residual: dict[tuple[IndexTuple, int], Coeff] = {}
        for l in range(m):
            for idx, f in self.d_lambda((l,)):
                for jdx, g in self.d_lambda(idx):
                    residual[jdx, l] = residual.get((jdx, l), 0) + f * g
        if bad := min((key for key, v in residual.items() if v), default=None):
            (i, j, k), l = bad
            raise StructureError(f"Jacobi fails on basis triple ({i},{j},{k}), "
                                 f"component {l}: residual {residual[bad]}")

    def d_lambda(self, idx: IndexTuple) -> list[tuple[IndexTuple, Coeff]]:
        """The (J, coefficient) pairs of d e^idx in Lambda g-dual, cached
        per index tuple: the Cartan convention
        d e^k = -sum_{i<j} c^k_ij e^i ^ e^j, extended as an odd derivation."""
        pairs = self._d_lambda.get(idx)
        if pairs is None:
            acc: dict[IndexTuple, Coeff] = {}
            for t, k in enumerate(idx):
                for (i, j, kk), c in self.c.items():
                    if kk == k and i < j and (s := sort_indices(idx[:t] + (i, j) + idx[t + 1:])):
                        acc[s[1]] = acc.get(s[1], 0) + (c if t % 2 else -c) * s[0]
            pairs = self._d_lambda[idx] = [(j, c) for j, c in acc.items() if c]
        return pairs


class Cochain(Sparse):
    """Element of Lambda^p g-dual tensor V, for a coefficient module V.

    ``terms`` maps strictly increasing index tuples to V values.  Terms of
    several exterior degrees may coexist (sums of mixed bidegree); most
    operations act on it term by term.
    """

    __slots__ = ()

    def map_values(self, fn: Callable[[object], object]) -> "Cochain":
        return Cochain(self.n, {i: fn(v) for i, v in self.terms.items()})

    def __repr__(self) -> str:
        return "Cochain(" + ", ".join(f"e{list(i)}: {v!r}" for i, v in sorted(self.terms.items())) + ")"
