"""Exact sparse linear algebra over the rationals: one eliminator.

Columns are sparse integer vectors (dict row -> int), kept primitive
by gcd reduction.  A column whose entries are all ints goes in as it
is; one with a Fraction entry is first cleared of denominators.
Reduction is fraction-free: a column is cleared against a pivot by the
cross-multiplication b*col - a*pivot, so no rational arithmetic and no
pivot thresholds ever appear.  ``ColumnReducer``
keeps one pivot column per leading row.  Filled once with a slice's
differential columns, it answers every question asked of that slice:
the rank is its pivot count, and image membership one further
reduction against its pivots.  Matrix rows are >= 0; a column labelled
u carries 1 at the negative row ``label_row(u)``, which never leads, so
its combination rides through every step with it, and a labelled
column left with label rows only is a kernel vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def label_row(u: int) -> int:
    """The row of label u, and back: -1 - u."""
    return -1 - u


def _primitive(col: dict[int, int]) -> dict[int, int]:
    """Divide the column by its content."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    return {r: v // g for r, v in col.items()} if g > 1 else col


def _axpy(b: int, col: dict, a: int, piv: dict) -> dict:
    """b*col - a*piv, sparse."""
    out = {r: b * v for r, v in col.items()}
    for r, v in piv.items():
        w = out.get(r, 0) - a * v
        if w:
            out[r] = w
        else:
            out.pop(r, None)
    return out


class ColumnReducer:
    """Incremental column echelon: inserted columns that survive
    reduction become pivots, one per leading (maximal) row index."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.kernel: list[dict[int, int]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "ColumnReducer":
        """A reducer over the same pivots and no kernel, to extend without
        touching this one; pivot columns are never mutated, so are shared."""
        out = ColumnReducer()
        out.pivots = dict(self.pivots)
        return out

    def reduce(self, col: dict) -> dict[int, int]:
        """Reduce col, label rows and all, against the pivots."""
        if all(type(v) is int for v in col.values()):
            col = {r: v for r, v in col.items() if v}
        else:
            col = {r: f for r, v in col.items() if (f := Fraction(v))}
            denlcm = lcm(*(f.denominator for f in col.values()))
            col = {r: f.numerator * (denlcm // f.denominator) for r, f in col.items()}
        col = _primitive(col)
        while col:
            lead = max(col)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            col = _primitive(_axpy(piv[lead], col, col[lead], piv))
        return col

    def insert(self, col: dict) -> bool:
        """Reduce and keep the column; returns True if it was independent.
        A column left with label rows only goes to the kernel."""
        col = self.reduce(col)
        if not col or max(col) < 0:
            if col:
                self.kernel.append(col)
            return False
        self.pivots[max(col)] = col
        return True

    def contains(self, col: dict) -> bool:
        """Is the column, on its matrix rows, in the span of the inserted ones?"""
        col = self.reduce(col)
        return not col or max(col) < 0
