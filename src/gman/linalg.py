"""Exact sparse linear algebra over the rationals: one eliminator.

Columns are sparse integer vectors (dict row -> int), stored primitive.
A column whose entries are all ints goes in as it is; one with a
Fraction entry is first cleared of denominators.  Reduction is
fraction-free: a step clears the column's leading entry a against the
pivot's, b, by subtracting (a // b) * pivot in place where b divides a,
else by b*col - a*pivot divided by its content.  The sign b would have
given an exact step is carried, and the column is divided by its signed
content once, at the end, so every result equals that of
cross-multiplying at every step.  ``ColumnReducer`` keeps one pivot
column per leading row.  Filled once with a slice's differential
columns, it answers every question asked of that slice: the rank is its
pivot count, and image membership one further reduction against its
pivots.  Matrix rows are >= 0; a column labelled u carries 1 at the
negative row ``label_row(u)``, which never leads, so its combination
rides through every step with it, and a labelled column left with label
rows only is a kernel vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def label_row(u: int) -> int:
    """The row of label u, and back: -1 - u."""
    return -1 - u


def _primitive(col: dict[int, int], sign: int = 1) -> dict[int, int]:
    """Divide the column by its content times sign (1 or -1)."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            break
    g *= sign
    return col if g in (0, 1) else {r: v // g for r, v in col.items()}


def _submul(col: dict, a: int, piv: dict) -> dict:
    """col - a*piv, in place on col, zeros dropped."""
    for r, v in piv.items():
        if w := col.get(r, 0) - a * v:
            col[r] = w
        else:
            del col[r]
    return col


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
        sign = 1
        while col and (piv := self.pivots.get(lead := max(col))):
            a, b = col[lead], piv[lead]
            if a % b:
                col = _primitive(_submul({r: b * v for r, v in col.items()}, a, piv))
            else:
                sign = -sign if b < 0 else sign  # as b*col - a*piv would scale it
                _submul(col, a // b, piv)
        return _primitive(col, sign)

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
