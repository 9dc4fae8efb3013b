"""Exact sparse linear algebra over the rationals: one eliminator.

Columns are sparse integer vectors (dict row -> int), kept primitive
by gcd reduction; Fraction entries are cleared of denominators on the
way in.  Reduction is fraction-free: a column is cleared against a
pivot by the cross-multiplication b*col - a*pivot, so no rational
arithmetic and no pivot thresholds ever appear.  ``ColumnReducer``
keeps one pivot column per leading row.  Filled once with a slice's
differential columns, it answers every question asked of that slice:
the rank is its pivot count, the kernel its tracked combinations, and
image membership one further reduction against its pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _joint_reduce(col: dict[int, int], combo: dict | None):
    """Divide column and combo by their common content."""
    vals = list(col.values()) + (list(combo.values()) if combo else [])
    g = 0
    for v in vals:
        g = gcd(g, abs(v))
        if g == 1:
            return col, combo
    if g > 1:
        col = {r: v // g for r, v in col.items()}
        if combo:
            combo = {k: v // g for k, v in combo.items()}
    return col, combo


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
    """Incremental column echelon with optional combination tracking.

    Inserted columns that survive reduction become pivots, one per
    leading (maximal) row index.  Combination vectors, when tracked,
    express every stored or reduced column as an integer combination
    of the originally supplied ones (up to overall scale).
    """

    def __init__(self, track: bool = False):
        self.track = track
        self.pivots: dict[int, dict[int, int]] = {}
        self.combos: dict[int, dict] = {}
        self.kernel: list[dict] = []  # combos of columns that reduced to zero

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, col: dict, combo: dict | None = None):
        """Reduce col against the pivots.  A combo, when given, is carried
        along and needs a tracking reducer."""
        # clear denominators, scaling the combo by the same factor
        denlcm = 1
        for v in col.values():
            f = Fraction(v)
            denlcm = denlcm * f.denominator // gcd(denlcm, f.denominator)
        col = {r: int(Fraction(v) * denlcm) for r, v in col.items() if Fraction(v)}
        if combo and denlcm != 1:
            combo = {k: v * denlcm for k, v in combo.items()}
        col, combo = _joint_reduce(col, combo)
        while col:
            lead = max(col)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            a, b = col[lead], piv[lead]
            col = _axpy(b, col, a, piv)
            if combo is not None:
                combo = _axpy(b, combo, a, self.combos[lead])
            col, combo = _joint_reduce(col, combo)
        return col, combo

    def insert(self, col: dict, label=None) -> bool:
        """Reduce and keep the column; returns True if it was independent."""
        combo = {label: 1} if self.track else None
        col, combo = self.reduce(col, combo)
        if not col:
            if self.track:
                self.kernel.append(combo)
            return False
        self.pivots[max(col)] = col
        if self.track:
            self.combos[max(col)] = combo
        return True

    def contains(self, col: dict) -> bool:
        """Is the column in the span of the inserted ones?"""
        residual, _ = self.reduce(dict(col))
        return not residual

    def solve(self, col: dict, rhs_label="__rhs__"):
        """Express col as a rational combination of inserted columns.

        Returns a dict label -> Fraction, or None if col is not in the
        span.  Requires track=True and labeled insertions.
        """
        if not self.track:
            raise ValueError("solve requires combination tracking")
        residual, combo = self.reduce(dict(col), {rhs_label: 1})
        if residual:
            return None
        lam = combo.pop(rhs_label)
        return {label: Fraction(-v, lam) for label, v in combo.items() if v}
