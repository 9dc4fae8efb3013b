"""Polyvector fields and differential forms with polynomial coefficients.

A multivector of tensor degree t is stored as a map from strictly
increasing coordinate tuples of length t to polynomial coefficients;
the shifted grading (degree = tensor degree - 1, functions in degree
-1) is the one used for all bracket signs.  The Schouten bracket is
realized through odd-coordinate calculus: a multivector is a
polynomial in commuting coordinates and anticommuting symbols, one per
coordinate direction, and the bracket is the canonical odd Poisson
bracket on such polynomials.  On generators this reduces to X(f) and
the vector field commutator, which is what the tests pin down.
"""

from __future__ import annotations

from typing import Callable

from .liealg import Cochain, IndexTuple, merge_indices
from .poly import Poly, Sparse, accumulate

CoordTuple = tuple[int, ...]


def _check_coord_tuple(self, idx: CoordTuple) -> None:
    if list(idx) != sorted(set(idx)) or any(not 0 <= j < self.n for j in idx):
        raise ValueError(f"bad coordinate tuple {idx}")


class PolyVector(Sparse):
    """Sparse polynomial multivector field; sums of mixed degree allowed.

    Degrees are shifted: functions count as -1."""

    __slots__ = ()
    SHIFT = -1
    _check_key = _check_coord_tuple

    # ---------------------------------------------------------- constructors

    @staticmethod
    def function(p: Poly) -> "PolyVector":
        return PolyVector(p.n, {(): p})

    @staticmethod
    def vector_field(components: list[Poly]) -> "PolyVector":
        n = components[0].n
        return PolyVector(n, {(j,): components[j] for j in range(n)})

    @staticmethod
    def basis_vector(n: int, j: int) -> "PolyVector":
        return PolyVector(n, {(j,): Poly.const(n, 1)})

    def vf_components(self) -> list[Poly]:
        """Coefficients of a tensor-degree-1 multivector as a plain list."""
        return [self.terms.get((j,), Poly.zero(self.n)) for j in range(self.n)]

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative by a vector field."""
        out = Poly.zero(self.n)
        for idx, p in self.terms.items():
            if len(idx) != 1:
                raise ValueError("apply_to requires a vector field")
            out = out + p * f.partial(idx[0])
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*d{list(i)}" for i, p in sorted(self.terms.items()))


# ------------------------------------------------------------- wedge, bracket

def pv_wedge(a: PolyVector, b: PolyVector) -> PolyVector:
    """Exterior product; serves forms too, whose keys are also coordinate tuples."""
    out: dict[CoordTuple, Poly] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            prod = pa * pb
            accumulate(out, idx, prod if sign > 0 else -prod)
    return a._like(out)


def _xi_partial(idx: CoordTuple, i: int) -> tuple[int, CoordTuple] | None:
    """Left odd derivative of the symbol product indexed by idx."""
    if i not in idx:
        return None
    t = idx.index(i)
    sign = -1 if t % 2 else 1
    return sign, idx[:t] + idx[t + 1:]


def _xi_partial_right(idx: CoordTuple, i: int) -> tuple[int, CoordTuple] | None:
    """Right odd derivative: the symbol hops over the factors after it."""
    if i not in idx:
        return None
    t = idx.index(i)
    sign = -1 if (len(idx) - 1 - t) % 2 else 1
    return sign, idx[:t] + idx[t + 1:]


def schouten(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten bracket; biderivation extension of X(f) and [X,Y].

    Realized as the canonical odd Poisson bracket
    sum_i (dr a / d xi_i)(dl b / d x_i) - (dr a / d x_i)(dl b / d xi_i)
    with right derivatives on the first argument and left on the second.
    """
    n = a.n
    acc: dict[CoordTuple, Poly] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            for i in range(n):
                right = _xi_partial_right(ia, i)
                if right is not None:
                    s1, ia_red = right
                    dpb = pb.partial(i)
                    if not dpb.is_zero():
                        merged = merge_indices(ia_red, ib)
                        if merged is not None:
                            s2, idx = merged
                            accumulate(acc, idx, (pa * dpb).scale(s1 * s2))
                left = _xi_partial(ib, i)
                if left is not None:
                    s1, ib_red = left
                    dpa = pa.partial(i)
                    if not dpa.is_zero():
                        merged = merge_indices(ia, ib_red)
                        if merged is not None:
                            s2, idx = merged
                            accumulate(acc, idx, (dpa * pb).scale(-s1 * s2))
    return PolyVector(n, acc)


# --------------------------------------------------------- differential forms

class DiffForm(Sparse):
    """Polynomial differential form; sums of mixed degree allowed."""

    __slots__ = ()
    _check_key = _check_coord_tuple

    @staticmethod
    def function(p: Poly) -> "DiffForm":
        return DiffForm(p.n, {(): p})

    @staticmethod
    def unit(n: int) -> "DiffForm":
        return DiffForm.function(Poly.const(n, 1))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*dx{list(i)}" for i, p in sorted(self.terms.items()))


def interior_form(theta: DiffForm, v: PolyVector) -> PolyVector:
    """Interior product of a k-form into a multivector.

    Pairing <dx^i, d_j> = delta; composite forms contract the leftmost
    multivector slots first (i_{t1 ^ t2} = i_{t2} o i_{t1}).
    """
    out: dict[CoordTuple, Poly] = {}
    for tform, h in theta.terms.items():
        for idx, p in v.terms.items():
            sign = 1
            cur: CoordTuple | None = idx
            for i in tform:
                step = _xi_partial(cur, i)
                if step is None:
                    cur = None
                    break
                s, cur = step
                sign *= s
            if cur is None:
                continue
            accumulate(out, cur, (h * p).scale(sign))
    return v._like(out)


# ----------------------------------------------------- Lambda g-dual extension

def ext_bilinear(a: Cochain, b: Cochain, op: Callable, components: Callable,
                 exponent: Callable[[int, int], int]) -> Cochain:
    """Bilinear extension of a value-level operation to cochains.

    On decomposables (alpha (x) v1) op (beta (x) v2) the result is
    (-1)**exponent(q1, p2) (alpha ^ beta) (x) op(v1, v2), where q1 runs
    over the homogeneous degrees of v1 (via ``components``) and p2 is
    the exterior degree of beta.
    """
    acc: dict[IndexTuple, object] = {}
    for i1, v1 in a.terms.items():
        for q1, v1c in components(v1):
            for i2, v2 in b.terms.items():
                merged = merge_indices(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                if exponent(q1, len(i2)) % 2:
                    sign = -sign
                w = op(v1c, v2)
                if w.is_zero():
                    continue
                accumulate(acc, idx, w.scale(sign))
    return a._like(acc)


def ext_schouten(a: Cochain, b: Cochain) -> Cochain:
    """Bracket extension: sign exponent q1*p2 with shifted degrees."""
    return ext_bilinear(a, b, schouten, PolyVector.components_by_degree,
                        lambda q1, p2: q1 * p2)


def ext_pv_wedge(a: Cochain, b: Cochain) -> Cochain:
    """Product extension: Koszul sign from the tensor degree q1+1."""
    return ext_bilinear(a, b, pv_wedge, PolyVector.components_by_degree,
                        lambda q1, p2: (q1 + 1) * p2)


def mixed_mul(a: Cochain, b: Cochain) -> Cochain:
    """Product of mixed forms (Cochains with DiffForm values)."""
    return ext_bilinear(a, b, pv_wedge, DiffForm.components_by_degree,
                        lambda k1, p2: k1 * p2)


def mixed_unit(dim: int, n: int) -> Cochain:
    return Cochain(dim, {(): DiffForm.unit(n)})


def contract(eta: Cochain, a: Cochain) -> Cochain:
    """Contraction action of a balanced mixed form on polyvector cochains.

    For eta = omega (x) theta and a = alpha (x) X the result is
    (omega ^ alpha) (x) i_theta X; the extension sign is +1 (the acting
    element is balanced, hence even).  contract(unit, a) == a.
    """
    acc: dict[IndexTuple, PolyVector] = {}
    for iw, theta in eta.terms.items():
        for ia, x in a.terms.items():
            merged = merge_indices(iw, ia)
            if merged is None:
                continue
            sign, idx = merged
            v = interior_form(theta, x)
            if v.is_zero():
                continue
            accumulate(acc, idx, v.scale(sign))
    return a._like(acc)
