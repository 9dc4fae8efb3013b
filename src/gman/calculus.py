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

Wedge, bracket and interior product are term-pair kernels, run by
``ext_bilinear`` on cochains, which folds the Lambda g-dual signs into
the kernel's factor; a single value is a cochain of degree 0, on whose
empty index tuple every sign is 1.  The one odd derivative is the left
one, ``_xi_partial``.  Given a raw map
(index tuple -> key -> term map) and a factor f, ``ext_bilinear`` adds
f times the product into it and builds nothing, so a sum of products
that is only tested for zero or read as coordinates is never built as
a Cochain; ``add_cochain`` adds one that is.  Every
differential is one such extension: ``differential`` brackets with an
action cochain q through a kernel and adds the Chevalley-Eilenberg
differential of Lambda g-dual on the indices.
"""

from __future__ import annotations

from typing import Callable

from .liealg import Cochain, IndexTuple, LieAlgebra, merge_indices
from .poly import Coeff, Poly, Sparse, accumulate, addmul, derive, polys, unit

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

    def vf_components(self) -> list[Poly]:
        """Coefficients of a tensor-degree-1 multivector as a plain list."""
        return [self.terms.get((j,), Poly.zero(self.n)) for j in range(self.n)]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*d{list(i)}" for i, p in sorted(self.terms.items()))


# ------------------------------------------------------------- wedge, bracket

def _pv_wedge(acc: dict, ia: CoordTuple, pa: Poly, ib: CoordTuple, pb: Poly, f) -> None:
    """acc += f (pa d_ia) ^ (pb d_ib), on raw term maps."""
    merged = merge_indices(ia, ib)
    if merged is not None:
        addmul(acc.setdefault(merged[1], {}), pa.terms, pb.terms, f * merged[0])


def _xi_partial(idx: CoordTuple, i: int) -> tuple[int, CoordTuple] | None:
    """Left odd derivative of the symbol product indexed by idx."""
    if i not in idx:
        return None
    t = idx.index(i)
    sign = -1 if t % 2 else 1
    return sign, idx[:t] + idx[t + 1:]


def _schouten(acc: dict, ia: CoordTuple, pa: Poly, ib: CoordTuple, pb: Poly, f) -> None:
    """acc += f [pa d_ia, pb d_ib], the canonical odd Poisson bracket
    sum_i (dr a / d xi_i)(dl b / d x_i) - (dr a / d x_i)(dl b / d xi_i)
    with right derivatives on the first argument and left on the second.
    A right derivative of the symbols of ia is the left one times
    (-1)^(|ia| - 1): the symbol hops over the other |ia| - 1 factors."""
    fr = f if len(ia) % 2 else -f
    for i in range(pa.n):
        right = _xi_partial(ia, i)
        if right is not None and (merged := merge_indices(right[1], ib)) is not None:
            dpb = derive(pb.terms, unit(pa.n, i))
            if dpb:
                addmul(acc.setdefault(merged[1], {}), pa.terms, dpb, fr * right[0] * merged[0])
        left = _xi_partial(ib, i)
        if left is not None and (merged := merge_indices(ia, left[1])) is not None:
            dpa = derive(pa.terms, unit(pa.n, i))
            if dpa:
                addmul(acc.setdefault(merged[1], {}), dpa, pb.terms, -f * left[0] * merged[0])


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


def _interior(acc: dict, tform: CoordTuple, h: Poly, idx: CoordTuple, p: Poly, f) -> None:
    """acc += f i_{h dx^tform} (p d_idx), on raw term maps: <dx^i, d_j> =
    delta, and composite forms contract the leftmost multivector slots
    first (i_{t1 ^ t2} = i_{t2} o i_{t1})."""
    for i in tform:
        step = _xi_partial(idx, i)
        if step is None:
            return
        s, idx = step
        f *= s
    addmul(acc.setdefault(idx, {}), h.terms, p.terms, f)


# ----------------------------------------------------- Lambda g-dual extension

def ext_bilinear(a: Cochain, b: Cochain, kernel: Callable,
                 exponent: Callable[[int, int], int], acc: dict | None = None,
                 f: Coeff = 1) -> Cochain | dict:
    """Bilinear extension of a term-pair kernel to cochains: on
    decomposables (alpha (x) v1) op (beta (x) v2) is (-1)**exponent(q1, p2)
    (alpha ^ beta) (x) op(v1, v2), q1 the degree of a term of v1 and p2 the
    exterior degree of beta.  Given a raw map acc (index tuple -> key ->
    term map), f times the product is added into it and acc is returned,
    zeros and all; else each Poly, value (of b's type) and the Cochain
    are built once, at the end."""
    out = {} if acc is None else acc
    for i1, v1 in a.terms.items():
        for i2, v2 in b.terms.items():
            merged = merge_indices(i1, i2)
            if merged is None:
                continue
            sign, idx = merged
            sign *= f
            m = out.setdefault(idx, {})
            for k1, p1 in v1.terms.items():
                g = -sign if exponent(len(k1) + v1.SHIFT, len(i2)) % 2 else sign
                for k2, p2 in v2.terms.items():
                    kernel(m, k1, p1, k2, p2, g)
    if acc is not None:
        return acc
    like = next(iter(b.terms.values()), None)
    return a._like({idx: v for idx, m in out.items()
                    if (v := like._like(polys(like.n, m))).terms})


def add_cochain(c: Cochain, acc: dict, f: Coeff = 1) -> dict:
    """acc += f c on the raw map of a cochain (index tuple -> key -> term
    map), zeros and all."""
    for idx, v in c.terms.items():
        m = acc.setdefault(idx, {})
        for key, p in v.terms.items():
            t = m.setdefault(key, {})
            for e, x in p.terms.items():
                t[e] = t.get(e, 0) + f * x
    return acc


def differential(g: LieAlgebra, q: Cochain, c: Cochain, kernel: Callable) -> Cochain:
    """d c = [q, c] + (d_Lambda (x) id) c: the bracket with the action
    cochain q, a term-pair kernel extended with sign exponent q1*p2, plus
    ``LieAlgebra.d_lambda`` on the indices of c.  With q = sum_a e^a (x) phi_a
    the bracket is the action term of the Chevalley-Eilenberg differential;
    a term of q at the empty index adds (-1)^p id (x) [q_0, -]."""
    out = ext_bilinear(q, c, kernel, lambda q1, p2: q1 * p2)
    d_idx: dict[IndexTuple, object] = {}
    for idx, v in c.terms.items():
        for j, f in g.d_lambda(idx):
            accumulate(d_idx, j, v.scale(f))
    return out + c._like(d_idx)


def ext_schouten(a: Cochain, b: Cochain, acc: dict | None = None, f: Coeff = 1):
    """Bracket extension: sign exponent q1*p2 with shifted degrees; with a
    raw map acc, adds f times the bracket into it (``ext_bilinear``)."""
    return ext_bilinear(a, b, _schouten, lambda q1, p2: q1 * p2, acc, f)


def ext_pv_wedge(a: Cochain, b: Cochain, acc: dict | None = None, f: Coeff = 1):
    """Product extension: Koszul sign from the tensor degree q1+1; with a
    raw map acc, adds f times the product into it (``ext_bilinear``)."""
    return ext_bilinear(a, b, _pv_wedge, lambda q1, p2: (q1 + 1) * p2, acc, f)


def mixed_mul(a: Cochain, b: Cochain) -> Cochain:
    """Product of mixed forms (Cochains with DiffForm values)."""
    return ext_bilinear(a, b, _pv_wedge, lambda k1, p2: k1 * p2)


def mixed_unit(dim: int, n: int) -> Cochain:
    return Cochain(dim, {(): DiffForm.unit(n)})


def contract(eta: Cochain, a: Cochain) -> Cochain:
    """Contraction action of a balanced mixed form on polyvector cochains.

    For eta = omega (x) theta and a = alpha (x) X the result is
    (-1)^{|theta||alpha|} (omega ^ alpha) (x) i_theta X: the Koszul sign
    makes contraction by a closed eta a chain map.  contract(unit, a) == a.
    """
    return ext_bilinear(eta, a, _interior, lambda k1, p2: k1 * p2)
