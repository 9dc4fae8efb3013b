"""Atiyah cocycle of a connection, the obstruction to an invariant
connection, and the Todd cocycle with its square root.

The Atiyah cocycle is the Lie derivative of the connection along the
action fields, R_a = L_{phi_a} nabla.  Written as the flat coordinate
connection plus the tensor Gamma, nabla has L_{phi_a} nabla = the
Hessian of phi_a plus L_{phi_a} Gamma, and the second term is the
Chevalley-Eilenberg differential of the 0-cochain Gamma.  So
R = Hess(phi) + d_CE Gamma, and a change of connection changes R by a
coboundary.  d_CE on End-valued cochains is ``calculus.differential``
with the action cochain and the term-pair kernel ``_lie_end``, the Lie
derivative of one End-valued term along one vector-field term.
R is a cochain of End-valued one-forms (``EndTensor``).  Its powers R^t
are the Lambda g-dual extension of a second kernel, ``_compose``, which
wedges the form parts and composes the endomorphisms, and the Todd
cocycle is the determinant of R / (1 - exp(-R)) computed as exp of
trace of log, which is exact because the entries of R, balanced mixed
forms, are nilpotent and commute.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .calculus import DiffForm, differential, ext_bilinear, mixed_mul, mixed_unit
from .liealg import Cochain, merge_indices
from .linalg import ColumnReducer, label_row
from .poly import (Poly, Sparse, accumulate, addmul, derive, monomial_weight,
                   monomials_of_weight, unit)
from .scenario import Scenario, action_cochain
from .series import log_todd_generator_series


class EndTensor(Sparse):
    """End(T)-valued differential form: the key (i_1, .., i_p, j, k) is
    the term dx^i_1 ^ .. ^ dx^i_p (x) (d_j -> d_k), of form degree p.
    An element of Gamma(T-dual (x) End T), A(d_i) d_j = sum_k A[i,j,k] d_k,
    is the case p = 1."""

    __slots__ = ()
    SHIFT = -2

    def __repr__(self) -> str:
        return "EndTensor(" + ", ".join(f"{k}: {p!r}" for k, p in sorted(self.terms.items())) + ")"


def _lie_end(acc: dict, kx: tuple, px: Poly, kt: tuple, pt: Poly, f) -> None:
    """acc += f L_X (pt e_kt) for the vector-field term X = px d_c, kx = (c,),
    and the End-valued term at kt = (i, j, k), on raw term maps:
    X(pt) at (i, j, k), -pt d_k(px) at (i, j, c), and d_l(px) pt at
    (l, j, k) when i = c and at (i, l, k) when j = c."""
    (c,), (i, j, k) = kx, kt
    n = px.n
    addmul(acc.setdefault(kt, {}), px.terms, derive(pt.terms, unit(n, c)), f)
    addmul(acc.setdefault((i, j, c), {}), pt.terms, derive(px.terms, unit(n, k)), -f)
    if c in (i, j):
        for l in range(n):
            dpx = derive(px.terms, unit(n, l))
            if i == c:
                addmul(acc.setdefault((l, j, k), {}), dpx, pt.terms, f)
            if j == c:
                addmul(acc.setdefault((i, l, k), {}), dpx, pt.terms, f)


def _compose(acc: dict, ka: tuple, pa: Poly, kb: tuple, pb: Poly, f) -> None:
    """acc += f (pa e_ka) o (pb e_kb) for End-valued form terms, on raw term
    maps: the form parts wedged with the merge sign, and b's d_j -> d_l
    followed by a's d_l -> d_k."""
    if ka[-2] == kb[-1] and (merged := merge_indices(ka[:-2], kb[:-2])):
        addmul(acc.setdefault(merged[1] + (kb[-2], ka[-1]), {}), pa.terms, pb.terms,
               f * merged[0])


def connection_tensor(s: Scenario) -> EndTensor:
    """Gamma, the connection minus the flat coordinate connection:
    entry (i, j, k) is Gamma^k_ij."""
    return EndTensor(s.n, {(i, j, k): p for (k, i, j), p in s.christoffel.items()})


def atiyah_cocycle(s: Scenario) -> Cochain:
    """R(e_a, d_i) d_j = (L_{phi_a} nabla)(d_i, d_j): the Hessian
    d_i d_j phi_a^k d_k plus (d_CE Gamma)(e_a)."""
    n = s.n
    hessian: dict[tuple[int, ...], EndTensor] = {}
    for a in range(s.dim_g):
        entries: dict[tuple[int, int, int], Poly] = {}
        for k, p in enumerate(s.action[a].vf_components()):
            for i in range(n):
                for j in range(n):
                    accumulate(entries, (i, j, k), p.partial(i).partial(j))
        if entries:
            hessian[(a,)] = EndTensor(n, entries)
    gamma = Cochain(s.dim_g, {(): connection_tensor(s)})
    return Cochain(s.dim_g, hessian) + differential(s.lie, action_cochain(s), gamma, _lie_end)


def is_ce_closed(s: Scenario, cochain: Cochain) -> bool:
    return differential(s.lie, action_cochain(s), cochain, _lie_end).is_zero()


# --------------------------------------------------------------- obstruction

def invariant_connection_obstruction(s: Scenario) -> dict:
    """Solve d_CE(A) = R for a difference tensor A, per weight slice.

    Unknowns are monomial entries of A with polynomial weight up to the
    cap ``max_weight``.  The image of unknown u is labelled ``label_row(u)``,
    the slice of R after them; if R is dependent, its kernel vector,
    lambda at R's label and v at u's, gives u the coefficient -v/lambda.
    Returns either the invariant connection (with the invariance
    identity re-verified) or the unsolvable slice as a certificate.
    """
    n, w = s.n, s.weights
    window = s.caps.max_weight
    r = atiyah_cocycle(s)
    q = action_cochain(s)

    # required slices from the cocycle
    required: dict[int, dict] = {}
    for (a,), t in r.terms.items():
        for (i, j, k), p in t.terms.items():
            for exps, coeff in p.terms.items():
                tau = monomial_weight(exps, w) + w[i] + w[j] - w[k] - s.action_weights[a]
                required.setdefault(tau, {})[(a, (i, j, k), exps)] = coeff

    solution = EndTensor(n)
    certificates = []
    rows: dict = {}
    for tau, rhs in sorted(required.items()):
        basis = [(i, j, k, exps) for i, j, k in product(range(n), repeat=3)
                 if 0 <= (d := tau - w[i] - w[j] + w[k]) <= window
                 for exps in monomials_of_weight(n, w, d)]
        reducer = ColumnReducer()
        for u, (i, j, k, exps) in enumerate(basis):
            one = Cochain(s.dim_g, {(): EndTensor(n, {(i, j, k): Poly.monomial(exps, 1)})})
            image = differential(s.lie, q, one, _lie_end)
            reducer.insert({label_row(u): 1, **{rows.setdefault((a, key, e), len(rows)): c
                                                for (a,), t in image.terms.items()
                                                for key, p in t.terms.items()
                                                for e, c in p.terms.items()}})
        col = {rows.setdefault(key, len(rows)): c for key, c in rhs.items()}
        rhs_row = label_row(len(basis))
        col[rhs_row] = 1
        if reducer.insert(col):
            certificates.append({
                "tensor_weight_slice": tau,
                "unknown_dimension": len(basis),
                "rhs": {str(k): str(v) for k, v in rhs.items()},
            })
        else:
            vec = reducer.kernel[-1]
            lam = vec.pop(rhs_row)
            for row, v in vec.items():
                i, j, k, exps = basis[label_row(row)]
                solution = solution + EndTensor(
                    n, {(i, j, k): Poly.monomial(exps, Fraction(-v, lam))})

    if certificates:
        return {"solvable": False, "certificates": certificates, "window": window}

    # verify d(A) = R and the invariance identity for nabla - A
    coboundary = differential(s.lie, q, Cochain(s.dim_g, {(): solution}), _lie_end)
    assert (coboundary - r).is_zero(), "internal error: solver produced a non-solution"
    inv_gamma = {(k, i, j): p for (i, j, k), p in (connection_tensor(s) - solution).terms.items()}
    s_inv = s._replace(christoffel=inv_gamma)
    assert atiyah_cocycle(s_inv).is_zero(), "invariant connection fails re-verification"
    return {"solvable": True, "difference_tensor": solution,
            "invariant_christoffel": inv_gamma, "window": window}


# ---------------------------------------------------------------------- Todd

def _mixed_exp(u: Cochain, nil_order: int, m: int, n: int) -> Cochain:
    out = mixed_unit(m, n)
    power = mixed_unit(m, n)
    for ssum in range(1, nil_order + 1):
        power = mixed_mul(power, u)
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, factorial(ssum)))
    return out


def todd_log(s: Scenario, r: Cochain) -> Cochain:
    """tr log of the Todd generator applied to R: sum_t c_t tr R^t, the
    powers through ``_compose`` with the sign of ``mixed_mul``."""
    nil = min(s.dim_g, s.n)
    coeffs = log_todd_generator_series(nil + 1)
    acc: dict = {}
    power = r
    for t in range(1, nil + 1):
        if t > 1:
            power = ext_bilinear(power, r, _compose, lambda k1, p2: k1 * p2)
        if not coeffs[t]:
            continue
        for idx, v in power.terms.items():
            for key, p in v.terms.items():
                if key[-2] == key[-1]:
                    accumulate(acc, idx, DiffForm(s.n, {key[:-2]: p.scale(coeffs[t])}))
    return Cochain(s.dim_g, acc)


def _todd_power(s: Scenario, power: int | Fraction) -> Cochain:
    """exp(power * tr log(R / (1 - exp(-R))))."""
    return _mixed_exp(todd_log(s, atiyah_cocycle(s)).scale(power), min(s.dim_g, s.n),
                      s.dim_g, s.n)


def todd_cocycle(s: Scenario) -> Cochain:
    """det(R / (1 - exp(-R))) as a balanced mixed form with unit term."""
    return _todd_power(s, 1)


def todd_sqrt(s: Scenario) -> Cochain:
    """The square root with constant term 1."""
    return _todd_power(s, Fraction(1, 2))
