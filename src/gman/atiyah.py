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
Assembled as a matrix of balanced mixed forms (dual-generator times
one-form entries) R feeds a determinant computed as exp of trace of
log, which is exact because the entries are nilpotent and commute.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import factorial

from .calculus import DiffForm, differential, mixed_mul, mixed_unit
from .liealg import Cochain
from .linalg import ColumnReducer
from .poly import (Poly, Sparse, accumulate, addmul, derive, monomial_weight,
                   monomials_of_weight, unit)
from .scenario import Scenario, action_cochain
from .series import log_todd_generator_series


class EndTensor(Sparse):
    """Element of Gamma(T-dual (x) End T): entries [i][j][k] with
    A(d_i) d_j = sum_k A[i,j,k] d_k."""

    __slots__ = ()

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

def invariant_connection_obstruction(s: Scenario, max_poly_weight: int | None = None) -> dict:
    """Solve d_CE(A) = R for a difference tensor A, per weight slice.

    Unknowns are monomial entries of A with polynomial weight up to the
    window cap.  Returns either the invariant connection (with the
    invariance identity re-verified) or the unsolvable slice as a
    certificate.
    """
    n, w = s.n, s.weights
    window = s.caps.max_weight if max_poly_weight is None else max_poly_weight
    r = atiyah_cocycle(s)
    q = action_cochain(s)

    # unknown basis grouped by tensor weight
    unknowns: dict[int, list] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for d in range(window + 1):
                    for exps in monomials_of_weight(n, w, d):
                        tau = d + w[i] + w[j] - w[k]
                        unknowns.setdefault(tau, []).append((i, j, k, exps))

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
        basis = unknowns.get(tau, [])
        reducer = ColumnReducer(track=True)
        for u, (i, j, k, exps) in enumerate(basis):
            one = Cochain(s.dim_g, {(): EndTensor(n, {(i, j, k): Poly.monomial(exps, 1)})})
            image = differential(s.lie, q, one, _lie_end)
            reducer.insert({rows.setdefault((a, key, e), len(rows)): c
                            for (a,), t in image.terms.items()
                            for key, p in t.terms.items()
                            for e, c in p.terms.items()}, label=u)
        combo = reducer.solve({rows.setdefault(key, len(rows)): c for key, c in rhs.items()})
        if combo is None:
            certificates.append({
                "tensor_weight_slice": tau,
                "unknown_dimension": len(basis),
                "rhs": {str(k): str(v) for k, v in rhs.items()},
            })
        else:
            for u, coeff in combo.items():
                i, j, k, exps = basis[u]
                solution = solution + EndTensor(n, {(i, j, k): Poly.monomial(exps, coeff)})

    if certificates:
        return {"solvable": False, "certificates": certificates, "window": window}

    # verify d(A) = R and the invariance identity for nabla - A
    coboundary = differential(s.lie, q, Cochain(s.dim_g, {(): solution}), _lie_end)
    assert (coboundary - r).is_zero(), "internal error: solver produced a non-solution"
    inv_gamma = {(k, i, j): p for (i, j, k), p in (connection_tensor(s) - solution).terms.items()}
    s_inv = replace(s, christoffel=inv_gamma)
    assert atiyah_cocycle(s_inv).is_zero(), "invariant connection fails re-verification"
    return {"solvable": True, "difference_tensor": solution,
            "invariant_christoffel": inv_gamma, "window": window}


# ---------------------------------------------------------------------- Todd

def atiyah_matrix(s: Scenario, r: Cochain) -> list[list[Cochain]]:
    """The cocycle as an n x n matrix of balanced (1,1) mixed forms;
    rows index the output frame, columns the input frame."""
    n, m = s.n, s.dim_g
    mat = [[Cochain(m) for _ in range(n)] for _ in range(n)]
    for idx, t in r.terms.items():
        (a,) = idx
        for (i, j, k), p in t.terms.items():
            entry = Cochain(m, {(a,): DiffForm(n, {(i,): p})})
            mat[k][j] = mat[k][j] + entry
    return mat


def _mat_mul(a, b, m):
    n = len(a)
    out = [[Cochain(m) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Cochain(m)
            for t in range(n):
                acc = acc + mixed_mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


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
    """tr log of the Todd generator applied to the Atiyah matrix."""
    n, m = s.n, s.dim_g
    nil = min(m, n)
    coeffs = log_todd_generator_series(nil + 1)
    mat = atiyah_matrix(s, r)
    acc = Cochain(m)
    power = mat
    for t in range(1, nil + 1):
        if t > 1:
            power = _mat_mul(power, mat, m)
        if coeffs[t]:
            trace = Cochain(m)
            for i in range(n):
                trace = trace + power[i][i]
            acc = acc + trace.scale(coeffs[t])
    return acc


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
