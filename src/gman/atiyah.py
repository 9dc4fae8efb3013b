"""Atiyah cocycle of a connection, the obstruction to an invariant
connection, and the Todd cocycle with its square root.

The Atiyah cocycle is the failure of the Lie derivative along action
fields to commute with covariant derivation.  Assembled as a matrix of
balanced mixed forms (dual-generator times one-form entries) it feeds
a determinant computed as exp of trace of log, which is exact because
the entries are nilpotent and commute.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .calculus import DiffForm, PolyVector, mixed_mul, mixed_unit
from .liealg import Cochain, ce_differential
from .linalg import ColumnReducer
from .poly import Poly, Sparse, accumulate, monomial_weight
from .scenario import Scenario, vf_bracket
from .series import log_todd_generator_series


class EndTensor(Sparse):
    """Element of Gamma(T-dual (x) End T): entries [i][j][k] with
    A(d_i) d_j = sum_k A[i,j,k] d_k."""

    __slots__ = ()

    def entry(self, i: int, j: int, k: int) -> Poly:
        return self.terms.get((i, j, k), Poly.zero(self.n))

    def tensor_weight(self, key: tuple[int, int, int], exps, weights) -> int:
        i, j, k = key
        return monomial_weight(exps, weights) + weights[i] + weights[j] - weights[k]

    def __repr__(self) -> str:
        return "EndTensor(" + ", ".join(f"{k}: {p!r}" for k, p in sorted(self.terms.items())) + ")"


def _end_action_full(s: Scenario, a: int, t: EndTensor) -> EndTensor:
    n = s.n
    phi = s.action[a].vf_components()
    out: dict[tuple[int, int, int], Poly] = {}
    for (i, j, k), p in t.terms.items():
        # term 1: [phi, A(d_i)d_j] = phi(A_ijk) d_k - A_ijc d_c(phi^k) d_k
        accumulate(out, (i, j, k), s.action[a].apply_to(p))
        for c in range(n):
            accumulate(out, (i, j, c), (p * phi[c].partial(k)).scale(-1))
        # term 2: - A([phi, d_c]) d_j = +d_c(phi^i) A(d_i) d_j summed into slot c
        for c in range(n):
            accumulate(out, (c, j, k), phi[i].partial(c) * p)
        # term 3: - A(d_i) [phi, d_c] = +d_c(phi^j) A(d_i) d_j summed into slot c
        for c in range(n):
            accumulate(out, (i, c, k), phi[j].partial(c) * p)
    return EndTensor(n, out)


def atiyah_cocycle(s: Scenario) -> Cochain:
    """The connection's equivariance defect as a 1-cochain of EndTensor
    values: R(e_a, d_i) d_j = [a-hat, nabla_i d_j] - nabla_i [a-hat, d_j]
    - nabla_{[a-hat, d_i]} d_j."""
    n = s.n
    terms: dict[tuple[int, ...], EndTensor] = {}
    for a in range(s.dim_g):
        phi = s.action[a].vf_components()
        entries: dict[tuple[int, int, int], Poly] = {}
        for i in range(n):
            for j in range(n):
                # term 1: [a-hat, Gamma^k_ij d_k]
                t1 = vf_bracket(s.action[a], s.covariant_basis(i, j))
                for k, p in enumerate(t1.vf_components()):
                    accumulate(entries, (i, j, k), p)
                # term 2: nabla_i [a-hat, d_j], [a-hat, d_j] = -d_j(phi^c) d_c
                for c in range(n):
                    g = phi[c].partial(j).scale(-1)
                    if g.is_zero():
                        continue
                    accumulate(entries, (i, j, c), g.partial(i).scale(-1))
                    for k in range(n):
                        accumulate(entries, (i, j, k), (g * s.gamma(k, i, c)).scale(-1))
                # term 3: nabla_{[a-hat, d_i]} d_j
                for c in range(n):
                    g = phi[c].partial(i).scale(-1)
                    if g.is_zero():
                        continue
                    for k in range(n):
                        accumulate(entries, (i, j, k), (g * s.gamma(k, c, j)).scale(-1))
        tensor = EndTensor(n, entries)
        if not tensor.is_zero():
            terms[(a,)] = tensor
    return Cochain(s.dim_g, terms)


def atiyah_action(s: Scenario):
    def act(a: int, t: EndTensor) -> EndTensor:
        return _end_action_full(s, a, t)
    return act


def is_ce_closed(s: Scenario, cochain: Cochain) -> bool:
    return ce_differential(s.lie, cochain, atiyah_action(s)).is_zero()


def difference_tensor(s1: Scenario, s2: Scenario) -> EndTensor:
    """nabla - nabla' as an EndTensor (entry (i,j,k) = Gamma - Gamma')."""
    n = s1.n
    entries = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = s1.gamma(k, i, j) - s2.gamma(k, i, j)
                if not d.is_zero():
                    entries[(i, j, k)] = d
    return EndTensor(n, entries)


def check_connection_independence(s: Scenario, s_alt: Scenario) -> dict:
    """Verify R(nabla) - R(nabla') = d_CE(nabla - nabla') exactly."""
    r1 = atiyah_cocycle(s)
    r2 = atiyah_cocycle(s_alt)
    diff = difference_tensor(s, s_alt)
    coboundary = ce_differential(s.lie, Cochain(s.dim_g, {(): diff}), atiyah_action(s))
    residual = (r1 - r2) - coboundary
    return {
        "residual_zero": residual.is_zero(),
        "residual": residual,
    }


# --------------------------------------------------------------- obstruction

def _flatten_end_cochain(c: Cochain) -> dict:
    """Index the coefficients of a 1-cochain of EndTensors."""
    out = {}
    for idx, t in c.terms.items():
        (a,) = idx
        for key, p in t.terms.items():
            for exps, coeff in p.terms.items():
                out[(a, key, exps)] = coeff
    return out


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
    act = atiyah_action(s)

    # unknown basis grouped by tensor weight
    from .poly import monomials_of_weight
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
    for idx, t in r.terms.items():
        (a,) = idx
        for key, p in t.terms.items():
            for exps, coeff in p.terms.items():
                tau = t.tensor_weight(key, exps, w) - s.action_weights[a]
                required.setdefault(tau, {})[(a, key, exps)] = coeff

    solution = EndTensor(n)
    certificates = []
    row_index: dict = {}

    def row_of(key):
        if key not in row_index:
            row_index[key] = len(row_index)
        return row_index[key]

    for tau, rhs in sorted(required.items()):
        basis = unknowns.get(tau, [])
        reducer = ColumnReducer(track=True)
        for u, (i, j, k, exps) in enumerate(basis):
            tensor = EndTensor(n, {(i, j, k): Poly.monomial(exps, 1)})
            image = Cochain(s.dim_g, {(): tensor})
            dimg = ce_differential(s.lie, image, act)
            col = {row_of(key): c for key, c in _flatten_end_cochain(dimg).items()}
            reducer.insert(col, label=u)
        rhs_col = {row_of(key): c for key, c in rhs.items()}
        combo = reducer.solve(rhs_col)
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
    coboundary = ce_differential(s.lie, Cochain(s.dim_g, {(): solution}), act)
    assert (coboundary - r).is_zero(), "internal error: solver produced a non-solution"
    inv_gamma = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                p = s.gamma(k, i, j) - solution.entry(i, j, k)
                if not p.is_zero():
                    inv_gamma[(k, i, j)] = p
    from dataclasses import replace
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


def todd_cocycle(s: Scenario, r: Cochain | None = None) -> Cochain:
    """det(R / (1 - exp(-R))) as a balanced mixed form with unit term."""
    if r is None:
        r = atiyah_cocycle(s)
    return _mixed_exp(todd_log(s, r), min(s.dim_g, s.n), s.dim_g, s.n)


def todd_sqrt(s: Scenario, r: Cochain | None = None) -> Cochain:
    """The square root with constant term 1."""
    if r is None:
        r = atiyah_cocycle(s)
    return _mixed_exp(todd_log(s, r).scale(Fraction(1, 2)), min(s.dim_g, s.n), s.dim_g, s.n)
