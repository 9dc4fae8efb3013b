import json
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, lcm, prod
from operator import add

import pytest

from gman.atiyah import EndTensor
from gman.calculus import DiffForm, PolyVector, contract, ext_pv_wedge, ext_schouten, mixed_mul
from gman.cohomology import Workspace, cochain_coords, coords_cochain
from gman.dpoly import PolyDiffOp, ext_cup, ext_gerstenhaber
from gman.liealg import Cochain, LieAlgebra, StructureError, merge_indices, sort_indices
from gman.linalg import ColumnReducer
from gman.poly import (Poly, Sparse, accumulate, addmul, derive, monomials_of_weight, polys,
                       unit)
from gman.scenario import Scenario, load_scenario


def at0(op, a, b, *args):
    """op (an ext_* product, contract or ext_bilinear) on the values a and
    b as cochains of degree 0, read back at the empty index tuple."""
    c = op(Cochain(0, {(): a}), Cochain(0, {(): b}), *args)
    return c.terms[()] if c.terms else b._like({})


def bundled(name: str) -> Scenario:
    text = resources.files("gman.data").joinpath(name + ".json").read_text()
    return load_scenario(text)


@pytest.fixture(scope="session")
def paper() -> Scenario:
    return bundled("paper_sec4")


@pytest.fixture(scope="session")
def sl2() -> Scenario:
    return bundled("sl2_linear")


@pytest.fixture(scope="session")
def abelian() -> Scenario:
    return bundled("abelian_trivial")


def bundled_doc(name: str) -> dict:
    text = resources.files("gman.data").joinpath(name + ".json").read_text()
    return json.loads(text)


def with_connection(doc: dict, christoffel, shift: int) -> Scenario:
    doc = dict(doc)
    doc["christoffel"] = christoffel
    doc["christoffel_shift"] = shift
    return load_scenario(doc)


def two_generator_doc(n: int, weights, a: str, b: str, c: str, caps: dict) -> dict:
    """The 2-dim algebra [e0, e1] = c e1 acting by e0 -> a E, e1 -> b F,
    with E = x d_x, F = x^2 d_x on the line or E = x d_x + y d_y,
    F = x^2 d_x + xy d_y on R^2.  [E, F] = F, so this is a Lie morphism
    exactly when c = a."""
    if n == 1:
        action = [[[[1, a]]], [[[2, b]]]]
    else:
        action = [[[[1, 0, a]], [[0, 1, a]]], [[[2, 0, b]], [[1, 1, b]]]]
    return {"dim_g": 2, "dim_m": n, "coordinate_weights": list(weights),
            "structure_constants": [[0, 1, [[1, c]]]], "action": action, "caps": caps}


def basis_cochain(s: Scenario, side: str, elt: tuple) -> Cochain:
    """The cochain of one basis element (idx, mid, exps) of a slice."""
    return coords_cochain(s, side, {elt: 1})


def gamma(s: Scenario, k: int, i: int, j: int) -> Poly:
    """The Christoffel symbol Gamma^k_ij of s."""
    return s.christoffel.get((k, i, j), Poly.zero(s.n))


def covariant_basis(s: Scenario, i: int, j: int) -> PolyVector:
    """nabla_{d_i} d_j as a vector field."""
    return PolyVector.vector_field([gamma(s, k, i, j) for k in range(s.n)])


def random_connection(s: Scenario, shift: int, rng) -> Scenario:
    """A random torsionfree weight-homogeneous connection for s."""
    n, w = s.n, s.weights
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                want = shift + w[k] - w[i] - w[j]
                monos = monomials_of_weight(n, w, want)
                if not monos:
                    continue
                p = Poly(n, {rng.choice(monos): Fraction(rng.randint(-3, 3))})
                if p.is_zero():
                    continue
                gamma[(k, i, j)] = p
                if i != j:
                    gamma[(k, j, i)] = p
    return s._replace(christoffel=gamma, christoffel_shift=shift)


def atiyah_reference(s: Scenario) -> Cochain:
    """The Atiyah cocycle by its three-term definition, the reference for
    gman.atiyah.atiyah_cocycle:
    R(e_a, d_i) d_j = [a-hat, nabla_i d_j] - nabla_i [a-hat, d_j] - nabla_{[a-hat, d_i]} d_j."""
    n = s.n
    terms: dict[tuple[int, ...], EndTensor] = {}
    for a in range(s.dim_g):
        phi = s.action[a].vf_components()
        entries: dict[tuple[int, int, int], Poly] = {}
        for i in range(n):
            for j in range(n):
                # term 1: [a-hat, Gamma^k_ij d_k]
                t1 = vf_bracket(s.action[a], covariant_basis(s, i, j))
                for k, p in enumerate(t1.vf_components()):
                    accumulate(entries, (i, j, k), p)
                # term 2: nabla_i [a-hat, d_j], [a-hat, d_j] = -d_j(phi^c) d_c
                for c in range(n):
                    g = phi[c].partial(j).scale(-1)
                    if g.is_zero():
                        continue
                    accumulate(entries, (i, j, c), g.partial(i).scale(-1))
                    for k in range(n):
                        accumulate(entries, (i, j, k), (g * gamma(s, k, i, c)).scale(-1))
                # term 3: nabla_{[a-hat, d_i]} d_j
                for c in range(n):
                    g = phi[c].partial(i).scale(-1)
                    if g.is_zero():
                        continue
                    for k in range(n):
                        accumulate(entries, (i, j, k), (g * gamma(s, k, c, j)).scale(-1))
        tensor = EndTensor(n, entries)
        if not tensor.is_zero():
            terms[(a,)] = tensor
    return Cochain(s.dim_g, terms)


# The products and derivatives as written before they shared the
# multiply-accumulate kernel ``poly.addmul``: each product a Poly of its
# own, scaled and added into the sum.  References for the kernel tests.

def mul_reference(a: Poly, b: Poly) -> Poly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return Poly(a.n, out)


def partial_reference(p: Poly, i: int) -> Poly:
    out = {}
    for exps, coeff in p.terms.items():
        k = exps[i]
        if k == 0:
            continue
        e = list(exps)
        e[i] = k - 1
        out[tuple(e)] = coeff * k
    return Poly(p.n, out)


def partial_multi_reference(p: Poly, alpha) -> Poly:
    for i, k in enumerate(alpha):
        for _ in range(k):
            if p.is_zero():
                return p
            p = partial_reference(p, i)
    return p


def cup_reference(d1: PolyDiffOp, d2: PolyDiffOp) -> PolyDiffOp:
    acc = {}
    for k1, p1 in d1.terms.items():
        for k2, p2 in d2.terms.items():
            accumulate(acc, k1 + k2, mul_reference(p1, p2))
    return PolyDiffOp(d1.n, acc)


# Slot insertion as it was before the Leibniz splits were grouped by
# their first part: one derivative and one product per split, from a
# flat split table.  The reference for ``dpoly._insert`` and
# ``_gerstenhaber``.

def split_multiindex_reference(alpha, parts: int) -> tuple:
    """Every split of alpha into ``parts`` multi-indices with its
    multinomial coefficient, one flat tuple of (split, coeff)."""
    if parts == 1:
        return (((alpha,), 1),)
    out = []
    for first in product(*(range(a + 1) for a in alpha)):
        coeff = prod(comb(a, b) for a, b in zip(alpha, first))
        rest = tuple(a - b for a, b in zip(alpha, first))
        for tail, tcoeff in split_multiindex_reference(rest, parts - 1):
            out.append(((first,) + tail, coeff * tcoeff))
    return tuple(out)


def insert_reference(acc: dict, key1, p1: Poly, slot: int, key2, p2: Poly, sign) -> None:
    for split, coeff in split_multiindex_reference(key1[slot], len(key2) + 1):
        dp2 = derive(p2.terms, split[0])
        if not dp2:
            continue
        new_slots = tuple(tuple(map(add, beta, delta)) for beta, delta in zip(key2, split[1:]))
        key = key1[:slot] + new_slots + key1[slot + 1:]
        addmul(acc.setdefault(key, {}), p1.terms, dp2, sign * coeff)


def gerstenhaber_reference(acc: dict, key1, p1: Poly, key2, p2: Poly, f) -> None:
    """The bracket kernel of ``dpoly._gerstenhaber``, on insert_reference."""
    k, l = len(key1) - 1, len(key2) - 1
    for i in range(k + 1):
        insert_reference(acc, key1, p1, i, key2, p2, -f if i * l % 2 else f)
    for j in range(l + 1):
        insert_reference(acc, key2, p2, j, key1, p1, f if (k * l + j * k) % 2 else -f)


def pv_wedge_reference(a: Sparse, b: Sparse) -> Sparse:
    out = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            prod = mul_reference(pa, pb)
            accumulate(out, idx, prod if sign > 0 else -prod)
    return a._like(out)


def xi_partial_reference(idx, i: int, right: bool = False):
    """(sign, idx without i) for the left odd derivative by the symbol i of
    the symbol product indexed by idx, or the right one: the symbol hops
    over the factors before it, or after it.  None if i is not in idx."""
    if i not in idx:
        return None
    t = idx.index(i)
    return (-1) ** (len(idx) - 1 - t if right else t), idx[:t] + idx[t + 1:]


def schouten_reference(a: PolyVector, b: PolyVector) -> PolyVector:
    n = a.n
    acc = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            for i in range(n):
                right = xi_partial_reference(ia, i, right=True)
                if right is not None:
                    s1, ia_red = right
                    dpb = partial_reference(pb, i)
                    if not dpb.is_zero():
                        merged = merge_indices(ia_red, ib)
                        if merged is not None:
                            s2, idx = merged
                            accumulate(acc, idx, mul_reference(pa, dpb).scale(s1 * s2))
                left = xi_partial_reference(ib, i)
                if left is not None:
                    s1, ib_red = left
                    dpa = partial_reference(pa, i)
                    if not dpa.is_zero():
                        merged = merge_indices(ia, ib_red)
                        if merged is not None:
                            s2, idx = merged
                            accumulate(acc, idx, mul_reference(dpa, pb).scale(-s1 * s2))
    return PolyVector(n, acc)


# The Lambda g-dual extension and the contraction as written before they
# shared the term-pair kernels: each value split into its degree
# components, the value operation applied to whole values, the result
# copied by scale(sign) and added into the sum.  References for the
# extension tests.

def degrees(v: Sparse) -> set[int]:
    """The degrees len(key) + SHIFT of the terms of a value."""
    return {len(k) + v.SHIFT for k in v.terms}


def component(v: Sparse, degree: int) -> Sparse:
    """The terms of a value of one degree."""
    return v._like({k: p for k, p in v.terms.items() if len(k) + v.SHIFT == degree})


def components_by_degree(v: Sparse) -> list:
    """(degree, homogeneous component) pairs of a value, degrees ascending."""
    return [(d, component(v, d)) for d in sorted(degrees(v))]


def ext_bilinear_reference(a: Cochain, b: Cochain, op, exponent) -> Cochain:
    acc = {}
    for i1, v1 in a.terms.items():
        for q1, v1c in components_by_degree(v1):
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


def contract_reference(eta: Cochain, a: Cochain) -> Cochain:
    """Form degree by form degree, with the Koszul sign of moving the
    form past the exterior part of a."""
    acc = {}
    for iw, theta in eta.terms.items():
        for ia, x in a.terms.items():
            merged = merge_indices(iw, ia)
            if merged is None:
                continue
            sign, idx = merged
            for k, part in components_by_degree(theta):
                v = at0(contract, part, x)
                if not v.is_zero():
                    accumulate(acc, idx, v.scale(-sign if k * len(ia) % 2 else sign))
    return a._like(acc)


# HKR and the Duflo residuals as written before the residuals were built
# in basis coordinates: hkr fills each slot's term map with sign/k! times
# the coefficients, and a residual is a Cochain subtraction, flattened
# afterwards.  References for the hkr kernel and residual tests.

def hkr_reference(pv: PolyVector, factor=lambda k: Fraction(1, factorial(k))) -> PolyDiffOp:
    """hkr, with the factor 1/k! of a tensor-degree-k term replaceable
    (negative controls pass a wrong one)."""
    n = pv.n
    acc = {}
    for idx, p in pv.terms.items():
        f = factor(len(idx))
        for perm in permutations(idx):
            g = sort_indices(perm)[0] * f
            acc[tuple(unit(n, j) for j in perm)] = {e: c * g for e, c in p.terms.items()}
    return PolyDiffOp(n, polys(n, acc))


def residuals_reference(a: Cochain, b: Cochain, td: Cochain, hkr=hkr_reference) -> tuple:
    """Coordinates of the product and bracket residuals of the polyvector
    cochains a, b under phi = hkr o contract(td, -):
    cochain_coords(ext_cup(phi a, phi b) - phi(ext_pv_wedge(a, b))) and the
    same for ext_gerstenhaber and ext_schouten."""
    def phi(c):
        return contract(td, c).map_values(hkr)
    fa, fb = phi(a), phi(b)
    return (cochain_coords(ext_cup(fa, fb) - phi(ext_pv_wedge(a, b))),
            cochain_coords(ext_gerstenhaber(fa, fb) - phi(ext_schouten(a, b))))


def count_builds(monkeypatch, cls) -> list:
    """Record every construction of a cls instance, through __init__ or,
    where cls has one, _like."""
    built = []
    init = cls.__init__
    monkeypatch.setattr(cls, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    if hasattr(cls, "_like"):
        like = cls._like
        monkeypatch.setattr(cls, "_like",
                            lambda self, terms: built.append(1) or like(self, terms))
    return built


# The axiom identities as written before each became one raw sum
# (``checks.tpoly_identities`` and ``dpoly_identities``): every product
# is built as a Cochain and each residual is a Cochain subtraction.
# References for the axiom tests; ``flip`` multiplies the sign of the
# second term of the bracket antisymmetry (negative controls pass -1).

def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def tpoly_residuals_reference(d, a: Cochain, b: Cochain, c: Cochain, degs,
                              flip: int = 1) -> dict:
    (p1, q1), (p2, q2), _ = degs
    g1, g2 = p1 + q1, p2 + q2
    t1, t2 = p1 + q1 + 1, p2 + q2 + 1
    ab, ac = ext_schouten(a, b), ext_schouten(a, c)
    wab, da, db = ext_pv_wedge(a, b), d(a), d(b)
    return {
        "graded_commutativity": wab - ext_pv_wedge(b, a).scale(_sign(t1 * t2)),
        "bracket_antisymmetry": ab + ext_schouten(b, a).scale(flip * _sign(g1 * g2)),
        "graded_jacobi": ext_schouten(a, ext_schouten(b, c))
            - ext_schouten(ab, c)
            - ext_schouten(b, ac).scale(_sign(g1 * g2)),
        "graded_leibniz": ext_schouten(a, ext_pv_wedge(b, c))
            - ext_pv_wedge(ab, c)
            - ext_pv_wedge(b, ac).scale(_sign(g1 * t2)),
        "d_squared": d(da),
        "d_derivation_product": d(wab)
            - ext_pv_wedge(da, b)
            - ext_pv_wedge(a, db).scale(_sign(t1)),
        "d_derivation_bracket": d(ab)
            - ext_schouten(da, b)
            - ext_schouten(a, db).scale(_sign(g1)),
    }


def dpoly_residuals_reference(d, a: Cochain, b: Cochain, c: Cochain, degs,
                              flip: int = 1) -> dict:
    (p1, q1), (p2, q2), _ = degs
    g1, g2 = p1 + q1, p2 + q2
    ab, da = ext_gerstenhaber(a, b), d(a)
    return {
        "bracket_antisymmetry": ab + ext_gerstenhaber(b, a).scale(flip * _sign(g1 * g2)),
        "graded_jacobi": ext_gerstenhaber(a, ext_gerstenhaber(b, c))
            - ext_gerstenhaber(ab, c)
            - ext_gerstenhaber(b, ext_gerstenhaber(a, c)).scale(_sign(g1 * g2)),
        "D_squared": d(da),
        "D_derivation_bracket": d(ab)
            - ext_gerstenhaber(da, b)
            - ext_gerstenhaber(a, d(b)).scale(_sign(g1)),
    }


# The differentials as written before every one became the bracket with
# an action cochain plus d_Lambda (``calculus.differential``): the
# Chevalley-Eilenberg differential walks every (p+1)-tuple of basis
# indices, calls an action closure for each value and reads values back
# through antisymmetry; the operator side adds (-1)^p id (x) d_H on top.
# References for the differential tests.

def evaluate_reference(c: Cochain, seq: tuple):
    """Value of c on an arbitrary basis-index sequence, via antisymmetry;
    None for the zero value."""
    sorted_ = sort_indices(seq)
    if sorted_ is None:
        return None
    sign, idx = sorted_
    v = c.terms.get(idx)
    return None if v is None else v.scale(sign)


def ce_differential_reference(g: LieAlgebra, c: Cochain, action) -> Cochain:
    """(dc)(a_0..a_p) = sum_i (-1)^i a_i . c(..a_i-hat..)
                      + sum_{i<j} (-1)^{i+j} c([a_i,a_j], ..hats..)."""
    out = {}
    for p, comp in components_by_degree(c):
        for tup in combinations(range(g.dim), p + 1):
            total = None
            for i in range(p + 1):
                v = comp.terms.get(tup[:i] + tup[i + 1:])
                if v is None:
                    continue
                av = action(tup[i], v)
                if av.is_zero():
                    continue
                av = av.scale(-1 if i % 2 else 1)
                total = av if total is None else total + av
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                    for k in range(g.dim):
                        coeff = g.c.get((tup[i], tup[j], k), 0)
                        v = evaluate_reference(comp, (k,) + rest) if coeff else None
                        if v is None:
                            continue
                        sgn = coeff if (i + j) % 2 == 0 else -coeff
                        total = v.scale(sgn) if total is None else total + v.scale(sgn)
            if total is not None:
                accumulate(out, tup, total)
    return Cochain(c.n, out)


def total_differential_reference(g: LieAlgebra, c: Cochain, action, d_v) -> Cochain:
    """d_CE + (-1)^p id (x) d_V."""
    vertical = {}
    for idx, v in c.terms.items():
        dv = d_v(v)
        if not dv.is_zero():
            vertical[idx] = dv.scale(-1 if len(idx) % 2 else 1)
    return ce_differential_reference(g, c, action) + Cochain(c.n, vertical)


def on_polyvectors_reference(s: Scenario):
    return lambda a, v: at0(ext_schouten, s.action[a], v)


def on_dpoly_reference(s: Scenario):
    ops = [PolyDiffOp.from_vector_field(vf) for vf in s.action]
    return lambda a, mu: at0(ext_gerstenhaber, ops[a], mu)


def vf_apply(x: PolyVector, f: Poly) -> Poly:
    """X(f) = sum_i p_i d_i f for a vector field X."""
    out = Poly.zero(f.n)
    for (i,), p in x.terms.items():
        out = out + p * f.partial(i)
    return out


def lie_derivative_reference(s: Scenario, a: int, t: EndTensor) -> EndTensor:
    """L_{phi_a} t: the action of e_a on End-valued tensors."""
    n = s.n
    phi = s.action[a].vf_components()
    out = {}
    for (i, j, k), p in t.terms.items():
        # term 1: [phi, A(d_i)d_j] = phi(A_ijk) d_k - A_ijc d_c(phi^k) d_k
        accumulate(out, (i, j, k), vf_apply(s.action[a], p))
        for c in range(n):
            accumulate(out, (i, j, c), (p * phi[c].partial(k)).scale(-1))
        # term 2: - A([phi, d_c]) d_j = +d_c(phi^i) A(d_i) d_j summed into slot c
        for c in range(n):
            accumulate(out, (c, j, k), phi[i].partial(c) * p)
        # term 3: - A(d_i) [phi, d_c] = +d_c(phi^j) A(d_i) d_j summed into slot c
        for c in range(n):
            accumulate(out, (i, c, k), phi[j].partial(c) * p)
    return EndTensor(n, out)


def end_differential_reference(s: Scenario, c: Cochain) -> Cochain:
    """d_CE on End-valued cochains, through lie_derivative_reference."""
    return ce_differential_reference(s.lie, c, lambda a, t: lie_derivative_reference(s, a, t))


# The checks of Q^2 = 0 and the Todd powers as written before they went
# through d_lambda, calculus.differential and ext_bilinear: the Jacobi
# identity as a loop over basis quadruples, the morphism property pair
# by pair through the vector-field commutator, and R^t as a product of
# n x n matrices of mixed forms.  References for the loader and Todd tests.

def vf_bracket(x: PolyVector, y: PolyVector) -> PolyVector:
    """Commutator of vector fields: [X,Y]^j = X(Y^j) - Y(X^j)."""
    n = x.n
    xc, yc = x.vf_components(), y.vf_components()
    comps = []
    for j in range(n):
        term = Poly.zero(n)
        for i in range(n):
            term = term + xc[i] * yc[j].partial(i) - yc[i] * xc[j].partial(i)
        comps.append(term)
    return PolyVector.vector_field(comps)


def jacobi_reference(m: int, c: dict) -> None:
    """Raise StructureError on the first basis quadruple (i, j, k, l) at
    which the cyclic sum of c^r_ij c^l_rk is nonzero."""
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    s = 0
                    for r in range(m):
                        s += c.get((i, j, r), 0) * c.get((r, k, l), 0)
                        s += c.get((j, k, r), 0) * c.get((r, i, l), 0)
                        s += c.get((k, i, r), 0) * c.get((r, j, l), 0)
                    if s != 0:
                        raise StructureError(
                            f"Jacobi fails on basis triple ({i},{j},{k}), "
                            f"component {l}: residual {s}"
                        )


def morphism_reference(g: LieAlgebra, action) -> str | None:
    """The message for the first pair a < b with phi([e_a, e_b]) !=
    [phi(e_a), phi(e_b)], or None when the action is a Lie morphism."""
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            rhs = vf_bracket(action[a], action[b])
            lhs = PolyVector(rhs.n)
            for k in range(g.dim):
                if coeff := g.c.get((a, b, k), 0):
                    lhs = lhs + action[k].scale(coeff)
            if lhs != rhs:
                return (f"action is not a Lie algebra morphism: phi([e_{a},e_{b}]) != "
                        f"[phi(e_{a}),phi(e_{b})], residual {(rhs - lhs)!r}")
    return None


def atiyah_matrix_reference(s: Scenario, r: Cochain) -> list[list[Cochain]]:
    """An EndTensor-valued cochain as an n x n matrix of mixed forms: the
    term at key (form.., j, k) goes to row k (the output frame) and column
    j (the input frame).  For the Atiyah cocycle the entries are balanced
    (1,1) mixed forms."""
    n, m = s.n, s.dim_g
    mat = [[Cochain(m) for _ in range(n)] for _ in range(n)]
    for idx, t in r.terms.items():
        for key, p in t.terms.items():
            entry = Cochain(m, {idx: DiffForm(n, {key[:-2]: p})})
            mat[key[-1]][key[-2]] = mat[key[-1]][key[-2]] + entry
    return mat


def mat_mul_reference(a, b, m: int) -> list[list[Cochain]]:
    """The product of two n x n matrices of mixed forms."""
    n = len(a)
    out = [[Cochain(m) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Cochain(m)
            for t in range(n):
                acc = acc + mixed_mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out



# Slice bases as enumerated before the multi-index and monomial tables
# were cached and before the operator side kept only its normalized
# elements: every call rebuilds its tables, a slice with the order cap
# raised by one is the whole raised slice, and operator slots of order 0
# are enumerated.  References for the enumeration oracle and the counted
# dim_cochains, the source of the bases, at the order cap and one order
# higher, in the column tests, and of the full capped complex that
# FullWorkspace eliminates.

def monomials_reference(n: int, weights, target: int) -> list:
    """All exponent tuples of the given weighted degree, grlex order."""
    if target < 0:
        return []
    out = []

    def rec(i: int, remaining: int, prefix: list):
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for k in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - k * weights[i], prefix + [k])

    rec(0, target, [])
    out.sort(key=lambda e: (sum(e), e))
    return out


def beta_tuples_reference(n: int, arity: int, max_order: int) -> list[tuple]:
    """All arity-tuples of multi-indices with total order <= max_order."""
    if arity == 0:
        return [()]
    multis = []
    for d in range(max_order + 1):
        multis.extend(monomials_reference(n, (1,) * n, d))
    out: list[tuple] = []

    def rec(t: int, budget: int, prefix: tuple):
        if t == arity:
            out.append(prefix)
            return
        for b in multis:
            if sum(b) <= budget:
                rec(t + 1, budget - sum(b), prefix + (b,))

    rec(0, max_order, ())
    out.sort(key=lambda bs: tuple((sum(b), b) for b in bs))
    return out


def enumerate_slice_reference(s: Scenario, side: str, weight: int, p: int, q: int,
                              max_order: int) -> list[tuple]:
    """The ordered basis (I, mid, exps) of the (weight, p, q) slice."""
    n, w = s.n, s.weights
    out = []
    for idx in combinations(range(s.dim_g), p):
        gshift = sum(s.action_weights[i] for i in idx)
        if side == "tpoly":
            mids = [(jj, sum(w[j] for j in jj)) for jj in combinations(range(n), q + 1)]
        else:
            mids = [(bs, sum(sum(e * c for e, c in zip(b, w)) for b in bs))
                    for bs in beta_tuples_reference(n, q + 1, max_order)]
        for mid, mshift in mids:
            for exps in monomials_reference(n, w, weight + gshift + mshift):
                out.append((idx, mid, exps))
    return out


def slice_degrees(s: Scenario, side: str, k: int) -> list[tuple[int, int]]:
    """The (exterior, tensor) degrees (p, q) of the total-degree-k slices."""
    qmax = s.n - 1 if side == "tpoly" else s.caps.max_arity - 1
    return [(p, k - p) for p in range(min(s.dim_g, s.caps.max_ce_degree) + 1)
            if -1 <= k - p <= qmax]


def is_normalized(side: str, elt: tuple) -> bool:
    """Is a basis element (I, mid, exps) normalized: on the dpoly side,
    has every slot of mid order >= 1?  Every tpoly element is."""
    return side == "tpoly" or all(map(any, elt[1]))


def slice_reference(s: Scenario, side: str, w: int, k: int, max_order: int,
                    normalized: bool = False) -> list[tuple]:
    """The ordered basis of the (w, k) slice at the given order cap: the
    full capped one, or its normalized elements, the basis of a Workspace."""
    return [e for p, q in slice_degrees(s, side, k)
            for e in enumerate_slice_reference(s, side, w, p, q, max_order)
            if not normalized or is_normalized(side, e)]


class FullWorkspace(Workspace):
    """A Workspace that eliminates the full capped complex: its bases
    keep the operator elements with a slot of order 0."""

    def basis(self, w: int, k: int) -> list:
        if (w, k) not in self._bases:
            self._bases[w, k] = slice_reference(self.s, self.side, w, k, self.max_order)
        return self._bases[w, k]


def image_coords(ws, elt: tuple) -> dict:
    """Basis-key coordinates of d(elt): the workspace's column for elt,
    built over a row table of its own and read back through it."""
    table: dict = {}
    col = ws.image_column(table, elt)
    keys = list(table)
    return {keys[r]: c for r, c in col.items()}


class ReducerReference(ColumnReducer):
    """A ColumnReducer that reduces by cross-multiplying at every step,
    b*col - a*pivot, and divides by the content after each; it records
    the leading entries (a, b) of every step in ``steps``."""

    def __init__(self):
        super().__init__()
        self.steps: list[tuple[int, int]] = []

    @staticmethod
    def _primitive(col: dict) -> dict:
        g = gcd(*col.values())
        return {r: v // g for r, v in col.items()} if g > 1 else col

    def reduce(self, col: dict) -> dict:
        col = {r: Fraction(v) for r, v in col.items() if v}
        denlcm = lcm(*(f.denominator for f in col.values()))
        col = self._primitive({r: int(f * denlcm) for r, f in col.items()})
        while col:
            lead = max(col)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            a, b = col[lead], piv[lead]
            self.steps.append((a, b))
            out = {r: b * v for r, v in col.items()}
            for r, v in piv.items():
                out[r] = out.get(r, 0) - a * v
            col = self._primitive({r: v for r, v in out.items() if v})
        return col
