import json
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from gman.atiyah import EndTensor
from gman.calculus import PolyVector
from gman.cohomology import coords_cochain
from gman.liealg import Cochain
from gman.poly import Poly, accumulate, monomials_of_weight
from gman.scenario import Scenario, load_scenario, vf_bracket


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
    return replace(s, christoffel=gamma, christoffel_shift=shift)


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
