"""Scenario definition and validation.

A scenario is a Lie algebra acting on a coordinate space by
weight-homogeneous polynomial vector fields, together with a
torsionfree connection and the truncation caps that carve out finite
computation windows.  Every structural requirement (Jacobi, the action
being a morphism, homogeneity, symmetry of the connection) is checked
exactly at load time; nothing downstream revalidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import PolyVector
from .liealg import LieAlgebra, StructureError
from .poly import Poly, monomial_weight


class ScenarioError(ValueError):
    """Malformed or mathematically invalid scenario input."""


@dataclass(frozen=True)
class Caps:
    max_weight: int
    max_order: int
    max_arity: int
    max_ce_degree: int

    def __post_init__(self):
        for name, value in self.to_json().items():
            if type(value) is not int or value < 0:
                raise ScenarioError(f"cap {name} must be a non-negative integer, got {value!r}")
        if self.max_order < 1:
            raise ScenarioError(f"cap max_order must be at least 1, got {self.max_order}")

    def to_json(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "max_order": self.max_order,
            "max_arity": self.max_arity,
            "max_ce_degree": self.max_ce_degree,
        }


@dataclass(frozen=True)
class Scenario:
    n: int
    weights: tuple[int, ...]
    lie: LieAlgebra
    action: tuple[PolyVector, ...]
    christoffel: dict  # (k, i, j) -> Poly, symmetric in (i, j)
    caps: Caps
    action_weights: tuple[int, ...]
    christoffel_shift: int = 0
    name: str = ""

    @property
    def dim_g(self) -> int:
        return self.lie.dim

    def gamma(self, k: int, i: int, j: int) -> Poly:
        return self.christoffel.get((k, i, j), Poly.zero(self.n))

    def covariant_basis(self, i: int, j: int) -> PolyVector:
        """nabla_{d_i} d_j as a vector field."""
        comps = [self.gamma(k, i, j) for k in range(self.n)]
        return PolyVector.vector_field(comps)


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


def _parse_poly(n: int, data, where: str) -> Poly:
    terms = {}
    try:
        for item in data or []:
            exps = tuple(int(v) for v in item[:-1])
            if len(exps) != n:
                raise ScenarioError(
                    f"{where}: term {item} has {len(exps)} exponents, expected {n}")
            coeff = Fraction(str(item[-1]))
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    except (TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"{where}: malformed polynomial encoding: {exc}") from exc
    return Poly(n, terms)


def _homogeneous_weight(vf: PolyVector, weights: tuple[int, ...], label: str) -> int:
    """Weight of a homogeneous vector field; 0 for the zero field."""
    seen: set[int] = set()
    for (j,), p in vf.terms.items():
        for exps in p.terms:
            w = monomial_weight(exps, weights) - weights[j]
            if seen and w not in seen:
                raise ScenarioError(
                    f"inhomogeneous action: {label} has monomial x^{list(exps)} d_{j} "
                    f"of weight {w}, expected {min(seen)}")
            seen.add(w)
    return seen.pop() if seen else 0


def load_scenario(document: str | dict, name: str = "") -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Raises ScenarioError with the violated identity instantiated; never
    returns a partially validated instance.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"parse error: {exc}") from exc
    else:
        doc = document

    try:
        m = int(doc["dim_g"])
        n = int(doc["dim_m"])
        weights = tuple(int(w) for w in doc["coordinate_weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"missing or malformed header field: {exc}") from exc
    if len(weights) != n:
        raise ScenarioError(f"{len(weights)} coordinate weights for dim_m={n}")
    if any(w <= 0 for w in weights):
        raise ScenarioError("coordinate weights must be positive integers")

    structure: dict[tuple[int, int, int], Fraction] = {}
    for entry in doc.get("structure_constants", []):
        try:
            i, j, klist = entry
            for k, coeff in klist:
                key = (int(i), int(j), int(k))
                structure[key] = structure.get(key, Fraction(0)) + Fraction(str(coeff))
                key_op = (int(j), int(i), int(k))
                structure[key_op] = structure.get(key_op, Fraction(0)) - Fraction(str(coeff))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed structure constant entry {entry}: {exc}") from exc
    try:
        lie = LieAlgebra(m, structure)
    except StructureError as exc:
        raise ScenarioError(str(exc)) from exc

    raw_action = doc.get("action")
    if raw_action is None or len(raw_action) != m:
        raise ScenarioError(f"action must list {m} vector fields")
    action = []
    for a, rows in enumerate(raw_action):
        if len(rows) != n:
            raise ScenarioError(f"action[{a}] must have {n} coordinate components")
        comps = [_parse_poly(n, rows[j], f"action[{a}][{j}]") for j in range(n)]
        action.append(PolyVector.vector_field(comps))

    action_weights = tuple(
        _homogeneous_weight(vf, weights, f"phi(e_{a})") for a, vf in enumerate(action)
    )

    # morphism check: phi([e_a, e_b]) = [phi(e_a), phi(e_b)]
    for a in range(m):
        for b in range(a + 1, m):
            lhs = PolyVector(n)
            for k, coeff in lie.bracket_basis(a, b).items():
                lhs = lhs + action[k].scale(coeff)
            rhs = vf_bracket(action[a], action[b])
            if lhs != rhs:
                raise ScenarioError(
                    f"action is not a Lie algebra morphism: phi([e_{a},e_{b}]) != "
                    f"[phi(e_{a}),phi(e_{b})], residual {(rhs - lhs)!r}")

    shift = int(doc.get("christoffel_shift", 0))
    christoffel: dict[tuple[int, int, int], Poly] = {}
    raw_gamma = doc.get("christoffel")
    if raw_gamma:
        if len(raw_gamma) != n:
            raise ScenarioError("christoffel must be indexed [k][i][j]")
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    p = _parse_poly(n, raw_gamma[k][i][j], f"christoffel[{k}][{i}][{j}]")
                    if not p.is_zero():
                        christoffel[(k, i, j)] = p
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if christoffel.get((k, i, j), Poly.zero(n)) != christoffel.get((k, j, i), Poly.zero(n)):
                    raise ScenarioError(
                        f"connection has torsion: Gamma^{k}_{i}{j} != Gamma^{k}_{j}{i}")
    for (k, i, j), p in christoffel.items():
        want = shift + weights[k] - weights[i] - weights[j]
        for exps in p.terms:
            if monomial_weight(exps, weights) != want:
                raise ScenarioError(
                    f"christoffel[{k}][{i}][{j}] monomial x^{list(exps)} has weight "
                    f"{monomial_weight(exps, weights)}, expected {want} (shift {shift})")

    raw_caps = doc.get("caps", {})
    try:
        max_weight, max_order, max_arity, max_ce_degree = (
            int(raw_caps.get(name, default)) for name, default in
            (("max_weight", 6), ("max_order", 4), ("max_arity", 4), ("max_ce_degree", m)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed caps: {exc}") from exc
    caps = Caps(max_weight, max_order, max_arity, min(max_ce_degree, m))

    return Scenario(
        n=n, weights=weights, lie=lie, action=tuple(action),
        christoffel=christoffel, caps=caps, action_weights=action_weights,
        christoffel_shift=shift, name=name or str(doc.get("name", "")),
    )
