"""Scenario definition and validation.

A scenario is a Lie algebra acting on a coordinate space by
weight-homogeneous polynomial vector fields, together with a
torsionfree connection and the truncation caps that carve out finite
computation windows.  Every structural requirement is checked exactly
at load time, and nothing downstream revalidates: one structure-constant
entry per pair of generators; Q^2 = 0 for Q = d_CE + phi, as the Jacobi
identity d_Lambda^2 = 0 and as the Maurer-Cartan equation
1/2 [q, q] + d_Lambda q = 0 of the action cochain q, which says phi is a
morphism; homogeneity; and the symmetry of the connection.

``Scenario`` and ``Caps`` are immutable named tuples, changed only by
``_replace``.  ``Caps`` validates its fields whenever it is built, by
``Caps(...)`` or by ``_replace``.  They are not dataclasses because
``import dataclasses`` also loads ``inspect``, ``ast`` and ``dis``, on
every start-up of the CLI.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .calculus import PolyVector, _schouten, differential
from .liealg import Cochain, LieAlgebra, StructureError
from .poly import Poly, monomial_weight


class ScenarioError(ValueError):
    """Malformed or mathematically invalid scenario input."""


class Caps(namedtuple("Caps", "max_weight max_order max_arity max_ce_degree")):
    """The truncation caps of a scenario's windows, checked when built."""
    __slots__ = ()

    def __new__(cls, max_weight: int, max_order: int, max_arity: int, max_ce_degree: int):
        self = super().__new__(cls, max_weight, max_order, max_arity, max_ce_degree)
        for name, value in self.to_json().items():
            if type(value) is not int or value < 0:
                raise ScenarioError(f"cap {name} must be a non-negative integer, got {value!r}")
        for name in ("max_order", "max_arity"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"cap {name} must be at least 1, got {getattr(self, name)}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through this, so it checks too
        return cls(*iterable)

    def to_json(self) -> dict:
        return self._asdict()


class Scenario(NamedTuple):
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


def action_cochain(s: Scenario) -> Cochain:
    """The action as one cochain, sum_a e^a (x) phi_a: the q of the
    differentials [q, -] + d_Lambda (``calculus.differential``)."""
    return Cochain(s.dim_g, {(a,): phi for a, phi in enumerate(s.action)})


def _int(value, where: str) -> int:
    """A JSON integer, never a float, bool or string read as one."""
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _coeff(value, where: str) -> Fraction:
    """A string read as an exact rational, or a JSON integer; never a float or a bool."""
    if type(value) is not str and type(value) is not int:
        raise ScenarioError(f"{where} has coefficient {value!r}, not a string or an integer")
    return Fraction(value)


def _parse_poly(n: int, data, where: str) -> Poly:
    terms = {}
    try:
        for item in data or []:
            exps = tuple(item[:-1])
            if any(type(v) is not int or v < 0 for v in exps):
                raise ScenarioError(f"{where}: term {item} has an exponent that is not "
                                    "a non-negative integer")
            if len(exps) != n:
                raise ScenarioError(
                    f"{where}: term {item} has {len(exps)} exponents, expected {n}")
            coeff = _coeff(item[-1], f"{where}: term {item}")
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    except ScenarioError:
        raise
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: malformed polynomial encoding: {exc}") from exc
    return Poly(n, terms)


def _is_array(data, shape: tuple[int, ...]) -> bool:
    """data is nested lists of exactly the given shape."""
    return not shape or (isinstance(data, list) and len(data) == shape[0]
                         and all(_is_array(d, shape[1:]) for d in data))


def key_weight(side: str, key: tuple, weights: tuple[int, ...],
               action_weights: tuple[int, ...]) -> int:
    """The weight of a basis key (I, mid, e) on a side, which every
    differential preserves: the monomial weight of e, minus the action
    weights of I, minus the weight of mid (sum w_j over the coordinate
    tuple on tpoly, sum lambda.beta over the slot multi-indices on dpoly)."""
    idx, mid, exps = key
    mid_weight = (sum(weights[j] for j in mid) if side == "tpoly"
                  else sum(monomial_weight(b, weights) for b in mid))
    return monomial_weight(exps, weights) - sum(action_weights[i] for i in idx) - mid_weight


def _homogeneous_weight(vf: PolyVector, weights: tuple[int, ...], label: str) -> int:
    """Weight of a homogeneous vector field, that of each tpoly key ((), (j,), e)."""
    seen: set[int] = set()
    for (j,), p in vf.terms.items():
        for exps in p.terms:
            w = key_weight("tpoly", ((), (j,), exps), weights, ())
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
        m = _int(doc["dim_g"], "dim_g")
        n = _int(doc["dim_m"], "dim_m")
        weights = tuple(_int(w, "coordinate_weights") for w in doc["coordinate_weights"])
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"missing or malformed header field: {exc}") from exc
    if m < 0 or n < 1:
        raise ScenarioError(f"need dim_g >= 0 and dim_m >= 1, got {m} and {n}")
    if len(weights) != n:
        raise ScenarioError(f"{len(weights)} coordinate weights for dim_m={n}")
    if any(w <= 0 for w in weights):
        raise ScenarioError("coordinate weights must be positive integers")

    structure: dict[tuple[int, int, int], Fraction] = {}
    raw_structure = doc.get("structure_constants", [])
    if not isinstance(raw_structure, list):
        raise ScenarioError(f"structure_constants must be a list of [i, j, [[k, c], ..]] "
                            f"entries, got {raw_structure!r}")
    pairs: set[frozenset] = set()
    for entry in raw_structure:
        try:
            i, j, klist = entry
            if not isinstance(klist, list):
                raise ScenarioError(f"{klist!r} is not a list of [k, c] pairs")
            if any(type(v) is not int or not 0 <= v < m for v in (i, j, *(k for k, _ in klist))):
                raise ScenarioError(f"index outside 0..{m - 1}")
            if i == j:
                raise ScenarioError(f"i = j = {i}, but [e_i, e_i] = 0")
            for k, coeff in klist:
                c = _coeff(coeff, f"[k, c] pair {[k, coeff]}")
                key = (i, j, k)
                structure[key] = structure.get(key, Fraction(0)) + c
                key_op = (j, i, k)
                structure[key_op] = structure.get(key_op, Fraction(0)) - c
            if (pair := frozenset((i, j))) in pairs:
                raise ScenarioError(f"[e_{i}, e_{j}] is given a second time")
            pairs.add(pair)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"malformed structure constant entry {entry}: {exc}") from exc
    raw_action = doc.get("action")  # shapes first: the algebra loops over dim_g
    if not _is_array(raw_action, (m, n)):
        raise ScenarioError(f"action must list {m} vector fields of {n} coordinate components")
    raw_gamma = doc.get("christoffel")
    if raw_gamma and not _is_array(raw_gamma, (n, n, n)):
        raise ScenarioError(f"christoffel must be indexed [k][i][j], each in 0..{n - 1}")
    raw_caps = doc.get("caps", {})
    try:
        max_weight, max_order, max_arity, max_ce_degree = (
            _int(raw_caps.get(name, default), f"cap {name}") for name, default in
            (("max_weight", 6), ("max_order", 4), ("max_arity", 4), ("max_ce_degree", m)))
    except AttributeError as exc:
        raise ScenarioError(f"malformed caps: {exc}") from exc
    caps = Caps(max_weight, max_order, max_arity, min(max_ce_degree, m))
    try:
        lie = LieAlgebra(m, structure)
    except StructureError as exc:
        raise ScenarioError(str(exc)) from exc

    action = []
    for a, rows in enumerate(raw_action):
        comps = [_parse_poly(n, rows[j], f"action[{a}][{j}]") for j in range(n)]
        action.append(PolyVector.vector_field(comps))

    action_weights = tuple(
        _homogeneous_weight(vf, weights, f"phi(e_{a})") for a, vf in enumerate(action)
    )

    # morphism check: phi([e_a, e_b]) = [phi(e_a), phi(e_b)] is the
    # Maurer-Cartan equation 1/2 [q, q] + d_Lambda q = 0 of the action cochain
    q = Cochain(m, {(a,): vf for a, vf in enumerate(action)})
    residual = differential(lie, q.scale(Fraction(1, 2)), q, _schouten)
    if residual.terms:
        a, b = min(residual.terms)
        raise ScenarioError(
            f"action is not a Lie algebra morphism: phi([e_{a},e_{b}]) != "
            f"[phi(e_{a}),phi(e_{b})], residual {residual.terms[a, b]!r}")

    shift = _int(doc.get("christoffel_shift", 0), "christoffel_shift")
    christoffel: dict[tuple[int, int, int], Poly] = {}
    if raw_gamma:
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

    return Scenario(
        n=n, weights=weights, lie=lie, action=tuple(action),
        christoffel=christoffel, caps=caps, action_weights=action_weights,
        christoffel_shift=shift, name=name or str(doc.get("name", "")),
    )
