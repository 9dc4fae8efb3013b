"""The coefficient-module actions used by the Chevalley-Eilenberg
differential, one per value type."""

from __future__ import annotations

from .calculus import PolyVector, schouten
from .dpoly import PolyDiffOp, gerstenhaber
from .scenario import Scenario


def on_polyvectors(s: Scenario):
    def act(a: int, v: PolyVector) -> PolyVector:
        return schouten(s.action[a], v)
    return act


def on_dpoly(s: Scenario):
    ops = [PolyDiffOp.from_vector_field(vf) for vf in s.action]

    def act(a: int, mu: PolyDiffOp) -> PolyDiffOp:
        return gerstenhaber(ops[a], mu)
    return act
