import random
from fractions import Fraction

import pytest

from gman.calculus import DiffForm, mixed_mul, mixed_unit
from gman.liealg import (Cochain, LieAlgebra, StructureError,
                         ce_differential, merge_indices, sort_indices)
from gman.poly import Poly

rng = random.Random(5)


def sl2() -> LieAlgebra:
    c = {}
    for (i, j, k, v) in [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]:
        c[(i, j, k)] = Fraction(v)
        c[(j, i, k)] = Fraction(-v)
    return LieAlgebra(3, c)


def test_merge_indices_signs():
    assert merge_indices((0,), (1,)) == (1, (0, 1))
    assert merge_indices((1,), (0,)) == (-1, (0, 1))
    assert merge_indices((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_indices((0,), (0,)) is None
    assert merge_indices((), (0, 1)) == (1, (0, 1))


def test_sort_indices():
    assert sort_indices((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_indices((1, 0)) == (-1, (0, 1))
    assert sort_indices((0, 0)) is None


def test_structure_validation():
    # antisymmetry violation
    with pytest.raises(StructureError):
        LieAlgebra(2, {(0, 1, 0): Fraction(1)})
    # Jacobi violation: [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e0 is not a Lie algebra
    bad = {}
    for (i, j, k, v) in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)]:
        bad[(i, j, k)] = Fraction(v)
        bad[(j, i, k)] = Fraction(-v)
    with pytest.raises(StructureError):
        LieAlgebra(3, bad)
    assert sl2().bracket_basis(1, 2) == {0: Fraction(1)}
    assert LieAlgebra.abelian(4).bracket_basis(0, 1) == {}


def dual_form(g, terms):
    """An element of the exterior algebra on g-dual: a mixed form whose
    values are constant functions on a one-point manifold."""
    return Cochain(g, {idx: DiffForm(1, {(): Poly.const(1, c)}) for idx, c in terms.items()})


def test_ext_form_wedge():
    # the wedge on Lambda g-dual, realised through mixed_mul
    g = 3
    a, b, c = (dual_form(g, {(i,): 1}) for i in range(3))
    assert mixed_mul(a, b) == dual_form(g, {(0, 1): 1})
    assert mixed_mul(b, a) == dual_form(g, {(0, 1): -1})
    assert mixed_mul(a, a).is_zero()
    assert mixed_mul(a, mixed_mul(b, c)) == mixed_mul(mixed_mul(a, b), c)
    assert mixed_mul(mixed_unit(g, 1), b) == b


def rand_ext(g=3):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, g)
        idx = tuple(sorted(rng.sample(range(g), k)))
        terms[idx] = terms.get(idx, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return dual_form(g, terms)


def test_ext_form_wedge_randomized_associativity():
    for _ in range(100):
        a, b, c = rand_ext(), rand_ext(), rand_ext()
        assert mixed_mul(a, mixed_mul(b, c)) == mixed_mul(mixed_mul(a, b), c)


def test_cochain_evaluate_antisymmetry():
    c = Cochain(3, {(0, 2): Poly.const(1, 5)})
    assert c.evaluate((2, 0)) == Poly.const(1, -5)
    assert c.evaluate((0, 2)) == Poly.const(1, 5)
    assert c.evaluate((0, 0)) is None
    assert c.evaluate((0, 1)) is None


def test_ce_differential_trivial_module_matches_lie_cohomology():
    """With the zero action, d is the Lie algebra differential; for sl2
    d^2 = 0 and H^0 is one-dimensional (the invariants)."""
    g = sl2()

    def action(a, v):
        return Poly.zero(1)

    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            idx = tuple(sorted(rng.sample(range(3), k)))
            terms[idx] = Poly.const(1, rng.randint(-3, 3))
        c = Cochain(3, {k: v for k, v in terms.items() if not v.is_zero()})
        assert ce_differential(g, ce_differential(g, c, action), action).is_zero()

    # constants are invariant; the dual generators are not all closed
    const = Cochain(3, {(): Poly.const(1, 1)})
    assert ce_differential(g, const, action).is_zero()
    e1 = Cochain(3, {(1,): Poly.const(1, 1)})
    assert not ce_differential(g, e1, action).is_zero()
