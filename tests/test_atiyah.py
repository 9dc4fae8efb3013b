import random
from dataclasses import replace
from fractions import Fraction

from gman.atiyah import (EndTensor, atiyah_cocycle, check_connection_independence,
                         difference_tensor, invariant_connection_obstruction,
                         is_ce_closed, todd_cocycle, todd_sqrt)
from gman.calculus import DiffForm, mixed_mul, mixed_unit
from gman.liealg import Cochain
from gman.poly import Poly

from conftest import bundled_doc, random_connection, with_connection

rng = random.Random(13)
F = Fraction


def test_paper_value(paper):
    r = atiyah_cocycle(paper)
    assert set(r.terms) == {(0,)}
    assert r.terms[(0,)].terms == {(0, 0, 0): Poly.const(1, 2)}
    assert is_ce_closed(paper, r)


def test_flat_linear_scenarios_have_zero_cocycle(sl2, abelian):
    assert atiyah_cocycle(sl2).is_zero()
    assert atiyah_cocycle(abelian).is_zero()


def test_connection_independence_randomized(paper, sl2):
    for s, shifts in [(paper, (2, 3)), (sl2, (1, 2))]:
        for _ in range(12):
            alt = random_connection(s, rng.choice(shifts), rng)
            res = check_connection_independence(s, alt)
            assert res["residual_zero"], res["residual"]


def test_closedness_for_nonflat_connection(sl2):
    alt = random_connection(sl2, 1, random.Random(2))
    r = atiyah_cocycle(alt)
    assert is_ce_closed(alt, r)


def test_difference_tensor():
    doc = bundled_doc("paper_sec4")
    s1 = with_connection(doc, [[[[[1, "1"]]]]], 2)
    s2 = with_connection(doc, [[[[[1, "4"]]]]], 2)
    d = difference_tensor(s1, s2)
    assert d.terms == {(0, 0, 0): Poly.monomial((1,), -3)}
    assert (d - d).is_zero()
    assert isinstance(d + d.scale(-1), EndTensor)


def test_obstruction_unsolvable_for_paper(paper):
    ob = invariant_connection_obstruction(paper, 10)
    assert ob["solvable"] is False
    assert ob["window"] == 10
    [cert] = ob["certificates"]
    # no tensor entry of matching weight exists at all
    assert cert["unknown_dimension"] == 0


def test_obstruction_solvable_for_invariant_cases(sl2, abelian):
    for s in (sl2, abelian):
        ob = invariant_connection_obstruction(s)
        assert ob["solvable"] is True
        assert ob["difference_tensor"].is_zero()


def test_obstruction_recovers_invariant_connection(sl2):
    alt = random_connection(sl2, 1, random.Random(7))
    ob = invariant_connection_obstruction(alt)
    assert ob["solvable"] is True
    s_inv = replace(alt, christoffel=ob["invariant_christoffel"])
    assert atiyah_cocycle(s_inv).is_zero()


def test_todd_paper_values(paper):
    td = todd_cocycle(paper)
    half = todd_sqrt(paper)
    one = mixed_unit(1, 1)
    dx_part = Cochain(1, {(0,): DiffForm(1, {(0,): Poly.const(1, 1)})})
    assert td == one + dx_part
    assert half == one + dx_part.scale(F(1, 2))
    assert mixed_mul(half, half) == td


def test_todd_trivial_when_flat(sl2, abelian):
    assert todd_cocycle(sl2) == mixed_unit(3, 2)
    assert todd_sqrt(abelian) == mixed_unit(1, 1)


def test_todd_sqrt_squares_for_nonflat(sl2):
    alt = random_connection(sl2, 1, random.Random(21))
    td = todd_cocycle(alt)
    half = todd_sqrt(alt)
    assert mixed_mul(half, half) == td
