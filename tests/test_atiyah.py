import random
from dataclasses import replace
from fractions import Fraction

from gman.atiyah import (EndTensor, _lie_end, atiyah_cocycle, connection_tensor,
                         invariant_connection_obstruction, is_ce_closed, todd_cocycle,
                         todd_sqrt)
from gman.calculus import DiffForm, differential, mixed_mul, mixed_unit
from gman.liealg import Cochain
from gman.poly import Poly
from gman.scenario import action_cochain

from conftest import atiyah_reference, bundled_doc, random_connection, with_connection

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


def test_atiyah_cocycle_matches_three_term_definition(paper, sl2, abelian):
    """Hess(phi) + d_CE Gamma is the three-term definition, on the bundled
    scenarios and on 24 seeded random connections for each scenario."""
    seeded = random.Random(8)
    nonflat = 0
    for s in (paper, sl2, abelian):
        assert atiyah_cocycle(s) == atiyah_reference(s)
    for s, shifts in [(paper, (2, 3)), (sl2, (1, 2))]:
        for shift in shifts:
            for _ in range(12):
                alt = random_connection(s, shift, seeded)
                nonflat += bool(alt.christoffel)
                assert atiyah_cocycle(alt) == atiyah_reference(alt)
    assert nonflat >= 40


def test_connection_independence_randomized(paper, sl2):
    for s, shifts in [(paper, (2, 3)), (sl2, (1, 2))]:
        for _ in range(12):
            alt = random_connection(s, rng.choice(shifts), rng)
            diff = Cochain(s.dim_g, {(): connection_tensor(alt) - connection_tensor(s)})
            coboundary = differential(s.lie, action_cochain(s), diff, _lie_end)
            assert atiyah_cocycle(alt) - atiyah_cocycle(s) == coboundary


def test_closedness_for_nonflat_connection(sl2):
    alt = random_connection(sl2, 1, random.Random(2))
    r = atiyah_cocycle(alt)
    assert is_ce_closed(alt, r)


def test_difference_tensor(sl2):
    doc = bundled_doc("paper_sec4")
    s1 = with_connection(doc, [[[[[1, "1"]]]]], 2)
    s2 = with_connection(doc, [[[[[1, "4"]]]]], 2)
    d = connection_tensor(s1) - connection_tensor(s2)
    assert d.terms == {(0, 0, 0): Poly.monomial((1,), -3)}
    assert (d - d).is_zero()
    assert isinstance(d + d.scale(-1), EndTensor)
    # entry (i, j, k) is Gamma^k_ij
    alt = random_connection(sl2, 1, random.Random(3))
    assert connection_tensor(alt).terms == {(i, j, k): p for (k, i, j), p
                                            in alt.christoffel.items()}
    assert connection_tensor(sl2).is_zero()


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
