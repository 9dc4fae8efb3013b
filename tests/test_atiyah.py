import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from gman.atiyah import (EndTensor, _compose, _lie_end, atiyah_cocycle, connection_tensor,
                         invariant_connection_obstruction, is_ce_closed, todd_cocycle,
                         todd_log, todd_sqrt)
from gman.calculus import DiffForm, differential, ext_bilinear, mixed_mul, mixed_unit
from gman.liealg import Cochain, merge_indices
from gman.linalg import ColumnReducer, label_row
from gman.poly import Poly, addmul, monomial_weight, monomials_of_weight
from gman.scenario import action_cochain, load_scenario
from gman.series import log_todd_generator_series

from conftest import (atiyah_matrix_reference, atiyah_reference, bundled_doc, mat_mul_reference,
                      random_connection, two_generator_doc, with_connection)

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
    ob = invariant_connection_obstruction(paper._replace(caps=paper.caps._replace(max_weight=10)))
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
    s_inv = alt._replace(christoffel=ob["invariant_christoffel"])
    assert atiyah_cocycle(s_inv).is_zero()


def test_obstruction_solves_past_a_kernel_of_the_unknowns():
    """y d_x on R^2 with Gamma^x_xx = 1 and weights [1, 1]: R has one
    weight, 1, where the 8 constant unknowns have images of rank 5, so
    3 kernel vectors come before the right-hand side's.  The solve still
    finds A = Gamma: the invariant connection is the flat one."""
    s = load_scenario((FIXTURES / "nilpotent_connection.json").read_text())
    w = s.weights
    taus = {monomial_weight(e, w) + w[i] + w[j] - w[k] - s.action_weights[a]
            for (a,), t in atiyah_cocycle(s).terms.items()
            for (i, j, k), p in t.terms.items() for e in p.terms}
    assert taus == {1}
    unknowns = [(i, j, k, e) for i, j, k in itertools.product(range(s.n), repeat=3)
                for e in monomials_of_weight(s.n, w, 1 - w[i] - w[j] + w[k])]
    red, rows = ColumnReducer(), {}
    for u, (i, j, k, e) in enumerate(unknowns):
        one = Cochain(s.dim_g, {(): EndTensor(s.n, {(i, j, k): Poly.monomial(e, 1)})})
        image = differential(s.lie, action_cochain(s), one, _lie_end)
        red.insert({label_row(u): 1, **{rows.setdefault((idx, key, f), len(rows)): c
                                        for idx, t in image.terms.items()
                                        for key, p in t.terms.items()
                                        for f, c in p.terms.items()}})
    assert (len(unknowns), red.rank, len(red.kernel)) == (8, 5, 3)
    ob = invariant_connection_obstruction(s)
    assert ob["solvable"] is True
    assert ob["invariant_christoffel"] == {}
    assert ob["difference_tensor"] == connection_tensor(s)


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


# ------------------------------------------------------ powers of R, _compose

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def compose_scenarios():
    """sl2_linear with the connection of its fixture, and a two-generator
    scenario on R^2 with a seeded linear connection: both have R^2 != 0."""
    two = load_scenario(two_generator_doc(2, [1, 1], "1/2", "-1", "1/2",
                                          {"max_weight": 2, "max_order": 2, "max_arity": 2}))
    return [load_scenario((FIXTURES / "sl2_linear_connection.json").read_text()),
            random_connection(two, 1, random.Random(0))]


def compose_pairs(s):
    """(a, b) pairs of End-valued cochains: R.R, and R against its e^1
    part alone on either side."""
    r = atiyah_cocycle(s)
    r1 = Cochain(s.dim_g, {(1,): r.terms[(1,)]})
    return [(r, r), (r, r1), (r1, r)]


def ext_compose(a, b, kernel=_compose):
    return ext_bilinear(a, b, kernel, lambda k1, p2: k1 * p2)


def _compose_unsigned(acc, ka, pa, kb, pb, f):
    """_compose without the merge sign of the form parts."""
    if ka[-2] == kb[-1] and (merged := merge_indices(ka[:-2], kb[:-2])):
        addmul(acc.setdefault(merged[1] + (kb[-2], ka[-1]), {}), pa.terms, pb.terms, f)


def _compose_reversed(acc, ka, pa, kb, pb, f):
    """_compose with the order of the endomorphisms reversed."""
    if kb[-2] == ka[-1] and (merged := merge_indices(ka[:-2], kb[:-2])):
        addmul(acc.setdefault(merged[1] + (ka[-2], kb[-1]), {}), pa.terms, pb.terms,
               f * merged[0])


@pytest.mark.parametrize("which", [0, 1], ids=["sl2_connection", "two_generator_R2"])
def test_compose_is_the_matrix_product(which):
    """ext_bilinear through _compose, read back as a matrix of mixed forms,
    is the product of the matrices of mixed forms, on R.R and on pairs
    with a != b; and R^2 is not zero, so the product is seen."""
    s = compose_scenarios()[which]
    m = s.dim_g
    for a, b in compose_pairs(s):
        want = mat_mul_reference(atiyah_matrix_reference(s, a), atiyah_matrix_reference(s, b), m)
        assert atiyah_matrix_reference(s, ext_compose(a, b)) == want
    r = atiyah_cocycle(s)
    assert not ext_compose(r, r).is_zero()


def todd_log_reference(s, r):
    """tr log of the Todd generator, on the matrix of mixed forms."""
    nil = min(s.dim_g, s.n)
    coeffs = log_todd_generator_series(nil + 1)
    mat = power = atiyah_matrix_reference(s, r)
    acc = Cochain(s.dim_g)
    for t in range(1, nil + 1):
        if t > 1:
            power = mat_mul_reference(power, mat, s.dim_g)
        for i in range(s.n):
            acc = acc + power[i][i].scale(coeffs[t])
    return acc


def test_todd_log_matches_the_matrix_formula(sl2):
    scenarios = compose_scenarios()
    scenarios += [random_connection(sl2, shift, random.Random(seed))
                  for shift in (1, 2) for seed in range(6)]
    for s in scenarios:
        r = atiyah_cocycle(s)
        assert todd_log(s, r) == todd_log_reference(s, r)


@pytest.mark.parametrize("kernel, want", [
    (_compose_unsigned, [True, True, True]),
    (_compose_reversed, [False, True, True]),
], ids=["no_merge_sign", "reversed_order"])
def test_compose_controls_trip(kernel, want):
    """Negative controls: a kernel without the merge sign, or with the
    endomorphisms composed in the other order, disagrees with the matrix
    product.  A power of one matrix does not see the order, so the
    reversed kernel trips only on the pairs with a != b."""
    for s in compose_scenarios():
        trips = []
        for a, b in compose_pairs(s):
            product = mat_mul_reference(atiyah_matrix_reference(s, a),
                                        atiyah_matrix_reference(s, b), s.dim_g)
            trips.append(atiyah_matrix_reference(s, ext_compose(a, b, kernel)) != product)
        assert trips == want
