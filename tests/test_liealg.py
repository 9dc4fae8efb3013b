import random
from fractions import Fraction

import pytest

from itertools import combinations

from gman.calculus import DiffForm, _schouten, differential, mixed_mul, mixed_unit
from gman.liealg import Cochain, LieAlgebra, StructureError, merge_indices, sort_indices
from gman.poly import Poly

from conftest import ce_differential_reference, jacobi_reference

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
    # every pair of index tuples of length <= 3 over 5 generators, against
    # the parity of the inversions of the concatenation
    tuples = [t for k in range(4) for t in combinations(range(5), k)]
    assert len(tuples) ** 2 == 676
    for a in tuples:
        for b in tuples:
            want = None
            if not set(a) & set(b):
                inversions = sum(x > y for x in a for y in b)
                want = (-1) ** inversions, tuple(sorted(a + b))
            assert merge_indices(a, b) == want, (a, b)


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


def random_structure(r: random.Random, m: int) -> tuple[int, dict]:
    """A dimension and antisymmetric structure constants: a few random
    brackets on m generators, or sl2 plus an abelian summand with one
    constant perturbed half of the time."""
    if r.random() < 0.5:
        c = {(i, j, r.randrange(m)): r.choice([-2, -1, 1, Fraction(1, 2)])
             for i, j in combinations(range(m), 2) if r.random() < 0.4}
    else:
        m = max(m, 3)
        c = {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
        if r.random() < 0.5:
            i, j = sorted(r.sample(range(m), 2))
            key = (i, j, r.randrange(m))
            c[key] = c.get(key, 0) + r.choice([-1, 1, Fraction(1, 2)])
    out = {}
    for (i, j, k), v in c.items():
        out[(i, j, k)], out[(j, i, k)] = Fraction(v), -Fraction(v)
    return m, out


def test_antisymmetry_check_matches_triple_loop():
    """On 500 seeded random structure dicts, some not antisymmetric,
    LieAlgebra reports the same first failing triple as a loop over every
    basis triple, and raises exactly when that loop finds one."""
    r = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(500):
        m = r.randint(1, 4)
        c = {}
        for _ in range(r.randint(0, 6)):
            i, j, k = (r.randrange(m) for _ in range(3))
            c[i, j, k] = r.choice([-1, 1, 2, Fraction(1, 2)])
            if r.random() < 0.7:
                c[j, i, k] = -c[i, j, k]
        want = next((f"antisymmetry fails: c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]"
                     for i in range(m) for j in range(m) for k in range(m)
                     if c.get((i, j, k), 0) != -c.get((j, i, k), 0)), None)
        seen[want is None] += 1
        try:
            LieAlgebra(m, c)
        except StructureError as exc:
            assert str(exc) == want if want else str(exc).startswith("Jacobi fails")
        else:
            assert want is None
    assert min(seen.values()) >= 100


def test_jacobi_check_matches_quadruple_loop():
    """On 300 seeded random antisymmetric algebras LieAlgebra raises
    exactly when the cyclic-sum loop over basis quadruples finds a
    violation, with its message."""
    r = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(300):
        m, c = random_structure(r, r.randint(2, 5))
        try:
            jacobi_reference(m, c)
            want = None
        except StructureError as exc:
            want = str(exc)
        seen[want is None] += 1
        if want is None:
            assert LieAlgebra(m, c).c == {k: v for k, v in c.items() if v}
        else:
            with pytest.raises(StructureError) as exc:
                LieAlgebra(m, c)
            assert str(exc.value) == want
    assert min(seen.values()) >= 60


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


def test_d_lambda_cartan_convention_squares_to_zero():
    """d e^k = -sum_{i<j} c^k_ij e^i ^ e^j on the generators of sl2, and
    d o d = 0 on every basis element of Lambda sl2-dual."""
    g = sl2()
    assert g.d_lambda((0,)) == [((1, 2), -1)]
    assert g.d_lambda((1,)) == [((0, 1), -2)]
    assert g.d_lambda((2,)) == [((0, 2), 2)]
    assert g.d_lambda(()) == [] and g.d_lambda((0, 1, 2)) == []
    nonzero = 0
    for p in range(4):
        for idx in combinations(range(3), p):
            twice: dict = {}
            for j, c in g.d_lambda(idx):
                nonzero += 1
                for k, c2 in g.d_lambda(j):
                    twice[k] = twice.get(k, 0) + c * c2
            assert not any(twice.values()), idx
    assert nonzero >= 3


def book() -> LieAlgebra:
    """[e0, e1] = e1, [e0, e2] = e2: not unimodular, so d_lambda is
    nonzero on Lambda^2, where sl2 has none."""
    return LieAlgebra(3, {(0, 1, 1): 1, (1, 0, 1): -1, (0, 2, 2): 1, (2, 0, 2): -1})


def test_d_lambda_odd_derivation_sign():
    """d(e^1 ^ e^2) = d e^1 ^ e^2 - e^1 ^ d e^2 = -2 e^0 ^ e^1 ^ e^2; the
    sign-blind extension would give 0."""
    g = book()
    assert g.d_lambda((1,)) == [((0, 1), -1)]
    assert g.d_lambda((1, 2)) == [((0, 1, 2), -2)]


@pytest.mark.parametrize("make", [sl2, book])
def test_trivial_module_differential_matches_reference(make):
    """With the zero action, differential is d_lambda on the indices, and
    equals the Chevalley-Eilenberg differential walked tuple by tuple."""
    g = make()
    r = random.Random(7)
    for _ in range(40):
        c = Cochain(3, {tuple(sorted(r.sample(range(3), r.randint(0, 3)))):
                        Poly.const(1, r.randint(1, 3)) for _ in range(r.randint(1, 3))})
        want = ce_differential_reference(g, c, lambda a, v: Poly.zero(1))
        assert differential(g, Cochain(3), c, _schouten) == want


def test_ce_differential_trivial_module_matches_lie_cohomology():
    """With the zero action, d is the Lie algebra differential; for sl2
    d^2 = 0 and H^0 is one-dimensional (the invariants)."""
    g = sl2()
    zero = Cochain(3)

    def d(c):
        return differential(g, zero, c, _schouten)

    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            idx = tuple(sorted(rng.sample(range(3), k)))
            terms[idx] = Poly.const(1, rng.randint(-3, 3))
        c = Cochain(3, {k: v for k, v in terms.items() if not v.is_zero()})
        assert d(d(c)).is_zero()

    # constants are invariant; the dual generators are not all closed
    const = Cochain(3, {(): Poly.const(1, 1)})
    assert d(const).is_zero()
    e1 = Cochain(3, {(1,): Poly.const(1, 1)})
    assert d(e1) == Cochain(3, {(0, 1): Poly.const(1, -2)})
