import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest

from gman.calculus import PolyVector, schouten
from gman.checks import Sampler, dpoly_axiom_checks
from gman.dpoly import (PolyDiffOp, _insert, _split_multiindex, cup, ext_gerstenhaber,
                        gerstenhaber, hkr, hochschild)
from gman.liealg import Cochain
from gman.poly import Poly, accumulate, polys
from gman.scenario import load_scenario

from conftest import (bundled_doc, components_by_degree, count_builds, mul_reference,
                      partial_multi_reference, vf_apply, vf_bracket)

rng = random.Random(9)
SL2 = load_scenario(bundled_doc("sl2_linear"))
smp = Sampler(SL2, rng)
N = 2


def insert(d1: PolyDiffOp, slot: int, d2: PolyDiffOp) -> PolyDiffOp:
    """d2 substituted into the given slot of every term of d1."""
    acc = {}
    for key1, p1 in d1.terms.items():
        for key2, p2 in d2.terms.items():
            _insert(acc, key1, p1, slot, key2, p2, 1)
    return PolyDiffOp(d1.n, polys(d1.n, acc))


def test_insert_examples():
    x = Poly.var(N, 0)
    dx = PolyDiffOp(N, {((1, 0),): Poly.const(N, 1)})
    xdx = PolyDiffOp(N, {((1, 0),): x})
    # d_x(x d_x f) = d_x f + x d_x^2 f
    assert insert(dx, 0, xdx) == PolyDiffOp(N, {((2, 0),): x,
                                                ((1, 0),): Poly.const(N, 1)})
    # Leibniz split of d_x^2 through the product
    dxx = PolyDiffOp(N, {((2, 0),): Poly.const(N, 1)})
    mm = PolyDiffOp.multiplication(N)
    z = (0, 0)
    assert insert(dxx, 0, mm) == PolyDiffOp(N, {
        ((2, 0), z): Poly.const(N, 1),
        ((1, 0), (1, 0)): Poly.const(N, 2),
        (z, (2, 0)): Poly.const(N, 1),
    })


def test_apply():
    """Inserting functions into every slot evaluates the operator."""
    x, y = Poly.var(N, 0), Poly.var(N, 1)
    op = PolyDiffOp(N, {((1, 0), (0, 1)): x})
    fx, fy = PolyDiffOp.function(x * x), PolyDiffOp.function(y * y)
    assert insert(insert(op, 1, fy), 0, fx) == PolyDiffOp.function(x * (x + x) * (y + y))
    assert insert(insert(op, 0, fx), 0, fy) == PolyDiffOp.function(x * (x + x) * (y + y))


def _brute_split(alpha, parts):
    """Every tuple of ``parts`` multi-indices summing to alpha, with its
    multinomial coefficient, by enumeration."""
    indices = list(product(*(range(a + 1) for a in alpha)))
    out = {}
    for split in product(indices, repeat=parts):
        if tuple(map(sum, zip(*split))) == alpha:
            out[split] = prod(factorial(a) // prod(factorial(b[i]) for b in split)
                              for i, a in enumerate(alpha))
    return out


def test_split_multiindex_against_brute_force():
    for n in (1, 2, 3):
        for alpha in product(range(5), repeat=n):
            if sum(alpha) > 4:
                continue
            for parts in (1, 2, 3):
                got = _split_multiindex(alpha, parts)
                assert type(got) is tuple
                assert sum(c for _, c in got) == parts ** sum(alpha)
                assert len({split for split, _ in got}) == len(got)
                assert dict(got) == _brute_split(alpha, parts)


# The bracket as composed before it worked term by term: components of
# each degree, one whole-operator insertion per slot, sums of operators.
# Kept as an independent oracle for ``gerstenhaber``.

def _old_split(alpha, parts):
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    if not alpha:
        yield ((),) * parts, 1
        return
    for comp in compositions(alpha[0], parts):
        coeff, rem = 1, alpha[0]
        for c in comp[:-1]:
            coeff *= comb(rem, c)
            rem -= c
        for tail, tcoeff in _old_split(alpha[1:], parts):
            yield tuple((c,) + t for c, t in zip(comp, tail)), coeff * tcoeff


def _old_insert(d1, slot, d2):
    acc = {}
    for key1, p1 in d1.terms.items():
        for key2, p2 in d2.terms.items():
            for split, coeff in _old_split(key1[slot], len(key2) + 1):
                new_slots = tuple(tuple(b + d for b, d in zip(key2[t], split[t + 1]))
                                  for t in range(len(key2)))
                accumulate(acc, key1[:slot] + new_slots + key1[slot + 1:],
                           mul_reference(p1, partial_multi_reference(p2, split[0])).scale(coeff))
    return PolyDiffOp(d1.n, acc)


def _old_circ(d1, d2):
    out = PolyDiffOp(d1.n)
    for k1, c1 in components_by_degree(d1):
        for l2, c2 in components_by_degree(d2):
            for i in range(k1 + 1):
                out = out + _old_insert(c1, i, c2).scale(-1 if (i * l2) % 2 else 1)
    return out


def _old_gerstenhaber(d1, d2):
    out = PolyDiffOp(d1.n)
    for k, c1 in components_by_degree(d1):
        for l, c2 in components_by_degree(d2):
            out = out + _old_circ(c1, c2) - _old_circ(c2, c1).scale(-1 if (k * l) % 2 else 1)
    return out


def _random_sum(r: random.Random, n: int) -> PolyDiffOp:
    """A sum of up to three terms of arity 0-3, functions included."""
    terms = {}
    for _ in range(r.randint(1, 3)):
        key = tuple(tuple(r.randint(0, 2) for _ in range(n)) for _ in range(r.randint(0, 3)))
        coeff = Poly(n, {tuple(r.randint(0, 2) for _ in range(n)):
                         Fraction(r.randint(-3, 3), r.randint(1, 2))
                         for _ in range(r.randint(1, 2))})
        accumulate(terms, key, coeff)
    return PolyDiffOp(n, terms)


def test_gerstenhaber_matches_component_composition():
    r = random.Random(31)
    nonzero = 0
    for _ in range(300):
        n = r.randint(1, 3)
        a, b = _random_sum(r, n), _random_sum(r, n)
        got = gerstenhaber(a, b)
        assert got == _old_gerstenhaber(a, b), (a, b)
        nonzero += not got.is_zero()
    assert nonzero > 250


def test_gerstenhaber_builds_one_operator(monkeypatch):
    r = random.Random(5)
    a, b = _random_sum(r, 2), _random_sum(r, 2)
    assert len({len(k) for k in a.terms}) > 1
    built = count_builds(monkeypatch, PolyDiffOp)
    assert not gerstenhaber(a, b).is_zero()
    assert len(built) == 1


def test_ext_gerstenhaber_builds_one_cochain(monkeypatch):
    r = random.Random(7)
    a = Cochain(2, {(): _random_sum(r, 2), (0,): _random_sum(r, 2), (1,): _random_sum(r, 2)})
    b = Cochain(2, {(): _random_sum(r, 2), (1,): _random_sum(r, 2)})
    assert len({len(k) for v in a.terms.values() for k in v.terms}) > 1
    built = count_builds(monkeypatch, Cochain)
    values = count_builds(monkeypatch, PolyDiffOp)
    got = ext_gerstenhaber(a, b)
    assert len(got.terms) > 1
    assert len(built) == 1
    assert len(values) <= 4  # one per index: (), (0,), (1,), (0, 1)


def test_hochschild_examples():
    x = Poly.var(N, 0)
    dxx = PolyDiffOp(N, {((2, 0),): Poly.const(N, 1)})
    assert hochschild(dxx) == PolyDiffOp(N, {((1, 0), (1, 0)): Poly.const(N, -2)})
    # functions and vector fields are closed
    assert hochschild(PolyDiffOp.function(x)).is_zero()
    v = PolyVector.vector_field([smp.poly(), smp.poly()])
    assert hochschild(PolyDiffOp.from_vector_field(v)).is_zero()
    assert gerstenhaber(PolyDiffOp.multiplication(N),
                        PolyDiffOp.multiplication(N)).is_zero()


def test_gerstenhaber_value_level_identities():
    for _ in range(120):
        k, l, e = (rng.randint(-1, 2) for _ in range(3))
        dk, dl, de = smp.diffop(k), smp.diffop(l), smp.diffop(e)
        anti = gerstenhaber(dk, dl) + gerstenhaber(dl, dk).scale(-1 if (k * l) % 2 else 1)
        assert anti.is_zero()
        jac = gerstenhaber(dk, gerstenhaber(dl, de)) \
            - gerstenhaber(gerstenhaber(dk, dl), de) \
            - gerstenhaber(dl, gerstenhaber(dk, de)).scale(-1 if (k * l) % 2 else 1)
        assert jac.is_zero()
        assert hochschild(hochschild(dk)).is_zero()


def test_bracket_with_vector_fields_matches_geometry():
    for _ in range(30):
        v1 = PolyVector.vector_field([smp.poly(), smp.poly()])
        v2 = PolyVector.vector_field([smp.poly(), smp.poly()])
        f = smp.poly()
        o1 = PolyDiffOp.from_vector_field(v1)
        assert gerstenhaber(o1, PolyDiffOp.function(f)) \
            == PolyDiffOp.function(vf_apply(v1, f))
        assert gerstenhaber(o1, PolyDiffOp.from_vector_field(v2)) \
            == PolyDiffOp.from_vector_field(vf_bracket(v1, v2))


@pytest.mark.xfail(strict=True, reason="the two brackets differ in sign on bivector-function "
                   "pairs under hkr; vector-field-function pairs agree")
def test_brackets_agree_under_hkr_on_bivector_and_function():
    """On R^2, [hkr(d_x ^ d_y), hkr(x)] is +D[[0, 1]] while
    hkr([d_x ^ d_y, x]_Schouten) is -D[[0, 1]]."""
    x = PolyVector.function(Poly.var(N, 0))
    dx = PolyVector(N, {(0,): Poly.const(N, 1)})
    assert gerstenhaber(hkr(dx), hkr(x)) == hkr(schouten(dx, x))
    bivector = PolyVector(N, {(0, 1): Poly.const(N, 1)})
    assert gerstenhaber(hkr(bivector), hkr(x)) == hkr(schouten(bivector, x))


def test_hkr_is_closed_and_respects_generators():
    for _ in range(60):
        q = rng.randint(-1, N - 1)
        pv = smp.polyvector(q)
        assert hochschild(hkr(pv)).is_zero()
    v = PolyVector.vector_field([smp.poly(), smp.poly()])
    assert hkr(v) == PolyDiffOp.from_vector_field(v)
    f = smp.poly()
    assert hkr(PolyVector.function(f)) == PolyDiffOp.function(f)
    # hkr of d_x ^ d_y is the antisymmetrized bidifferential operator
    half = Fraction(1, 2)
    assert hkr(PolyVector(N, {(0, 1): Poly.const(N, 1)})) == PolyDiffOp(N, {
        ((1, 0), (0, 1)): Poly.const(N, half),
        ((0, 1), (1, 0)): Poly.const(N, -half),
    })


def test_hkr_of_a_trivector():
    """d_x ^ d_y ^ d_z on R^3: one term per slot order, +-1/6 by the
    sign of the permutation."""
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sixth = Fraction(1, 6)
    want = {
        (0, 1, 2): sixth, (0, 2, 1): -sixth, (1, 0, 2): -sixth,
        (1, 2, 0): sixth, (2, 0, 1): sixth, (2, 1, 0): -sixth,
    }
    assert sorted(want) == sorted(permutations(range(3)))
    got = hkr(PolyVector(3, {(0, 1, 2): Poly.const(3, 1)}))
    assert got == PolyDiffOp(3, {tuple(unit[j] for j in perm): Poly.const(3, c)
                                 for perm, c in want.items()})
    assert hochschild(got).is_zero()


def test_cup_concatenates():
    x = Poly.var(N, 0)
    a = PolyDiffOp(N, {((1, 0),): x})
    b = PolyDiffOp(N, {((0, 1),): Poly.const(N, 3)})
    assert cup(a, b) == PolyDiffOp(N, {((1, 0), (0, 1)): x.scale(3)})


def test_ext_level_dgla_suite():
    report = dpoly_axiom_checks(SL2, cases=40, seed=24)
    assert report["failures"] == []
    assert report["passed"] == 40
