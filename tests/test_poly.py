import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gman.poly import (DimensionMismatch, Poly, grlex_key, monomial_weight,
                       monomials_of_weight)

rng = random.Random(11)


def rand_poly(n=2, maxdeg=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(n, terms)


def test_zero_normalization():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (0, 1) in p.terms and (1, 0) not in p.terms
    assert Poly.zero(2).is_zero()
    assert (p - p).is_zero()


def test_ring_axioms_randomized():
    for _ in range(250):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(2) == a
        assert a * Poly.const(2, 1) == a


def test_partial_leibniz_randomized():
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        i = rng.randrange(2)
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


def test_partials_commute():
    for _ in range(100):
        a = rand_poly()
        assert a.partial(0).partial(1) == a.partial(1).partial(0)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.fractions(max_denominator=6)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_add_negation_roundtrip(items):
    p = Poly(2, {})
    for i, j, c in items:
        p = p + Poly(2, {(i, j): c})
    assert (p + (-p)).is_zero()
    assert -(-p) == p


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Poly.const(2, 1) + Poly.const(3, 1)
    with pytest.raises(DimensionMismatch):
        Poly(2, {(1, 0, 0): Fraction(1)})


def test_monomial_weight_and_enumeration():
    assert monomial_weight((2, 1), (1, 3)) == 5
    ms = monomials_of_weight(2, (1, 1), 3)
    assert len(ms) == 4
    assert ms == sorted(ms, key=grlex_key)
    assert monomials_of_weight(2, (1, 2), 2) == [(0, 1), (2, 0)]
    assert monomials_of_weight(1, (1,), -1) == []


def test_json_roundtrip():
    """to_json is lossless: "num/den" strings and exponent lists, grlex order."""
    for _ in range(50):
        p = rand_poly()
        rows = p.to_json()
        assert Poly(2, {tuple(e): Fraction(c) for c, e in rows}) == p
        assert [tuple(e) for _, e in rows] == sorted(p.terms, key=grlex_key)
    assert Poly.zero(2).to_json() == []


def test_partial_multi():
    p = Poly(2, {(3, 2): Fraction(1)})
    assert p.partial_multi((2, 1)) == Poly(2, {(1, 1): Fraction(12)})
    assert p.partial_multi((4, 0)).is_zero()
