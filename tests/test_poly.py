import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gman import poly
from gman.poly import (DimensionMismatch, Poly, Sparse, grlex_key, monomial_weight,
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


def test_monomials_of_weight_returns_a_fresh_list():
    """The table behind monomials_of_weight is cached; a caller that
    mutates its list changes neither the table nor the next answer."""
    ms = monomials_of_weight(2, (1, 2), 4)
    want = list(ms)
    ms.append((9, 9))
    ms.reverse()
    assert monomials_of_weight(2, (1, 2), 4) == want
    assert monomials_of_weight(2, (1, 2), 4) is not monomials_of_weight(2, (1, 2), 4)


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


def test_float_coefficients_refused():
    with pytest.raises(TypeError):
        Poly.const(1, 0.5)
    p = Poly.var(2, 0)
    with pytest.raises(TypeError):
        p.scale(-1.0)
    with pytest.raises(TypeError):
        Poly(2, {(1, 0): 2.0})
    with pytest.raises(TypeError):
        Sparse(2, {(0,): p}).scale(-1.0)


# Int-first coefficients: every stored coefficient is an int exactly when
# it is integral.  The reference below computes on plain dicts of
# Fractions, apart from Poly.

def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return out


def _ref_scale(a: dict, f) -> dict:
    return {e: c * f for e, c in a.items()}


def _ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def _ref_partial(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _ref_json(ref: dict) -> list:
    nonzero = sorted(((e, c) for e, c in ref.items() if c), key=lambda t: grlex_key(t[0]))
    return [[f"{c.numerator}/{c.denominator}", list(e)] for e, c in nonzero]


def check_int_first(da: dict, db: dict) -> None:
    a, b = Poly(2, da), Poly(2, db)
    ra = {e: Fraction(c) for e, c in da.items()}
    rb = {e: Fraction(c) for e, c in db.items()}
    half = Fraction(1, 2)
    results = [
        (a, ra),
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, _ref_scale(rb, -1))),
        (a * b, _ref_mul(ra, rb)),
        (a.partial(0), _ref_partial(ra, 0)),
        (a.partial(1), _ref_partial(ra, 1)),
        (a.scale(-3), _ref_scale(ra, -3)),
        (a.scale(half), _ref_scale(ra, half)),
        (a.scale(half).scale(2), ra),
    ]
    for p, ref in results:
        for c in p.terms.values():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c
        assert p.to_json() == _ref_json(ref)


small_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.one_of(st.integers(-4, 4),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    max_size=4)


@given(small_terms, small_terms)
@settings(max_examples=150, deadline=None)
def test_int_first_coefficients(da, db):
    check_int_first(da, db)


def test_int_first_check_trips_on_fraction_everywhere(monkeypatch):
    """Negative control: a _norm that keeps every Fraction as it is leaves
    Fraction(1) behind after scaling by 1/2 and then by 2."""
    check_int_first({(1, 0): 1}, {})
    monkeypatch.setattr(poly, "_norm", Fraction)
    with pytest.raises(AssertionError):
        check_int_first({(1, 0): 1}, {})
