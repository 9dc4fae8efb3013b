"""The multiply-accumulate kernel, the term-pair kernels, their
Lambda g-dual extension and the differentials built on it against the
code they replaced.

Operands have half-integer coefficients over few exponents, so sums of
products cancel to integers and to zero; every result must equal the
reference of conftest.py and keep the int-first invariant: no zero
coefficient, no Fraction with denominator 1, no zero value stored.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from gman.atiyah import EndTensor, _lie_end
from gman.calculus import (DiffForm, PolyVector, contract, differential, ext_pv_wedge,
                           ext_schouten, mixed_mul)
from gman.cohomology import side_differential
from gman.dpoly import PolyDiffOp, _gerstenhaber, ext_cup, ext_gerstenhaber, hkr, hkr_terms
from gman.liealg import Cochain
from gman.poly import Poly, Sparse, addmul, derive, polys
from gman.scenario import action_cochain, load_scenario

from conftest import (at0, bundled, ce_differential_reference, contract_reference, cup_reference,
                      end_differential_reference, ext_bilinear_reference, hkr_reference,
                      mul_reference, on_dpoly_reference, on_polyvectors_reference,
                      partial_multi_reference, partial_reference, pv_wedge_reference,
                      schouten_reference, total_differential_reference, two_generator_doc)


def assert_int_first(x) -> None:
    if isinstance(x, Poly):
        for e, c in x.terms.items():
            assert len(e) == x.n
            assert c, f"zero coefficient at {e}"
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
                f"coefficient {c!r} at {e} is not int-first"
        return
    assert isinstance(x, Sparse)
    for key, v in x.terms.items():
        assert not v.is_zero(), f"zero value stored at {key}"
        assert_int_first(v)


def assert_same(got, ref) -> None:
    assert_int_first(got)
    assert got == ref, (got, ref)


def flip_one(x):
    """x with the sign of its first coefficient flipped."""
    if isinstance(x, Poly):
        e, c = next(iter(x.terms.items()))
        return Poly(x.n, {**x.terms, e: -c})
    key, v = next(iter(x.terms.items()))
    return x._like({**x.terms, key: flip_one(v)})


def half_poly(r: random.Random, n: int, maxdeg: int = 2) -> Poly:
    return Poly(n, {tuple(r.randint(0, maxdeg) for _ in range(n)): Fraction(r.randint(-3, 3), 2)
                    for _ in range(r.randint(1, 4))})


def polyvector(r: random.Random, n: int, cls=PolyVector):
    keys = [k for t in range(n + 1) for k in combinations(range(n), t)]
    return cls(n, {r.choice(keys): half_poly(r, n) for _ in range(r.randint(1, 3))})


def diffop(r: random.Random, n: int) -> PolyDiffOp:
    return PolyDiffOp(n, {tuple(tuple(r.randint(0, 1) for _ in range(n))
                                for _ in range(r.randint(0, 2))): half_poly(r, n)
                          for _ in range(r.randint(1, 3))})


def test_mul_matches_reference_and_cancels():
    r = random.Random(41)
    cancelled = integral = 0
    for _ in range(400):
        n = r.randint(1, 3)
        p, q = half_poly(r, n), half_poly(r, n)
        # (p + q)(p - q) = p^2 - q^2: the cross terms cancel
        for a, b in ((p, q), (p + q, p - q)):
            got = a * b
            assert_same(got, mul_reference(a, b))
            sums = {tuple(x + y for x, y in zip(e1, e2)) for e1 in a.terms for e2 in b.terms}
            cancelled += len(sums) > len(got.terms)
            integral += any(type(c) is int for c in got.terms.values())
    x, y = Poly.var(2, 0).scale(Fraction(1, 2)), Poly.var(2, 1).scale(Fraction(1, 2))
    assert (x + y) * (x - y) == Poly(2, {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 4)})
    assert cancelled > 100 and integral > 100


def test_addmul_accumulates_with_factor():
    a = {(1, 0): Fraction(1, 2), (0, 1): 1}
    b = {(1, 0): 2, (0, 1): Fraction(-1, 2)}
    tgt = {(1, 1): Fraction(1, 2)}
    assert addmul(tgt, a, b, 3) is tgt
    # xy/2 + 3 (x/2 + y)(2x - y/2) = 3x^2 + (1/2 + 21/4) xy - 3/2 y^2
    assert Poly(2, tgt) == Poly(2, {(2, 0): 3, (1, 1): Fraction(23, 4), (0, 2): Fraction(-3, 2)})
    assert Poly(2, addmul({}, a, {(0, 0): 2}, -1)) == Poly(2, {(1, 0): -1, (0, 1): -2})


def test_derive_matches_iterated_partials():
    r = random.Random(43)
    for _ in range(300):
        n = r.randint(1, 3)
        p = half_poly(r, n, maxdeg=4)
        alpha = tuple(r.randint(0, 3) for _ in range(n))
        got = p.partial_multi(alpha)
        assert_same(got, partial_multi_reference(p, alpha))
        assert Poly(n, derive(p.terms, alpha)) == got
        i = r.randrange(n)
        assert_same(p.partial(i), partial_reference(p, i))
    with pytest.raises(IndexError):
        Poly(2, {(3, 1): 5}).partial(2)


def test_bilinear_operations_match_references():
    r = random.Random(47)
    nonzero = 0
    for _ in range(250):
        n = r.randint(1, 3)
        d1, d2 = diffop(r, n), diffop(r, n)
        assert_same(at0(ext_cup, d1, d2), cup_reference(d1, d2))
        a, b = polyvector(r, n), polyvector(r, n)
        assert_same(at0(ext_pv_wedge, a, b), pv_wedge_reference(a, b))
        assert_same(at0(ext_schouten, a, b), schouten_reference(a, b))
        f, g = polyvector(r, n, DiffForm), polyvector(r, n, DiffForm)
        wedge = at0(ext_pv_wedge, f, g)
        assert type(wedge) is DiffForm
        assert_same(wedge, pv_wedge_reference(f, g))
        # a vector field wedged or bracketed with itself cancels to zero
        v = PolyVector(n, {(j,): half_poly(r, n) for j in range(n)})
        assert at0(ext_pv_wedge, v, v).is_zero() and at0(ext_schouten, v, v).is_zero()
        nonzero += not at0(ext_schouten, a, b).is_zero()
    assert nonzero > 100


@pytest.mark.parametrize("op, ref, make", [
    (lambda a, b: a * b, mul_reference, half_poly),
    pytest.param(partial(at0, ext_cup), cup_reference, diffop, id="cup-cup_reference-diffop"),
    pytest.param(partial(at0, ext_pv_wedge), pv_wedge_reference, polyvector,
                 id="pv_wedge-pv_wedge_reference-polyvector"),
    pytest.param(partial(at0, ext_schouten), schouten_reference, polyvector,
                 id="schouten-schouten_reference-polyvector"),
])
def test_flipped_reference_fails_the_comparison(op, ref, make):
    """Negative control: one flipped sign in the reference must trip
    assert_same, and a smuggled non-normal coefficient assert_int_first."""
    r = random.Random(53)
    for _ in range(50):
        a, b = make(r, 2), make(r, 2)
        want = ref(a, b)
        if not want.is_zero():
            break
    assert_same(op(a, b), want)
    with pytest.raises(AssertionError):
        assert_same(op(a, b), flip_one(want))
    bad = object.__new__(Poly)
    bad.n, bad.terms = 1, {(0,): Fraction(4, 2)}
    with pytest.raises(AssertionError):
        assert_int_first(bad)
    bad.terms = {(0,): 0}
    with pytest.raises(AssertionError):
        assert_int_first(bad)
    empty = PolyVector(1)
    empty.terms = {(): Poly(1)}
    with pytest.raises(AssertionError):
        assert_int_first(empty)


def form(r: random.Random, n: int) -> DiffForm:
    return polyvector(r, n, DiffForm)


def cochain(r: random.Random, m: int, n: int, value) -> Cochain:
    """One to three terms of mixed exterior degree over dim_g = m, each
    value a mixed-degree sum from value(r, n)."""
    keys = [k for p in range(m + 1) for k in combinations(range(m), p)]
    return Cochain(m, {r.choice(keys): value(r, n) for _ in range(r.randint(1, 3))})


def _reference(ext, exponent):
    """ext_bilinear_reference over the value product of ext at degree 0."""
    return lambda a, b: ext_bilinear_reference(a, b, partial(at0, ext), exponent)


# name: (operation, reference, value maker of the first operand, of the second)
EXTENSIONS = {
    "ext_pv_wedge": (ext_pv_wedge, _reference(ext_pv_wedge, lambda q1, p2: (q1 + 1) * p2),
                     polyvector, polyvector),
    "ext_schouten": (ext_schouten, _reference(ext_schouten, lambda q1, p2: q1 * p2),
                     polyvector, polyvector),
    "mixed_mul": (mixed_mul, _reference(ext_pv_wedge, lambda k1, p2: k1 * p2), form, form),
    "ext_cup": (ext_cup, _reference(ext_cup, lambda q1, p2: (q1 + 1) * p2), diffop, diffop),
    "ext_gerstenhaber": (ext_gerstenhaber, _reference(ext_gerstenhaber, lambda q1, p2: q1 * p2),
                         diffop, diffop),
    "contract": (contract, contract_reference, form, polyvector),
}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extension_matches_reference(name):
    op, ref, make_a, make_b = EXTENSIONS[name]
    r = random.Random(59)
    nonzero = integral = 0
    for _ in range(120):
        m, n = r.randint(2, 3), r.randint(1, 2)
        a, b, c = cochain(r, m, n, make_a), cochain(r, m, n, make_b), cochain(r, m, n, make_b)
        got = op(a, b)
        assert_same(got, ref(a, b))
        # linearity in the second slot, through sums that cancel
        b2 = b.scale(Fraction(-1, 2)) + c
        assert_same(op(a, b + b2), got + op(a, b2))
        nonzero += not got.is_zero()
        integral += any(type(x) is int for v in got.terms.values()
                        for p in v.terms.values() for x in p.terms.values())
    assert nonzero > 40 and integral > 20


def test_extensions_cancel_to_zero():
    n = 2
    x, y = Poly.var(n, 0).scale(Fraction(1, 2)), Poly.var(n, 1).scale(Fraction(3, 2))
    v = Cochain(2, {(): PolyVector.vector_field([x, y])})
    assert ext_pv_wedge(v, v).is_zero() and ext_schouten(v, v).is_zero()
    dv = v.map_values(PolyDiffOp.from_vector_field)
    assert ext_gerstenhaber(dv, dv).is_zero()
    theta = Cochain(2, {(): DiffForm(n, {(0,): x, (1,): y})})
    assert mixed_mul(theta, theta).is_zero()
    assert contract(theta, Cochain(2, {(1,): PolyVector.function(x)})).is_zero()
    # quarters that cancel to an int: -(x/2 (7/2)y - (3/2)y x/2) = -xy, Koszul sign -1
    w = Cochain(2, {(0,): PolyVector.vector_field([x, Poly.var(n, 1).scale(Fraction(7, 2))])})
    got = ext_pv_wedge(v, w)
    assert_int_first(got)
    assert got.terms[(0,)].terms[(0, 1)].terms == {(1, 1): -1}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_flipped_operand_changes_the_extension(name):
    """Negative control: a sign flipped in one operand must change the
    result and trip the comparison."""
    op, ref, make_a, make_b = EXTENSIONS[name]
    r = random.Random(61)
    for _ in range(200):
        a, b = cochain(r, 2, 2, make_a), cochain(r, 2, 2, make_b)
        if ref(flip_one(a), b) != ref(a, b):
            break
    else:
        pytest.fail("no operand pair where a flipped sign shows")
    assert op(flip_one(a), b) != op(a, b)
    with pytest.raises(AssertionError):
        assert_same(op(flip_one(a), b), ref(a, b))


def test_subtraction_is_addition_of_the_negative():
    r = random.Random(67)
    for _ in range(200):
        n = r.randint(1, 3)
        p, q = half_poly(r, n), half_poly(r, n)
        for a, b in ((p, q), (p, p.scale(Fraction(1, 2)) + q), (p, p)):
            assert_same(a - b, a + (-b))
        a, b = cochain(r, 2, n, polyvector), cochain(r, 2, n, polyvector)
        for x, y in ((a, b), (a, a.scale(Fraction(-1, 2)) + b), (a, a)):
            assert_same(x - y, x + (-y))
    assert (p - p).is_zero() and (a - a).is_zero()


def test_identity_scale_returns_the_value():
    r = random.Random(71)
    for x in (half_poly(r, 2), polyvector(r, 2), cochain(r, 2, 2, diffop)):
        assert x.scale(1) is x and x.scale(Fraction(2, 2)) is x
        assert x.scale(-1).scale(-1) == x and x.scale(-1) is not x


def test_interior_kernel_signs():
    """contract_reference shares the interior kernel, so its signs are
    pinned by hand: dx^i hops over the slots before d_i."""
    one = Poly.const(3, 1)
    dxyz = PolyVector(3, {(0, 1, 2): one})
    assert at0(contract, DiffForm(3, {(1,): one}), dxyz) == PolyVector(3, {(0, 2): -one})
    assert at0(contract, DiffForm(3, {(2,): one}), dxyz) == PolyVector(3, {(0, 1): one})
    assert at0(contract, DiffForm(3, {(0, 2): one}), dxyz) == PolyVector(3, {(1,): -one})
    # the shuffle of e_1 past e_0, the Koszul sign of dy past e^0 and the
    # hop of dy past d_x: -d_x ^ d_z
    got = contract(Cochain(2, {(1,): DiffForm(3, {(1,): one})}), Cochain(2, {(0,): dxyz}))
    assert got == Cochain(2, {(0, 1): PolyVector(3, {(0, 2): -one})})


def raw_diffop(n: int, acc: dict) -> PolyDiffOp:
    """The operator of raw term maps, after checking that they hold no
    zero and no integral Fraction."""
    for slots, t in acc.items():
        for e, c in t.items():
            assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)), \
                (slots, e, c)
    return PolyDiffOp(n, polys(n, acc))


def raw_pv(pv: PolyVector) -> dict:
    """The raw map (coordinate tuple -> term map) that hkr_terms reads."""
    return {idx: p.terms for idx, p in pv.terms.items()}


@pytest.mark.parametrize("f", [1, -1, Fraction(1, 2), 3])
def test_hkr_kernel_matches_reference(f):
    """hkr_terms(acc, n, pv, f) adds f * hkr(pv) into raw term maps, on top
    of what acc holds, on polyvectors of tensor degree 0-3 in 1-3
    coordinates; adding the same with -f cancels to nothing."""
    r = random.Random(73)
    degrees = set()
    for _ in range(150):
        n = r.randint(1, 3)
        pv, pv2 = polyvector(r, n), polyvector(r, n)
        degrees |= {len(idx) for idx in pv.terms}
        assert_same(hkr(pv), hkr_reference(pv))
        acc = hkr_terms({}, n, raw_pv(pv), f)
        assert_same(raw_diffop(n, acc), hkr_reference(pv).scale(f))
        assert hkr_terms(acc, n, raw_pv(pv2), f) is acc
        assert_same(raw_diffop(n, acc), (hkr_reference(pv) + hkr_reference(pv2)).scale(f))
        hkr_terms(acc, n, raw_pv(pv), -f)
        hkr_terms(acc, n, raw_pv(pv2), -f)
        assert not any(acc.values())
    assert degrees == {0, 1, 2, 3}


def test_hkr_kernel_sums_to_int():
    """Two halves of x d_x ^ d_y sum to integers, stored as int; adding
    the negative drops every coefficient."""
    x = Poly.var(2, 0)
    pv = PolyVector(2, {(0, 1): x.scale(2)})
    acc = hkr_terms(hkr_terms({}, 2, raw_pv(pv), Fraction(1, 2)), 2, raw_pv(pv), Fraction(1, 2))
    assert acc == {((1, 0), (0, 1)): {(1, 0): 1}, ((0, 1), (1, 0)): {(1, 0): -1}}
    assert all(type(c) is int for t in acc.values() for c in t.values())
    hkr_terms(acc, 2, raw_pv(pv), -1)
    assert acc == {((1, 0), (0, 1)): {}, ((0, 1), (1, 0)): {}}


def test_hkr_kernel_takes_raw_zero_entries():
    """A raw polyvector map may hold zero coefficients, as the sums of
    ext_pv_wedge and ext_schouten into a raw map do: a zero entry adds
    nothing, also at an exponent the target lacks, and the result equals
    hkr of the map with its zeros dropped."""
    r = random.Random(83)
    for _ in range(100):
        n = r.randint(1, 3)
        pv, pv2 = polyvector(r, n), polyvector(r, n)
        # zero entries first: at (3, .., 3), which no operand holds, and at
        # a random exponent of degree <= 2 unless pv2 holds it
        zeros = {idx: {(3,) * n: 0, **{tuple(r.randint(0, 2) for _ in range(n)): 0}, **t}
                 for idx, t in raw_pv(pv2).items()}
        acc = hkr_terms(hkr_terms({}, n, raw_pv(pv), 1), n, zeros, 1)
        assert_same(raw_diffop(n, acc), hkr_reference(pv) + hkr_reference(pv2))
    x = Poly.var(1, 0)
    acc = hkr_terms({}, 1, {(0,): {(1,): 0, (0,): 0}}, 1)
    assert acc == {((1,),): {}}
    acc = hkr_terms(hkr_terms({}, 1, raw_pv(PolyVector(1, {(0,): x})), 1), 1,
                    {(0,): {(1,): 0, (2,): 0}}, -1)
    assert acc == {((1,),): {(1,): 1}}


def test_hkr_kernel_dropped_factorial_fails():
    """Negative control: a reference without the factor 1/k! disagrees
    with the kernel on every term of tensor degree 2 or more."""
    r = random.Random(79)
    checked = 0
    for _ in range(100):
        n = r.randint(2, 3)
        pv = polyvector(r, n)
        if max(map(len, pv.terms), default=0) < 2:
            continue
        with pytest.raises(AssertionError):
            assert_same(raw_diffop(n, hkr_terms({}, n, raw_pv(pv), 1)),
                        hkr_reference(pv, factor=lambda k: 1))
        checked += 1
    assert checked > 30


def end_tensor(r: random.Random, n: int) -> EndTensor:
    return EndTensor(n, {tuple(r.randrange(n) for _ in range(3)): half_poly(r, n)
                         for _ in range(r.randint(1, 3))})


# [e0, e1] = e1, [e0, e2] = e2 acting on R^2 by E, xE and yE, E the Euler
# field: not unimodular, so d_Lambda is nonzero on Lambda^2 g-dual, where
# the bundled algebras and the two-generator family have none.
BOOK = {"dim_g": 3, "dim_m": 2, "coordinate_weights": [1, 1],
        "structure_constants": [[0, 1, [[1, "1"]]], [0, 2, [[2, "1"]]]],
        "action": [[[[1, 0, "1"]], [[0, 1, "1"]]], [[[2, 0, "1"]], [[1, 1, "1"]]],
                   [[[1, 1, "1"]], [[0, 2, "1"]]]],
        "caps": {"max_weight": 2, "max_order": 2, "max_arity": 3}}


def scenario(name: str):
    if name == "two_generator":
        return load_scenario(two_generator_doc(2, [1, 2], "1/2", "-1", "1/2",
                                               {"max_weight": 2, "max_order": 2, "max_arity": 3}))
    if name == "book":
        return load_scenario(BOOK)
    return bundled(name)


def differentials(s) -> dict:
    """side: (differential, reference, value maker, cochains drawn)."""
    return {
        "tpoly": (side_differential(s, "tpoly"),
                  lambda c: ce_differential_reference(s.lie, c, on_polyvectors_reference(s)),
                  polyvector, 100),
        "dpoly": (side_differential(s, "dpoly"),
                  lambda c: total_differential_reference(
                      s.lie, c, on_dpoly_reference(s),
                      partial(at0, ext_gerstenhaber, PolyDiffOp.multiplication(s.n))),
                  diffop, 100),
        "end": (lambda c: differential(s.lie, action_cochain(s), c, _lie_end),
                lambda c: end_differential_reference(s, c), end_tensor, 40),
    }


@pytest.mark.parametrize("name", ["paper_sec4", "sl2_linear", "abelian_trivial",
                                  "two_generator", "book"])
def test_differential_matches_reference(name):
    """[q, -] + d_Lambda equals the Chevalley-Eilenberg differential walked
    tuple by tuple (plus (-1)^p id (x) d_H on the operator side) on seeded
    random cochains of mixed degree, for polyvector, operator and
    End-valued values; only a zero action may give zero throughout."""
    s = scenario(name)
    r = random.Random(83)
    for side, (d, ref, make, count) in differentials(s).items():
        nonzero = 0
        for _ in range(count):
            c = cochain(r, s.dim_g, s.n, make)
            got = d(c)
            assert_same(got, ref(c))
            nonzero += not got.is_zero()
        assert nonzero or (side != "dpoly" and action_cochain(s).is_zero()), side


def test_differential_controls_fail(sl2):
    """Negative controls on sl2_linear: the operator q without m, and the
    bracket with q without d_Lambda, disagree with the reference."""
    q = action_cochain(sl2)
    q_ops = q.map_values(PolyDiffOp.from_vector_field)
    m = Cochain(sl2.dim_g, {(): PolyDiffOp.multiplication(sl2.n)})
    refs = differentials(sl2)
    controls = [
        ("dpoly", lambda c: differential(sl2.lie, q_ops, c, _gerstenhaber)),
        ("tpoly", lambda c: ext_schouten(q, c)),
        ("dpoly", lambda c: ext_gerstenhaber(q_ops + m, c)),
    ]
    for side, bad in controls:
        _, ref, make, count = refs[side]
        r = random.Random(89)
        with pytest.raises(AssertionError):
            for _ in range(count):
                c = cochain(r, sl2.dim_g, sl2.n, make)
                assert_same(bad(c), ref(c))
