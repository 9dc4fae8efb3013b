import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest

import gman.dpoly as dpoly
import gman.poly as poly
from gman.calculus import PolyVector, ext_bilinear, ext_schouten
from gman.checks import Sampler, dpoly_axiom_checks
from gman.cli import main
from gman.dpoly import (PolyDiffOp, _gerstenhaber, _insert, _split_multiindex, ext_cup,
                        ext_gerstenhaber, hkr)
from gman.liealg import Cochain
from gman.poly import Poly, accumulate, polys
from gman.scenario import load_scenario

from conftest import (at0, bundled_doc, components_by_degree, count_builds, gerstenhaber_reference,
                      mul_reference, partial_multi_reference, vf_apply, vf_bracket)

rng = random.Random(9)
SL2 = load_scenario(bundled_doc("sl2_linear"))
smp = Sampler(SL2, rng)
N = 2


def insert(d1: PolyDiffOp, slot: int, d2: PolyDiffOp) -> PolyDiffOp:
    """d2 substituted into the given slot of every term of d1."""
    acc = {}
    for key1, p1 in d1.terms.items():
        for key2, p2 in d2.terms.items():
            _insert(acc, key1, p1, slot, key2, p2, 1, {}, True)
    return PolyDiffOp(d1.n, polys(d1.n, acc))


def d_h(d: PolyDiffOp) -> PolyDiffOp:
    """The Hochschild differential [m, d], m the multiplication."""
    return at0(ext_gerstenhaber, PolyDiffOp.multiplication(d.n), d)


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
    """The sparse rests, expanded to dense splits, are every split once
    with its multinomial coefficient; a rest lists only nonzero parts,
    in ascending slot order."""
    for n in (1, 2, 3):
        for alpha in product(range(5), repeat=n):
            if sum(alpha) > 4:
                continue
            for parts in (1, 2, 3, 4):
                groups = _split_multiindex(alpha, parts)
                assert type(groups) is tuple
                assert len({first for first, _ in groups}) == len(groups)
                zero, got = (0,) * n, []
                for first, group in groups:
                    for rest, c in group:
                        slots = [j for j, _ in rest]
                        assert slots == sorted(set(slots))
                        assert all(0 <= j < parts - 1 and any(d) for j, d in rest)
                        dense = [zero] * (parts - 1)
                        for j, d in rest:
                            dense[j] = d
                        got.append(((first, *dense), c))
                assert sum(c for _, c in got) == parts ** sum(alpha)
                assert len({split for split, _ in got}) == len(got)
                assert dict(got) == _brute_split(alpha, parts)


def _random_term(r: random.Random, n: int) -> tuple:
    """A key of arity 0-3 with slot orders 0-3, and a nonzero coefficient."""
    key = tuple(tuple(r.randint(0, 3) for _ in range(n)) for _ in range(r.randint(0, 3)))
    key = tuple(b if sum(b) <= 3 else tuple(min(x, 1) for x in b) for b in key)
    coeff = Poly(n, {tuple(r.randint(0, 3) for _ in range(n)): r.choice((1, -2, Fraction(1, 3)))
                     for _ in range(r.randint(1, 3))})
    return key, coeff


def _nonzero(acc: dict) -> dict:
    return {k: z for k, t in acc.items() if (z := {e: c for e, c in t.items() if c})}


def _bracket_pairs(kernel, seed: int = 17, pairs: int = 400) -> list[tuple]:
    """(kernel's raw map, reference's raw map) for random term pairs."""
    r = random.Random(seed)
    out = []
    for _ in range(pairs):
        n = r.randint(1, 3)
        (k1, p1), (k2, p2) = _random_term(r, n), _random_term(r, n)
        f = r.choice((1, -1, Fraction(1, 2), 3))
        got, want = {}, {}
        kernel(got, k1, p1, k2, p2, f)
        gerstenhaber_reference(want, k1, p1, k2, p2, f)
        out.append((got, want))
    return out


def test_grouped_insertion_matches_reference():
    """Per term pair, the grouped kernel adds what one product per split
    added, and first touches the keys whose sum is nonzero in the same
    order, the row order of the operator-side Workspace (``polys`` drops
    zero sums before ``cochain_coords`` reads the rows)."""
    r = random.Random(3)
    seen = set()
    for got, want in _bracket_pairs(_gerstenhaber):
        assert _nonzero(got) == _nonzero(want)
        assert list(_nonzero(got)) == list(_nonzero(want))
        seen.add(len(got))
    assert max(seen) > 10
    for _ in range(60):
        n = r.randint(1, 3)
        a = PolyDiffOp(n, dict(_random_term(r, n) for _ in range(3)))
        b = PolyDiffOp(n, dict(_random_term(r, n) for _ in range(3)))
        assert at0(ext_gerstenhaber, a, b) \
            == at0(ext_bilinear, a, b, gerstenhaber_reference, lambda q1, p2: q1 * p2)
        assert d_h(b) == at0(ext_bilinear, PolyDiffOp.multiplication(n), b,
                             gerstenhaber_reference, lambda q1, p2: q1 * p2)


def _poly(r: random.Random, n: int) -> Poly:
    return Poly(n, {tuple(r.randint(0, 3) for _ in range(n)): r.choice((1, -2, Fraction(1, 3)))
                    for _ in range(r.randint(1, 3))})


def _assert_matches_reference(k1, p1, k2, p2, f) -> tuple[dict, dict]:
    """The raw maps of f [p1 D^k1, p2 D^k2] by the kernel and by the
    reference, checked: equal nonzero sums, first touched in the same
    order, with their exponents."""
    got, want = {}, {}
    _gerstenhaber(got, k1, p1, k2, p2, f)
    gerstenhaber_reference(want, k1, p1, k2, p2, f)
    assert _nonzero(got) == _nonzero(want), (k1, p1, k2, p2)
    assert [(k, list(t)) for k, t in _nonzero(got).items()] \
        == [(k, list(t)) for k, t in _nonzero(want).items()], (k1, p1, k2, p2)
    return got, want


def test_vector_field_rule_matches_reference():
    """With a vector field on either side the order-raising insertions
    cancel between d1 o d2 and d2 o d1, and are not formed."""
    r = random.Random(11)
    skipped = 0
    for _ in range(600):
        n = r.randint(1, 3)
        field = ((poly.unit(n, r.randrange(n)),), _poly(r, n))
        other = _random_term(r, n)
        f = r.choice((1, -1, Fraction(1, 2), 3))
        (k1, p1), (k2, p2) = (field, other) if r.random() < 0.5 else (other, field)
        got, want = _assert_matches_reference(k1, p1, k2, p2, f)
        skipped += len(got) < len(want)
    assert skipped > 300


def _zero_runs(n: int, r: random.Random):
    """Keys with runs of zero slots of every length 0-4 at the start, in
    the middle and at the end, around two nonzero slots; and keys of
    zero slots only."""
    zero = (0,) * n
    for runs in product(range(5), repeat=3):
        slots = [tuple(r.randint(0, 2) for _ in range(n)) for _ in range(2)]
        slots = [b if any(b) else poly.unit(n, 0) for b in slots]
        yield (zero,) * runs[0] + (slots[0],) + (zero,) * runs[1] + (slots[1],) + (zero,) * runs[2]
    for length in range(5):
        yield (zero,) * length


def test_hochschild_rule_matches_reference():
    """[m, D] is d_H D: the proper splits and one key per odd run of zero
    slots, each nonzero sum formed once, so the raw map holds no zero."""
    r = random.Random(13)
    for n in (1, 2, 3):
        zero = (0,) * n
        for key in _zero_runs(n, r):
            m = Poly.const(n, r.choice((1, -2, Fraction(1, 3))))
            got, _ = _assert_matches_reference((zero, zero), m, key, _poly(r, n),
                                               r.choice((1, -1, Fraction(1, 2))))
            assert all(t and all(t.values()) for t in got.values()), key


def test_one_memo_for_both_directions_fails():
    """p1 and p2 swap roles between d1 o d2 and d2 o d1, so a memo kept
    across the two returns products of the wrong pair."""
    def shared(acc, key1, p1, key2, p2, f):
        k, l, memo = len(key1) - 1, len(key2) - 1, {}
        for i in range(k + 1):
            _insert(acc, key1, p1, i, key2, p2, -f if i * l % 2 else f, memo, True)
        for j in range(l + 1):
            _insert(acc, key2, p2, j, key1, p1, f if (k * l + j * k) % 2 else -f, memo, True)

    assert any(_nonzero(got) != _nonzero(want) for got, want in _bracket_pairs(shared))


def test_dropped_multinomial_coefficient_fails(monkeypatch):
    table = _split_multiindex
    monkeypatch.setattr(dpoly, "_split_multiindex", lambda alpha, parts: tuple(
        (first, tuple((rest, 1) for rest, _ in group)) for first, group in table(alpha, parts)))
    assert any(_nonzero(got) != _nonzero(want) for got, want in _bracket_pairs(_gerstenhaber))


def test_axioms_derive_each_product_once(monkeypatch, capsys):
    """On axioms sl2_linear --cases 80 --seed 0 every distinct derivative
    of a term pair's direction is taken and multiplied once, and no
    cancelling group is formed: the ungrouped insertion made 41,523
    addmul and 55,431 derive calls, the grouped one without the rules
    for vector fields and m 12,011 and 19,041."""
    calls = {"addmul": 0, "derive": 0}
    for name in calls:
        fn = getattr(poly, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        for mod in [m for m in sys.modules.values() if getattr(m, name, None) is fn]:
            monkeypatch.setattr(mod, name, counted)
    assert main(["axioms", "sl2_linear", "--cases", "80", "--seed", "0", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"addmul": 7_556, "derive": 13_071}


# The bracket as composed before it worked term by term: components of
# each degree, one whole-operator insertion per slot, sums of operators.
# Kept as an independent oracle for the bracket kernel ``_gerstenhaber``.

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
        got = at0(ext_gerstenhaber, a, b)
        assert got == _old_gerstenhaber(a, b), (a, b)
        nonzero += not got.is_zero()
    assert nonzero > 250


def test_gerstenhaber_builds_one_operator(monkeypatch):
    r = random.Random(5)
    a, b = _random_sum(r, 2), _random_sum(r, 2)
    assert len({len(k) for k in a.terms}) > 1
    built = count_builds(monkeypatch, PolyDiffOp)
    assert not at0(ext_gerstenhaber, a, b).is_zero()
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
    assert d_h(dxx) == PolyDiffOp(N, {((1, 0), (1, 0)): Poly.const(N, -2)})
    # functions and vector fields are closed
    assert d_h(PolyDiffOp.function(x)).is_zero()
    v = PolyVector.vector_field([smp.poly(), smp.poly()])
    assert d_h(PolyDiffOp.from_vector_field(v)).is_zero()
    assert at0(ext_gerstenhaber, PolyDiffOp.multiplication(N),
               PolyDiffOp.multiplication(N)).is_zero()


def test_gerstenhaber_value_level_identities():
    for _ in range(120):
        k, l, e = (rng.randint(-1, 2) for _ in range(3))
        dk, dl, de = smp.diffop(k), smp.diffop(l), smp.diffop(e)
        anti = at0(ext_gerstenhaber, dk, dl) \
            + at0(ext_gerstenhaber, dl, dk).scale(-1 if (k * l) % 2 else 1)
        assert anti.is_zero()
        jac = at0(ext_gerstenhaber, dk, at0(ext_gerstenhaber, dl, de)) \
            - at0(ext_gerstenhaber, at0(ext_gerstenhaber, dk, dl), de) \
            - at0(ext_gerstenhaber, dl, at0(ext_gerstenhaber, dk, de)).scale(
                -1 if (k * l) % 2 else 1)
        assert jac.is_zero()
        assert d_h(d_h(dk)).is_zero()


def test_bracket_with_vector_fields_matches_geometry():
    for _ in range(30):
        v1 = PolyVector.vector_field([smp.poly(), smp.poly()])
        v2 = PolyVector.vector_field([smp.poly(), smp.poly()])
        f = smp.poly()
        o1 = PolyDiffOp.from_vector_field(v1)
        assert at0(ext_gerstenhaber, o1, PolyDiffOp.function(f)) \
            == PolyDiffOp.function(vf_apply(v1, f))
        assert at0(ext_gerstenhaber, o1, PolyDiffOp.from_vector_field(v2)) \
            == PolyDiffOp.from_vector_field(vf_bracket(v1, v2))


@pytest.mark.xfail(strict=True, reason="the two brackets differ in sign on bivector-function "
                   "pairs under hkr; vector-field-function pairs agree")
def test_brackets_agree_under_hkr_on_bivector_and_function():
    """On R^2, [hkr(d_x ^ d_y), hkr(x)] is +D[[0, 1]] while
    hkr([d_x ^ d_y, x]_Schouten) is -D[[0, 1]]."""
    x = PolyVector.function(Poly.var(N, 0))
    dx = PolyVector(N, {(0,): Poly.const(N, 1)})
    assert at0(ext_gerstenhaber, hkr(dx), hkr(x)) == hkr(at0(ext_schouten, dx, x))
    bivector = PolyVector(N, {(0, 1): Poly.const(N, 1)})
    assert at0(ext_gerstenhaber, hkr(bivector), hkr(x)) == hkr(at0(ext_schouten, bivector, x))


def test_hkr_is_closed_and_respects_generators():
    for _ in range(60):
        q = rng.randint(-1, N - 1)
        pv = smp.polyvector(q)
        assert d_h(hkr(pv)).is_zero()
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
    assert d_h(got).is_zero()


def test_cup_concatenates():
    x = Poly.var(N, 0)
    a = PolyDiffOp(N, {((1, 0),): x})
    b = PolyDiffOp(N, {((0, 1),): Poly.const(N, 3)})
    assert at0(ext_cup, a, b) == PolyDiffOp(N, {((1, 0), (0, 1)): x.scale(3)})


def test_ext_level_dgla_suite():
    report = dpoly_axiom_checks(SL2, cases=40, seed=24)
    assert report["failures"] == []
    assert report["passed"] == 40
