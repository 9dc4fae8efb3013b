import random
from fractions import Fraction

from gman.calculus import PolyVector
from gman.checks import Sampler, dpoly_axiom_checks
from gman.dpoly import (PolyDiffOp, cup, dp_insert, gerstenhaber, hkr,
                        hochschild)
from gman.poly import Poly
from gman.scenario import load_scenario, vf_bracket

from conftest import bundled_doc

rng = random.Random(9)
SL2 = load_scenario(bundled_doc("sl2_linear"))
smp = Sampler(SL2, rng)
N = 2


def test_insert_examples():
    x = Poly.var(N, 0)
    dx = PolyDiffOp(N, {((1, 0),): Poly.const(N, 1)})
    xdx = PolyDiffOp(N, {((1, 0),): x})
    # d_x(x d_x f) = d_x f + x d_x^2 f
    assert dp_insert(dx, 0, xdx) == PolyDiffOp(N, {((2, 0),): x,
                                                   ((1, 0),): Poly.const(N, 1)})
    # Leibniz split of d_x^2 through the product
    dxx = PolyDiffOp(N, {((2, 0),): Poly.const(N, 1)})
    mm = PolyDiffOp.multiplication(N)
    z = (0, 0)
    assert dp_insert(dxx, 0, mm) == PolyDiffOp(N, {
        ((2, 0), z): Poly.const(N, 1),
        ((1, 0), (1, 0)): Poly.const(N, 2),
        (z, (2, 0)): Poly.const(N, 1),
    })


def test_apply():
    x, y = Poly.var(N, 0), Poly.var(N, 1)
    op = PolyDiffOp(N, {((1, 0), (0, 1)): x})
    assert op.apply([x * x, y * y]) == x * (x + x) * (y + y)
    assert PolyDiffOp.function(x).apply([]) == x


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
        anti = gerstenhaber(dk, dl) + gerstenhaber(dl, dk).scale((-1) ** (k * l))
        assert anti.is_zero()
        jac = gerstenhaber(dk, gerstenhaber(dl, de)) \
            - gerstenhaber(gerstenhaber(dk, dl), de) \
            - gerstenhaber(dl, gerstenhaber(dk, de)).scale((-1) ** (k * l))
        assert jac.is_zero()
        assert hochschild(hochschild(dk)).is_zero()


def test_bracket_with_vector_fields_matches_geometry():
    for _ in range(30):
        v1 = PolyVector.vector_field([smp.poly(), smp.poly()])
        v2 = PolyVector.vector_field([smp.poly(), smp.poly()])
        f = smp.poly()
        o1 = PolyDiffOp.from_vector_field(v1)
        assert gerstenhaber(o1, PolyDiffOp.function(f)) \
            == PolyDiffOp.function(v1.apply_to(f))
        assert gerstenhaber(o1, PolyDiffOp.from_vector_field(v2)) \
            == PolyDiffOp.from_vector_field(vf_bracket(v1, v2))


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


def test_cup_concatenates():
    x = Poly.var(N, 0)
    a = PolyDiffOp(N, {((1, 0),): x})
    b = PolyDiffOp(N, {((0, 1),): Poly.const(N, 3)})
    assert cup(a, b) == PolyDiffOp(N, {((1, 0), (0, 1)): x.scale(3)})


def test_ext_level_dgla_suite():
    report = dpoly_axiom_checks(SL2, cases=40, seed=24)
    assert report["failures"] == []
    assert report["passed"] == 40
