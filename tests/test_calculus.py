import random
from fractions import Fraction

from gman.calculus import (DiffForm, PolyVector, contract, interior_form,
                           mixed_mul, mixed_unit, pv_wedge, schouten)
from gman.checks import Sampler, tpoly_axiom_checks
from gman.liealg import Cochain
from gman.poly import Poly
from gman.scenario import load_scenario, vf_bracket

from conftest import bundled_doc

rng = random.Random(3)
SL2 = load_scenario(bundled_doc("sl2_linear"))
smp = Sampler(SL2, rng)


def test_schouten_on_generators():
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    q = PolyVector.vector_field([x * x, Poly.zero(n)])
    f = PolyVector.function(x * y)
    # vector field on function = directional derivative
    assert schouten(q, f) == PolyVector.function(x * x * y)
    # vector fields close under the commutator
    for _ in range(30):
        v1 = PolyVector.vector_field([smp.poly(), smp.poly()])
        v2 = PolyVector.vector_field([smp.poly(), smp.poly()])
        assert schouten(v1, v2) == vf_bracket(v1, v2)


def test_schouten_graded_identities_value_level():
    n = 2
    for _ in range(200):
        qa, qb, qc = (rng.randint(-1, n - 1) for _ in range(3))
        p, q, r = smp.polyvector(qa), smp.polyvector(qb), smp.polyvector(qc)
        anti = schouten(p, q) + schouten(q, p).scale((-1) ** (qa * qb))
        assert anti.is_zero()
        jac = schouten(p, schouten(q, r)) - schouten(schouten(p, q), r) \
            - schouten(q, schouten(p, r)).scale((-1) ** (qa * qb))
        assert jac.is_zero()
        lei = schouten(p, pv_wedge(q, r)) - pv_wedge(schouten(p, q), r) \
            - pv_wedge(q, schouten(p, r)).scale((-1) ** (qa * (qb + 1)))
        assert lei.is_zero()


def test_wedge_graded_commutative():
    for _ in range(100):
        qa, qb = rng.randint(-1, 1), rng.randint(-1, 1)
        a, b = smp.polyvector(qa), smp.polyvector(qb)
        swap = pv_wedge(b, a).scale((-1) ** ((qa + 1) * (qb + 1)))
        assert pv_wedge(a, b) == swap


def test_ext_level_lemma_suite():
    report = tpoly_axiom_checks(SL2, cases=60, seed=42)
    assert report["failures"] == []
    assert report["passed"] == 60


def test_interior_products():
    n = 2
    x = Poly.var(n, 0)
    v = PolyVector(n, {(0, 1): Poly.const(n, 1)})  # d_x ^ d_y
    omega = DiffForm(n, {(0,): Poly.const(n, 1)})
    # contracting d_x ^ d_y with dx eats the leftmost slot
    assert interior_form(omega, v) == PolyVector(n, {(1,): Poly.const(n, 1)})
    assert interior_form(DiffForm.function(x), v) == PolyVector(n, {(0, 1): x})


def test_contract_is_module_action():
    m, n = SL2.dim_g, SL2.n
    for _ in range(60):
        k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
        i1 = tuple(sorted(rng.sample(range(m), k1)))
        t1 = tuple(sorted(rng.sample(range(n), k1)))
        i2 = tuple(sorted(rng.sample(range(m), k2)))
        t2 = tuple(sorted(rng.sample(range(n), k2)))
        e1 = Cochain(m, {i1: DiffForm(n, {t1: smp.poly(1)})})
        e2 = Cochain(m, {i2: DiffForm(n, {t2: smp.poly(1)})})
        a = smp.cochain_pv(rng.randint(0, 2), rng.randint(-1, n - 1))
        assert contract(e1, contract(e2, a)) == contract(mixed_mul(e1, e2), a)
        assert contract(mixed_unit(m, n), a) == a
