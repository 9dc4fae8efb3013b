"""The shared sparse container under the five value types."""

from fractions import Fraction

import pytest

from gman.atiyah import EndTensor
from gman.calculus import DiffForm, PolyVector
from gman.dpoly import PolyDiffOp
from gman.liealg import Cochain
from gman.poly import Poly, accumulate

N = 2
x, three = Poly.var(N, 0), Poly.const(N, 3)

# type -> (dimension, two keys of different length)
CASES = {
    PolyVector: (N, (0,), (0, 1)),
    DiffForm: (N, (), (1,)),
    PolyDiffOp: (N, ((1, 0),), ((1, 0), (0, 1))),
    EndTensor: (N, (0, 1), (1, 0, 0)),
    Cochain: (3, (2,), (0, 1)),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_sparse_container_laws(cls):
    n, k1, k2 = CASES[cls]
    a = cls(n, {k1: x, k2: Poly.zero(N)})
    assert a.terms == {k1: x}  # zero values are dropped on construction
    b = cls(n, {k1: -x, k2: three})
    assert a + b == cls(n, {k2: three})
    assert (a + b).terms == {k2: three}
    assert a - b == cls(n, {k1: x.scale(2), k2: -three})
    assert (a - a).is_zero() and a - a == cls(n)
    assert -a == a.scale(-1) == cls(n, {k1: -x})
    assert a.scale(0).is_zero()
    assert b.scale(Fraction(1, 3)) == cls(n, {k1: x.scale(Fraction(-1, 3)), k2: Poly.const(N, 1)})
    assert a != cls(n, {k1: three})
    assert cls(n) != cls(n + 1)
    d1, d2 = len(k1) + cls.SHIFT, len(k2) + cls.SHIFT
    assert b.degrees() == {d1, d2}
    assert b.component(d2) == cls(n, {k2: three})
    assert b.component(d1 + 5).is_zero()
    assert [d for d, _ in b.components_by_degree()] == [d1, d2]
    assert b.components_by_degree()[0][1] + b.components_by_degree()[1][1] == b

    acc = {}
    accumulate(acc, "k", a)
    accumulate(acc, "k", cls(n))
    assert acc == {"k": a}
    accumulate(acc, "k", b)
    assert acc == {"k": cls(n, {k2: three})}
    accumulate(acc, "k", cls(n, {k2: -three}))
    assert acc == {}


def test_types_with_equal_terms_differ():
    assert PolyVector(N, {(0,): x}) != DiffForm(N, {(0,): x})


def test_accumulate_poly_values():
    acc = {}
    accumulate(acc, (1,), x)
    accumulate(acc, (1,), Poly.zero(N))
    accumulate(acc, (2,), three)
    accumulate(acc, (1,), -x)
    assert acc == {(2,): three}
