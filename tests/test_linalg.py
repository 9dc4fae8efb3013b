import random
from fractions import Fraction

import sympy

from gman.linalg import ColumnReducer

rng = random.Random(17)


def rand_columns(nrows, ncols, density=0.4, lo=-4, hi=4):
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    col[r] = v
        cols.append(col)
    return cols


def to_sympy(cols, nrows):
    return sympy.Matrix(nrows, len(cols),
                        lambda i, j: cols[j].get(i, 0))


def test_rank_against_sympy_oracle():
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        cols = rand_columns(nrows, ncols)
        expected = to_sympy(cols, nrows).rank()
        red = ColumnReducer()
        for c in cols:
            red.insert(dict(c))
        assert red.rank == expected


def test_kernel_combinations_are_kernel_vectors():
    for _ in range(25):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 8)
        cols = rand_columns(nrows, ncols)
        red = ColumnReducer(track=True)
        for u, c in enumerate(cols):
            red.insert(dict(c), label=u)
        assert len(red.kernel) == ncols - red.rank
        for combo in red.kernel:
            acc = {}
            for u, coeff in combo.items():
                for r, v in cols[u].items():
                    acc[r] = acc.get(r, 0) + coeff * v
            assert all(v == 0 for v in acc.values())


def test_membership_and_solve():
    cols = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    red = ColumnReducer(track=True)
    for u, c in enumerate(cols):
        red.insert(dict(c), label=u)
    target = {0: 3, 1: 4, 2: -2}  # 3*c0 - 2*c1
    sol = red.solve(dict(target))
    assert sol == {0: Fraction(3), 1: Fraction(-2)}
    assert red.contains(target)
    assert not red.contains({2: 1, 0: 1})
    assert red.solve({0: 0, 2: 5}) is None


def test_solve_randomized():
    for _ in range(30):
        nrows, ncols = rng.randint(2, 7), rng.randint(1, 6)
        cols = rand_columns(nrows, ncols, density=0.6)
        red = ColumnReducer(track=True)
        for u, c in enumerate(cols):
            red.insert(dict(c), label=u)
        coeffs = {u: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for u in range(ncols)}
        target = {}
        for u, k in coeffs.items():
            for r, v in cols[u].items():
                target[r] = target.get(r, Fraction(0)) + k * v
        target = {r: v for r, v in target.items() if v}
        sol = red.solve(dict(target))
        assert sol is not None
        # verify the solution reproduces the target exactly
        acc = {}
        for u, k in sol.items():
            for r, v in cols[u].items():
                acc[r] = acc.get(r, Fraction(0)) + k * v
        assert {r: v for r, v in acc.items() if v} == target


def test_normalize_column():
    # denominators are cleared and the content divided out on the way in
    red = ColumnReducer()
    assert red.reduce({0: Fraction(2, 3), 1: Fraction(-4, 3)}) == ({0: 1, 1: -2}, None)
    assert red.reduce({}) == ({}, None)
    assert red.reduce({0: Fraction(0)}) == ({}, None)


def test_fraction_entries_accepted():
    red = ColumnReducer()
    red.insert({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert red.contains({0: 3, 1: 2})
