import random
from fractions import Fraction

import pytest
import sympy

from gman import linalg
from gman.linalg import ColumnReducer, label_row

from conftest import ReducerReference

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


def labelled(col: dict, u: int) -> dict:
    return {**col, label_row(u): 1}


def solve(cols: list[dict], target: dict) -> dict | None:
    """target as a combination of cols, read from the kernel vector that
    the target leaves when labelled after them; None if independent."""
    red = ColumnReducer()
    for u, c in enumerate(cols):
        red.insert(labelled(c, u))
    if red.insert(labelled(target, len(cols))):
        return None
    vec = dict(red.kernel[-1])
    lam = vec.pop(label_row(len(cols)))
    return {label_row(r): Fraction(-v, lam) for r, v in vec.items()}


def test_label_rows_are_negative_and_invert():
    assert [label_row(u) for u in range(3)] == [-1, -2, -3]
    assert all(label_row(label_row(u)) == u for u in range(5))


def test_kernel_combinations_are_kernel_vectors():
    for _ in range(25):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 8)
        cols = rand_columns(nrows, ncols)
        red = ColumnReducer()
        for u, c in enumerate(cols):
            red.insert(labelled(c, u))
        assert len(red.kernel) == ncols - red.rank
        for vec in red.kernel:
            assert vec and max(vec) < 0
            acc = {}
            for r, coeff in vec.items():
                for row, v in cols[label_row(r)].items():
                    acc[row] = acc.get(row, 0) + coeff * v
            assert all(v == 0 for v in acc.values())


def test_membership_and_solve():
    cols = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    red = ColumnReducer()
    for c in cols:
        red.insert(dict(c))
    target = {0: 3, 1: 4, 2: -2}  # 3*c0 - 2*c1
    assert solve(cols, target) == {0: Fraction(3), 1: Fraction(-2)}
    assert red.contains(target)
    assert not red.contains({2: 1, 0: 1})
    assert solve(cols, {0: 0, 2: 5}) is None


def test_copy_extends_without_touching_the_original():
    red = ColumnReducer()
    red.insert(labelled({0: 1, 1: 2}, 0))
    red.insert(labelled({0: 2, 1: 4}, 1))
    ext = red.copy()
    assert ext.pivots == red.pivots and ext.kernel == [] and len(red.kernel) == 1
    assert ext.insert({1: 1, 2: 1}) and not ext.insert({0: 1, 1: 3, 2: 1})
    assert ext.rank == 2 and red.rank == 1 and len(red.kernel) == 1
    assert not red.contains({1: 1, 2: 1})


def test_labelled_echelon_judges_matrix_rows_only():
    """Against labelled pivots a bare column picks up label rows as it
    reduces; contains and insert look at its matrix rows alone."""
    red = ColumnReducer()
    for u, c in enumerate([{0: 1, 1: 2}, {1: 1, 2: 1}]):
        red.insert(labelled(c, u))
    inside = {0: 3, 1: 4, 2: -2}
    assert red.reduce(inside) and max(red.reduce(inside)) < 0
    assert red.contains(inside)
    ext = red.copy()
    assert not ext.insert(inside) and ext.rank == 2
    assert not red.contains({2: 1, 0: 1})
    assert ext.insert({2: 1, 0: 1}) and ext.rank == 3


def test_solve_randomized():
    for _ in range(30):
        nrows, ncols = rng.randint(2, 7), rng.randint(1, 6)
        cols = rand_columns(nrows, ncols, density=0.6)
        coeffs = {u: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for u in range(ncols)}
        target = {}
        for u, k in coeffs.items():
            for r, v in cols[u].items():
                target[r] = target.get(r, Fraction(0)) + k * v
        target = {r: v for r, v in target.items() if v}
        sol = solve(cols, target)
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
    assert red.reduce({0: Fraction(2, 3), 1: Fraction(-4, 3)}) == {0: 1, 1: -2}
    assert red.reduce({}) == {}
    assert red.reduce({0: Fraction(0)}) == {}
    # label rows are cleared and divided with the matrix rows
    assert red.reduce({0: Fraction(2, 3), label_row(0): 2}) == {0: 1, label_row(0): 3}


def test_fraction_entries_accepted():
    red = ColumnReducer()
    red.insert({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert red.contains({0: 3, 1: 2})


def test_int_fraction_and_mixed_columns_agree():
    """The same columns as ints, as Fractions of denominator 1 and mixed
    give the same echelon, kernel and solutions, and int pivots; the
    target is labelled last, so its solution is the last kernel vector."""
    for _ in range(30):
        nrows, ncols = rng.randint(2, 7), rng.randint(1, 6)
        cols = rand_columns(nrows, ncols, density=0.6)
        target = {}
        for u, c in enumerate(cols):
            k = rng.randint(-3, 3)
            for r, v in c.items():
                target[r] = target.get(r, 0) + k * v
        target = {r: v for r, v in target.items() if v}
        forms = [
            lambda r, v: v,
            lambda r, v: Fraction(v),
            lambda r, v: Fraction(v) if r % 2 else v,
        ]
        results = []
        for form in forms:
            red = ColumnReducer()
            for u, c in enumerate(cols + [target]):
                red.insert(labelled({r: form(r, v) for r, v in c.items()}, u))
            assert all(type(v) is int for piv in red.pivots.values() for v in piv.values())
            assert red.kernel and label_row(len(cols)) in red.kernel[-1]
            results.append((red.rank, red.pivots, red.kernel))
        assert results[0] == results[1] == results[2]


def test_int_columns_skip_denominator_clearing(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("an all-int column was converted to Fraction")

    red = ColumnReducer()
    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert red.insert({0: 2, 1: 4, 2: 0})
    assert red.pivots == {1: {0: 1, 1: 2}}
    assert red.contains({0: -3, 1: -6})
    assert not red.insert(labelled({0: 1, 1: 2}, 0)) and red.kernel == [{label_row(0): 1}]
    with pytest.raises(AssertionError):
        red.insert({0: Fraction(1, 2)})


def random_column(rng, nrows: int, labels: int) -> dict:
    """Entries in -9..9 on random matrix rows, now and then times a
    common factor or as Fractions, and labelled by one of the labels."""
    col = {r: v for r in range(nrows) if rng.random() < 0.6 and (v := rng.randint(-9, 9))}
    if rng.random() < 0.3:
        col = {r: 6 * v for r, v in col.items()}
    if rng.random() < 0.3:
        col = {r: Fraction(v, rng.choice([1, 2, 3])) for r, v in col.items()}
    if rng.random() < 0.5:
        col[label_row(rng.randrange(labels))] = rng.choice([1, -2, 3])
    return col


def test_exact_steps_match_the_cross_multiplying_reference():
    """Fed the same int, Fraction, labelled, dependent and repeated
    columns, the reducer and the reference that cross-multiplies at every
    step agree after every insert: equal pivots and kernel vectors, signs
    included, equal reductions and equal membership verdicts.  The
    reference meets negative leads that divide and that do not."""
    rng = random.Random(23)
    ref_steps = []
    for _ in range(150):
        nrows = rng.randint(1, 7)
        red, ref = ColumnReducer(), ReducerReference()
        cols = []
        for _ in range(rng.randint(1, 9)):
            if cols and rng.random() < 0.15:
                col = dict(rng.choice(cols))
            elif len(cols) > 1 and rng.random() < 0.3:
                col = {}
                for c in rng.sample(cols, 2):
                    k = rng.choice([-3, -1, 2, 5])
                    for r, v in c.items():
                        col[r] = col.get(r, 0) + k * v
            else:
                col = random_column(rng, nrows, 4)
            cols.append(col)
            assert red.insert(dict(col)) == ref.insert(dict(col))
            assert red.pivots == ref.pivots and red.kernel == ref.kernel
            probe = random_column(rng, nrows, 4)
            assert red.reduce(dict(probe)) == ref.reduce(dict(probe))
            assert red.contains(dict(probe)) == ref.contains(dict(probe))
        ref_steps += ref.steps
    kinds = {(b < 0, a % b == 0) for a, b in ref_steps}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
