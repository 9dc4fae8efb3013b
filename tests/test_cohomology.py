import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gman.cohomology import (SIDES, Workspace, basis_cochain, cochain_coords,
                             cohomology_report, duflo_check, enumerate_slice,
                             hkr_check, stable_degree_max, weight_window)
from gman.scenario import Caps


def test_enumerate_slice_paper_examples(paper):
    # (w=0, p=0, q=-1): just the constant function
    assert enumerate_slice(paper, "tpoly", 0, 0, -1) == [((), (), (0,))]
    # (w, p=1, q=0): dimension 1 for each w >= 0
    for w in range(0, 7):
        assert len(enumerate_slice(paper, "tpoly", w, 1, 0)) == 1
    # negative target weight gives the empty slice
    assert enumerate_slice(paper, "tpoly", -3, 0, -1) == []


def test_enumerate_slice_dpoly_counting(paper):
    """Cross-check the operator-side count with a brute-force product."""
    w, p, q = 1, 0, 1  # biderivations
    got = enumerate_slice(paper, "dpoly", w, p, q)
    brute = 0
    for b1 in range(paper.caps.max_order + 1):
        for b2 in range(paper.caps.max_order + 1 - b1):
            alpha = w + b1 + b2  # required monomial weight, one coordinate
            if alpha >= 0:
                brute += 1
    assert len(got) == brute
    assert len(set(got)) == len(got)


def test_enumeration_order_is_stable(sl2):
    a = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    b = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    assert a == b


def test_differential_squares_to_zero_on_random_basis(paper, sl2):
    rng = random.Random(31)
    for s in (paper, sl2):
        for side in ("tpoly", "dpoly"):
            ws = Workspace(s, side)
            for _ in range(20):
                w = rng.choice(weight_window(s))
                k = rng.randint(-1, stable_degree_max(s, side))
                basis = ws.basis(w, k)
                if not basis:
                    continue
                elt = rng.choice(basis)
                image = ws._diff(ws._diff(basis_cochain(s, side, elt)))
                assert image.is_zero()


def test_paper_cohomology_dimensions(paper):
    """Hand-checked table for Q = x^2 d_x: one class in each of six slices."""
    rep = cohomology_report(paper, "tpoly")
    nonzero = {(e["weight"], e["total_degree"]): e["dim_H"]
               for e in rep["slices"] if e["dim_H"]}
    assert nonzero == {(-2, 1): 1, (-1, 0): 1, (0, -1): 1,
                       (0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert rep["all_stable"]


def test_paper_hkr_match(paper):
    hc = hkr_check(paper)
    assert hc["dimensions_match"]
    assert hc["hkr_injective_on_H"]
    assert hc["mismatches"] == []


def test_abelian_zero_action_cohomology(abelian):
    """Zero action, zero differential on the polyvector side: H = C."""
    ws = Workspace(abelian, "tpoly")
    for w in weight_window(abelian):
        for k in range(-1, stable_degree_max(abelian, "tpoly") + 1):
            assert ws.rank(w, k) == 0
            assert ws.dim_h(w, k) == len(ws.basis(w, k))


def test_abelian_hkr_and_duflo(abelian):
    hc = hkr_check(abelian)
    assert hc["dimensions_match"]
    dc = duflo_check(abelian, sample_cap=120)
    assert dc["all_reduce"]


def test_representatives_are_cocycles(paper):
    ws = Workspace(paper, "tpoly")
    found = 0
    for w in weight_window(paper):
        for k in range(-1, stable_degree_max(paper, "tpoly") + 1):
            for rep in ws.representatives(w, k):
                assert ws._diff(rep).is_zero()
                found += 1
    assert found == 6


def test_duflo_paper_flagship(paper):
    dc = duflo_check(paper)
    assert dc["classes"] == 6
    assert not dc["sampled"]
    assert dc["all_reduce"], dc["failures"]


def test_duflo_sampling_is_seeded(paper):
    a = duflo_check(paper, seed=3, sample_cap=5)
    b = duflo_check(paper, seed=3, sample_cap=5)
    assert a == b
    assert a["sampled"] and a["pairs_checked"] == 5


def test_cochain_coords_roundtrip(sl2):
    basis = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    elt = basis[0]
    coords = cochain_coords(basis_cochain(sl2, "tpoly", elt))
    assert coords == {elt: 1}


def test_duflo_twists_share_echelons_and_representatives(paper, monkeypatch):
    """The hkr_only pass after the td_sqrt pass reuses every cached
    representative and echelon: nothing is recomputed or rebuilt."""
    tp, dp = Workspace(paper, "tpoly"), Workspace(paper, "dpoly")
    twisted = duflo_check(paper, tp=tp, dp=dp)
    cached = [dict(tp._reps), dict(tp._echelons), dict(dp._echelons)]
    built = []
    columns = Workspace.columns
    monkeypatch.setattr(Workspace, "columns",
                        lambda ws, w, k: built.append((ws.side, w, k)) or columns(ws, w, k))
    plain = duflo_check(paper, use_todd=False, tp=tp, dp=dp)
    assert built == []
    for before, after in zip(cached, [tp._reps, tp._echelons, dp._echelons]):
        assert before.keys() == after.keys()
        assert all(after[key] is value for key, value in before.items())
    assert twisted["classes"] == plain["classes"] == 6
    assert twisted["all_reduce"] and plain["all_reduce"]


def with_caps(s, w, o, a):
    return replace(s, caps=Caps(w, o, a, s.caps.max_ce_degree))


@pytest.mark.parametrize("caps", [None, (1, 3, 3), (1, 1, 3)])
def test_order_audit_matches_fresh_workspace(paper, sl2, caps):
    """The audit extends each slice's own echelon by the basis elements
    of order max_order + 1; its verdict on every operator slice equals
    one from a fresh workspace whose order cap is one higher."""
    s = paper if caps is None else with_caps(sl2, *caps)
    c = s.caps
    ref = Workspace(with_caps(s, c.max_weight, c.max_order + 1, c.max_arity), "dpoly")
    for e in cohomology_report(s, "dpoly")["slices"]:
        assert e["stable"] == (ref.dim_h(e["weight"], e["total_degree"]) == e["dim_H"])


def test_order_audit_flags_truncated_slice(sl2):
    """Negative control: at order cap 1 the sl2 slice (w -2, k 1) changes
    one order up, and the audit says so."""
    s = with_caps(sl2, 1, 1, 3)
    rep = cohomology_report(s, "dpoly")
    stable = {(e["weight"], e["total_degree"]): e["stable"] for e in rep["slices"]}
    assert stable[(-2, 1)] is False
    assert not rep["all_stable"]
    assert cohomology_report(s, "tpoly")["all_stable"]


def test_kernels_tracked_on_tpoly_only(paper):
    tp, dp = Workspace(paper, "tpoly"), Workspace(paper, "dpoly")
    cohomology_report(paper, "dpoly", workspace=dp)
    hkr_check(paper, tp=tp, dp=dp)
    assert tp._echelons and all(red.track for red in tp._echelons.values())
    assert dp._echelons and not any(red.track or red.combos or red.kernel
                                    for red in dp._echelons.values())
    with pytest.raises(ValueError, match="tpoly"):
        dp.representatives(0, 0)


@pytest.mark.parametrize("name, caps", [("paper", None), ("sl2", (1, 1, 3)), ("abelian", None)])
@pytest.mark.parametrize("side", SIDES)
def test_compiled_columns_equal_symbolic(request, name, caps, side):
    """Every column the workspace builds from its unit generators, over
    every slice and the order-(N+1) extras of the audit, equals the
    symbolic differential of the basis element."""
    s = request.getfixturevalue(name)
    s = s if caps is None else with_caps(s, *caps)
    ws = Workspace(s, side)
    checked = 0
    for w in weight_window(s):
        for k in range(-1, stable_degree_max(s, side) + 1):
            for elt in ws._enumerate(w, k, s.caps.max_order + 1):
                assert ws.image_coords(elt) == cochain_coords(
                    ws._diff(basis_cochain(s, side, elt))), elt
                checked += 1
    assert checked > len(ws._units)


@pytest.fixture(scope="module")
def workspaces(paper, sl2, abelian):
    return [Workspace(s, side) for s in (paper, with_caps(sl2, 1, 1, 3), abelian)
            for side in SIDES]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_compiled_differential_squares_to_zero(workspaces, data):
    """d(d(x^e e_I (x) V)) = 0 on compiled columns, applied by linearity
    over keys that may lie outside the basis: any monomial x^e, images of
    higher arity, order or exterior degree than the caps allow."""
    ws = data.draw(st.sampled_from(workspaces))
    s = ws.s
    w = data.draw(st.sampled_from(weight_window(s)))
    k = data.draw(st.integers(-1, stable_degree_max(s, ws.side)))
    basis = ws.basis(w, k)
    assume(basis)
    idx, mid, _ = data.draw(st.sampled_from(basis))
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * s.n))
    twice: dict = {}
    for key, c in ws.image_coords((idx, mid, exps)).items():
        for key2, c2 in ws.image_coords(key).items():
            twice[key2] = twice.get(key2, 0) + c * c2
    assert not any(twice.values())


def test_one_symbolic_differential_per_generator(paper):
    """The symbolic differential runs once per unit generator (I, V) of
    the bases the report builds, order-(N+1) extras included, and not
    once per basis element."""
    ws = Workspace(paper, "dpoly")
    calls = []
    diff = ws._diff
    ws._diff = lambda c: calls.append(c) or diff(c)
    cohomology_report(paper, "dpoly", workspace=ws)
    built = [e for w, k in ws._bases for e in ws._enumerate(w, k, ws.max_order + 1)]
    generators = {(idx, mid) for idx, mid, _ in built}
    assert len(calls) == len(generators) < len(built)
