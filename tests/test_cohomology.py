import pathlib
import random
from collections import Counter
from functools import cache
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gman import cohomology
from gman.atiyah import todd_sqrt
from gman.calculus import (_interior, add_cochain, contract, ext_bilinear, ext_pv_wedge,
                           ext_schouten, mixed_unit)
from gman.cohomology import (SIDES, Workspace, cochain_coords, cohomology_report,
                             duflo_check, enumerate_slice, hkr_check, residual_coords,
                             side_differential, stable_degree_max, twisted_terms, twisting,
                             weight_window)
from gman.dpoly import ext_cup, ext_gerstenhaber, ext_hkr
from gman.liealg import Cochain, LieAlgebra
from gman.poly import Poly, monomials_of_weight
from gman.scenario import Caps, Scenario, ScenarioError, key_weight, load_scenario

from conftest import (FullWorkspace, basis_cochain, bundled, count_builds,
                      enumerate_slice_reference, hkr_reference, image_coords, is_normalized,
                      morphism_reference, random_connection, residuals_reference,
                      slice_reference, two_generator_doc)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def both_sides(s):
    return Workspace(s, "tpoly"), Workspace(s, "dpoly")


def test_enumerate_slice_paper_examples(paper):
    # (w=0, p=0, q=-1): just the constant function
    assert enumerate_slice(paper, "tpoly", 0, 0, -1) == [((), (), (0,))]
    # (w, p=1, q=0): dimension 1 for each w >= 0
    for w in range(0, 7):
        assert len(enumerate_slice(paper, "tpoly", w, 1, 0)) == 1
    # negative target weight gives the empty slice
    assert enumerate_slice(paper, "tpoly", -3, 0, -1) == []


def test_enumerate_slice_dpoly_counting(paper):
    """Cross-check the operator-side counts with a brute-force product:
    the basis holds the biderivations with both slots of order >= 1, and
    dim_cochains counts those with slots of order 0 as well."""
    w, p, q = 1, 0, 1  # biderivations
    got = enumerate_slice(paper, "dpoly", w, p, q)
    order = paper.caps.max_order
    brute = {lo: sum(w + b1 + b2 >= 0  # required monomial weight, one coordinate
                     for b1 in range(lo, order + 1) for b2 in range(lo, order + 1 - b1))
             for lo in (0, 1)}
    assert len(got) == brute[1] < brute[0]
    assert len(set(got)) == len(got)
    # total degree 1 adds (p 1, q 0): e^0 (x) x^(w + 1 + b) d^b for each order b
    assert Workspace(paper, "dpoly").dim_cochains(w, p + q) == brute[0] + order + 1


def test_enumeration_order_is_stable(sl2):
    a = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    b = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    assert a == b


@pytest.mark.parametrize("name, caps", [("paper", None), ("sl2", (1, 3, 3)), ("abelian", None)])
def test_enumeration_matches_uncached_reference(request, name, caps):
    """Slice bases built from the cached multi-index and monomial tables
    equal the normalized elements of the uncached enumeration, element
    for element and in order: both sides, every (w, p, q) that
    enumerate_slice accepts in the weight window, at the order cap and
    with it raised by one."""
    s = request.getfixturevalue(name)
    s = s if caps is None else with_caps(s, *caps)
    checked = 0
    for side in SIDES:
        qtop = s.n - 1 if side == "tpoly" else s.caps.max_arity
        for w in weight_window(s):
            for p in range(min(s.dim_g, s.caps.max_ce_degree) + 1):
                for q in range(-1, qtop + 1):
                    for order in (s.caps.max_order, s.caps.max_order + 1):
                        at = with_caps(s, s.caps.max_weight, order, s.caps.max_arity)
                        got = enumerate_slice(at, side, w, p, q)
                        assert got == [e for e in enumerate_slice_reference(
                            s, side, w, p, q, order) if is_normalized(side, e)]
                        checked += len(got)
    assert checked


@pytest.mark.parametrize("name, caps", [("paper", None), ("sl2", (1, 3, 3)), ("abelian", None)])
def test_dim_cochains_counts_the_full_basis(request, name, caps):
    """dim_cochains, counted from the normalized mids, is the size of the
    full capped slice of the uncached enumeration, order-0 slots
    included: both sides, every slice of the weight window, at the order
    cap and with it raised by one.  The operator side drops elements."""
    s = request.getfixturevalue(name)
    s = s if caps is None else with_caps(s, *caps)
    dropped = 0
    for order in (s.caps.max_order, s.caps.max_order + 1):
        for side in SIDES:
            ws = Workspace(with_caps(s, s.caps.max_weight, order, s.caps.max_arity), side)
            for w in weight_window(s):
                for k in range(-1, ws.pmax + ws.qmax + 1):
                    full = slice_reference(s, side, w, k, order)
                    assert ws.dim_cochains(w, k) == len(full), (side, w, k)
                    dropped += len(full) - len(ws.basis(w, k))
    assert dropped


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
    rep = cohomology_report(Workspace(paper, "tpoly"))
    nonzero = {(e["weight"], e["total_degree"]): e["dim_H"]
               for e in rep["slices"] if e["dim_H"]}
    assert nonzero == {(-2, 1): 1, (-1, 0): 1, (0, -1): 1,
                       (0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert rep["all_stable"]


def test_paper_hkr_match(paper):
    hc = hkr_check(*both_sides(paper))
    assert hc["dimensions_match"]
    assert hc["hkr_injective_on_H"]
    assert hc["mismatches"] == []


# abelian R^2 acting on R^2 by xE and yE, E = x d_x + y d_y: action weights 1, 1
XE_YE = {"dim_g": 2, "dim_m": 2, "coordinate_weights": [1, 1], "structure_constants": [],
         "action": [[[[2, 0, "1"]], [[1, 1, "1"]]], [[[1, 1, "1"]], [[0, 2, "1"]]]],
         "caps": {"max_weight": 3, "max_order": 3, "max_arity": 4}}


def floor_below(s: Scenario) -> int:
    """A weight below every basis key of s, bounded apart from key_weight:
    a key's monomial weight is at least 0, and what comes off is at most
    every action weight, every coordinate weight and max_arity slots of
    order at most max_order in the heaviest coordinate."""
    return -(sum(map(abs, s.action_weights)) + sum(s.weights)
             + s.caps.max_arity * s.caps.max_order * max(s.weights)) - 1


def slices_below_the_window(s: Scenario, side: str) -> dict:
    """Nonempty slices (w, k) of a side between floor_below and the window."""
    ws = Workspace(s, side)
    return {(side, w, k): len(ws.basis(w, k))
            for w in range(floor_below(s), weight_window(s)[0])
            for k in range(-1, ws.pmax + ws.qmax + 1) if ws.basis(w, k)}


def test_no_slice_below_the_window():
    """On every bundled scenario and on xE, yE, on both sides, every slice
    below the window is empty, and the window starts at the smallest key
    weight.  On xE, yE it starts at -5: the tpoly slice (w -4, k 3), the
    class of e^0 e^1 (x) d_x ^ d_y, lies in it and its report, where a
    window without the action weights, from -3, left it out."""
    scenarios = {name: bundled(name) for name in ("paper_sec4", "sl2_linear", "abelian_trivial")}
    scenarios["xE, yE"] = load_scenario(XE_YE)
    below = {(name, *key): size for name, s in scenarios.items() for side in SIDES
             for key, size in slices_below_the_window(s, side).items()}
    assert below == {}
    assert {name: weight_window(s)[0] for name, s in scenarios.items()} == {
        "paper_sec4": -5, "sl2_linear": -4, "abelian_trivial": -3, "xE, yE": -5}
    xe = scenarios["xE, yE"]
    report = cohomology_report(Workspace(xe, "tpoly"))
    assert {(e["weight"], e["total_degree"]): e["dim_H"] for e in report["slices"]}[-4, 3] == 1
    assert report["window"]["max_total_degree"] == 3
    assert Workspace(xe, "dpoly").basis(-5, 2)  # e^0 e^1 (x) d_y^3, say: the floor is met


def test_abelian_zero_action_cohomology(abelian):
    """Zero action, zero differential on the polyvector side: H = C."""
    ws = Workspace(abelian, "tpoly")
    for w in weight_window(abelian):
        for k in range(-1, stable_degree_max(abelian, "tpoly") + 1):
            assert ws.rank(w, k) == 0
            assert ws.dim_h(w, k) == len(ws.basis(w, k))


def test_abelian_hkr_and_duflo(abelian):
    tp, dp = both_sides(abelian)
    assert hkr_check(tp, dp)["dimensions_match"]
    dc = duflo_check(tp, dp, "td_sqrt", sample_cap=120)
    assert dc["all_reduce"]


def test_hkr_check_sees_one_of_two_classes_map_into_the_image(abelian, monkeypatch):
    """Negative control: abelian slice (0, 0) holds two classes; HKR made
    to send the second to zero, a coboundary, is not injective on H,
    though the first still maps outside the image."""
    tp, dp = both_sides(abelian)
    first, second = tp.representatives(0, 0)
    monkeypatch.setattr(cohomology, "ext_hkr",
                        lambda c: Cochain(c.n, {}) if c is second else ext_hkr(c))
    assert dp.independent_mod_image(0, 0, [cochain_coords(ext_hkr(first))]) == [True]
    match = hkr_check(tp, dp)
    assert match["dimensions_match"]
    assert not match["hkr_injective_on_H"]


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
    tp, dp = both_sides(paper)
    for twist in ("td_sqrt", "hkr_only"):
        dc = duflo_check(tp, dp, twist)
        assert dc["twist"] == twist
        assert dc["classes"] == 6
        assert not dc["sampled"]
        assert dc["all_reduce"], dc["failures"]
    with pytest.raises(ValueError, match="unknown twist"):
        duflo_check(tp, dp, "td")


def test_duflo_sampling_is_seeded(paper):
    a = duflo_check(*both_sides(paper), "td_sqrt", seed=3, sample_cap=5)
    b = duflo_check(*both_sides(paper), "td_sqrt", seed=3, sample_cap=5)
    assert a == b
    assert a["sampled"] and a["pairs_checked"] == 5
    with pytest.raises(ValueError, match="sample_cap must be at least 1"):
        duflo_check(*both_sides(paper), "td_sqrt", sample_cap=0)


def test_cochain_coords_roundtrip(sl2):
    basis = enumerate_slice(sl2, "tpoly", 0, 1, 0)
    elt = basis[0]
    coords = cochain_coords(basis_cochain(sl2, "tpoly", elt))
    assert coords == {elt: 1}


def test_duflo_twists_share_echelons_and_representatives(paper, monkeypatch):
    """The hkr_only pass after the td_sqrt pass reuses every cached
    representative and echelon: nothing is recomputed or rebuilt."""
    tp, dp = both_sides(paper)
    twisted = duflo_check(tp, dp, "td_sqrt")
    cached = [dict(tp._reps), dict(tp._echelons), dict(dp._echelons)]
    built = []
    columns = Workspace.columns
    monkeypatch.setattr(Workspace, "columns",
                        lambda ws, w, k: built.append((ws.side, w, k)) or columns(ws, w, k))
    plain = duflo_check(tp, dp, "hkr_only")
    assert built == []
    for before, after in zip(cached, [tp._reps, tp._echelons, dp._echelons]):
        assert before.keys() == after.keys()
        assert all(after[key] is value for key, value in before.items())
    assert twisted["classes"] == plain["classes"] == 6
    assert twisted["all_reduce"] and plain["all_reduce"]


def test_duflo_maps_each_class_once(paper, monkeypatch):
    """Each twist maps every class once, not once per pair: over both
    twists, for C classes and P pairs, P wedges and P Schouten brackets
    per twist (2P each), the td^{1/2} contraction of each class and of
    each pair's two products (C + 2P), and ext_hkr of each class under
    each twist (2C); hkr of the products goes through hkr_terms into the
    residual coordinates.  td^{1/2} is not the unit on paper_sec4, so
    the count of contractions also shows that the unit skip is not
    taken there."""
    calls = Counter()
    for name in ("ext_schouten", "ext_pv_wedge", "contract", "ext_hkr"):
        fn = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name,
                            lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    tp, dp = both_sides(paper)
    dc = duflo_check(tp, dp, "td_sqrt")
    duflo_check(tp, dp, "hkr_only")
    c, p = dc["classes"], dc["pairs_checked"]
    assert (c, p) == (6, 21)
    assert calls == {"ext_schouten": 2 * p, "ext_pv_wedge": 2 * p,
                     "contract": c + 2 * p, "ext_hkr": 2 * c}


def test_unit_twist_contracts_nothing(abelian, monkeypatch):
    """On abelian_trivial td^{1/2} is the unit mixed form: the td_sqrt
    pass never calls contract, and its report equals the hkr_only one
    but for the twist's name."""
    assert todd_sqrt(abelian) == mixed_unit(abelian.dim_g, abelian.n)
    calls = []
    contract = cohomology.contract
    monkeypatch.setattr(cohomology, "contract", lambda *a: calls.append(a) or contract(*a))
    tp, dp = both_sides(abelian)
    twisted = duflo_check(tp, dp, "td_sqrt", sample_cap=120)
    plain = duflo_check(tp, dp, "hkr_only", sample_cap=120)
    assert calls == []
    assert twisted.pop("twist") == "td_sqrt" and plain.pop("twist") == "hkr_only"
    assert twisted == plain and twisted["pairs_checked"] == 120


def test_duflo_pair_loop_builds_nothing(abelian, monkeypatch):
    """Every residual is summed into raw maps: once the workspaces hold
    every echelon, a pass over 200 pairs builds as many Cochain and Poly
    objects as a pass over one pair (those of todd_sqrt and of mapping
    each class), so the pair loop builds none.  Negative control: with
    ext_cup building its product, each pair adds one Cochain."""
    tp, dp = both_sides(with_caps(abelian, 24, 4, 4))
    duflo_check(tp, dp, "td_sqrt", sample_cap=10**5)  # every echelon, once

    def builds(sample_cap):
        counts = {cls: count_builds(monkeypatch, cls) for cls in (Cochain, Poly)}
        report = duflo_check(tp, dp, "td_sqrt", sample_cap=sample_cap)
        monkeypatch.undo()
        assert report["pairs_checked"] == sample_cap and report["all_reduce"]
        return {cls: len(built) for cls, built in counts.items()}

    one = builds(1)
    assert one[Cochain] and one[Poly]
    assert builds(200) == one
    ext_cup = cohomology.ext_cup
    monkeypatch.setattr(cohomology, "ext_cup",
                        lambda a, b, acc: add_cochain(ext_cup(a, b), acc))
    built = count_builds(monkeypatch, Cochain)
    duflo_check(tp, dp, "td_sqrt", sample_cap=200)
    assert len(built) == one[Cochain] + 200


def duflo_classes(tp):
    """Representatives of every class duflo_check pairs, in its order."""
    s = tp.s
    ktop = min(stable_degree_max(s, "tpoly"), stable_degree_max(s, "dpoly"))
    return [rep for w in weight_window(s) for k in range(-1, ktop + 1)
            for rep in tp.representatives(w, k)]


def assert_int_first_coords(coords: dict) -> None:
    for key, c in coords.items():
        assert c, f"zero coordinate at {key}"
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (key, c)


@pytest.mark.parametrize("twist", ["td_sqrt", "hkr_only", "wrong", "unit"])
@pytest.mark.parametrize("name, caps, sample", [
    ("paper", None, None), ("paper", (2, 1, 2), None), ("sl2", (2, 2, 3), None),
    ("abelian", (24, 4, 4), 200)])
def test_residuals_match_cochain_subtraction(request, monkeypatch, name, caps, sample, twist):
    """The residual coordinates duflo_check reduces, summed into raw maps
    (raw throughout where the twist is the identity), equal those of the
    Cochain subtraction ext_cup(phi a, phi b) - phi(ext_pv_wedge(a, b))
    (and the same for the brackets), phi = hkr o contract(td, -) always
    contracting, under td^{1/2}, under hkr alone, under the wrong twist
    2 * unit and under contraction by the unit, which twisted_terms
    builds and contracts where hkr alone sums raw; every coordinate is
    int-first.  Negative control: the reference with the sign of the hkr
    factor flipped disagrees."""
    s = request.getfixturevalue(name)
    s = s if caps is None else with_caps(s, *caps)
    if twist == "wrong":
        monkeypatch.setattr(cohomology, "todd_sqrt", lambda s: mixed_unit(s.dim_g, s.n).scale(2))
    td = mixed_unit(s.dim_g, s.n) if twist in ("hkr_only", "unit") else cohomology.todd_sqrt(s)
    twisted = ((lambda c: contract(td, c)) if twist == "unit"
               else twisting(s, "hkr_only" if twist == "hkr_only" else "td_sqrt"))
    reps = duflo_classes(Workspace(s, "tpoly"))
    images = [ext_hkr(twisted(r)) for r in reps]
    pairs = [(i, j) for i in range(len(reps)) for j in range(i, len(reps))]
    if sample:
        pairs = random.Random(7).sample(pairs, sample)
    flipped = lambda pv: hkr_reference(pv).scale(-1)
    nonzero = differs = 0
    for i, j in pairs:
        a, b = reps[i], reps[j]
        got = (residual_coords(s.n, ext_cup(images[i], images[j], {}),
                               twisted_terms(twisted, ext_pv_wedge, a, b)),
               residual_coords(s.n, ext_gerstenhaber(images[i], images[j], {}),
                               twisted_terms(twisted, ext_schouten, a, b)))
        for coords in got:
            assert_int_first_coords(coords)
        assert got == residuals_reference(a, b, td), (i, j)
        nonzero += any(got)
        differs += residuals_reference(a, b, td, hkr=flipped) != got
    assert nonzero and differs


def test_wrong_twist_fails_only_its_own_map(paper, monkeypatch):
    """Negative control: twisting by 2 instead of td^{1/2} makes the
    twisted map fail, and hkr alone, checked on the same workspaces,
    still reduces."""
    monkeypatch.setattr(cohomology, "todd_sqrt", lambda s: mixed_unit(s.dim_g, s.n).scale(2))
    tp, dp = both_sides(paper)
    assert len(duflo_check(tp, dp, "td_sqrt")["failures"]) == 7
    plain = duflo_check(tp, dp, "hkr_only")
    assert plain["all_reduce"] and plain["failures"] == []


def with_caps(s, w, o, a):
    return s._replace(caps=Caps(w, o, a, s.caps.max_ce_degree))


@pytest.mark.parametrize("caps", [None, (1, 3, 3)])
def test_order_audit_matches_fresh_workspace(paper, sl2, caps):
    """At these windows every operator slice satisfies the order bound,
    and each is reported stable with the dim H of a fresh workspace
    whose order cap is one higher."""
    s = paper if caps is None else with_caps(sl2, *caps)
    c = s.caps
    ref = Workspace(with_caps(s, c.max_weight, c.max_order + 1, c.max_arity), "dpoly")
    for e in cohomology_report(Workspace(s, "dpoly"))["slices"]:
        assert e["stable"] == (ref.dim_h(e["weight"], e["total_degree"]) == e["dim_H"])


def test_order_audit_flags_truncated_slice(sl2):
    """Negative control: at order cap 1 the sl2 slice (w -2, k 1) changes
    one order up, and lies below the bound, which marks it unstable."""
    s = with_caps(sl2, 1, 1, 3)
    rep = cohomology_report(Workspace(s, "dpoly"))
    stable = {(e["weight"], e["total_degree"]): e["stable"] for e in rep["slices"]}
    assert stable[(-2, 1)] is False
    assert not rep["all_stable"]
    assert cohomology_report(Workspace(s, "tpoly"))["all_stable"]


# g = R acting on R^3 by x E, E = x d_x + y d_y + z d_z the Euler field
R3_XE = {"dim_g": 1, "dim_m": 3, "coordinate_weights": [1, 1, 1], "structure_constants": [],
         "action": [[[[2, 0, 0, "1"]], [[1, 1, 0, "1"]], [[1, 0, 1, "1"]]]],
         "caps": {"max_weight": 1, "max_order": 2, "max_arity": 4}}


def order_windows() -> dict:
    """Small windows of every bundled scenario, both connection fixtures,
    the two-generator scenario on R^2 and x E on R^3, at order caps where
    the bound holds on some slices and, for n >= 2, fails on others."""
    fixture = lambda name: load_scenario((FIXTURES / f"{name}.json").read_text())
    two = {"max_weight": 1, "max_order": 1, "max_arity": 3}
    return {
        "paper": with_caps(bundled("paper_sec4"), 2, 1, 3),
        "abelian": with_caps(bundled("abelian_trivial"), 2, 1, 3),
        "sl2-N1": with_caps(bundled("sl2_linear"), 1, 1, 3),
        "sl2-N2": with_caps(bundled("sl2_linear"), 0, 2, 3),
        "sl2-connection": with_caps(fixture("sl2_linear_connection"), 0, 1, 3),
        "nilpotent-connection": with_caps(fixture("nilpotent_connection"), 1, 1, 3),
        "two-generator": load_scenario(two_generator_doc(2, [1, 1], "1", "1", "1", two)),
        "r3-xE": load_scenario(R3_XE),
    }


def raised(s, up: int) -> Workspace:
    """The operator workspace of s with its order cap raised by up."""
    c = s.caps
    return Workspace(with_caps(s, c.max_weight, c.max_order + up, c.max_arity), "dpoly")


@pytest.mark.parametrize("name", list(order_windows()))
def test_order_cap_bound_holds(name):
    """The claim, checked: wherever N >= min(k + 1, n), the operator slice
    (w, k) has the same dim H at order caps N, N + 1 and N + 2, and the
    report marks exactly those slices stable."""
    s = order_windows()[name]
    up = [raised(s, 1), raised(s, 2)]
    held = 0
    for e in cohomology_report(Workspace(s, "dpoly"))["slices"]:
        w, k = e["weight"], e["total_degree"]
        bound = s.caps.max_order >= min(k + 1, s.n)
        assert e["stable"] == bound, (w, k)
        if bound:
            assert [ws.dim_h(w, k) for ws in up] == [e["dim_H"]] * 2, (w, k)
            held += 1
    assert held


def test_order_cap_bound_is_sharp():
    """Negative control: just below the bound dim H still moves with the
    order cap, and the slice is reported unstable: sl2 at N 1, (w -2, k 1),
    and x E on R^3 at N 2, (w 1, k 2).  At the bound, sl2 at N 2 and R^3
    at N 2, k 1 (where k + 1 < n) are stable."""
    windows = order_windows()
    for name, (w, k), dims in (("sl2-N1", (-2, 1), [0, 1, 1]),
                               ("r3-xE", (1, 2), [30, 45, 45])):
        s = windows[name]
        assert [raised(s, i).dim_h(w, k) for i in range(3)] == dims
        stable = {(e["weight"], e["total_degree"]): e["stable"]
                  for e in cohomology_report(Workspace(s, "dpoly"))["slices"]}
        assert stable[(w, k)] is False
    assert cohomology_report(Workspace(windows["sl2-N2"], "dpoly"))["all_stable"]
    r3 = [e for e in cohomology_report(Workspace(windows["r3-xE"], "dpoly"))["slices"]
          if e["total_degree"] == 1]
    assert r3 and all(e["stable"] for e in r3)


def recording_in_image(monkeypatch) -> list:
    """Record (workspace, k, coordinates, verdict) of every in_image call."""
    calls = []
    in_image = Workspace.in_image

    def recorded(ws, k, coords):
        calls.append((ws, k, coords, in_image(ws, k, coords)))
        return calls[-1][-1]
    monkeypatch.setattr(Workspace, "in_image", recorded)
    return calls


@pytest.mark.parametrize("name", list(order_windows()))
def test_normalized_complex_matches_the_full_one(name, monkeypatch):
    """Elimination on normalized cochains is exact: on small windows of
    every bundled scenario, both connection fixtures and the two-generator
    scenario, the full capped operator complex (FullWorkspace, order-0
    slots included) has the dim H of the normalized one on every slice of
    the report, below the order bound too, and gives every Duflo residual
    of both twists the same in_image verdict (exhaustive but on x E over
    R^3, where 200 of its 12,561 pairs are sampled)."""
    s = order_windows()[name]
    ws, full = Workspace(s, "dpoly"), FullWorkspace(s, "dpoly")
    slices = [(e["weight"], e["total_degree"], e["dim_H"])
              for e in cohomology_report(ws)["slices"]]
    assert [(w, k, full.dim_h(w, k)) for w, k, _ in slices] == slices
    assert any(len(full.basis(w, k)) > len(ws.basis(w, k)) for w, k, _ in slices)
    calls = recording_in_image(monkeypatch)
    tp = Workspace(s, "tpoly")
    for twist in ("td_sqrt", "hkr_only"):
        reports = [duflo_check(tp, dp, twist, sample_cap=200) for dp in (ws, full)]
        assert reports[0] == reports[1]
    verdicts = {dp: [call[1:] for call in calls if call[0] is dp] for dp in (ws, full)}
    assert verdicts[ws] == verdicts[full] and verdicts[ws]


@pytest.mark.parametrize("name", ["paper_sec4", "sl2_linear", "abelian_trivial"])
def test_residuals_and_hkr_images_are_normalized(name, monkeypatch):
    """On every bundled scenario at its caps, every key of every Duflo
    residual of both twists, and of every ext_hkr image that hkr_check
    and duflo_check form, has all slots of order >= 1: they lie in the
    normalized complex that the workspace eliminates."""
    tp, dp = both_sides(bundled(name))
    calls = recording_in_image(monkeypatch)
    hkr, images = cohomology.ext_hkr, []
    monkeypatch.setattr(cohomology, "ext_hkr", lambda c: images.append(hkr(c)) or images[-1])
    hkr_check(tp, dp)
    for twist in ("td_sqrt", "hkr_only"):
        duflo_check(tp, dp, twist)
    keys = [key for call in calls for key in call[2]]
    keys += [key for image in images for key in cochain_coords(image)]
    assert calls and images and keys
    assert all(is_normalized("dpoly", key) for key in keys)


def test_order_0_key_fakes_a_falsification(paper, monkeypatch):
    """Negative control: a paper_sec4 Duflo residual that reduces, with
    an order-0 key injected, lands on a row that no column reaches, and
    in_image says False.  A non-normalized residual would be reported as
    a falsification (exit 1)."""
    tp, dp = both_sides(paper)
    calls = recording_in_image(monkeypatch)
    duflo_check(tp, dp, "td_sqrt")
    w, k, coords = next((weight, *call[1:3]) for call in calls if call[2] and call[3]
                        for weight in [key_weight("dpoly", min(call[2]), paper.weights,
                                                  paper.action_weights)] if weight >= 0)
    key = ((), ((0,),) * (k + 1), (w,))  # the function x^w in k + 1 arguments, derived by none
    assert dp.basis(w, k - 1) and not is_normalized("dpoly", key)
    assert key not in dp._rows[w]
    assert dp.in_image(k, coords) and not dp.in_image(k, {**coords, key: 1})


@pytest.mark.parametrize("name, caps", [("sl2_linear", (1, 2, 3)), ("paper_sec4", (2, 2, 3))])
def test_ce_cap_window_is_the_uncapped_complex(name, caps):
    """Under a CE-degree cap P < dim g the window ends at k = P - 1, and
    there every slice on both sides has the dim H of the workspace with
    no CE cap.  Negative control: at k = P, where a column at p = P
    keeps its rows at p = P + 1, some slice differs."""
    full = bundled(name)._replace(caps=Caps(*caps, bundled(name).dim_g))
    for p in range(full.dim_g):
        s = full._replace(caps=Caps(*caps, p))
        for side in SIDES:
            ws, ref = Workspace(s, side), Workspace(full, side)
            slices = cohomology_report(ws)["slices"]
            assert max(e["total_degree"] for e in slices) == p - 1
            assert all(e["dim_H"] == ref.dim_h(e["weight"], e["total_degree"]) for e in slices)
            assert any(ws.dim_h(w, p) != ref.dim_h(w, p) for w in weight_window(s)), (p, side)


def test_kernels_tracked_on_tpoly_only(paper):
    """Every tpoly column carries its label row, so each pivot and kernel
    vector holds one; dpoly echelons hold no label row and an empty
    kernel."""
    tp, dp = both_sides(paper)
    cohomology_report(dp)
    hkr_check(tp, dp)
    assert tp._echelons and all(
        red.rank + len(red.kernel) == len(tp.basis(w, k))
        and all(min(v) < 0 for v in [*red.pivots.values(), *red.kernel])
        for (w, k), red in tp._echelons.items())
    assert any(red.kernel for red in tp._echelons.values())
    assert dp._echelons and not any(
        red.kernel or any(min(piv) < 0 for piv in red.pivots.values())
        for red in dp._echelons.values())
    with pytest.raises(ValueError, match="tpoly"):
        dp.representatives(0, 0)


@pytest.mark.parametrize("name, caps", [("paper", None), ("sl2", (1, 1, 3)), ("abelian", None)])
@pytest.mark.parametrize("side", SIDES)
def test_compiled_columns_equal_symbolic(request, name, caps, side):
    """Every column the workspace builds from its unit generators, over
    every slice at the order cap and at one order higher, equals the
    symbolic differential of the basis element."""
    s = request.getfixturevalue(name)
    s = s if caps is None else with_caps(s, *caps)
    ws = Workspace(s, side)
    checked = 0
    for w in weight_window(s):
        for k in range(-1, stable_degree_max(s, side) + 1):
            for elt in slice_reference(s, side, w, k, s.caps.max_order + 1):
                assert image_coords(ws, elt) == cochain_coords(
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
    for key, c in image_coords(ws, (idx, mid, exps)).items():
        for key2, c2 in image_coords(ws, key).items():
            twice[key2] = twice.get(key2, 0) + c * c2
    assert not any(twice.values())


def test_one_symbolic_differential_per_generator(paper):
    """The symbolic differential runs once per unit generator (I, V) of
    the bases the report builds, and not once per basis element: the
    normalized generators at max_order, none with a slot of order 0 and
    none of order max_order + 1."""
    ws = Workspace(paper, "dpoly")
    calls = []
    diff = ws._diff
    ws._diff = lambda c: calls.append(c) or diff(c)
    cohomology_report(ws)
    built = [e for w, k in ws._bases
             for e in slice_reference(paper, "dpoly", w, k, ws.max_order, normalized=True)]
    generators = {(idx, mid) for idx, mid, _ in built}
    assert len(calls) == len(generators) < len(built)
    assert set(ws._units) == generators


@st.composite
def one_generator_scenarios(draw):
    """A valid scenario beyond the bundled ones: a 1-dim algebra on R^1
    or R^2 (coordinate weights 1-2) acting by one weight-homogeneous
    nonzero polynomial vector field, which is a Lie morphism since
    [e, e] = 0, at small caps."""
    n = draw(st.integers(1, 2))
    weights = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    shift = draw(st.integers(-2, 2))  # the weight of the field
    field = []
    for j in range(n):
        monos = monomials_of_weight(n, weights, shift + weights[j])
        chosen = draw(st.lists(st.sampled_from(monos), unique=True, max_size=2)) if monos else []
        field.append([[*e, draw(st.sampled_from(["-2", "-1", "1", "1/2", "3"]))] for e in chosen])
    assume(any(field))
    caps = {"max_weight": draw(st.integers(0, 2)), "max_order": draw(st.integers(1, 2)),
            "max_arity": draw(st.integers(1, 3))}
    return load_scenario({"dim_g": 1, "dim_m": n, "coordinate_weights": list(weights),
                          "structure_constants": [], "action": [field], "caps": caps})


COEFFS = ["-2", "-1", "1/2", "1", "3"]


@st.composite
def two_generator_scenarios(draw):
    """The non-abelian family of two_generator_doc with random nonzero a
    and b, coordinate weights 1-2 (E and F are homogeneous for any), at
    small caps: Lambda^2 g-dual terms and a nonzero structure constant."""
    n = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    a, b = draw(st.sampled_from(COEFFS)), draw(st.sampled_from(COEFFS))
    caps = {"max_weight": draw(st.integers(0, 2)), "max_order": draw(st.integers(1, 2)),
            "max_arity": draw(st.integers(1, 3))}
    return load_scenario(two_generator_doc(n, weights, a, b, a, caps))


@cache
def named_scenario(name: str) -> Scenario:
    """A bundled scenario, or xE, yE, loaded once."""
    return load_scenario(XE_YE) if name == "xE, yE" else bundled(name)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(s=st.one_of(one_generator_scenarios(), two_generator_scenarios(),
                   st.sampled_from(["paper_sec4", "sl2_linear", "abelian_trivial",
                                    "xE, yE"]).map(named_scenario)),
       side=st.sampled_from(SIDES))
def test_basis_keys_have_their_slice_weight(s, side):
    """On random one- and two-generator scenarios, the bundled ones and
    xE, yE, on both sides: every element of Workspace.basis(w, k) has key
    weight w, and no slice from floor_below up to the window's first
    weight is nonempty."""
    ws, lo = Workspace(s, side), weight_window(s)[0]
    for w in range(floor_below(s), s.caps.max_weight + 1):
        for k in range(-1, ws.pmax + ws.qmax + 1):
            basis = ws.basis(w, k)
            assert all(key_weight(side, e, s.weights, s.action_weights) == w for e in basis)
            assert w >= lo or not basis, (w, k)


def test_columns_are_int_first_under_a_fractional_action():
    """With action coefficient 1/2, an action entry times an even
    exponent is integral: every column coordinate is an int or a proper
    Fraction, on both sides, and both kinds occur."""
    caps = {"max_weight": 3, "max_order": 2, "max_arity": 2}
    s = load_scenario(two_generator_doc(2, [1, 1], "1/2", "-1", "1/2", caps))
    kinds = set()
    for side in SIDES:
        ws = Workspace(s, side)
        for w in weight_window(s):
            for k in range(-1, stable_degree_max(s, side) + 1):
                for elt in ws.basis(w, k):
                    coords = image_coords(ws, elt)
                    assert_int_first_coords(coords)
                    kinds |= {type(c) for c in coords.values()}
    assert kinds == {int, Fraction}


def _chain_map_defects(s, iota) -> tuple[int, int]:
    """(basis elements e with d iota(e) != iota(d e), basis elements) over
    the polyvector window of s."""
    d, ws = side_differential(s, "tpoly"), Workspace(s, "tpoly")
    elts = [elt for w in weight_window(s) for k in range(-1, stable_degree_max(s, "tpoly") + 1)
            for elt in ws.basis(w, k)]
    cochains = [basis_cochain(s, "tpoly", elt) for elt in elts]
    return sum(d(iota(c)) != iota(d(c)) for c in cochains), len(elts)


def test_contraction_by_td_sqrt_is_a_chain_map(paper):
    """d o i_{td^{1/2}} = i_{td^{1/2}} o d on every basis element of the
    window of the two-generator scenario on R^2 at caps 2,3,4, flat and
    with random connections, of paper_sec4 at its bundled caps, and of
    the sl2 scenario with a connection in tests/fixtures.  Negative
    control: without the Koszul sign of moving the form past the
    exterior part, the flat two-generator case and the fixture fail."""
    caps = {"max_weight": 2, "max_order": 3, "max_arity": 4}
    flat = load_scenario(two_generator_doc(2, [1, 1], "1", "1", "1", caps))
    scenarios = [flat] + [random_connection(flat, shift, random.Random(seed))
                          for shift in (0, 1) for seed in (0, 2)]
    # at shift 0 no Christoffel symbol has a monomial of its weight -1, so
    # td^{1/2} is the flat one there; the two shift-1 ones differ from it
    assert len({str(todd_sqrt(s)) for s in scenarios}) == 3
    for s in scenarios:
        td = todd_sqrt(s)
        bad, total = _chain_map_defects(s, lambda c: contract(td, c))
        assert (bad, total > 150) == (0, True), s
    td = todd_sqrt(flat)
    unsigned = _chain_map_defects(flat, lambda c: ext_bilinear(td, c, _interior, lambda k1, p2: 0))
    assert unsigned[0] > 0
    fixture = load_scenario((FIXTURES / "sl2_linear_connection.json").read_text())
    for s, total in ((paper, 32), (fixture, 1160)):
        td = todd_sqrt(s)
        assert _chain_map_defects(s, lambda c: contract(td, c)) == (0, total)
    td = todd_sqrt(fixture)
    unsigned = _chain_map_defects(fixture, lambda c: ext_bilinear(td, c, _interior,
                                                                   lambda k1, p2: 0))
    assert unsigned == (433, 1160)


def test_connection_scenario_reduces_under_td_sqrt(monkeypatch):
    """The two-generator scenario on R^2 at caps 2,2,2 with a seeded linear
    connection, and the sl2 scenario with a connection in tests/fixtures:
    every residual reduces under td^{1/2}, weight part by weight part.
    Negative control: the wrong twist 2 * unit fails pairs on both.  (The
    contraction without its Koszul sign fails no pair here: it trips
    test_contraction_by_td_sqrt_is_a_chain_map instead.)"""
    caps = {"max_weight": 2, "max_order": 2, "max_arity": 2}
    two = load_scenario(two_generator_doc(2, [1, 1], "1/2", "-1", "1/2", caps))
    scenarios = [random_connection(two, 1, random.Random(0)),
                 load_scenario((FIXTURES / "sl2_linear_connection.json").read_text())]
    reports = [duflo_check(*both_sides(s), "td_sqrt") for s in scenarios]
    assert [(r["classes"], r["pairs_checked"], r["all_reduce"]) for r in reports] == [
        (6, 21, True), (4, 10, True)]
    monkeypatch.setattr(cohomology, "todd_sqrt", lambda s: mixed_unit(s.dim_g, s.n).scale(2))
    assert all(duflo_check(*both_sides(s), "td_sqrt")["failures"] for s in scenarios)


def test_td_sqrt_contraction_is_connection_independent_on_cohomology():
    """i_{td^{1/2}} - i_{td^{1/2} flat} maps every polyvector representative
    to a coboundary, reduced weight by weight, on the two-generator family
    on R^2 at caps 2,2,2 and 2,3,3 with random connections of shift 0 and
    1 (seeds 0-2).  At shift 1 the difference is nonzero on some
    representatives, all of it one weight above theirs.  Negative control:
    reduced whole at the representative's weight, none of those reduces."""
    nonzero = 0
    for caps in ((2, 2, 2), (2, 3, 3)):
        flat = load_scenario(two_generator_doc(2, [1, 1], "1/2", "-1", "1/2", dict(
            zip(("max_weight", "max_order", "max_arity"), caps))))
        for shift in (0, 1):
            for seed in range(3):
                s = random_connection(flat, shift, random.Random(seed))
                tp, td, td_flat = Workspace(s, "tpoly"), todd_sqrt(s), todd_sqrt(flat)
                for w in weight_window(s):
                    for k in range(-1, stable_degree_max(s, "tpoly") + 1):
                        for rep in tp.representatives(w, k):
                            diff = cochain_coords(contract(td, rep) - contract(td_flat, rep))
                            assert tp.in_image(k, diff), (caps, shift, seed, w, k)
                            if diff:
                                nonzero += 1
                                assert {key_weight("tpoly", key, s.weights, s.action_weights)
                                        for key in diff} == {w + 1}
                                assert not tp._echelon(w, k - 1).contains(tp._column(w, diff))
    assert nonzero == 44


def test_two_generator_family_needs_its_structure_constant():
    """Negative control for the family: [e0, e1] = 2a e1 is not the
    bracket the action realises, and load_scenario refuses it."""
    caps = {"max_weight": 1, "max_order": 1, "max_arity": 2}
    head = ("action is not a Lie algebra morphism: phi([e_0,e_1]) != [phi(e_0),phi(e_1)], "
            "residual ")
    for n, residual in [(1, "(3*x0^2)*d[0]"), (2, "(3*x0^2)*d[0] + (3*x0*x1)*d[1]")]:
        assert load_scenario(two_generator_doc(n, [1] * n, "3", "-1", "3", caps)).dim_g == 2
        with pytest.raises(ScenarioError) as exc:
            load_scenario(two_generator_doc(n, [1] * n, "3", "-1", "6", caps))
        assert str(exc.value) == head + residual


@settings(deadline=None, derandomize=True, max_examples=30)
@given(two=two_generator_scenarios(), c=st.sampled_from(COEFFS))
def test_broken_two_generator_message_matches_pair_loop(two, c):
    """The family with [e0, e1] = c e1 for c != a: load_scenario refuses
    it with the message of the pair-by-pair commutator check."""
    a, b = (next(iter(vf.terms[(0,)].terms.values())) for vf in two.action)
    assume(Fraction(c) != a)
    doc = two_generator_doc(two.n, two.weights, str(a), str(b), c, two.caps.to_json())
    lie = LieAlgebra(2, {(0, 1, 1): Fraction(c), (1, 0, 1): -Fraction(c)})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert str(exc.value) == morphism_reference(lie, two.action)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(one=one_generator_scenarios(), two=two_generator_scenarios(),
       side=st.sampled_from(SIDES))
def test_compiled_columns_on_random_scenarios(one, two, side):
    """On a random one-generator and a random two-generator scenario,
    every compiled column, at the order cap and one order higher,
    equals the symbolic differential, and the compiled map squares to
    zero."""
    for s in (one, two):
        ws = Workspace(s, side)
        for w in weight_window(s):
            for k in range(-1, stable_degree_max(s, side) + 1):
                for elt in slice_reference(s, side, w, k, s.caps.max_order + 1):
                    image = image_coords(ws, elt)
                    assert image == cochain_coords(ws._diff(basis_cochain(s, side, elt))), elt
                    twice: dict = {}
                    for key, c in image.items():
                        for key2, c2 in image_coords(ws, key).items():
                            twice[key2] = twice.get(key2, 0) + c * c2
                    assert not any(twice.values()), elt
