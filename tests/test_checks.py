"""The axiom identities as raw sums against the Cochain subtractions
they replaced (conftest.py), case by case, and the negative control
that a wrong sign in an identity fails cases."""

import random

import pytest

from gman import checks
from gman.checks import (Sampler, dpoly_axiom_checks, dpoly_identities, residual,
                         tpoly_axiom_checks, tpoly_identities)
from gman.cohomology import cochain_coords, coords_cochain, side_differential

from conftest import dpoly_residuals_reference, tpoly_residuals_reference

SIDES = {"tpoly": (tpoly_identities, tpoly_residuals_reference, tpoly_axiom_checks),
         "dpoly": (dpoly_identities, dpoly_residuals_reference, dpoly_axiom_checks)}


def flipped(identities):
    """The identities with the sign of the second antisymmetry term flipped."""
    def wrong(*args):
        out = identities(*args)
        (fn, operands, f), = out["bracket_antisymmetry"][1:]
        out["bracket_antisymmetry"][1] = (fn, operands, -f)
        return out
    return wrong


def draws(s, side: str, cases: int, seed: int):
    """Homogeneous random triples with their degrees, as the checks draw them."""
    rng = random.Random(seed)
    smp = Sampler(s, rng)
    qtop = s.n - 1 if side == "tpoly" else min(2, s.caps.max_arity - 1)
    draw = smp.cochain_pv if side == "tpoly" else smp.cochain_dp
    for _ in range(cases):
        degs = [(rng.randint(0, min(2, s.dim_g)), rng.randint(-1, qtop)) for _ in range(3)]
        yield degs, [draw(p, q) for p, q in degs]


@pytest.mark.parametrize("flip", [1, -1])
@pytest.mark.parametrize("side", ["tpoly", "dpoly"])
@pytest.mark.parametrize("name", ["sl2", "paper"])
def test_raw_residuals_match_cochain_subtraction(request, name, side, flip):
    """Each identity's raw sum has the coordinates of the Cochain
    subtraction, case by case, and a failing one prints as that
    Cochain; with the antisymmetry sign flipped in both, the residuals
    are nonzero on some cases and still agree."""
    s = request.getfixturevalue(name)
    identities, reference, _ = SIDES[side]
    identities = identities if flip == 1 else flipped(identities)
    d = side_differential(s, side)
    nonzero = 0
    for degs, (a, b, c) in draws(s, side, 30, 11):
        got = {key: residual(terms) for key, terms in identities(d, a, b, c, degs).items()}
        ref = reference(d, a, b, c, degs, flip)
        assert got == {key: cochain_coords(res) for key, res in ref.items()}, degs
        for key, coords in got.items():
            if coords:
                assert repr(coords_cochain(s, side, coords)) == repr(ref[key])
                nonzero += 1
    assert bool(nonzero) == (flip == -1)


@pytest.mark.parametrize("side", ["tpoly", "dpoly"])
def test_flipped_antisymmetry_sign_fails_cases(sl2, monkeypatch, side):
    """Negative control: the suite with the sign of the second
    antisymmetry term flipped fails cases, on that identity alone, and
    prints each failing residual."""
    identities, _, run = SIDES[side]
    assert not run(sl2, cases=80, seed=0)["failures"]
    monkeypatch.setattr(checks, f"{side}_identities", flipped(identities))
    report = run(sl2, cases=80, seed=0)
    assert 0 < len(report["failures"]) == 80 - report["passed"] < 80
    assert {f["identity"] for f in report["failures"]} == {"bracket_antisymmetry"}
    assert all(f["residual"].startswith("Cochain(e") for f in report["failures"])
