"""Acceptance suite.

Each test exercises one acceptance criterion end to end and prints a
single ``CRITERION n: PASS/FAIL`` line (live, bypassing capture) with
the elapsed time against its budget.  The tests run in order; the
cohomology workspaces built for criterion 5 are reused by criterion 8.
"""

import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import sympy

from gman.atiyah import (_lie_end, atiyah_cocycle, connection_tensor,
                         invariant_connection_obstruction, is_ce_closed, todd_cocycle,
                         todd_sqrt)
from gman.calculus import differential, mixed_mul, mixed_unit
from gman.checks import dpoly_axiom_checks, tpoly_axiom_checks
from gman.cli import main
from gman.cohomology import Workspace, cohomology_report, duflo_check, hkr_check
from gman.liealg import Cochain
from gman.poly import Poly
from gman.scenario import action_cochain
from gman.series import log_todd_generator_series

from conftest import atiyah_reference, random_connection

F = Fraction

_WORKSPACES: dict = {}


def workspace(s, side):
    key = (s.name, side)
    if key not in _WORKSPACES:
        _WORKSPACES[key] = Workspace(s, side)
    return _WORKSPACES[key]


@contextmanager
def criterion(capsys, num, desc, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {num}: FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc} "
              f"[{dt:.1f}s, budget {budget:.0f}s]")
    assert ok, f"criterion {num} exceeded its {budget:.0f}s budget ({dt:.1f}s)"


def test_criterion_1_atiyah_flagship_value(capsys, paper):
    with criterion(capsys, 1, "Atiyah cocycle of the flagship scenario "
                   "is the constant 2 and is CE-closed", 1.0):
        r = atiyah_cocycle(paper)
        assert set(r.terms) == {(0,)}
        assert r.terms[(0,)].terms == {(0, 0, 0): Poly.const(1, 2)}
        assert is_ce_closed(paper, r)


def test_criterion_2_obstruction_certificate(capsys, paper):
    with criterion(capsys, 2, "invariant-connection obstruction for the "
                   "flagship scenario is certified unsolvable", 5.0):
        ob = invariant_connection_obstruction(
            paper._replace(caps=paper.caps._replace(max_weight=10)))
        assert ob["solvable"] is False
        assert ob["window"] == 10
        assert ob["certificates"]
        for cert in ob["certificates"]:
            assert cert["unknown_dimension"] == 0
            assert cert["rhs"]


def test_criterion_3_polyvector_identities(capsys, paper, sl2):
    with criterion(capsys, 3, "graded identities on the polyvector side "
                   "hold on 200 random cases per scenario", 60.0):
        for s, seed in ((paper, 101), (sl2, 102)):
            rep = tpoly_axiom_checks(s, cases=200, seed=seed)
            assert rep["failures"] == [], rep["failures"][:3]
            assert rep["passed"] == 200


def test_criterion_4_operator_identities(capsys, paper, sl2):
    with criterion(capsys, 4, "graded identities on the operator side "
                   "hold on 200 random cases per scenario", 120.0):
        for s, seed in ((paper, 201), (sl2, 202)):
            rep = dpoly_axiom_checks(s, cases=200, seed=seed)
            assert rep["failures"] == [], rep["failures"][:3]
            assert rep["passed"] == 200


def test_criterion_5_hkr_quasi_isomorphism(capsys, paper, sl2):
    with criterion(capsys, 5, "weight-sliced cohomology dimensions agree "
                   "across HKR and are stable under the order cap", 600.0):
        for s in (paper, sl2):
            tp = workspace(s, "tpoly")
            dp = workspace(s, "dpoly")
            rep_t = cohomology_report(tp)
            rep_d = cohomology_report(dp)
            assert rep_t["all_stable"] and rep_d["all_stable"]
            match = hkr_check(tp, dp)
            assert match["dimensions_match"], match["mismatches"]
            assert match["hkr_injective_on_H"]


def test_criterion_6_connection_independence(capsys, paper, sl2):
    with criterion(capsys, 6, "Atiyah class is independent of the "
                   "connection for 20 random alternates per scenario", 60.0):
        rng = random.Random(600)
        for s, shifts in ((paper, (2, 3)), (sl2, (1, 2))):
            for _ in range(20):
                alt = random_connection(s, rng.choice(shifts), rng)
                # R by its three-term definition on both sides, so that the
                # identity does not hold merely by the linearity of d_CE
                diff = Cochain(s.dim_g, {(): connection_tensor(s) - connection_tensor(alt)})
                coboundary = differential(s.lie, action_cochain(s), diff, _lie_end)
                residual = atiyah_reference(s) - atiyah_reference(alt) - coboundary
                assert residual.is_zero(), residual


def test_criterion_7_todd_square_root(capsys, paper, sl2):
    with criterion(capsys, 7, "Todd cocycle matches the power-series "
                   "oracle and its square root squares back", 5.0):
        td = todd_cocycle(paper)
        half = todd_sqrt(paper)
        assert mixed_mul(half, half) == td
        assert todd_cocycle(sl2) == mixed_unit(sl2.dim_g, sl2.n)
        alt = random_connection(sl2, 1, random.Random(700))
        assert mixed_mul(todd_sqrt(alt), todd_sqrt(alt)) == todd_cocycle(alt)
        # independent oracle for the log-Todd generator through x^4
        x = sympy.symbols("x")
        ser = sympy.series(sympy.log(x / (1 - sympy.exp(-x))), x, 0, 5).removeO()
        want = [F(str(sympy.nsimplify(ser.coeff(x, k)))) for k in range(5)]
        assert log_todd_generator_series(5) == want
        assert want == [F(0), F(1, 2), F(-1, 24), F(0), F(1, 2880)]


def test_criterion_8_duflo_window(capsys, paper, sl2):
    with criterion(capsys, 8, "twisted HKR respects products and brackets "
                   "on every class pair in the stable window", 600.0):
        for s, classes in ((paper, 6), (sl2, 4)):
            dc = duflo_check(workspace(s, "tpoly"), workspace(s, "dpoly"), "td_sqrt")
            assert dc["classes"] == classes
            assert not dc["sampled"]
            assert dc["all_reduce"], dc["failures"][:3]


def test_criterion_9_deterministic_reports(capsys):
    with criterion(capsys, 9, "JSON reports are byte-identical across "
                   "reruns and match the stored fixtures", 120.0):
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        # the bundled scenarios have flat connections; the last one, a
        # seeded random connection on sl2_linear, pins d_CE Gamma, the
        # solvable obstruction and a Todd cocycle of eight terms
        for name, spec in (("paper_sec4", "paper_sec4"), ("sl2_linear", "sl2_linear"),
                           ("abelian_trivial", "abelian_trivial"),
                           ("sl2_linear_connection",
                            str(fixtures / "sl2_linear_connection.json"))):
            for argv in (["atiyah", spec, "--json"],
                         ["todd", spec, "--json"],
                         ["axioms", spec, "--json", "--cases", "10",
                          "--seed", "3"]):
                assert main(list(argv)) in (0, 1)
                first = capsys.readouterr().out
                assert main(list(argv)) in (0, 1)
                assert capsys.readouterr().out == first
            for command in ("atiyah", "todd"):
                assert main([command, spec, "--json"]) == 0
                got = capsys.readouterr().out
                assert got == (fixtures / f"{name}_{command}.json").read_text()
