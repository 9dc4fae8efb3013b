"""Tests of the benchmark itself: every oracle accepts a real gman report
and trips on a perturbed one (negative controls), the tracer measures
from outside without breaking the program, and the benchmark refuses to
run without gman's sources.

    python -m pytest perfbench/test_oracles.py -q

Reports come from gman at small caps, so the file runs in seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from gman import cli  # noqa: E402


def run(*argv: str) -> tuple[list[str], int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--json"])
    return list(argv), code, json.loads(buf.getvalue())


def check(argv, code, report) -> oracles.Verdict:
    return oracles.check_invocation(ROOT, argv, code, report)


@pytest.fixture(scope="module")
def sl2():
    return run("cohomology", "sl2_linear", "--caps", "0,2,3")


@pytest.fixture(scope="module")
def sec4():
    return run("cohomology", "paper_sec4", "--caps", "3,2,3")


@pytest.fixture(scope="module")
def sec4_duflo():
    return run("duflo-check", "paper_sec4", "--seed", "5")


@pytest.fixture(scope="module")
def line_duflo():
    return run("duflo-check", "abelian_trivial", "--caps", "4,2,3",
               "--sample-cap", "60", "--seed", "3")


def perturbed(case, edit):
    argv, code, report = case
    report = copy.deepcopy(report)
    edit(report["results"])
    return argv, code, report


def slice_at(slices, w, k):
    return next(e for e in slices if e["weight"] == w and e["total_degree"] == k)


# ------------------------------------------------------------ positives

@pytest.mark.parametrize("case", ["sl2", "sec4", "sec4_duflo", "line_duflo"])
def test_real_reports_pass(case, request):
    v = check(*request.getfixturevalue(case))
    assert v.problems == [] and v.failed == 0 and v.attempted > 0


def test_atiyah_todd_axioms_pass():
    for argv in (["atiyah", "paper_sec4"], ["todd", "paper_sec4"],
                 ["axioms", "sl2_linear", "--cases", "3", "--seed", "7"]):
        v = check(*run(*argv))
        assert v.problems == [] and v.failed == 0 and v.attempted > 0


def test_line_duflo_count_is_counted_not_stored():
    # 102 classes at caps 24,4,4: the count follows from the window alone
    sc = oracles.bundled_scenario(ROOT, "abelian_trivial")
    caps = {"max_weight": 24, "max_order": 4, "max_arity": 4, "max_ce_degree": 1}
    assert sum(oracles.EXPECTED_H["abelian_trivial"](sc, caps, w, k)
               for w in range(-4, 25) for k in (-1, 0, 1)) == 102


# ----------------------------------------------------- negative controls

def test_whitehead_trips_on_changed_dimension(sl2):
    def edit(r):
        slice_at(r["tpoly"]["slices"], 0, 0)["dim_H"] += 1
    assert check(*perturbed(sl2, edit)).problems


def test_whitehead_trips_on_dropped_class(sl2):
    def edit(r):
        slice_at(r["dpoly"]["slices"], -2, 1)["dim_H"] = 0
    assert check(*perturbed(sl2, edit)).problems


def test_whitehead_trips_on_dropped_slice(sl2):
    def edit(r):
        r["hkr"]["slices"].pop()
    assert check(*perturbed(sl2, edit)).problems


def test_cochain_count_trips_on_changed_basis(sl2):
    def edit(r):
        slice_at(r["dpoly"]["slices"], 0, 0)["dim_cochains"] -= 1
    assert check(*perturbed(sl2, edit)).problems


def test_unstable_slice_counts_as_failed(sl2):
    def edit(r):
        slice_at(r["dpoly"]["slices"], 0, 0)["stable"] = False
    v = check(*perturbed(sl2, edit))
    assert v.failed == 1
    assert v.problems  # all_stable still claims True


def test_sec4_trips_on_changed_dimension(sec4):
    def edit(r):
        for side in ("tpoly", "dpoly"):
            slice_at(r[side]["slices"], 1, 1)["dim_H"] = 2
        slice_at(r["hkr"]["slices"], 1, 1).update(dim_H_tpoly=2, dim_H_dpoly=2)
    assert check(*perturbed(sec4, edit)).problems


def test_sec4_trips_on_dropped_class(sec4):
    def edit(r):
        for side in ("tpoly", "dpoly"):
            slice_at(r[side]["slices"], -2, 1)["dim_H"] = 0
        slice_at(r["hkr"]["slices"], -2, 1).update(dim_H_tpoly=0, dim_H_dpoly=0)
    assert check(*perturbed(sec4, edit)).problems


def test_window_that_drops_classes_trips(sec4):
    def edit(r):
        r["tpoly"]["window"]["weights"][0] = -1
        r["tpoly"]["slices"] = [e for e in r["tpoly"]["slices"] if e["weight"] >= -1]
    assert check(*perturbed(sec4, edit)).problems


@pytest.mark.parametrize("case", ["sec4_duflo", "line_duflo"])
def test_duflo_pair_marked_non_reducing(case, request):
    def edit(r):
        r["twisted"]["failures"].append({"pair": [], "product_reduces": False})
        r["twisted"]["all_reduce"] = False
    argv, code, report = perturbed(request.getfixturevalue(case), edit)
    assert check(argv, code, report).failed == 1
    assert check(argv, code, report).problems  # exit 0 with a failing pair
    assert check(argv, 1, report).problems == []


@pytest.mark.parametrize("case", ["sec4_duflo", "line_duflo"])
def test_duflo_trips_on_dropped_class(case, request):
    def edit(r):
        r["hkr_only"]["classes"] -= 1
    assert check(*perturbed(request.getfixturevalue(case), edit)).problems


def test_duflo_trips_on_wrong_pair_count(line_duflo):
    def edit(r):
        r["twisted"]["pairs_checked"] -= 1
    assert check(*perturbed(line_duflo, edit)).problems


def test_atiyah_trips_on_changed_value():
    def edit(r):
        r["cocycle"][0][4][0][0] = "3/1"
    assert check(*perturbed(run("atiyah", "paper_sec4"), edit)).problems


def test_todd_trips_on_changed_square_root():
    def edit(r):
        r["todd_sqrt"][1][2][0][0] = "1/3"
    assert check(*perturbed(run("todd", "paper_sec4"), edit)).problems


def test_todd_trips_on_changed_log_series():
    def edit(r):
        r["log_series"][2] = "1/24"
    assert check(*perturbed(run("todd", "paper_sec4"), edit)).problems


def test_axioms_failed_case_counts_and_trips():
    case = run("axioms", "sl2_linear", "--cases", "3", "--seed", "7")

    def edit(r):
        r["dpoly"]["failures"].append({"case": 0, "identity": "graded_jacobi"})
        r["dpoly"]["passed"] -= 1
    v = check(*perturbed(case, edit))
    assert v.failed == 1 and v.problems  # all_passed and exit code disagree

    def edit_cases(r):
        r["tpoly"]["cases"] = 2
    assert check(*perturbed(case, edit_cases)).problems


def test_mixed_product_sign():
    # xi0 and dx0 are odd, so they anticommute: dx0 moves past xi0
    one = {(0,): 1}
    xi, dx = {((0,), ()): one}, {((), (0,)): one}
    assert oracles.mixed_product(xi, dx) == {((0,), (0,)): {(0,): 1}}
    assert oracles.mixed_product(dx, xi) == {((0,), (0,)): {(0,): -1}}
    assert oracles.mixed_product(xi, xi) == {}


# ------------------------------------------------------------- tracing

def test_tracer_measures_from_outside():
    script = (
        "import sys, io, contextlib\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "import gman.cli, spans\n"
        "spans.FUNCTIONS['dpoly'].append('no_such_function')\n"
        "t = spans.Tracer(); t.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = sys.modules['gman.cli'].main(['duflo-check', 'paper_sec4', '--json'])\n"
        "import json; print(json.dumps({'code': code, 'metrics': t.metrics(),\n"
        "    'ok': all(t.start[p] <= t.start[i] and t.end[i] <= t.end[p]\n"
        "              for i, p in enumerate(t.parent) if p >= 0)}))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout
    r = json.loads(out)
    m = r["metrics"]
    assert r["code"] == 0 and r["ok"]
    assert m["cohomology.duflo_pairs"] == 42  # 21 pairs, twisted and plain
    assert m["cohomology.classes"] == 12
    assert m["linalg.contains_calls"] > 0 and m["dpoly.ext_cup_s"] > 0
    assert m["checks.cases"] == 0 and m["cohomology.audit_s"] == 0
    assert m["cli.self_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "line-duflo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
