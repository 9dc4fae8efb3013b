import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gman import cli
from gman.cli import main

from conftest import two_generator_doc

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_validate_bundled_names(capsys):
    for name in ("paper_sec4", "sl2_linear", "abelian_trivial"):
        status, out, _ = run(capsys, "validate", name)
        assert status == 0
        assert "valid" in out


def test_validate_path(capsys, tmp_path):
    doc = {"name": "tiny", "dim_g": 1, "dim_m": 1, "coordinate_weights": [1],
           "structure_constants": [], "action": [[[]]],
           "caps": {"max_weight": 3, "max_order": 2, "max_arity": 3}}
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    status, out, _ = run(capsys, "validate", str(p))
    assert status == 0
    assert "dim_g=1" in out


def test_malformed_scenario_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dim_g": 1}')
    status, _, err = run(capsys, "validate", str(p))
    assert status == 2
    assert "error:" in err


def test_unknown_name_exits_2(capsys):
    status, _, err = run(capsys, "validate", "no_such_scenario")
    assert status == 2
    assert "no such scenario" in err


def test_unreadable_scenario_path_exits_2(capsys, tmp_path, monkeypatch):
    """A path that exists but cannot be read is reported with the OS
    error, not as an unknown name; a bundled name still loads when a
    directory of that name is in the way."""
    status, _, err = run(capsys, "validate", str(tmp_path))
    assert status == 2
    assert err == f"error: cannot read scenario file {tmp_path}: Is a directory\n"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper_sec4").mkdir()
    status, _, err = run(capsys, "validate", "paper_sec4")
    assert (status, err) == (0, "")


def test_usage_error_exits_2(capsys):
    assert main(["validate"]) == 2
    assert main(["frobnicate", "paper_sec4"]) == 2
    capsys.readouterr()


def test_inconsistent_structure_exits_2(capsys, tmp_path):
    from conftest import bundled_doc
    doc = bundled_doc("sl2_linear")
    doc["structure_constants"][2] = [1, 2, [[1, "1"]]]  # breaks Jacobi
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    status, out, err = run(capsys, "validate", str(p))
    assert (status, out) == (2, "")
    assert err == "error: Jacobi fails on basis triple (0,1,2), component 1: residual -2\n"


def test_non_morphism_action_exits_2(capsys, tmp_path):
    """phi(f) doubled: [phi(e), phi(f)] = 2 phi(h), but [e, f] = h."""
    from conftest import bundled_doc
    doc = bundled_doc("sl2_linear")
    doc["action"][2] = [[[0, 1, "2"]], []]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    status, out, err = run(capsys, "validate", str(p))
    assert (status, out) == (2, "")
    assert err == ("error: action is not a Lie algebra morphism: phi([e_1,e_2]) != "
                   "[phi(e_1),phi(e_2)], residual (x0)*d[0] + (-1*x1)*d[1]\n")


def test_atiyah_report_contains_paper_value(capsys):
    status, out, _ = run(capsys, "atiyah", "paper_sec4", "--json")
    assert status == 0
    report = json.loads(out)
    assert report["subcommand"] == "atiyah"
    assert report["results"]["ce_closed"] is True
    [entry] = report["results"]["cocycle"]
    assert entry[:4] == [[0], 0, 0, 0]
    assert entry[4] == [["2/1", [0]]]
    assert report["results"]["obstruction"]["solvable"] is False


def test_todd_summary_mentions_square(capsys):
    status, out, _ = run(capsys, "todd", "paper_sec4")
    assert status == 0
    assert "sqrt^2 == todd: True" in out
    assert "1/2, -1/24, 0/1, 1/2880" in out


def test_axioms_small_run(capsys):
    status, out, _ = run(capsys, "axioms", "abelian_trivial", "--cases", "15")
    assert status == 0
    assert "tpoly: 15/15 passed" in out
    assert "dpoly: 15/15 passed" in out


def test_caps_override(capsys):
    status, out, _ = run(capsys, "validate", "paper_sec4",
                         "--caps", "4,2,3", "--json")
    assert status == 0
    report = json.loads(out)
    assert report["caps"]["max_weight"] == 4
    assert report["caps"]["max_order"] == 2
    assert report["caps"]["max_arity"] == 3


def test_bad_caps_exits_2(capsys):
    for caps in ("4,2", ""):
        status, _, err = run(capsys, "validate", "paper_sec4", "--caps", caps)
        assert status == 2, caps
    # a part that is not an integer is named, with the option
    for caps, part in (("a,b,c", "'a'"), ("1,,2", "''"), ("6,4,x", "'x'"), ("6,4.5,3", "'4.5'"),
                       ("2_4,4,4", "'2_4'"), ("+4,4,4", "'+4'"), (" 4,4,4", "' 4'"),
                       ("\u0664,4,4", "'\u0664'")):
        status, out, err = run(capsys, "duflo-check", "sl2_linear", "--caps", caps)
        assert (status, out) == (2, ""), caps
        assert err.startswith(f"error: --caps: {part} is not an integer"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("caps, cap, joined", [
    pytest.param(caps, cap, joined, id=f"{caps}-{cap}" + ("" if joined else "-separate"))
    for joined in (True, False)
    for caps, cap in [("6,-1,4", "max_order"), ("6,0,4", "max_order"),
                      ("-3,-3,-3", "max_weight"), ("0,1,0", "max_arity")]])
def test_out_of_range_caps_exit_2(capsys, caps, cap, joined):
    """--caps=V and --caps V alike, a negative first cap included."""
    argv = [f"--caps={caps}"] if joined else ["--caps", caps]
    status, out, err = run(capsys, "cohomology", "paper_sec4", *argv)
    assert status == 2
    assert out == ""
    assert f"cap {cap}" in err
    assert "Traceback" not in err


def test_zero_weight_cap_is_valid(capsys):
    status, out, _ = run(capsys, "validate", "paper_sec4", "--caps", "0,2,3")
    assert status == 0


def test_arity_one_cap_is_valid(capsys):
    """max_arity 0 is rejected (the operator side would have no stable
    degree, so every check compared nothing); at 1 the check compares
    functions."""
    status, out, _ = run(capsys, "duflo-check", "paper_sec4", "--caps", "6,4,1", "--json")
    assert status == 0
    assert json.loads(out)["results"]["twisted"]["window"]["max_total_degree"] == -1


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id="=".join(argv[-2:])) for argv, message in [
        (["duflo-check", "paper_sec4", "--sample-cap", "-1"], "argument --sample-cap: must be"),
        (["duflo-check", "paper_sec4", "--sample-cap", "0"], "argument --sample-cap: must be"),
        (["axioms", "abelian_trivial", "--cases", "-5"], "argument --cases: must be"),
        (["axioms", "abelian_trivial", "--cases", "0"], "argument --cases: must be"),
        (["atiyah", "paper_sec4", "--caps", "-3,4,4"], "cap max_weight must be"),
    ]])
def test_out_of_range_option_exits_2(capsys, argv, message):
    """A count or window below its smallest meaningful value is a usage
    error naming the option or cap, not a traceback or a vacuous pass."""
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, check", [
    pytest.param(["duflo-check", "paper_sec4", "--sample-cap", "1"],
                 lambda r: r["twisted"]["pairs_checked"] == 1 and r["twisted"]["sampled"],
                 id="--sample-cap=1"),
    pytest.param(["axioms", "abelian_trivial", "--cases", "1"],
                 lambda r: r["tpoly"]["cases"] == 1, id="--cases=1"),
    pytest.param(["atiyah", "paper_sec4", "--caps", "0,4,4"],
                 lambda r: r["obstruction"]["window"] == 0, id="--caps=0,4,4"),
])
def test_smallest_valid_option_runs(capsys, argv, check):
    status, out, _ = run(capsys, *argv, "--json")
    assert status == 0
    assert check(json.loads(out)["results"])


@pytest.mark.parametrize("command", ["validate", "atiyah", "todd", "cohomology"])
def test_seed_only_where_something_is_random(capsys, command):
    """Only axioms and duflo-check draw at random; the other commands
    take no --seed, and a run that passes one is a usage error."""
    status, out, err = run(capsys, command, "paper_sec4", "--seed", "0")
    assert (status, out) == (2, "")
    assert err.startswith(f"usage: gman {command} [-h] [--json] [--caps CAPS] scenario\n")
    assert f"gman {command}: error: unrecognized arguments: --seed 0" in err


PARSE_CASES = {
    name: [[], ["--json"], ["--caps", "-3,4,4"], ["--caps", "6,4,5", "--json"]] + extra
    for name, extra in {
        "validate": [], "atiyah": [], "todd": [], "cohomology": [],
        "axioms": [["--seed", "5"], ["--cases", "7"], ["--json", "--cases", "1", "--seed", "-2"]],
        "duflo-check": [["--seed", "5"], ["--sample-cap", "9"],
                        ["--sample-cap", "1", "--seed", "3", "--caps", "-1,0,0"]],
    }.items()}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_subcommand_parser_agrees_with_the_whole_tree(monkeypatch, capsys, name):
    """main parses a named subcommand with that subcommand's parser alone;
    the Namespace it hands on equals the whole tree's on the same argv
    (with --caps glued as main glues it), and so does its --help text."""
    assert set(PARSE_CASES) == set(cli.COMMANDS)
    seen = []

    def load(args):
        seen.append(args)
        raise cli.ScenarioError("parsed")
    monkeypatch.setattr(cli, "_load", load)
    for rest in PARSE_CASES[name]:
        argv = [name, "paper_sec4", *rest]
        assert main(argv) == 2
        glued = " ".join(argv).replace("--caps ", "--caps=").split()
        assert seen.pop() == cli.build_parser().parse_args(glued), argv
    capsys.readouterr()

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([name, "--help"])
    whole = capsys.readouterr().out
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out == whole
    assert whole.startswith(f"usage: gman {name} [-h]")


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gman [-h] [--version]")
    for name, command in cli.COMMANDS.items():
        assert f"    {name}" in out
        assert " ".join(command.__doc__.split()) in " ".join(out.split())


@pytest.mark.parametrize("argv, parsers", [
    (["atiyah", "paper_sec4", "--json"], 1),
    (["--help"], 1 + len(cli.COMMANDS)),
    (["--version"], 1 + len(cli.COMMANDS)),
    (["frobnicate", "paper_sec4"], 1 + len(cli.COMMANDS)),
])
def test_parsers_built_per_invocation(capsys, monkeypatch, argv, parsers):
    """A named subcommand builds its own parser and no other; only --help,
    --version and a missing or unknown subcommand build the whole tree."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    main(argv)
    capsys.readouterr()
    assert len(built) == parsers, built


@pytest.mark.parametrize("argv", [
    ["atiyah", "paper_sec4", "--json"],
    ["todd", "paper_sec4", "--json"],
    ["cohomology", "paper_sec4", "--json"],
    ["duflo-check", "paper_sec4", "--json", "--seed", "5"],
    ["axioms", "abelian_trivial", "--json", "--cases", "10", "--seed", "1"],
])
def test_json_reports_are_deterministic(capsys, argv):
    s1, out1, _ = run(capsys, *argv)
    s2, out2, _ = run(capsys, *argv)
    assert s1 == s2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["tool"] == "gman"
    assert len(report["scenario_digest"]) == 64


def test_cohomology_report_shape(capsys):
    status, out, _ = run(capsys, "cohomology", "paper_sec4", "--json")
    assert status == 0
    report = json.loads(out)
    res = report["results"]
    assert res["hkr"]["dimensions_match"] is True
    assert res["tpoly"]["all_stable"] and res["dpoly"]["all_stable"]
    nonzero = [(e["weight"], e["total_degree"]) for e in res["tpoly"]["slices"]
               if e["dim_H"]]
    assert nonzero == [(-2, 1), (-1, 0), (0, -1), (0, 0), (1, 0), (1, 1)]


def test_truncated_hkr_mismatch_exits_2(capsys):
    """At order cap 1 the only sl2 mismatch sits in a slice below the
    order bound, marked unstable: inconclusive, not falsified."""
    status, out, err = run(capsys, "cohomology", "sl2_linear", "--caps", "1,1,3", "--json")
    assert status == 2
    res = json.loads(out)["results"]
    assert [(m["weight"], m["total_degree"]) for m in res["hkr"]["mismatches"]] == [(-2, 1)]
    assert res["hkr"]["hkr_injective_on_H"]
    assert "max_order=1" in err and "(w -2, k 1)" in err


def test_hkr_mismatch_in_stable_slice_exits_1(capsys, monkeypatch):
    """Negative control: the same mismatch in a slice reported stable is
    a falsification."""
    report = cli.cohomology_report

    def all_stable(ws):
        rep = report(ws)
        for e in rep["slices"]:
            e["stable"] = True
        return rep
    monkeypatch.setattr(cli, "cohomology_report", all_stable)
    status, _, err = run(capsys, "cohomology", "sl2_linear", "--caps", "1,1,3", "--json")
    assert status == 1
    assert err == ""


@pytest.mark.parametrize("name, caps, bitten, pairs", [
    ("paper_sec4", "2,1,2", "max_order=1", "(w 1, k 0, #0) x (w 1, k 0, #0)"),
    ("sl2_linear", "2,2,3", "max_arity=3, max_order=2",
     "(w -2, k 1, #0) x (w -2, k 1, #0), (w -2, k 1, #0) x (w 0, k 0, #0)"),
])
def test_duflo_residual_beyond_caps_exits_2(capsys, name, caps, bitten, pairs):
    """A residual row of higher order or arity than the operator basis
    cannot reduce in the truncated complex: inconclusive, not falsified."""
    status, out, err = run(capsys, "duflo-check", name, "--caps", caps, "--json")
    assert status == 2
    assert not json.loads(out)["results"]["twisted"]["all_reduce"]
    assert f"beyond the cap(s) {bitten}: {pairs}" in err


def test_duflo_residual_within_caps_exits_1(capsys, monkeypatch):
    """Negative control: the same failing pair, its residual moved into
    the window (every row a function), is a falsification."""
    check = cli.duflo_check

    def in_window(tp, dp, twist, **kwargs):
        rep = check(tp, dp, twist, **kwargs)
        for f in rep["failures"]:
            for rows in (f["product_residual"], f["bracket_residual"]):
                for row in rows:
                    row[1] = []
        return rep
    monkeypatch.setattr(cli, "duflo_check", in_window)
    status, out, err = run(capsys, "duflo-check", "paper_sec4", "--caps", "2,1,2", "--json")
    assert status == 1
    assert json.loads(out)["results"]["twisted"]["failures"]
    assert err == ""


def _edit_failures(monkeypatch, edit):
    """Make duflo-check apply edit to the failing pairs of each report."""
    check = cli.duflo_check

    def edited(tp, dp, twist, **kwargs):
        rep = check(tp, dp, twist, **kwargs)
        edit(rep["failures"])
        return rep
    monkeypatch.setattr(cli, "duflo_check", edited)


def _set_mids(failures, mid):
    for f in failures:
        for row in f["product_residual"] + f["bracket_residual"]:
            row[1] = mid


@pytest.mark.parametrize("mid, code", [
    pytest.param([[1], [0]], 1, id="order-and-arity-at-the-caps"),
    pytest.param([[2]], 2, id="order-beyond"),
    pytest.param([[0], [0], [0]], 2, id="arity-beyond"),
])
def test_duflo_residual_at_the_caps_is_within_them(capsys, monkeypatch, mid, code):
    """At caps 2,1,2 a residual row of total order 1 and arity 2 lies in
    the window, so its failing pair is a falsification; one more of either
    and the pair is inconclusive."""
    _edit_failures(monkeypatch, lambda failures: _set_mids(failures, mid))
    status, out, err = run(capsys, "duflo-check", "paper_sec4", "--caps", "2,1,2", "--json")
    assert status == code
    assert json.loads(out)["results"]["twisted"]["failures"]
    assert ("beyond the cap(s)" in err) == (code == 2)


def test_duflo_one_pair_within_caps_exits_1(capsys, monkeypatch):
    """Negative control: of sl2's two failing pairs at caps 2,2,3, the
    last moved into the window (every row a function) is a falsification,
    though the first is still beyond the caps."""
    _edit_failures(monkeypatch, lambda failures: _set_mids(failures[-1:], []))
    status, out, err = run(capsys, "duflo-check", "sl2_linear", "--caps", "2,2,3", "--json")
    assert status == 1
    assert len(json.loads(out)["results"]["twisted"]["failures"]) == 2
    assert err == ""


def test_hkr_mismatch_in_a_stable_and_an_unstable_slice_exits_1(capsys, monkeypatch):
    """Negative control: sl2's mismatch at caps 1,1,3 sits in an unstable
    slice; one more in a stable slice beside it is a falsification."""
    report, check = cli.cohomology_report, cli.hkr_check
    reports = []

    def recorded(ws):
        reports.append(report(ws))
        return reports[-1]

    def one_more(tp, dp):
        match = check(tp, dp)
        stable = next(e for e in reports[-1]["slices"] if e["stable"])
        match["mismatches"].append({"weight": stable["weight"],
                                    "total_degree": stable["total_degree"]})
        return match
    monkeypatch.setattr(cli, "cohomology_report", recorded)
    monkeypatch.setattr(cli, "hkr_check", one_more)
    status, out, err = run(capsys, "cohomology", "sl2_linear", "--caps", "1,1,3", "--json")
    assert status == 1
    assert len(json.loads(out)["results"]["hkr"]["mismatches"]) == 2
    assert err == ""


def test_todd_sqrt_scaled_by_2_exits_1(capsys, monkeypatch):
    """Negative control: a square root that does not square to td is a
    falsification."""
    sqrt = cli.todd_sqrt
    monkeypatch.setattr(cli, "todd_sqrt", lambda s: sqrt(s).scale(2))
    status, out, _ = run(capsys, "todd", "paper_sec4", "--json")
    assert status == 1
    assert json.loads(out)["results"]["sqrt_squares_to_todd"] is False


def test_atiyah_cocycle_not_closed_exits_1(capsys, monkeypatch):
    """Negative control: an Atiyah cocycle that is not CE-closed is a
    falsification."""
    monkeypatch.setattr(cli, "is_ce_closed", lambda s, r: False)
    status, out, err = run(capsys, "atiyah", "paper_sec4", "--json")
    assert (status, err) == (1, "")
    assert json.loads(out)["results"]["ce_closed"] is False


def test_axioms_one_failing_identity_exits_1(capsys, monkeypatch):
    """Negative control: one identity that fails (a polyvector cochain
    equal to 0) is a falsification."""
    from gman import checks
    identities = checks.tpoly_identities

    def one_false(d, a, b, c, degs):
        return {**identities(d, a, b, c, degs), "a_vanishes": [(checks.add_cochain, (a,), 1)]}
    monkeypatch.setattr(checks, "tpoly_identities", one_false)
    status, out, err = run(capsys, "axioms", "sl2_linear", "--cases", "3", "--json")
    assert (status, err) == (1, "")
    res = json.loads(out)["results"]
    assert {f["identity"] for f in res["tpoly"]["failures"]} == {"a_vanishes"}
    assert res["dpoly"]["failures"] == []


def test_hkr_not_injective_decides_beside_an_unstable_mismatch(capsys, monkeypatch):
    """Negative control: at caps 1,1,3 sl2's one dim H mismatch lies in an
    unstable slice, which alone is inconclusive; an HKR map that is not
    injective on H beside it is a falsification."""
    check = cli.hkr_check

    def not_injective(tp, dp):
        return {**check(tp, dp), "hkr_injective_on_H": False}
    monkeypatch.setattr(cli, "hkr_check", not_injective)
    status, out, err = run(capsys, "cohomology", "sl2_linear", "--caps", "1,1,3", "--json")
    assert (status, err) == (1, "")
    hkr = json.loads(out)["results"]["hkr"]
    assert [(m["weight"], m["total_degree"]) for m in hkr["mismatches"]] == [(-2, 1)]


def test_connection_fixture_passes_duflo_check(capsys):
    """The sl2 scenario with a weight-1 connection satisfies the Duflo
    statement, as its flat case does, so duflo-check must exit 0 there:
    the weight-1 part of its td^{1/2} puts residual parts outside the
    weight of the pair, and each reduces in its own slice."""
    status, _, _ = run(capsys, "duflo-check", str(FIXTURES / "sl2_linear_connection.json"),
                       "--json")
    assert status == 0


def test_nilpotent_connection_still_fails_duflo_check(capsys):
    """Reducing weight by weight hides no real failure: on the nilpotent
    fixture both twists still fail pairs and duflo-check exits 1, from the
    bracket signs of the two sides (the strict xfail of test_dpoly)."""
    status, out, _ = run(capsys, "duflo-check", str(FIXTURES / "nilpotent_connection.json"),
                         "--json")
    res = json.loads(out)["results"]
    assert status == 1
    assert res["twisted"]["failures"] and res["hkr_only"]["failures"]


@pytest.mark.parametrize("name, passes", [
    ("abelian_trivial", 1), ("sl2_linear", 1), ("paper_sec4", 2)])
def test_one_duflo_pass_per_distinct_twist_map(capsys, monkeypatch, name, passes):
    """Where td^{1/2} is the unit, hkr alone is the same map as the
    twisted one: duflo_check runs once and its report serves both twists,
    with only "twist" changed.  paper_sec4's td^{1/2} is not the unit."""
    calls = []
    check = cli.duflo_check
    monkeypatch.setattr(cli, "duflo_check", lambda *a, **kw: calls.append(a[2]) or check(*a, **kw))
    status, out, _ = run(capsys, "duflo-check", name, "--json")
    assert status == 0
    assert len(calls) == passes
    res = json.loads(out)["results"]
    assert res["twisted"]["twist"] == "td_sqrt" and res["hkr_only"]["twist"] == "hkr_only"
    if passes == 1:
        assert {**res["hkr_only"], "twist": "td_sqrt"} == res["twisted"]


@pytest.mark.parametrize("name", ["abelian_trivial", "paper_sec4"])
def test_duflo_check_computes_td_sqrt_once(capsys, monkeypatch, name):
    """duflo-check computes td^{1/2} once per run: the twisted pass and the
    test for one map across both twists share it."""
    from gman import cohomology
    calls = []
    sqrt = cohomology.todd_sqrt
    monkeypatch.setattr(cohomology, "todd_sqrt", lambda s: calls.append(s) or sqrt(s))
    status, _, _ = run(capsys, "duflo-check", name, "--json")
    assert (status, len(calls)) == (0, 1)


def test_internal_error_exits_3(capsys, monkeypatch):
    """An exception inside a subcommand is not a falsification (exit 1)."""
    monkeypatch.setitem(cli.COMMANDS, "validate", lambda s, digest, args: 1 // 0)
    status, out, err = run(capsys, "validate", "paper_sec4", "--json")
    assert status == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" in err and "ZeroDivisionError" in err


def test_internal_error_while_loading_exits_3(capsys, monkeypatch):
    """An exception other than a scenario error while loading is not a
    falsification either."""
    def broken(text):
        raise RuntimeError("loader bug")
    monkeypatch.setattr(cli, "load_scenario", broken)
    status, out, err = run(capsys, "validate", "paper_sec4")
    assert status == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: loader bug" in err


@pytest.mark.parametrize("change, message", [
    ({"action": [[[[-2, "1"]]]]}, "non-negative integer"),
    ({"action": [[[[1.7, "1"]]]]}, "non-negative integer"),
    ({"structure_constants": [[0, 3, [[0, "1"]]]]}, "index outside"),
    ({"dim_m": 2, "coordinate_weights": [1, 1], "action": [[[], []]],
      "christoffel": [[[]], [[]]]}, "christoffel must be indexed"),
    ({"dim_m": 0, "coordinate_weights": [], "action": [[]]}, "dim_m >= 1"),
    ({"coordinate_weights": [1.5]}, "coordinate_weights must be an integer, got 1.5"),
    ({"caps": {"max_weight": 4.7}}, "cap max_weight must be an integer, got 4.7"),
    ({"structure_constants": 5}, "structure_constants must be a list"),
    ({"action": [[[[1, "1/0"]]]]}, "action[0][0]: malformed polynomial encoding"),
    ({"christoffel": [[[[[0, "1/0"]]]]]}, "christoffel[0][0][0]: malformed polynomial encoding"),
    ({"dim_g": 2, "action": [[[]], [[]]], "structure_constants": [[0, 1, [[0, "1/0"]]]]},
     "malformed structure constant entry"),
    ({"structure_constants": [[0, 0, [[0, "1"]]]]}, "[e_i, e_i] = 0"),
    # a second entry for a pair: read as a sum, these were the abelian
    # algebra and a doubled bracket
    ({"dim_g": 2, "action": [[[]], [[]]],
      "structure_constants": [[0, 1, [[1, "1"]]], [1, 0, [[1, "1"]]]]},
     "[e_1, e_0] is given a second time"),
    ({"dim_g": 2, "action": [[[]], [[]]],
      "structure_constants": [[0, 1, [[1, "1"]]], [0, 1, [[1, "1"]]]]},
     "[e_0, e_1] is given a second time"),
    # entries with no [k, c] pairs: checked as well, not skipped
    ({"dim_g": 2, "action": [[[]], [[]]], "structure_constants": [[7, 9, []], [0, 0, []]]},
     "malformed structure constant entry [7, 9, []]: index outside 0..1"),
    ({"dim_g": 2, "action": [[[]], [[]]], "structure_constants": [[0, 0, []]]},
     "[e_i, e_i] = 0"),
    ({"dim_g": 2, "action": [[[]], [[]]], "structure_constants": [[0, 1, {}]]},
     "{} is not a list of [k, c] pairs"),
    # coefficients are exact: a float was read as the rational of its repr
    ({"action": [[[[2, 0.1]]]]},
     "action[0][0]: term [2, 0.1] has coefficient 0.1, not a string or an integer"),
    ({"dim_g": 2, "action": [[[]], [[]]], "structure_constants": [[0, 1, [[1, 0.5]]]]},
     "malformed structure constant entry [0, 1, [[1, 0.5]]]: [k, c] pair [1, 0.5] "
     "has coefficient 0.5, not a string or an integer"),
    ({"christoffel": [[[[[0, 1.0]]]]]}, "christoffel[0][0][0]: term [0, 1.0] has coefficient 1.0"),
    ({"action": [[[[1, True]]]]}, "action[0][0]: term [1, True] has coefficient True"),
])
def test_malformed_shape_exits_2(capsys, tmp_path, change, message):
    doc = {"dim_g": 1, "dim_m": 1, "coordinate_weights": [1],
           "structure_constants": [], "action": [[[]]], **change}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    status, out, err = run(capsys, "validate", str(p))
    assert (status, out) == (2, "")
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change, message", [
    ({"christoffel": 5}, "christoffel must be indexed [k][i][j], each in 0..0"),
    ({"caps": [1]}, "malformed caps: 'list' object has no attribute 'get'"),
])
def test_shape_reported_before_the_morphism_check(capsys, tmp_path, change, message):
    """A malformed christoffel or caps entry is reported as such, not as
    the action failing to be a morphism, which it also does."""
    doc = two_generator_doc(1, [1], "1", "1", "2", {})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(p))[2].startswith(
        "error: action is not a Lie algebra morphism")
    p.write_text(json.dumps({**doc, **change}))
    status, out, err = run(capsys, "validate", str(p))
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_duflo_report_shape(capsys):
    status, out, _ = run(capsys, "duflo-check", "paper_sec4", "--json")
    assert status == 0
    report = json.loads(out)
    res = report["results"]
    assert res["twisted"]["all_reduce"] is True
    assert res["twisted"]["classes"] == 6
    assert res["twisted"]["failures"] == []


@pytest.mark.parametrize("argv, fixture, code", [
    (["cohomology", "paper_sec4"], "paper_sec4_cohomology.json", 0),
    (["duflo-check", "paper_sec4"], "paper_sec4_duflo.json", 0),
    (["duflo-check", "sl2_linear", "--caps", "2,2,3"], "sl2_linear_caps_2_2_3_duflo.json", 2),
    (["duflo-check", "abelian_trivial", "--caps", "24,4,4", "--sample-cap", "4000",
      "--seed", "3"], "abelian_trivial_caps_24_4_4_duflo.json", 0),
    (["duflo-check", "paper_sec4", "--caps", "2,1,2"], "paper_sec4_caps_2_1_2_duflo.json", 2),
    (["cohomology", "sl2_linear", "--caps", "1,4,4"], "sl2_linear_caps_1_4_4_cohomology.json", 0),
    (["duflo-check", str(FIXTURES / "sl2_linear_connection.json")],
     "sl2_linear_connection_duflo.json", 0),
])
def test_report_matches_golden_fixture(capsys, argv, fixture, code):
    """The cohomology and Duflo reports, with their exit codes, are
    byte-identical to stored fixtures: sl2_linear's cohomology pins
    elimination and the stable flags on a three-generator operator
    complex.  The sl2 Duflo report and the paper_sec4 one at caps 2,1,2,
    whose td^{1/2} is not the unit, have failures in both twists, every
    one beyond the caps.  The sl2 scenario with a weight-1 connection
    passes both, its residuals reduced weight by weight."""
    status, out, _ = run(capsys, *argv, "--json")
    assert status == code
    assert out == (FIXTURES / fixture).read_text()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gman ")


class ClosedPipe:
    """A standard output whose reader has gone away."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, tmp_path, json_flag):
    """A reader that closes the pipe early (gman ... | head) gets the fixed
    status and no traceback; the rest of the output goes to devnull."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        status = main(["axioms", "sl2_linear", "--cases", "2", *json_flag])
    finally:
        os.close(fd)
    assert status == cli.BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("stable, code", [(False, 2), (True, 1)])
def test_closed_stdout_keeps_a_failing_status(capsys, monkeypatch, tmp_path, stable, code):
    """A cap-decided (2) or falsified (1) run keeps its status when the
    reader closes the pipe; only a run that passed reports 141."""
    report = cli.cohomology_report

    def audited(ws):
        rep = report(ws)
        for e in rep["slices"]:
            e["stable"] = e["stable"] or stable
        return rep
    monkeypatch.setattr(cli, "cohomology_report", audited)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        status = main(["cohomology", "sl2_linear", "--caps", "1,1,3", "--json"])
    finally:
        os.close(fd)
    assert status == code
    assert ("max_order=1" in capsys.readouterr().err) == (code == 2)


def test_closed_pipe_in_a_subprocess_prints_nothing():
    """The same at interpreter exit: the read end is closed before gman
    writes, and neither the report nor the final flush leaves a trace."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "gman.cli", "axioms", "sl2_linear",
                             "--cases", "2", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


def test_start_up_imports_no_dataclasses_or_inspect():
    """`import gman.cli` is all of a run's start-up.  It does not load
    dataclasses, which would also load inspect, ast and dis, nor hashlib,
    which would also load OpenSSL through _hashlib, nor
    importlib.resources.  The interpreter runs with -S, so no module that
    site would preload can hide one that gman loads."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    probe = ("import gman.cli, sys; print(sorted({'dataclasses', 'inspect', 'hashlib', "
             "'_hashlib', 'importlib.resources'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.strip() == "[]"


def canonical_sha256(name: str) -> str:
    with open(os.path.join(cli.DATA, name + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_scenario_digest_is_sha256_of_canonical_json(capsys, name):
    status, out, _ = run(capsys, "validate", name, "--json")
    assert status == 0
    assert json.loads(out)["scenario_digest"] == canonical_sha256(name)


def test_scenario_digest_without_the_built_in_sha256():
    """Where neither _sha2 nor _sha256 can be imported the digest comes
    from hashlib, and it is the same."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import json, gman.cli\n"
            "print(json.dumps(['hashlib' in sys.modules] + [gman.cli._load(gman.cli.build_parser()"
            ".parse_args(['validate', n]))[1] for n in gman.cli.BUNDLED]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [True] + [canonical_sha256(n) for n in cli.BUNDLED]
