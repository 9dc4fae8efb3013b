import json

import pytest

from gman.cli import main


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
    status, _, err = run(capsys, "validate", str(p))
    assert status == 2
    assert "Jacobi" in err


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
    status, _, err = run(capsys, "validate", "paper_sec4", "--caps", "4,2")
    assert status == 2


@pytest.mark.parametrize("caps, cap", [
    ("6,-1,4", "max_order"),
    ("6,0,4", "max_order"),
    ("-3,-3,-3", "max_weight"),
])
def test_out_of_range_caps_exit_2(capsys, caps, cap):
    status, out, err = run(capsys, "cohomology", "paper_sec4", f"--caps={caps}")
    assert status == 2
    assert out == ""
    assert f"cap {cap}" in err
    assert "Traceback" not in err


def test_zero_weight_cap_is_valid(capsys):
    status, out, _ = run(capsys, "validate", "paper_sec4", "--caps", "0,2,3")
    assert status == 0


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


def test_duflo_report_shape(capsys):
    status, out, _ = run(capsys, "duflo-check", "paper_sec4", "--json")
    assert status == 0
    report = json.loads(out)
    res = report["results"]
    assert res["twisted"]["all_reduce"] is True
    assert res["twisted"]["classes"] == 6
    assert res["twisted"]["failures"] == []


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gman ")
