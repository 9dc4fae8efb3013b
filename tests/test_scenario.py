import copy

import pytest

from conftest import bundled_doc
from gman.poly import Poly
from gman.scenario import ScenarioError, load_scenario, vf_bracket


def test_bundled_scenarios_load():
    for name, (m, n) in [("paper_sec4", (1, 1)), ("sl2_linear", (3, 2)),
                         ("abelian_trivial", (1, 1))]:
        doc = bundled_doc(name)
        s = load_scenario(doc, name=name)
        assert (s.dim_g, s.n) == (m, n)
        assert s.name == name


def test_action_weights():
    s = load_scenario(bundled_doc("paper_sec4"))
    assert s.action_weights == (1,)
    s2 = load_scenario(bundled_doc("sl2_linear"))
    assert s2.action_weights == (0, 0, 0)


def test_parse_error():
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario("{not json")


def test_missing_header():
    with pytest.raises(ScenarioError):
        load_scenario({"dim_g": 1})


def test_bad_weights():
    doc = bundled_doc("paper_sec4")
    doc["coordinate_weights"] = [0]
    with pytest.raises(ScenarioError, match="positive"):
        load_scenario(doc)


def test_jacobi_violation_reports_witness():
    doc = bundled_doc("sl2_linear")
    doc["structure_constants"][2] = [1, 2, [[1, "1"]]]
    with pytest.raises(ScenarioError, match="Jacobi"):
        load_scenario(doc)


def test_morphism_violation_reports_pair():
    doc = bundled_doc("sl2_linear")
    doc["action"][1] = [[], [[1, 0, "2"]]]  # e acts as 2x d_y
    with pytest.raises(ScenarioError, match="morphism"):
        load_scenario(doc)


def test_inhomogeneous_action_rejected():
    doc = bundled_doc("paper_sec4")
    doc["action"][0][0] = [[2, "1"], [0, "1"]]  # x^2 + 1
    with pytest.raises(ScenarioError, match="inhomogeneous"):
        load_scenario(doc)


def test_torsion_rejected():
    doc = bundled_doc("sl2_linear")
    doc["christoffel_shift"] = 1
    zero = []
    one = [[0, 0, "1"]]
    doc["christoffel"] = [[[one, one], [zero, zero]],
                          [[zero, zero], [zero, zero]]]
    with pytest.raises(ScenarioError, match="torsion"):
        load_scenario(doc)


def test_christoffel_homogeneity_enforced():
    doc = bundled_doc("paper_sec4")
    doc["christoffel"] = [[[[[0, "1"]]]]]  # constant needs shift 1, none given
    with pytest.raises(ScenarioError, match="weight"):
        load_scenario(doc)
    doc["christoffel_shift"] = 1
    s = load_scenario(doc)
    assert s.gamma(0, 0, 0) == Poly.const(1, 1)


def test_caps_defaults_and_override():
    doc = bundled_doc("paper_sec4")
    del doc["caps"]
    s = load_scenario(doc)
    assert (s.caps.max_weight, s.caps.max_order, s.caps.max_arity) == (6, 4, 4)
    assert s.caps.max_ce_degree == s.dim_g


@pytest.mark.parametrize("caps, cap", [
    ({"max_order": -1}, "max_order"),
    ({"max_order": 0}, "max_order"),
    ({"max_arity": -2}, "max_arity"),
    ({"max_ce_degree": -1}, "max_ce_degree"),
])
def test_bad_json_caps_rejected(caps, cap):
    doc = bundled_doc("paper_sec4")
    doc["caps"].update(caps)
    with pytest.raises(ScenarioError, match=f"cap {cap}"):
        load_scenario(doc)


def test_vf_bracket_against_action():
    s = load_scenario(bundled_doc("sl2_linear"))
    h, e, f = s.action
    assert vf_bracket(h, e) == e.scale(2)
    assert vf_bracket(h, f) == f.scale(-2)
    assert vf_bracket(e, f) == h


def test_covariant_basis():
    doc = bundled_doc("paper_sec4")
    doc["christoffel"] = [[[[[1, "3"]]]]]
    doc["christoffel_shift"] = 2
    s = load_scenario(doc)
    nabla = s.covariant_basis(0, 0)
    assert nabla.vf_components()[0] == Poly.monomial((1,), 3)
