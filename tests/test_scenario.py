import copy
import random
from fractions import Fraction

import pytest

from conftest import at0, bundled_doc, covariant_basis, gamma, morphism_reference
from gman.calculus import PolyVector, ext_schouten
from gman.poly import Poly, unit
from gman.scenario import Caps, Scenario, ScenarioError, load_scenario


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
    assert gamma(s, 0, 0, 0) == Poly.const(1, 1)


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
    ({"max_arity": 0}, "max_arity"),
    ({"max_weight": 4.7}, "max_weight"),
    ({"max_order": True}, "max_order"),
    ({"max_arity": "3"}, "max_arity"),
    ({"max_ce_degree": 0.5}, "max_ce_degree"),
])
def test_bad_json_caps_rejected(caps, cap):
    doc = bundled_doc("paper_sec4")
    doc["caps"].update(caps)
    with pytest.raises(ScenarioError, match=f"cap {cap}"):
        load_scenario(doc)


@pytest.mark.parametrize("caps, message", [
    ((6, 0, 4, 1), "cap max_order must be at least 1, got 0"),
    ((6, 4, 4, True), "cap max_ce_degree must be a non-negative integer, got True"),
])
def test_caps_validate_when_built(caps, message):
    """Caps checks its fields when it is built, not only when loaded."""
    with pytest.raises(ScenarioError) as exc:
        Caps(*caps)
    assert str(exc.value) == message


def test_caps_replace_validates():
    """_replace builds through the same checks as Caps(...)."""
    with pytest.raises(ScenarioError) as exc:
        Caps(6, 4, 4, 1)._replace(max_order=0)
    assert str(exc.value) == "cap max_order must be at least 1, got 0"
    assert Caps(6, 4, 4, 1)._replace(max_weight=10) == Caps(10, 4, 4, 1)


def test_replace_gives_a_scenario():
    s = load_scenario(bundled_doc("paper_sec4"))
    t = s._replace(caps=Caps(2, 1, 2, s.caps.max_ce_degree))
    assert type(t) is Scenario and type(t.caps) is Caps
    assert t.caps.to_json() == {"max_weight": 2, "max_order": 1, "max_arity": 2,
                                "max_ce_degree": s.caps.max_ce_degree}
    assert (t.n, t.lie, t.action, t.name, t.dim_g) == (s.n, s.lie, s.action, s.name, s.dim_g)


def _tiny(**change) -> dict:
    return {"dim_g": 1, "dim_m": 1, "coordinate_weights": [1],
            "structure_constants": [], "action": [[[]]], **change}


@pytest.mark.parametrize("doc, message", [
    (_tiny(action=[[[[-2, "1"]]]]), "not a non-negative integer"),
    (_tiny(action=[[[[1.7, "1"]]]]), "not a non-negative integer"),
    (_tiny(action=[[[[True, "1"]]]]), "not a non-negative integer"),
    (_tiny(structure_constants=[[0, 3, [[0, "1"]]]]), "index outside 0..0"),
    (_tiny(structure_constants=[[0, 0, [[-1, "1"]]]]), "index outside 0..0"),
    (_tiny(dim_m=2, coordinate_weights=[1, 1], action=[[[], []]],
           christoffel=[[[]], [[]]]), "christoffel must be indexed"),
    (_tiny(christoffel=[[[], []]]), "christoffel must be indexed"),
    (_tiny(christoffel=[5]), "christoffel must be indexed"),
    (_tiny(dim_m=0, coordinate_weights=[], action=[[]]), "dim_m >= 1"),
    (_tiny(dim_g=-1, action=[]), "dim_g >= 0"),
    (_tiny(action=5), "action must list 1 vector fields"),
    (_tiny(action=[[[], []]]), "of 1 coordinate components"),
    (_tiny(coordinate_weights=[1.5]), "coordinate_weights must be an integer, got 1.5"),
    (_tiny(dim_g=1.9), "dim_g must be an integer, got 1.9"),
    (_tiny(dim_m=True), "dim_m must be an integer, got True"),
    (_tiny(christoffel_shift=0.5), "christoffel_shift must be an integer, got 0.5"),
    (_tiny(christoffel_shift="1"), "christoffel_shift must be an integer, got '1'"),
    # the location is named once, not once more by a wrapping handler
    (_tiny(action=[[[[1, 0, "1"]]]]), r"^action\[0\]\[0\]: term \[1, 0, '1'\] has 2 exponents"),
    (_tiny(action=[[[[-2, "1"]]]]), r"^action\[0\]\[0\]: term \[-2, '1'\] has an exponent"),
    # entries with no [k, c] pairs are checked as well, not skipped
    (_tiny(dim_g=2, action=[[[]], [[]]], structure_constants=[[7, 9, []], [0, 0, []]]),
     r"entry \[7, 9, \[\]\]: index outside 0..1"),
    (_tiny(dim_g=2, action=[[[]], [[]]], structure_constants=[[0, 0, []]]),
     r"\[e_i, e_i\] = 0"),
    (_tiny(dim_g=2, action=[[[]], [[]]], structure_constants=[[0, 1, "01"]]),
     "'01' is not a list of"),
])
def test_malformed_shapes_rejected(doc, message):
    with pytest.raises(ScenarioError, match=message):
        load_scenario(doc)


def test_action_shape_checked_before_the_algebra(monkeypatch):
    """A wrong action shape is reported before the algebra is built, whose
    checks loop over every generator: dim_g = 400 with one vector field."""
    def unbuilt(*args):
        raise AssertionError("LieAlgebra built before the action shape was checked")
    monkeypatch.setattr("gman.scenario.LieAlgebra", unbuilt)
    doc = dict(bundled_doc("paper_sec4"), dim_g=400)
    with pytest.raises(ScenarioError, match="action must list 400 vector fields of 1 "):
        load_scenario(doc)


def test_flat_shapes_still_accepted():
    """The smallest well-formed documents: no algebra, or a full
    christoffel array of empty polynomials."""
    assert load_scenario(_tiny(dim_g=0, action=[])).dim_g == 0
    assert load_scenario(_tiny(christoffel=[[[[]]]])).christoffel == {}


def test_schouten_against_action():
    s = load_scenario(bundled_doc("sl2_linear"))
    h, e, f = s.action
    assert at0(ext_schouten, h, e) == e.scale(2)
    assert at0(ext_schouten, h, f) == f.scale(-2)
    assert at0(ext_schouten, e, f) == h


def action_doc(action) -> list:
    """The scenario-file encoding of a list of vector fields."""
    return [[[[*e, str(c)] for e, c in sorted(vf.terms[(j,)].terms.items())]
             if (j,) in vf.terms else [] for j in range(vf.n)] for vf in action]


def test_morphism_check_matches_pair_loop():
    """On seeded random perturbations of the sl2_linear action by linear
    terms (homogeneous of weight 0, so only the morphism check can fail),
    load_scenario fails exactly when the pair-by-pair commutator check
    does, with its message."""
    rng = random.Random(23)
    s = load_scenario(bundled_doc("sl2_linear"))
    broken = 0
    for _ in range(60):
        action = list(s.action)
        for _ in range(rng.randint(1, 3)):
            a, j, i = rng.randrange(3), rng.randrange(2), rng.randrange(2)
            coeff = rng.choice([-2, -1, 1, Fraction(1, 2)])
            action[a] = action[a] + PolyVector(2, {(j,): Poly.monomial(unit(2, i), coeff)})
        doc = bundled_doc("sl2_linear")
        doc["action"] = action_doc(action)
        want = morphism_reference(s.lie, action)
        if want is None:
            assert load_scenario(doc).action == tuple(action)
            continue
        broken += 1
        with pytest.raises(ScenarioError) as exc:
            load_scenario(doc)
        assert str(exc.value) == want
    assert broken >= 40
    assert action_doc(s.action) == [[[[1, 0, "1"]], [[0, 1, "-1"]]], [[], [[1, 0, "1"]]],
                                    [[[0, 1, "1"]], []]]


def test_covariant_basis():
    doc = bundled_doc("paper_sec4")
    doc["christoffel"] = [[[[[1, "3"]]]]]
    doc["christoffel_shift"] = 2
    s = load_scenario(doc)
    nabla = covariant_basis(s, 0, 0)
    assert nabla.vf_components()[0] == Poly.monomial((1,), 3)
