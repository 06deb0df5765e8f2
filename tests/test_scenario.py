import json

import numpy as np
import pytest

from basicindex import (
    ScenarioFormatError,
    corpus_names,
    load_corpus_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def minimal_doc():
    return {
        "name": "tiny",
        "codimension": 2,
        "closures": [{
            "name": "only",
            "normal_dim": 2,
            "module": {"kind": "exterior", "grading": "parity"},
            "perturbation": {"kind": "hat_linear", "coefficients": [[-1.0, 1], [-1.0, 2]]},
            "holonomy": {"kind": "trivial"},
        }],
    }


def test_corpus_is_complete():
    names = corpus_names()
    for required in ("sphere_suspension", "carriere", "cp2_signature_a",
                     "cp2_signature_b", "cp2_signature_c", "odd_codim_q3"):
        assert required in names


def test_sphere_structure():
    s = load_corpus_scenario("sphere_suspension")
    assert s.codimension == 2 and s.expected_index == 2
    assert len(s.closures) == 2
    for d in s.closures:
        assert d.module.m == 2
        assert d.module.grading_kind == "parity"
        assert len(d.holonomy.infinitesimal) == 1


def test_carriere_structure():
    s = load_corpus_scenario("carriere")
    assert s.expected_index == 0
    for d in s.closures:
        assert d.module.m == 1 and d.module.dim == 4
        assert d.holonomy.trivial
    assert s.circle_model is not None
    assert s.circle_model.fiber_dim == 2


def test_cp2_structure():
    s = load_corpus_scenario("cp2_signature_a")
    assert s.codimension == 4 and len(s.closures) == 3
    for d in s.closures:
        assert d.module.grading_kind == "chirality"
        assert len(d.holonomy.infinitesimal) == 2


def test_odd_codim_scenario_is_empty():
    s = load_corpus_scenario("odd_codim_q3")
    assert s.codimension == 3 and s.closures == ()


def test_hat_linear_ic_form_matches_matrices():
    doc = minimal_doc()
    doc["closures"][0]["perturbation"] = {
        "kind": "hat_linear",
        "coefficients": [[0.8, 2, "ic"], [-0.8, 1, "ic"]],
    }
    s = scenario_from_dict(doc)
    d = s.closures[0]
    assert np.allclose(d.z[0], 0.8j * d.module.c[1], atol=1e-12)
    assert np.allclose(d.z[1], -0.8j * d.module.c[0], atol=1e-12)


def test_round_trip_equality():
    for name in corpus_names():
        s = load_corpus_scenario(name)
        doc = json.loads(json.dumps(scenario_to_dict(s)))
        s2 = scenario_from_dict(doc)
        assert s2.name == s.name and s2.codimension == s.codimension
        assert s2.expected_index == s.expected_index
        assert len(s2.closures) == len(s.closures)
        for d, d2 in zip(s.closures, s2.closures):
            assert d2.name == d.name
            for a, b in zip(d.module.c, d2.module.c):
                assert np.array_equal(a, b)
            assert np.array_equal(d.module.grading, d2.module.grading)
            for a, b in zip(d.z, d2.z):
                assert np.array_equal(a, b)
            assert d2.holonomy.trivial == d.holonomy.trivial
            for (x, dx), (x2, dx2) in zip(d.holonomy.infinitesimal,
                                          d2.holonomy.infinitesimal):
                assert np.array_equal(x, x2) and np.array_equal(dx, dx2)
        if s.circle_model is not None:
            f1, f2 = s.circle_model.perturbation, s2.circle_model.perturbation
            for (k1, m1), (k2, m2) in zip(f1.coeffs, f2.coeffs):
                assert k1 == k2 and np.allclose(m1, m2, atol=1e-15)


def test_shape_error_names_key_path():
    doc = minimal_doc()
    doc["closures"][0]["module"] = {
        "kind": "explicit",
        "c": [[[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]]],  # 3x2, and only one matrix
        "grading": [[1.0, 0.0], [0.0, -1.0]],
    }
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert "closures[0].module.c" in str(err.value)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_schema_errors(tmp_path, token):
    value = float(token.replace("Infinity", "inf"))
    scale_doc = minimal_doc()
    scale_doc["closures"][0]["perturbation"]["coefficients"][1][0] = value
    entry_doc = scenario_to_dict(load_corpus_scenario("sphere_suspension"))
    entry_doc["closures"][0]["perturbation"]["Z"][0][1][2] = value
    pair_doc = scenario_to_dict(load_corpus_scenario("sphere_suspension"))
    pair_doc["closures"][1]["perturbation"]["Z"][1][3][0] = [0.0, value]
    for doc, path in ((scale_doc, "closures[0].perturbation.coefficients[1][0]"),
                      (entry_doc, "closures[0].perturbation.Z[0][1][2]"),
                      (pair_doc, "closures[1].perturbation.Z[1][3][0][1]")):
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        assert token in file.read_text()  # Python's json writes and reads these tokens
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(file)
        assert err.value.path == "bad.json." + path


def test_unknown_grading_kind_rejected():
    doc = minimal_doc()
    doc["closures"][0]["module"]["grading"] = "mystery"
    with pytest.raises(ScenarioFormatError, match="grading"):
        scenario_from_dict(doc)


def test_missing_key_is_named():
    doc = minimal_doc()
    del doc["closures"][0]["perturbation"]
    with pytest.raises(ScenarioFormatError, match="closures\\[0\\].perturbation"):
        scenario_from_dict(doc)


def test_normal_dim_above_codimension_rejected():
    doc = minimal_doc()
    doc["codimension"] = 1
    with pytest.raises(ScenarioFormatError, match="normal_dim"):
        scenario_from_dict(doc)


def test_hat_linear_needs_exterior_module():
    doc = minimal_doc()
    doc["closures"][0]["module"] = {
        "kind": "explicit",
        "c": [[[0.0, -1.0], [1.0, 0.0]], [[0.0, [0.0, 1.0]], [[0.0, 1.0], 0.0]]],
        "grading": [[1.0, 0.0], [0.0, -1.0]],
    }
    with pytest.raises(ScenarioFormatError, match="exterior"):
        scenario_from_dict(doc)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "codimension": 2,\n  "closures": [}')
    with pytest.raises(ScenarioFormatError, match="line 2"):
        load_scenario(path)


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(ScenarioFormatError, match="cannot read"):
        load_scenario(tmp_path / "absent.json")


def test_complex_entries_accept_both_forms():
    doc = minimal_doc()
    doc["closures"][0]["module"] = {
        "kind": "explicit",
        "c": [[[0.0, [-1.0, 0.0]], [1, 0.0]]],
        "grading": [[1.0, 0.0], [0.0, -1.0]],
    }
    doc["closures"][0]["normal_dim"] = 1
    doc["closures"][0]["perturbation"] = {
        "kind": "explicit", "Z": [[[0.0, 1.0], [1.0, 0.0]]]}
    doc["closures"][0]["holonomy"] = {"kind": "trivial"}
    s = scenario_from_dict(doc)
    assert np.array_equal(s.closures[0].module.c[0],
                          np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))


def test_loading_is_side_effect_free(tmp_path):
    path = tmp_path / "s.json"
    doc = minimal_doc()
    path.write_text(json.dumps(doc))
    before = path.read_text()
    load_scenario(path)
    assert path.read_text() == before
