import functools
import gc
import json

import numpy as np
import pytest

from basicindex import (
    ScenarioFormatError,
    ScenarioModel,
    corpus_names,
    load_corpus_scenario,
    load_scenario,
    scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from basicindex.scenario import _bulk_complex_matrix, _complex_entry
from closure_builders import rotated_closure


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


def per_entry_matrix(rows, path):
    """The per-entry parse, the reference for the bulk one."""
    return np.array([[_complex_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
                     for i, row in enumerate(rows)])


def rotated_doc(m=3, seed=5):
    d = rotated_closure(m, np.random.default_rng(seed))
    return scenario_to_dict(ScenarioModel(name="rotated", codimension=m, closures=(d,)))


def doc_matrices(doc):
    """(key path, rows) of every module and perturbation matrix of a scenario_to_dict doc."""
    for i, cobj in enumerate(doc["closures"]):
        path = f"closures[{i}]"
        yield from ((f"{path}.module.c[{j}]", c) for j, c in enumerate(cobj["module"]["c"]))
        yield f"{path}.module.grading", cobj["module"]["grading"]
        yield from ((f"{path}.perturbation.Z[{j}]", z)
                    for j, z in enumerate(cobj["perturbation"]["Z"]))


@pytest.mark.parametrize("where", ["pairs", "numbers"])
@pytest.mark.parametrize("token", [
    '"1.5"', "null", "[[1.0, 0.0], [0.0, 1.0]]", "[1.0]", "[1.0, 0.0, 2.0]", '[1.0, "0.0"]',
    "true", "false", "[true, 0.0]", "[1.0, false]",
    "NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400")])
def test_bulk_parse_rejects_as_per_entry_parse(token, where):
    # rotated Z mix numbers and [re, im] pairs; the sphere's Z hold numbers only
    doc = rotated_doc() if where == "pairs" else \
        scenario_to_dict(load_corpus_scenario("sphere_suspension"))
    rows = doc["closures"][0]["perturbation"]["Z"][1]
    assert any(isinstance(x, list) for row in rows for x in row) == (where == "pairs")
    rows[2][1] = json.loads(token)
    path = "scenario.closures[0].perturbation.Z[1]"
    with pytest.raises(ScenarioFormatError) as ref:
        per_entry_matrix(rows, path)
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == str(ref.value) and err.value.path == ref.value.path
    assert _bulk_complex_matrix(rows) is None


def test_bulk_parse_matches_per_entry_parse_bitwise():
    docs = [rotated_doc(m, seed) for m, seed in ((3, 1), (4, 2))]
    odd = docs[0]["closures"][0]["perturbation"]["Z"][0]
    odd[0][0], odd[0][1], odd[1][0] = 7, 2**53 + 1, [0, -(2**63) - 3]
    odd[1][1], odd[1][2] = 2**70 + 12345, [2**60 + 1, -0.0]
    docs += [scenario_to_dict(load_corpus_scenario(name)) for name in corpus_names()]
    matrices = [("numbers", [[1, 2**54 + 1, -0.0], [3, -(2**63) - 3, 0]])]
    for doc in docs:
        matrices += doc_matrices(doc)
    for path, rows in matrices:
        bulk, ref = _bulk_complex_matrix(rows), per_entry_matrix(rows, path)
        assert bulk is not None, path
        assert bulk.dtype == ref.dtype and bulk.shape == ref.shape, path
        assert bulk.tobytes() == ref.tobytes(), path


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


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["success", "parse error", "schema error"])
@pytest.mark.parametrize("loader", ["file", "corpus"])
def test_loaders_restore_the_callers_gc_state(tmp_path, monkeypatch, loader, case, enabled):
    # both loaders pause the cyclic collector while they decode; whatever the outcome,
    # the caller gets back the state it had
    doc = minimal_doc()
    if case == "schema error":
        doc["closures"][0]["module"]["grading"] = "mystery"
    text = json.dumps(doc)[:-1] if case == "parse error" else json.dumps(doc)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "tiny.json").write_text(text)
    if loader == "corpus":  # the bundled corpus read from tmp_path
        monkeypatch.setattr(scenario.resources, "files", lambda package: tmp_path)
        load = functools.partial(load_corpus_scenario, "tiny")
    else:
        load = functools.partial(load_scenario, tmp_path / "corpus" / "tiny.json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if case == "success":
            assert load().name == "tiny"
        else:
            with pytest.raises(ScenarioFormatError, match="parse error" if case == "parse error"
                               else "unknown grading kind"):
                load()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
