import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import basicindex
from basicindex import ClosureDatum, ScenarioModel, localization
from basicindex.cli import main
from basicindex.scenario import load_corpus_scenario, scenario_to_dict


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def corpus_doc(name):
    return scenario_to_dict(load_corpus_scenario(name))


def test_index_sphere(capsys):
    assert main(["index", "sphere_suspension"]) == 0
    out = capsys.readouterr().out
    assert "north_pole: 1" in out and "south_pole: 1" in out and "total: 2" in out


def test_index_carriere(capsys):
    assert main(["index", "carriere"]) == 0
    assert "total: 0" in capsys.readouterr().out


def test_index_json_format(capsys):
    assert main(["index", "cp2_signature_a", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 1
    assert [c["index"] for c in payload["closures"]] == [1, -1, 1]


def test_index_expected_mismatch_exit_code(tmp_path, capsys):
    doc = corpus_doc("sphere_suspension")
    doc["expected_index"] = 5
    path = write_scenario(tmp_path, doc)
    assert main(["index", path]) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["index", "/nonexistent/path.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["index", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 100000, b"\xff\xfe" + b'{"name": "x"}'],
                         ids=["deeply-nested", "undecodable"])
def test_unparsable_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["index", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: ") and "Traceback" not in err


def test_validate_corpus(capsys):
    assert main(["validate", "sphere_suspension"]) == 0
    out = capsys.readouterr().out
    assert "all closures valid" in out


def test_validate_failure_exit_code(tmp_path, capsys):
    doc = corpus_doc("sphere_suspension")
    z = doc["closures"][0]["perturbation"]["Z"]
    z[1] = z[0]  # duplicate perturbation: singular scalar matrix
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_json_payload(capsys):
    assert main(["validate", "cp2_signature_a", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    names = {c["name"] for closure in payload["closures"] for c in closure["checks"]
             if c["severity"] == "warning" and not c["passed"]}
    assert "symbol_anticommutation_all_pairs" in names


def test_spectrum_command(capsys):
    assert main(["spectrum", "carriere", "--closure", "t_quarter", "--count", "6"]) == 0
    out = capsys.readouterr().out
    assert "kernel dims 1, 1" in out


def test_spectrum_numerical_deviation(capsys):
    assert main(["spectrum", "sphere_suspension", "--closure", "north_pole",
                 "--count", "5", "--numerical", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["max_deviation"] < 1e-5


def test_spectrum_unknown_closure(capsys):
    assert main(["spectrum", "carriere", "--closure", "nope"]) == 2


def test_model_check_command(capsys):
    assert main(["model-check", "sphere_suspension"]) == 0
    assert "total: 2" in capsys.readouterr().out


def test_localize_command(capsys):
    assert main(["localize", "cosine_localization", "--s", "10,100,1000",
                 "--modes", "128", "--jmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "monotone tail: True" in out


def test_localize_without_circle_model(capsys):
    assert main(["localize", "sphere_suspension"]) == 2


def circle_doc(harmonic, cos):
    """A circle-lab scenario with Z = cos(harmonic t) cos on the 2-dim fiber of
    cosine_localization."""
    doc = raw_corpus_doc("cosine_localization")
    doc["circle_model"]["perturbation"]["terms"] = [{"harmonic": harmonic, "cos": cos}]
    return doc


def test_localize_compares_a_positive_level(tmp_path):
    # cos(3 t) chat has 6 zeros, so the default 4 compared levels would all be
    # kernel levels with round-off gaps; the first positive level is compared too
    path = write_scenario(tmp_path, circle_doc(3, [[0.0, 1.0], [1.0, 0.0]]))
    code, out, err = run_quiet(["localize", path, "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert all(r["spectral_index"] == 0 and len(r["eigenvalues"]) == 7 for r in rows)


@pytest.mark.parametrize("harmonic", [2, 4])
def test_localize_counts_each_grading_block(tmp_path, harmonic):
    # cos(2 t) chat: the 10-eigenvalue solve at s = 10 ends inside a 4-fold level at
    # 3.7806, where Lanczos returns 3 of its 4 copies on every grid.  cos(4 t) chat:
    # the certificate counts right above a 16-fold level at s = 100
    path = write_scenario(tmp_path, circle_doc(harmonic, [[0.0, 1.0], [1.0, 0.0]]))
    code, out, err = run_quiet(["localize", path, "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [(r["kernel_plus"], r["kernel_minus"]) for r in rows] == [(harmonic, harmonic)] * 3


@pytest.mark.parametrize("extra", [[], ["--jmax", "12"]])
def test_localize_single_thread_blas_certifies_clusters(tmp_path, extra):
    # with 1-thread BLAS the 10-eigenvalue solve at s = 1000 ends inside the 12-fold
    # level at 5.9955 of cos(3 t) chat, and Lanczos stops short of it
    path = write_scenario(tmp_path, circle_doc(3, [[0.0, 1.0], [1.0, 0.0]]))
    src = str(Path(basicindex.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "basicindex.cli", "localize", path,
                           "--format", "json"] + extra, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert [(r["kernel_plus"], r["kernel_minus"]) for r in rows] == [(3, 3)] * 3


def test_linearization_defect_names_the_zero(tmp_path):
    # chat + 2 delta sigma_y passes the circle model's per-harmonic checks, but at
    # each zero Z' fails its own closure validation, which names the zero
    delta = 3e-10
    path = write_scenario(tmp_path, circle_doc(1, [[0.0, [1.0, -2 * delta]],
                                                   [[1.0, 2 * delta], 0.0]]))
    code, _, err = run_quiet(["localize", path])
    assert code == 1
    assert err.startswith("check failed: zero at t = 1.570796: closure data failed validation")
    assert "[FAIL] clifford_form_diagonal_anticommutation" in err
    assert err.rstrip().splitlines()[-1].startswith("  [FAIL] ")


@pytest.mark.parametrize("extra", [["--jmax", "1000"], ["--modes", "64", "--jmax", "257"]])
def test_jmax_beyond_the_grid_is_input_error(extra):
    # the base grid has fiber_dim (2 modes + 1) rows, and Lanczos resolves 2 fewer
    code, out, err = run_quiet(["localize", "cosine_localization"] + extra)
    assert code == 2 and out == ""
    assert err.startswith("input error: --jmax: ") and "--modes" in err


def test_list_examples(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    for name in ("sphere_suspension", "carriere", "odd_codim_q3"):
        assert name in out


def test_run_corpus(capsys):
    assert main(["run-corpus"]) == 0
    out = capsys.readouterr().out
    assert "7/7 scenarios pass" in out


def test_tol_env_override(monkeypatch, capsys):
    monkeypatch.setenv("BASICINDEX_TOL", "1e-7")
    assert main(["index", "sphere_suspension"]) == 0
    monkeypatch.setenv("BASICINDEX_TOL", "not-a-number")
    assert main(["index", "sphere_suspension"]) == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_entry_is_input_error(tmp_path, capsys, token):
    doc = corpus_doc("cp2_signature_a")
    doc["closures"][0]["perturbation"]["Z"][0][1][2] = float(token.replace("Infinity", "inf"))
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert "closures[0].perturbation.Z[0][1][2]" in capsys.readouterr().err


@pytest.mark.parametrize("argv,env_tol", [
    (["localize", "carriere", "--s", "foo"], None),
    (["localize", "carriere", "--s", "10,inf,1000"], None),
    (["localize", "carriere", "--s", "10,0,1000"], None),
    (["localize", "carriere", "--jmax", "0"], None),
    (["localize", "carriere", "--modes", "10"], None),
    (["spectrum", "carriere", "--closure", "t_quarter", "--count", "0"], None),
    (["spectrum", "carriere", "--closure", "t_quarter", "--count", "-3"], None),
    (["--tol", "nan", "validate", "carriere"], None),
    (["--tol", "-1", "validate", "carriere"], None),
    (["validate", "carriere"], "nan"),
    (["validate", "carriere"], "0"),
    (["localize", "carriere", "--s", "100,10,1000"], None),
    (["localize", "carriere", "--s", "10,100"], None),
])
def test_bad_numeric_arguments_exit_2(monkeypatch, capsys, argv, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("BASICINDEX_TOL", env_tol)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_degenerate_eigenvalue_fails_alike_in_every_command(tmp_path, capsys):
    model = load_corpus_scenario("sphere_suspension")
    tiny = ScenarioModel(model.name, model.codimension, tuple(
        ClosureDatum(d.name, d.module, tuple(5e-9 * z for z in d.z), d.holonomy)
        for d in model.closures))
    path = write_scenario(tmp_path, scenario_to_dict(tiny))
    assert main(["validate", path]) == 0
    for argv in (["index", path], ["model-check", path],
                 ["spectrum", path, "--closure", "north_pole"]):
        assert main(argv) == 1, argv
        assert "check failed: degenerate eigenvalue" in capsys.readouterr().err, argv


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _drop_one_eigenvalue(eigsh):
    def patched(*args, **kwargs):
        return eigsh(*args, **kwargs)[1:]
    return patched


def _offset_plus_block(monkeypatch):
    """_graded_kernel_counts whose first inertia count, the +1 block's, is one too high."""
    graded, inertia = localization._graded_kernel_counts, localization._inertia

    def patched(*args):
        extra = iter([1])
        monkeypatch.setattr(localization, "_inertia", lambda h, mu: inertia(h, mu) + next(extra, 0))
        try:
            return graded(*args)
        finally:
            monkeypatch.setattr(localization, "_inertia", inertia)
    return patched


def _offset_both_blocks(graded):
    def patched(*args):
        kp, km = graded(*args)
        return kp + 1, km + 1  # the spectral index stays 0
    return patched


SOLVER_FAILURES = {"cholesky": "banded Cholesky", "lanczos": "Lanczos converged to no eigenvalue",
                   "missed eigenvalue": "an eigenvalue was missed",
                   "block inertia": "certified eigenvalues lie there",
                   "kernel dims": "but the zeros' kernel dims are (1, 1)"}


@pytest.mark.parametrize("fault", list(SOLVER_FAILURES))
def test_solver_failure_is_a_check_failure(monkeypatch, capsys, fault):
    if fault == "cholesky":
        monkeypatch.setattr(scipy.linalg, "cholesky_banded",
                            _raise(np.linalg.LinAlgError("not positive definite")))
    elif fault == "lanczos":
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _raise(
            scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), None)))
    elif fault == "missed eigenvalue":
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            _drop_one_eigenvalue(scipy.sparse.linalg.eigsh))
    elif fault == "block inertia":
        monkeypatch.setattr(localization, "_graded_kernel_counts", _offset_plus_block(monkeypatch))
    else:
        monkeypatch.setattr(localization, "_graded_kernel_counts",
                            _offset_both_blocks(localization._graded_kernel_counts))
    assert main(["localize", "carriere"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and "Traceback" not in err
    assert SOLVER_FAILURES[fault] in err


def test_cli_import_leaves_out_scipy_stats_and_special():
    probe = ("import sys, basicindex.cli; print([m for m in "
             "('scipy.stats', 'scipy.special', 'scipy.sparse.linalg', 'scipy.linalg', "
             "'scipy.sparse') if m in sys.modules])")
    src = str(Path(basicindex.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def raw_corpus_doc(name):
    return json.loads((resources.files("basicindex") / "corpus" / f"{name}.json").read_text())


def run_quiet(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key,slice_mat,message", [
    ("components", [[1.0, 1.0], [0.0, 1.0]], "not orthogonal"),
    ("infinitesimal", [[1.0, 0.0], [0.0, 0.0]], "not skew-symmetric"),
])
def test_bad_derived_holonomy_slice_is_input_error(tmp_path, key, slice_mat, message):
    doc = raw_corpus_doc("sphere_suspension")
    doc["closures"][0]["holonomy"][key] = [slice_mat]
    code, _, err = run_quiet(["index", write_scenario(tmp_path, doc)])
    assert code == 2
    assert f"closures[0].holonomy.{key}[0]: " in err and message in err


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path,key_path", [
    (("codimension",), "codimension"),
    (("expected_index",), "expected_index"),
    (("closures", 0, "normal_dim"), "closures[0].normal_dim"),
    (("closures", 0, "module", "ambient_dim"), "closures[0].module.ambient_dim"),
    (("closures", 0, "module", "generator_axes", 0), "closures[0].module.generator_axes"),
    (("closures", 0, "perturbation", "coefficients", 0, 1),
     "closures[0].perturbation.coefficients[0][1]"),
    (("circle_model", "fiber_dim"), "circle_model.fiber_dim"),
    (("circle_model", "perturbation", "terms", 0, "harmonic"),
     "circle_model.perturbation.terms[0].harmonic"),
    (("closures", 0, "perturbation", "coefficients", 0, 0),  # a real scale, not a boolean
     "closures[0].perturbation.coefficients[0][0]"),
])
def test_bool_in_integer_field_is_input_error(tmp_path, path, key_path):
    doc = raw_corpus_doc("carriere")
    _set(doc, path, True)
    code, _, err = run_quiet(["validate", write_scenario(tmp_path, doc)])
    assert code == 2
    assert err.startswith(f"input error: scenario.json.{key_path}: ")


@pytest.mark.parametrize("name,kind,key", [
    ("carriere", "bogus", "kind"),
    ("carriere", True, "kind"),
    ("sphere_suspension", "trivial", "infinitesimal"),  # would drop the generators
])
def test_holonomy_kind_is_input_error(tmp_path, name, kind, key):
    doc = raw_corpus_doc(name)
    doc["closures"][0]["holonomy"]["kind"] = kind
    code, _, err = run_quiet(["index", write_scenario(tmp_path, doc)])
    assert code == 2
    assert err.startswith(f"input error: scenario.json.closures[0].holonomy.{key}: ")


# --- the exit-code contract on mutated corpus files ---

SCALAR_MUTATIONS = (True, "x", None, [], 0, -1)
MATRIX_KEYS = {"symbol", "grading", "cos", "sin", "Z", "c", "infinitesimal", "components"}
DIMENSION_KEYS = {"normal_dim", "ambient_dim", "codimension", "fiber_dim"}
INTEGER_KEYS = DIMENSION_KEYS | {"expected_index", "harmonic"}


def scalar_paths(node, path=()):
    """Key paths of the scalar schema fields.  Matrices are not descended into, and an
    array or object in a list that repeats the layout of the list's first one is skipped."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = [(i, x) for i, x in enumerate(node) if i == 0 or not isinstance(x, (dict, list))
                 or layout(x) != layout(node[0])]
    else:
        yield path
        return
    for key, child in items:
        if not (key in MATRIX_KEYS and isinstance(child, list)):
            yield from scalar_paths(child, path + (key,))


def layout(node):
    return list(scalar_paths(node))


def rejects_true(path):
    """Integer fields and hat_linear coefficient entries: a JSON true there is an input error."""
    return (path[-1] in INTEGER_KEYS or path[-2:-1] == ("generator_axes",)
            or path[-3:-2] == ("coefficients",))


def bad_slices(m):
    non_orthogonal = np.eye(m)
    non_orthogonal[0, m - 1] += 1.0
    non_skew = np.zeros((m, m))
    non_skew[0, 0] = 1.0
    return non_orthogonal.tolist(), non_skew.tolist()


def contract_mutations(doc):
    """(path, value, whether the mutated file must be an input error) from a fixed table."""
    paths = list(scalar_paths(doc))
    for path in paths:
        original = doc
        for key in path:
            original = original[key]
        for value in SCALAR_MUTATIONS:
            if path[-1] in DIMENSION_KEYS and isinstance(value, int) and value > original:
                continue  # never grow a dimension: no large array is allocated
            # every holonomy kind but "trivial" is an input error
            yield path, value, path[-2:] == ("holonomy", "kind") or \
                (value is True and rejects_true(path))
    for i in sorted({p[1] for p in paths if p[0] == "closures"}):
        closure = doc["closures"][i]
        hol = closure["holonomy"]
        if hol.get("infinitesimal") or hol.get("components"):
            yield ("closures", i, "holonomy", "kind"), "trivial", True  # would drop generators
        # a bad derived slice, or any generator next to "kind": "trivial", is an input error
        rejected = "kind" in hol or \
            hol.get("module_action", "derive-from-exterior") == "derive-from-exterior"
        for bad in bad_slices(closure["normal_dim"]):
            for j in range(len(hol.get("infinitesimal", []))):
                yield ("closures", i, "holonomy", "infinitesimal", j), bad, rejected
            yield ("closures", i, "holonomy", "components"), [bad], rejected


@pytest.mark.parametrize("name", sorted(basicindex.corpus_names()))
def test_exit_code_contract_on_mutated_corpus(tmp_path, name):
    doc = raw_corpus_doc(name)
    path = str(tmp_path / "mutated.json")
    count = 0
    for key_path, value, input_error in contract_mutations(doc):
        mutated = json.loads(json.dumps(doc))
        _set(mutated, key_path, value)
        Path(path).write_text(json.dumps(mutated))
        for command in ("index", "validate", "model-check"):
            code, _, err = run_quiet([command, path])  # an escaping exception fails the test
            assert code in (0, 1, 2), (key_path, value, command)
            if input_error:
                assert code == 2, (key_path, value, command, err)
        count += 1
    assert count >= len(SCALAR_MUTATIONS)


@pytest.mark.parametrize("name", sorted(basicindex.corpus_names()))
def test_exit_code_contract_on_truncated_corpus(tmp_path, name):
    text = (resources.files("basicindex") / "corpus" / f"{name}.json").read_text()
    path = str(tmp_path / "truncated.json")
    cuts = 0
    for offset in sorted({len(text) * k // 13 for k in range(13)} | {len(text) - 1}):
        try:
            json.loads(text[:offset])
            assert not text[offset:].strip()  # only trailing whitespace was dropped
            continue
        except json.JSONDecodeError:
            pass
        Path(path).write_text(text[:offset])
        for argv in (["index"], ["validate"], ["model-check"], ["spectrum", "--closure", "x"],
                     ["localize"]):
            code, _, err = run_quiet(argv[:1] + [path] + argv[1:])  # nothing may escape
            assert code == 2, (offset, argv, err)
        cuts += 1
    assert cuts >= 12


# --- one L-contract gate ---

def test_validate_and_index_agree_at_the_l_contract_gate(tmp_path):
    model = load_corpus_scenario("sphere_suspension")
    north = model.closures[0]
    c2, eps = north.module.c[1], north.module.grading
    x = np.random.default_rng(5).standard_normal((4, 8)).view(complex)
    x = x + x.conj().T
    x = (x - eps @ x @ eps) / 2  # odd
    e = (x + c2 @ x @ c2) / 2  # anticommutes with c_2, stays Hermitian and odd
    e /= np.linalg.norm(e)
    tol = 1e-9
    window = 0
    for delta in np.logspace(-10, -8, 21):
        d = ClosureDatum(north.name, north.module, (north.z[0], north.z[1] + delta * e),
                         north.holonomy)
        report = basicindex.validate_closure(d, tol)
        try:
            basicindex.local_index(d, tol)
            computed = True
        except (basicindex.ClosureValidationError, basicindex.LinalgError):
            computed = False
        assert report.passed == computed, delta
        violation = next(c.max_violation for c in report.checks
                         if c.name == "commuting_operators")
        scale = max(float(np.linalg.norm(z)) for z in d.z)
        if tol * max(1.0, np.linalg.norm(report.gram)) < violation <= tol * max(1.0, scale**2):
            window += 1
            doc = scenario_to_dict(ScenarioModel(model.name, model.codimension,
                                                 (d,) + model.closures[1:]))
            code, out, _ = run_quiet(["validate", write_scenario(tmp_path, doc)])
            assert code == 1
            assert "[FAIL] commuting_operators" in out
    assert window > 0
