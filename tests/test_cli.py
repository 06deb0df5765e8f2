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
from closure_builders import hat_closure


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
    # cos(2 t) chat: at s = 10 the 5-value solve on H+ ends inside its 2-fold level
    # at 3.7806 (4-fold in H_s, where a full solve returned 3 of the 4 copies on every
    # grid).  cos(4 t) chat: the certificate counts right above the 8-fold level of
    # H+ at s = 100
    path = write_scenario(tmp_path, circle_doc(harmonic, [[0.0, 1.0], [1.0, 0.0]]))
    code, out, err = run_quiet(["localize", path, "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [(r["kernel_plus"], r["kernel_minus"]) for r in rows] == [(harmonic, harmonic)] * 3


# run one command in a fresh interpreter, then print the circle lab and scipy modules it loaded
FOOTPRINT_PROBE = """
import contextlib, io, sys
from basicindex.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules
                   if m == "basicindex.localization" or m.split(".")[0] == "scipy"))
"""


def test_localize_text_on_a_zero_free_model(tmp_path):
    # constant Z = 1.5 sigma_x has no zeros: the table reports lambda_1 and its growth in s
    path = write_scenario(tmp_path, circle_doc(0, [[0.0, 1.5], [1.5, 0.0]]))
    code, out, err = run_quiet(["localize", path])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].split() == ["s", "modes", "lambda_1", "lambda_1/s"]
    assert [ln.split()[0] for ln in lines[1:4]] == ["10", "100", "1000"]
    assert lines[4].startswith("fitted growth constant c: ")
    assert float(lines[4].split()[4]) > 0.0
    assert lines[4].endswith("(lambda_1 >= c s across sweep: True)")
    assert len(lines) == 5


def test_cli_import_loads_no_scipy():
    # every command pays the import; scipy loads only where the oracle or the circle
    # lab solves, inside the function that needs it.  The circle lab loads only with
    # localize or a scenario that has a circle model.
    src = str(Path(basicindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, basicindex.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    for argv, loaded in [(["index", "sphere_suspension"], []),
                         (["validate", "cp2_signature_a"], []),
                         (["model-check", "cp2_signature_a"], []),
                         (["index", "carriere"], ["basicindex.localization"])]:
        done = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"0 {loaded}", argv


# what `from basicindex import *` bound before the circle lab loaded lazily
EXPORTS = """CircleModel CircleModelError CliffordModule ClosureDatum ClosureValidationError
ConvergenceReport DegenerateEigenvalueError DiscretizationError FourierMatrixFunction
HolonomyGroup JointEigenstructure LinalgError LocalIndexDetail ModelSpectrum NotInvariantError
RouteConsistencyError ScenarioFormatError ScenarioModel Subspace analytic_spectrum
carriere_preset check_equivariance cliff clifford_c clifford_hat compose_levels
compose_oracle_levels contract_op convergence_report corpus_names cosine_preset
derived_exterior_action explicit_module exterior_module exterior_rep global_index hermitian_eig
holonomy invariant_dim_in invariant_kernel joint_eig linalg load_corpus_scenario load_scenario
local_index localization model_cross_check model_operator model_spectrum_at_zeros nullspace
odd_invertible_perturbation oscillator_1d_oracle oscillator_levels parity_grading scenario
scenario_from_dict scenario_to_dict validate_closure wedge_op""".split()


def test_every_export_resolves_lazily():
    # in a fresh interpreter: attribute access loads the circle lab on demand, and a
    # star import binds every name to the same object
    probe = f"""
import basicindex, sys
names = {EXPORTS!r}
assert "basicindex.localization" not in sys.modules, "imported eagerly"
assert all(getattr(basicindex, n) is not None for n in names)
star = {{}}
exec("from basicindex import *", star)
assert sorted(n for n in star if n != "__builtins__") == sorted(names), sorted(star)
assert all(star[n] is getattr(basicindex, n) for n in names)
print("ok")
"""
    src = str(Path(basicindex.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        basicindex.no_such_name  # noqa: B018


@pytest.mark.parametrize("extra", [[], ["--jmax", "12"]])
def test_localize_single_thread_blas_certifies_clusters(tmp_path, extra):
    # with 1-thread BLAS the solve on H+ at s = 1000 ends inside the 6-fold level at
    # 5.9955 of cos(3 t) chat (12-fold in H_s, where a full solve stopped short of it)
    path = write_scenario(tmp_path, circle_doc(3, [[0.0, 1.0], [1.0, 0.0]]))
    src = str(Path(basicindex.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "basicindex.cli", "localize", path,
                           "--format", "json"] + extra, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert [(r["kernel_plus"], r["kernel_minus"]) for r in rows] == [(3, 3)] * 3


def test_even_part_of_z_is_a_check_failure(tmp_path):
    # cos(t) chat + 3e-10 I passes the circle model's 1e-9 checks, but the even part
    # couples the grading blocks that the solver keeps apart
    doc = circle_doc(1, [[0.0, 1.0], [1.0, 0.0]])
    doc["circle_model"]["perturbation"]["terms"].append(
        {"harmonic": 0, "cos": [[3e-10, 0.0], [0.0, 3e-10]]})
    path = write_scenario(tmp_path, doc)
    for fmt in ("text", "json"):
        code, out, err = run_quiet(["localize", path, "--format", fmt])
        assert code == 1 and out == ""
        assert err == "check failed: H_s does not commute with the induced grading\n"


def test_overflowing_operator_is_a_check_failure():
    # at s = 1e300 the square of C d/dt + B + s Z overflows; it fails by name, before
    # any non-finite entry reaches the solver
    for fmt in ("text", "json"):
        code, out, err = run_quiet(["localize", "carriere", "--s", "1e300,1e301,1e302",
                                    "--format", fmt])
        assert code == 1 and out == ""
        assert err == "check failed: (C d/dt + B + s Z)^2 overflows at s = 1e+300\n"


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


@pytest.mark.parametrize("extra", [["--jmax", "1000"], ["--modes", "64", "--jmax", "257"],
                                   ["--modes", "64", "--jmax", "255"]])
def test_jmax_beyond_the_grid_is_input_error(extra):
    # the base grid has fiber_dim (2 modes + 1) rows, Lanczos solves ceil(jmax / 2)
    # values of one grading block on half of them, and it resolves 2 fewer than its rows
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
    (["localize", "carriere", "--modes", "9999999"], None),
    (["localize", "carriere", "--modes", "4096"], None),  # no room to double under MAX_MODES
    (["spectrum", "carriere", "--closure", "t_quarter", "--count", "0"], None),
    (["spectrum", "carriere", "--closure", "t_quarter", "--count", "-3"], None),
    (["spectrum", "carriere", "--closure", "t_quarter", "--count", "1025"], None),
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


@pytest.mark.parametrize("t, code", [(3e-9, 1), (2e-8, 0)])
def test_index_exit_code_at_the_sign_tol(tmp_path, capsys, t, code):
    # joint eigenvalues +-t: within SIGN_TOL = 1e-8 of 0 there is no sign to count
    doc = scenario_to_dict(ScenarioModel("hat", 2, (hat_closure(2, [t, t]),)))
    assert main(["index", write_scenario(tmp_path, doc)]) == code
    out, err = capsys.readouterr()
    if code:
        assert "check failed: degenerate eigenvalue: |lambda| = 3.000e-09" in err
    else:
        assert "total: 1" in out


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


def _unpaired_blocks(split):
    def patched(*args):
        plus, minus = split(*args)
        return plus, 1.5 * minus  # the kernel stays, the positive levels move
    return patched


def _offset_both_blocks(graded):
    def patched(*args):
        kp, km = graded(*args)
        return kp + 1, km + 1  # the spectral index stays 0
    return patched


SOLVER_FAILURES = {"cholesky": "banded Cholesky", "lanczos": "Lanczos converged to no eigenvalue",
                   "missed eigenvalue": "an eigenvalue was missed",
                   "block inertia": "certified eigenvalues lie there",
                   "unpaired blocks": "grading blocks are not paired",
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
    elif fault == "unpaired blocks":
        monkeypatch.setattr(localization, "_grading_blocks",
                            _unpaired_blocks(localization._grading_blocks))
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


@pytest.mark.parametrize("name,path,value,key_path,commands", [
    ("sphere_suspension", ("closures", 0, "holonomy"),
     {"infinitesimal": [], "module_action": {"infinitesimal": 5}},
     "closures[0].holonomy.module_action.infinitesimal", ("index", "validate")),
    ("sphere_suspension", ("closures", 0, "holonomy"),
     {"infinitesimal": [], "module_action": {"components": 7}},
     "closures[0].holonomy.module_action.components", ("index", "validate")),
    ("carriere", ("circle_model", "drift"), 5, "circle_model.drift", ("index", "localize")),
])
def test_non_array_or_object_is_input_error(tmp_path, name, path, value, key_path, commands):
    # an optional key that is present must have its type, even where its default is empty
    doc = raw_corpus_doc(name)
    _set(doc, path, value)
    scenario_path = write_scenario(tmp_path, doc)
    for command in commands:
        code, _, err = run_quiet([command, scenario_path])
        assert code == 2, (command, err)
        assert err.startswith(f"input error: scenario.json.{key_path}: "), err


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
