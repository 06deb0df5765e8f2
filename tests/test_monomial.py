"""The monomial path of the engine against dense products.

Exterior modules, their hat_linear perturbations and the L_j built from them
have at most one nonzero per row; validation then composes index arrays and
joint_eig sorts.  Every result must match what dense products give on the
same data or on a unitarily rotated copy, and the index of a hat_linear
parity closure must match its closed form.
"""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from basicindex import (
    ClosureDatum,
    explicit_module,
    global_index,
    joint_eig,
    load_scenario,
    local_index,
    model_cross_check,
    scenario_from_dict,
    validate_closure,
)
from basicindex.linalg import _Monomial, _monomial, _sign_split
from closure_builders import (
    carriere_closure,
    conjugated,
    cp2_closure,
    hat_closure,
    random_unitary,
    sphere_closure,
)

engine = importlib.import_module("basicindex.local_index")


def monomial_families(d):
    return _monomial([*d.module.c, d.module.grading, *d.z]) is not None


def dense_report(monkeypatch, d):
    """validate_closure(d) with every family classified as dense."""
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_monomial", lambda mats: None)
        return validate_closure(d)


def assert_same_checks(a, b, scale):
    assert [(c.name, c.severity, c.passed) for c in a.checks] == \
        [(c.name, c.severity, c.passed) for c in b.checks]
    for x, y in zip(a.checks, b.checks):
        assert abs(x.max_violation - y.max_violation) <= 1e-12 * scale, x.name


def z_scale(d):
    return max(1.0, max(float(np.linalg.norm(z)) for z in d.z))


@pytest.mark.parametrize("make", [
    lambda rng: hat_closure(5, rng.choice([-1.0, 1.0], 5) * rng.uniform(0.5, 2.0, 5)),
    lambda rng: sphere_closure("north"),
    lambda rng: carriere_closure("quarter"),
    lambda rng: cp2_closure(0.8, 2.1),
], ids=["parity_m5", "sphere_so2", "carriere_axis_2", "cp2_chirality_torus"])
def test_monomial_closure_matches_its_rotated_copy(make):
    rng = np.random.default_rng(17)
    d = make(rng)
    rotated = conjugated(d, random_unitary(rng, d.module.dim))
    assert monomial_families(d) and not monomial_families(rotated)
    assert_same_checks(validate_closure(d), validate_closure(rotated), z_scale(d))
    assert local_index(d)[0] == local_index(rotated)[0]


@pytest.mark.parametrize("family", ["z", "c", "grading"])
def test_flipped_sign_fails_like_the_dense_reference(monkeypatch, family):
    d = hat_closure(4, [0.7, -1.3, 1.1, 1.9])
    c, eps, z = [a.copy() for a in d.module.c], d.module.grading.copy(), [a.copy() for a in d.z]
    target = {"z": z[1], "c": c[2], "grading": eps}[family]
    target[5, np.flatnonzero(target[5])[0]] *= -1.0  # still one nonzero per row
    bad = ClosureDatum(d.name, explicit_module(c, eps), tuple(z), d.holonomy)
    assert monomial_families(bad)
    fast, dense = validate_closure(bad), dense_report(monkeypatch, bad)
    assert not fast.passed
    assert {x.name for x in fast.failures()} == {x.name for x in dense.failures()}
    assert_same_checks(fast, dense, z_scale(bad))
    assert fast.checks[0].note == dense.checks[0].note  # the module's problem list


def test_two_nonzeros_in_a_row_take_the_dense_path(monkeypatch):
    d = hat_closure(3, [0.9, -1.4, 1.2])
    # mix the even basis vectors 1 and dx1^dx2: the grading stays diagonal,
    # but c_j, Z_j and L_j get rows with two nonzeros
    u = np.eye(8, dtype=complex)
    u[np.ix_([0, 3], [0, 3])] = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    mixed = conjugated(d, u)
    assert monomial_families(d) and not monomial_families(mixed)
    calls = []
    dense = engine._dense_norms
    monkeypatch.setattr(engine, "_dense_norms", lambda *a: calls.append(1) or dense(*a))
    assert_same_checks(validate_closure(d), validate_closure(mixed), z_scale(d))
    assert calls == [1]
    assert local_index(mixed)[0] == local_index(d)[0] == -1


def test_l_ops_of_monomial_data_stay_monomial():
    # from an exterior module with dense Z_j (classified) and from the loader (stored)
    d = hat_closure(4, [0.7, -1.3, 1.1, 1.9])
    loaded = scenario_from_dict({
        "name": "hat", "codimension": 4,
        "closures": [{"name": "c", "normal_dim": 4,
                      "module": {"kind": "exterior", "grading": "parity"},
                      "perturbation": {"kind": "hat_linear", "coefficients": [
                          [0.7, 1], [-1.3, 2], [1.1, 3, "hat"], [1.9, 4, "hat"]]},
                      "holonomy": {"kind": "trivial"}}]}).closures[0]
    for closure in (d, loaded):
        assert isinstance(closure.module.ops, _Monomial)
        l_ops = validate_closure(closure).l_ops
        assert isinstance(l_ops, _Monomial)
        for lj, cj, zj in zip(l_ops, closure.module.c, closure.z, strict=True):
            assert np.array_equal(lj, cj @ zj)
    assert isinstance(loaded.z, _Monomial)


def test_diagonal_joint_eig_matches_the_sign_split():
    # the sort on sign bits gives the eigentuples and eigenspaces of the one dense
    # eigendecomposition, which on diagonal input reads each tuple exactly
    signs = np.random.default_rng(3).choice([-1.0, 1.0], size=(3, 12))
    family = [np.diag(t * s).astype(complex) for t, s in zip([0.3, 1.0, 2.5], signs)]
    sort = joint_eig(family)
    basis, tuples = _sign_split(family, 1e-9)
    assert np.array_equal(sort.eigentuples, tuples)
    assert len(sort.clusters) == len({tuple(col) for col in signs.T})
    for lo, hi in sort.clusters:
        a, b = sort.basis[:, lo:hi], basis[:, lo:hi]
        assert np.allclose(a @ a.conj().T, b @ b.conj().T, atol=1e-12)


@pytest.mark.parametrize("extra", [0, 1], ids=["ambient_m", "ambient_m_plus_1"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_hat_linear_parity_index_closed_form(m, extra):
    # Z_j = s_j chat(e_j), parity grading: index (-1)^#{s_j < 0} on Lambda*(R^m),
    # and 0 once an unused letter doubles the module
    rng = np.random.default_rng(100 * m + extra)
    for trial in range(12):
        signs = rng.choice([-1.0, 1.0], size=m)
        scales = signs * rng.uniform(0.5, 2.0, size=m)
        model = scenario_from_dict({
            "name": f"oracle_m{m}_{trial}", "codimension": m,
            "closures": [{
                "name": "c", "normal_dim": m,
                "module": {"kind": "exterior", "grading": "parity", "ambient_dim": m + extra},
                "perturbation": {"kind": "hat_linear",
                                 "coefficients": [[float(s), j + 1] for j, s in enumerate(scales)]},
                "holonomy": {"kind": "trivial"},
            }],
        })
        expected = 0 if extra else (-1) ** int(np.sum(signs < 0))
        assert global_index(model) == expected, signs
        report = model_cross_check(model)
        assert report.kernel_total == report.global_index == expected, signs


def test_m10_hat_linear_closure_is_certified_below_one_dense_matrix(tmp_path):
    # the loader, validation, the graded restriction and the sign sort all stay
    # monomial: one dense 1024 x 1024 complex matrix is 16 MB
    m = 10
    scales = np.random.default_rng(10).uniform(0.5, 2.0, m)
    path = tmp_path / "scaling_m10.json"
    path.write_text(json.dumps({
        "name": "scaling_m10", "codimension": m, "expected_index": 1,
        "closures": [{
            "name": "scaling_m10", "normal_dim": m,
            "module": {"kind": "exterior", "grading": "parity"},
            "perturbation": {"kind": "hat_linear",
                             "coefficients": [[float(s), j + 1] for j, s in enumerate(scales)]},
            "holonomy": {"kind": "trivial"},
        }],
    }))
    tracemalloc.start()
    try:
        report = model_cross_check(load_scenario(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.kernel_total == report.global_index == 1
    assert peak < 1024 * 1024 * 16, peak

