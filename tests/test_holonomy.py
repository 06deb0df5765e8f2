import dataclasses
import json

import numpy as np
import pytest

from basicindex import (
    HolonomyGroup,
    NotInvariantError,
    ScenarioModel,
    Subspace,
    check_equivariance,
    exterior_module,
    exterior_rep,
    invariant_dim_in,
    scenario_to_dict,
    validate_closure,
)
from basicindex.cli import main
from basicindex.holonomy import derive_component_action, derive_infinitesimal_action
from closure_builders import ROT2, so2_group, sphere_closure, torus_group


def coordinate_span(n, cols):
    """The span of the coordinate vectors cols of C^n."""
    return Subspace(n, np.eye(n, dtype=complex)[:, cols], 1e-9)


def svd_kernel_oracle(rows, n):
    """Independent joint-kernel dimension via one SVD."""
    stacked = np.vstack(rows) if rows else np.zeros((1, n), dtype=complex)
    s = np.linalg.svd(stacked, compute_uv=False)
    svals = np.concatenate([s, np.zeros(n - len(s))])
    return int(np.sum(svals < 1e-9 * max(1.0, svals[0] if len(s) else 1.0)))


def rotation4(equal_speed=True):
    x = np.zeros((4, 4))
    x[:2, :2] = ROT2
    x[2:, 2:] = ROT2
    return x


def test_trivial_group_full_space():
    g = HolonomyGroup.trivial_group(2)
    assert invariant_dim_in(g, Subspace.full(4)) == 4


def test_so2_invariants_on_plane_forms():
    module = exterior_module(2, "parity")
    group = so2_group(module)
    assert invariant_dim_in(group, Subspace.full(4)) == 2
    # spanned by the scalar and the area form
    for pos in (0, 3):
        assert invariant_dim_in(group, coordinate_span(4, [pos])) == 1


def test_equal_speed_double_rotation_invariants():
    # equal-angle rotation of both planes: six invariant even-degree forms
    module = exterior_module(4, "parity")
    x = rotation4()
    act = derive_infinitesimal_action(module, x)
    group = HolonomyGroup(4, ((x, act),), ())
    oracle_dim = svd_kernel_oracle([act], 16)
    assert invariant_dim_in(group, Subspace.full(16)) == oracle_dim == 6
    even_forms = coordinate_span(16, np.diag(module.grading).real > 0)
    assert invariant_dim_in(group, even_forms) == 6


def test_independent_torus_invariants():
    # independent plane rotations cut the invariants down to four
    module = exterior_module(4, "parity")
    group = torus_group(module)
    rows = [dx for _, dx in group.infinitesimal]
    oracle_dim = svd_kernel_oracle(rows, 16)
    assert invariant_dim_in(group, Subspace.full(16)) == oracle_dim == 4


def test_invariant_dim_in_area_form():
    module = exterior_module(2, "parity")
    w = coordinate_span(4, [3])
    assert invariant_dim_in(so2_group(module), w) == 1


def test_invariant_dim_in_rejects_non_invariant():
    module = exterior_module(2, "parity")
    w = coordinate_span(4, [1])  # span{dx}
    with pytest.raises(NotInvariantError):
        invariant_dim_in(so2_group(module), w)


def test_invariant_dim_in_trivial_group():
    w = coordinate_span(4, [1, 2])  # not invariant under SO(2)
    assert invariant_dim_in(HolonomyGroup.trivial_group(2), w) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_cyclic_averaging_projector(n):
    module = exterior_module(2, "parity")
    theta = 2.0 * np.pi / n
    g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rho = derive_component_action(module, g)
    group = HolonomyGroup(2, (), ((g, rho),))
    # the group average projects onto the fixed space, so its trace is the fixed dimension
    avg = sum(np.linalg.matrix_power(rho, k) for k in range(n)) / n
    assert np.linalg.norm(avg @ avg - avg) < 1e-9
    assert abs(np.trace(avg) - invariant_dim_in(group, Subspace.full(4))) < 1e-9


def test_redundant_generator_changes_nothing():
    module = exterior_module(2, "parity")
    theta = 2.0 * np.pi / 5
    g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rho = derive_component_action(module, g)
    one = HolonomyGroup(2, (), ((g, rho),))
    two = HolonomyGroup(2, (), ((g, rho), (g @ g, rho @ rho)))
    full = Subspace.full(4)
    assert invariant_dim_in(one, full) == invariant_dim_in(two, full) == 2


def test_group_validation_flags_bad_matrices():
    bad = HolonomyGroup(2, ((np.eye(2), np.zeros((4, 4), dtype=complex)),), ())
    assert any("skew" in p for p in bad.validate(4))


NORTH = sphere_closure("north")
(ROT, DROT), = NORTH.holonomy.infinitesimal
I4 = np.eye(4, dtype=complex)


@pytest.mark.parametrize("infinitesimal,components,message,loads", [
    (((np.diag([1.0, 0.0]), DROT),), (), "infinitesimal[0] slice matrix is not skew", True),
    (((ROT, DROT + I4),), (), "infinitesimal[0] module matrix is not skew-Hermitian", True),
    ((), ((np.array([[1.0, 1.0], [0.0, 1.0]]), I4),),
     "components[0] slice matrix is not orthogonal", True),
    ((), ((np.eye(2), 2.0 * I4),), "components[0] module matrix is not unitary", True),
    # the loader rejects a wrong shape before validation, so this one has no file form
    (((ROT, np.zeros((3, 3), dtype=complex)),), (),
     "infinitesimal[0] module matrix has shape (3, 3)", False),
], ids=["slice-not-skew", "module-not-skew-hermitian", "slice-not-orthogonal",
        "module-not-unitary", "module-shape"])
def test_bad_holonomy_matrix_fails_validation(tmp_path, capsys, infinitesimal, components,
                                              message, loads):
    d = dataclasses.replace(NORTH, holonomy=HolonomyGroup(2, infinitesimal, components))
    assert {c.name: c.note for c in validate_closure(d).failures()} == \
        {"holonomy_matrices": message}
    if loads:
        path = tmp_path / "bad_holonomy.json"
        path.write_text(json.dumps(scenario_to_dict(ScenarioModel("bad", 2, (d,)))))
        for command in ("validate", "index"):
            assert main([command, str(path)]) == 1, command
            out, err = capsys.readouterr()
            assert message in out + err


def test_check_equivariance_trivial():
    d = sphere_closure("north")
    assert check_equivariance(HolonomyGroup.trivial_group(2), d.module, d.z) == 0.0


def test_check_equivariance_sphere():
    d = sphere_closure("north")
    assert check_equivariance(d.holonomy, d.module, d.z) < 1e-9


def test_check_equivariance_flags_perturbed_data():
    d = sphere_closure("north")
    z_bad = (d.z[0] + 0.05 * np.diag([1.0, -1.0, -1.0, 1.0]), d.z[1])
    assert check_equivariance(d.holonomy, d.module, z_bad) > 1e-3


def test_derived_actions_match_exterior_rep():
    module = exterior_module(2, "parity")
    theta = 0.37
    g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(derive_component_action(module, g), exterior_rep(g))
