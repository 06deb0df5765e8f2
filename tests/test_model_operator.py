import collections
import importlib

import numpy as np
import pytest

from basicindex import (
    ClosureDatum,
    HolonomyGroup,
    RouteConsistencyError,
    ScenarioModel,
    analytic_spectrum,
    compose_levels,
    compose_oracle_levels,
    derived_exterior_action,
    explicit_module,
    exterior_rep,
    invariant_kernel,
    load_corpus_scenario,
    local_index,
    model_cross_check,
    oscillator_1d_oracle,
    oscillator_levels,
)
from basicindex.model_operator import eigentuple_blocks
from closure_builders import (
    ROT2,
    carriere_closure,
    cp2_closure,
    hat_closure,
    rotated_closure,
    sphere_closure,
)

C2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# --- 1D oracle (the oracle itself is validated by exactness + self-convergence) ---

def test_oracle_negative_unit():
    got = oscillator_1d_oracle(-1.0, 3)
    assert np.max(np.abs(got - [0.0, 2.0, 4.0])) < 1e-6


def test_oracle_positive_unit():
    got = oscillator_1d_oracle(1.0, 3)
    assert np.max(np.abs(got - [2.0, 4.0, 6.0])) < 1e-6


def test_oracle_two_pi():
    got = oscillator_1d_oracle(-2.0 * np.pi, 2)
    assert np.max(np.abs(got - [0.0, 4.0 * np.pi])) < 1e-6


def test_oracle_grid_doubling_self_convergence():
    a = oscillator_1d_oracle(-1.3, 5, n_grid=1000)
    b = oscillator_1d_oracle(-1.3, 5, n_grid=2000)
    assert np.max(np.abs(a - b)) < 5e-6


def test_oracle_rejects_zero_and_coarse_grids():
    with pytest.raises(ValueError):
        oscillator_1d_oracle(0.0, 3)
    with pytest.raises(ValueError):
        oscillator_1d_oracle(1.0, 3, n_grid=100)


# --- analytic level composition ---

def test_oscillator_levels_shifted_ladder():
    assert oscillator_levels(-1.0, 3) == [0.0, 2.0, 4.0]
    assert oscillator_levels(2.0, 3) == [4.0, 8.0, 12.0]


def test_compose_levels_mixed_pair():
    # axes with eigenvalues -1 and +1: ladders 0,2,4,... and 2,4,6,...
    got = compose_levels(np.array([-1.0, 1.0]), 5)
    assert got == [2.0, 4.0, 4.0, 6.0, 6.0]


def test_compose_levels_all_positive_minimum():
    got = compose_levels(np.array([2.0, 3.0]), 4)
    assert got[0] == pytest.approx(2.0 * (2.0 + 3.0))
    assert all(x > 0 for x in got)


def test_compose_oracle_levels_matches_analytic():
    tup = np.array([-1.0, 2.1])
    analytic = compose_levels(tup, 5)
    numeric = compose_oracle_levels(tup, 5)
    assert max(abs(a - b) for a, b in zip(analytic, numeric)) < 1e-5


# --- model spectra on the worked closures ---

def m1_two_level_datum():
    module = explicit_module([C2], SZ)
    return ClosureDatum("two_level", module, (SX,), HolonomyGroup.trivial_group(1))


def test_two_level_spectrum_and_kernel():
    spec = analytic_spectrum(m1_two_level_datum(), 5)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 4.0, 4.0])
    assert (spec.kernel_dim_plus, spec.kernel_dim_minus) == (1, 0)


def test_spectrum_nonnegative_everywhere():
    for make in (lambda: sphere_closure("north"), lambda: carriere_closure("quarter"),
                 lambda: cp2_closure(0.8, 2.1)):
        spec = analytic_spectrum(make(), 12)
        assert np.all(spec.eigenvalues >= -1e-12)


def test_sphere_north_kernel_dims():
    spec = analytic_spectrum(sphere_closure("north"), 8)
    assert (spec.kernel_dim_plus, spec.kernel_dim_minus) == (1, 0)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0])


def test_kernel_blocks_have_all_negative_tuples():
    for make in (lambda: sphere_closure("north"), lambda: cp2_closure(0.8, 2.1)):
        d = make()
        kp, km = invariant_kernel(d)
        blocks = eigentuple_blocks(d)
        negatives = [b for b in blocks if all(x < 0 for x in b.eigentuple)]
        assert sum(b.multiplicity for b in negatives) >= kp + km


@pytest.mark.parametrize("make,expected", [
    (lambda: sphere_closure("north"), (1, 0)),
    (lambda: sphere_closure("south"), (1, 0)),
    (lambda: carriere_closure("quarter"), (1, 1)),
    (lambda: carriere_closure("three_quarters"), (1, 1)),
    (lambda: cp2_closure(0.8, 2.1), (1, 0)),
    (lambda: cp2_closure(-0.8, 1.3), (0, 1)),
])
def test_invariant_kernel_dims(make, expected):
    assert invariant_kernel(make()) == expected


def test_invariant_kernel_agrees_with_index_detail():
    for make in (lambda: sphere_closure("north"), lambda: carriere_closure("quarter"),
                 lambda: cp2_closure(-2.1, -1.3)):
        d = make()
        kp, km = invariant_kernel(d)
        _, detail = local_index(d)
        assert (kp, km) == (detail.plus.dim_invariant, detail.minus.dim_invariant)


def test_cross_check_scenarios():
    sphere = ScenarioModel("sphere", 2, (sphere_closure("north"), sphere_closure("south")))
    rep = model_cross_check(sphere)
    assert rep.consistent and rep.kernel_total == 2
    carriere = ScenarioModel("carriere", 2, (carriere_closure("quarter"),
                                             carriere_closure("three_quarters")))
    assert model_cross_check(carriere).kernel_total == 0


def test_dense_m6_closure_counts_both_routes():
    # a rotated exterior m = 6 closure: each grading side is a dense block of 32
    # dimensions, so joint_eig splits by eigh rather than by sort
    d = rotated_closure(6, np.random.default_rng(0))
    assert local_index(d)[0] == 1
    entry, = model_cross_check(ScenarioModel("rotated", 6, (d,))).entries
    assert (entry.kernel_dims, entry.kernel_index, entry.local_index) == ((1, 0), 1, 1)


def test_cross_check_analyses_each_closure_once(monkeypatch):
    engine = importlib.import_module("basicindex.local_index")
    calls = collections.Counter()
    for name in ("validate_closure", "joint_eig"):
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    scenario = load_corpus_scenario("sphere_suspension")
    assert model_cross_check(scenario).consistent
    n = len(scenario.closures)
    assert calls == {"validate_closure": n, "joint_eig": 2 * n}


def test_cross_check_empty_scenario():
    rep = model_cross_check(ScenarioModel("empty", 3, ()))
    assert rep.consistent and rep.kernel_total == 0 == rep.global_index


def test_kernel_route_detects_corrupt_holonomy():
    d = sphere_closure("north")
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 3] = swap[3, 0] = swap[1, 2] = swap[2, 1] = 1.0
    bad = ClosureDatum(d.name, d.module, d.z,
                       HolonomyGroup(2, (), ((np.eye(2), swap),)))
    with pytest.raises(RouteConsistencyError,
                       match="component 0 does not preserve the model kernel"):
        invariant_kernel(bad)


# Z = (chat e1, 2 chat e2) on the m = 2 exterior module: one all-negative tuple per
# side, whose Gaussian form diag(lam_1, lam_2) no axis swap or rotation preserves
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
EVEN_MIX = np.zeros((4, 4), dtype=complex)  # a rotation of the even vectors 1 and e1^e2
EVEN_MIX[0, 3], EVEN_MIX[3, 0] = -1.0, 1.0


def unequal_plane(infinitesimal=(), components=()):
    d = hat_closure(2, [1.0, 2.0])
    return ClosureDatum(d.name, d.module, d.z, HolonomyGroup(2, infinitesimal, components))


@pytest.mark.parametrize("group,message", [
    (dict(components=((SWAP, exterior_rep(SWAP)),)),
     "component 0 mixes Gaussian quadratic forms inconsistently"),
    (dict(infinitesimal=((np.zeros((2, 2)), EVEN_MIX),)),
     "infinitesimal 0 does not preserve the model kernel"),
    (dict(infinitesimal=((ROT2, derived_exterior_action(ROT2)),)),
     # the rotation fixes the kernel vector but moves its form, so the kernel route
     # finds no invariant section where the intersection route finds one
     r"kernel route gives \(0, 0\) but the intersection route gives \(1, 0\)"),
], ids=["swap_mixes_forms", "even_mix_leaks", "rotation_drifts"])
def test_kernel_route_raises_on_inconsistent_holonomy(group, message):
    with pytest.raises(RouteConsistencyError, match=message):
        invariant_kernel(unequal_plane(**group))
