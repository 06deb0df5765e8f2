import itertools

import numpy as np
import pytest

from basicindex import (
    ClosureDatum,
    ClosureValidationError,
    HolonomyGroup,
    NotInvariantError,
    ScenarioModel,
    contract_op,
    corpus_names,
    exterior_module,
    explicit_module,
    global_index,
    load_corpus_scenario,
    local_index,
    odd_invertible_perturbation,
    validate_closure,
    wedge_op,
)
from closure_builders import carriere_closure, cp2_closure, rotated_closure, sphere_closure

C2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def failed_names(report):
    return {c.name for c in report.failures()}


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


# --- validation ---

def test_sphere_closure_validates_cleanly():
    report = validate_closure(sphere_closure("north"))
    assert report.passed
    assert report.warnings == ()
    assert np.allclose(report.gram, np.eye(2))


def test_cp2_closure_validates_with_symbol_warning():
    report = validate_closure(cp2_closure(0.8, 2.1))
    assert report.passed
    assert {w.name for w in report.warnings} == {"symbol_anticommutation_all_pairs"}


def test_malformed_equal_perturbations_fail_gram():
    d = sphere_closure("north")
    bad = ClosureDatum(d.name, d.module, (d.z[0], d.z[0]), d.holonomy)
    report = validate_closure(bad)
    assert not report.passed
    assert "gram_positive_definite" in failed_names(report)
    assert check_named(report, "gram_positive_definite").max_violation > 0


def test_malformed_commuting_perturbation_fails_anticommutation():
    d = sphere_closure("north")
    bad = ClosureDatum(d.name, d.module, (1j * d.module.c[0], d.z[1]), d.holonomy)
    report = validate_closure(bad)
    assert not report.passed
    assert "clifford_form_diagonal_anticommutation" in failed_names(report)


def test_malformed_even_perturbation_fails_oddness():
    d = sphere_closure("north")
    bad = ClosureDatum(d.name, d.module, (np.eye(4, dtype=complex), d.z[1]), d.holonomy)
    report = validate_closure(bad)
    assert not report.passed
    assert "perturbation_odd" in failed_names(report)


def test_singular_combination_fails_off_closure_bound():
    # Z_2 = Z_1 D with D = i c_1 c_2: even, Hermitian, D^2 = I, commutes with
    # Z_1, traceless.  G = I is positive definite, yet Z_1 (sigma_1 + sigma_2 D)
    # is singular on the diagonals of the unit circle.
    d = sphere_closure("north")
    flip = 1j * d.module.c[0] @ d.module.c[1]
    assert np.allclose(flip, flip.conj().T) and np.allclose(flip @ d.z[0], d.z[0] @ flip)
    bad = ClosureDatum(d.name, d.module, (d.z[0], d.z[0] @ flip), d.holonomy)
    report = validate_closure(bad)
    assert np.allclose(report.gram, np.eye(2))
    sigma = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.linalg.svd(sigma[0] * bad.z[0] + sigma[1] * bad.z[1], compute_uv=False)[-1] < 1e-12
    check = check_named(report, "nondegenerate_off_closure")
    assert check.severity == "hard" and not check.passed
    assert "nondegenerate_off_closure" in failed_names(report)


def test_off_closure_bound_is_sound():
    # the check certifies smin(sum sigma_j Z_j)^2 >= lambda_min(G) - m * gram_dev
    # on the whole unit sphere; random unit sigma must never beat it
    rng = np.random.default_rng(2024)
    closures = [d for name in corpus_names() for d in load_corpus_scenario(name).closures]
    closures.append(rotated_closure(6, rng))
    for d in closures:
        report = validate_closure(d)
        assert check_named(report, "nondegenerate_off_closure").passed, d.name
        m = d.module.m
        bound = (np.linalg.eigvalsh(report.gram)[0]
                 - m * check_named(report, "gram_scalar").max_violation)
        assert bound > 0.0, d.name
        sigmas = rng.standard_normal((256, m))
        sigmas /= np.linalg.norm(sigmas, axis=1, keepdims=True)
        for sigma in sigmas:
            zs = sum(s * zj for s, zj in zip(sigma, d.z))
            smin = np.linalg.svd(zs, compute_uv=False)[-1]
            # relative slack for the rounding of the SVD itself
            assert smin >= np.sqrt(bound) * (1.0 - 1e-12), (d.name, sigma)


def test_validation_is_report_only():
    d = sphere_closure("north")
    bad = ClosureDatum(d.name, d.module, (d.z[0], d.z[0]), d.holonomy)
    validate_closure(bad)  # must not raise
    with pytest.raises(ClosureValidationError):
        local_index(bad)


# --- operator construction ---

def test_build_L_sphere_north_matches_number_operator():
    w1, ct1 = wedge_op(1, 2), contract_op(1, 2)
    expected = -(w1 @ ct1 - ct1 @ w1)
    l_ops = validate_closure(sphere_closure("north")).l_ops
    assert np.allclose(l_ops[0], expected, atol=1e-12)


def test_build_L_carriere_eigenvalues():
    l_ops = validate_closure(carriere_closure("quarter")).l_ops
    assert np.allclose(np.sort(np.linalg.eigvalsh(l_ops[0])),
                       [-2 * np.pi, -2 * np.pi, 2 * np.pi, 2 * np.pi])


@pytest.mark.parametrize("make", [lambda: sphere_closure("north"),
                                  lambda: carriere_closure("quarter"),
                                  lambda: cp2_closure(0.8, 2.1)])
def test_build_L_commutators_vanish(make):
    d = make()
    l_ops = validate_closure(d).l_ops
    for a, b in itertools.combinations(l_ops, 2):
        assert np.linalg.norm(a @ b - b @ a) < 1e-10
    for a in l_ops:  # grading restriction is well defined
        assert np.linalg.norm(a @ d.module.grading - d.module.grading @ a) < 1e-10


def test_build_L_raises_on_bad_data():
    d = sphere_closure("north")
    bad = ClosureDatum(d.name, d.module, (1j * d.module.c[0], d.z[1]), d.holonomy)
    with pytest.raises(ClosureValidationError, match="L_0"):
        local_index(bad)


# --- local indices ---

def test_sphere_north_index_and_detail():
    ind, detail = local_index(sphere_closure("north"))
    assert ind == 1
    assert detail.plus.dim_intersection == 1
    assert detail.plus.dim_invariant == 1
    assert detail.minus.dim_intersection == 0
    vec = detail.plus.intersection.basis[:, 0]
    target = np.zeros(4, dtype=complex)
    target[3] = 1.0  # the area form
    assert abs(abs(np.vdot(target, vec)) - 1.0) < 1e-9


def test_sphere_south_index():
    ind, detail = local_index(sphere_closure("south"))
    assert ind == 1
    # the intersection is the scalar line at the south pole
    vec = detail.plus.intersection.basis[:, 0]
    assert abs(abs(vec[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("which", ["quarter", "three_quarters"])
def test_carriere_indices(which):
    ind, detail = local_index(carriere_closure(which))
    assert ind == 0
    assert (detail.plus.dim_invariant, detail.minus.dim_invariant) == (1, 1)


@pytest.mark.parametrize("alpha,beta,expected", [
    (0.8, 2.1, 1), (-0.8, 1.3, -1), (-2.1, -1.3, 1),
    (2.1, 0.8, 1), (-2.1, -1.3, 1), (-0.8, 1.3, -1),
    (1.3, -0.8, -1),
])
def test_cp2_sign_table(alpha, beta, expected):
    ind, detail = local_index(cp2_closure(alpha, beta))
    assert ind == expected
    got = (detail.plus.dim_invariant, detail.minus.dim_invariant)
    assert got == ((1, 0) if expected == 1 else (0, 1))


def test_global_index_sums():
    sphere = ScenarioModel("sphere", 2, (sphere_closure("north"), sphere_closure("south")))
    assert global_index(sphere) == 2
    carriere = ScenarioModel("carriere", 2, (carriere_closure("quarter"),
                                             carriere_closure("three_quarters")))
    assert global_index(carriere) == 0
    cp2 = ScenarioModel("cp2", 4, (cp2_closure(0.8, 2.1, "c0"),
                                   cp2_closure(-0.8, 1.3, "c1"),
                                   cp2_closure(-2.1, -1.3, "c2")))
    assert global_index(cp2) == 1


def test_empty_scenario_index_zero():
    assert global_index(ScenarioModel("empty", 3, ())) == 0


def test_global_index_names_failing_closure():
    d = sphere_closure("north")
    bad = ClosureDatum("broken", d.module, (d.z[0], d.z[0]), d.holonomy)
    with pytest.raises(ClosureValidationError, match="broken"):
        global_index(ScenarioModel("s", 2, (bad,)))


# --- invariances of the index ---

def test_scaling_invariance():
    rng = np.random.default_rng(41)
    for make, expected in ((lambda: sphere_closure("north"), 1),
                           (lambda: cp2_closure(0.8, 2.1), 1)):
        d = make()
        scales = rng.uniform(0.2, 5.0, size=d.module.m)
        scaled = ClosureDatum(d.name, d.module,
                              tuple(t * z for t, z in zip(scales, d.z)), d.holonomy)
        assert local_index(scaled)[0] == expected


@pytest.mark.parametrize("perm", [(1, 2, 0, 3), (1, 0, 3, 2), (3, 2, 1, 0)])
def test_even_relabeling_invariance(perm):
    d = cp2_closure(0.8, 2.1)
    module = explicit_module([d.module.c[p] for p in perm], d.module.grading)
    permuted = ClosureDatum(d.name, module, tuple(d.z[p] for p in perm),
                            HolonomyGroup(4, d.holonomy.infinitesimal,
                                          d.holonomy.components))
    assert local_index(permuted)[0] == local_index(d)[0] == 1


def test_non_invariant_intersection_is_an_error():
    d = sphere_closure("north")
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 3] = swap[3, 0] = swap[1, 2] = swap[2, 1] = 1.0
    holonomy = HolonomyGroup(2, (), ((np.eye(2), swap),))
    bad = ClosureDatum(d.name, d.module, d.z, holonomy)
    assert validate_closure(bad).passed  # structurally fine, only equivariance warns
    with pytest.raises(NotInvariantError):
        local_index(bad)


def test_orientation_reversal_negates_chirality_index():
    # rebuilding the involution with the opposite orientation swaps the two
    # grading blocks, so every local contribution flips sign
    d = cp2_closure(0.8, 2.1)
    flipped = ClosureDatum(
        d.name,
        explicit_module(list(d.module.c), -d.module.grading),
        d.z,
        d.holonomy,
    )
    assert local_index(flipped)[0] == -local_index(d)[0] == -1


# --- brute-force oracle on the smallest modules ---

def brute_force_index(c1, eps, z1):
    """Enumerate the diagonal action of L = c1 z1: the matrices in these
    configurations are diagonal or antidiagonal products, so L and eps are
    simultaneously diagonal and signs can be read off entrywise."""
    l_mat = c1 @ z1
    ind = 0
    for i in range(2):
        lam = l_mat[i, i].real
        parity = eps[i, i].real
        if lam < 0:
            ind += 1 if parity > 0 else -1
    return ind


@pytest.mark.parametrize("c_sign", [1.0, -1.0])
@pytest.mark.parametrize("eps_sign", [1.0, -1.0])
@pytest.mark.parametrize("z_sign", [1.0, -1.0])
def test_m1_dim2_brute_force(c_sign, eps_sign, z_sign):
    c1 = c_sign * C2
    eps = eps_sign * SZ
    z1 = z_sign * SX
    module = explicit_module([c1], eps)
    d = ClosureDatum("tiny", module, (z1,), HolonomyGroup.trivial_group(1))
    got, _ = local_index(d)
    assert got == brute_force_index(c1, eps, z1)


# --- odd codimension ---

def test_odd_perturbation_q1():
    module = exterior_module(1, "parity")
    z = odd_invertible_perturbation(module)
    assert np.allclose(z, np.array([[0.0, -1j], [1j, 0.0]]))
    assert np.allclose(z @ z, np.eye(2))


def test_odd_perturbation_q3():
    module = exterior_module(3, "parity")
    z = odd_invertible_perturbation(module)
    expected = -module.c[0] @ module.c[1] @ module.c[2]
    assert np.allclose(z, expected, atol=1e-12)
    assert np.linalg.norm(z - z.conj().T) < 1e-12
    assert np.allclose(z @ z, np.eye(8), atol=1e-12)


def test_odd_perturbation_q5():
    module = exterior_module(5, "parity")
    z = odd_invertible_perturbation(module)
    assert np.linalg.norm(z - z.conj().T) < 1e-10
    svals = np.linalg.svd(z, compute_uv=False)
    assert svals[-1] >= 1.0 - 1e-9


def test_odd_perturbation_rejects_even_q():
    with pytest.raises(ValueError):
        odd_invertible_perturbation(exterior_module(2, "parity"))
