import numpy as np
import pytest
from scipy.linalg import expm

from basicindex import (
    clifford_c,
    clifford_hat,
    contract_op,
    derived_exterior_action,
    exterior_module,
    exterior_rep,
    odd_invertible_perturbation,
    parity_grading,
    wedge_op,
)
from closure_builders import random_orthogonal


def basis_vec(position, m):
    v = np.zeros(1 << m, dtype=complex)
    v[position] = 1.0
    return v


def test_wedge_m1():
    w = wedge_op(1, 1)
    assert np.array_equal(w, np.array([[0, 0], [1, 0]], dtype=complex))


def test_wedge_left_multiplication_signs():
    # dx2 ^ dx1 = -dx1 ^ dx2, while dx1 ^ dx2 is already sorted
    w2 = wedge_op(2, 2)
    assert w2[3, 1] == -1.0
    w1 = wedge_op(1, 2)
    assert w1[3, 2] == 1.0


def test_wedge_kills_repeated_letter():
    w = wedge_op(1, 2)
    assert np.all(w @ basis_vec(1, 2) == 0)


def test_wedge_index_range():
    with pytest.raises(IndexError):
        wedge_op(0, 2)
    with pytest.raises(IndexError):
        wedge_op(3, 2)


def test_contract_is_adjoint_and_m1():
    ct = contract_op(1, 1)
    assert np.array_equal(ct, wedge_op(1, 1).conj().T)
    assert ct[0, 1] == 1.0 and np.all(ct @ basis_vec(0, 1) == 0)


def test_contract_top_form():
    # dx1 -| (dx1 ^ dx2) = dx2
    out = contract_op(1, 2) @ basis_vec(3, 2)
    assert np.allclose(out, basis_vec(2, 2))


@pytest.mark.parametrize("m,j", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_contract_squares_to_zero(m, j):
    ct = contract_op(j, m)
    assert np.linalg.norm(ct @ ct) == 0.0


def test_clifford_c_m1():
    c = clifford_c([1.0], 1)
    assert np.array_equal(c, np.array([[0, -1], [1, 0]], dtype=complex))
    assert np.allclose(c @ c, -np.eye(2))


def test_clifford_anticommutation_orthogonal():
    cu = clifford_c([1.0, 0.0], 2)
    cv = clifford_c([0.0, 1.0], 2)
    assert np.linalg.norm(cu @ cv + cv @ cu) < 1e-12


def test_clifford_c_square_norm():
    c = clifford_c([3.0, 4.0], 2)
    assert np.allclose(c @ c, -25.0 * np.eye(4), atol=1e-12)


def test_clifford_hat_m1():
    h = clifford_hat([1.0], 1)
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(h @ h, np.eye(2))


def test_clifford_hat_square():
    h = clifford_hat([1.0, 1.0], 2)
    assert np.allclose(h @ h, 2.0 * np.eye(4), atol=1e-12)


def test_mixed_anticommutation():
    h = clifford_hat([1.0, 0.0], 2)
    c = clifford_c([1.0, 0.0], 2)
    assert np.linalg.norm(h @ c + c @ h) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_generator_relations(m):
    cs = [clifford_c(np.eye(m)[j], m) for j in range(m)]
    hats = [clifford_hat(np.eye(m)[j], m) for j in range(m)]
    eye = np.eye(1 << m)
    for j in range(m):
        for k in range(m):
            delta = eye if j == k else 0.0
            assert np.linalg.norm(cs[j] @ cs[k] + cs[k] @ cs[j] + 2 * delta) < 1e-10
            assert np.linalg.norm(hats[j] @ hats[k] + hats[k] @ hats[j] - 2 * delta) < 1e-10
            assert np.linalg.norm(cs[j] @ hats[k] + hats[k] @ cs[j]) < 1e-10


# The chirality i^k c_1 ... c_q (k = q/2 for even q, (q + 1)/2 for odd q) is the
# "chirality" grading for even q; for odd q, i^((q+1)/2) = i^(q(q+1)/2), so it is
# the canonical odd invertible perturbation.
def test_chirality_q1():
    gamma = odd_invertible_perturbation(exterior_module(1, "parity"))
    assert np.allclose(gamma, np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(np.sort(np.linalg.eigvalsh(gamma)), [-1.0, 1.0])


def test_chirality_q2_involution():
    gamma = exterior_module(2, "chirality").grading
    assert np.allclose(gamma @ gamma, np.eye(4), atol=1e-12)
    assert np.allclose(gamma, gamma.conj().T)


def test_chirality_commutation_pattern():
    for q in (2, 4):
        mod = exterior_module(q, "chirality")
        for cj in mod.c:
            assert np.linalg.norm(mod.grading @ cj + cj @ mod.grading) < 1e-10
    for q in (1, 3):
        mod = exterior_module(q, "parity")
        gamma = odd_invertible_perturbation(mod)
        for cj in mod.c:
            assert np.linalg.norm(gamma @ cj - cj @ gamma) < 1e-10


def test_chirality_q4_selfdual_two_forms():
    # on two-forms the involution swaps the coordinate plane areas, so the
    # self-dual / anti-self-dual combinations are their sum and difference
    gamma = exterior_module(4, "chirality").grading
    omega1 = basis_vec(0b0011, 4)
    omega2 = basis_vec(0b1100, 4)
    assert np.allclose(gamma @ omega1, omega2, atol=1e-12)
    assert np.allclose(gamma @ (omega1 + omega2), omega1 + omega2, atol=1e-12)
    assert np.allclose(gamma @ (omega1 - omega2), -(omega1 - omega2), atol=1e-12)


def test_exterior_rep_identity():
    assert np.allclose(exterior_rep(np.eye(3)), np.eye(8))


def test_exterior_rep_rotation_fixes_scalar_and_volume():
    g = np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = exterior_rep(g)
    assert np.allclose(rep @ basis_vec(0, 2), basis_vec(0, 2))
    assert np.allclose(rep @ basis_vec(3, 2), basis_vec(3, 2))


def test_exterior_rep_reflection():
    rep = exterior_rep(np.diag([1.0, -1.0]))
    assert np.allclose(rep @ basis_vec(2, 2), -basis_vec(2, 2))
    assert np.allclose(rep @ basis_vec(3, 2), -basis_vec(3, 2))


def test_exterior_rep_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        exterior_rep(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_exterior_rep_homomorphism_and_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        g1, g2 = random_orthogonal(rng, m), random_orthogonal(rng, m)
        r1, r2, r12 = exterior_rep(g1), exterior_rep(g2), exterior_rep(g1 @ g2)
        assert np.linalg.norm(r1 @ r2 - r12) < 1e-9
        assert np.linalg.norm(r1.conj().T @ r1 - np.eye(1 << m)) < 1e-9


def test_derived_action_zero():
    assert np.linalg.norm(derived_exterior_action(np.zeros((2, 2)))) == 0.0


def test_derived_action_rotation_kernel_and_one_forms():
    x = np.array([[0.0, -1.0], [1.0, 0.0]])
    act = derived_exterior_action(x)
    assert np.linalg.norm(act @ basis_vec(0, 2)) < 1e-12
    assert np.linalg.norm(act @ basis_vec(3, 2)) < 1e-12
    block = act[1:3, 1:3]
    eigs = sorted(np.linalg.eigvals(block), key=lambda z: z.imag)
    assert np.allclose(eigs, [-1j, 1j], atol=1e-12)


def test_derived_action_rejects_non_skew():
    with pytest.raises(ValueError):
        derived_exterior_action(np.eye(2))


def test_derived_action_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-5
    for m in (2, 3, 4):
        a = rng.standard_normal((m, m))
        x = a - a.T
        act = derived_exterior_action(x)
        fd = (exterior_rep(expm(h * x)) - np.eye(1 << m)) / h
        scale = 1.0 + np.linalg.norm(x) ** 2 * (1 << m)
        assert np.linalg.norm(fd - act) < 10.0 * h * scale


def test_parity_grading_matches_form_degree():
    eps = parity_grading(3)
    assert eps[0, 0] == 1.0 and eps[1, 1] == -1.0 and eps[3, 3] == 1.0 and eps[7, 7] == -1.0


@pytest.mark.parametrize("m,grading", [(1, "parity"), (2, "parity"), (2, "chirality"),
                                       (3, "parity"), (4, "chirality")])
def test_exterior_module_validates(m, grading):
    assert exterior_module(m, grading).validate(1e-10) == []


def test_exterior_module_rejects_odd_chirality():
    with pytest.raises(ValueError):
        exterior_module(3, "chirality")


def test_exterior_module_ambient_letters():
    mod = exterior_module(1, "parity", ambient_m=2, generator_axes=(2,))
    assert mod.dim == 4 and mod.m == 1
    assert mod.validate(1e-10) == []
    w2 = wedge_op(2, 2)
    assert np.allclose(mod.c[0], w2 - w2.conj().T)
