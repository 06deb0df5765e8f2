import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basicindex import (
    LinalgError,
    hermitian_eig,
    joint_eig,
    local_index,
    nullspace,
)
from closure_builders import (
    conjugated,
    cp2_closure,
    random_hermitian,
    random_unitary,
    reference_wedge_op,
)


# --- closed-form oracles (written before the solver tests that use them) ---

def eig2_closed_form(a):
    """Eigenvalues of a 2x2 Hermitian matrix from trace and determinant."""
    tr = (a[0, 0] + a[1, 1]).real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def eig3_closed_form(a):
    """Eigenvalues of a 3x3 Hermitian matrix by the trigonometric cubic formula."""
    q = (a[0, 0] + a[1, 1] + a[2, 2]).real / 3.0
    p1 = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
    p2 = sum((a[i, i].real - q) ** 2 for i in range(3)) + 2.0 * p1
    if p2 < 1e-30:
        return np.full(3, q)
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b).real / 2.0
    phi = math.acos(min(1.0, max(-1.0, r))) / 3.0
    big = q + 2.0 * p * math.cos(phi)
    small = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.sort([small, 3.0 * q - big - small, big])


def test_hermitian_eig_sorts_ascending():
    w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_hermitian_eig_pauli_x():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(v[:, 0], [s, -s])
    assert np.allclose(v[:, 1], [s, s])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_orthonormal_and_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_hermitian(rng, 8)
        w, v = hermitian_eig(h)
        assert np.linalg.norm(v.conj().T @ v - np.eye(8)) < 1e-12
        assert np.linalg.norm(h - v @ np.diag(w) @ v.conj().T) < 1e-10 * np.linalg.norm(h)


def test_hermitian_eig_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a2 = random_hermitian(rng, 2)
        w2, _ = hermitian_eig(a2)
        assert np.max(np.abs(w2 - eig2_closed_form(a2))) < 1e-10
        a3 = random_hermitian(rng, 3)
        w3, _ = hermitian_eig(a3)
        assert np.max(np.abs(w3 - eig3_closed_form(a3))) < 1e-10


def test_hermitian_eig_deterministic_and_idempotent():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    w1, v1 = hermitian_eig(h)
    w2, v2 = hermitian_eig(h)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)
    w3, _ = hermitian_eig(np.diag(w1).astype(complex))
    assert np.allclose(w3, w1, atol=1e-14)


def test_joint_eig_diagonal_pair():
    struct = joint_eig([np.diag([1.0, -1.0]).astype(complex),
                        np.diag([-1.0, -1.0]).astype(complex)])
    tuples = {tuple(row) for row in struct.eigentuples}
    assert tuples == {(1.0, -1.0), (-1.0, -1.0)}


def test_joint_eig_rotation_example_top_form():
    # both number operators have eigenvalue -1 exactly on the volume line
    l_ops = []
    for j in (1, 2):
        w = reference_wedge_op(j, 2)
        ct = w.conj().T
        l_ops.append(-(w @ ct - ct @ w))
    struct = joint_eig(l_ops)
    hits = [k for k in range(4)
            if np.allclose(struct.eigentuples[k], [-1.0, -1.0], atol=1e-12)]
    assert len(hits) == 1
    assert abs(abs(struct.basis[3, hits[0]]) - 1.0) < 1e-12


def involution_family(rng, n, count):
    """count commuting Hermitian L_j = t_j U diag(signs[j]) U^H, one random U, so
    L_j^2 = t_j^2 I; returns the operators, the t_j and the signs."""
    u = random_unitary(rng, n)
    scales = rng.uniform(0.5, 2.0, size=count)
    signs = rng.choice([-1.0, 1.0], size=(count, n))
    return [t * (u * s) @ u.conj().T for t, s in zip(scales, signs)], scales, signs


def test_joint_eig_construct_then_verify():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ops, scales, signs = involution_family(rng, 6, 3)
        struct = joint_eig(ops)
        basis = struct.basis
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(6)) < 1e-12
        for col, op in enumerate(ops):
            recon = basis @ np.diag(struct.eigentuples[:, col]) @ basis.conj().T
            assert np.linalg.norm(op - recon) < 1e-9 * max(1.0, np.linalg.norm(op))
        assert np.allclose(np.abs(struct.eigentuples), scales, atol=1e-12)
        # clusters are the runs of one sign pattern, negative first, operator 0 first
        runs = [tuple(row) for row in struct.eigentuples > 0.0]
        assert runs == sorted(runs)
        starts = [0] + [k for k in range(1, 6) if runs[k] != runs[k - 1]]
        assert struct.clusters == tuple(zip(starts, starts[1:] + [6]))
        assert Counter(runs) == Counter(tuple(row) for row in signs.T > 0.0)


def test_intersection_with_self():
    # a repeated operator adds no constraint: the all-negative columns span its
    # negative eigenspace
    (p,), (t,), signs = involution_family(np.random.default_rng(23), 6, 1)
    struct = joint_eig([p, p])
    inter = struct.basis[:, np.all(struct.eigentuples < 0.0, axis=1)]
    assert inter.shape[1] == np.sum(signs < 0.0)
    assert np.linalg.norm(p @ inter + t * inter) < 1e-12


def test_intersection_coordinate_planes():
    # negative on span(e_0, e_1) and on span(e_1, e_2): the intersection is the
    # line through e_1, for the diagonal pair and for a dense copy of it
    pair = [np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0])]
    for u in (np.eye(3), random_unitary(np.random.default_rng(19), 3)):
        struct = joint_eig([u @ a @ u.conj().T for a in pair])
        inter = struct.basis[:, np.all(struct.eigentuples < 0.0, axis=1)]
        assert inter.shape[1] == 1
        assert abs(abs(np.vdot(u[:, 1], inter[:, 0])) - 1.0) < 1e-12


def test_intersection_matches_rank_oracle():
    # the intersection of the negative eigenspaces, each from its own eigh, has
    # dimension n - rank of the stacked I - P_k
    rng = np.random.default_rng(29)
    for n, count in ((6, 2), (8, 3)):
        for _ in range(20):
            ops, _, _ = involution_family(rng, n, count)
            got = int(np.sum(np.all(joint_eig(ops).eigentuples < 0.0, axis=1)))
            negs = [v[:, w < 0.0] for w, v in map(np.linalg.eigh, ops)]
            stacked = np.vstack([np.eye(n) - a @ a.conj().T for a in negs])
            assert got == n - int(np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-9))


@settings(max_examples=40)
@given(k=st.integers(1, 8), dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_dense_joint_eig_matches_the_sort_of_a_rotated_copy(k, dim, seed):
    # a diagonal involution family takes the sort; a unitary conjugate of it the
    # one dense eigendecomposition, which must give the same sign rows, clusters
    # and (rotated) eigenspaces, whatever the scales and the patterns present
    rng = np.random.default_rng(seed)
    patterns = rng.choice([-1.0, 1.0], size=(int(rng.integers(1, dim + 1)), k))
    signs = patterns[rng.integers(0, len(patterns), size=dim)].T
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    family = [np.diag(t * s).astype(complex) for t, s in zip(scales, signs)]
    u = random_unitary(rng, dim)
    sort, dense = joint_eig(family), joint_eig([u @ a @ u.conj().T for a in family])
    assert np.array_equal(dense.eigentuples < 0.0, sort.eigentuples < 0.0)
    assert dense.clusters == sort.clusters
    assert np.allclose(np.abs(dense.eigentuples), scales, rtol=1e-12, atol=0.0)
    for lo, hi in sort.clusters:
        a, b = u @ sort.basis[:, lo:hi], dense.basis[:, lo:hi]
        assert np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2) < 1e-9


def test_joint_eig_rejects_non_commuting():
    # two involutions: no basis diagonalizes both, and the one eigendecomposition
    # of 2 sx + sz already fails to reconstruct operator 0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(LinalgError, match="failed to reconstruct operator 0"):
        joint_eig([sx, sz])


def test_nullspace_zero_matrix():
    assert nullspace(np.zeros((3, 3), dtype=complex)).dim == 3


def test_nullspace_wedge():
    ns = nullspace(reference_wedge_op(1, 1))
    assert ns.dim == 1
    assert abs(abs(ns.basis[1, 0]) - 1.0) < 1e-12


def test_nullspace_random_rank():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n, r = 7, int(rng.integers(1, 6))
        u = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        v = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        assert nullspace(u @ v).dim == n - r


def test_subspace_orthonormal_invariant():
    # the intersections local_index builds in a random module basis keep
    # orthonormal columns
    d = conjugated(cp2_closure(0.8, 2.1), random_unitary(np.random.default_rng(37), 16))
    _, detail = local_index(d)
    for side in (detail.plus, detail.minus):
        s = side.intersection
        assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(s.dim)) < s.tol
