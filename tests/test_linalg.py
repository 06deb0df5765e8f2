import math

import numpy as np
import pytest

from basicindex import (
    LinalgError,
    Subspace,
    hermitian_eig,
    joint_eig,
    nullspace,
    subspace_intersection,
    wedge_op,
)
from closure_builders import random_hermitian


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
        w = wedge_op(j, 2)
        ct = w.conj().T
        l_ops.append(-(w @ ct - ct @ w))
    struct = joint_eig(l_ops)
    hits = [k for k in range(4)
            if np.allclose(struct.eigentuples[k], [-1.0, -1.0], atol=1e-12)]
    assert len(hits) == 1
    assert abs(abs(struct.basis[3, hits[0]]) - 1.0) < 1e-12


def test_joint_eig_construct_then_verify():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_hermitian(rng, 6)
        p = a @ a - 2.0 * a
        q = a @ a @ a + 0.5 * a
        struct = joint_eig([p, q])
        for op, col in ((p, 0), (q, 1)):
            recon = struct.basis @ np.diag(struct.eigentuples[:, col]) @ struct.basis.conj().T
            assert np.linalg.norm(op - recon) < 1e-9 * max(1.0, np.linalg.norm(op))


def test_joint_eig_rejects_non_commuting():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(LinalgError, match="commute"):
        joint_eig([sx, sz])


def test_intersection_with_self():
    rng = np.random.default_rng(23)
    s = Subspace.from_span(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    assert subspace_intersection([s, s]).dim == s.dim


def test_intersection_coordinate_planes():
    e = np.eye(3, dtype=complex)
    a = Subspace.from_span(e[:, :2])
    b = Subspace.from_span(e[:, 1:])
    inter = subspace_intersection([a, b])
    assert inter.dim == 1
    assert abs(abs(inter.basis[1, 0]) - 1.0) < 1e-12


def test_intersection_matches_rank_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((6, ka)) + 1j * rng.standard_normal((6, ka))
        b = rng.standard_normal((6, kb)) + 1j * rng.standard_normal((6, kb))
        sa, sb = Subspace.from_span(a), Subspace.from_span(b)
        got = subspace_intersection([sa, sb]).dim

        def rank(mat):
            return int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-9))

        expected = rank(a) + rank(b) - rank(np.hstack([a, b]))
        assert got == expected


def test_nullspace_zero_matrix():
    assert nullspace(np.zeros((3, 3), dtype=complex)).dim == 3


def test_nullspace_wedge():
    ns = nullspace(wedge_op(1, 1))
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
    rng = np.random.default_rng(37)
    s = Subspace.from_span(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(s.dim)) < s.tol
