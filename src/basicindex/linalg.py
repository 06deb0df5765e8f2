"""Deterministic dense complex linear algebra used by the index engine.

Thin, contract-enforcing layer over LAPACK: Hermitian eigendecomposition,
simultaneous diagonalization of commuting Hermitian families by sequential
refinement, orthonormal subspaces, intersections, and null spaces.  All
functions are pure; identical inputs give identical outputs within one build
(eigenvector phases are normalized deterministically).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

INTERSECTION_TOL = 1e-8  # subspace_intersection's cutoff, and the tolerance its result carries


class LinalgError(ValueError):
    """Input violates an operation's contract (non-Hermitian, non-commuting...)."""


class DegenerateEigenvalueError(LinalgError):
    """An eigenvalue sits too close to zero where a sign is required."""


def _norm(a: Array) -> float:
    return float(np.linalg.norm(a))


def _fix_phases(v: Array) -> Array:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = np.array(v, copy=True)
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            v[:, k] = col * (abs(pivot) / pivot)
    return v


def hermitian_eig(mat: Array, tol: float = 1e-9) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix) with
    deterministic column phases.  Raises LinalgError when the input is not
    Hermitian within tol (relative) or when the solver fails to converge.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, _norm(mat))
    defect = _norm(mat - mat.conj().T)
    if defect > tol * scale:
        raise LinalgError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol * scale:.3e}")
    try:
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigensolver did not converge: {exc}") from exc
    return w, _fix_phases(v)


@dataclass(frozen=True)
class Subspace:
    """A complex subspace given by orthonormal columns, with its tolerance."""

    ambient_dim: int
    basis: Array  # shape (ambient_dim, dim), orthonormal columns
    tol: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> Array:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def full(ambient_dim: int, tol: float = 1e-9) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex), tol)

    @staticmethod
    def from_span(vectors: Array) -> "Subspace":
        """Orthonormalize spanning columns, dropping directions below 1e-9 relative."""
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.ndim != 2:
            raise LinalgError("expected a 2-d array of column vectors")
        if vectors.shape[1] == 0:
            return Subspace(vectors.shape[0], vectors, 1e-9)
        u, s, _ = np.linalg.svd(vectors, full_matrices=False)
        rank = int(np.sum(s > 1e-9 * max(1.0, float(s[0]) if s.size else 1.0)))
        return Subspace(vectors.shape[0], _fix_phases(u[:, :rank]), 1e-9)


@dataclass(frozen=True)
class JointEigenstructure:
    """Common unitary eigenbasis of a commuting Hermitian family.

    Column k of basis is a joint eigenvector; eigentuples[k, j] is its
    eigenvalue under the j-th operator.  Columns are ordered lexicographically
    ascending in their eigentuple.
    """

    basis: Array  # (dim, dim) unitary
    eigentuples: Array  # (dim, n_ops) real
    clusters: tuple[tuple[int, int], ...]  # (start, stop) ranges of equal eigentuples

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_ops(self) -> int:
        return self.eigentuples.shape[1]


def joint_eig(ops: list[Array], tol: float = 1e-9) -> JointEigenstructure:
    """Simultaneously diagonalize commuting Hermitian matrices.

    Sequential refinement: diagonalize the first operator, then within each
    degenerate cluster diagonalize the restriction of the next, and so on.
    Raises LinalgError (with the worst commutator norm) for non-commuting
    input, and verifies the reconstruction of every operator afterwards.
    """
    if not ops:
        raise LinalgError("at least one operator is required")
    mats = [np.asarray(op, dtype=complex) for op in ops]
    dim = mats[0].shape[0]
    scales = [max(1.0, _norm(a)) for a in mats]
    for j, a in enumerate(mats):
        if a.shape != (dim, dim):
            raise LinalgError(f"operator {j} has shape {a.shape}, expected {(dim, dim)}")
        defect = _norm(a - a.conj().T)
        if defect > tol * scales[j]:
            raise LinalgError(f"operator {j} is not Hermitian (defect {defect:.3e})")
    worst = 0.0
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            comm = _norm(mats[j] @ mats[k] - mats[k] @ mats[j])
            worst = max(worst, comm / (scales[j] * scales[k]))
    if worst > tol:
        raise LinalgError(f"operators do not commute: relative commutator norm {worst:.3e}")

    basis = np.eye(dim, dtype=complex)
    tuples = np.zeros((dim, len(mats)))
    clusters: list[tuple[int, int]] = []

    def refine(cols: np.ndarray, level: int) -> np.ndarray:
        if level == len(mats) or len(cols) <= 1:
            if level < len(mats) and len(cols) == 1:
                for j in range(level, len(mats)):
                    sub = basis[:, cols].conj().T @ mats[j] @ basis[:, cols]
                    tuples[cols[0], j] = float(sub[0, 0].real)
            if len(cols):
                clusters.append((int(cols[0]), int(cols[-1]) + 1))
            return cols
        block = basis[:, cols]
        sub = block.conj().T @ mats[level] @ block
        w, v = hermitian_eig(sub, tol)
        basis[:, cols] = block @ v
        tuples[cols, level] = w
        gap = tol * scales[level]
        start = 0
        order = list(cols)
        while start < len(cols):
            stop = start + 1
            while stop < len(cols) and w[stop] - w[stop - 1] <= gap:
                stop += 1
            refine(np.asarray(order[start:stop]), level + 1)
            start = stop
        return cols

    refine(np.arange(dim), 0)
    basis = _fix_phases(basis)
    for j, a in enumerate(mats):
        resid = _norm(a @ basis - basis @ np.diag(tuples[:, j]))
        if resid > 1e-9 * scales[j] * max(1.0, dim):
            raise LinalgError(f"joint diagonalization failed to reconstruct operator {j} "
                              f"(residual {resid:.3e})")
    return JointEigenstructure(basis=basis, eigentuples=tuples, clusters=tuple(clusters))


def subspace_intersection(subs: list[Subspace]) -> Subspace:
    """Intersection of subspaces of a common ambient space.

    Computed as the span of eigenvectors with eigenvalue < INTERSECTION_TOL
    of sum_i (I - P_i); exact for well-separated principal angles.
    """
    if not subs:
        raise LinalgError("at least one subspace is required")
    ambient = subs[0].ambient_dim
    for s in subs:
        if s.ambient_dim != ambient:
            raise LinalgError("subspaces live in different ambient dimensions")
    defect = sum(np.eye(ambient, dtype=complex) - s.projector() for s in subs)
    w, v = hermitian_eig(defect, INTERSECTION_TOL)
    return Subspace(ambient, v[:, w < INTERSECTION_TOL], INTERSECTION_TOL)


def nullspace(mat: Array, tol: float = 1e-9) -> Subspace:
    """Span of right-singular directions of mat with singular value below the
    cutoff, via hermitian_eig on M^H M.

    The gram route cannot resolve singular values below sqrt(machine eps)
    times the largest one, so the cutoff is max(tol, that floor) relative to
    max(1, largest singular value).
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return Subspace.full(mat.shape[1], tol)
    gram = mat.conj().T @ mat
    w, v = hermitian_eig(gram, 1e-9)
    svals = np.sqrt(np.clip(w, 0.0, None))
    floor = 8.0 * np.sqrt(np.finfo(float).eps)
    cutoff = max(tol, floor) * max(1.0, float(svals[-1]) if svals.size else 1.0)
    keep = svals < cutoff
    return Subspace(mat.shape[1], v[:, keep], tol)
