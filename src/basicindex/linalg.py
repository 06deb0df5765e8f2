"""Deterministic dense complex linear algebra used by the index engine.

Thin, contract-enforcing layer over LAPACK: Hermitian eigendecomposition,
the joint eigenbasis of commuting Hermitian operators that square to scalars
(one eigendecomposition, whose eigenvalues order the sign patterns), and
null-space dimensions.  All functions are pure; identical
inputs give identical outputs within one build (eigenvector phases are normalized deterministically).

The private product kernels below evaluate an index plan of rows
wp A_a A_b + wq A_b A_a + lam I, and of A_k + sign A_k^H, by Frobenius norm:
_dense_norms on dense matrices one row at a time, and _monomial_norms on a
monomial stack (_Monomial: at most one nonzero per row, as in exterior
modules), in batches of rows, where a product is a gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray
_BATCH = 1 << 12  # entries per batch of rows of the monomial kernel


class LinalgError(ValueError):
    """Input violates an operation's contract (non-Hermitian, non-commuting...)."""


class DegenerateEigenvalueError(LinalgError):
    """An eigenvalue sits too close to zero where a sign is required."""


def _norm(a: Array) -> float:
    return float(np.linalg.norm(a))


class _Monomial:
    """A stack of square matrices with at most one nonzero per row.

    Row i of matrix k holds vals[k, i] at column cols[k, i] and zeros
    elsewhere (vals[k, i] may be 0).  Products compose the index arrays, so
    they cost O(d) per matrix and do no arithmetic on zeros: each entry is
    the one product a dense multiplication would sum with zeros.  As a
    sequence it reads as its dense matrices (read-only), each built when it is
    read and not kept: a reader that needs one twice keeps it.
    """

    def __init__(self, cols: Array, vals: Array):
        self.cols, self.vals = cols, vals  # (k, d) int, (k, d) complex

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, i: int) -> Array:
        return _read_only(self.take([i]).dense()[0])[0]

    def take(self, idx) -> "_Monomial":
        return _Monomial(self.cols[idx], self.vals[idx])

    def dense(self) -> Array:
        """The (k, d, d) dense stack."""
        k, d = self.cols.shape
        out = np.zeros((k, d, d), dtype=complex)
        out[np.arange(k)[:, None], np.arange(d), self.cols] = self.vals
        return out


def _diagonal(mats) -> Array | None:
    """The (k, d) diagonals of a stack, or None if it is not diagonal."""
    if isinstance(mats, _Monomial):
        on = mats.cols == np.arange(mats.cols.shape[-1])
        return np.where(on, mats.vals, 0.0) if np.all(on | (mats.vals == 0)) else None
    stack = np.asarray(mats)
    diagonals = np.diagonal(stack, axis1=1, axis2=2)
    return diagonals if np.count_nonzero(stack) == np.count_nonzero(diagonals) else None


def _monomial(mats) -> _Monomial | None:
    """Monomial form of a sequence of square matrices of one shape, or None when
    some row holds two nonzeros (one nonzero count classifies the family), the
    sequence is empty or the shapes differ."""
    mats = [np.asarray(a) for a in mats]
    if not mats or mats[0].size == 0 or any(a.shape != mats[0].shape or a.ndim != 2
                                            for a in mats):
        return None
    nonzero = np.array([a != 0 for a in mats])
    if int(np.count_nonzero(nonzero, axis=-1).max()) > 1:
        return None
    cols = np.argmax(nonzero, axis=-1)
    rows = np.arange(cols.shape[1])
    return _Monomial(cols, np.array([a[rows, c] for a, c in zip(mats, cols)], dtype=complex))


def _concat(*forms: _Monomial) -> _Monomial:
    return _Monomial(np.concatenate([f.cols for f in forms]),
                     np.concatenate([f.vals for f in forms]))


def _product(base: _Monomial, a: Array, b: Array, w: Array | None = None) -> _Monomial:
    """Row n: base[a[n]] @ base[b[n]], times w[n] when given, in one gather."""
    at = (b[:, None], base.cols[a])
    vals = base.vals[a] * base.vals[at]
    return _Monomial(base.cols[at], vals if w is None else w[:, None] * vals)


def _read_only(*arrays: Array) -> tuple[Array, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _row_norms(*parts: Array) -> Array:
    """Euclidean norm of each row of the real arrays parts, joined along the last axis."""
    x = np.concatenate(parts, axis=-1)
    return np.sqrt((x * x).sum(axis=-1))


def _norms(p: _Monomial, q: _Monomial, lam: Array) -> Array:
    """Frobenius norm of each p_n + q_n + lam[n] I.

    Coincident entries are added before they are squared, in the order of
    the dense sum (p + q) + lam I, so a sum that cancels reads exactly 0; a
    Gram expansion of the squared norm would leave noise of ~1e-8 relative.
    """
    rows = np.arange(p.cols.shape[-1])
    lam = lam[:, None]
    pq, p_diag, q_diag = q.cols == p.cols, p.cols == rows, q.cols == rows
    at_p = p.vals + np.where(pq, q.vals, 0.0) + np.where(p_diag, lam, 0.0)
    at_q = np.where(pq, 0.0, q.vals + np.where(q_diag, lam, 0.0))
    return _row_norms(at_p.view(float), at_q.view(float), np.where(p_diag | q_diag, 0.0, lam))


def _adjoint_norms(a: _Monomial, signs: Array) -> Array:
    """Frobenius norm of each a_k + signs[k] a_k^H, coincident entries merged.

    a^H holds conj(vals[i]) at (cols[i], i); it coincides with the entry of a
    at (i, cols[i]) exactly when cols[cols[i]] == i.
    """
    cols, vals = a.cols, a.vals
    at = (np.arange(len(cols))[:, None], cols)
    paired = cols[at] == np.arange(cols.shape[-1])
    merged = vals + np.where(paired, signs[:, None] * vals[at].conj(), 0.0)
    return _row_norms(merged.view(float), np.where(paired, 0.0, vals).view(float))


def _monomial_norms(base: _Monomial, a: Array, b: Array, wp: Array, wq: Array, lam: Array,
                    ref: Array) -> tuple[Array, Array]:
    """_dense_norms over the monomial stack base, in batches of about _BATCH entries."""
    d = base.cols.shape[-1]
    rows, step = np.arange(d), max(1, _BATCH // d)
    norms, scalars = np.zeros(len(ref)), np.zeros(len(ref))
    for lo in range(0, len(ref), step):
        n = slice(lo, lo + step)
        p, q = _product(base, a[n], b[n], wp[n]), _product(base, b[n], a[n], wq[n])
        own = np.flatnonzero(ref[n] == np.arange(lo, lo + len(p.cols)))
        trace = (np.where(p.cols[own] == rows, p.vals[own], 0.0)
                 + np.where(q.cols[own] == rows, q.vals[own], 0.0)).sum(axis=-1)
        scalars[lo + own] = (trace / d).real
        norms[n] = _norms(p, q, np.where(ref[n] < 0, lam[n], -scalars[ref[n]]))
    return norms, scalars


def _dense_norms(mats: list[Array], a: Array, b: Array, wp: Array, wq: Array, lam: Array,
                 ref: Array) -> tuple[Array, Array]:
    """Frobenius norm of each wp[n] A_a A_b + wq[n] A_b A_a + lam[n] I, A_i = mats[i].

    The rows are walked one at a time, in order, as wp (A_a A_b + wq / wp A_b A_a)
    with wp != 0: a zero wq skips its product, and a unit weight its scaling.
    Where ref[n] >= 0, lam[n] is replaced by minus the scalar trace / dim of
    row ref[n]: the row's own when ref[n] == n, else one already walked.
    Returns the norms and each row's own scalar (0 for the other rows).
    """
    diag = np.diag_indices(mats[0].shape[0])
    norms, scalars = np.zeros(len(a)), np.zeros(len(a))
    for n in range(len(a)):
        x = mats[a[n]] @ mats[b[n]]
        if wq[n]:
            y = mats[b[n]] @ mats[a[n]]
            if wq[n] == -wp[n]:
                x -= y
            else:
                x += y if wq[n] == wp[n] else wq[n] / wp[n] * y
        if wp[n] != 1:
            x *= wp[n]
        r = ref[n]
        if r == n:
            scalars[n] = (np.trace(x) / len(x)).real
        shift = lam[n] if r < 0 else -scalars[r]
        if shift:
            x[diag] += shift
        norms[n] = np.linalg.norm(x)
    return norms, scalars


def _dense_adjoint_norms(mats: list[Array], signs: Array) -> Array:
    """Frobenius norm of each A_k + signs[k] A_k^H, A_k = mats[k], signs[k] = +-1."""
    return np.array([np.linalg.norm(a + a.conj().T if s > 0 else a - a.conj().T)
                     for a, s in zip(mats, signs)])


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
class JointEigenstructure:
    """Common unitary eigenbasis of a commuting Hermitian family.

    Column k of basis is a joint eigenvector; eigentuples[k, j] is its
    eigenvalue under the j-th operator.  Columns are ordered lexicographically
    ascending in the signs of their eigentuple.
    """

    basis: Array  # (dim, dim) unitary; for a diagonal monomial family, order of I[:, order]
    eigentuples: Array  # (dim, number of operators) real
    clusters: tuple[tuple[int, int], ...]  # (start, stop) ranges of one sign pattern


def joint_eig(ops: list[Array] | _Monomial, tol: float = 1e-9) -> JointEigenstructure:
    """Joint eigenbasis of commuting Hermitian matrices that square to scalars.

    Under that contract, L_j^2 = g_jj I, every eigenvalue of L_j is
    +-sqrt(g_jj), so a joint eigenspace is a sign pattern.  Dense operators
    take one eigendecomposition of sum_j 2^(k-1-j) L_j / sqrt(g_jj): on a
    pattern it is the signs read as binary digits, operator 0 most
    significant, so patterns sit at least 2 apart and ascend in column order.
    Only the reconstruction of every operator is verified (validate_closure
    gates the contract), which also rejects a non-commuting family.  When
    every operator is diagonal (no nonzero off the diagonal), the split is one
    stable sort on the sign bits; ops may then be a monomial stack.  Columns
    are ordered by sign pattern, negative first and operator 0 most
    significant; clusters are the runs of one pattern.
    """
    if not len(ops):
        raise LinalgError("at least one operator is required")
    monomial = isinstance(ops, _Monomial)
    mats = ops if monomial else [np.asarray(op, dtype=complex) for op in ops]
    dim = ops.cols.shape[-1] if monomial else mats[0].shape[0]
    for j, a in enumerate([] if monomial else mats):  # a monomial stack is square
        if a.shape != (dim, dim):
            raise LinalgError(f"operator {j} has shape {a.shape}, expected {(dim, dim)}")
    diagonals = _diagonal(mats)
    if diagonals is not None:
        order = np.lexsort(diagonals.real[::-1] >= 0.0)
        basis = order if monomial else np.eye(dim, dtype=complex)[:, order]
        tuples = diagonals.real[:, order].T
    else:
        basis, tuples = _sign_split(list(mats), tol)
    starts = np.flatnonzero(np.any(np.diff(tuples < 0.0, axis=0), axis=1)) + 1
    bounds = [0, *starts.tolist(), dim] if dim else []
    return JointEigenstructure(basis=basis, eigentuples=tuples,
                               clusters=tuple(zip(bounds[:-1], bounds[1:])))


def _sign_split(mats: list[Array], tol: float) -> tuple[Array, Array]:
    """joint_eig's (basis, eigentuples) of dense operators, from one eigendecomposition.

    sqrt(g_jj) is read as ||L_j||_F / sqrt(dim); a zero operator gets weight 0
    and reads as positive.  Patterns that first differ at operator j sit
    2 (2^(k-1-j) - sum_{i>j} 2^(k-1-i)) = 2 apart.  eigh moves an eigenvalue
    by about eps (2^k - 1), and a contract defect delta per involution by at
    most (2^k - 1) delta; while both stay below 1, half the gap, the ascending
    order is the pattern order.  Eigentuples are Rayleigh quotients, and the
    reconstruction of every operator is checked.
    """
    dim, k = mats[0].shape[0], len(mats)
    norms = [_norm(a) for a in mats]
    combo = np.zeros((dim, dim), dtype=complex)
    for j, (a, norm) in enumerate(zip(mats, norms)):
        if norm:
            combo += (2.0 ** (k - 1 - j) * np.sqrt(dim) / norm) * a
    _, basis = hermitian_eig(combo, tol)
    tuples = np.zeros((dim, k))
    for j, (a, norm) in enumerate(zip(mats, norms)):
        image = a @ basis
        tuples[:, j] = np.einsum("ij,ij->j", basis.conj(), image).real
        resid = _norm(image - basis * tuples[:, j])
        if resid > 1e-9 * max(1.0, norm) * max(1.0, dim):
            raise LinalgError(f"joint diagonalization failed to reconstruct operator {j} "
                              f"(residual {resid:.3e})")
    return basis, tuples


def nullspace(mat: Array, tol: float = 1e-9) -> int:
    """Dimension of the null space of mat: the number of its singular values
    below the cutoff, read from the eigenvalues of M^H M.

    The gram route cannot resolve singular values below sqrt(machine eps)
    times the largest one, so the cutoff is max(tol, that floor) relative to
    max(1, largest singular value).
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return mat.shape[1]
    svals = np.sqrt(np.clip(np.linalg.eigvalsh(mat.conj().T @ mat), 0.0, None))
    floor = 8.0 * np.sqrt(np.finfo(float).eps)
    cutoff = max(tol, floor) * max(1.0, float(svals[-1]))
    return int(np.count_nonzero(svals < cutoff))
