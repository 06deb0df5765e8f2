"""The matrix harmonic-oscillator model at a critical closure.

In the joint eigenbasis of the L_j the model operator
sum_j (-d_j^2 + L_j + x_j^2 L_j^2) separates into scalar 1D oscillators, so
its spectrum is composed analytically per eigentuple and every level can be
checked against an independent finite-difference oracle.  The graded,
holonomy-invariant kernel dimension is computed on Gaussian-section pairs
and must agree exactly with the intersection route of the index engine: the
two constructions are the same number reached by different arguments, and a
mismatch is a hard error.

Both routes read one ClosureAnalysis, so they share exactly the validation,
the L_j, the joint eigenbasis and the all-negative selection of eigentuples;
only their holonomy steps differ.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .linalg import nullspace
from .local_index import (
    ClosureAnalysis,
    ClosureDatum,
    DEFAULT_TOL,
    ScenarioModel,
    analyze_closure,
)

Array = np.ndarray


class RouteConsistencyError(RuntimeError):
    """The kernel route and the intersection route disagree (invariant violation)."""


def oscillator_levels(lam: float, count: int) -> list[float]:
    """Analytic levels |lam|(2n+1) + lam, n = 0..count-1, of -f'' + (lam + lam^2 x^2)f."""
    return [abs(lam) * (2 * n + 1) + lam for n in range(count)]


def oscillator_1d_oracle(lam: float, count: int, n_grid: int = 2000) -> Array:
    """Independent numerical spectrum of -f'' + (lam + lam^2 x^2) f on [-R, R].

    Dirichlet ends, second-order central differences on n_grid interior
    points, eigenvalues by bisection on the tridiagonal matrix; a second
    solve on the doubled grid cancels the O(h^2) error by one extrapolation
    step (the bare stencil at n_grid = 2000 only reaches ~1e-4).
    R follows the decay rule exp(-|lam| R^2 / 2) < 1e-12.
    """
    from scipy.linalg import eigvalsh_tridiagonal  # scipy loads only where the oracle runs

    if lam == 0.0:
        raise ValueError("lam must be nonzero (the model is vacuous at 0)")
    if n_grid < 500:
        raise ValueError("n_grid must be at least 500")
    r = math.sqrt(2.0 * math.log(1e12) / abs(lam))

    def solve(n: int) -> Array:
        h = 2.0 * r / (n + 1)
        x = -r + h * np.arange(1, n + 1)
        diag = 2.0 / h**2 + lam + lam**2 * x**2
        off = np.full(n - 1, -1.0 / h**2)
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))

    coarse, fine = solve(n_grid), solve(2 * n_grid)
    return (4.0 * fine - coarse) / 3.0


def _k_smallest_sums(a: list[float], b: list[float], k: int) -> list[float]:
    """k smallest values of a_i + b_j for sorted ascending a, b."""
    if not a or not b:
        return []
    heap = [(a[0] + b[0], 0, 0)]
    seen = {(0, 0)}
    out: list[float] = []
    while heap and len(out) < k:
        val, i, j = heapq.heappop(heap)
        out.append(val)
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if ni < len(a) and nj < len(b) and (ni, nj) not in seen:
                seen.add((ni, nj))
                heapq.heappush(heap, (a[ni] + b[nj], ni, nj))
    return out


def compose_levels(eigentuple: Array, count: int) -> list[float]:
    """count smallest values of sum_j (|lam_j|(2 n_j + 1) + lam_j) over n_j >= 0."""
    levels = [0.0]
    for lam in np.asarray(eigentuple, dtype=float):
        levels = _k_smallest_sums(levels, oscillator_levels(float(lam), count), count)
    return levels


def compose_oracle_levels(eigentuple: Array, count: int) -> list[float]:
    """Like compose_levels but summing per-axis finite-difference oracle levels;
    the independent numerical counterpart for cross-checking."""
    levels = [0.0]
    for lam in np.asarray(eigentuple, dtype=float):
        levels = _k_smallest_sums(levels, list(oscillator_1d_oracle(float(lam), count)), count)
    return levels


@dataclass(frozen=True)
class EigentupleBlock:
    """One distinct joint eigentuple within a grading sign."""

    grading: int  # +1 or -1
    eigentuple: tuple[float, ...]
    multiplicity: int
    vectors: Array  # ambient module coordinates, orthonormal columns


@dataclass(frozen=True)
class ModelSpectrum:
    eigenvalues: Array  # ascending, with multiplicity
    kernel_dim_plus: int
    kernel_dim_minus: int
    blocks: tuple[EigentupleBlock, ...]


def eigentuple_blocks(d: ClosureDatum, tol: float = DEFAULT_TOL) -> tuple[EigentupleBlock, ...]:
    """Distinct joint eigentuples of (L_1..L_m) per grading sign, with their
    eigenspaces mapped back to ambient module coordinates."""
    return _blocks(analyze_closure(d, tol))


def _blocks(a: ClosureAnalysis) -> tuple[EigentupleBlock, ...]:
    # one block per cluster of joint_eig, represented by its first column
    return tuple(EigentupleBlock(grading=sign,
                                 eigentuple=tuple(float(x) for x in struct.eigentuples[start]),
                                 multiplicity=stop - start,
                                 vectors=u @ struct.basis[:, start:stop])
                 for sign, (u, struct) in zip((+1, -1), a.sides)
                 for start, stop in struct.clusters)


def analytic_spectrum(d: ClosureDatum, count: int, tol: float = DEFAULT_TOL) -> ModelSpectrum:
    """The count smallest model eigenvalues (with multiplicity) plus the
    graded, holonomy-invariant kernel dimensions.

    Each joint eigentuple contributes the level sums of m independent 1D
    oscillators; a level inherits the eigentuple's multiplicity.  Kernel
    dimensions come from invariant_kernel (only all-negative eigentuples
    carry normalizable Gaussian sections, filtered by holonomy invariance).
    """
    a = analyze_closure(d, tol)
    blocks = _blocks(a)
    merged: list[float] = []
    for b in blocks:
        merged.extend(lv for lv in compose_levels(np.array(b.eigentuple), count)
                      for _ in range(b.multiplicity))
    merged.sort()
    (kp, km), _ = _checked_kernel_dims(a, blocks)
    return ModelSpectrum(
        eigenvalues=np.array(merged[:count]),
        kernel_dim_plus=kp,
        kernel_dim_minus=km,
        blocks=blocks,
    )


def _kernel_dim_for_sign(d: ClosureDatum, blocks: list[EigentupleBlock],
                         tol: float) -> int:
    """Holonomy-invariant dimension of the model kernel on one grading sign.

    Kernel sections are Gaussian pairs (Q, v) with Q = diag(eigentuple) in
    slice coordinates and v a joint eigenvector with all-negative tuple; a
    group element acts by (dg Q dg^T, rho(g) v) and an infinitesimal
    generator by (X Q + Q X^T, drho(X) v).  Invariance therefore requires the
    module vector to be fixed AND the quadratic form to be preserved; for
    genuine equivariant data the second is implied by the first, and any
    structural leak (kernel not preserved, tuple blocks mixing) is an
    inconsistency error rather than a number.
    """
    if not blocks:
        return 0
    group = d.holonomy
    n_basis = np.hstack([b.vectors for b in blocks])
    n_cols = n_basis.shape[1]
    if group.trivial:
        return n_cols
    col_of_block = []
    start = 0
    for b in blocks:
        col_of_block.append(slice(start, start + b.multiplicity))
        start += b.multiplicity
    lam_mats = [np.diag(b.eigentuple) for b in blocks]
    outside = np.eye(d.module.dim, dtype=complex) - n_basis @ n_basis.conj().T
    rows: list[Array] = []
    eye_n = np.eye(n_cols, dtype=complex)

    for gi, (dg, rho) in enumerate(group.components):
        act = rho @ n_basis
        leak = float(np.linalg.norm(outside @ act))
        if leak > 1e-7 * max(1.0, np.linalg.norm(rho)):
            raise RouteConsistencyError(
                f"component {gi} does not preserve the model kernel (leak {leak:.3e})")
        m_blocked = np.zeros((n_cols, n_cols), dtype=complex)
        for i, bi in enumerate(blocks):
            moved = dg @ lam_mats[i] @ dg.T
            for i2, bi2 in enumerate(blocks):
                if bi2.grading == bi.grading and np.linalg.norm(moved - lam_mats[i2]) < 1e-6:
                    m_blocked[col_of_block[i2], col_of_block[i]] = \
                        bi2.vectors.conj().T @ rho @ bi.vectors
        full = n_basis.conj().T @ rho @ n_basis
        if np.linalg.norm(m_blocked - full) > 1e-7 * max(1.0, np.linalg.norm(full)):
            raise RouteConsistencyError(
                f"component {gi} mixes Gaussian quadratic forms inconsistently")
        rows.append(m_blocked - eye_n)

    for gi, (x, dx) in enumerate(group.infinitesimal):
        act = dx @ n_basis
        leak = float(np.linalg.norm(outside @ act))
        if leak > 1e-7 * max(1.0, np.linalg.norm(dx)):
            raise RouteConsistencyError(
                f"infinitesimal {gi} does not preserve the model kernel (leak {leak:.3e})")
        row = np.zeros((n_cols, n_cols), dtype=complex)
        restricted = n_basis.conj().T @ dx @ n_basis
        for i, bi in enumerate(blocks):
            for i2 in range(len(blocks)):
                blk = restricted[col_of_block[i2], col_of_block[i]]
                if i2 == i:
                    row[col_of_block[i], col_of_block[i]] = blk
                elif np.linalg.norm(blk) > 1e-7:
                    raise RouteConsistencyError(
                        f"infinitesimal {gi} mixes distinct eigentuple blocks")
            form_drift = x @ lam_mats[i] + lam_mats[i] @ x.T
            if np.linalg.norm(form_drift) > 1e-7:
                # the flow moves this Gaussian's quadratic form: no invariants here
                row[col_of_block[i], col_of_block[i]] += np.eye(blocks[i].multiplicity)
        rows.append(row)

    return nullspace(np.vstack(rows), tol).dim


def invariant_kernel(d: ClosureDatum, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Graded dimensions of the holonomy-invariant model kernel.

    Computed on Gaussian-section pairs, then checked for exact integer
    agreement with the dimensions of the intersection route; disagreement
    raises RouteConsistencyError because the two constructions are provably
    the same number.
    """
    a = analyze_closure(d, tol)
    return _checked_kernel_dims(a, _blocks(a))[0]


def _checked_kernel_dims(a: ClosureAnalysis, blocks: tuple[EigentupleBlock, ...]
                         ) -> tuple[tuple[int, int], int]:
    """Kernel-route (plus, minus) dims, checked against the intersection route's local index."""
    negatives = {+1: [], -1: []}
    for b in blocks:
        if all(x < 0.0 for x in b.eigentuple):
            negatives[b.grading].append(b)
    kp = _kernel_dim_for_sign(a.datum, negatives[+1], a.tol)
    km = _kernel_dim_for_sign(a.datum, negatives[-1], a.tol)
    ind, detail = a.index_detail()
    if (kp, km) != (detail.plus.dim_invariant, detail.minus.dim_invariant):
        raise RouteConsistencyError(
            f"kernel route gives ({kp}, {km}) but the intersection route gives "
            f"({detail.plus.dim_invariant}, {detail.minus.dim_invariant}) "
            f"for closure {a.datum.name!r}")
    return (kp, km), ind


@dataclass(frozen=True)
class CrossCheckEntry:
    closure: str
    kernel_dims: tuple[int, int]
    kernel_index: int
    local_index: int


@dataclass(frozen=True)
class CrossCheckReport:
    entries: tuple[CrossCheckEntry, ...]
    kernel_total: int
    global_index: int

    @property
    def consistent(self) -> bool:
        return self.kernel_total == self.global_index and all(
            e.kernel_index == e.local_index for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"  {e.closure}: kernel dims {e.kernel_dims} -> {e.kernel_index}, "
                         f"intersection route -> {e.local_index}")
        lines.append(f"  total: {self.kernel_total} (kernel) == {self.global_index} (sum rule)")
        return "\n".join(lines)


def model_cross_check(s: ScenarioModel, tol: float = DEFAULT_TOL) -> CrossCheckReport:
    """Verify sum over closures of graded kernel dimensions against the
    global index; agreement is required, disagreement is a hard error."""
    entries = []
    for d in s.closures:
        a = analyze_closure(d, tol)
        (kp, km), ind = _checked_kernel_dims(a, _blocks(a))
        entries.append(CrossCheckEntry(d.name, (kp, km), kp - km, ind))
    # each entry already passed _checked_kernel_dims, so the report is consistent
    return CrossCheckReport(tuple(entries), sum(e.kernel_index for e in entries),
                            sum(e.local_index for e in entries))
