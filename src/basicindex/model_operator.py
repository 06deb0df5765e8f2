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

from .linalg import JointEigenstructure, nullspace
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


@dataclass(frozen=True)
class ModelSpectrum:
    eigenvalues: Array  # ascending, with multiplicity
    kernel_dim_plus: int
    kernel_dim_minus: int
    blocks: tuple[EigentupleBlock, ...]


def eigentuple_blocks(d: ClosureDatum, tol: float = DEFAULT_TOL) -> tuple[EigentupleBlock, ...]:
    """Distinct joint eigentuples of (L_1..L_m) per grading sign, with multiplicities."""
    return _blocks(analyze_closure(d, tol))


def _blocks(a: ClosureAnalysis) -> tuple[EigentupleBlock, ...]:
    # one block per cluster of joint_eig, read off its first column
    return tuple(EigentupleBlock(grading=sign,
                                 eigentuple=tuple(float(x) for x in struct.eigentuples[start]),
                                 multiplicity=stop - start)
                 for sign, (_, struct) in zip((+1, -1), a.sides)
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
    (kp, km), _ = _checked_kernel_dims(a)
    return ModelSpectrum(
        eigenvalues=np.array(merged[:count]),
        kernel_dim_plus=kp,
        kernel_dim_minus=km,
        blocks=blocks,
    )


def _kernel_dim_for_sign(d: ClosureDatum, u: Array, struct: JointEigenstructure,
                         tol: float) -> int:
    """Holonomy-invariant dimension of the model kernel on one grading side.

    Kernel sections are Gaussian pairs (Q, v) with Q = diag(eigentuple) in
    slice coordinates and v a joint eigenvector with all-negative tuple; a
    group element acts by (dg Q dg^T, rho(g) v) and an infinitesimal
    generator by (X Q + Q X^T, drho(X) v).  Invariance therefore requires the
    module vector to be fixed AND the quadratic form to be preserved; for
    genuine equivariant data the second is implied by the first, and any
    structural leak (kernel not preserved, tuple blocks mixing) is an
    inconsistency error rather than a number.  Each generator is restricted
    once to the all-negative columns u @ basis[:, cols], which are formed
    only for nontrivial holonomy, and its blocks are then read in place.
    """
    spans = [(start, stop) for start, stop in struct.clusters
             if np.all(struct.eigentuples[start] < 0.0)]
    sizes = [stop - start for start, stop in spans]
    n_cols = sum(sizes)
    group = d.holonomy
    if group.trivial or not n_cols:
        return n_cols
    n_basis = u @ struct.basis[:, np.concatenate([np.arange(*span) for span in spans])]
    owner = np.repeat(np.arange(len(spans)), sizes)  # the block of each column
    lam_mats = [np.diag(struct.eigentuples[start]) for start, _ in spans]
    outside = np.eye(d.module.dim, dtype=complex) - n_basis @ n_basis.conj().T
    rows: list[Array] = []

    def restricted(kind: str, gi: int, op: Array) -> Array:
        act = op @ n_basis
        leak = float(np.linalg.norm(outside @ act))
        if leak > 1e-7 * max(1.0, np.linalg.norm(op)):
            raise RouteConsistencyError(
                f"{kind} {gi} does not preserve the model kernel (leak {leak:.3e})")
        return n_basis.conj().T @ act

    for gi, (dg, rho) in enumerate(group.components):
        r = restricted("component", gi, rho)
        # block (i2, i) survives where dg moves the form of block i onto that of block i2
        keep = np.array([[np.linalg.norm(dg @ lam @ dg.T - lam2) < 1e-6 for lam in lam_mats]
                         for lam2 in lam_mats])
        kept = np.where(keep[np.ix_(owner, owner)], r, 0.0)
        if np.linalg.norm(kept - r) > 1e-7 * max(1.0, np.linalg.norm(r)):
            raise RouteConsistencyError(
                f"component {gi} mixes Gaussian quadratic forms inconsistently")
        rows.append(kept - np.eye(n_cols))

    starts, same = np.cumsum([0] + sizes[:-1]), owner[:, None] == owner[None, :]
    for gi, (x, dx) in enumerate(group.infinitesimal):
        r = restricted("infinitesimal", gi, dx)
        # Frobenius norm of each (i2, i) block
        norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(r) ** 2, starts, axis=0),
                                        starts, axis=1))
        if np.any(norms[~np.eye(len(spans), dtype=bool)] > 1e-7):
            raise RouteConsistencyError(f"infinitesimal {gi} mixes distinct eigentuple blocks")
        # the flow moves a drifting block's quadratic form: no invariants there
        drift = np.array([np.linalg.norm(x @ lam + lam @ x.T) > 1e-7 for lam in lam_mats])
        rows.append(np.where(same, r, 0.0) + np.diag(drift[owner].astype(float)))

    return nullspace(np.vstack(rows), tol).dim


def invariant_kernel(d: ClosureDatum, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Graded dimensions of the holonomy-invariant model kernel.

    Computed on Gaussian-section pairs, then checked for exact integer
    agreement with the dimensions of the intersection route; disagreement
    raises RouteConsistencyError because the two constructions are provably
    the same number.
    """
    return _checked_kernel_dims(analyze_closure(d, tol))[0]


def _checked_kernel_dims(a: ClosureAnalysis) -> tuple[tuple[int, int], int]:
    """Kernel-route (plus, minus) dims, checked against the intersection route's local index."""
    kp, km = (_kernel_dim_for_sign(a.datum, u, struct, a.tol) for u, struct in a.sides)
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
        (kp, km), ind = _checked_kernel_dims(analyze_closure(d, tol))
        entries.append(CrossCheckEntry(d.name, (kp, km), kp - km, ind))
    # each entry already passed _checked_kernel_dims, so the report is consistent
    return CrossCheckReport(tuple(entries), sum(e.kernel_index for e in entries),
                            sum(e.local_index for e in entries))
