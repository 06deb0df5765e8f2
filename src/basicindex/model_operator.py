"""The matrix harmonic-oscillator model at a critical closure.

In the joint eigenbasis of the L_j the model operator
sum_j (-d_j^2 + L_j + x_j^2 L_j^2) separates into scalar 1D oscillators, so
its levels are sums of 1D levels, streamed in ascending order per eigentuple
and merged up to the count asked for, and every level can be checked
against an independent finite-difference oracle.  The graded,
holonomy-invariant kernel dimension is computed on Gaussian-section pairs
and must agree exactly with the intersection route of the index engine: the
two constructions are the same number reached by different arguments, and a
mismatch is a hard error.

Both routes read one ClosureAnalysis, so they share exactly the validation,
the L_j, the joint eigenbasis and the all-negative selection of eigentuples;
only their holonomy steps differ.  Validation forces L_j^2 = g_jj I, so each
eigentuple is a sign pattern of +-sqrt(diag(G)) and each grading side has at
most one all-negative tuple: the kernel route reads one Gaussian form per side.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, getitem

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


def _ascending_sums(axes: list[list[float]]) -> Iterator[float]:
    """Ascending sums taking one entry from each ascending list of axes.

    A frontier heap holds the index tuples whose parent (one step back on the
    last advanced axis) was yielded, so each tuple is pushed once and each
    value pushes at most len(axes).  Each sum is added left to right in axis
    order from 0.0 with plain float +, so a level keeps its bits.
    """
    def total(idx: tuple[int, ...]) -> float:
        return reduce(add, map(getitem, axes, idx), 0.0)

    start = (0,) * len(axes)
    heap = [(total(start), start, 0)] if all(axes) else []
    while heap:
        val, idx, low = heapq.heappop(heap)
        yield val
        for j in range(low, len(axes)):
            if idx[j] + 1 < len(axes[j]):
                nxt = (*idx[:j], idx[j] + 1, *idx[j + 1:])
                heapq.heappush(heap, (total(nxt), nxt, j))


def _streams(tuples, solve, count: int) -> list[Iterator[float]]:
    """One ascending level stream per eigentuple, summing the count levels
    solve(lam, count) of each axis; solve runs once per distinct eigenvalue."""
    levels = {lam: list(solve(lam, count)) for lam in {lam for tup in tuples for lam in tup}}
    return [_ascending_sums([levels[lam] for lam in tup]) for tup in tuples]


def compose_levels(eigentuple: Array, count: int) -> list[float]:
    """count smallest values of sum_j (|lam_j|(2 n_j + 1) + lam_j) over n_j >= 0."""
    (stream,) = _streams([list(map(float, eigentuple))], oscillator_levels, count)
    return list(islice(stream, count))


def compose_oracle_levels(eigentuple: Array, count: int) -> list[float]:
    """Like compose_levels but summing per-axis finite-difference oracle levels;
    the independent numerical counterpart for cross-checking."""
    (stream,) = _streams([list(map(float, eigentuple))], oscillator_1d_oracle, count)
    return list(islice(stream, count))


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
    # one block per sign pattern (cluster of joint_eig), read off its first column
    return tuple(EigentupleBlock(grading=sign,
                                 eigentuple=tuple(float(x) for x in struct.eigentuples[start]),
                                 multiplicity=stop - start)
                 for sign, (_, struct) in zip((+1, -1), a.sides)
                 for start, stop in struct.clusters)


def analytic_spectrum(d: ClosureDatum, count: int, tol: float = DEFAULT_TOL) -> ModelSpectrum:
    """The count smallest model eigenvalues (with multiplicity) plus the
    graded, holonomy-invariant kernel dimensions.

    Each joint eigentuple streams the level sums of m independent 1D
    oscillators in ascending order, each level repeated by the eigentuple's
    multiplicity; one merge of the streams stops at count, so no block
    composes more levels than the merge reads.  Kernel dimensions come from
    invariant_kernel (only all-negative eigentuples carry normalizable
    Gaussian sections, filtered by holonomy invariance).
    """
    a = analyze_closure(d, tol)
    blocks = _blocks(a)
    streams = _streams([b.eigentuple for b in blocks], oscillator_levels, count)
    merged = heapq.merge(*(chain.from_iterable(map(repeat, stream, repeat(b.multiplicity)))
                           for b, stream in zip(blocks, streams)))
    (kp, km), _ = _checked_kernel_dims(a)
    return ModelSpectrum(
        eigenvalues=np.array(list(islice(merged, count))),
        kernel_dim_plus=kp,
        kernel_dim_minus=km,
        blocks=blocks,
    )


def oracle_deviations(blocks: tuple[EigentupleBlock, ...], count: int) -> list[float]:
    """Per block, the largest deviation of its count lowest oracle-composed levels
    from the analytic ones; the oracle is solved once per distinct eigenvalue."""
    tuples = [b.eigentuple for b in blocks]
    pairs = zip(_streams(tuples, oscillator_levels, count),
                _streams(tuples, oscillator_1d_oracle, count))
    return [max(abs(x - y) for x, y in islice(zip(exact, oracle), count))
            for exact, oracle in pairs]


def _kernel_dim_for_sign(a: ClosureAnalysis, side: int) -> int:
    """Holonomy-invariant dimension of the model kernel on one grading side (0: +1, 1: -1).

    Kernel sections are Gaussian pairs (Q, v) with Q = diag(eigentuple) in
    slice coordinates and v a joint eigenvector with all-negative tuple; a
    group element acts by (dg Q dg^T, rho(g) v) and an infinitesimal
    generator by (X Q + Q X^T, drho(X) v).  Invariance therefore requires the
    module vector to be fixed AND the quadratic form to be preserved; for
    genuine equivariant data the second is implied by the first, and any
    structural leak (kernel not preserved, form not fixed by a component) is
    an inconsistency error rather than a number.  The all-negative columns
    share one tuple, -sqrt(diag(G)), so one form Q serves the side.  Each
    generator is restricted once to those columns of the joint eigenbasis,
    which are formed only for nontrivial holonomy.
    """
    struct, group = a.sides[side][1], a.datum.holonomy
    cols = np.flatnonzero(np.all(struct.eigentuples < 0.0, axis=1))
    if group.trivial or not len(cols):
        return len(cols)
    n_basis = a.vectors(side, cols)
    lam = np.diag(struct.eigentuples[cols[0]])
    eye = np.eye(len(cols))
    rows: list[Array] = []

    def restricted(kind: str, gi: int, op: Array) -> Array:
        act = op @ n_basis
        r = n_basis.conj().T @ act
        leak = float(np.linalg.norm(act - n_basis @ r))
        if leak > 1e-7 * max(1.0, np.linalg.norm(op)):
            raise RouteConsistencyError(
                f"{kind} {gi} does not preserve the model kernel (leak {leak:.3e})")
        return r

    for gi, (dg, rho) in enumerate(group.components):
        r = restricted("component", gi, rho)
        if not np.linalg.norm(dg @ lam @ dg.T - lam) < 1e-6:
            raise RouteConsistencyError(
                f"component {gi} mixes Gaussian quadratic forms inconsistently")
        rows.append(r - eye)
    for gi, (x, dx) in enumerate(group.infinitesimal):
        r = restricted("infinitesimal", gi, dx)
        # the flow moves a drifting form: no invariants there
        rows.append(r + eye if np.linalg.norm(x @ lam + lam @ x.T) > 1e-7 else r)
    return nullspace(np.vstack(rows), a.tol).dim


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
    kp, km = (_kernel_dim_for_sign(a, side) for side in (0, 1))
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
