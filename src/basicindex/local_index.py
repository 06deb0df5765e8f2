"""The localized index engine.

At each critical leaf closure the input is finite local data: a Clifford
module, perturbation matrices Z_1..Z_m in Clifford form, and the holonomy
action.  The commuting Hermitian operators L_j = c_j Z_j are restricted to
the +/-1 eigenspaces of the grading; the local index is the difference of
the holonomy-invariant dimensions of the intersections of their negative
eigenspaces, and the global index is the sum over closures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cliff import CliffordModule, _module_report, _module_rows, _shape_problems
from .holonomy import HolonomyGroup, NotInvariantError, check_equivariance, invariant_dim_in
from .linalg import (
    DegenerateEigenvalueError,
    JointEigenstructure,
    LinalgError,
    _adjoint_norms,
    _concat,
    _dense_adjoint_norms,
    _dense_norms,
    _diagonal,
    _Monomial,
    _monomial,
    _monomial_norms,
    _product,
    _read_only,
    _row_norms,
    hermitian_eig,
    joint_eig,
)

Array = np.ndarray

DEFAULT_TOL = 1e-9
SIGN_TOL = 1e-8  # a joint eigenvalue this close to 0 has no sign


class ClosureValidationError(ValueError):
    """The closure datum fails a hard validation check."""


@dataclass(frozen=True)
class ClosureDatum:
    """Local data at one critical leaf closure; z is dense, or monomial like module.ops."""

    name: str
    module: CliffordModule
    z: tuple[Array, ...] | _Monomial
    holonomy: HolonomyGroup


@dataclass(frozen=True)
class ScenarioModel:
    """A named collection of closure data plus global metadata."""

    name: str
    codimension: int
    closures: tuple[ClosureDatum, ...]
    expected_index: int | None = None
    circle_model: object | None = None  # localization.CircleModel when present


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    severity: str  # "hard" | "warning"
    passed: bool
    max_violation: float
    note: str = ""


@dataclass(frozen=True)
class ClosureValidation:
    """Outcome of validate_closure: hard checks gate computation, warnings inform."""

    closure: str
    checks: tuple[ValidationCheck, ...]
    gram: Array  # the m x m scalar matrix G_jk
    # L_j = c_j Z_j once computed, monomial when c, grading and Z are
    l_ops: tuple[Array, ...] | _Monomial = field(default=(), repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "hard")

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if c.severity == "hard" and not c.passed)

    def summary(self) -> str:
        """One line per check; failed hard checks come last, where a reader of stderr looks."""
        lines = [f"closure {self.closure}: " + ("PASS" if self.passed else "FAIL")]
        failed = self.failures()
        for c in sorted(self.checks, key=lambda c: c in failed):
            status = "ok" if c.passed else ("WARN" if c.severity == "warning" else "FAIL")
            lines.append(f"  [{status}] {c.name}: max violation {c.max_violation:.12g}"
                         + (f" ({c.note})" if c.note else ""))
        return "\n".join(lines)


class _ClosureRows(NamedTuple):
    """The closure checks as one index plan for m generators, built once per m
    with and once without the diagnostic rows c_k Z_j + Z_j c_k (k != j).

    Both product kernels, linalg._dense_norms and linalg._monomial_norms,
    evaluate its rows (a, b, wp, wq, lam, ref): wp a b + wq b a + lam I over
    the stack (c_1..c_m, eps, Z_1..Z_m, L_1..L_m), in order
    _module_rows' rows | eps Z_j + Z_j eps | c_j Z_j + Z_j c_j |
    c_k Z_j + Z_j c_k (k != j) | (Z_j Z_k + Z_k Z_j) / 2 - G_jk I (j <= k) |
    L_j eps - eps L_j | L_j L_j - g_jj I | L_j L_k - L_k L_j (j < k).
    ref marks where G enters: a gram row subtracts its own scalar
    trace / dim, and the row of L_j L_j that of the gram row (j, j).
    """

    rows: tuple[Array, Array, Array, Array, Array, Array]
    parts: tuple[slice, ...]  # the eight groups of rows above
    gram: tuple[Array, Array]  # (j, k), j <= k
    pairs: tuple[Array, Array]  # (j, k), j < k
    signs: Array  # of c_j + c_j^H, eps - eps^H, Z_j - Z_j^H, L_j - L_j^H


@functools.lru_cache(maxsize=None)
def _closure_rows(m: int, diagnostics: bool = True) -> _ClosureRows:
    c, eps = np.arange(m), np.full(m, m)
    z, lm = c + m + 1, c + 2 * m + 1
    j, k = np.nonzero(~np.eye(m, dtype=bool) if diagnostics else np.zeros((m, m), dtype=bool))
    gj, gk = np.triu_indices(m)
    pj, pk = np.triu_indices(m, 1)
    ma, mb, mwp, mwq, mlam, _, msigns = _module_rows(m)
    a = [ma, eps, c, c[k], z[gj], lm, lm, lm[pj]]
    b = [mb, z, z, z[j], z[gk], eps, lm, lm[pk]]
    wq = [mwq, np.ones(2 * m + len(j)), np.full(len(gj), 0.5), -np.ones(m), np.zeros(m),
          -np.ones(len(pj))]
    ends = np.cumsum([len(x) for x in a])
    wp = np.ones(ends[-1])
    wp[:len(ma)] = mwp
    wp[ends[3]:ends[4]] = 0.5
    lam = np.zeros(ends[-1])
    lam[:len(ma)] = mlam
    ref = np.full(ends[-1], -1)
    ref[ends[3]:ends[4]] = np.arange(ends[3], ends[4])
    ref[ends[5]:ends[6]] = ends[3] + np.flatnonzero(gj == gk)
    return _ClosureRows(
        rows=_read_only(np.concatenate(a), np.concatenate(b), wp, np.concatenate(wq), lam, ref),
        parts=tuple(slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends)),
        gram=_read_only(gj, gk), pairs=_read_only(pj, pk),
        signs=_read_only(np.append(msigns, -np.ones(2 * m)))[0])


def validate_closure(d: ClosureDatum, tol: float = DEFAULT_TOL, *,
                     diagnostics: bool = True) -> ClosureValidation:
    """Check every invariant of the closure datum and report per-check results.

    Hard checks cover exactly what the index formula consumes: the module's
    Clifford relations, Hermitian odd Z_j anticommuting with their own c_j,
    scalar positive-definite G, the L_j operator properties, valid holonomy
    matrices commuting with the grading, and invertibility of sum sigma_j Z_j
    on the whole unit sphere (nondegeneracy off the closure), by an exact bound.
    The all-pairs symbol anticommutation Z_j c_k + c_k Z_j = 0 is reported as
    a warning: it is sufficient for the zeroth-order localization condition
    but the transverse-signature example violates it and still localizes, as
    does any perturbation whose anticommutator with the operator is merely
    bounded.  Equivariance defects are likewise warnings.  With
    diagnostics=False neither warning is computed, and the hard checks are
    unchanged: this is the index path's validation.

    The module and Z_j checks are one index plan (_closure_rows), read by one
    assembly.  When the c_j, the grading and the Z_j all have at most one
    nonzero per row (exterior modules with hat_linear perturbations), the
    monomial kernel evaluates the plan by index composition in O(m^2 dim);
    otherwise the dense kernel multiplies matrices in O(m^2 dim^3).  When a
    shape is wrong, only the module's own checks (CliffordModule.validate)
    run.
    """
    checks: list[ValidationCheck] = []
    mod = d.module
    m, dim = mod.m, mod.dim

    def add(name, severity, violation, threshold, note=""):
        checks.append(ValidationCheck(name, severity, violation <= threshold, violation, note))

    def add_problems(name, problems):
        add(name, "hard", float(len(problems)), 0.0, "; ".join(problems))

    shape_problems = _shape_problems(mod)
    if shape_problems or len(d.z) != m or not isinstance(d.z, _Monomial) and any(
            zj.shape != (dim, dim) for zj in d.z):
        add_problems("module_clifford_relations", mod.validate(tol))
        if not shape_problems:
            add_problems("perturbation_shapes", [f"expected {m} matrices of shape {(dim, dim)}"])
        return ClosureValidation(d.name, tuple(checks), np.zeros((m, m)))

    plan = _closure_rows(m, diagnostics)
    forms = [a if isinstance(a, _Monomial) else _monomial(a) for a in (mod.ops, d.z)]
    z, l = slice(m + 1, 2 * m + 1), slice(2 * m + 1, None)
    if any(f is None for f in forms):
        mats = [*mod.ops, *d.z]
        mats += [mats[j] @ mats[m + 1 + j] for j in range(m)]  # L_j = c_j Z_j
        viol, scalars = _dense_norms(mats, *plan.rows)
        adjoint = _dense_adjoint_norms(mats, plan.signs)
        l_ops, size = tuple(mats[l]), [np.linalg.norm(zj) for zj in d.z]
    else:
        c, base = np.arange(m), _concat(*forms)
        base = _concat(base, _product(base, c, c + m + 1))
        viol, scalars = _monomial_norms(base, *plan.rows)
        adjoint = _adjoint_norms(base, plan.signs)
        l_ops, size = base.take(l), _row_norms(base.vals[z].view(float))
    viol, adjoint = viol.tolist(), adjoint.tolist()
    module, odd, diag_anti, off, gram_rows, grade, square, comm_rows = plan.parts
    add_problems("module_clifford_relations", _module_report(m, viol[module], adjoint[:m + 1], tol))
    add_problems("perturbation_shapes", [])

    scale, herm = float(max([1.0, *size])), max(adjoint[z])
    add("perturbation_hermitian", "hard", herm, tol * scale)
    add("perturbation_odd", "hard", max(viol[odd]), tol * scale)
    add("clifford_form_diagonal_anticommutation", "hard", max(viol[diag_anti]), tol * scale)
    if diagnostics:
        add("symbol_anticommutation_all_pairs", "warning", max(viol[off], default=0.0),
            tol * scale, "zeroth-order condition; first-order anticommutators still localize")

    gram = np.zeros((m, m))
    gram[plan.gram] = gram[plan.gram[::-1]] = scalars[gram_rows]
    gram_dev = max(viol[gram_rows])
    add("gram_scalar", "hard", gram_dev, tol * max(1.0, scale**2))
    gram_eigs = np.linalg.eigvalsh(gram)
    lam_min = float(gram_eigs[0])
    spd_cutoff = tol * max(float(gram_eigs[-1]), tol)
    spd = lam_min > spd_cutoff
    checks.append(ValidationCheck("gram_positive_definite", "hard", spd,
                                  max(0.0, spd_cutoff - lam_min),
                                  f"eigenvalue range [{gram_eigs[0]:.3e}, {gram_eigs[-1]:.3e}]"))

    comm = np.zeros((m, m))
    comm[plan.pairs] = viol[comm_rows]
    l_viol, l_note = _worst_l_violation(adjoint[l], viol[grade], viol[square], comm)
    add("commuting_operators", "hard", l_viol, tol * max(1.0, float(np.linalg.norm(gram))),
        l_note)

    hol_problems = d.holonomy.validate(dim, tol)
    add_problems("holonomy_matrices", hol_problems)
    if not hol_problems:
        acts = [a for _, a in (*d.holonomy.components, *d.holonomy.infinitesimal)]
        eps = mod.grading if acts else None  # a monomial grading is made dense only here
        grading_comm = max((float(np.linalg.norm(a @ eps - eps @ a)) for a in acts), default=0.0)
        add("holonomy_commutes_with_grading", "hard", grading_comm, tol * scale)
        if diagnostics:
            add("equivariance", "warning", check_equivariance(d.holonomy, mod, d.z),
                tol * scale, "diagnostic only; flagged data still computes")

    if spd:
        # For Hermitian Z_j, (sum sigma_j Z_j)^2 = sum_jk sigma_j sigma_k (Z_j Z_k + Z_k Z_j)/2
        # and each anticommutator is within gram_dev of G_jk I, so on the whole unit
        # sphere smin^2 >= sigma^T G sigma - (sum_j |sigma_j|)^2 gram_dev >= this bound.
        bound = lam_min - m * gram_dev
        gap = max(0.0, math.sqrt(lam_min) * (1.0 - tol) - math.sqrt(max(bound, 0.0)))
        checks.append(ValidationCheck(
            "nondegenerate_off_closure", "hard", herm <= tol * scale and gap <= tol * scale,
            gap, "smallest singular value of sum sigma_j Z_j vs sqrt(min eig G)"))

    return ClosureValidation(d.name, tuple(checks), gram, l_ops)


def _worst_l_violation(herm: Array, grade: Array, square: Array, comm: Array
                       ) -> tuple[float, str]:
    """Worst violation among: L_j Hermitian (herm[j]), even (grade[j]),
    L_j^2 = g_jj I (square[j]), pairwise commuting (comm[j, k], k > j).
    Returns (violation, note naming the first worst in that order by j)."""
    worst, note = 0.0, ""
    for j in range(len(herm)):
        parts = [(herm[j], f"L_{j} not Hermitian"),
                 (grade[j], f"L_{j} does not commute with grading"),
                 (square[j], f"L_{j}^2 != g_{j}{j} I")]
        parts += [(comm[j, k], f"pair ({j}, {k}) does not commute")
                  for k in range(j + 1, len(herm))]
        for v, msg in parts:
            if v > worst:
                worst, note = float(v), msg
    return worst, note


@dataclass(frozen=True)
class GradedSide:
    """Per-grading-sign part of the local index computation: the intersection
    of the negative eigenspaces, and its dimension before and after holonomy."""

    eigentuples: Array  # (block dim, m) joint eigenvalues on this side
    dim_intersection: int  # before holonomy invariance
    dim_invariant: int  # after holonomy invariance
    intersection: Array  # orthonormal columns, in ambient module coordinates


@dataclass(frozen=True)
class LocalIndexDetail:
    closure: str
    plus: GradedSide
    minus: GradedSide
    index: int


@dataclass(frozen=True)
class ClosureAnalysis:
    """A validated closure up to, not including, any holonomy step: sides holds
    (U, joint_eig of the U^H L_j U) for the +1, then the -1 eigenspace of the
    grading, U an orthonormal basis of it; no joint eigenvalue is within
    SIGN_TOL of 0; a diagonal grading keeps U, and diagonal L_j the basis, as index arrays."""

    datum: ClosureDatum
    sides: tuple[tuple[Array, JointEigenstructure], ...]
    tol: float

    def vectors(self, side: int, cols: Array) -> Array:
        """Columns cols of U @ basis on side 0 (+1) or 1 (-1), dense."""
        u, basis = self.sides[side][0], self.sides[side][1].basis
        if u.ndim == 2:
            return u @ basis[:, cols]
        out = np.zeros((self.datum.module.dim, len(cols)), dtype=complex)
        if basis.ndim == 2:
            out[u] = basis[:, cols]
        else:
            out[u[basis[cols]], np.arange(len(cols))] = 1.0
        return out

    def index_detail(self) -> tuple[int, LocalIndexDetail]:
        """The intersection route of local_index on this analysis."""
        sides = []
        for side, (_, struct) in enumerate(self.sides):
            # Exact: the negative eigenspaces are spanned by columns of one joint eigenbasis.
            negative = np.flatnonzero(np.all(struct.eigentuples < 0.0, axis=1))
            inter = self.vectors(side, negative)
            sides.append(GradedSide(
                eigentuples=struct.eigentuples,
                dim_intersection=len(negative),
                dim_invariant=invariant_dim_in(self.datum.holonomy, inter, self.tol),
                intersection=inter,
            ))
        plus, minus = sides
        ind = plus.dim_invariant - minus.dim_invariant
        return ind, LocalIndexDetail(closure=self.datum.name, plus=plus, minus=minus, index=ind)


def analyze_closure(d: ClosureDatum, tol: float = DEFAULT_TOL) -> ClosureAnalysis:
    """Validate one closure and jointly diagonalise its graded L_j, once; raises
    ClosureValidationError when a hard check fails, or DegenerateEigenvalueError
    for |eigenvalue| <= SIGN_TOL.  Only the hard checks run: the index never
    reads the two diagnostic warnings, which validate_closure reports."""
    report = validate_closure(d, tol, diagnostics=False)
    if not report.passed:
        raise ClosureValidationError(
            "closure data failed validation:\n" + report.summary())
    mod, l_ops = d.module, report.l_ops
    eps = _diagonal(mod.ops.take([mod.m]) if isinstance(mod.ops, _Monomial) else mod.grading[None])
    diagonals = None if eps is None else _diagonal(l_ops)
    if eps is None:
        w, v = hermitian_eig(mod.grading, tol)
    else:  # coordinate eigenspaces: u = eye[:, keep] is kept as the index array keep
        w = eps[0].real
    sides = []
    for sign in (+1.0, -1.0):
        keep = np.abs(w - sign) < 0.5
        if eps is None:
            u = v[:, keep]
            restricted = [u.conj().T @ lj @ u for lj in l_ops]
        elif diagonals is None:  # u^H L_j u is the block of L_j on keep
            u, restricted = np.flatnonzero(keep), [lj[np.ix_(keep, keep)] for lj in l_ops]
        else:  # and for diagonal L_j, its diagonal there
            u, block = np.flatnonzero(keep), diagonals[:, keep]
            restricted = _Monomial(np.broadcast_to(np.arange(len(u)), block.shape), block)
        sides.append((u, joint_eig(restricted, tol)))
    smallest = min(float(np.min(np.abs(struct.eigentuples))) for _, struct in sides)
    if smallest <= SIGN_TOL:
        raise DegenerateEigenvalueError(
            f"degenerate eigenvalue: |lambda| = {smallest:.3e} <= sign_tol = {SIGN_TOL:.3e}")
    return ClosureAnalysis(d, tuple(sides), tol)


def local_index(d: ClosureDatum, tol: float = DEFAULT_TOL) -> tuple[int, LocalIndexDetail]:
    """Index contribution of one critical leaf closure.

    dim of the holonomy-invariant part of the intersection of the negative
    eigenspaces of the L_j on E^+, minus the same on E^-.
    """
    return analyze_closure(d, tol).index_detail()


def global_index(s: ScenarioModel, tol: float = DEFAULT_TOL) -> int:
    """Sum of local indices over the scenario's closures; 0 when there are none."""
    total = 0
    for d in s.closures:
        try:
            ind, _ = local_index(d, tol)
        except (ClosureValidationError, LinalgError, NotInvariantError) as exc:
            raise type(exc)(f"closure {d.name!r}: {exc}") from exc
        total += ind
    return total
