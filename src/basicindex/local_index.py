"""The localized index engine.

At each critical leaf closure the input is finite local data: a Clifford
module, perturbation matrices Z_1..Z_m in Clifford form, and the holonomy
action.  The commuting Hermitian operators L_j = c_j Z_j are restricted to
the +/-1 eigenspaces of the grading; the local index is the difference of
the holonomy-invariant dimensions of the intersections of their negative
eigenspaces, and the global index is the sum over closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cliff import CliffordModule
from .holonomy import HolonomyGroup, NotInvariantError, check_equivariance, invariant_dim_in
from .linalg import (
    INTERSECTION_TOL,
    DegenerateEigenvalueError,
    JointEigenstructure,
    LinalgError,
    Subspace,
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
    """Local data at one critical leaf closure."""

    name: str
    module: CliffordModule
    z: tuple[Array, ...]
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
    l_ops: tuple[Array, ...] = field(default=(), repr=False)  # L_j = c_j Z_j, once computed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "hard")

    @property
    def warnings(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if c.severity == "warning" and not c.passed)

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


def gram_matrix(d: ClosureDatum) -> tuple[Array, float]:
    """Scalar matrix G_jk with (Z_j Z_k + Z_k Z_j)/2 = G_jk I, plus the worst
    deviation of those anticommutators from scalar multiples of I."""
    m = d.module.m
    dim = d.module.dim
    eye = np.eye(dim, dtype=complex)
    gram = np.zeros((m, m))
    worst = 0.0
    for j in range(m):
        for k in range(j, m):
            anti = 0.5 * (d.z[j] @ d.z[k] + d.z[k] @ d.z[j])
            scalar = float((np.trace(anti) / dim).real)
            worst = max(worst, float(np.linalg.norm(anti - scalar * eye)))
            gram[j, k] = gram[k, j] = scalar
    return gram, worst


def validate_closure(d: ClosureDatum, tol: float = DEFAULT_TOL) -> ClosureValidation:
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
    bounded.  Equivariance defects are likewise warnings.
    """
    checks: list[ValidationCheck] = []
    mod = d.module
    m, dim = mod.m, mod.dim
    eps = mod.grading
    scale = max([1.0] + [float(np.linalg.norm(zj)) for zj in d.z])

    def add(name, severity, violation, threshold, note=""):
        checks.append(ValidationCheck(name, severity, violation <= threshold, violation, note))

    module_problems = mod.validate(tol)
    checks.append(ValidationCheck(
        "module_clifford_relations", "hard", not module_problems, float(len(module_problems)),
        "; ".join(module_problems)))
    if any("shape" in p or "generators" in p for p in module_problems):
        return ClosureValidation(d.name, tuple(checks), np.zeros((m, m)))

    if len(d.z) != m or any(zj.shape != (dim, dim) for zj in d.z):
        checks.append(ValidationCheck("perturbation_shapes", "hard", False, 1.0,
                                      f"expected {m} matrices of shape {(dim, dim)}"))
        return ClosureValidation(d.name, tuple(checks), np.zeros((m, m)))
    checks.append(ValidationCheck("perturbation_shapes", "hard", True, 0.0))

    herm = max(float(np.linalg.norm(zj - zj.conj().T)) for zj in d.z)
    add("perturbation_hermitian", "hard", herm, tol * scale)

    odd = max(float(np.linalg.norm(eps @ zj + zj @ eps)) for zj in d.z)
    add("perturbation_odd", "hard", odd, tol * scale)

    diag_anti = max(float(np.linalg.norm(mod.c[j] @ d.z[j] + d.z[j] @ mod.c[j]))
                    for j in range(m))
    add("clifford_form_diagonal_anticommutation", "hard", diag_anti, tol * scale)

    off = 0.0
    for j in range(m):
        for k in range(m):
            if k != j:
                off = max(off, float(np.linalg.norm(mod.c[k] @ d.z[j] + d.z[j] @ mod.c[k])))
    add("symbol_anticommutation_all_pairs", "warning", off, tol * scale,
        "zeroth-order condition; first-order anticommutators still localize")

    gram, gram_dev = gram_matrix(d)
    add("gram_scalar", "hard", gram_dev, tol * max(1.0, scale**2))
    gram_eigs = np.linalg.eigvalsh(gram)
    lam_min = float(gram_eigs[0])
    spd_cutoff = tol * max(float(gram_eigs[-1]), tol)
    spd = lam_min > spd_cutoff
    checks.append(ValidationCheck("gram_positive_definite", "hard", spd,
                                  max(0.0, spd_cutoff - lam_min),
                                  f"eigenvalue range [{gram_eigs[0]:.3e}, {gram_eigs[-1]:.3e}]"))

    l_ops = [mod.c[j] @ d.z[j] for j in range(m)]
    l_viol, l_note = _l_property_violation(l_ops, eps, gram)
    add("commuting_operators", "hard", l_viol, tol * max(1.0, float(np.linalg.norm(gram))),
        l_note)

    hol_problems = d.holonomy.validate(dim, tol)
    checks.append(ValidationCheck("holonomy_matrices", "hard", not hol_problems,
                                  float(len(hol_problems)), "; ".join(hol_problems)))
    if not hol_problems:
        grading_comm = 0.0
        for _, rho in d.holonomy.components:
            grading_comm = max(grading_comm, float(np.linalg.norm(rho @ eps - eps @ rho)))
        for _, dx in d.holonomy.infinitesimal:
            grading_comm = max(grading_comm, float(np.linalg.norm(dx @ eps - eps @ dx)))
        add("holonomy_commutes_with_grading", "hard", grading_comm, tol * scale)
        add("equivariance", "warning", check_equivariance(d.holonomy, mod, d.z), tol * scale,
            "diagnostic only; flagged data still computes")

    if spd:
        # For Hermitian Z_j, (sum sigma_j Z_j)^2 = sum_jk sigma_j sigma_k (Z_j Z_k + Z_k Z_j)/2
        # and each anticommutator is within gram_dev of G_jk I, so on the whole unit
        # sphere smin^2 >= sigma^T G sigma - (sum_j |sigma_j|)^2 gram_dev >= this bound.
        bound = lam_min - m * gram_dev
        gap = max(0.0, math.sqrt(lam_min) * (1.0 - tol) - math.sqrt(max(bound, 0.0)))
        checks.append(ValidationCheck(
            "nondegenerate_off_closure", "hard", herm <= tol * scale and gap <= tol * scale, gap,
            "smallest singular value of sum sigma_j Z_j vs sqrt(min eig G)"))

    return ClosureValidation(d.name, tuple(checks), gram, tuple(l_ops))


def _l_property_violation(l_ops: list[Array], eps: Array, gram: Array) -> tuple[float, str]:
    """Worst violation among: L_j Hermitian, even, pairwise commuting,
    L_j^2 = g_jj I.  Returns (violation, note naming the worst pair)."""
    m = len(l_ops)
    dim = eps.shape[0]
    eye = np.eye(dim, dtype=complex)
    worst, note = 0.0, ""

    def bump(v, msg):
        nonlocal worst, note
        if v > worst:
            worst, note = v, msg

    for j, lj in enumerate(l_ops):
        bump(float(np.linalg.norm(lj - lj.conj().T)), f"L_{j} not Hermitian")
        bump(float(np.linalg.norm(lj @ eps - eps @ lj)), f"L_{j} does not commute with grading")
        bump(float(np.linalg.norm(lj @ lj - gram[j, j] * eye)), f"L_{j}^2 != g_{j}{j} I")
        for k in range(j + 1, m):
            bump(float(np.linalg.norm(lj @ l_ops[k] - l_ops[k] @ lj)),
                 f"pair ({j}, {k}) does not commute")
    return worst, note


@dataclass(frozen=True)
class GradedSide:
    """Per-grading-sign part of the local index computation."""

    eigentuples: Array  # (block dim, m) joint eigenvalues on this side
    dim_intersection: int  # before holonomy invariance
    dim_invariant: int  # after holonomy invariance
    intersection: Subspace  # in ambient module coordinates


@dataclass(frozen=True)
class LocalIndexDetail:
    closure: str
    plus: GradedSide
    minus: GradedSide
    index: int


def graded_restrictions(d: ClosureDatum, tol: float = DEFAULT_TOL
                        ) -> tuple[tuple[Array, JointEigenstructure], ...]:
    """Joint eigenstructures of the L_j restricted to E^+ and E^-.

    Returns ((U_plus, struct_plus), (U_minus, struct_minus)) where the U are
    orthonormal bases of the grading eigenspaces: the restriction is computed
    in an eigenbasis of the grading, not by index slicing, so explicit
    non-diagonal gradings work.  These are the sides of analyze_closure.
    """
    return analyze_closure(d, tol).sides


@dataclass(frozen=True)
class ClosureAnalysis:
    """A validated closure up to, not including, any holonomy step: sides as
    graded_restrictions returns them, no joint eigenvalue within SIGN_TOL of 0."""

    datum: ClosureDatum
    sides: tuple[tuple[Array, JointEigenstructure], ...]
    tol: float

    def index_detail(self) -> tuple[int, LocalIndexDetail]:
        """The intersection route of local_index on this analysis."""
        sides = []
        for u, struct in self.sides:
            # Exact: the negative eigenspaces are spanned by columns of one joint eigenbasis.
            # invariant_dim_in gates leaks at max(tol, w.tol), as for subspace_intersection.
            negative = np.all(struct.eigentuples < 0.0, axis=1)
            inter = Subspace(u.shape[0], u @ struct.basis[:, negative], INTERSECTION_TOL)
            sides.append(GradedSide(
                eigentuples=struct.eigentuples,
                dim_intersection=inter.dim,
                dim_invariant=invariant_dim_in(self.datum.holonomy, inter, self.tol),
                intersection=inter,
            ))
        plus, minus = sides
        ind = plus.dim_invariant - minus.dim_invariant
        return ind, LocalIndexDetail(closure=self.datum.name, plus=plus, minus=minus, index=ind)


def analyze_closure(d: ClosureDatum, tol: float = DEFAULT_TOL) -> ClosureAnalysis:
    """Validate one closure and jointly diagonalise its graded L_j, once; raises
    ClosureValidationError when a hard check fails, or DegenerateEigenvalueError
    for |eigenvalue| <= SIGN_TOL."""
    report = validate_closure(d, tol)
    if not report.passed:
        raise ClosureValidationError(
            "closure data failed validation:\n" + report.summary())
    w, v = hermitian_eig(d.module.grading, tol)
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-6):
        raise ClosureValidationError("grading eigenvalues are not +/-1")
    sides = []
    for sign in (+1.0, -1.0):
        u = v[:, np.abs(w - sign) < 0.5]
        restricted = [u.conj().T @ lj @ u for lj in report.l_ops]
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


def odd_invertible_perturbation(module: CliffordModule) -> Array:
    """The canonical invertible odd perturbation in odd codimension.

    Z = i^(q(q+1)/2) c_1 c_2 ... c_q for q = module.m odd.  The returned
    matrix is verified Hermitian, odd, and unitary (so its singular values
    are 1 and the perturbation has no critical closures at all).
    """
    q = module.m
    if q % 2 == 0:
        raise ValueError(f"codimension {q} is even; the construction needs odd q")
    z = np.eye(module.dim, dtype=complex) * (1j ** ((q * (q + 1)) // 2))
    for cj in module.c:
        z = z @ cj
    eye = np.eye(module.dim)
    if np.linalg.norm(z - z.conj().T) > DEFAULT_TOL:
        raise ClosureValidationError("constructed Z is not Hermitian; module relations are off")
    if np.linalg.norm(z @ z - eye) > DEFAULT_TOL:
        raise ClosureValidationError("constructed Z is not unitary; module relations are off")
    if np.linalg.norm(module.grading @ z + z @ module.grading) > DEFAULT_TOL:
        raise ClosureValidationError("constructed Z is not odd for the module grading")
    return z
