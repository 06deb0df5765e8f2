"""A 1D periodic Dirac-operator laboratory for spectral localization.

The operator family H_s = (1/s)(C d/dt + B(t) + s Z(t))^2 on the circle is
discretized by Fourier-Galerkin truncation; as s grows its low eigenvalues
approach the merged spectra of the harmonic-oscillator models sitting at the
zeros of Z, and with invertible Z the bottom of the spectrum instead grows
linearly in s.  Coefficients are trigonometric polynomials, so the truncated
operator is banded in mode space and assembles exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cliff import explicit_module
from .holonomy import HolonomyGroup
from .linalg import LinalgError
from .local_index import ClosureDatum, ClosureValidationError
from .model_operator import analytic_spectrum

if TYPE_CHECKING:
    from scipy import sparse

Array = np.ndarray

MIN_MODES = 64  # smallest Galerkin truncation n_modes that assembly accepts
STABILITY_TOL = 1e-8  # grid-doubling gate; times max |H_s|, the Lanczos certificate's cluster width
SHIFT = 1e-2  # H_s is positive semidefinite, so H_s + SHIFT I is positive definite
SHIFT_RTOL = 1e-8  # relative bracket width at which a raised shift stops bisecting
START_SEED = 0  # seed of the fixed generic Lanczos start vector
LANCZOS_MAXITER = 100  # restarts before Lanczos stops and its converged values are certified


class CircleModelError(ValueError):
    """The circle model violates a structural requirement."""


class DiscretizationError(RuntimeError):
    """Grid doubling did not stabilize the reported eigenvalues."""


@dataclass(frozen=True)
class FourierMatrixFunction:
    """Matrix-valued 2*pi-periodic function sum_k M_k e^(i k t).

    Stored as (harmonic, matrix) pairs with integer harmonics; the function
    is Hermitian-valued iff M_(-k) = M_k^H for every k.
    """

    dim: int
    coeffs: tuple[tuple[int, Array], ...]

    @staticmethod
    def build(dim: int, terms: dict[int, Array]) -> "FourierMatrixFunction":
        coeffs = []
        for k in sorted(terms):
            mat = np.asarray(terms[k], dtype=complex)
            if mat.shape != (dim, dim):
                raise CircleModelError(f"harmonic {k} has shape {mat.shape}, expected {(dim, dim)}")
            if np.linalg.norm(mat) > 0:
                coeffs.append((k, mat))
        return FourierMatrixFunction(dim, tuple(coeffs))

    @staticmethod
    def zero(dim: int) -> "FourierMatrixFunction":
        return FourierMatrixFunction(dim, ())

    @staticmethod
    def real_terms(dim: int, cos_terms: dict[int, Array] | None = None,
                   sin_terms: dict[int, Array] | None = None) -> "FourierMatrixFunction":
        """Assemble from cos(k t) M and sin(k t) M terms with real harmonics k >= 0."""
        acc: dict[int, Array] = {}

        def add(k: int, mat: Array) -> None:
            acc[k] = acc.get(k, np.zeros((dim, dim), dtype=complex)) + mat

        for k, mat in (cos_terms or {}).items():
            mat = np.asarray(mat, dtype=complex)
            if k == 0:
                add(0, mat)
            else:
                add(k, mat / 2.0)
                add(-k, mat / 2.0)
        for k, mat in (sin_terms or {}).items():
            if k == 0:
                raise CircleModelError("sin(0 t) term is identically zero")
            mat = np.asarray(mat, dtype=complex)
            add(k, mat / 2j)
            add(-k, -mat / 2j)
        return FourierMatrixFunction.build(dim, acc)

    @property
    def max_harmonic(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t: float) -> Array:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k, mat in self.coeffs:
            out += mat * np.exp(1j * k * t)
        return out

    def on_grid(self, samples: int) -> Array:
        """Values at t_j = 2 pi j / samples, shape (samples, dim, dim), by one inverse FFT.

        Z(t_j) = sum_k M_k e^(2 pi i k j / samples) is samples * ifft of the
        M_k placed at k mod samples; harmonics of samples / 2 or more would
        alias and are rejected.
        """
        if 2 * self.max_harmonic >= samples:
            raise CircleModelError(f"harmonic {self.max_harmonic} aliases on {samples} samples; "
                                   f"sampling needs harmonics below {samples // 2}")
        grid = np.zeros((self.dim, self.dim, samples), dtype=complex)
        for k, mat in self.coeffs:
            grid[:, :, k % samples] = mat
        return np.moveaxis(np.fft.ifft(grid, norm="forward"), -1, 0)

    def derivative(self) -> "FourierMatrixFunction":
        return FourierMatrixFunction(
            self.dim, tuple((k, 1j * k * mat) for k, mat in self.coeffs if k != 0))

    def hermitian_defect(self) -> float:
        """Worst deviation from M_(-k) = M_k^H (0 for Hermitian-valued functions)."""
        table = dict(self.coeffs)
        worst = 0.0
        for k, mat in self.coeffs:
            other = table.get(-k, np.zeros((self.dim, self.dim)))
            worst = max(worst, float(np.linalg.norm(other - mat.conj().T)))
        return worst


@dataclass(frozen=True)
class CircleModel:
    """Fiberwise data of a 1D periodic Dirac operator with perturbation.

    symbol is the constant Clifford symbol c(d/dt) (skew-Hermitian, squares
    to -I); drift is a Hermitian-valued zeroth-order term standing in for the
    mean-curvature correction; perturbation Z is Hermitian-valued, odd for
    the grading, and anticommutes pointwise with the symbol.
    """

    fiber_dim: int
    symbol: Array
    grading: Array
    drift: FourierMatrixFunction
    perturbation: FourierMatrixFunction

    def validate(self) -> None:
        f, tol = self.fiber_dim, 1e-9  # the bound of every structural check below
        if f % 2:
            raise CircleModelError("fiber_dim must be even")
        module = explicit_module([self.symbol], self.grading)
        problems = module.validate(tol) if module.dim == f else [f"symbol is not {f} x {f}"]
        if problems:
            raise CircleModelError("symbol and grading are not a graded Clifford module: "
                                   + "; ".join(problems))
        if self.drift.hermitian_defect() > tol:
            raise CircleModelError(
                "drift is not Hermitian-valued; a c(kappa)-type skew drift makes "
                "(1/s)(D)^2 non-Hermitian — supply the i-rotated Hermitian form instead")
        if self.perturbation.hermitian_defect() > tol:
            raise CircleModelError("perturbation is not Hermitian-valued")
        c, eps = self.symbol, self.grading
        for k, mat in self.perturbation.coeffs:
            if np.linalg.norm(eps @ mat + mat @ eps) > tol:
                raise CircleModelError(f"perturbation harmonic {k} is not grading-odd")
            if np.linalg.norm(c @ mat + mat @ c) > tol:
                raise CircleModelError(f"perturbation harmonic {k} does not anticommute "
                                       "with the symbol")
        for k, mat in self.drift.coeffs:
            if np.linalg.norm(eps @ mat + mat @ eps) > tol:
                raise CircleModelError(f"drift harmonic {k} is not grading-odd")


def _assemble_sparse(model: CircleModel, s: float, n_modes: int) -> sparse.csr_matrix:
    """Galerkin matrix of (1/s) (C d/dt + B + s Z)^2 on modes -n_modes..n_modes."""
    from scipy import sparse  # scipy loads only in the commands that solve with it

    model.validate()
    if s <= 0:
        raise CircleModelError("s must be positive")
    if n_modes < MIN_MODES:
        raise CircleModelError(f"n_modes must be at least {MIN_MODES}")
    m, f = 2 * n_modes + 1, model.fiber_dim
    modes = np.arange(-n_modes, n_modes + 1)
    zero_order: dict[int, Array] = {}
    for k, mat in model.drift.coeffs:
        zero_order[k] = zero_order.get(k, 0) + mat
    for k, mat in model.perturbation.coeffs:
        zero_order[k] = zero_order.get(k, 0) + s * mat
    # fiber blocks of D: (j, j) holds i modes[j] C, and (j, j - k) holds the harmonic k term;
    # only the nonzero entries of each fiber matrix are placed
    rows, cols, vals = [], [], []

    def put(j: Array, k: int, mat: Array, scale: Array | None = None) -> None:
        a, b = np.nonzero(mat)
        entries = mat[a, b] if scale is None else np.multiply.outer(scale, mat[a, b])
        rows.append((f * j[:, None] + a).ravel())
        cols.append((f * (j - k)[:, None] + b).ravel())
        vals.append(np.broadcast_to(entries, (j.size, a.size)).ravel())

    put(np.arange(m, dtype=np.int32), 0, model.symbol, scale=1j * modes)
    for k, mat in zero_order.items():
        put(np.arange(max(k, 0), m + min(k, 0), dtype=np.int32), k, mat)
    d_op = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(m * f, m * f))
    d_op.eliminate_zeros()
    return (d_op @ d_op).tocsr() / s


def _shifted_factor(h: sparse.csr_matrix) -> tuple[float, Array]:
    """A shift sigma below the spectrum of h and the banded Cholesky factor of h - sigma I.

    h is positive semidefinite, so sigma = -SHIFT always works, and it suits
    a spectrum whose bottom lies below SHIFT.  When h - SHIFT I is positive
    definite too, the bottom sits higher (zero-free Z at large s), and about
    -SHIFT the lowest levels would look nearly equal to Lanczos; sigma is
    then bisected up towards the bottom, a trial shift being kept when its
    factorization succeeds, until the bracket is SHIFT_RTOL of the least
    diagonal entry (an upper bound of the bottom) wide.  A failed
    factorization at -SHIFT raises DiscretizationError.
    """
    from scipy import sparse
    from scipy.linalg import LinAlgError, cholesky_banded

    n = h.shape[0]
    lower = sparse.tril(h, format="coo")  # h is Hermitian: its lower triangle sets the band
    offset = lower.row - lower.col
    ab = np.zeros((int(np.max(offset, initial=0)) + 1, n), dtype=complex)
    ab[offset, lower.col] = lower.data  # lower band form: ab[i - j, j] = h[i, j]

    def factor(sigma: float, band: Array) -> Array:
        band[0] -= sigma
        return cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)

    try:
        low, chol = SHIFT, factor(SHIFT, ab.copy())
    except LinAlgError:
        try:
            return -SHIFT, factor(-SHIFT, ab)
        except LinAlgError as exc:
            raise DiscretizationError(
                f"banded Cholesky of H_s + {SHIFT:g} I failed: {exc}") from None
    high = float(np.min(ab[0].real))
    while high - low > SHIFT_RTOL * high:
        mid = 0.5 * (low + high)
        try:
            low, chol = mid, factor(mid, ab.copy())
        except LinAlgError:
            high = mid
    return low, chol


def _inertia(h: sparse.spmatrix, mu: float) -> int:
    """Number of eigenvalues of the Hermitian banded h below mu (Sylvester's law of inertia).

    Without pivoting, the LU factors of h - mu I are L D L^H with U = D L^H, so
    the negative real parts of diag(U) count the eigenvalues below mu.  A
    factorization that pivots (or hits an exact zero pivot) raises
    DiscretizationError.  The count is reliable only with mu away from the
    spectrum: next to an m-fold level the last m pivots are about
    lambda - mu, and rounding grows with their inverses.  At 1e-8 above a
    16-fold level (Z = cos(4 t) chat, s = 100, max |h| = 204) it missed 2
    of 16, so _banded_eigs counts STABILITY_TOL max |h| above its values.
    relax = panel_size = 1 keep SuperLU's supernodes narrow: with its
    defaults the localize_sweep benchmark peaked at 84.5 MB RSS against
    76.6 MB (2-core Xeon, 1-thread BLAS).
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = h.shape[0]
    try:
        lu = splu((h - mu * sparse.identity(n, format="csc")).tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=0, options={"SymmetricMode": True}, relax=1, panel_size=1)
    except RuntimeError as exc:  # an exactly singular factor
        raise DiscretizationError(f"inertia of H_s - {mu:g} I on {n} rows: {exc}") from None
    identity = np.arange(n)
    if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
        raise DiscretizationError(f"inertia of H_s - {mu:g} I on {n} rows: the factorization "
                                  "pivoted")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _cluster_count(h: sparse.spmatrix, k: int, low: float, width: float) -> int:
    """Eigenvalues of h up to width above its k-th lowest, which lies above low.

    The k-th eigenvalue is bracketed by inertia counts (fewer than k below
    low, at least k below high) and bisected to width.
    """
    high = 2.0 * abs(low) + 1.0
    while _inertia(h, high) < k:
        low, high = high, 2.0 * high
    while high - low > width:
        mid = 0.5 * (low + high)
        if _inertia(h, mid) < k:
            low = mid
        else:
            high = mid
    return _inertia(h, high + width)


def _banded_eigs(h: sparse.csr_matrix, count: int) -> Array:
    """Lowest count eigenvalues of the banded positive semidefinite h, ascending, certified.

    Shift-invert Lanczos about a shift below the spectrum (_shifted_factor):
    h - sigma I is factored by banded Cholesky in O(n kd^2), and each
    iteration is one banded solve in O(n kd).  The start vector is generic
    but fixed, so results are deterministic; a structured start such as all
    ones can miss members of multiple levels.  Every solve is certified by
    _inertia: with w the values Lanczos returned (its converged ones if it
    stops at LANCZOS_MAXITER), the count of eigenvalues below w[-1] + width
    must equal the number solved for, where width = STABILITY_TOL max |h|
    is the cluster width.  A count above the request means the solve ended
    inside a cluster, and it is repeated with that count, so a missed copy
    of a multiple level cannot go unseen.  A solve that stalls short of
    such a cluster is widened to the cluster around its count-th eigenvalue
    (_cluster_count).  A failed factorization, iteration or certificate
    raises DiscretizationError, as does a count above n - 2.
    """
    from scipy.linalg import cho_solve_banded
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    n = h.shape[0]
    sigma, chol = _shifted_factor(h)
    inverse = LinearOperator((n, n), dtype=complex, matvec=lambda x: cho_solve_banded(
        (chol, True), x, check_finite=False))
    start = np.random.default_rng(START_SEED).standard_normal(2 * n).view(complex)
    width = STABILITY_TOL * max(1.0, float(np.max(np.abs(h.data))))
    solve = count
    while True:
        if solve > n - 2:  # ARPACK needs k < n - 1
            raise DiscretizationError(f"{solve} eigenvalues asked of {n} rows; raise --modes")
        stalled = False
        try:
            w = eigsh(h, k=solve, sigma=sigma, OPinv=inverse, v0=start, maxiter=LANCZOS_MAXITER,
                      return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            w, stalled = exc.eigenvalues, True
        except ArpackError as exc:
            raise DiscretizationError(f"shift-invert Lanczos failed on {n} rows: {exc}") from None
        w = np.sort(np.asarray(w).real)
        if w.size == 0:
            raise DiscretizationError(f"shift-invert Lanczos converged to no eigenvalue "
                                      f"on {n} rows")
        below = _inertia(h, float(w[-1]) + width)
        if stalled and below < solve:  # the cluster that stalled Lanczos lies above w
            below = _cluster_count(h, solve, float(w[-1]) + width, width)
        if below <= solve:
            break
        solve = below
    if below != solve or w.size != solve:
        raise DiscretizationError(
            f"{below} eigenvalues lie below {w[-1] + width:.12g} on {n} rows, "
            f"but Lanczos returned {w.size} of the {solve} asked; an eigenvalue was missed")
    return w[:count]


@dataclass(frozen=True)
class ZeroData:
    """Linearization at one zero of the perturbation, analysed as an m = 1 closure."""

    t: float
    eigenvalues: Array  # of L = C Z'(t), ascending
    kernel_plus: int  # negative eigenvalues of L on the +1 grading block
    kernel_minus: int


@dataclass(frozen=True)
class ModelAtZeros:
    zeros: tuple[ZeroData, ...]
    levels: Array  # merged ascending model eigenvalues
    kernel_dim_plus: int
    kernel_dim_minus: int

    @property
    def smallest_positive(self) -> float:
        # exact: the levels at lam are |lam|(2n+1) + lam, so the least positive is 2 min |lam|
        if not self.zeros:
            raise CircleModelError("model spectrum has no positive levels")
        return 2.0 * min(float(np.min(np.abs(zd.eigenvalues))) for zd in self.zeros)


def find_zeros(z: FourierMatrixFunction) -> list[float]:
    """Zeros of the matrix-valued function on [0, 2 pi), Newton-refined.

    A zero means the whole matrix vanishes, to 1e-9 relative to the largest
    sampled norm; simple zeros (invertible derivative) are assumed and
    verified by the caller.  The 8192 samples that seed Newton's method come
    from one inverse FFT (FourierMatrixFunction.on_grid), so harmonics of
    4096 or more raise CircleModelError.
    """
    if z.is_zero:
        raise CircleModelError("perturbation vanishes identically; no localization model")
    ts = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    norms = np.linalg.norm(z.on_grid(ts.size), axis=(1, 2))
    scale = float(np.max(norms))
    dz = z.derivative()
    zeros: list[float] = []
    # cyclic local minima of the sampled norm below a fifth of its maximum
    seeds = (norms <= np.roll(norms, 1)) & (norms < np.roll(norms, -1)) & (norms < 0.2 * scale)
    for start in ts[seeds]:
        t = float(start)
        for _ in range(60):  # Newton on d/dt ||Z||_F^2
            zt, dzt = z(t), dz(t)
            g1 = 2.0 * float(np.real(np.vdot(zt, dzt)))
            g2 = 2.0 * float(np.real(np.vdot(dzt, dzt)))  # dominant term near a zero
            if g2 <= 0:
                break
            step = g1 / g2
            t -= step
            if abs(step) < 1e-15:
                break
        t = t % (2.0 * np.pi)
        if np.linalg.norm(z(t)) < 1e-9 * max(1.0, scale):
            if all(min(abs(t - t0), 2 * np.pi - abs(t - t0)) > 1e-6 for t0 in zeros):
                zeros.append(t)
    return sorted(zeros)


def model_spectrum_at_zeros(model: CircleModel, count: int = 32) -> ModelAtZeros:
    """Merged oscillator spectra of the local models at the zeros of Z.

    Each zero t_i is the m = 1 closure (symbol, grading; Z_1 = Z'(t_i);
    trivial holonomy), so analytic_spectrum validates it and gives its count
    lowest levels and route-checked graded kernel dims.  A zero that is not
    simple fails gram_positive_definite, one where Z'(t_i)^2 is not scalar
    fails gram_scalar, and the error names the zero.  Levels are merged over
    all zeros, sorted ascending; identically-zero Z raises.
    """
    model.validate()
    module = explicit_module([model.symbol], model.grading)
    dz = model.perturbation.derivative()
    zero_data: list[ZeroData] = []
    merged: list[float] = []
    for t in find_zeros(model.perturbation):
        d = ClosureDatum(f"zero at t = {t:.6f}", module, (dz(t),), HolonomyGroup.trivial_group(1))
        try:
            spec = analytic_spectrum(d, count)
        except (ClosureValidationError, LinalgError) as exc:
            raise type(exc)(f"{d.name}: {exc}") from exc
        lam = np.sort([b.eigentuple[0] for b in spec.blocks for _ in range(b.multiplicity)])
        merged.extend(spec.eigenvalues)
        zero_data.append(ZeroData(t=t, eigenvalues=lam, kernel_plus=spec.kernel_dim_plus,
                                  kernel_minus=spec.kernel_dim_minus))
    merged.sort()
    return ModelAtZeros(
        zeros=tuple(zero_data),
        levels=np.array(merged[:count]),
        kernel_dim_plus=sum(zd.kernel_plus for zd in zero_data),
        kernel_dim_minus=sum(zd.kernel_minus for zd in zero_data),
    )


@dataclass(frozen=True)
class SweepRow:
    s: float
    n_modes: int
    eigenvalues: Array
    gap: float | None  # max_j |lambda_j(s) - mu_j| when the model has zeros
    spectral_index: int | None  # kernel_plus - kernel_minus
    kernel_plus: int | None  # eigenvalues below the threshold on the +1 grading block
    kernel_minus: int | None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[SweepRow, ...]
    model_levels: Array | None
    fitted_constant: float | None  # C with gap(s) <= C s^(-1/5), fitted at rows[1].s
    fit_point: float | None
    monotone_tail: bool | None
    rate_bound_ok: bool | None
    growth_constant: float | None  # c with lambda_1(s) >= c s for zero-free Z
    growth_ok: bool | None

    def table(self) -> str:
        lines = ["      s   modes   " + ("gap to model    index" if self.model_levels is not None
                                         else "lambda_1      lambda_1/s")]
        for r in self.rows:
            if r.gap is not None:
                lines.append(f"{r.s:>9.12g} {r.n_modes:>6}   {r.gap:<18.12g}  {r.spectral_index}")
            else:
                lines.append(f"{r.s:>9.12g} {r.n_modes:>6}   {r.eigenvalues[0]:<18.12g} "
                             f"{r.eigenvalues[0] / r.s:<18.12g}")
        if self.model_levels is not None:
            levels = ", ".join(f"{x:.12g}" for x in self.model_levels)
            lines.append(f"model levels: [{levels}]")
            lines.append(f"fitted C at s = {self.fit_point:.12g}: {self.fitted_constant:.12g}; "
                         f"monotone tail: {self.monotone_tail}; "
                         f"bound gap <= C s^(-1/5) for s >= fit point: {self.rate_bound_ok}")
        else:
            lines.append(f"fitted growth constant c: {self.growth_constant:.12g} "
                         f"(lambda_1 >= c s across sweep: {self.growth_ok})")
        return "\n".join(lines)


def _converged_eigs(model: CircleModel, s: float, n_modes: int, count: int
                    ) -> tuple[Array, int, sparse.csr_matrix]:
    """Eigenvalues stable under grid doubling, escalating n_modes as needed.

    The doubling check is the self-convergence gate: values are reported only
    once doubling moves the lowest eigenvalues by less than STABILITY_TOL.
    Localized eigenfunctions at large s need mode counts ~ s^(1/2), so the
    base resolution may be insufficient for the tail of a sweep; escalation
    bounded by three doublings keeps the gate honest and errors past the cap.
    Returns the lowest max(count, 10) eigenvalues at the accepted mode count,
    that mode count, and the operator assembled there.
    """
    n = n_modes
    probe = max(count, 10)
    coarse = _banded_eigs(_assemble_sparse(model, s, n), probe)
    for _ in range(3):
        h = _assemble_sparse(model, s, 2 * n)
        fine = _banded_eigs(h, probe)
        if float(np.max(np.abs(coarse - fine))) < STABILITY_TOL:
            return fine, 2 * n, h
        n, coarse = 2 * n, fine
        del h  # released before the next, larger assembly
    raise DiscretizationError(
        f"eigenvalues not stable under grid doubling at s = {s:g} up to "
        f"{2 * n} modes; rerun with a larger --modes value")


def _graded_kernel_counts(model: CircleModel, h: sparse.csr_matrix, full: Array,
                          threshold: float) -> tuple[int, int]:
    """Exact counts of eigenvalues of h below threshold on the +1 and -1 grading blocks.

    h commutes with G, the grading induced on modes (checked to 1e-10
    relative), and is positive semidefinite, so h + K (I -/+ G) / 2 with
    K = 2 threshold keeps one block and lifts the other above threshold: the
    inertia of each at threshold is that block's count.  full holds the
    certified lowest eigenvalues of h, and the two counts must add up to its
    count below threshold.
    """
    from scipy import sparse

    n = h.shape[0]
    g = sparse.kron(sparse.identity(n // model.fiber_dim),
                    sparse.csr_matrix(model.grading)).tocsr()
    scale = max(1.0, float(np.max(np.abs(h.data))))
    leak = (h @ g - g @ h).tocsr()
    if leak.nnz and float(np.max(np.abs(leak.data))) > 1e-10 * scale:
        raise CircleModelError("H_s does not commute with the induced grading")
    lift = threshold * sparse.identity(n, format="csr")  # K (I -/+ G) / 2 = threshold (I -/+ G)
    kp = _inertia(h + lift - threshold * g, threshold)
    km = _inertia(h + lift + threshold * g, threshold)
    below = int(np.count_nonzero(full < threshold))
    if kp + km != below:
        raise DiscretizationError(
            f"grading blocks hold {kp} + {km} eigenvalues below {threshold:.12g} on {n} rows, "
            f"but {below} certified eigenvalues lie there")
    return kp, km


def _model_row(model: CircleModel, s: float, n_modes: int, mu: Array,
               threshold: float) -> SweepRow:
    """Sweep row at s for Z with zeros: gap to the model levels mu and graded counts.

    Both come from the one operator that grid doubling accepted, which is
    released on return.
    """
    low, used, h = _converged_eigs(model, s, n_modes, mu.size)
    eigs = low[: mu.size]
    kp, km = _graded_kernel_counts(model, h, low, threshold)
    return SweepRow(s=s, n_modes=used, eigenvalues=eigs, gap=float(np.max(np.abs(eigs - mu))),
                    spectral_index=kp - km, kernel_plus=kp, kernel_minus=km)


def convergence_report(model: CircleModel, s_list: list[float], j_max: int,
                       n_modes: int) -> ConvergenceReport:
    """Sweep s and compare the low spectrum of H_s with the localized model.

    With zeros present: reports per-s gaps max_{j<=j_max} |lambda_j - mu_j|,
    requires the gap sequence to decrease over the last three s values, fits
    C = gap(s_fit) s_fit^(1/5) at the second sweep point, and checks
    gap(s) <= C s^(-1/5) from the fit point on (the localization bound is
    asymptotic, so smaller s are reported but not bound-checked).  Each row
    counts the eigenvalues below half the smallest positive model level on
    the two grading blocks (kernel_plus, kernel_minus; their difference is
    the spectral index), and from the fit point on they must equal the
    zeros' summed graded kernel dims, else DiscretizationError.  The lowest
    max(j_max, kp + km + 1) levels are compared, so at least one positive
    level is.  With invertible (zero-free) Z: fits c = min lambda_1(s)/s and
    checks c > 0.
    """
    if len(s_list) < 3 or any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise CircleModelError("s_list must be increasing with at least 3 entries")
    at_zeros = model_spectrum_at_zeros(model, count=j_max)
    rows: list[SweepRow] = []
    if at_zeros.zeros:
        # the kp + km kernel levels are exactly 0, and the next one is smallest_positive
        kernel = at_zeros.kernel_dim_plus + at_zeros.kernel_dim_minus
        mu = at_zeros.levels if j_max > kernel else \
            np.append(np.zeros(kernel), at_zeros.smallest_positive)
        threshold = 0.5 * at_zeros.smallest_positive
        rows = [_model_row(model, s, n_modes, mu, threshold) for s in s_list]
        fit_point = s_list[1]
        expected = (at_zeros.kernel_dim_plus, at_zeros.kernel_dim_minus)
        for r in rows:
            if r.s >= fit_point and (r.kernel_plus, r.kernel_minus) != expected:
                raise DiscretizationError(
                    f"grading blocks hold ({r.kernel_plus}, {r.kernel_minus}) eigenvalues below "
                    f"{threshold:.12g} at s = {r.s:g}, but the zeros' kernel dims are {expected}")
        gaps = [r.gap for r in rows]
        monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 3, len(gaps) - 1))
        fitted = gaps[1] * fit_point**0.2
        bound_ok = all(r.gap <= fitted * r.s**-0.2 * (1.0 + 1e-9)
                       for r in rows if r.s >= fit_point)
        return ConvergenceReport(tuple(rows), mu, fitted, fit_point,
                                 monotone, bound_ok, None, None)
    for s in s_list:
        low, used = _converged_eigs(model, s, n_modes, j_max)[:2]
        rows.append(SweepRow(s=s, n_modes=used, eigenvalues=low[:j_max], gap=None,
                             spectral_index=None, kernel_plus=None, kernel_minus=None))
    growth = min(float(r.eigenvalues[0]) / r.s for r in rows)
    return ConvergenceReport(tuple(rows), None, None, None, None, None,
                             growth, growth > 0.0)


GOLDEN_STRETCH = (3.0 + math.sqrt(5.0)) / 2.0


def carriere_preset(stretch: float = GOLDEN_STRETCH) -> CircleModel:
    """The hyperbolic-torus flow reduced to the {1, dt} sector of its basic
    form bundle, rescaled to period 2 pi.

    Z = 2 pi cos(t) (dt^ + dt-|) keeps the unit-period normalization of the
    linearization (eigenvalues +/- 2 pi at the zeros t = pi/2, 3 pi/2); the
    drift is the Hermitian stand-in (log stretch) i c(d/dt) for the
    mean-curvature correction, whose magnitude is the metric's stretch
    exponent.  stretch defaults to the dilation factor of [[2, 1], [1, 1]]
    and must exceed 1.
    """
    if stretch <= 1.0:
        raise CircleModelError("stretch must exceed 1 (hyperbolic dilation)")
    c = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    eps = np.diag([1.0, -1.0]).astype(complex)
    chat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = FourierMatrixFunction.real_terms(2, cos_terms={1: 2.0 * np.pi * chat})
    drift = FourierMatrixFunction.real_terms(2, cos_terms={0: math.log(stretch) * 1j * c})
    return CircleModel(fiber_dim=2, symbol=c, grading=eps, drift=drift, perturbation=z)


def cosine_preset() -> CircleModel:
    """Minimal localization example: Z = cos(t) (dt^ + dt-|) on the 2-dim fiber."""
    c = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    eps = np.diag([1.0, -1.0]).astype(complex)
    chat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = FourierMatrixFunction.real_terms(2, cos_terms={1: chat})
    return CircleModel(fiber_dim=2, symbol=c, grading=eps,
                       drift=FourierMatrixFunction.zero(2), perturbation=z)
