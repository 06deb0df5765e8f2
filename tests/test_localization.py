import functools

import numpy as np
import pytest

from basicindex import (
    CircleModel,
    CircleModelError,
    ClosureValidationError,
    DiscretizationError,
    FourierMatrixFunction,
    carriere_preset,
    convergence_report,
    cosine_preset,
    model_spectrum_at_zeros,
)
from basicindex import localization
from basicindex.localization import (
    MAX_MODES,
    STABILITY_TOL,
    _assemble_sparse,
    _banded_eigs,
    _block_eigs,
    _converged_eigs,
    _graded,
    _graded_kernel_counts,
    _grading_blocks,
    _inertia,
    find_zeros,
)

C2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def flat_model():
    return CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2),
                       FourierMatrixFunction.zero(2))


def constant_z_model():
    return CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2),
                       FourierMatrixFunction.real_terms(2, cos_terms={0: SX}))


def test_fourier_function_evaluates_real_terms():
    f = FourierMatrixFunction.real_terms(2, cos_terms={1: SX}, sin_terms={2: SZ})
    for t in (0.0, 0.3, 1.7, 4.0):
        expected = np.cos(t) * SX + np.sin(2 * t) * SZ
        assert np.allclose(f(t), expected, atol=1e-12)


def test_fourier_derivative():
    f = FourierMatrixFunction.real_terms(2, cos_terms={1: SX})
    df = f.derivative()
    for t in (0.1, 2.0):
        assert np.allclose(df(t), -np.sin(t) * SX, atol=1e-12)


def test_grid_values_match_pointwise_evaluation():
    for z in (carriere_preset().perturbation, windowed_linear_model().perturbation):
        ts = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        pointwise = np.array([z(t) for t in ts])
        scale = np.max(np.abs(pointwise))
        assert np.max(np.abs(z.on_grid(512) - pointwise)) < 1e-13 * scale


def test_aliased_harmonic_is_rejected():
    z = FourierMatrixFunction.real_terms(2, cos_terms={1: SX, 4096: SX})
    with pytest.raises(CircleModelError, match="aliases"):
        find_zeros(z)  # 8192 samples
    assert z.on_grid(8194).shape == (8194, 2, 2)


def test_model_validation_rejects_skew_drift():
    drift = FourierMatrixFunction.real_terms(2, cos_terms={0: 0.5 * C2})
    m = CircleModel(2, C2, SZ, drift, FourierMatrixFunction.zero(2))
    with pytest.raises(CircleModelError, match="[Hh]ermitian"):
        m.validate()


def test_model_validation_rejects_even_perturbation():
    z = FourierMatrixFunction.real_terms(2, cos_terms={1: SZ})
    with pytest.raises(CircleModelError, match="odd"):
        CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2), z).validate()


def test_model_validation_rejects_odd_fiber():
    with pytest.raises(CircleModelError, match="even"):
        CircleModel(1, np.array([[1j]]), np.array([[1.0]]),
                    FourierMatrixFunction.zero(1), FourierMatrixFunction.zero(1)).validate()


def test_flat_model_spectrum():
    h = _assemble_sparse(flat_model(), 2.0, 64).toarray()
    assert np.linalg.norm(h - h.conj().T) < 1e-10
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w[:7], [0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 2.0], atol=1e-10)
    assert w[0] > -1e-8 * max(1.0, np.linalg.norm(h))


def test_assembled_matrix_is_psd_for_carriere():
    h = _assemble_sparse(carriere_preset(), 1.0, 64).toarray()
    assert np.linalg.norm(h - h.conj().T) < 1e-10
    assert np.linalg.eigvalsh(h)[0] >= -1e-8 * np.linalg.norm(h)


def flipped_cosine_model():
    """cos(t) chat with the grading diag(-1, 1): the +1 fiber row comes second."""
    return CircleModel(2, C2, -SZ, FourierMatrixFunction.zero(2),
                       FourierMatrixFunction.real_terms(2, cos_terms={1: SX}))


def interleaved_cosine_model():
    """Two copies of cos(t) chat on C^2 (x) C^2, graded diag(1, -1, 1, -1)."""
    eye2 = np.eye(2)
    return CircleModel(4, np.kron(eye2, C2), np.kron(eye2, SZ), FourierMatrixFunction.zero(4),
                       FourierMatrixFunction.real_terms(4, cos_terms={1: np.kron(eye2, SX)}))


def test_grading_blocks_are_exact():
    # graded, the model's grading is diag(I, -I), so H+ and H- are the diagonal halves of
    # H and the off-diagonal halves are empty; the doubled H+ values are the low spectrum,
    # and inertia(H, mu) = inertia(H+, mu) + inertia(H-, mu) between every two levels
    for model in (cosine_preset(), flipped_cosine_model(), interleaved_cosine_model()):
        graded = _graded(model)
        half = model.fiber_dim // 2
        assert np.array_equal(graded.grading, np.diag([1.0] * half + [-1.0] * half))
        h = _assemble_sparse(graded, 50.0, 64)
        n = h.shape[0] // 2
        blocks = _grading_blocks(h)
        full = _block_eigs(blocks, 16)
        dense = np.linalg.eigvalsh(h.toarray())
        assert np.max(np.abs(full - dense[:16])) < 1e-9
        assert h[:n, n:].count_nonzero() == h[n:, :n].count_nonzero() == 0
        for block, sign in zip(blocks, (1, -1)):
            rows = graded_half(h, sign)[0]
            assert (block != h[rows, rows]).nnz == 0
        spectra = [np.linalg.eigvalsh(block.toarray()) for block in blocks]
        between = [0.5 * (full[k - 1] + full[k]) for k in np.flatnonzero(np.diff(full) > 1.0) + 1]
        assert len(between) >= 2
        for mu in [0.5, 1.0] + between:
            counts = _graded_kernel_counts(blocks, full, mu)
            assert counts == tuple(int(np.sum(b < mu)) for b in spectra), mu
            assert sum(counts) == _inertia(h, mu) == np.sum(dense < mu), mu


def test_block_counts_above_the_certified_values():
    # a threshold past the 16 certified values, inside a level that holds more:
    # the block counts are checked against the inertia count, not against 16
    h = _assemble_sparse(_graded(cosine_preset()), 50.0, 64)
    blocks = _grading_blocks(h)
    full = _block_eigs(blocks, 16)
    threshold = full[-1] + 1e-3
    assert np.count_nonzero(full < threshold) == 16 and _inertia(h, threshold) == 18
    assert _graded_kernel_counts(blocks, full, threshold) == (9, 9)


def even_leak_model():
    """cos(t) chat + 3e-10 I: the even part passes validate()'s 1e-9 checks, but
    it couples the grading blocks of H_s by about 1e-10 of its largest entry."""
    z = FourierMatrixFunction.real_terms(2, cos_terms={0: 3e-10 * np.eye(2), 1: SX})
    return CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2), z)


def test_even_part_of_z_fails_the_leak_check():
    # the block solve drops H+-, so an even part of D must fail before any solve
    model = even_leak_model()
    model.validate()
    with pytest.raises(CircleModelError, match="does not commute with the induced grading"):
        _grading_blocks(_assemble_sparse(_graded(model), 10.0, 64))
    with pytest.raises(CircleModelError, match="does not commute with the induced grading"):
        convergence_report(model, [10.0, 100.0, 1000.0], 4, 64)


def test_unpaired_blocks_fail_the_pairing_certificate():
    # either block gives the low spectrum; H- scaled by 1.5 keeps its kernel but
    # not its positive levels
    plus, minus = _grading_blocks(_assemble_sparse(_graded(cosine_preset()), 10.0, 64))
    assert np.allclose(_block_eigs((plus, minus), 10), _block_eigs((minus, plus), 10),
                       rtol=0.0, atol=1e-9)
    with pytest.raises(DiscretizationError, match="grading blocks are not paired: 5 and 3 "):
        _block_eigs((plus, 1.5 * minus), 10)


def test_one_sweep_validates_and_grades_the_model_once(monkeypatch):
    # every grid of every s is assembled from the one graded model
    calls = []
    validate, graded = CircleModel.validate, localization._graded
    monkeypatch.setattr(CircleModel, "validate",
                        lambda self: calls.append("validate") or validate(self))
    monkeypatch.setattr(localization, "_graded", lambda model: calls.append("graded") or graded(model))
    rep = convergence_report(cosine_preset(), [10.0, 100.0, 1000.0], 4, 128)
    assert len(rep.rows) == 3 and sorted(calls) == ["graded", "validate"]


def test_unwidened_block_solve_factors_each_block_once(monkeypatch):
    # the certificate's count on H+ is reused by the pairing, so H- is the only other count
    counted = []
    inertia = localization._inertia
    monkeypatch.setattr(localization, "_inertia",
                        lambda h, mu: counted.append(mu) or inertia(h, mu))
    monkeypatch.setattr(localization, "_cluster_count", None)  # a widening would fail
    blocks = _grading_blocks(_assemble_sparse(_graded(cosine_preset()), 10.0, 64))
    low = _block_eigs(blocks, 10)
    assert len(counted) == 2 and counted[0] == counted[1] > low[-1]


def test_inertia_next_to_a_16_fold_level():
    # cos(4 t) chat at s = 100: 8 kernel levels, then 16 copies of 7.9187.  An
    # unpivoted count 1e-8 above them missed 2 copies; at the certificate's
    # cluster width above them it is exact
    model = CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2),
                        FourierMatrixFunction.real_terms(2, cos_terms={4: SX}))
    h = _assemble_sparse(model, 100.0, 128)
    dense = np.linalg.eigvalsh(h.toarray())
    top = dense[23]
    assert dense[8] > top - 1e-9 and dense[24] > top + 1.0
    width = STABILITY_TOL * np.max(np.abs(h.data))
    assert _inertia(h, top + width) == 24
    assert _inertia(h, dense[8] - width) == 8


def test_cosine_zeros_and_levels():
    mz = model_spectrum_at_zeros(cosine_preset(), count=6)
    assert np.allclose([z.t for z in mz.zeros], [np.pi / 2, 3 * np.pi / 2], atol=1e-9)
    for z in mz.zeros:
        assert np.allclose(np.sort(z.eigenvalues), [-1.0, 1.0], atol=1e-9)
    assert np.allclose(mz.levels, [0.0, 0.0, 2.0, 2.0, 2.0, 2.0])
    assert (mz.kernel_dim_plus, mz.kernel_dim_minus) == (1, 1)


def degenerate_cosine_model(seed):
    """cos(t) chat on C^2 (x) C^4 with grading eps (x) diag(1, 1, -1, -1), conjugated
    by a seeded random unitary (none for seed None): each negative level of
    L = C Z'(t) is 4-fold and holds two vectors of each grading sign."""
    u = np.eye(8)
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
    eye4 = np.eye(4)

    def lift(a, b):
        return u @ np.kron(a, b) @ u.conj().T

    return CircleModel(8, lift(C2, eye4), lift(SZ, np.diag([1.0, 1.0, -1.0, -1.0])),
                       FourierMatrixFunction.zero(8),
                       FourierMatrixFunction.real_terms(8, cos_terms={1: lift(SX, eye4)}))


def test_grading_count_is_basis_independent_in_degenerate_levels():
    # sorting eigenvectors of L by the sign of <v, eps v> miscounts whenever the
    # eigensolver returns a basis that mixes the grading blocks of one level
    for seed in range(40):
        mz = model_spectrum_at_zeros(degenerate_cosine_model(seed), count=4)
        assert [(z.kernel_plus, z.kernel_minus) for z in mz.zeros] == [(2, 2), (2, 2)], seed
        assert (mz.kernel_dim_plus, mz.kernel_dim_minus) == (4, 4)
        assert np.allclose(mz.levels, 0.0, atol=1e-9)


def graded_counts(model, thresholds):
    blocks = _grading_blocks(_assemble_sparse(_graded(model), 10.0, 64))
    full = _block_eigs(blocks, 24)  # the levels 0 and 2, 8- and 16-fold
    return [_graded_kernel_counts(blocks, full, mu) for mu in thresholds]


def test_graded_counts_are_basis_independent():
    # a non-diagonal grading splits the modes by its induced G, not by fiber rows:
    # a unitary change of fiber basis leaves every block count unchanged
    thresholds = (1.0, 3.0)  # half the least positive level, and between levels 2 and 4
    unrotated = graded_counts(degenerate_cosine_model(None), thresholds)
    assert unrotated[0] == (4, 4)
    for seed in range(3):
        assert graded_counts(degenerate_cosine_model(seed), thresholds) == unrotated, seed


def test_stalled_block_solve_is_widened_to_its_cluster(monkeypatch):
    # in the rotated degenerate model at s = 1000, the 5-value solve on H+ ends inside
    # the 8-fold level at 1.9995 and Lanczos stalls short of it; inertia bisection
    # widens the solve to that level.  Seed 2 stalls with 1-thread and multithreaded BLAS
    # alike
    widened = []
    cluster_count = localization._cluster_count
    monkeypatch.setattr(localization, "_cluster_count",
                        lambda h, k, low, width: widened.append(k) or cluster_count(h, k, low, width))
    blocks = _grading_blocks(_assemble_sparse(_graded(degenerate_cosine_model(2)), 1000.0, 128))
    low = _block_eigs(blocks, 10)
    assert widened == [5]
    whole = _banded_eigs(blocks[0], 12)[0]  # the 4 kernel values and the whole level
    assert np.max(np.abs(low - np.repeat(whole[:5], 2))) < 1e-9
    assert np.allclose(whole, [0.0] * 4 + [1.9995] * 8, atol=1e-4)


def test_injected_stall_is_widened_to_its_cluster(monkeypatch):
    # the first Lanczos solve on H+ of the unrotated degenerate model at s = 1000 is made
    # to stall with only the 4 kernel values, short of the 8-fold level at 1.9995, so the
    # widening runs whatever the round-off; it must give the solve without the stall
    from scipy.sparse import linalg as sparse_linalg

    blocks = _grading_blocks(_assemble_sparse(_graded(degenerate_cosine_model(None)), 1000.0, 128))
    unstalled = _block_eigs(blocks, 10)
    eigsh, stalls, widened = sparse_linalg.eigsh, [], []

    def stalling(*args, **kwargs):
        w = np.sort(eigsh(*args, **kwargs))
        if stalls:
            return w
        stalls.append(w)
        raise sparse_linalg.ArpackNoConvergence("injected stall", w[:4], None)

    cluster_count = localization._cluster_count
    monkeypatch.setattr(sparse_linalg, "eigsh", stalling)
    monkeypatch.setattr(localization, "_cluster_count",
                        lambda h, k, low, width: widened.append(k) or cluster_count(h, k, low, width))
    low = _block_eigs(blocks, 10)
    assert widened == [5] and len(stalls) == 1
    assert np.max(stalls[0][:4]) < 1e-6 and abs(stalls[0][4] - 1.9995) < 1e-4
    assert np.array_equal(low, unstalled)


def test_assembly_rejects_more_than_max_modes():
    with pytest.raises(CircleModelError, match=f"at most {MAX_MODES}"):
        _assemble_sparse(cosine_preset(), 10.0, MAX_MODES + 1)


@pytest.mark.parametrize("base,grids,advice", [
    (128, [128, 256, 512, 1024], "up to n_modes = 1024; rerun with a larger --modes value"),
    (MAX_MODES // 2, [MAX_MODES // 2, MAX_MODES],
     f"up to n_modes = {MAX_MODES}; no grid beyond n_modes = {MAX_MODES}"),
])
def test_grid_doubling_stops_at_max_modes(monkeypatch, base, grids, advice):
    # values that never settle: doubling runs three times or up to MAX_MODES, the error
    # names the finest grid assembled, and the advice to raise --modes is given only
    # while a larger base reaches a finer grid
    assembled = []
    monkeypatch.setattr(localization, "_assemble_sparse",
                        lambda model, s, n: assembled.append(n) or n)
    monkeypatch.setattr(localization, "_grading_blocks", lambda n: n)
    monkeypatch.setattr(localization, "_block_eigs", lambda n, count: np.full(count, float(n)))
    with pytest.raises(DiscretizationError, match=advice):
        _converged_eigs(None, 10.0, base, 4)
    assert assembled == grids


def test_symbol_is_checked_as_a_clifford_module():
    with pytest.raises(CircleModelError, match="Clifford relation"):
        CircleModel(2, 2.0 * C2, SZ, FourierMatrixFunction.zero(2),
                    FourierMatrixFunction.zero(2)).validate()


def test_zero_with_non_scalar_square_is_rejected():
    # on a 4-dim fiber Z'(t)^2 need not be a multiple of I; each zero is an
    # m = 1 closure, so it fails gram_scalar as a closure would
    eye2 = np.eye(2)
    model = CircleModel(4, np.kron(C2, eye2), np.kron(SZ, eye2), FourierMatrixFunction.zero(4),
                        FourierMatrixFunction.real_terms(
                            4, cos_terms={1: np.kron(SX, np.diag([1.0, 2.0]))}))
    model.validate()
    with pytest.raises(ClosureValidationError, match="zero at t = 1.570796") as info:
        model_spectrum_at_zeros(model, count=4)
    assert "[FAIL] gram_scalar" in str(info.value)


def test_non_simple_zero_fails_gram_positive_definite():
    z = FourierMatrixFunction.real_terms(2, cos_terms={0: SX, 1: -SX})  # (1 - cos t) chat
    model = CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2), z)
    with pytest.raises(ClosureValidationError, match="zero at t = 0.000000") as info:
        model_spectrum_at_zeros(model, count=4)
    assert "[FAIL] gram_positive_definite" in str(info.value)


def test_smallest_positive_level_is_exact_with_many_zeros():
    # cos(4 t) chat has 8 zeros and 8 kernel levels, so the 8 lowest levels are all 0;
    # the least positive level is still 2 min |lambda| = 8
    model = CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2),
                        FourierMatrixFunction.real_terms(2, cos_terms={4: SX}))
    mz = model_spectrum_at_zeros(model, count=8)
    assert np.allclose(mz.levels, 0.0)
    assert mz.smallest_positive == 8.0


def test_no_zero_perturbation_gives_empty_model():
    mz = model_spectrum_at_zeros(constant_z_model(), count=4)
    assert mz.zeros == () and mz.levels.size == 0


def test_identically_zero_perturbation_rejected():
    with pytest.raises(CircleModelError, match="identically"):
        model_spectrum_at_zeros(flat_model())


def test_grid_doubling_stability_at_calibration_point():
    a = _banded_eigs(_assemble_sparse(cosine_preset(), 100.0, 256), 10)[0]
    b = _banded_eigs(_assemble_sparse(cosine_preset(), 100.0, 512), 10)[0]
    assert np.max(np.abs(a - b)) < 1e-8


def test_convergence_report_cosine_short_sweep():
    rep = convergence_report(cosine_preset(), [10.0, 100.0, 1000.0], 4, 128)
    gaps = [r.gap for r in rep.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert rep.monotone_tail and rep.rate_bound_ok
    assert rep.fit_point == 100.0
    assert rep.fitted_constant == pytest.approx(gaps[1] * 100.0 ** 0.2)
    assert all(r.spectral_index == 0 for r in rep.rows)


def test_convergence_report_requires_increasing_sweep():
    with pytest.raises(CircleModelError):
        convergence_report(cosine_preset(), [10.0, 10.0], 4, 128)


def test_constant_z_grows_linearly():
    rep = convergence_report(constant_z_model(), [10.0, 100.0, 1000.0], 4, 64)
    assert rep.growth_ok and rep.growth_constant > 0.5
    assert rep.model_levels is None


def test_banded_eigs_rejects_a_count_lanczos_cannot_resolve():
    h = _assemble_sparse(cosine_preset(), 10.0, 64)
    with pytest.raises(DiscretizationError, match="raise --modes"):
        _banded_eigs(h, h.shape[0] - 1)


def test_unresolvable_discretization_errors_out():
    with pytest.raises(DiscretizationError):
        _converged_eigs(cosine_preset(), 1.0e6, 64, 4)


def windowed_linear_model(width=1.55, harmonics=80):
    """Perturbation profile exactly linear near its two zeros (to 8th order)
    and numerically supported away from them, truncated to a finite Fourier
    series with sub-1e-12 sup error."""
    def wrap(x):
        return (x + np.pi) % (2 * np.pi) - np.pi

    def profile(t):
        v = lambda x: x * np.exp(-((x / width) ** 8))
        return -v(wrap(t - np.pi / 2)) + v(wrap(t - 3 * np.pi / 2))

    n = 2048
    ts = 2 * np.pi * np.arange(n) / n
    coeffs = np.fft.fft(profile(ts)) / n
    terms = {k: coeffs[k % n] * SX for k in range(-harmonics, harmonics + 1)
             if abs(coeffs[k % n]) > 1e-16}
    z = FourierMatrixFunction.build(2, terms)
    resampled = np.array([z(t)[0, 1].real for t in ts[::16]])
    assert np.max(np.abs(resampled - profile(ts[::16]))) < 1e-12
    return CircleModel(2, C2, SZ, FourierMatrixFunction.zero(2), z)


def test_flat_exactness_of_windowed_linear_zeros():
    # with Z exactly linear near its zeros the localized spectrum is met to
    # discretization accuracy already at moderate s, unlike the cosine model
    # whose cubic correction leaves a ~1/s residual
    model = windowed_linear_model()
    mz = model_spectrum_at_zeros(model, count=4)
    assert np.allclose(mz.levels, [0.0, 0.0, 2.0, 2.0])
    eigs, _, _ = _converged_eigs(model, 100.0, 128, 4)
    windowed_gap = float(np.max(np.abs(eigs[:4] - mz.levels)))
    cosine_eigs, _, _ = _converged_eigs(cosine_preset(), 100.0, 128, 4)
    cosine_gap = float(np.max(np.abs(cosine_eigs[:4] - mz.levels)))
    assert windowed_gap < 1e-6
    assert windowed_gap < 1e-2 * cosine_gap


def test_windowed_zeros_are_found():
    zeros = find_zeros(windowed_linear_model().perturbation)
    assert np.allclose(zeros, [np.pi / 2, 3 * np.pi / 2], rtol=0.0, atol=1e-9)


def test_carriere_preset_structure():
    m = carriere_preset()
    mz = model_spectrum_at_zeros(m, count=4)
    assert np.allclose([z.t for z in mz.zeros], [np.pi / 2, 3 * np.pi / 2], atol=1e-9)
    for z in mz.zeros:
        assert np.allclose(np.sort(z.eigenvalues), [-2 * np.pi, 2 * np.pi], atol=1e-9)
    assert (mz.kernel_dim_plus, mz.kernel_dim_minus) == (1, 1)
    assert np.allclose(mz.levels, [0.0, 0.0, 4 * np.pi, 4 * np.pi])


def test_carriere_preset_rejects_flat_stretch():
    with pytest.raises(CircleModelError):
        carriere_preset(1.0)


def test_carriere_model_independent_of_drift():
    a = model_spectrum_at_zeros(carriere_preset(2.0), count=6)
    b = model_spectrum_at_zeros(carriere_preset(5.0), count=6)
    assert np.allclose(a.levels, b.levels, atol=1e-12)


@pytest.mark.parametrize("stretch", [2.0, (3.0 + np.sqrt(5.0)) / 2.0, 5.0])
def test_carriere_spectral_index_zero_for_all_stretches(stretch):
    rep = convergence_report(carriere_preset(stretch), [10.0, 60.0, 360.0], 4, 128)
    assert all(r.spectral_index == 0 for r in rep.rows)


REFERENCE_MODELS = {"flat": flat_model, "carriere": carriere_preset, "cosine": cosine_preset,
                    "windowed": windowed_linear_model}
REFERENCE_CASES = [(name, s, n_modes) for name in sorted(REFERENCE_MODELS)
                   for s in (10.0, 1000.0, 10000.0) for n_modes in (256, 512)]


@functools.lru_cache(maxsize=None)
def dense_block_spectrum(name, s, n_modes, sign):
    """np.linalg.eigvalsh of H_s on one grading block.  H_s of a graded model
    commutes with its grading diag(I, -I), so H_s is block diagonal in its halves
    and the two blocks carry its whole spectrum at a quarter of the dense cost each."""
    h = _assemble_sparse(_graded(REFERENCE_MODELS[name]()), s, n_modes)
    rows, rest = graded_half(h, sign)
    assert h[rows, rest].count_nonzero() == 0
    return np.linalg.eigvalsh(h[rows, rows].toarray())


def graded_half(h, sign):
    """The rows of the +1 (sign 1) or -1 grading block of a graded H_s, and the others."""
    n = h.shape[0] // 2
    return (slice(None, n), slice(n, None))[::sign]


REFERENCE_THRESHOLDS = {"flat": 0.5}  # no k^2 / s of the flat sweep sits at 0.5


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name,s,n_modes", REFERENCE_CASES)
def test_graded_low_spectrum_matches_dense_eigvalsh(name, s, n_modes, sign):
    # per-block inertia at the spectral-index threshold and just above the cluster
    # of the 16th eigenvalue, where a Lanczos solve would end
    model = REFERENCE_MODELS[name]()
    h = _assemble_sparse(_graded(model), s, n_modes)
    rows = graded_half(h, sign)[0]
    dense = dense_block_spectrum(name, s, n_modes, sign)
    threshold = REFERENCE_THRESHOLDS.get(name) or \
        0.5 * model_spectrum_at_zeros(model, count=4).smallest_positive
    for mu in (threshold, dense[15] + STABILITY_TOL):
        assert np.min(np.abs(dense - mu)) > 1e-10  # no eigenvalue within round-off of mu
        assert _inertia(h[rows, rows], mu) == np.sum(dense < mu), mu


@pytest.mark.parametrize("name,s,n_modes", REFERENCE_CASES)
def test_low_spectrum_matches_dense_eigvalsh(name, s, n_modes):
    # a fixed all-ones Lanczos start vector fails the flat cases, whose levels
    # have multiplicities 2 and 4
    dense = np.sort(np.concatenate([dense_block_spectrum(name, s, n_modes, sign)
                                    for sign in (1, -1)]))
    got = _banded_eigs(_assemble_sparse(REFERENCE_MODELS[name](), s, n_modes), 16)[0]
    assert np.max(np.abs(got - dense[:16])) < 1e-9
