"""Invariances of the circle lab that the theory guarantees, as hypothesis properties."""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basicindex import (
    CircleModel,
    FourierMatrixFunction,
    carriere_preset,
    convergence_report,
    cosine_preset,
)
from basicindex.localization import (
    _assemble_sparse,
    _block_eigs,
    _converged_eigs,
    _graded,
    _graded_kernel_counts,
    _grading_blocks,
    model_spectrum_at_zeros,
)

C2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2)


def doubled_cosine():
    """cos(t) chat (x) I on a 4-dim fiber with the carriere drift: 2-fold kernels."""
    drift = FourierMatrixFunction.real_terms(4, cos_terms={0: 0.9j * np.kron(C2, EYE2)})
    return CircleModel(4, np.kron(C2, EYE2), np.kron(SZ, EYE2), drift,
                       FourierMatrixFunction.real_terms(4, cos_terms={1: np.kron(SX, EYE2)}))


MODELS = {"cosine": cosine_preset, "carriere": carriere_preset, "doubled": doubled_cosine}


def unitary(angles):
    """exp(i H) for the Hermitian H = sym(A) + i skew(A) of the f x f real matrix A of angles."""
    a = np.reshape(angles, (int(round(np.sqrt(len(angles)))),) * 2)
    w, v = np.linalg.eigh((a + a.T) / 2.0 + 0.5j * (a - a.T))
    return (v * np.exp(1j * w)) @ v.conj().T


def rotated(model, u):
    """The model in the fiber basis u: every fiber matrix M becomes u M u^H."""
    def conj(fn):
        return FourierMatrixFunction(fn.dim, tuple((k, u @ m @ u.conj().T) for k, m in fn.coeffs))
    return CircleModel(model.fiber_dim, u @ model.symbol @ u.conj().T,
                       u @ model.grading @ u.conj().T, conj(model.drift),
                       conj(model.perturbation))


def graded_row(model, s):
    """Accepted mode count, lowest 10 eigenvalues and block counts at s from 64 base modes."""
    low, used, blocks = _converged_eigs(_graded(model), s, 64, 4)
    threshold = 0.5 * model_spectrum_at_zeros(model, count=4).smallest_positive
    return used, low, _graded_kernel_counts(blocks, low, threshold)


@functools.lru_cache(maxsize=None)
def unrotated_row(name, s):
    return graded_row(MODELS[name](), s)


def angles_for(f):
    return st.lists(st.floats(-np.pi, np.pi), min_size=f * f, max_size=f * f)


@st.composite
def model_and_basis(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    f = MODELS[name]().fiber_dim
    return name, draw(st.sampled_from([10.0, 100.0])), unitary(draw(angles_for(f)))


@settings(max_examples=12)
@given(model_and_basis())
@example(("cosine", 10.0, unitary([0.4, 1.1, -0.7, 0.3])))
@example(("doubled", 100.0, unitary([0.3 * k - 2.0 for k in range(16)])))
def test_fiber_basis_leaves_counts_modes_and_low_spectrum(case):
    # a unitary change of fiber basis, applied to the symbol, grading, drift and
    # perturbation, is a unitary change of basis of H_s; a non-diagonal grading
    # takes the rotated block split
    name, s, u = case
    used, low, counts = graded_row(rotated(MODELS[name](), u), s)
    used0, low0, counts0 = unrotated_row(name, s)
    assert (used, counts) == (used0, counts0)
    assert np.max(np.abs(low - low0)) < 1e-9


def test_sweep_of_a_fiber_rotated_model_matches_the_unrotated_sweep():
    # the rotated grading is not diagonal, so its blocks are not fiber rows; the sweep
    # grades the model once, and every row keeps its modes, counts and gap
    model = rotated(cosine_preset(), unitary([0.4, 1.1, -0.7, 0.3]))
    assert np.min(np.abs(model.grading[[0, 1], [1, 0]])) > 0.1
    sweep = [10.0, 100.0, 1000.0]
    rows, rows0 = (convergence_report(m, sweep, 4, 128).rows for m in (model, cosine_preset()))
    for r, r0 in zip(rows, rows0):
        assert (r.n_modes, r.kernel_plus, r.kernel_minus) == (r0.n_modes, r0.kernel_plus,
                                                              r0.kernel_minus)
        assert abs(r.gap - r0.gap) < 1e-9


def hermitian(draw, f):
    re = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=f * f, max_size=f * f)))
    im = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=f * f, max_size=f * f)))
    a = (re + 1j * im).reshape(f, f)
    return a + a.conj().T


@st.composite
def odd_model(draw):
    """A random odd model on C^2 (x) C^2: drift sx (x) A + sy (x) B and perturbation
    sx (x) P(t), with A, B and P Hermitian-valued trigonometric polynomials of
    degree up to 2, in a random fiber basis."""
    drift, perturbation = {}, {}
    for k in range(draw(st.integers(0, 2)) + 1):
        odd = np.kron(SX, hermitian(draw, 2)) + np.kron(SY, hermitian(draw, 2))
        drift[k] = draw(st.floats(0.0, 2.0)) * odd
        perturbation[k] = np.kron(SX, hermitian(draw, 2))
    model = CircleModel(4, np.kron(C2, EYE2), np.kron(SZ, EYE2),
                        FourierMatrixFunction.real_terms(4, cos_terms=drift),
                        FourierMatrixFunction.real_terms(4, cos_terms=perturbation))
    return rotated(model, unitary(draw(angles_for(4)))), draw(st.sampled_from([1.0, 10.0, 100.0]))


@settings(max_examples=10)
@given(odd_model())
def test_grading_blocks_of_an_odd_model_are_isospectral(case):
    # H+ = D+^H D+ / s and H- = D+ D+^H / s with D+ square: the same spectrum,
    # kernels included, and the doubled H+ values are the low spectrum of H_s
    model, s = case
    h = _assemble_sparse(_graded(model), s, 64)
    blocks = _grading_blocks(h)
    plus, minus = (np.linalg.eigvalsh(b.toarray()) for b in blocks)
    scale = max(1.0, float(np.max(np.abs(h.data))))
    assert plus.size == minus.size == h.shape[0] // 2
    assert np.max(np.abs(plus - minus)) < 1e-10 * scale
    dense = np.linalg.eigvalsh(h.toarray())
    assert np.max(np.abs(_block_eigs(blocks, 6) - dense[:6])) < 1e-9 * scale
