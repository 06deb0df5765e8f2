"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import functools
import itertools
import time

import numpy as np

from basicindex import (
    ClosureDatum,
    ScenarioModel,
    clifford_hat,
    compose_levels,
    convergence_report,
    cosine_preset,
    exterior_module,
    explicit_module,
    global_index,
    invariant_kernel,
    joint_eig,
    load_corpus_scenario,
    local_index,
    odd_invertible_perturbation,
    oscillator_1d_oracle,
    validate_closure,
)
from basicindex.cli import main as cli_main
from basicindex.localization import CircleModel, FourierMatrixFunction
from basicindex.model_operator import _ascending_sums, eigentuple_blocks
from closure_builders import random_unitary, sphere_closure


def criterion(number, title, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
            print(f"ACCEPTANCE {number} ({title}): PASS [{elapsed:.2f}s]")
        return wrapper
    return decorate


GOLDEN = {
    "sphere_suspension": 2,
    "carriere": 0,
    "cp2_signature_a": 1,
    "cp2_signature_b": 1,
    "cp2_signature_c": 1,
}


@criterion(1, "golden indices", 5.0)
def test_criterion_1_golden_indices():
    for name, expected in GOLDEN.items():
        scenario = load_corpus_scenario(name)
        assert global_index(scenario) == expected, name
        assert cli_main(["index", name]) == 0


@criterion(2, "per-closure detail", 10.0)
def test_criterion_2_per_closure_detail():
    sphere = load_corpus_scenario("sphere_suspension")
    north = next(d for d in sphere.closures if d.name == "north_pole")
    _, detail = local_index(north)
    assert detail.plus.dim_intersection == 1 and detail.minus.dim_intersection == 0
    area_form = np.zeros(4, dtype=complex)
    area_form[3] = 1.0
    overlap = abs(np.vdot(area_form, detail.plus.intersection.basis[:, 0]))
    assert abs(overlap - 1.0) < 1e-9

    for d in load_corpus_scenario("carriere").closures:
        _, detail = local_index(d)
        assert (detail.plus.dim_invariant, detail.minus.dim_invariant) == (1, 1)

    case_table = {
        "cp2_signature_a": [1, -1, 1],
        "cp2_signature_b": [1, 1, -1],
        "cp2_signature_c": [1, 1, -1],
    }
    for name, expected in case_table.items():
        scenario = load_corpus_scenario(name)
        got = [local_index(d)[0] for d in scenario.closures]
        assert got == expected, name


@criterion(3, "odd-codimension vanishing", 1.0)
def test_criterion_3_odd_codimension():
    for q in (1, 3, 5):
        module = exterior_module(q, "parity")
        z = odd_invertible_perturbation(module)
        assert np.linalg.norm(z - z.conj().T) < 1e-10
        assert np.linalg.svd(z, compute_uv=False)[-1] >= 1.0 - 1e-9
        assert global_index(ScenarioModel(f"odd_q{q}", q, ())) == 0
    assert global_index(load_corpus_scenario("odd_codim_q3")) == 0


@criterion(4, "two-route consistency", 10.0)
def test_criterion_4_two_route_consistency():
    for name in GOLDEN:
        for d in load_corpus_scenario(name).closures:
            kp, km = invariant_kernel(d)  # raises on internal route mismatch
            _, detail = local_index(d)
            assert (kp, km) == (detail.plus.dim_invariant, detail.minus.dim_invariant)


@criterion(5, "oscillator oracle", 30.0)
def test_criterion_5_oscillator_oracle():
    cache = {}

    def oracle(lam):
        key = round(float(lam), 12)
        if key not in cache:
            cache[key] = list(oscillator_1d_oracle(float(lam), 5, n_grid=2000))
        return cache[key]

    for name in GOLDEN:
        for d in load_corpus_scenario(name).closures:
            for block in eigentuple_blocks(d):
                analytic = compose_levels(np.array(block.eigentuple), 5)
                axes = [oracle(lam) for lam in block.eigentuple]
                numeric = list(itertools.islice(_ascending_sums(axes), 5))
                worst = max(abs(a - b) for a, b in zip(analytic, numeric))
                assert worst < 1e-5, (name, d.name, block.eigentuple, worst)


@criterion(6, "localization convergence", 60.0)
def test_criterion_6_localization_convergence():
    report = convergence_report(cosine_preset(), [10.0, 100.0, 1000.0, 10000.0],
                                j_max=4, n_modes=256)
    gaps = [r.gap for r in report.rows]
    assert gaps[1] > gaps[2] > gaps[3], gaps
    assert report.monotone_tail
    fitted = report.fitted_constant
    assert report.fit_point == 100.0
    for r in report.rows:
        if r.s >= 100.0:
            assert r.gap <= fitted * r.s ** -0.2 * (1.0 + 1e-9)
    assert report.rate_bound_ok

    c2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    constant = CircleModel(2, c2, np.diag([1.0, -1.0]).astype(complex),
                           FourierMatrixFunction.zero(2),
                           FourierMatrixFunction.real_terms(2, cos_terms={0: sx}))
    growth = convergence_report(constant, [10.0, 100.0, 1000.0, 10000.0],
                                j_max=4, n_modes=256)
    assert growth.growth_ok and growth.growth_constant > 0.0
    for r in growth.rows:
        assert r.eigenvalues[0] / r.s >= growth.growth_constant


@criterion(7, "property suites", 10.0)
def test_criterion_7_property_suites():
    # Clifford relations, chirality involution, mixed anticommutation
    for m in (1, 2, 3, 4):
        module = exterior_module(m, "parity")
        assert module.validate(1e-10) == []
        hats = [clifford_hat(np.eye(m)[j], m) for j in range(m)]
        for j, k in itertools.product(range(m), repeat=2):
            delta = np.eye(1 << m) if j == k else 0.0
            assert np.linalg.norm(hats[j] @ hats[k] + hats[k] @ hats[j] - 2 * delta) < 1e-10
            assert np.linalg.norm(module.c[j] @ hats[k] + hats[k] @ module.c[j]) < 1e-10
    gamma = exterior_module(4, "chirality").grading
    assert np.linalg.norm(gamma @ gamma - np.eye(16)) < 1e-10

    # joint-diagonalization reconstruction on every corpus restriction
    from basicindex.local_index import analyze_closure

    for name in GOLDEN:
        for d in load_corpus_scenario(name).closures:
            a = analyze_closure(d)
            for side, (_, struct) in enumerate(a.sides):
                # U @ basis, dense: the joint eigenvectors in module coordinates, so
                # U^H L_j U = basis diag basis^H reads V^H L_j V = diag
                v = a.vectors(side, np.arange(len(struct.eigentuples)))
                assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) < 1e-12
                for j in range(d.module.m):
                    op = v.conj().T @ (d.module.c[j] @ d.z[j]) @ v
                    recon = np.diag(struct.eigentuples[:, j])
                    assert np.linalg.norm(op - recon) < 1e-9 * max(1.0, np.linalg.norm(op))

    # all-negative joint eigenspace vs the rank oracle on random commuting
    # involution pairs U diag(+-1) U^H, with ka and kb negative signs
    rng = np.random.default_rng(1234)
    for _ in range(20):
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        u = random_unitary(rng, 6)
        pair = []
        for k in (ka, kb):
            signs = np.ones(6)
            signs[rng.permutation(6)[:k]] = -1.0
            pair.append((u * signs) @ u.conj().T)
        got = int(np.sum(np.all(joint_eig(pair).eigentuples < 0.0, axis=1)))
        a, b = (v[:, w < 0.0] for w, v in map(np.linalg.eigh, pair))
        rank = lambda mat: int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-9))
        assert got == rank(a) + rank(b) - rank(np.hstack([a, b]))

    # scaling and relabeling invariance of the local index
    cp2 = load_corpus_scenario("cp2_signature_a").closures[0]
    scales = rng.uniform(0.3, 4.0, size=4)
    scaled = ClosureDatum(cp2.name, cp2.module,
                          tuple(t * z for t, z in zip(scales, cp2.z)), cp2.holonomy)
    assert local_index(scaled)[0] == local_index(cp2)[0]
    perm = (1, 2, 0, 3)  # even permutation
    relabeled = ClosureDatum(
        cp2.name,
        explicit_module([cp2.module.c[p] for p in perm], cp2.module.grading),
        tuple(cp2.z[p] for p in perm),
        cp2.holonomy,
    )
    assert local_index(relabeled)[0] == local_index(cp2)[0]

    # the three malformed fixtures are rejected
    good = sphere_closure("north")
    malformed = (
        ClosureDatum("dup", good.module, (good.z[0], good.z[0]), good.holonomy),
        ClosureDatum("commuting", good.module, (1j * good.module.c[0], good.z[1]),
                     good.holonomy),
        ClosureDatum("even", good.module, (np.eye(4, dtype=complex), good.z[1]),
                     good.holonomy),
    )
    for bad in malformed:
        assert not validate_closure(bad).passed, bad.name
