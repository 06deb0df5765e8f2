"""The closure check plan against a reference written from each check's formula.

Both product kernels evaluate one index plan (_closure_rows), so comparing
the monomial kernel with the dense one on a rotated copy cannot catch a
wrong row of the plan itself.  The reference below computes every row, and
each check, from its formula by dense products, on closures where every
check it covers is violated.
"""

import importlib

import numpy as np

from basicindex import ClosureDatum, explicit_module, validate_closure
from closure_builders import conjugated, hat_closure, random_unitary

engine = importlib.import_module("basicindex.local_index")
linalg = importlib.import_module("basicindex.linalg")

TOL = 1e-9


def reference_rows(d):
    """The plan's eight groups of rows in their documented order, the adjoint
    norms of (c_j, eps, Z_j, L_j), and G, each from its formula."""
    c, eps, z = d.module.c, d.module.grading, d.z
    m, dim = len(z), eps.shape[0]
    eye, norm = np.eye(dim), np.linalg.norm
    pairs = [(j, k) for j in range(m) for k in range(j, m)]
    gram = np.zeros((m, m))
    for j, k in pairs:
        gram[j, k] = gram[k, j] = np.trace(z[j] @ z[k] + z[k] @ z[j]).real / (2 * dim)
    ls = [c[j] @ z[j] for j in range(m)]
    groups = [
        [norm(c[j] @ c[k] + c[k] @ c[j] + 2.0 * (j == k) * eye) for j, k in pairs]
        + [norm(eps @ cj + cj @ eps) for cj in c] + [norm(eps @ eps - eye)],
        [norm(eps @ zj + zj @ eps) for zj in z],
        [norm(c[j] @ z[j] + z[j] @ c[j]) for j in range(m)],
        [norm(c[k] @ z[j] + z[j] @ c[k]) for j in range(m) for k in range(m) if k != j],
        [norm((z[j] @ z[k] + z[k] @ z[j]) / 2 - gram[j, k] * eye) for j, k in pairs],
        [norm(lj @ eps - eps @ lj) for lj in ls],
        [norm(ls[j] @ ls[j] - gram[j, j] * eye) for j in range(m)],
        [norm(ls[j] @ ls[k] - ls[k] @ ls[j]) for j, k in pairs if j < k],
    ]
    adjoint = ([norm(cj + cj.conj().T) for cj in c] + [norm(eps - eps.conj().T)]
               + [norm(a - a.conj().T) for a in (*z, *ls)])
    return groups, adjoint, gram


def reference(d):
    """Each plan check's max_violation (the module's as (count, note)), and G."""
    groups, adjoint, gram = reference_rows(d)
    c, eps, m = d.module.c, d.module.grading, d.module.m
    module = [f"c_{j + 1} is not skew-Hermitian" for j in range(m) if adjoint[j] > TOL]
    module += [f"Clifford relation fails for (c_{j + 1}, c_{k + 1})"
               for (j, k), v in zip([(j, k) for j in range(m) for k in range(j, m)], groups[0])
               if v > TOL]
    module += [msg for msg, v in [("grading is not Hermitian", adjoint[m]),
                                  ("grading is not an involution", groups[0][-1])] if v > TOL]
    module += [f"c_{j + 1} is not odd with respect to the grading" for j in range(m)
               if np.linalg.norm(eps @ c[j] + c[j] @ eps) > TOL]
    odd, diag, off, gram_rows, grade, square, comm = groups[1:]
    return {
        "module_clifford_relations": (len(module), "; ".join(module)),
        "perturbation_hermitian": max(adjoint[m + 1:2 * m + 1]),
        "perturbation_odd": max(odd),
        "clifford_form_diagonal_anticommutation": max(diag),
        "symbol_anticommutation_all_pairs": max(off),
        "gram_scalar": max(gram_rows),
        "commuting_operators": max(adjoint[2 * m + 1:] + grade + square + comm),
    }, gram


def broken_hat_closure():
    """hat_closure(3) with every row of each Z_j scaled by its own complex factor
    and grading entry 0 halved: still monomial, every row of the plan takes its
    own value, and every check that reference covers is violated."""
    d = hat_closure(3, [0.9, -1.4, 1.2])
    rng = np.random.default_rng(11)
    z = tuple(np.diag(1.0 + 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))) @ a
              for a in d.z)
    eps = d.module.grading.copy()
    eps[0, 0] = 0.5
    return ClosureDatum(d.name, explicit_module(list(d.module.c), eps), z, d.holonomy)


def dense_copy(d):
    return conjugated(d, random_unitary(np.random.default_rng(5), d.module.dim))


def kernel_rows(d):
    """The plan's groups and adjoint norms as validate_closure's kernel gives them."""
    m = d.module.m
    plan = engine._closure_rows(m)
    mats = [*d.module.c, d.module.grading, *d.z]
    mats += [mats[j] @ mats[m + 1 + j] for j in range(m)]
    base = linalg._monomial(mats)
    if base is None:
        viol, adjoint = linalg._dense_norms(mats, *plan.rows)[0], linalg._dense_adjoint_norms(
            mats, plan.signs)
    else:
        viol, adjoint = linalg._monomial_norms(base, *plan.rows)[0], linalg._adjoint_norms(
            base, plan.signs)
    return [viol[part] for part in plan.parts], adjoint


def assert_close(got, want, floor=0.0):
    """Within 1e-12 relative to the largest of want and floor."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * max(floor, np.abs(want).max()))


def assert_matches_reference(d):
    want, gram = reference(d)
    report = validate_closure(d, TOL)
    checks = {c.name: c for c in report.checks}
    count, note = want.pop("module_clifford_relations")
    assert count > 0 and checks["module_clifford_relations"].max_violation == count
    assert checks["module_clifford_relations"].note == note
    for name, value in want.items():
        assert value > 0.0, name
        assert_close(checks[name].max_violation, value)
    assert_close(report.gram, gram)
    groups, adjoint, _ = reference_rows(d)
    got_groups, got_adjoint = kernel_rows(d)
    for got, rows in zip(got_groups, groups, strict=True):
        assert_close(got, rows, 1.0)
    assert_close(got_adjoint, adjoint, 1.0)


def test_monomial_kernel_matches_the_formulas():
    d = broken_hat_closure()
    assert linalg._monomial([*d.module.c, d.module.grading, *d.z]) is not None
    assert_matches_reference(d)


def test_dense_kernel_matches_the_formulas():
    d = dense_copy(broken_hat_closure())
    assert linalg._monomial([*d.module.c, d.module.grading, *d.z]) is None
    assert_matches_reference(d)


def test_bad_module_with_misshaped_z_reports_both():
    # the module checks still run when the Z_j cannot enter the closure plan
    d = hat_closure(3, [0.9, -1.4, 1.2])
    c = list(d.module.c)
    c[0] = 2.0 * c[0]
    report = validate_closure(ClosureDatum(d.name, explicit_module(c, d.module.grading),
                                           d.z[:2], d.holonomy))
    module, shapes = report.checks
    assert (module.name, shapes.name) == ("module_clifford_relations", "perturbation_shapes")
    assert not module.passed and not shapes.passed
    assert "Clifford relation fails for (c_1, c_1)" in module.note
    assert shapes.note == "expected 3 matrices of shape (8, 8)"
