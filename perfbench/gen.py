"""Seeded input generators for the benchmark workloads.

Every generated scenario is written through ``scenario_to_dict`` (or the
plain file schema) with fixed-width numbers, so a file's size in bytes does
not depend on the seed: ``scenario.bytes`` then repeats exactly across runs
with different seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from basicindex import (
    ClosureDatum,
    HolonomyGroup,
    ScenarioModel,
    derived_exterior_action,
    explicit_module,
    exterior_module,
    exterior_rep,
    clifford_hat,
    scenario_to_dict,
)


def _number(x: float) -> str:
    # Generated magnitudes stay below 10, so "% .17f" (a space in place of
    # the minus sign) is 20 characters and keeps ~1e-17 absolute precision,
    # far below the structural tolerance of 1e-9.
    text = f"{x: .17f}"
    if len(text) != 20:
        raise ValueError(f"generated value {x!r} is outside the fixed-width range")
    return text


def _dumps(obj) -> str:
    """JSON text in which every float takes the same number of characters."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _dumps(v) for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_number(v) if type(v) is float else _dumps(v) for v in obj) + "]"
    return json.dumps(obj)


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(_dumps(doc))
    return path


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_scenario(m: int, rng: np.random.Generator) -> dict:
    """Explicit closure with non-trivial holonomy and local index 1.

    Start from the exterior module with hat_linear Z_j = t_j chat(e_j), add
    an SO(2) infinitesimal generator on the plane (e_1, e_2) and a reflection
    component on the last axis, each with its derived module action, then
    conjugate c, Z, grading and the module actions by one random unitary.
    The rotated plane needs t_1 = t_2, or the data stops being equivariant
    and the two routes disagree.
    """
    if m < 3:
        raise ValueError("the rotated plane and the reflected axis need m >= 3")
    ext = exterior_module(m, "parity")
    t = rng.uniform(0.5, 2.0, size=m)
    t[1] = t[0]
    x = np.zeros((m, m))
    x[0, 1], x[1, 0] = -1.0, 1.0
    dg = np.eye(m)
    dg[-1, -1] = -1.0
    u = _random_unitary(rng, ext.dim)

    def conj(mat, hermitian: bool):
        # Exact real (Hermitian) or imaginary (skew) diagonals keep the
        # number-versus-[re, im] layout of the file independent of the seed.
        a = u @ mat @ u.conj().T
        return (a + a.conj().T) / 2 if hermitian else (a - a.conj().T) / 2

    module = explicit_module([conj(c, False) for c in ext.c], conj(ext.grading, True))
    z = tuple(conj(t[j] * clifford_hat(np.eye(m)[j], m), True) for j in range(m))
    holonomy = HolonomyGroup(
        m=m,
        infinitesimal=((x, conj(derived_exterior_action(x), False)),),
        components=((dg, conj(exterior_rep(dg), True)),),
    )
    closure = ClosureDatum(name=f"rotated_m{m}", module=module, z=z, holonomy=holonomy)
    return scenario_to_dict(ScenarioModel(name=f"rotated_m{m}", codimension=m,
                                          closures=(closure,), expected_index=1))


def scaling_scenario(m: int, k: int, rng: np.random.Generator) -> dict:
    """Exterior closure with hat_linear Z_j = t_j chat(e_j), trivial holonomy, index 1."""
    scales = rng.uniform(0.5, 2.0, size=m)
    return {
        "name": f"scaling_m{m}_{k}",
        "codimension": m,
        "expected_index": 1,
        "closures": [{
            "name": f"scaling_m{m}_{k}",
            "normal_dim": m,
            "module": {"kind": "exterior", "grading": "parity"},
            "perturbation": {"kind": "hat_linear",
                             "coefficients": [[float(s), j + 1] for j, s in enumerate(scales)]},
            "holonomy": {"kind": "trivial"},
        }],
    }


def zero_free_scenario(rng: np.random.Generator) -> dict:
    """Circle model with the constant, nowhere-vanishing Z = a sigma_x, a in [0.5, 2]."""
    a = float(rng.uniform(0.5, 2.0))
    return {
        "name": "zero_free",
        "codimension": 1,
        "closures": [],
        "circle_model": {
            "fiber_dim": 2,
            "symbol": [[0.0, -1.0], [1.0, 0.0]],
            "grading": [[1.0, 0.0], [0.0, -1.0]],
            "perturbation": {"terms": [{"harmonic": 0, "cos": [[0.0, a], [a, 0.0]]}]},
        },
    }
