"""Holonomy group actions at a critical leaf closure and their invariants.

A group is specified by generators, never by element lists: infinitesimal
generators are pairs (skew matrix on the normal slice, skew-Hermitian module
matrix), discrete-component generators are pairs (orthogonal matrix, unitary
module matrix).  Invariant vectors are kernels of the stacked generators;
this computes fixed spaces of tori and finite groups uniformly and exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliff import CliffordModule, derived_exterior_action, exterior_rep
from .linalg import LinalgError, nullspace

Array = np.ndarray
INTERSECTION_TOL = 1e-8  # the least leak floor of invariant_dim_in


class NotInvariantError(ValueError):
    """A subspace claimed to be holonomy-invariant is not (corrupt input data)."""


@dataclass(frozen=True)
class HolonomyGroup:
    """Generators of the holonomy action H on R^m and on the module."""

    m: int
    infinitesimal: tuple[tuple[Array, Array], ...]  # (X skew, drho(X))
    components: tuple[tuple[Array, Array], ...]  # (dg orthogonal, rho(g))

    @property
    def trivial(self) -> bool:
        return not self.infinitesimal and not self.components

    @staticmethod
    def trivial_group(m: int) -> "HolonomyGroup":
        return HolonomyGroup(m=m, infinitesimal=(), components=())

    def validate(self, module_dim: int, tol: float = 1e-9) -> list[str]:
        """Return invariant violations: slice matrices skew/orthogonal, module
        matrices skew-Hermitian/unitary, dimensions consistent."""
        problems = []
        for i, (x, dx) in enumerate(self.infinitesimal):
            if x.shape != (self.m, self.m):
                problems.append(f"infinitesimal[{i}] slice matrix has shape {x.shape}")
            elif np.linalg.norm(x + x.T) > tol * max(1.0, np.linalg.norm(x)):
                problems.append(f"infinitesimal[{i}] slice matrix is not skew")
            if dx.shape != (module_dim, module_dim):
                problems.append(f"infinitesimal[{i}] module matrix has shape {dx.shape}")
            elif np.linalg.norm(dx + dx.conj().T) > tol * max(1.0, np.linalg.norm(dx)):
                problems.append(f"infinitesimal[{i}] module matrix is not skew-Hermitian")
        eye_m = np.eye(self.m)
        for i, (dg, rho) in enumerate(self.components):
            if dg.shape != (self.m, self.m):
                problems.append(f"components[{i}] slice matrix has shape {dg.shape}")
            elif np.linalg.norm(dg.T @ dg - eye_m) > tol:
                problems.append(f"components[{i}] slice matrix is not orthogonal")
            if rho.shape != (module_dim, module_dim):
                problems.append(f"components[{i}] module matrix has shape {rho.shape}")
            elif np.linalg.norm(rho.conj().T @ rho - np.eye(module_dim)) > tol:
                problems.append(f"components[{i}] module matrix is not unitary")
        return problems


def _embed_slice(mat: Array, module: CliffordModule, identity_elsewhere: bool) -> Array:
    """Embed an m x m slice matrix into the module's ambient letter space."""
    ext = module.exterior
    axes = [a - 1 for a in ext.generator_axes]
    out = np.eye(ext.ambient_m) if identity_elsewhere else np.zeros((ext.ambient_m, ext.ambient_m))
    out[np.ix_(axes, axes)] = mat
    return out


def derive_component_action(module: CliffordModule, dg: Array) -> Array:
    """Module matrix of a component generator on an exterior module."""
    if module.exterior is None:
        raise LinalgError("derive-from-exterior requires an exterior-algebra module")
    return exterior_rep(_embed_slice(np.asarray(dg, dtype=float), module, True))


def derive_infinitesimal_action(module: CliffordModule, x: Array) -> Array:
    """Module matrix of an infinitesimal generator on an exterior module."""
    if module.exterior is None:
        raise LinalgError("derive-from-exterior requires an exterior-algebra module")
    return derived_exterior_action(_embed_slice(np.asarray(x, dtype=float), module, False))


def invariant_dim_in(group: HolonomyGroup, basis: Array, tol: float = 1e-9) -> int:
    """Dimension of the fixed vectors of the group action inside the span of
    basis, whose columns are orthonormal.

    The fixed space of the generators is the fixed space of the group they
    generate, and the kernel of Lie-algebra generators is the kernel of the
    generated algebra, so stacking the restricted generators suffices.
    The span must be group-invariant; a generator a that moves it by more than
    max(tol, INTERSECTION_TOL) max(1, ||a||) raises NotInvariantError naming
    it, since genuine foliation data guarantees invariance and a violation
    means the scenario data is inconsistent.
    """
    dim = basis.shape[1]
    if group.trivial or dim == 0:
        return dim
    actions = [("components", i, rho) for i, (_, rho) in enumerate(group.components)]
    actions += [("infinitesimal", i, dx) for i, (_, dx) in enumerate(group.infinitesimal)]
    rows = []
    for kind, i, a in actions:
        act = a @ basis
        restricted = basis.conj().T @ act
        leak = np.linalg.norm(act - basis @ restricted)
        if leak > max(tol, INTERSECTION_TOL) * max(1.0, np.linalg.norm(a)):
            raise NotInvariantError(
                f"subspace not H-invariant: {kind}[{i}] leaks {leak:.3e} outside the subspace")
        rows.append(restricted - np.eye(dim) if kind == "components" else restricted)
    return nullspace(np.vstack(rows), tol)


def check_equivariance(group: HolonomyGroup, module: CliffordModule,
                       z: tuple[Array, ...]) -> float:
    """Diagnostic check that the group action intertwines c_j and Z_j.

    For a component (dg, rho): rho c_j rho^-1 = sum_k dg_kj c_k and likewise
    for Z; for an infinitesimal (X, dX) the bracket analogue
    [dX, c_j] = sum_k X_kj c_k.  Returns the worst violation over all
    generators and rules, 0.0 for the trivial group; non-equivariant data
    still computes elsewhere, this only reports.
    """
    m = module.m

    def worst(act, mat: Array) -> float:
        return max(float(np.linalg.norm(act(ops[j]) - sum(mat[k, j] * ops[k] for k in range(m))))
                   for ops in (module.c, z) for j in range(m))

    violations = [worst(lambda a: rho @ a @ rho.conj().T, dg) for dg, rho in group.components]
    violations += [worst(lambda a: dx @ a - a @ dx, x) for x, dx in group.infinitesimal]
    return max(violations, default=0.0)
