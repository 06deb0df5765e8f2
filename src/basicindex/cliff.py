"""Exterior-algebra Clifford modules and the matrix operators acting on them.

The complexified exterior algebra of R^m is represented on C^(2^m) in bitmask
order: the basis element for a subset S of {1..m} is dx_{i1} ^ ... ^ dx_{ik}
with i1 < ... < ik, stored at position sum_{i in S} 2^(i-1).  Position 0 is
the scalar 1 and position 2^m - 1 is the volume form.  All operators below
are plain complex numpy matrices in this basis.

Sign conventions: c(e)^2 = -1 and chat(e)^2 = +1; wedge_op(j) is left
multiplication by dx_j, so reordering signs follow from antisymmetry
(wedge_op(2) @ dx_1 = dx_2 ^ dx_1 = -dx_1 ^ dx_2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _frozen(a: Array) -> Array:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def wedge_op(j: int, m: int) -> Array:
    """Matrix of left exterior multiplication dx_j ^ (.) on Lambda*(R^m).

    Maps the basis element for S to (-1)^(#{i in S : i < j}) times the
    element for S | {j}, and to zero when j is already in S.
    """
    if not 1 <= j <= m:
        raise IndexError(f"generator index {j} out of range 1..{m}")
    dim = 1 << m
    bit = 1 << (j - 1)
    w = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        if s & bit:
            continue
        sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
        w[s | bit, s] = sign
    return w


def contract_op(j: int, m: int) -> Array:
    """Interior product dx_j -| (.), the adjoint of wedge_op(j, m)."""
    return wedge_op(j, m).conj().T


def clifford_c(v: Array, m: int) -> Array:
    """Clifford action c(v) = sum_j v_j (dx_j^ - dx_j-|); c(v)^2 = -|v|^2."""
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"expected a real {m}-vector, got shape {v.shape}")
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for j in range(m):
        if v[j] != 0.0:
            w = wedge_op(j + 1, m)
            out += v[j] * (w - w.conj().T)
    return out


def clifford_hat(v: Array, m: int) -> Array:
    """Anti-action chat(v) = sum_j v_j (dx_j^ + dx_j-|); chat(v)^2 = +|v|^2.

    chat(u) anticommutes with every c(v).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"expected a real {m}-vector, got shape {v.shape}")
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for j in range(m):
        if v[j] != 0.0:
            w = wedge_op(j + 1, m)
            out += v[j] * (w + w.conj().T)
    return out


def parity_grading(m: int) -> Array:
    """Involution (-1)^(form degree) on Lambda*(R^m)."""
    dim = 1 << m
    eps = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        eps[s, s] = -1.0 if bin(s).count("1") % 2 else 1.0
    return eps


def exterior_rep(g: Array) -> Array:
    """Functorial unitary action of an orthogonal matrix g on Lambda*(R^m).

    For orthogonal g the induced map on covectors is g itself; the action
    extends multiplicatively to all form degrees, giving a unitary group
    homomorphism.
    """
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    if g.shape != (m, m):
        raise ValueError("g must be square")
    if np.linalg.norm(g.T @ g - np.eye(m)) > 1e-9:
        raise ValueError("g is not orthogonal within tolerance")
    dim = 1 << m
    wedges = [sum(g[i, j] * wedge_op(i + 1, m) for i in range(m)) for j in range(m)]
    rep = np.zeros((dim, dim), dtype=complex)
    rep[0, 0] = 1.0
    # column for S = e_min(S) ^ e_(S minus its lowest index), filled in
    # increasing bitmask order so the smaller subset is already done
    for s in range(1, dim):
        low = (s & -s).bit_length() - 1
        rep[:, s] = wedges[low] @ rep[:, s & (s - 1)]
    return rep


def derived_exterior_action(x: Array) -> Array:
    """Leibniz extension of a skew matrix x to Lambda*(R^m).

    Equals d/dt|_0 exterior_rep(exp(t x)); realized as
    sum_{i,j} x_ij wedge_op(i) contract_op(j).
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if x.shape != (m, m):
        raise ValueError("x must be square")
    if np.linalg.norm(x + x.T) > 1e-9:
        raise ValueError("x is not skew-symmetric within tolerance")
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(m):
        wi = wedge_op(i + 1, m)
        for j in range(m):
            if x[i, j] != 0.0:
                out += x[i, j] * (wi @ contract_op(j + 1, m))
    return out


@dataclass(frozen=True)
class ExteriorStructure:
    """Marks a module as Lambda*(R^ambient_m) with chosen generator letters."""

    ambient_m: int
    generator_axes: tuple[int, ...]  # 1-based letters carrying the c_j


@dataclass(frozen=True)
class CliffordModule:
    """A finite-dimensional complex Clifford module with a grading.

    c holds the m skew-Hermitian generator matrices with
    c_j c_k + c_k c_j = -2 delta_jk, and grading is a Hermitian involution
    anticommuting with every c_j.
    """

    m: int
    dim: int
    c: tuple[Array, ...]
    grading: Array
    grading_kind: str = "explicit"  # "parity" | "chirality" | "explicit"
    exterior: ExteriorStructure | None = None

    def validate(self, tol: float = 1e-9) -> list[str]:
        """Return a list of invariant violations (empty when the module is valid)."""
        problems = []
        if len(self.c) != self.m:
            problems.append(f"expected {self.m} generators, found {len(self.c)}")
        for j, cj in enumerate(self.c, start=1):
            if cj.shape != (self.dim, self.dim):
                problems.append(f"c_{j} has shape {cj.shape}, expected {(self.dim, self.dim)}")
        if self.grading.shape != (self.dim, self.dim):
            problems.append(f"grading has shape {self.grading.shape}")
        if problems:
            return problems
        eye = np.eye(self.dim)
        for j, cj in enumerate(self.c, start=1):
            if np.linalg.norm(cj + cj.conj().T) > tol:
                problems.append(f"c_{j} is not skew-Hermitian")
        for j in range(self.m):
            for k in range(j, self.m):
                anti = self.c[j] @ self.c[k] + self.c[k] @ self.c[j]
                target = -2.0 * eye if j == k else 0.0
                if np.linalg.norm(anti - target) > tol:
                    problems.append(f"Clifford relation fails for (c_{j + 1}, c_{k + 1})")
        eps = self.grading
        if np.linalg.norm(eps - eps.conj().T) > tol:
            problems.append("grading is not Hermitian")
        if np.linalg.norm(eps @ eps - eye) > tol:
            problems.append("grading is not an involution")
        for j, cj in enumerate(self.c, start=1):
            if np.linalg.norm(eps @ cj + cj @ eps) > tol:
                problems.append(f"c_{j} is not odd with respect to the grading")
        return problems


def exterior_module(
    m: int,
    grading: str = "parity",
    ambient_m: int | None = None,
    generator_axes: tuple[int, ...] | None = None,
) -> CliffordModule:
    """Build the exterior-algebra Clifford module Lambda*(R^ambient_m).

    The module carries m generators c_j = c(e_axis) for the chosen letters
    (defaults: ambient_m = m, axes = 1..m).  grading is "parity" or
    "chirality"; chirality requires even m.
    """
    ambient = m if ambient_m is None else ambient_m
    axes = tuple(range(1, m + 1)) if generator_axes is None else tuple(generator_axes)
    if len(axes) != m or len(set(axes)) != m:
        raise ValueError("generator_axes must be m distinct letters")
    if any(not 1 <= a <= ambient for a in axes):
        raise ValueError(f"generator_axes must lie in 1..{ambient}")
    dim = 1 << ambient
    c = tuple(
        _frozen(clifford_c(np.eye(ambient)[a - 1], ambient)) for a in axes
    )
    if grading == "parity":
        eps = parity_grading(ambient)
    elif grading == "chirality":
        if m % 2:
            raise ValueError("chirality is central for odd m and cannot grade the module")
        k = m // 2
        eps = np.eye(dim, dtype=complex) * (1j**k)
        for cj in c:
            eps = eps @ cj
    else:
        raise ValueError(f"unknown grading kind {grading!r}")
    return CliffordModule(
        m=m,
        dim=dim,
        c=c,
        grading=_frozen(eps),
        grading_kind=grading,
        exterior=ExteriorStructure(ambient_m=ambient, generator_axes=axes),
    )


def explicit_module(c: list[Array], grading: Array) -> CliffordModule:
    """Wrap explicitly given generator matrices and grading as a module."""
    if not c:
        raise ValueError("at least one generator matrix is required")
    cs = tuple(_frozen(np.asarray(a, dtype=complex)) for a in c)
    dim = cs[0].shape[0]
    return CliffordModule(
        m=len(cs),
        dim=dim,
        c=cs,
        grading=_frozen(np.asarray(grading, dtype=complex)),
        grading_kind="explicit",
        exterior=None,
    )
