"""Exterior-algebra Clifford modules and the matrix operators acting on them.

The complexified exterior algebra of R^m is represented on C^(2^m) in bitmask
order: the basis element for a subset S of {1..m} is dx_{i1} ^ ... ^ dx_{ik}
with i1 < ... < ik, stored at position sum_{i in S} 2^(i-1).  Position 0 is
the scalar 1 and position 2^m - 1 is the volume form.  Each c(e_a), chat(e_a),
dx_a ^ and grading is a (partial) signed permutation of this basis: one
monomial builder, _letters, writes them as index arrays, and the public
builders return its dense views, plain complex numpy matrices.

Sign conventions: c(e)^2 = -1 and chat(e)^2 = +1; wedge_op(j) is left
multiplication by dx_j, so reordering signs follow from antisymmetry
(wedge_op(2) @ dx_1 = dx_2 ^ dx_1 = -dx_1 ^ dx_2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _concat, _dense_adjoint_norms, _dense_norms, _Monomial, _product, _read_only

Array = np.ndarray


def _degree_signs(m: int) -> Array:
    """(-1)^(form degree) of each basis element of Lambda*(R^m)."""
    return np.prod(1 - 2 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1), axis=1)


def _letters(m: int, axes, signs, wedge: int = 1) -> _Monomial:
    """wedge dx_a ^ + sign dx_a -| on Lambda*(R^m) for each letter a of axes and its sign
    (c(e_a): 1, -1; chat(e_a): 1, 1; wedge_op: 1, 0; contract_op: 0, 1).  Row s holds
    (-1)^#{i in s : i < a} times wedge (a in s) or sign (a not in s) at column s ^ bit(a)."""
    s = np.arange(1 << m)
    bits = (1 << (np.asarray(axes, dtype=np.int64) - 1))[:, None]
    vals = _degree_signs(m)[s & (bits - 1)] * np.where(s & bits, wedge, np.reshape(signs, (-1, 1)))
    return _Monomial(s ^ bits, vals.astype(complex))


def wedge_op(j: int, m: int) -> Array:
    """Matrix of left exterior multiplication dx_j ^ (.) on Lambda*(R^m).

    Maps the basis element for S to (-1)^(#{i in S : i < j}) times the
    element for S | {j}, and to zero when j is already in S.
    """
    if not 1 <= j <= m:
        raise IndexError(f"generator index {j} out of range 1..{m}")
    return _letters(m, [j], 0).dense()[0]


def contract_op(j: int, m: int) -> Array:
    """Interior product dx_j -| (.), the adjoint of wedge_op(j, m)."""
    return wedge_op(j, m).conj().T


def _combination(v: Array, m: int, sign: int) -> Array:
    """sum_j v_j (dx_j^ + sign dx_j-|) as a dense matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"expected a real {m}-vector, got shape {v.shape}")
    form = _letters(m, np.arange(1, m + 1), sign)
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    out[np.arange(1 << m), form.cols] += v[:, None] * form.vals  # disjoint supports
    return out


def clifford_c(v: Array, m: int) -> Array:
    """Clifford action c(v) = sum_j v_j (dx_j^ - dx_j-|); c(v)^2 = -|v|^2."""
    return _combination(v, m, -1)


def clifford_hat(v: Array, m: int) -> Array:
    """Anti-action chat(v) = sum_j v_j (dx_j^ + dx_j-|); chat(v)^2 = +|v|^2.

    chat(u) anticommutes with every c(v).
    """
    return _combination(v, m, 1)


def parity_grading(m: int) -> Array:
    """Involution (-1)^(form degree) on Lambda*(R^m)."""
    return np.diag(_degree_signs(m).astype(complex))


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
    wedges = [_combination(g[:, j], m, 0) for j in range(m)]  # sum_i g_ij wedge_op(i + 1)
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
    letters, (i, j) = range(1, m + 1), np.nonzero(x)
    terms = _product(_concat(_letters(m, letters, 0), _letters(m, letters, 1, wedge=0)), i, m + j)
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    np.add.at(out, (np.arange(1 << m), terms.cols), x[i, j][:, None] * terms.vals)  # term order
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
    anticommuting with every c_j.  Both read ops: dense, or for an exterior
    module a monomial stack that the engine reads as it is and that c and
    grading make dense on each read, keeping nothing.
    """

    m: int
    dim: int
    ops: tuple[Array, ...] | _Monomial  # the stack (c_1, ..., c_m, grading)
    grading_kind: str = "explicit"  # "parity" | "chirality" | "explicit"
    exterior: ExteriorStructure | None = None

    @property
    def c(self) -> tuple[Array, ...]:
        return tuple(self.ops[k] for k in range(self.m))

    @property
    def grading(self) -> Array:
        return self.ops[self.m]

    def validate(self, tol: float = 1e-9) -> list[str]:
        """Return a list of invariant violations (empty when the module is valid).

        The checks are the rows of _module_rows, walked by the dense product
        kernel and read by _module_report.  validate_closure runs the same
        rows at the head of its closure plan, with either product kernel.
        """
        problems = _shape_problems(self)
        if problems:
            return problems
        *rows, signs = _module_rows(self.m)
        mats = list(self.ops)
        viol = _dense_norms(mats, *rows)[0].tolist()
        return _module_report(self.m, viol, _dense_adjoint_norms(mats, signs).tolist(), tol)


def _shape_problems(mod: CliffordModule) -> list[str]:
    problems = []
    if isinstance(mod.ops, _Monomial):  # built square, m generators and a grading
        return problems
    if len(mod.c) != mod.m:
        problems.append(f"expected {mod.m} generators, found {len(mod.c)}")
    for j, cj in enumerate(mod.c, start=1):
        if cj.shape != (mod.dim, mod.dim):
            problems.append(f"c_{j} has shape {cj.shape}, expected {(mod.dim, mod.dim)}")
    if mod.grading.shape != (mod.dim, mod.dim):
        problems.append(f"grading has shape {mod.grading.shape}")
    return problems


@functools.lru_cache(maxsize=None)
def _module_rows(m: int) -> tuple[Array, ...]:
    """The module checks as an index plan over the stack (c_1..c_m, eps): rows
    (a, b, wp, wq, lam, ref) of wp a b + wq b a + lam I, namely
    c_j c_k + c_k c_j + 2 delta_jk I (j <= k), then eps c_j + c_j eps, then
    eps eps - I, with no ref (-1); and the signs of c_j + c_j^H and
    eps - eps^H.  The closure plan (local_index._closure_rows) starts with
    these rows."""
    gen, eps = np.arange(m), np.full(m, m)
    j, k = np.triu_indices(m)
    ones = np.ones(len(j) + m)
    return _read_only(np.concatenate([j, eps, [m]]), np.concatenate([k, gen, [m]]),
                      np.append(ones, 1.0), np.append(ones, 0.0),
                      np.concatenate([np.where(j == k, 2.0, 0.0), np.zeros(m), [-1.0]]),
                      np.full(len(j) + m + 1, -1), np.append(np.ones(m), -1.0))


def _module_report(m: int, viol: list[float], adjoint: list[float], tol: float) -> list[str]:
    """validate's problems from the norms of _module_rows' rows (viol) and of
    c_1 + c_1^H, ..., c_m + c_m^H, eps - eps^H (adjoint)."""
    n = m * (m + 1) // 2
    pairs = [(j, k) for j in range(m) for k in range(j, m)]  # np.triu_indices(m) order
    problems = [f"c_{i + 1} is not skew-Hermitian" for i in range(m) if adjoint[i] > tol]
    problems += [f"Clifford relation fails for (c_{j + 1}, c_{k + 1})"
                 for (j, k), v in zip(pairs, viol) if v > tol]
    if adjoint[m] > tol:
        problems.append("grading is not Hermitian")
    if viol[n + m] > tol:
        problems.append("grading is not an involution")
    problems += [f"c_{i + 1} is not odd with respect to the grading"
                 for i in range(m) if viol[n + i] > tol]
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
    c = _letters(ambient, axes, -1)
    if grading == "parity":
        eps = _Monomial(np.arange(1 << ambient)[None], _degree_signs(ambient)[None] + 0j)
    elif grading == "chirality":
        if m % 2:
            raise ValueError("chirality is central for odd m and cannot grade the module")
        cols, vals = np.arange(1 << ambient), np.full(1 << ambient, 1j ** (m // 2))
        for cj, vj in zip(c.cols, c.vals):  # i^(m/2) c_1 ... c_m, one product at a time
            cols, vals = cj[cols], vals * vj[cols]
        eps = _Monomial(cols[None], vals[None] + 0.0)  # + 0.0: no -0.0 parts, as in dense products
    else:
        raise ValueError(f"unknown grading kind {grading!r}")
    return CliffordModule(m=m, dim=1 << ambient, ops=_concat(c, eps), grading_kind=grading,
                          exterior=ExteriorStructure(ambient_m=ambient, generator_axes=axes))


def explicit_module(c: list[Array], grading: Array) -> CliffordModule:
    """Wrap explicitly given generator matrices and grading as a module."""
    if not c:
        raise ValueError("at least one generator matrix is required")
    ops = _read_only(*(np.ascontiguousarray(a, dtype=complex) for a in [*c, grading]))
    return CliffordModule(m=len(c), dim=ops[0].shape[0], ops=ops)
