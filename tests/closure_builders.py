"""Programmatic closure fixtures mirroring the bundled corpus, built straight
from the matrix constructors so scenario parsing stays out of engine tests."""

import numpy as np

from basicindex import (
    ClosureDatum,
    HolonomyGroup,
    clifford_c,
    clifford_hat,
    derived_exterior_action,
    explicit_module,
    exterior_module,
    exterior_rep,
)
from basicindex.holonomy import derive_infinitesimal_action

ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def so2_group(module):
    return HolonomyGroup(
        m=2,
        infinitesimal=((ROT2, derive_infinitesimal_action(module, ROT2)),),
        components=(),
    )


def sphere_closure(pole):
    """Rotation-suspension datum at a pole; pole is 'north' or 'south'."""
    sign = -1.0 if pole == "north" else 1.0
    module = exterior_module(2, "parity")
    z = (sign * clifford_hat([1.0, 0.0], 2), sign * clifford_hat([0.0, 1.0], 2))
    return ClosureDatum(name=f"{pole}_pole", module=module, z=z,
                        holonomy=so2_group(module))


def carriere_closure(which):
    """Hyperbolic-torus datum; which is 'quarter' or 'three_quarters'."""
    sign = -1.0 if which == "quarter" else 1.0
    module = exterior_module(1, "parity", ambient_m=2, generator_axes=(2,))
    z = (sign * 2.0 * np.pi * clifford_hat([0.0, 1.0], 2),)
    return ClosureDatum(name=f"t_{which}", module=module, z=z,
                        holonomy=HolonomyGroup.trivial_group(1))


def torus_group(module):
    x1 = np.zeros((4, 4))
    x1[:2, :2] = ROT2
    x2 = np.zeros((4, 4))
    x2[2:, 2:] = ROT2
    return HolonomyGroup(
        m=4,
        infinitesimal=tuple((x, derive_infinitesimal_action(module, x)) for x in (x1, x2)),
        components=(),
    )


def cp2_closure(alpha, beta, name="fixed_point"):
    """Transverse-signature datum with weight differences alpha, beta."""
    module = exterior_module(4, "chirality")
    e = np.eye(4)
    z = (
        alpha * 1j * clifford_c(e[1], 4),
        -alpha * 1j * clifford_c(e[0], 4),
        beta * 1j * clifford_c(e[3], 4),
        -beta * 1j * clifford_c(e[2], 4),
    )
    return ClosureDatum(name=name, module=module, z=z, holonomy=torus_group(module))


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_closure(m, rng):
    """Exterior datum with Z_j = t_j chat(e_j), written in a random unitary basis."""
    ext = exterior_module(m, "parity")
    u = random_unitary(rng, ext.dim)

    def conj(a):
        return u @ a @ u.conj().T

    t = rng.uniform(0.5, 2.0, size=m)
    z = tuple(conj(t[j] * clifford_hat(np.eye(m)[j], m)) for j in range(m))
    module = explicit_module([conj(c) for c in ext.c], conj(ext.grading))
    return ClosureDatum(f"rotated_m{m}", module, z, HolonomyGroup.trivial_group(m))


def hat_closure(m, scales):
    """Exterior parity datum with Z_j = scales[j] chat(e_j) and trivial holonomy."""
    module = exterior_module(m, "parity")
    z = tuple(s * clifford_hat(np.eye(m)[j], m) for j, s in enumerate(scales))
    return ClosureDatum(f"hat_m{m}", module, z, HolonomyGroup.trivial_group(m))


def reflected_closure():
    """Exterior m = 3 datum with Z_j = t_j chat(e_j) and t_1 = t_2, an SO(2) generator
    on (e_1, e_2) and a component reflecting e_3, each with its derived module action."""
    d = hat_closure(3, [1.3, 1.3, 0.7])
    x = np.zeros((3, 3))
    x[:2, :2] = ROT2
    dg = np.diag([1.0, 1.0, -1.0])
    return ClosureDatum("reflected_m3", d.module, d.z,
                        HolonomyGroup(3, ((x, derived_exterior_action(x)),),
                                      ((dg, exterior_rep(dg)),)))


def conjugated(d, u):
    """d written in the basis u: every module matrix a becomes u a u^H."""
    def conj(a):
        return u @ a @ u.conj().T

    hol = d.holonomy
    return ClosureDatum(
        d.name, explicit_module([conj(c) for c in d.module.c], conj(d.module.grading)),
        tuple(conj(z) for z in d.z),
        HolonomyGroup(hol.m, tuple((x, conj(dx)) for x, dx in hol.infinitesimal),
                      tuple((g, conj(rho)) for g, rho in hol.components)))


# --- per-basis-element reference builders: the original dense loops, kept as an
# oracle for the monomial builder behind the public dense ones ---

def reference_wedge_op(j, m):
    """dx_j ^ (.) on Lambda*(R^m), one basis element at a time."""
    dim = 1 << m
    bit = 1 << (j - 1)
    w = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        if s & bit:
            continue
        sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
        w[s | bit, s] = sign
    return w


def reference_clifford(v, m, hat=False):
    """c(v) = sum_j v_j (w_j - w_j^H), or chat(v) = sum_j v_j (w_j + w_j^H) when hat."""
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for j in range(m):
        if v[j] != 0.0:
            w = reference_wedge_op(j + 1, m)
            out += v[j] * (w + w.conj().T if hat else w - w.conj().T)
    return out


def reference_parity(m):
    dim = 1 << m
    eps = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        eps[s, s] = -1.0 if bin(s).count("1") % 2 else 1.0
    return eps


def reference_exterior(m, grading, ambient, axes):
    """(c_1..c_m, grading) of exterior_module(m, grading, ambient, axes), densely."""
    c = [reference_clifford(np.eye(ambient)[a - 1], ambient) for a in axes]
    if grading == "parity":
        return c, reference_parity(ambient)
    eps = np.eye(1 << ambient, dtype=complex) * (1j ** (m // 2))
    for cj in c:
        eps = eps @ cj
    return c, eps


def reference_exterior_rep(g):
    m, dim = len(g), 1 << len(g)
    wedges = [sum(g[i, j] * reference_wedge_op(i + 1, m) for i in range(m)) for j in range(m)]
    rep = np.zeros((dim, dim), dtype=complex)
    rep[0, 0] = 1.0
    for s in range(1, dim):
        low = (s & -s).bit_length() - 1
        rep[:, s] = wedges[low] @ rep[:, s & (s - 1)]
    return rep


def reference_derived_action(x):
    m, dim = len(x), 1 << len(x)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(m):
        wi = reference_wedge_op(i + 1, m)
        for j in range(m):
            if x[i, j] != 0.0:
                out += x[i, j] * (wi @ reference_wedge_op(j + 1, m).conj().T)
    return out

