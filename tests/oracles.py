"""Independent reference computations used to pin expected values.

Everything here is brute force or closed form and deliberately bypasses the
package's own circuit machinery wherever it is the thing under test.
"""

import itertools
import math

import numpy as np


def basis_state(n, bits):
    v = np.zeros(1 << n, dtype=complex)
    v[int("".join(str(b) for b in bits), 2)] = 1.0
    return v


def staircase_bits(i, m):
    return [1] * i + [0] * (m - i)


def dicke_vector(m, i):
    """Uniform real superposition of all weight-i m-bit strings."""
    v = np.zeros(1 << m, dtype=complex)
    for comb in itertools.combinations(range(m), i):
        v[sum(1 << (m - 1 - q) for q in comb)] = 1.0
    return v / np.linalg.norm(v)


def scs_expected(m, i):
    """Image of |1^i 0^(m-i)> under the split & cyclic shift definition."""
    v = np.zeros(1 << m, dtype=complex)
    keep = staircase_bits(i, m)
    v[int("".join(map(str, keep)), 2)] += math.sqrt((m - i) / m)
    if i >= 1:
        moved = [1] * (i - 1) + [0] * (m - i) + [1]
        v[int("".join(map(str, moved)), 2)] += math.sqrt(i / m)
    return v


def circuit_unitary(circuit, apply_fn, n):
    """Column-by-column unitary of a small measurement-free circuit."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        psi = np.zeros(dim, dtype=complex)
        psi[col] = 1.0
        u[:, col] = apply_fn(psi)
    return u


def ptrace_pure(psi, keep, n):
    """Partial trace of |psi><psi| onto the ordered qubit list ``keep``."""
    keep = list(keep)
    order = keep + [q for q in range(n) if q not in keep]
    mat = np.transpose(psi.reshape((2,) * n), order).reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


def telecloning_state_vector(m):
    """(1/sqrt(M+1)) sum_i |D_i> x |D_i> over (ancilla+port) x clones."""
    acc = np.zeros(1 << (2 * m), dtype=complex)
    for i in range(m + 1):
        acc += np.kron(dicke_vector(m, i), dicke_vector(m, i))
    return acc / math.sqrt(m + 1)


def ideal_clone_rho(message_bloch, m):
    """eta |m><m| + (1 - eta) I/2 with eta = (M+2)/(3M) for one input."""
    eta = (m + 2) / (3 * m)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    r = np.asarray(message_bloch, dtype=float) * eta
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * sx + r[1] * sy + r[2] * sz)


def mle_grid_oracle(counts, shots, resolution=1e-3):
    """Maximize the multinomial likelihood over the Bloch ball by search.

    The log likelihood is separable across Bloch components, so the interior
    optimum is exactly linear inversion; if that is outside the ball the
    optimum lies on the sphere and is located by an angle grid at the given
    resolution.
    """
    n0 = np.array([counts[b][0] for b in ("x", "y", "z")], dtype=float)
    n1 = np.array([counts[b][1] for b in ("x", "y", "z")], dtype=float)
    r_li = (n0 - n1) / shots
    if np.linalg.norm(r_li) <= 1.0:
        return r_li
    thetas = np.arange(0.0, math.pi + resolution, resolution)
    phis = np.arange(0.0, 2 * math.pi + resolution, resolution)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    rx = np.sin(tt) * np.cos(pp)
    ry_ = np.sin(tt) * np.sin(pp)
    rz_ = np.cos(tt)
    edge = 1.0 - 1e-9
    ll = np.zeros_like(tt)
    for comp, (a, b) in zip((rx, ry_, rz_), zip(n0, n1)):
        c = np.clip(comp, -edge, edge)
        ll += a * np.log1p(c) + b * np.log1p(-c)
    flat = np.argmax(ll)
    return np.array([rx.flat[flat], ry_.flat[flat], rz_.flat[flat]])


def trace_distance(rho1, rho2):
    vals = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.abs(vals).sum())


def random_density_matrix(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
