"""Independent reference computations used to pin expected values.

Everything here is brute force or closed form and deliberately bypasses the
package's own circuit machinery wherever it is the thing under test.
"""

import itertools
import math

import numpy as np

from teleclone.simulator import gate_matrix


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


def apply_1q(psi, mat, q, n):
    """Apply ``mat`` to qubit ``q`` of a state over ``n`` qubits, in place,
    gate by gate. A contiguous (2^n, k) block holds k states, one per
    column, and every column transforms alike (so for :func:`apply_cx`)."""
    view = psi.reshape(1 << q, 2, -1)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
    view[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b
    return psi


def apply_cx(psi, c, t, n):
    lo, hi = (c, t) if c < t else (t, c)
    view = psi.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    if c < t:
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp
    else:
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp
    return psi


def apply_unitary(psi, ins, n):
    if ins.gate == "cx":
        return apply_cx(psi, ins.qubits[0], ins.qubits[1], n)
    return apply_1q(psi, gate_matrix(ins), ins.qubits[0], n)


def enumerate_branches(circuit):
    """Run all measurement branches of a compacted circuit exactly, gate by
    gate on dense states, cond bodies included. Returns a list of (clbits
    tuple, unnormalized statevector); weights are the norms squared, and a
    branch of zero weight is dropped."""
    n = circuit.num_qubits
    branches = [((0,) * circuit.num_clbits, basis_state(n, [0] * n))]
    for ins in circuit.instructions:
        if ins.gate == "measure":
            q, c = ins.qubits[0], ins.clbit
            split = []
            for bits, psi in branches:
                for outcome in (0, 1):
                    proj = psi.copy()
                    proj.reshape(1 << q, 2, -1)[:, 1 - outcome, :] = 0.0
                    if np.vdot(proj, proj).real > 1e-24:
                        split.append((bits[:c] + (outcome,) + bits[c + 1:], proj))
            branches = split
        elif ins.gate != "barrier":
            for bits, psi in branches:
                if ins.gate != "cond" or bits[ins.cond_clbit] == ins.cond_value:
                    for sub in ins.body if ins.gate == "cond" else (ins,):
                        apply_unitary(psi, sub, n)
    return branches


def embed(op, qubits, n):
    """The 2^n x 2^n matrix of the k-qubit ``op`` on ``qubits`` (its first
    index bit on qubits[0]), the identity on every other qubit."""
    k = len(qubits)
    full = np.kron(op, np.eye(1 << (n - k))).reshape((2,) * (2 * n))
    perm = list(np.argsort(list(qubits) + [q for q in range(n) if q not in qubits]))
    return full.transpose(perm + [n + p for p in perm]).reshape(1 << n, 1 << n)


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))


def kraus_apply(rho, kraus, qubits, n):
    """sum_K K rho K^dagger with each K embedded on ``qubits``."""
    out = np.zeros_like(rho, dtype=complex)
    for K in kraus:
        full = embed(K, qubits, n)
        out += full @ rho @ full.conj().T
    return out


def depolarize(rho, p, qubits, n):
    """(1 - p) rho + p (the state with ``qubits`` replaced by I/2^k)."""
    paulis = [np.kron(a, b) for a in PAULIS for b in PAULIS] if len(qubits) == 2 \
        else PAULIS
    mixed = kraus_apply(rho, paulis, qubits, n) / len(paulis)
    return (1 - p) * rho + p * mixed


def damp(rho, gamma, q, n):
    kraus = [np.diag([1.0, math.sqrt(1 - gamma)]),
             np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]
    return kraus_apply(rho, kraus, [q], n)


def noisy_gate(rho, ins, noise, n):
    """A full 2^n x 2^n density matrix after one gate and the noise that
    follows it: the gate; depolarizing on its qubits jointly, none after rz,
    depolarizing_2q after cx and depolarizing_1q after every other gate;
    then amplitude damping on each of its qubits in turn, none after rz."""
    rho = kraus_apply(rho, [gate_matrix(ins)], list(ins.qubits), n)
    if ins.gate == "rz":
        return rho
    p = noise.depolarizing_2q if ins.gate == "cx" else noise.depolarizing_1q
    rho = depolarize(rho, p, list(ins.qubits), n)
    for q in ins.qubits:
        rho = damp(rho, noise.amplitude_damping_idle or 0.0, q, n)
    return rho


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
    r = np.asarray(message_bloch, dtype=float) * eta
    return 0.5 * (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3])


def mle_grid_oracle(counts, shots, resolution=1e-3):
    """Maximize the multinomial likelihood over the Bloch ball by search.

    The log likelihood is separable across Bloch components, so the interior
    optimum is exactly linear inversion; if that is outside the ball the
    optimum lies on the sphere and is located on an angle grid at the given
    resolution. The search scores every ``step``-th angle of that grid (a
    0.02 rad lattice), then every grid point within ``step`` angles of the
    best eight lattice points; it returns the best grid point it scored.
    """
    n0 = np.array([counts[b][0] for b in ("x", "y", "z")], dtype=float)
    n1 = np.array([counts[b][1] for b in ("x", "y", "z")], dtype=float)
    r_li = (n0 - n1) / shots
    if np.linalg.norm(r_li) <= 1.0:
        return r_li
    thetas = np.arange(0.0, math.pi + resolution, resolution)
    phis = np.arange(0.0, 2 * math.pi + resolution, resolution)
    edge = 1.0 - 1e-9

    def score(i, j):
        """The Bloch vectors at grid points (thetas[i], phis[j]) and their
        log likelihoods."""
        r = np.stack(np.broadcast_arrays(np.sin(thetas[i]) * np.cos(phis[j]),
                                         np.sin(thetas[i]) * np.sin(phis[j]),
                                         np.cos(thetas[i])))
        c = np.clip(r, -edge, edge)
        return r, sum(a * np.log1p(c[k]) + b * np.log1p(-c[k])
                      for k, (a, b) in enumerate(zip(n0, n1)))

    step = max(1, round(0.02 / resolution))
    i, j = np.arange(0, thetas.size, step), np.arange(0, phis.size, step)
    top = np.argsort(score(i[:, None], j[None, :])[1].ravel())[-8:]
    near = np.arange(-step, step + 1)
    i, j = np.broadcast_arrays(i[top // j.size, None, None] + near[:, None],
                               j[top % j.size, None, None] + near)
    inside = (i >= 0) & (i < thetas.size) & (j >= 0) & (j < phis.size)
    i, j = np.divmod(np.unique(i[inside] * phis.size + j[inside]), phis.size)
    r, ll = score(i, j)
    return r[:, np.argmax(ll)]


def trace_distance(rho1, rho2):
    vals = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.abs(vals).sum())


def random_density_matrix(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
