"""Closed-form clone metrics: fidelity, optimal-cloning bound, shrinking
factor, Bloch vectors, concurrence and negativity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SimulationError
from .simulator import _Y

_EIG_CLAMP = 1e-9


@dataclass(frozen=True)
class CloneMetrics:
    fidelity_to_message: float
    bloch: tuple[float, float, float]
    bloch_angle_error: float
    bloch_magnitude: float

    def __post_init__(self):
        if not (-1e-9 <= self.fidelity_to_message <= 1 + 1e-9):
            raise SimulationError("fidelity outside [0, 1]")
        if self.bloch_magnitude > 1 + 1e-9:
            raise SimulationError("Bloch vector longer than 1")


def theoretical_fidelity(n_inputs: int, m_clones: int) -> float:
    """Optimal universal cloning fidelity (MN + M + N) / (M (N + 2))."""
    if not (1 <= n_inputs <= m_clones):
        raise ValueError(f"need 1 <= N <= M, got N={n_inputs}, M={m_clones}")
    n, m = n_inputs, m_clones
    return (m * n + m + n) / (m * (n + 2))  # int / int rounds correctly


def shrinking_factor(n_inputs: int, m_clones: int) -> float:
    """Bloch-vector contraction (N/M)(M+2)/(N+2) of each ideal clone."""
    if not (1 <= n_inputs <= m_clones):
        raise ValueError(f"need 1 <= N <= M, got N={n_inputs}, M={m_clones}")
    n, m = n_inputs, m_clones
    return n * (m + 2) / (m * (n + 2))


def _check_density(rho: np.ndarray):
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise SimulationError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise SimulationError("density matrix must be Hermitian")


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -_EIG_CLAMP:
        raise SimulationError(f"matrix has negative eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """State overlap Tr[sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Single-qubit inputs use the closed form
    Tr(rho1 rho2) + 2 sqrt(det rho1 det rho2); larger systems take the
    matrix-square-root route. Both agree to 1e-10 on single-qubit input.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise SimulationError("density matrix dimension mismatch")
    _check_density(rho1)
    _check_density(rho2)
    if rho1.shape == (2, 2):
        d1 = max(np.linalg.det(rho1).real, 0.0)
        d2 = max(np.linalg.det(rho2).real, 0.0)
        val = np.trace(rho1 @ rho2).real + 2 * math.sqrt(d1 * d2)
        return float(min(max(val, 0.0), 1.0))
    return fidelity_general(rho1, rho2)


def fidelity_general(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Matrix-square-root fidelity, valid for any dimension."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    s = _psd_sqrt(rho1)
    inner = _psd_sqrt(s @ rho2 @ s)
    val = np.trace(inner).real ** 2
    return float(min(max(val, 0.0), 1.0))


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(Tr(rho X), Tr(rho Y), Tr(rho Z)) of a single-qubit state, read off
    its entries: (rho01 + rho10).real, rho10.imag - rho01.imag and
    rho00.real - rho11.real."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise SimulationError("Bloch vector needs a 2x2 density matrix")
    (a, b), (c, d) = rho.tolist()
    r = np.array([(b + c).real, c.imag - b.imag, a.real - d.real])
    if np.linalg.norm(r) > 1 + 1e-9:
        raise SimulationError("Bloch vector longer than 1")
    return r


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) over the square roots
    of the eigenvalues of rho (Y x Y) rho* (Y x Y)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise SimulationError("concurrence is defined for two qubits only")
    yy = np.kron(_Y, _Y)
    rho_tilde = yy @ rho.conj() @ yy
    # eigenvalues of rho rho~ via the Hermitian form sqrt(rho) rho~ sqrt(rho)
    s = _psd_sqrt(rho)
    vals = np.clip(np.linalg.eigvalsh(s @ rho_tilde @ s), 0.0, None)
    if vals.max() > 0:
        # zero out eigenvalue noise before the square root amplifies it
        vals[vals < 1e-12 * vals.max()] = 0.0
    lam = np.sort(np.sqrt(vals))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def negativity(rho: np.ndarray, bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the
    qubits listed in ``bipartition``; lies in [0, 1/2] for two qubits."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = int(round(math.log2(dim)))
    if 1 << n != dim:
        raise SimulationError("density matrix dimension is not a power of two")
    part = sorted(set(bipartition))
    if not part or any(not (0 <= q < n) for q in part):
        raise SimulationError(f"invalid bipartition {bipartition}")
    tensor = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in part:
        perm[q], perm[q + n] = perm[q + n], perm[q]
    pt = np.transpose(tensor, perm).reshape(dim, dim)
    vals = np.linalg.eigvalsh(pt)
    return float(-vals[vals < 0].sum())


def clone_metrics(rho: np.ndarray, message_bloch) -> CloneMetrics:
    """Fidelity and Bloch geometry of one clone against its message state.

    The message is pure, so the general overlap reduces to
    (1 + r_msg . r_clone)/2; computing it that way avoids the square-root
    noise amplification the matrix formula suffers at det ~ 0. The angle
    between the Bloch vectors is atan2(|r x m|, r . m), which stays at
    rounding level near 0, where an arccos of their cosine reads about
    sqrt(ulp).
    """
    m = np.asarray(message_bloch, dtype=float)
    r = bloch_vector(rho)
    mag = float(np.linalg.norm(r))
    if mag < 1e-12 or np.linalg.norm(m) < 1e-12:
        angle = 0.0
    else:
        (rx, ry, rz), (mx, my, mz) = r.tolist(), m.tolist()
        cross = math.hypot(ry * mz - rz * my, rz * mx - rx * mz, rx * my - ry * mx)
        angle = math.atan2(cross, rx * mx + ry * my + rz * mz)
    overlap = 0.5 * (1.0 + float(np.dot(m, r)))
    return CloneMetrics(
        fidelity_to_message=float(min(max(overlap, 0.0), 1.0)),
        bloch=tuple(float(v) for v in r),
        bloch_angle_error=angle,
        bloch_magnitude=mag,
    )
