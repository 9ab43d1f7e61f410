"""Parallel single-qubit Pauli tomography of clone qubits with maximum
likelihood density-matrix reconstruction on the Bloch ball."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SimulationError, TomographyError
from .simulator import (_X, _Y, _Z, NoiseModel, _check_int, apply_response, compile_response,
                        message_state, run_shots)
from .telecloning import (MessageState, TelecloningVariant, build_protocol_circuit,
                          with_tomography)

BASES = ("x", "y", "z")

_MAX_ITER = 10_000
_GRAD_TOL = 1e-10
_BALL_EDGE = 1.0 - 1e-12


@dataclass
class TomographyRecord:
    """Per-clone 0/1 counts in the X, Y, Z bases plus the fitted state."""

    counts: dict[str, tuple[int, int]]
    shots_per_basis: int
    reconstructed: np.ndarray | None = None

    def __post_init__(self):
        for b in BASES:
            n0, n1 = self.counts[b]
            if n0 + n1 != self.shots_per_basis:
                raise SimulationError(
                    f"basis {b}: counts {n0}+{n1} != shots {self.shots_per_basis}")

    def to_json_dict(self) -> dict:
        rho = self.reconstructed
        return {
            "counts": {b: list(self.counts[b]) for b in BASES},
            "shots_per_basis": self.shots_per_basis,
            "reconstructed": None if rho is None else
            [[[float(v.real), float(v.imag)] for v in row] for row in rho],
        }


def rho_from_bloch(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * _X + r[1] * _Y + r[2] * _Z)


def linear_inversion(counts: dict, shots_per_basis: int):
    """r_B = (n0 - n1)/shots per basis; the raw state may be unphysical."""
    if shots_per_basis < 1:
        raise SimulationError("linear inversion needs at least one shot")
    r = np.array([(counts[b][0] - counts[b][1]) / shots_per_basis for b in BASES])
    return r, rho_from_bloch(r)


def _log_likelihood(r, n0, n1):
    rp = np.clip(r, -_BALL_EDGE, _BALL_EDGE)
    return float(np.sum(n0 * np.log1p(rp) + n1 * np.log1p(-rp)))


def _grad(r, n0, n1):
    return n0 / (1.0 + r) - n1 / (1.0 - r)


def _project_ball(r):
    nrm = np.linalg.norm(r)
    if nrm > _BALL_EDGE:
        return r * (_BALL_EDGE / nrm)
    return r


def mle_fit(counts: dict, shots_per_basis: int) -> np.ndarray:
    """Physical single-qubit state maximizing the multinomial likelihood.

    Projected gradient ascent with backtracking over the Bloch ball, started
    from the (projected) linear-inversion point. When linear inversion is
    already physical it is the interior optimum and is returned directly.
    """
    n0 = np.array([counts[b][0] for b in BASES], dtype=float)
    n1 = np.array([counts[b][1] for b in BASES], dtype=float)
    total = n0 + n1
    if shots_per_basis < 1 or np.any(total != shots_per_basis):
        raise SimulationError("counts must sum to shots_per_basis in each basis")

    r_li = (n0 - n1) / shots_per_basis
    if np.linalg.norm(r_li) <= _BALL_EDGE:
        return rho_from_bloch(r_li)

    r = _project_ball(r_li)
    best_r, best_ll = r.copy(), _log_likelihood(r, n0, n1)
    step = 1.0 / max(shots_per_basis, 1)
    for _ in range(_MAX_ITER):
        r_safe = np.clip(r, -_BALL_EDGE, _BALL_EDGE)
        g = _grad(r_safe, n0, n1)
        moved = _project_ball(r + step * g)
        if np.linalg.norm(moved - r) <= _GRAD_TOL:
            return rho_from_bloch(moved)
        ll = _log_likelihood(moved, n0, n1)
        cur = _log_likelihood(r, n0, n1)
        if ll < cur - 1e-15:
            step *= 0.5  # backtrack
            if step < 1e-18:
                return rho_from_bloch(best_r)
            continue
        r = moved
        if ll > best_ll:
            best_ll, best_r = ll, r.copy()
    raise TomographyError("MLE did not converge within the iteration cap",
                          best=rho_from_bloch(best_r))


def _basis_seed(seed: int, basis_index: int) -> int:
    return int(np.random.SeedSequence((seed, basis_index)).generate_state(1)[0])


def _fitted(counts: list[dict], shots_per_basis: int) -> list[TomographyRecord]:
    """One record per clone's counts, each with its MLE state."""
    records = []
    for per_basis in counts:
        rec = TomographyRecord(per_basis, shots_per_basis)
        rec.reconstructed = mle_fit(rec.counts, shots_per_basis)
        records.append(rec)
    return records


def tomography_run(m: int, variant: TelecloningVariant, message: MessageState,
                   shots_per_basis: int, seed: int,
                   noise: NoiseModel | None = None,
                   transform=None) -> list[TomographyRecord]:
    """Measure all clones in X, Y, Z (shots_per_basis each) and reconstruct
    every clone's state via MLE.

    ``transform`` optionally rewrites each basis circuit before execution
    (layout mapping, decoupling passes); it must preserve clone bit order.
    Without noise (None or all zero) one :func:`compile_response` of the
    transformed "none" circuit, contracted with its message, gives every
    clone's state, so the prep runs once for the three bases, and
    :func:`sample_tomography` draws the counts from it, as a noiseless
    sweep point does. Under noise each basis circuit samples joint counts
    with :func:`run_shots` from its own child of ``seed``: sweeps reach this
    only with noise past the density cap.
    """
    _check_int("shots_per_basis", shots_per_basis, 1)
    transform = transform or (lambda circuit: circuit)
    none = build_protocol_circuit(m, variant, message)
    if noise is None or not noise.any_noise():
        circuit = transform(none)
        rhos = apply_response(compile_response([circuit])[0],
                              message_state(circuit, NoiseModel()))
        return sample_tomography([basis_p1(rho) for rho in rhos], shots_per_basis, seed)
    per_clone: list[dict] = [dict() for _ in range(m)]
    for bi, basis in enumerate(BASES):
        counts = run_shots(transform(with_tomography(none, basis)), shots_per_basis,
                           seed=_basis_seed(seed, bi), noise=noise)
        for k in range(m):
            n1 = sum(c for key, c in counts.items() if key[2 + k] == "1")
            per_clone[k][basis] = (shots_per_basis - n1, n1)
    return _fitted(per_clone, shots_per_basis)


def basis_p1(rho: np.ndarray) -> np.ndarray:
    """P(1) of a one-qubit state measured in X, Y and Z: (1 - r_B)/2 for
    each Bloch component r_B, clipped to [0, 1] against rounding."""
    r = np.array([np.trace(rho @ pauli).real for pauli in (_X, _Y, _Z)])
    return np.clip((1.0 - r) / 2, 0.0, 1.0)


def sample_tomography(p1, shots_per_basis: int, seed: int) -> list[TomographyRecord]:
    """Tomography records of clones whose outcome 1 has probability
    ``p1[k][b]`` for clone k in basis b of :data:`BASES`.

    Each clone's count of 1s in each basis is a Binomial(shots_per_basis,
    P(1)) draw, all clones of a basis from the Philox stream of that
    basis's child of ``seed`` (the seeds :func:`tomography_run` uses).
    Records read only per-clone marginals, so this is equal in law to
    summing per clone the joint counts that :func:`run_shots` samples from
    the basis circuits; the draws differ. A noiseless clone in the state rho
    has the P(1) of :func:`basis_p1`.
    """
    _check_int("shots_per_basis", shots_per_basis, 1)
    p1 = np.asarray(p1, dtype=float)
    per_clone: list[dict] = [dict() for _ in p1]
    for bi, basis in enumerate(BASES):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(_basis_seed(seed, bi))))
        for k, n1 in enumerate(rng.binomial(shots_per_basis, p1[:, bi])):
            per_clone[k][basis] = (shots_per_basis - int(n1), int(n1))
    return _fitted(per_clone, shots_per_basis)
