"""Parallel single-qubit Pauli tomography of clone qubits with maximum
likelihood density-matrix reconstruction on the Bloch ball.

A basis circuit only adds a basis change and a measure to each clone of
its "none" circuit, so a clone's counts come from its "none" state read
through a one-qubit observable per basis (:func:`basis_observables`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .config import _SHOTS_STOP
from .exceptions import SimulationError
from .simulator import (_X, _Y, _Z, NoiseModel, _check_int, _density_walk, _pre_gates, _remap,
                        _touched, apply_response, compile_response, message_state)
from .telecloning import (MessageState, TelecloningVariant, build_protocol_circuit,
                          with_tomography)

BASES = ("x", "y", "z")
_PAULIS = (_X, _Y, _Z)  # the noiseless observables of BASES


@dataclass
class TomographyRecord:
    """Per-clone 0/1 counts in the X, Y, Z bases plus the fitted state."""

    counts: dict[str, tuple[int, int]]
    shots_per_basis: int
    reconstructed: np.ndarray | None = None

    def __post_init__(self):
        _checked_counts(self.counts, self.shots_per_basis)

    def to_json_dict(self) -> dict:
        rho = self.reconstructed
        return {
            "counts": {b: list(self.counts[b]) for b in BASES},
            "shots_per_basis": self.shots_per_basis,
            "reconstructed": None if rho is None else
            [[[float(v.real), float(v.imag)] for v in row] for row in rho],
        }


def _checked_counts(counts: dict, shots_per_basis: int) -> list[tuple[int, int]]:
    """The (n0, n1) counts of :data:`BASES`, after checking that each basis
    has two integer counts >= 0 summing to the shots."""
    _check_int("shots_per_basis", shots_per_basis, 1)
    for b in BASES:
        if b not in counts:
            raise SimulationError(f"no counts for basis {b}")
        n0, n1 = counts[b]
        _check_int(f"basis {b} count", n0, 0)
        _check_int(f"basis {b} count", n1, 0)
        if n0 + n1 != shots_per_basis:
            raise SimulationError(f"basis {b}: counts {n0}+{n1} != shots {shots_per_basis}")
    return [counts[b] for b in BASES]


def rho_from_bloch(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * _X + r[1] * _Y + r[2] * _Z)


def linear_inversion(counts: dict, shots_per_basis: int):
    """r_B = (n0 - n1)/shots per basis; the raw state may be unphysical."""
    pairs = _checked_counts(counts, shots_per_basis)
    r = np.array([(n0 - n1) / shots_per_basis for n0, n1 in pairs])
    return r, rho_from_bloch(r)


def _middle_root(n0: float, n1: float, mu: float) -> float:
    """The root in [-1, 1] of 2 mu r^3 - (n0 + n1 + 2 mu) r + (n0 - n1),
    which is the r where n0/(1+r) - n1/(1-r) = 2 mu r.

    The cubic is >= 0 at -1 and <= 0 at 1, and its middle root, in
    trigonometric form 2a sin(asin(.)/3), lies there. When n0 (n1) is 0,
    -1 (1) is a root too, but not of the Lagrange condition, and the middle
    root is the right one of the two.
    """
    a = math.sqrt((n0 + n1 + 2 * mu) / (6 * mu))
    arg = 1.5 * (n0 - n1) / (a * (n0 + n1 + 2 * mu))
    return 2 * a * math.sin(math.asin(max(-1.0, min(1.0, arg))) / 3)


def mle_fit(counts: dict, shots_per_basis: int) -> np.ndarray:
    """Physical single-qubit state maximizing the multinomial likelihood
    sum_b n0_b log(1 + r_b) + n1_b log(1 - r_b) over the Bloch ball.

    The likelihood is concave and separable in the Bloch components. When
    linear inversion lies in the ball it is the optimum. Otherwise the
    optimum is on the sphere, where each component solves the Lagrange
    condition n0/(1+r) - n1/(1-r) = 2 mu r for one multiplier mu > 0 (the
    middle root of a cubic, in closed form). The sum of their squares falls
    as mu grows, so mu is bisected on (0, 2 shots] to make it 1, down to
    adjacent floats, and r is normalised onto the sphere.
    """
    r_li, rho_li = linear_inversion(counts, shots_per_basis)
    if r_li @ r_li <= 1.0:
        return rho_li
    pairs = [counts[b] for b in BASES]
    lo, hi = 0.0, 2.0 * shots_per_basis  # at mu = 2 shots every |r_b| <= 1/4
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if sum(_middle_root(a, b, mid) ** 2 for a, b in pairs) > 1.0:
            lo = mid
        else:
            hi = mid
    r = np.array([_middle_root(a, b, hi) for a, b in pairs])
    return rho_from_bloch(r / np.linalg.norm(r))


def _child_seed(seed: int, index: int) -> int:
    """The seed of child ``index`` of ``seed``: a tomography basis or a grid point."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def tomography_run(m: int, variant: TelecloningVariant, message: MessageState,
                   shots_per_basis: int, seed: int,
                   noise: NoiseModel | None = None,
                   transform=None) -> list[TomographyRecord]:
    """Measure all clones in X, Y, Z (shots_per_basis each) and reconstruct
    every clone's state via MLE.

    ``transform`` optionally rewrites each basis circuit before execution
    (layout mapping, decoupling passes); it must preserve clone bit order.
    This runs a sweep point's path: one :func:`compile_response` of the
    transformed "none" circuit (past the density cap from trajectories keyed
    by ``seed``) contracted with the message's state (:func:`message_state`),
    and counts drawn (:func:`sample_tomography`) from each clone's P(1) in
    each basis, read through the :func:`basis_observables` of the
    transformed x, y and z circuits, which only noise makes it build.
    """
    _check_int("shots_per_basis", shots_per_basis, 1, _SHOTS_STOP)
    transform = transform or (lambda circuit: circuit)
    none = build_protocol_circuit(m, variant, message)
    circuit = transform(none)
    rho = message_state(_pre_gates(circuit), NoiseModel() if noise is None else noise, {})
    observables = basis_observables(
        circuit, (transform(with_tomography(none, basis)) for basis in BASES), noise)
    rhos = apply_response(compile_response(circuit, noise, seed), rho)
    return sample_tomography([basis_p1(s, o) for s, o in zip(rhos, observables)],
                             shots_per_basis, seed)


def basis_observables(circuit: Circuit, tomography_circuits,
                      noise: NoiseModel | None) -> np.ndarray:
    """Each clone's observable in each basis of :data:`BASES`, an (M, 3, 2,
    2) array O: clone k of ``circuit``, a protocol circuit, in the state rho
    reads 1 in basis b with probability (1 - Tr(rho O[k, b]))/2. Without
    noise O[k] is X, Y and Z themselves and ``tomography_circuits`` is not
    read. Under noise those are the x, y and z circuits, each ``circuit``'s
    instructions and then one-qubit gates and a measure on each clone;
    O[k, b] is (1 - 2 readout_flip) E^dagger(Z) for the noisy channel E of
    the gates b adds to clone k, from one density walk of the inputs |i><j|."""
    clones = circuit.roles["clones"]
    if noise is None or not noise.any_noise():
        return np.array([_PAULIS] * len(clones))
    head, blocks, out = circuit.instructions, {}, []
    for tomo in tomography_circuits:
        if tomo.instructions[:len(head)] != head:
            raise SimulationError("a tomography circuit does not start with the "
                                  "instructions of its 'none' circuit")
        per_clone = []
        for q in clones:
            ops = [ins for ins in tomo.instructions[len(head):]
                   if ins.gate != "barrier" and q in _touched(ins)]
            if not ops or ops[-1].gate != "measure" or any(
                    ins.gate in ("measure", "cond") or len(ins.qubits) > 1 for ins in ops[:-1]):
                raise SimulationError(f"clone {q} is not measured after one-qubit "
                                      "gates of its own")
            inputs = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # |i><j| at [:, :, i, j]
            e = _density_walk([_remap(ins, {q: 0}) for ins in ops[:-1]], 1, 0, noise,
                              inputs, blocks)
            per_clone.append((1 - 2 * noise.readout_flip) * (e[0, 0] - e[1, 1]).T)
        out.append(per_clone)
    return np.stack(out, axis=1)


def basis_p1(rho: np.ndarray, observables=_PAULIS) -> np.ndarray:
    """P(1) of a one-qubit state measured in X, Y and Z: (1 - Tr(rho O_b))/2
    for each basis's observable O_b of :func:`basis_observables`, by default
    the Paulis, whose traces are the Bloch components; clipped to [0, 1]
    against rounding."""
    r = np.array([np.trace(rho @ o).real for o in observables])
    return np.clip((1.0 - r) / 2, 0.0, 1.0)


def sample_tomography(p1, shots_per_basis: int, seed: int) -> list[TomographyRecord]:
    """Tomography records of clones whose outcome 1 has probability
    ``p1[k][b]`` for clone k in basis b of :data:`BASES`.

    Each clone's count of 1s in each basis is a Binomial(shots_per_basis,
    P(1)) draw, all clones of a basis from the Philox stream of that
    basis's child of ``seed`` (the seeds :func:`tomography_run` uses).
    Records read only per-clone marginals, so this is equal in law to
    summing per clone the joint counts that ``simulator.run_shots`` samples
    from the basis circuits; the draws differ. A clone in the state rho has
    the P(1) of :func:`basis_p1` of its :func:`basis_observables`.
    """
    _check_int("shots_per_basis", shots_per_basis, 1, _SHOTS_STOP)
    p1 = np.asarray(p1, dtype=float)
    per_clone: list[dict] = [dict() for _ in p1]
    for bi, basis in enumerate(BASES):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(_child_seed(seed, bi))))
        for k, n1 in enumerate(rng.binomial(shots_per_basis, p1[:, bi])):
            per_clone[k][basis] = (shots_per_basis - int(n1), int(n1))
    records = [TomographyRecord(counts, shots_per_basis) for counts in per_clone]
    for rec in records:
        rec.reconstructed = mle_fit(rec.counts, shots_per_basis)
    return records
