"""Dense statevector and density-matrix simulation with mid-circuit
measurement, feed-forward, seeded shot sampling and configurable noise.

Conventions: qubit 0 is the most significant bit of the state index; counts
keys list classical bits ascending left-to-right. Statevector mode is
strictly noiseless; noise runs either as stochastic Kraus unravelling
(per-shot) or as exact density-matrix evolution.

One interpreter, :func:`_walk`, runs every mode. It carries a list of
(classical bits, state) branches through the instructions and runs each
cond body only on the branches whose bit matches. Each mode supplies how a
gate acts on its state and how a measurement changes the branch list: exact
enumeration splits every branch into both outcomes, shot sampling also
defers terminal measurements to the final distribution, the density-matrix
oracle splits and merges readout-flip branches, and a noisy trajectory keeps
one branch and samples its outcome. :func:`_noise_after` is the one rule
for which noise follows a gate, read by both noisy modes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction, validate
from .exceptions import CircuitError, SimulationError

DEFAULT_QUBIT_CAP = 24
_DENSITY_QUBIT_CAP = 8
_BRANCH_CAP = 4096

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_PAULIS_1Q = (np.eye(2, dtype=complex), _X, _Y, _Z)


@dataclass(frozen=True)
class NoiseModel:
    """Static gate-level noise. Probabilities are per instruction; rz is
    treated as virtual (error-free) and barriers carry no noise."""

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0
    readout_flip: float = 0.0
    amplitude_damping_idle: float | None = None

    def __post_init__(self):
        for name in ("depolarizing_1q", "depolarizing_2q", "readout_flip"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"{name}={p} outside [0, 1]")
        g = self.amplitude_damping_idle
        if g is not None and not (0.0 <= g <= 1.0):
            raise SimulationError(f"amplitude_damping_idle={g} outside [0, 1]")

    def any_noise(self) -> bool:
        return (self.depolarizing_1q > 0 or self.depolarizing_2q > 0
                or self.readout_flip > 0 or bool(self.amplitude_damping_idle))


def gate_matrix(ins: Instruction) -> np.ndarray:
    if ins.gate == "ry":
        c, s = math.cos(ins.angle / 2), math.sin(ins.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if ins.gate == "rz":
        return np.array([[np.exp(-0.5j * ins.angle), 0],
                         [0, np.exp(0.5j * ins.angle)]])
    return {"h": _H, "x": _X, "z": _Z, "sx": _SQRT_X}[ins.gate]


def _apply_1q(psi: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    view = psi.reshape(1 << q, 2, -1)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
    view[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b
    return psi


def _apply_cx(psi: np.ndarray, c: int, t: int, n: int) -> np.ndarray:
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


def _apply_unitary(psi: np.ndarray, ins: Instruction, n: int) -> np.ndarray:
    if ins.gate == "cx":
        return _apply_cx(psi, ins.qubits[0], ins.qubits[1], n)
    return _apply_1q(psi, gate_matrix(ins), ins.qubits[0], n)


def _project(state: np.ndarray, axes, outcome: int) -> np.ndarray:
    """Copy of ``state`` with the non-matching slice of each listed qubit
    axis zeroed. A pure state projects on (q,); a density matrix, read as a
    vector over 2n qubits, on (q, q + n)."""
    out = state.copy()
    flat = out.reshape(-1)
    for q in axes:
        flat.reshape(1 << q, 2, -1)[:, 1 - outcome, :] = 0.0
    return out


def used_qubits(circuit: Circuit) -> set[int]:
    used = set()
    for ins in circuit.instructions:
        used.update(ins.qubits)
        for sub in ins.body:
            used.update(sub.qubits)
    for v in circuit.roles.values():
        if isinstance(v, int):
            used.add(v)
        else:
            used.update(v)
    return used


def _remap(ins: Instruction, remap) -> Instruction:
    return Instruction(ins.gate, tuple(remap[q] for q in ins.qubits),
                       angle=ins.angle, clbit=ins.clbit,
                       cond_clbit=ins.cond_clbit, cond_value=ins.cond_value,
                       body=tuple(_remap(s, remap) for s in ins.body))


def compact(circuit: Circuit) -> Circuit:
    """Drop idle qubits (always |0>) and reindex; roles are remapped."""
    used = sorted(used_qubits(circuit))
    if not used:
        used = [0]
    remap = {old: new for new, old in enumerate(used)}
    roles = {}
    for k, v in circuit.roles.items():
        roles[k] = remap[v] if isinstance(v, int) else tuple(remap[q] for q in v)
    return Circuit(len(used), circuit.num_clbits,
                   tuple(_remap(i, remap) for i in circuit.instructions), roles=roles)


def _checked(circuit: Circuit, cap: int) -> Circuit:
    errors = validate(circuit)
    if errors:
        raise CircuitError("; ".join(errors))
    circuit = compact(circuit)
    if circuit.num_qubits > cap:
        raise SimulationError(
            f"2^{circuit.num_qubits} amplitudes exceed the {cap}-qubit cap")
    return circuit


# ---------------------------------------------------------------------------
# the measurement / feed-forward interpreter
# ---------------------------------------------------------------------------

def _ground(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def _set_bit(bits: tuple, clbit: int, value: int) -> tuple:
    return bits[:clbit] + (value,) + bits[clbit + 1:]


def _walk(instructions, branches, apply, measure):
    """Run (clbits tuple, state) ``branches`` through ``instructions``.

    ``apply(state, ins)`` returns the state after one gate and
    ``measure(branches, ins)`` the branch list after one measurement. A cond
    body runs only on the branches whose bit holds the cond value.
    """
    for ins in instructions:
        if ins.gate == "barrier":
            continue
        if ins.gate == "measure":
            branches = measure(branches, ins)
            if len(branches) > _BRANCH_CAP:
                raise SimulationError("too many measurement branches")
            continue
        body = ins.body if ins.gate == "cond" else (ins,)
        out = []
        for bits, state in branches:
            if ins.gate != "cond" or bits[ins.cond_clbit] == ins.cond_value:
                for sub in body:
                    state = apply(state, sub)
            out.append((bits, state))
        branches = out
    return branches


def _split(branches, ins):
    """Both outcomes of a measurement on every pure branch; outcomes of
    zero weight are dropped."""
    out = []
    for bits, psi in branches:
        for outcome in (0, 1):
            proj = _project(psi, (ins.qubits[0],), outcome)
            if np.vdot(proj, proj).real > 1e-24:
                out.append((_set_bit(bits, ins.clbit, outcome), proj))
    return out


def _enumerate_branches(circuit: Circuit):
    """Run all measurement branches exactly. Returns a list of
    (clbits tuple, unnormalized statevector); weights are the norms squared."""
    n = circuit.num_qubits
    return _walk(circuit.instructions, [((0,) * circuit.num_clbits, _ground(n))],
                 lambda psi, ins: _apply_unitary(psi, ins, n), _split)


def _ptrace_pure(psi: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace of |psi><psi| onto the ordered qubit tuple ``keep``."""
    keep = list(keep)
    tensor = psi.reshape((2,) * n)
    order = keep + [q for q in range(n) if q not in keep]
    mat = np.transpose(tensor, order).reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


# ---------------------------------------------------------------------------
# protocol structure handling
# ---------------------------------------------------------------------------

def _protocol_parts(circuit: Circuit):
    """Split a protocol circuit into (prefix unitaries, bell measures, conds).

    The circuit must measure exactly the port and the message qubit (in any
    order) and afterwards contain only feed-forward blocks; anything else is
    reported as a missing Bell-measurement structure.
    """
    roles = circuit.roles
    if "port" not in roles or "message" not in roles or "clones" not in roles:
        raise SimulationError("circuit lacks role metadata for the protocol")
    measures = [i for i in circuit.instructions if i.gate == "measure"]
    if len(measures) != 2 or {m.qubits[0] for m in measures} != \
            {roles["port"], roles["message"]}:
        raise SimulationError("circuit lacks the Bell-measurement structure")
    first_meas = next(k for k, i in enumerate(circuit.instructions)
                      if i.gate == "measure")
    prefix = [i for i in circuit.instructions[:first_meas] if i.gate != "barrier"]
    measured = {m.qubits[0] for m in measures}
    suffix = []
    for ins in circuit.instructions[first_meas:]:
        if ins.gate in ("barrier", "measure"):
            continue
        if ins.gate != "cond" and measured & set(ins.qubits):
            raise SimulationError("circuit lacks the Bell-measurement structure")
        suffix.append(ins)
    meas_bits = {m.qubits[0]: m.clbit for m in measures}
    return prefix, meas_bits, suffix


_PREP_CACHE: dict = {}


def _prep_slices(circuit: Circuit, prefix, mq: int, pq: int):
    """Simulate the message-independent resource prep once and slice along
    the port axis. Returns (pre 2x2, post 2x2, T0, T1, index map) where the
    T vectors live on the remaining qubits in ascending original order."""
    n = circuit.num_qubits
    pre = np.eye(2, dtype=complex)
    post = np.eye(2, dtype=complex)
    prep = []
    bell_seen = False
    for ins in prefix:
        if mq in ins.qubits:
            if ins.gate == "cx":
                if bell_seen or ins.qubits != (mq, pq):
                    return None
                bell_seen = True
            elif len(ins.qubits) == 1:
                mat = gate_matrix(ins)
                if bell_seen:
                    post = mat @ post
                else:
                    pre = mat @ pre
            else:
                return None
        else:
            prep.append(ins)
    if not bell_seen:
        return None

    others = [q for q in range(n) if q != mq]
    remap = {q: k for k, q in enumerate(others)}
    key = (n, pq, tuple((i.gate, i.qubits, i.angle) for i in prep))
    cached = _PREP_CACHE.get(key)
    if cached is None:
        m = n - 1
        psi = _ground(m)
        for ins in prep:
            _apply_unitary(psi, _remap(ins, remap), m)
        paxis = remap[pq]
        view = psi.reshape(1 << paxis, 2, -1)
        t0 = view[:, 0, :].reshape(-1).copy()
        t1 = view[:, 1, :].reshape(-1).copy()
        if len(_PREP_CACHE) > 8:
            _PREP_CACHE.clear()
        _PREP_CACHE[key] = (t0, t1)
        cached = (t0, t1)
    rest = [q for q in others if q != pq]
    rest_map = {}
    for q in rest:
        k = remap[q]
        rest_map[q] = k if k < remap[pq] else k - 1
    return pre, post, cached[0], cached[1], rest_map


def _protocol_branches(circuit: Circuit):
    """Weighted post-correction branch vectors over the non-measured qubits.

    Returns (branch list, qubit index map). Uses the port-slice fast path
    when the prefix has the standard shape: the four Bell branches are
    seeded from the port slices and walked through the feed-forward suffix.
    Otherwise falls back to generic branch enumeration (with the measured
    qubits kept, in state |c>).
    """
    prefix, meas_bits, suffix = _protocol_parts(circuit)
    mq, pq = circuit.roles["message"], circuit.roles["port"]
    c_m, c_p = meas_bits[mq], meas_bits[pq]
    fast = _prep_slices(circuit, prefix, mq, pq)
    n = circuit.num_qubits
    if fast is None:
        return _enumerate_branches(circuit), {q: q for q in range(n)}
    pre, post, t0, t1, rest_map = fast
    a, b = pre[0, 0], pre[1, 0]
    seeds = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            alpha, beta = post[c1, 0], post[c1, 1]
            vec = (alpha * a) * (t0 if c0 == 0 else t1) \
                + (beta * b) * (t1 if c0 == 0 else t0)
            bits = [0] * circuit.num_clbits
            bits[c_p], bits[c_m] = c0, c1
            seeds.append((tuple(bits), vec))
    m = n - 2
    branches = _walk([_remap(ins, rest_map) for ins in suffix], seeds,
                     lambda psi, ins: _apply_unitary(psi, ins, m), _split)
    return branches, rest_map


def _branch_sum(circuit: Circuit, groups) -> list[np.ndarray]:
    """Branch-summed reduced density matrix of a checked protocol circuit on
    each ordered qubit tuple in ``groups``."""
    branches, qmap = _protocol_branches(circuit)
    nq = max(qmap.values()) + 1
    out = []
    for group in groups:
        keep = [qmap[q] for q in group]
        dim = 1 << len(keep)
        rho = np.zeros((dim, dim), dtype=complex)
        for _, vec in branches:
            rho += _ptrace_pure(vec, keep, nq)
        out.append(rho)
    return out


def exact_clone_states(circuit: Circuit, cap: int = DEFAULT_QUBIT_CAP):
    """Deterministic per-clone density matrices of a protocol circuit.

    Enumerates the four Bell outcomes, pushes each post-measurement branch
    through its feed-forward corrections, weights by branch probability and
    sums; noiseless semantics only. Requires tomo_basis="none".
    """
    circuit = _checked(circuit, cap)
    return _branch_sum(circuit, [(q,) for q in circuit.roles["clones"]])


def exact_subsystem_state(circuit: Circuit, qubits,
                          cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Branch-averaged reduced density matrix on the given original qubits."""
    return _branch_sum(_checked(circuit, cap), [qubits])[0]


def statevector(circuit: Circuit, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Final statevector of a measurement-free circuit."""
    circuit = _checked(circuit, cap)
    if any(i.gate in ("measure", "cond") for i in circuit.instructions):
        raise SimulationError("statevector requires a measurement-free circuit")
    n = circuit.num_qubits
    ((_, psi),) = _walk(circuit.instructions, [((), _ground(n))],
                        lambda psi, ins: _apply_unitary(psi, ins, n), None)
    return psi


# ---------------------------------------------------------------------------
# shot sampling
# ---------------------------------------------------------------------------

def _shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Counter-based per-shot stream: batches reproduce in any order."""
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(shot << 24)
    return np.random.Generator(bg)


def _terminal_measures(circuit: Circuit):
    """Identities (``id``) of the measures that can be deferred to
    final-state sampling: nothing later touches their qubit and no cond reads
    their bit."""
    instrs = circuit.instructions
    terminal = set()
    for k, ins in enumerate(instrs):
        if ins.gate != "measure":
            continue
        q, c = ins.qubits[0], ins.clbit
        ok = True
        for later in instrs[k + 1:]:
            touched = set(later.qubits) | {qq for s in later.body for qq in s.qubits}
            if q in touched:
                ok = False
                break
            if later.gate == "cond" and later.cond_clbit == c:
                ok = False
                break
        if ok:
            terminal.add(id(ins))
    return terminal


def _fast_shot_distributions(circuit: Circuit):
    """Branch weights plus per-branch joint distributions over the deferred
    measurement bits. Returns (branch bits, weights, clbit order, prob rows)."""
    n = circuit.num_qubits
    terminal = _terminal_measures(circuit)
    deferred: list[tuple[int, int]] = []

    def measure(branches, ins):
        if id(ins) in terminal:
            deferred.append((ins.qubits[0], ins.clbit))
            return branches
        return _split(branches, ins)

    branches = _walk(circuit.instructions, [((0,) * circuit.num_clbits, _ground(n))],
                     lambda psi, ins: _apply_unitary(psi, ins, n), measure)
    qubits = [q for q, _ in deferred]
    clbits = [c for _, c in deferred]
    weights, rows, bit_rows = [], [], []
    for bits, psi in branches:
        probs = np.abs(psi.reshape((2,) * n)) ** 2
        axes = tuple(ax for ax in range(n) if ax not in qubits)
        marg = probs.sum(axis=axes) if axes else probs
        if qubits:
            order = [sorted(qubits).index(q) for q in qubits]
            marg = np.transpose(marg, order) if marg.ndim > 1 else marg
        flat = marg.reshape(-1)
        weights.append(flat.sum())
        rows.append(flat)
        bit_rows.append(bits)
    return bit_rows, np.array(weights), clbits, rows


def run_shots(circuit: Circuit, shots: int, seed: int,
              noise: NoiseModel | None = None,
              cap: int = DEFAULT_QUBIT_CAP) -> dict[str, int]:
    """Sample measurement outcomes. Identical (circuit, shots, seed, noise)
    inputs give identical counts; the total always equals ``shots``."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    circuit = _checked(circuit, cap)
    if noise is not None and noise.any_noise():
        counts = Counter("".join(map(str, _trajectory(circuit, noise, _shot_rng(seed, s))))
                         for s in range(shots))
        return dict(sorted(counts.items()))

    bit_rows, weights, clbits, rows = _fast_shot_distributions(circuit)
    total = weights.sum()
    branch_cdf = np.cumsum(weights / total)
    cdfs = [np.cumsum(r / w) if w > 0 else None
            for r, w in zip(rows, weights)]
    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random((shots, 2))
    branch_idx = np.searchsorted(branch_cdf, u[:, 0], side="right")
    branch_idx = np.minimum(branch_idx, len(weights) - 1)
    counts: dict[str, int] = {}
    nbits = circuit.num_clbits
    for b in range(len(weights)):
        mask = branch_idx == b
        nshots = int(mask.sum())
        if nshots == 0:
            continue
        picks = np.searchsorted(cdfs[b], u[mask, 1], side="right")
        picks = np.minimum(picks, len(rows[b]) - 1)
        vals, occur = np.unique(picks, return_counts=True)
        for v, cnt in zip(vals, occur):
            bits = list(bit_rows[b])
            for j, c in enumerate(clbits):
                bits[c] = (int(v) >> (len(clbits) - 1 - j)) & 1
            key = "".join(str(bit) for bit in bits[:nbits])
            counts[key] = counts.get(key, 0) + int(cnt)
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# noise: one placement rule, sampled per shot or evolved exactly
# ---------------------------------------------------------------------------

def _noise_after(ins: Instruction, noise: NoiseModel) -> tuple[float, float]:
    """(depolarizing probability, amplitude-damping gamma) that follow one
    gate. ``rz`` is virtual and noise-free; ``cx`` depolarizes its two
    qubits jointly and every other gate its one qubit; idle amplitude
    damping then acts on each qubit of the gate."""
    if ins.gate == "rz":
        return 0.0, 0.0
    p = noise.depolarizing_2q if ins.gate == "cx" else noise.depolarizing_1q
    return p, noise.amplitude_damping_idle or 0.0


def _damping_kraus(gamma: float):
    return [np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]


def _sample_amplitude_damping(psi, q, n, rng, gamma):
    view = psi.reshape(1 << q, 2, -1)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    if rng.random() < gamma * p1:
        view[:, 0, :] = view[:, 1, :] / math.sqrt(p1)
        view[:, 1, :] = 0.0
    else:
        view[:, 1, :] *= math.sqrt(1 - gamma)
        norm = math.sqrt(float(np.vdot(psi, psi).real))
        psi /= norm


def _trajectory(circuit: Circuit, noise: NoiseModel, rng) -> tuple:
    """One Monte Carlo wavefunction trajectory; returns the recorded bits.

    Depolarizing with probability p replaces the state by I/2 (I/4 for cx),
    so it is sampled as X, Y or Z with probability 3p/4 after a 1q gate and
    as one of the 16 two-qubit Paulis with probability p after a cx.
    """
    n = circuit.num_qubits

    def apply(psi, ins):
        _apply_unitary(psi, ins, n)
        p, gamma = _noise_after(ins, noise)
        if ins.gate == "cx":
            if p > 0 and rng.random() < p:
                ks = rng.integers(0, 4), rng.integers(0, 4)
                for q, k in zip(ins.qubits, ks):
                    if k:
                        _apply_1q(psi, _PAULIS_1Q[k], q, n)
        elif p > 0 and rng.random() < 0.75 * p:
            _apply_1q(psi, _PAULIS_1Q[rng.integers(1, 4)], ins.qubits[0], n)
        if gamma:
            for q in ins.qubits:
                _sample_amplitude_damping(psi, q, n, rng, gamma)
        return psi

    def measure(branches, ins):
        ((bits, psi),) = branches
        q = ins.qubits[0]
        prob1 = float(np.sum(np.abs(psi.reshape(1 << q, 2, -1)[:, 1, :]) ** 2))
        outcome = int(rng.random() < prob1)
        psi = _project(psi, (q,), outcome)
        psi /= math.sqrt(max(np.vdot(psi, psi).real, 1e-300))
        if noise.readout_flip > 0 and rng.random() < noise.readout_flip:
            outcome = 1 - outcome
        return [(_set_bit(bits, ins.clbit, outcome), psi)]

    ((bits, _),) = _walk(circuit.instructions,
                         [((0,) * circuit.num_clbits, _ground(n))], apply, measure)
    return bits


def _dm_apply_unitary(rho, ins: Instruction, n: int):
    flat = rho.reshape(-1)
    if ins.gate == "cx":
        c, t = ins.qubits
        _apply_cx(flat, c, t, 2 * n)
        _apply_cx(flat, c + n, t + n, 2 * n)
    else:
        mat = gate_matrix(ins)
        _apply_1q(flat, mat, ins.qubits[0], 2 * n)
        _apply_1q(flat, mat.conj(), ins.qubits[0] + n, 2 * n)
    return rho


def _dm_apply_kraus(rho, kraus, q, n):
    dim = 1 << n
    out = np.zeros_like(rho)
    for K in kraus:
        tmp = rho.copy().reshape(-1)
        _apply_1q(tmp, K, q, 2 * n)
        _apply_1q(tmp, K.conj(), q + n, 2 * n)
        out += tmp.reshape(dim, dim)
    return out


def _depolarize_dm(rho, qubits, p, n):
    if p <= 0:
        return rho
    if len(qubits) == 1:
        kraus = [math.sqrt(1 - 0.75 * p) * _PAULIS_1Q[0]]
        kraus += [math.sqrt(p / 4) * P for P in _PAULIS_1Q[1:]]
        return _dm_apply_kraus(rho, kraus, qubits[0], n)
    # two-qubit joint depolarizing: I/4 replacement
    mixed = rho
    for q in qubits:
        mixed = _dm_apply_kraus(mixed, [0.5 * P for P in _PAULIS_1Q], q, n)
    return (1 - p) * rho + p * mixed


def noisy_clone_states(circuit: Circuit, noise: NoiseModel,
                       cap: int = _DENSITY_QUBIT_CAP):
    """Exact density-matrix counterpart of :func:`exact_clone_states` under a
    static noise model; the oracle for stochastic shot-mode noise."""
    circuit = _checked(circuit, cap)
    n = circuit.num_qubits
    if any(i.gate == "measure" and i.qubits[0] in circuit.roles.get("clones", ())
           for i in circuit.instructions):
        raise SimulationError("noisy_clone_states requires tomo_basis='none'")
    flip = noise.readout_flip

    def apply(rho, ins):
        _dm_apply_unitary(rho, ins, n)
        p, gamma = _noise_after(ins, noise)
        rho = _depolarize_dm(rho, ins.qubits, p, n)
        if gamma:
            for q in ins.qubits:
                rho = _dm_apply_kraus(rho, _damping_kraus(gamma), q, n)
        return rho

    def measure(branches, ins):
        """Split on the outcome, record it flipped with probability ``flip``
        and merge branches with identical classical bits."""
        q = ins.qubits[0]
        merged: dict[tuple, np.ndarray] = {}
        for bits, rho in branches:
            for outcome in (0, 1):
                proj = _project(rho, (q, q + n), outcome)
                if np.trace(proj).real <= 1e-24:
                    continue
                for recorded, scale in ((outcome, 1 - flip), (1 - outcome, flip)):
                    if scale <= 0:
                        continue
                    key = _set_bit(bits, ins.clbit, recorded)
                    merged[key] = merged[key] + proj * scale if key in merged \
                        else proj * scale
        return list(merged.items())

    dim = 1 << n
    rho0 = _ground(2 * n).reshape(dim, dim)
    branches = _walk(circuit.instructions, [((0,) * circuit.num_clbits, rho0)],
                     apply, measure)
    total = sum(rho for _, rho in branches)
    return [partial_trace(total, [q], n) for q in circuit.roles["clones"]]


# ---------------------------------------------------------------------------
# channels and partial trace
# ---------------------------------------------------------------------------

def partial_trace(rho: np.ndarray, keep, num_qubits: int | None = None) -> np.ndarray:
    """Standard partial trace onto the ordered qubit list ``keep``."""
    dim = rho.shape[0]
    n = num_qubits if num_qubits is not None else int(round(math.log2(dim)))
    if 1 << n != dim or rho.shape != (dim, dim):
        raise SimulationError("density matrix dimension is not a power of two")
    keep = list(keep)
    if not keep or any(not (0 <= q < n) for q in keep):
        raise SimulationError(f"keep set {keep} out of range for {n} qubits")
    tensor = rho.reshape((2,) * (2 * n))
    order = keep + [q for q in range(n) if q not in keep]
    full_order = order + [q + n for q in order]
    tensor = np.transpose(tensor, full_order)
    k = len(keep)
    tensor = tensor.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
    return np.einsum("ajbj->ab", tensor)


def apply_noise_channel(rho: np.ndarray, channel: tuple, qubits) -> np.ndarray:
    """Apply a named single-qubit CPTP channel to each listed qubit (or a
    joint two-qubit depolarizing when two qubits are given)."""
    name, param = channel
    if not (0.0 <= param <= 1.0):
        raise SimulationError(f"channel parameter {param} is not CPTP")
    n = int(round(math.log2(rho.shape[0])))
    qubits = list(qubits)
    out = rho.astype(complex).copy()
    if name == "depolarizing":
        if len(qubits) == 2:
            return _depolarize_dm(out, qubits, param, n)
        for q in qubits:
            out = _depolarize_dm(out, [q], param, n)
        return out
    if name == "bit_flip":
        kraus = [math.sqrt(1 - param) * _PAULIS_1Q[0], math.sqrt(param) * _X]
    elif name == "amplitude_damping":
        kraus = _damping_kraus(param)
    else:
        raise SimulationError(f"unknown channel '{name}'")
    for q in qubits:
        out = _dm_apply_kraus(out, kraus, q, n)
    return out
