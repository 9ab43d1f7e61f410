"""Dense statevector and density-matrix simulation with mid-circuit
measurement, feed-forward, seeded shot sampling and configurable noise.

Conventions: qubit 0 is the most significant bit of the state index; counts
keys list classical bits ascending left-to-right. Statevector mode is
strictly noiseless; noise runs either as stochastic Kraus unravelling
(Monte Carlo wavefunction trajectories, one per shot) or as exact
density-matrix evolution.

One interpreter, :func:`_walk`, runs every mode. It carries a list of
(classical bits, state) branches through the instructions and runs each
cond body only on the branches whose bit matches. Each mode supplies how a
gate acts on its state and how a measurement changes the branch list: exact
enumeration splits every branch into both outcomes, shot sampling also
defers terminal measurements to the final distribution, the density-matrix
oracle splits and merges readout-flip branches, and the trajectory mode
samples every shot's outcome and splits its shots by the recorded bit.
:func:`_noise_after` is the one rule for which noise follows a gate, read
by both noisy modes.

The trajectory mode runs the shots in blocks, each one (2^n, shots) array
with a shot's state in each column, capped at ``_BLOCK_AMPLITUDES``
amplitudes. A branch is the group of a block's shots that recorded the same
classical bits so far, with their states; a gate acts on the whole group
at once, and its depolarizing Pauli and amplitude-damping jump act on the
columns whose uniforms select them. Each shot reads its uniforms from a
fixed slot schedule (:func:`_slot_schedule`) in its own counter-based
Philox row (:func:`_shot_uniforms`), so counts do not depend on the blocks.

The resource state does not depend on the message, so noiseless protocol
circuits never simulate it per point. :func:`compile_resource` simulates it
once into a :class:`CompiledResource` (the port's |0> and |1> slices), which
``experiment.run_experiment`` builds once per sweep, or once per worker
chunk, and hands to :func:`exact_clone_states` and, through
``tomography.tomography_run``, to :func:`run_shots`. Both seed the four Bell
branches from it with :func:`_bell_seeds` and walk only what follows the
Bell measurement, over the other n-2 qubits; a circuit's prep gates are
compared with the resource's, never compacted or simulated again. A circuit
whose prep differs from the resource passed in, or that is called without
one, compiles its own (``tomography_run`` without one compiles it once for
its three bases); one whose prefix cannot be seeded is compacted and walked
in full from |0...0>.

The compiled prep does not run gate by gate. :func:`_fuse` multiplies each
run of consecutive gates on at most ``_FUSE_QUBITS`` qubits into one
matrix, and :func:`_apply_block` applies it in one pass, writing only the
slices of its non-identity rows and reading only its nonzero entries. The
state is float64 when every block is real, as in every logical prep
(RY/CX/X only), and complex128 otherwise (native preps with rz/sx); the
port slices are complex either way. :func:`_apply_1q`/:func:`_apply_cx`
still run every other walk and are the oracle for the fused prep.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction, validate
from .exceptions import CircuitError, SimulationError

DEFAULT_QUBIT_CAP = 24
_DENSITY_QUBIT_CAP = 8
_BRANCH_CAP = 4096
_BLOCK_AMPLITUDES = 1 << 18  # shots x 2^n of one block of noisy trajectories
_FUSE_QUBITS = 3  # widest gate block the compiled prep multiplies out

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
        for name in ("depolarizing_1q", "depolarizing_2q", "readout_flip",
                     "amplitude_damping_idle"):
            p = getattr(self, name)
            if p is None and name == "amplitude_damping_idle":
                continue
            if not isinstance(p, numbers.Real) or isinstance(p, bool):
                raise SimulationError(f"{name}={p!r} is not a number")
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"{name}={p} outside [0, 1]")

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
    """Apply ``mat`` to qubit ``q`` of a state over ``n`` qubits, in place.
    A contiguous (2^n, k) block holds k states, one per column, and every
    column transforms alike (so for :func:`_apply_cx`)."""
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


def _touched(ins: Instruction) -> set[int]:
    """Qubits an instruction acts on, a cond body's included."""
    return set(ins.qubits).union(*(sub.qubits for sub in ins.body))


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


def _compaction(circuit: Circuit) -> dict[int, int]:
    """Map from each qubit :func:`compact` keeps to its new index."""
    used = sorted(used_qubits(circuit)) or [0]
    return {old: new for new, old in enumerate(used)}


def compact(circuit: Circuit) -> Circuit:
    """Drop idle qubits (always |0>) and reindex; roles are remapped."""
    remap = _compaction(circuit)
    roles = {}
    for k, v in circuit.roles.items():
        roles[k] = remap[v] if isinstance(v, int) else tuple(remap[q] for q in v)
    return Circuit(len(remap), circuit.num_clbits,
                   tuple(_remap(i, remap) for i in circuit.instructions), roles=roles)


def _validated(circuit: Circuit, cap: int) -> dict[int, int]:
    """The :func:`_compaction` of a valid circuit that fits the qubit cap."""
    errors = validate(circuit)
    if errors:
        raise CircuitError("; ".join(errors))
    position = _compaction(circuit)
    if len(position) > cap:
        raise SimulationError(
            f"2^{len(position)} amplitudes exceed the {cap}-qubit cap")
    return position


def _checked(circuit: Circuit, cap: int) -> Circuit:
    _validated(circuit, cap)
    return compact(circuit)


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
# the compiled resource: message-independent work, simulated once per sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompiledResource:
    """The resource state of a protocol circuit, simulated once.

    ``prep`` (the used qubits, the message and port qubits and the prep
    gates, in the circuit's own numbering) is its identity: every message
    and tomography basis of one (m, variant, layout, dd) shares it.
    ``t0``/``t1`` are the port's |0> and |1> slices over the other used
    qubits, and ``index`` maps each of those qubits to its axis in them.
    """

    prep: tuple
    t0: np.ndarray
    t1: np.ndarray
    index: dict


def _bell_parts(circuit: Circuit):
    """Split a valid circuit at its Bell measurement, or return None.

    The first two measures must be on the port and the message, in either
    order, and nothing after the first may touch those two qubits again.
    Returns (unitary prefix, the two Bell measures, later instructions),
    barriers dropped.
    """
    roles = circuit.roles
    if "port" not in roles or "message" not in roles:
        return None
    pair = {roles["port"], roles["message"]}
    instrs = [i for i in circuit.instructions if i.gate != "barrier"]
    at = [k for k, i in enumerate(instrs) if i.gate == "measure"][:2]
    if len(at) < 2 or {instrs[k].qubits[0] for k in at} != pair:
        return None
    suffix = [i for k, i in enumerate(instrs) if k > at[0] and k != at[1]]
    if any(pair & _touched(i) for i in suffix):
        return None
    return instrs[:at[0]], [instrs[k] for k in at], suffix


def _split_prefix(circuit: Circuit, parts, position: dict[int, int]):
    """(pre, post, prep) of a circuit's Bell prefix, or None when the prefix
    cannot be seeded. ``pre`` and ``post`` multiply the message's own 1q
    gates before and after its one cx(message, port); every other gate is
    resource prep and may not touch the port after that cx, which the
    seeding would move ahead of it."""
    if parts is None:
        return None
    mq, pq = circuit.roles["message"], circuit.roles["port"]
    pre = post = np.eye(2, dtype=complex)
    prep = []
    bell_seen = False
    for ins in parts[0]:
        if mq in ins.qubits:
            if ins.gate == "cx":
                if bell_seen or ins.qubits != (mq, pq):
                    return None
                bell_seen = True
            elif len(ins.qubits) == 1:
                if bell_seen:
                    post = gate_matrix(ins) @ post
                else:
                    pre = gate_matrix(ins) @ pre
            else:
                return None
        elif bell_seen and pq in ins.qubits:
            return None
        else:
            prep.append(ins)
    if not bell_seen:
        return None
    return pre, post, (tuple(position), mq, pq, tuple(prep))


def _fuse(gates, axis: dict[int, int]):
    """Runs of consecutive gates whose qubits together span at most
    ``_FUSE_QUBITS`` state axes (``axis`` maps a qubit to its axis), each
    multiplied into one block: (its axes ascending, and row by row the
    nonzero (column, entry) pairs, the diagonal one first, of the rows of
    its 2^k x 2^k matrix that are not rows of the identity)."""
    runs = []
    for ins in gates:
        axes = {axis[q] for q in ins.qubits}
        if runs and len(runs[-1][0] | axes) <= _FUSE_QUBITS:
            runs[-1][0].update(axes)
            runs[-1][1].append(ins)
        else:
            runs.append((axes, [ins]))
    blocks = []
    for axes, run in runs:
        axes = sorted(axes)
        local = {q: axes.index(axis[q]) for ins in run for q in ins.qubits}
        mat = np.eye(1 << len(axes), dtype=complex)
        for ins in run:  # each column of mat is a state over the block's axes
            _apply_unitary(mat, _remap(ins, local), len(axes))
        rows = []
        for i, row in enumerate(mat.tolist()):
            terms = sorted(((j, a) for j, a in enumerate(row) if a != 0),
                           key=lambda term: term[0] != i)
            if terms != [(i, 1)]:
                rows.append((i, terms))
        blocks.append((axes, rows))
    return blocks


def _apply_block(psi: np.ndarray, axes, rows) -> None:
    """Apply a :func:`_fuse` block to ``psi`` in place, in one pass: only
    the slices of its non-identity rows are written, each from the slices
    its nonzero entries name, so a controlled gate touches only the half of
    the state where its control is set and a permutation is a copy."""
    shape, last = [], -1
    for q in axes:
        shape += [1 << (q - last - 1), 2]
        last = q
    view = psi.reshape(shape + [-1])
    k = len(axes)

    def part(j):
        return view[tuple(x for b in range(k)
                          for x in (slice(None), (j >> (k - 1 - b)) & 1))]

    # a slice is copied only when a later row still reads it once written
    turn = {i: t for t, (i, _) in enumerate(rows)}
    kept = {j for t, (i, terms) in enumerate(rows) for j, _ in terms
            if j != i and turn.get(j, t) < t}
    old = {}
    for i, ((j, a), *rest) in rows:
        out = part(i)
        if i in kept:
            old[i] = out.copy()
        if j != i:
            np.multiply(old.get(j, part(j)), a, out=out)
        elif a != 1:
            out *= a
        for j, a in rest:
            out += a * old.get(j, part(j))


def _prep_state(gates, axis: dict[int, int]) -> np.ndarray:
    """The state over the axes of ``axis`` after the prep ``gates``, run as
    :func:`_fuse` blocks: float64 when every block is real, as in every
    logical prep (RY/CX/X only), else complex128."""
    blocks = _fuse(gates, axis)
    real = not any(a.imag for _, rows in blocks for _, terms in rows
                   for _, a in terms)
    psi = np.zeros(1 << len(axis), dtype=float if real else complex)
    psi[0] = 1.0
    for axes, rows in blocks:
        if real:
            rows = [(i, [(j, a.real) for j, a in terms]) for i, terms in rows]
        _apply_block(psi, axes, rows)
    return psi


def _compile(prep: tuple) -> CompiledResource:
    """Run the prep gates on every qubit but the message and slice the
    state along the port axis."""
    used, mq, pq, gates = prep
    others = [q for q in used if q != mq]
    axis = {q: k for k, q in enumerate(others)}
    # The whole state goes complex, not each slice: freeing this 2^n array
    # raises glibc's mmap threshold above the 2^(n-2) arrays of every later
    # suffix walk, which at M=8 measured half the time per point.
    psi = _prep_state(gates, axis).astype(complex, copy=False)
    view = psi.reshape(1 << axis[pq], 2, -1)
    rest = [q for q in others if q != pq]
    return CompiledResource(prep, view[:, 0, :].reshape(-1).copy(),
                            view[:, 1, :].reshape(-1).copy(),
                            {q: k for k, q in enumerate(rest)})


def compile_resource(circuit: Circuit) -> CompiledResource | None:
    """Simulate the message-independent resource of a protocol circuit once.

    Pass the result to :func:`exact_clone_states` or :func:`run_shots` for
    every circuit of the same (m, variant, layout, dd), whatever its message
    or tomography basis; a circuit whose prep differs compiles its own.
    Returns None when the circuit has no seedable Bell-measurement shape.
    """
    position = _validated(circuit, DEFAULT_QUBIT_CAP)
    split = _split_prefix(circuit, _bell_parts(circuit), position)
    return None if split is None else _compile(split[2])


def _bell_seeds(resource: CompiledResource, pre, post, bell, num_clbits: int):
    """The four Bell branches (clbits, vector over the remaining qubits) of
    a message whose gates before and after the Bell cx multiply to ``pre``
    and ``post``, in the order the two ``bell`` measures split them;
    outcomes of zero weight are dropped."""
    pq = resource.prep[2]
    a, b = pre[0, 0], pre[1, 0]
    slices = (resource.t0, resource.t1)
    (q0, c0), (_, c1) = [(m.qubits[0], m.clbit) for m in bell]
    seeds = []
    for o0 in (0, 1):
        for o1 in (0, 1):
            cp, cm = (o0, o1) if q0 == pq else (o1, o0)
            vec = (post[cm, 0] * a) * slices[cp] \
                + (post[cm, 1] * b) * slices[1 - cp]
            if np.vdot(vec, vec).real > 1e-24:
                bits = _set_bit(_set_bit((0,) * num_clbits, c0, o0), c1, o1)
                seeds.append((bits, vec))
    return seeds


def _start(circuit: Circuit, position: dict[int, int], parts,
           resource: CompiledResource | None):
    """Where the walk of a valid circuit with compaction ``position``
    begins: (instructions, branches, qubit count, map from the circuit's
    qubits to state axes).

    A circuit with a seedable Bell prefix starts after its Bell measurement,
    from the Bell branches seeded from ``resource`` (compiled here when it
    is None or its prep differs) over its used qubits but the port and the
    message; its prep is neither compacted nor simulated. Any other circuit
    is compacted and starts from |0...0>.
    """
    split = _split_prefix(circuit, parts, position)
    if split is None:
        circuit = compact(circuit)
        n = circuit.num_qubits
        return (circuit.instructions, [((0,) * circuit.num_clbits, _ground(n))],
                n, position)
    pre, post, prep = split
    if resource is None or resource.prep != prep:
        resource = _compile(prep)
    seeds = _bell_seeds(resource, pre, post, parts[1], circuit.num_clbits)
    return ([_remap(ins, resource.index) for ins in parts[2]], seeds,
            len(resource.index), resource.index)


# ---------------------------------------------------------------------------
# exact branch sums
# ---------------------------------------------------------------------------

def _branch_sum(circuit: Circuit, groups, cap: int,
                resource: CompiledResource | None = None) -> list[np.ndarray]:
    """Branch-summed reduced density matrix of a protocol circuit on each
    ordered tuple of its qubits in ``groups``. The circuit must measure
    exactly the port and the message and then only feed forward."""
    position = _validated(circuit, cap)
    if any(role not in circuit.roles for role in ("port", "message", "clones")):
        raise SimulationError("circuit lacks role metadata for the protocol")
    parts = _bell_parts(circuit)
    if parts is None or any(ins.gate == "measure" for ins in parts[2]):
        raise SimulationError("circuit lacks the Bell-measurement structure")
    measured = {ins.qubits[0] for ins in parts[1]}
    gone = sorted({q for group in groups for q in group}
                  - (position.keys() - measured))
    if gone:
        raise SimulationError(f"no state for qubits {gone}: the circuit does "
                              "not use them or measures them")
    instructions, branches, n, index = _start(circuit, position, parts, resource)
    branches = _walk(instructions, branches,
                     lambda psi, ins: _apply_unitary(psi, ins, n), _split)
    out = []
    for group in groups:
        keep = [index[q] for q in group]
        dim = 1 << len(keep)
        rho = np.zeros((dim, dim), dtype=complex)
        for _, vec in branches:
            rho += _ptrace_pure(vec, keep, n)
        out.append(rho)
    return out


def exact_clone_states(circuit: Circuit, cap: int = DEFAULT_QUBIT_CAP,
                       resource: CompiledResource | None = None):
    """Deterministic per-clone density matrices of a protocol circuit.

    Enumerates the four Bell outcomes, pushes each post-measurement branch
    through its feed-forward corrections, weights by branch probability and
    sums; noiseless semantics only. Requires tomo_basis="none". ``resource``
    is a :func:`compile_resource` result to reuse; without one, or when its
    prep differs, the circuit compiles its own.
    """
    return _branch_sum(circuit, [(q,) for q in circuit.roles.get("clones", ())],
                       cap, resource)


def exact_subsystem_state(circuit: Circuit, qubits,
                          cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Branch-averaged reduced density matrix on the given original qubits."""
    return _branch_sum(circuit, [tuple(qubits)], cap)[0]


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

def _terminal_measures(instructions):
    """Identities (``id``) of the measures that can be deferred to
    final-state sampling: no later gate touches their qubit and no cond
    reads their bit."""
    instrs = [i for i in instructions if i.gate != "barrier"]
    terminal = set()
    for k, ins in enumerate(instrs):
        if ins.gate != "measure":
            continue
        q, c = ins.qubits[0], ins.clbit
        if not any(q in _touched(later)
                   or (later.gate == "cond" and later.cond_clbit == c)
                   for later in instrs[k + 1:]):
            terminal.add(id(ins))
    return terminal


def _shot_distributions(instructions, branches, n: int):
    """Walk ``branches`` over ``n`` qubits through ``instructions`` with the
    terminal measures deferred. Returns (branch bits, weights, deferred
    clbit order, per-branch joint distributions over the deferred bits)."""
    terminal = _terminal_measures(instructions)
    deferred: list[tuple[int, int]] = []

    def measure(branches, ins):
        if id(ins) in terminal:
            deferred.append((ins.qubits[0], ins.clbit))
            return branches
        return _split(branches, ins)

    branches = _walk(instructions, branches,
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
              cap: int = DEFAULT_QUBIT_CAP,
              resource: CompiledResource | None = None) -> dict[str, int]:
    """Sample measurement outcomes. Identical (circuit, shots, seed, noise)
    inputs give identical counts; the total always equals ``shots``.

    Noiseless protocol circuits walk only what follows the Bell measurement,
    from branches seeded from ``resource`` (see :func:`exact_clone_states`).
    Under noise every shot is a Monte Carlo wavefunction trajectory, run in
    blocks of shots (see :func:`_trajectory_counts`).
    """
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    position = _validated(circuit, cap)
    if noise is not None and noise.any_noise():
        counts = _trajectory_counts(compact(circuit), noise, seed, 0, shots)
        return dict(sorted(counts.items()))

    instructions, branches, n, _ = _start(circuit, position, _bell_parts(circuit),
                                          resource)
    bit_rows, weights, clbits, rows = _shot_distributions(instructions, branches, n)
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


def _slot_schedule(instructions, noise: NoiseModel):
    """Offset of every instruction's first uniform in a shot's row, keyed by
    ``id`` (cond bodies included; :func:`compact` makes every instruction
    its own object), and the row width. A measurement reads one uniform for
    its outcome and one for its readout flip; a gate, one for its
    depolarizing Pauli and one per qubit for amplitude damping. A shot that
    skips a cond body leaves the body's slots unread, so every shot reads
    the same slot for the same instruction whatever its branch."""
    slots, width = {}, 0
    for ins in instructions:
        for sub in ins.body if ins.gate == "cond" else (ins,):
            slots[id(sub)] = width
            if sub.gate == "measure":
                width += 1 + (noise.readout_flip > 0)
            elif sub.gate != "barrier":
                p, gamma = _noise_after(sub, noise)
                width += (p > 0) + (len(sub.qubits) if gamma else 0)
    return slots, width


def _shot_uniforms(seed: int, first: int, stop: int, width: int) -> np.ndarray:
    """At least ``width`` uniforms for each shot first..stop-1, one row per
    shot. Shot s reads the Philox counters from s*ceil(width/4) on of the
    stream keyed by ``seed`` (a counter yields four doubles), so its row
    depends only on (seed, s), never on how the shots are split into
    blocks."""
    counters = -(-width // 4)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(first * counters)
    return np.random.Generator(bg).random((stop - first, 4 * counters))


def _pauli_columns(psi: np.ndarray, which: np.ndarray, q: int, n: int):
    """Apply Pauli ``which[c]`` (0 = I, then X, Y, Z) to qubit ``q`` of the
    state in column c of a block."""
    for k in (1, 2, 3):
        cols = np.flatnonzero(which == k)
        if cols.size:
            psi[:, cols] = _apply_1q(psi.take(cols, axis=1), _PAULIS_1Q[k], q, n)


def _weight_of_one(psi: np.ndarray, q: int):
    """A (2^q, 2, -1, columns) view of a block whose axis 1 is qubit ``q``,
    and each column's squared norm on q = 1."""
    cols = psi.shape[1]
    ones = psi.view(np.float64).reshape(1 << q, 2, -1, 2 * cols)[:, 1]
    parts = np.einsum("atc,atc->c", ones, ones)  # real and imaginary, interleaved
    return psi.reshape(1 << q, 2, -1, cols), parts[::2] + parts[1::2]


def _damp_columns(psi: np.ndarray, q: int, gamma: float, draw: np.ndarray):
    """Amplitude damping on qubit ``q`` of every normalized column: the jump
    |1> -> |0> where ``draw`` < gamma P(1), else the renormalized no-jump."""
    view, p1 = _weight_of_one(psi, q)
    jump = np.flatnonzero(draw < gamma * p1)
    fallen = view[:, 1][..., jump] / np.sqrt(p1[jump])
    keep = 1 / np.sqrt(np.maximum(1 - gamma * p1, 1e-300))
    view[:, 0] *= keep
    view[:, 1] *= math.sqrt(1 - gamma) * keep
    if jump.size:
        view[:, 0][..., jump] = fallen
        view[:, 1][..., jump] = 0.0


def _trajectory_rules(n: int, noise: NoiseModel, slots: dict, u: np.ndarray):
    """``apply`` and ``measure`` of the trajectory walk of one block.

    A branch's state is (block, shots): a (2^n, k) block holding the
    normalized states of k shots, one per column (so a gate's inner loops
    run along the shots), and those shots' positions in the block, which
    index the columns of ``u`` (one row per slot). Depolarizing with
    probability p replaces the state by I/2 (I/4 for cx), so after a 1q gate
    a shot takes X, Y or Z with probability p/4 each, and after a cx one of
    the 16 two-qubit Paulis with probability p/16 each.
    """
    flip = noise.readout_flip

    def apply(state, ins):
        psi, shots = state
        if ins.gate == "x":  # a swap, exact; most decoupling pulses are x
            view = psi.reshape(1 << ins.qubits[0], 2, -1)
            view[:] = view[:, ::-1]
        else:
            _apply_unitary(psi, ins, n)
        p, gamma = _noise_after(ins, noise)
        k = slots[id(ins)]
        if p > 0:
            draw = u[k][shots]
            k += 1
            if ins.gate == "cx":
                which = np.where(draw < p, np.minimum(draw * (16 / p), 15), 0).astype(int)
                _pauli_columns(psi, which >> 2, ins.qubits[0], n)
                _pauli_columns(psi, which & 3, ins.qubits[1], n)
            else:
                which = np.where(draw < 0.75 * p, np.minimum(draw * (4 / p), 2) + 1, 0)
                _pauli_columns(psi, which.astype(int), ins.qubits[0], n)
        if gamma:
            for q in ins.qubits:
                _damp_columns(psi, q, gamma, u[k][shots])
                k += 1
        return state

    def measure(branches, ins):
        """Sample each shot's outcome, project and renormalize its state,
        flip the recorded bit with probability ``flip`` and split the
        branch's shots by it."""
        q, k = ins.qubits[0], slots[id(ins)]
        out = []
        for bits, (psi, shots) in branches:
            view, p1 = _weight_of_one(psi, q)
            one = u[k][shots] < p1
            view[:, 0] *= ~one
            view[:, 1] *= one
            psi /= np.sqrt(np.maximum(np.where(one, p1, 1 - p1), 1e-300))
            if flip > 0:
                one ^= u[k + 1][shots] < flip
            for recorded, cols in enumerate((np.flatnonzero(~one), np.flatnonzero(one))):
                if cols.size == len(shots):
                    out.append((_set_bit(bits, ins.clbit, recorded), (psi, shots)))
                elif cols.size:
                    out.append((_set_bit(bits, ins.clbit, recorded),
                                (psi.take(cols, axis=1), shots[cols])))
        return out

    return apply, measure


def _trajectory_counts(circuit: Circuit, noise: NoiseModel, seed: int,
                       first: int, stop: int) -> Counter:
    """Counts of the recorded bits of shots first..stop-1 of a compacted
    circuit, each a Monte Carlo wavefunction trajectory.

    The shots run through :func:`_walk` in blocks of at most
    ``_BLOCK_AMPLITUDES`` amplitudes, one column per shot; each shot draws
    from its own :func:`_shot_uniforms` row, so the counts do not depend on
    how the shots are split into blocks.
    """
    n = circuit.num_qubits
    slots, width = _slot_schedule(circuit.instructions, noise)
    per_block = max(1, _BLOCK_AMPLITUDES >> n)
    counts: Counter = Counter()
    for start in range(first, stop, per_block):
        end = min(start + per_block, stop)
        block = np.zeros((1 << n, end - start), dtype=complex)
        block[0] = 1.0
        u = _shot_uniforms(seed, start, end, width).T
        branches = _walk(circuit.instructions,
                         [((0,) * circuit.num_clbits, (block, np.arange(end - start)))],
                         *_trajectory_rules(n, noise, slots, u))
        for bits, (_, shots) in branches:
            counts["".join(map(str, bits))] += len(shots)
    return counts


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
