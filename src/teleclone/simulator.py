"""Pure-state, trajectory and density-matrix simulation with mid-circuit
measurement, feed-forward, seeded shot sampling and configurable noise.

Conventions: qubit 0 is the most significant bit of the state index; counts
keys list classical bits ascending left-to-right.

One interpreter, :func:`_walk`, carries (classical bits, state) branches
through the instructions and runs each cond body only on the branches whose
bit matches; each mode supplies how a gate acts and how a measure changes
the branches. A pure state is never walked dense: it is the (basis indices,
amplitudes) of its support (:func:`_prep_state`, :func:`_full_walk`), and
only :func:`statevector` scatters one. Noise follows each gate as
:func:`_channels` lists it, and is evolved exactly as a density matrix
within ``_DENSITY_QUBIT_CAP`` qubits (:func:`_density_branches`), each gate
with its channels one superoperator applied by the :func:`_apply_block`
kernel.

A protocol circuit's clone states are traced before its feed-forward
(Murao et al., PRA 59, 156 (1999)): the resource prep does not depend on
the message, and after the Bell cx only one-qubit gates touch a clone, so
:func:`_traced` runs the prep once over every qubit but the message, takes
each clone's marginal with the port and runs a small density tail over
(message, port, clone) for the four message inputs |i><j| at once. Noise
acts on a gate's own qubits only, so the result is linear in the message's
state after its own gates (:func:`message_state`), and one
:func:`compile_response` of the "none" circuit serves every message of a
sweep (:func:`apply_response`); a tomography basis only turns each clone
before its measure, so it reads the clone through a one-qubit observable
(``tomography.basis_observables``). Under gate noise past the cap
the prep runs as Monte Carlo wavefunction trajectories on its support
(:func:`_trajectories`): each Pauli and each amplitude-damping Kraus
operator maps a basis state to at most one basis state. :func:`run_shots`
draws its counts from the exact outcome table of a walk of the whole
circuit, pure without gate noise and a density matrix under it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Instruction, check, cond
from .config import _DENSITY_QUBIT_CAP, _SHOTS_STOP, DEFAULT_QUBIT_CAP, NoiseModel, _is_int
from .exceptions import SimulationError

_BRANCH_CAP = 4096
_TRAJECTORIES = 200  # of a noisy prep past the density cap, whose marginals are their mean
_PAULI_GATES = ((), ("x",), ("z", "x"), ("z",))  # I, X, Y = iXZ and Z as the gates of a walk
_FLOOR = 1e-14  # prep amplitudes at or below this are rounding residue, dropped
# A trajectory's no-jump steps spoil the prep's cancellations into a wide tail
# of tiny amplitudes (490k entries at M=10, damping 0.002; 12k above this
# floor, which moves no (port, clone) marginal entry by 1e-4)
_TRAJECTORY_FLOOR = 1e-5

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # over (control, target)


def gate_matrix(ins: Instruction) -> np.ndarray:
    if ins.gate == "ry":
        c, s = math.cos(ins.angle / 2), math.sin(ins.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if ins.gate == "rz":
        return np.array([[np.exp(-0.5j * ins.angle), 0],
                         [0, np.exp(0.5j * ins.angle)]])
    return {"h": _H, "x": _X, "z": _Z, "sx": _SQRT_X, "cx": _CX}[ins.gate]


# ---------------------------------------------------------------------------
# the one kernel: a matrix block applied to state axes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _parts(k: int) -> tuple:
    """Index of each slice j of a state reshaped by a k-axis block."""
    return tuple(tuple(x for b in range(k) for x in (slice(None), (j >> (k - 1 - b)) & 1))
                 for j in range(1 << k))


def _block(mat: np.ndarray, axes) -> tuple:
    """The block of the 2^k x 2^k ``mat`` acting on the state ``axes``, its
    first index bit on ``axes[0]``, for :func:`_apply_block`: (the reshape
    of a state that makes each axis a dimension of size 2, the index of
    each slice j where those axes read j, and each row i that is not a row
    of the identity as (i, whether slice i is copied before it is written
    because a later row reads it, its nonzero (column, entry) pairs, the
    diagonal one first)), the entries in the dtype of ``mat``."""
    k = len(axes)
    order = sorted(range(k), key=axes.__getitem__)
    if order != list(range(k)):
        mat = mat.reshape((2,) * (2 * k)).transpose(
            order + [k + b for b in order]).reshape(1 << k, 1 << k)
    rows, turn = [], {}
    for i, row in enumerate(mat.tolist()):
        terms = [(j, a) for j, a in enumerate(row) if a != 0 and j != i]
        if row[i] != 0:
            terms.insert(0, (i, row[i]))
        if terms != [(i, 1)]:
            turn[i] = len(rows)
            rows.append((i, terms))
    kept = {j for t, (i, terms) in enumerate(rows) for j, _ in terms
            if j != i and turn.get(j, t) < t}
    shape, last = [], -1
    for q in sorted(axes):
        shape += [1 << (q - last - 1), 2]
        last = q
    return (*shape, -1), _parts(k), [(i, i in kept, terms) for i, terms in rows]


def _apply_block(psi: np.ndarray, block) -> np.ndarray:
    """Apply a :func:`_block` to the contiguous ``psi`` in place and return
    it. Every trailing axis beyond the block's last is a batch axis: the
    columns of a (2^n, c) array of states transform alike."""
    shape, parts, rows = block
    view = psi.reshape(shape)
    old = {}
    for i, keep, terms in rows:
        out = view[parts[i]]
        if keep:
            old[i] = out.copy()
        if not terms:
            out[...] = 0.0
            continue
        (j, a), *rest = terms
        if j == i:
            if a != 1:
                out *= a
        elif a == 1:
            out[...] = old[j] if j in old else view[parts[j]]
        else:
            np.multiply(old[j] if j in old else view[parts[j]], a, out=out)
        for j, a in rest:
            out += a * (old[j] if j in old else view[parts[j]])
    return psi


def _ops(instructions):
    """Every instruction, each cond body's in place of its cond."""
    for ins in instructions:
        yield from ins.body if ins.gate == "cond" else (ins,)


def _block_rule(instructions, build, built: dict):
    """``apply`` of a :func:`_walk` of ``instructions``, whose qubits are
    state axes: each gate, cond bodies included, runs as the block that
    ``build`` makes of it, built once per distinct instruction into
    ``built``, which repeated pulses and later walks share."""
    blocks = {}
    for ins in _ops(instructions):
        if ins.gate not in ("barrier", "measure"):
            if ins not in built:
                built[ins] = build(ins)
            blocks[id(ins)] = built[ins]
    return lambda state, ins: _apply_block(state, blocks[id(ins)])


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
    used = set().union(*map(_touched, circuit.instructions))
    for v in circuit.roles.values():
        used.update((v,) if isinstance(v, int) else v)
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


def _validated(circuit: Circuit, cap: int = DEFAULT_QUBIT_CAP,
               state: str = "a statevector") -> dict[int, int]:
    """The :func:`_compaction` of a valid circuit whose ``state`` fits the
    qubit cap."""
    check(circuit)
    position = _compaction(circuit)
    if len(position) > cap:
        raise SimulationError(f"{state} over {len(position)} qubits exceeds "
                              f"the {cap}-qubit cap")
    return position


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
    """Run (clbits tuple, state) ``branches`` through ``instructions``:
    ``apply(state, ins)`` returns the state after one gate and
    ``measure(branches, ins)`` the branch list after one measurement. A cond
    body runs only on the branches whose bit holds the cond value."""
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


def _terminal_measures(instructions):
    """Identities (``id``) of the measures that can be deferred to
    final-state sampling: no later gate touches their qubit and no cond
    reads their bit."""
    touched, read, terminal = set(), set(), set()
    for ins in reversed(instructions):
        if ins.gate == "measure" and ins.qubits[0] not in touched and ins.clbit not in read:
            terminal.add(id(ins))
        if ins.gate != "barrier":
            touched |= _touched(ins)
        if ins.gate == "cond":
            read.add(ins.cond_clbit)
    return terminal


def _full_walk(circuit: Circuit, position: dict[int, int], flip: float = 0.0):
    """Walk a valid circuit in full from |0...0> with its terminal measures
    deferred, its qubits read through their :func:`_compaction` ``position``:
    (the (clbits, support) branches, each support the (basis indices,
    amplitudes) of a pure state over the compacted qubits, and the deferred
    (qubit, clbit) pairs in circuit order). The gates before its first
    measure or cond run as one :func:`_prep_state`, each later one on its
    own. A measure splits every support by the measured bit, drops an
    outcome of zero weight and records the bit flipped with probability
    ``flip`` as a branch of its own scaled by sqrt(flip), read by the conds."""
    instructions = circuit.instructions
    n = len(position)
    terminal = _terminal_measures(instructions)
    first = next((k for k, ins in enumerate(instructions) if ins.gate in ("measure", "cond")),
                 len(instructions))
    prep = [ins for ins in instructions[:first] if ins.gate != "barrier"]
    deferred = []

    def measure(branches, ins):
        if id(ins) in terminal:
            deferred.append((ins.qubits[0], ins.clbit))
            return branches
        out = []
        for bits, (idx, amp) in branches:
            one = (idx >> (n - 1 - position[ins.qubits[0]]) & 1).astype(bool)
            for outcome, kept in enumerate((~one, one)):
                if np.vdot(amp[kept], amp[kept]).real > 1e-24:
                    for recorded, p in ((outcome, 1 - flip), (1 - outcome, flip)):
                        if p > 0:
                            out.append((_set_bit(bits, ins.clbit, recorded),
                                        (idx[kept], amp[kept] * math.sqrt(p))))
        return out

    start = [((0,) * circuit.num_clbits, _prep_state(prep, position))]
    branches = _walk(instructions[first:], start,
                     lambda support, ins: _prep_state([ins], position, start=support), measure)
    return branches, deferred


# ---------------------------------------------------------------------------
# the Bell prefix: the resource state, simulated without the message
# ---------------------------------------------------------------------------

def _protocol_parts(circuit: Circuit):
    """Split a protocol circuit at its Bell measurement: (pre, post, prep,
    bell, later) instruction lists, barriers dropped, or None when its
    clone states cannot be traced before its feed-forward.

    The first two measures (``bell``) must be on the port and the message,
    in either order, and no instruction after the first may touch those two
    qubits; a circuit without those roles or that structure is refused.
    ``pre`` and ``post`` are the message's own instructions before and from
    its one cx(message, port), each other one a one-qubit gate. Every other
    instruction before the Bell measures is ``prep``, which runs ahead of
    that cx, so it may not touch the port after it. Every instruction after
    the first Bell measure but the second is ``later``; each, cond bodies
    included, must act on one qubit and each of its measures be terminal."""
    roles = circuit.roles
    if "port" not in roles or "message" not in roles:
        raise SimulationError("circuit lacks role metadata for the protocol")
    mq, pq = roles["message"], roles["port"]
    pre, post, prep, bell, later = [], [], [], [], []
    traced = True
    for ins in circuit.instructions:
        if ins.gate == "barrier":
            continue
        if ins.gate == "measure" and len(bell) < 2:
            bell.append(ins)
        elif bell:
            later.append(ins)
        elif mq in ins.qubits:
            if ins.gate == "cx" and (post or ins.qubits != (mq, pq)) \
                    or ins.gate != "cx" and len(ins.qubits) != 1:
                traced = False
            (post if post or ins.gate == "cx" else pre).append(ins)
        elif post and pq in ins.qubits:
            traced = False
        else:
            prep.append(ins)
    if len(bell) < 2 or {ins.qubits[0] for ins in bell} != {mq, pq} \
            or any({mq, pq} & _touched(ins) for ins in later):
        raise SimulationError("circuit lacks the Bell-measurement structure")
    measures = {id(ins) for ins in later if ins.gate == "measure"}
    if not (traced and post) or any(len(ins.qubits) != 1 for ins in _ops(later)) \
            or not _terminal_measures(later) >= measures:
        return None
    return pre, post, prep, bell, later


def _grouped(support, axes, n: int) -> np.ndarray:
    """The amplitudes of the (basis indices, amplitudes) ``support`` of a
    state over ``n`` axes, grouped by their index bits off ``axes``: a
    (groups, 2^k) array whose row g holds the amplitudes of group g in the
    order of a k-axis block, its first index bit on ``axes[0]``."""
    idx, amp = support
    k = len(axes)
    local = np.zeros_like(idx)
    for a in axes:
        local = local << 1 | (idx >> (n - 1 - a) & 1)
    rest = idx  # its bits off the axes, packed into n - k bits
    for s in sorted((n - 1 - a for a in axes), reverse=True):
        rest = rest >> (s + 1) << s | rest & ((1 << s) - 1)
    # Number the groups with no sort: one entry of each group wins the write
    # of its position into ``owner``; the winners, in support order, are the groups.
    owner = np.empty(1 << (n - k), dtype=np.int64)
    owner[rest] = np.arange(idx.size)
    first = np.flatnonzero(owner[rest] == np.arange(idx.size))
    owner[rest[first]] = np.arange(first.size)
    rows = np.zeros((first.size, 1 << k), dtype=amp.dtype)
    rows[owner[rest], local] = amp
    return rows


def _prep_state(gates, axis: dict[int, int], start=None, draw=None,
                floor: float = _FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """The pure state over the axes of ``axis`` after the unitary ``gates``,
    as the (basis indices, amplitudes) of its support, from |0...0> or from
    the support ``start``, which is left unchanged.

    The support is walked in phases. A mixing gate (ry, h, sx) on bit q
    pairs it on q through an ``owner`` table of 2^n entries into two rows
    (bit q = 0, 1), a column per entry keyed by its index with bit q clear.
    Until a mixing gate on another bit or a cx controlled by q unpairs them,
    dropping amplitudes at or below ``floor``, the gates on q multiply, in
    extended precision, into one 2x2 applied before a cx(c, q) swaps the
    rows of the columns whose key has bit c set, and a z or rz elsewhere
    scales each column by the entry its key selects. A cx off q XORs key
    bits; an x flips a bit of a mask XORed in at the end. Amplitudes are
    complex only if ``start``'s are or a gate is (rz, sx).

    A trajectory's ``damping`` (:func:`_trajectories`) is the no-jump Kraus
    operator diag(1, sqrt(1 - gamma)), gamma its angle, held off the paired
    bit until a gate changes what its bit reads. By the jump rule the walk
    draws r from ``draw`` and, at the damping where the squared norm falls
    below r, applies |0><1| there, renormalizes and draws again; the norm is
    summed only where its bound, a factor 1 - gamma per damping, is below r.
    At gamma = 1, whose no-jump factor clears bit 1, it jumps from the
    state before that factor."""
    bit = {q: len(axis) - 1 - a for q, a in axis.items()}
    kinds = {(ins.gate, ins.angle): ins for ins in gates if ins.gate != "cx"}
    real = not any(gate in ("rz", "sx") for gate, _ in kinds) and (
        start is None or not np.iscomplexobj(start[1]))
    dtype, ext = (float, np.longdouble) if real else (complex, np.clongdouble)
    mats = {k: np.diag([1.0, math.sqrt(1 - k[1])]) if k[0] == "damping"
            else gate_matrix(ins).real if real else gate_matrix(ins) for k, ins in kinds.items()}
    keys, rows = (np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=dtype)) if start is None \
        else (start[0].copy(), start[1].astype(dtype)[None])
    owner = np.empty(1 << len(axis), dtype=np.int32)  # pages are touched only where written
    s, mat, scale, flip = -1, None, None, 0  # paired bit, its 2x2 and column scale; x mask
    bound, r = 1.0, draw() if draw else 0.0  # a lower bound of the squared norm; the jump's r
    lazy = {}  # unpaired bit -> the factors of its dampings where it reads 0 and 1, unapplied

    def settle(bits):
        nonlocal rows
        for b in [b for b in bits if b in lazy]:
            a0, a1 = lazy.pop(b)
            rows = rows * (a0 if a0 == a1 else np.where((keys ^ flip) >> b & 1, a1, a0))

    def amplitudes():
        amps = rows if mat is None else mat.astype(dtype) @ rows
        return amps if scale is None else amps * scale

    def unpair():
        amps = amplitudes().reshape(-1)
        keep = np.flatnonzero(np.abs(amps) > floor)
        return np.concatenate([keys, keys | 1 << s])[keep], amps[None, keep]

    for ins in gates:
        gate, c, t = ins.gate, bit[ins.qubits[0]], bit[ins.qubits[-1]]
        if t in lazy and gate in ("cx", "ry", "h", "sx"):  # gates that change what bit t reads
            settle((t,))
        if s >= 0 and (gate == "cx" and c == s or gate in ("ry", "h", "sx") and t != s):
            (keys, rows), s, mat, scale = unpair(), -1, None, None
        if gate == "damping" and ins.angle == 1:  # its no-jump factor clears bit t
            settle(list(lazy))
            before = unpair() if s >= 0 else (keys, rows)
        if gate == "cx" and t == s:
            rows, mat = rows if mat is None else mat.astype(dtype) @ rows, None
            rows = np.where((keys & 1 << c) != (flip & 1 << c), rows[::-1], rows)
        elif gate == "cx":
            keys ^= (keys >> (c - t) if c > t else keys << (t - c)) & (1 << t)
            flip ^= (flip >> c & 1) << t
        elif gate == "x" and t != s:
            flip ^= 1 << t
            if t in lazy:
                lazy[t].reverse()
        elif gate == "damping" and t != s:
            lazy.setdefault(t, [1.0, 1.0])[1] *= math.sqrt(1 - ins.angle)
        else:
            m = mats[gate, ins.angle]
            if t == s:
                mat = m if mat is None else np.matmul(m, mat, dtype=ext)
            elif gate in ("z", "rz"):
                f = (m.diagonal()[::-1] if flip >> t & 1 else m.diagonal())[keys >> t & 1]
                scale = f if scale is None else scale * f
                rows, scale = (rows * scale, None) if s < 0 else (rows, scale)
            else:  # where the mask flips bit t, the rows are swapped: so are m's columns
                s, mat, flip = t, m[:, ::-1] if flip >> t & 1 else m, flip & ~(1 << t)
                paired, new = keys & ~(1 << t), np.zeros((2, keys.size), dtype=rows.dtype)
                owner[paired] = np.arange(keys.size, dtype=np.int32)
                new.reshape(-1)[(keys >> t & 1) * keys.size + owner[paired]] = rows[0]
                keys, rows = paired, new
        if gate == "damping":
            bound *= 1 - ins.angle
            if bound < r:
                settle(list(lazy))
                amps = amplitudes()
                bound = np.vdot(amps, amps).real
            if bound < r:
                if s >= 0:
                    (keys, rows), s, mat, scale = unpair(), -1, None, None
                keys, rows = before if ins.angle == 1 else (keys, rows)
                one = np.flatnonzero((keys ^ flip) >> t & 1)
                keys, rows = keys[one] ^ 1 << t, rows[:, one]
                rows, bound, r = rows / math.sqrt(np.vdot(rows, rows).real), 1.0, draw()
    settle(list(lazy))
    keys, rows = unpair() if s >= 0 else (keys, rows)
    if any(gate == "damping" for gate, _ in kinds):
        rows = rows / math.sqrt(np.vdot(rows, rows).real)
    return keys ^ flip, rows[0]


# ---------------------------------------------------------------------------
# traced clone states: the prep once, each group's marginal, a small tail
# ---------------------------------------------------------------------------

def _gram(support, keep, n: int) -> np.ndarray:
    """The partial trace of |psi><psi| onto the ordered axis list ``keep``,
    for the state psi over ``n`` qubits with the (basis indices, amplitudes)
    ``support``: V^T V* of its :func:`_grouped` rows V on those axes."""
    rows = _grouped(support, keep, n)
    return rows.T @ rows.conj()


def _cut(later, group) -> list[Instruction]:
    """The ``later`` instructions of a :func:`_protocol_parts` split that act
    on ``group``, cond bodies cut down to it, its (terminal) measures left out."""
    out = []
    for ins in later:
        if ins.gate == "cond":
            body = [sub for sub in ins.body if sub.qubits[0] in group]
            if body:
                out.append(cond(ins.cond_clbit, ins.cond_value, body))
        elif ins.gate != "measure" and ins.qubits[0] in group:
            out.append(ins)
    return out


def _trajectories(prep, axis: dict[int, int], noise: NoiseModel, seed: int, count: int):
    """The first ``count`` trajectories of the noisy ``prep`` over the axes
    of ``axis``, Monte Carlo wavefunctions (Dalibard, Castin and Mølmer, PRL
    68, 580 (1992)) on its support: :func:`_prep_state` of the prep's gates,
    each followed by its :func:`_channels` as trajectory t draws them from
    the Philox stream keyed by (``seed``, t). Depolarizing with probability
    p takes each of the 4^k Paulis on its k qubits with probability p/4^k,
    inserted as z and x (Y = iXZ), from one uniform per channel drawn first;
    damping is a ``damping`` instruction, applied by the walk's jump rule.
    Their mean |psi><psi| is the noisy prep's state, without bias but for
    the amplitudes at or below ``_TRAJECTORY_FLOOR`` that the walk drops."""
    gates, channels = [], []  # the prep with its dampings; each depolarizing (place, qubits, p)
    for ins in prep:
        gates.append(ins)
        for kind, qubits, p in _channels(ins, noise):
            if kind == "damping":
                gates.append(Instruction("damping", qubits, angle=p))
            else:
                channels.append((len(gates), qubits, p))
    probs = np.array([p for _, _, p in channels])
    for t in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
        u = rng.random(len(channels))
        walked, done = [], 0
        for k in np.flatnonzero(u < probs).tolist():
            place, qubits, p = channels[k]
            pauli = min(int(u[k] * 4 ** len(qubits) / p), 4 ** len(qubits) - 1)
            walked += gates[done:place]
            done = place
            for q, a in zip(qubits, divmod(pauli, 4)[2 - len(qubits):]):  # first qubit leads
                walked += [Instruction(g, (q,)) for g in _PAULI_GATES[a]]
        yield _prep_state(walked + gates[done:], axis, draw=rng.random, floor=_TRAJECTORY_FLOOR)


def _traced(circuit: Circuit, groups, noise: NoiseModel | None = None, seed: int = 0):
    """Each ordered qubit tuple in ``groups`` of a protocol circuit as a
    linear map of its message: a (2, 2, 2^k, 2^k) array R, the group being
    in the state sum_ij rho[i, j] R[i, j] when the message's gates before
    its Bell cx leave it in rho, with a leading trajectory axis when the
    prep ran as trajectories; None when :func:`_protocol_parts` finds that
    they cannot be traced first.

    A group sees the prep, run once over every qubit but the message, only
    through its marginal with the port: a pure support (:func:`_prep_state`)
    when no :func:`_channels` entry follows its gates, a density matrix
    within ``_DENSITY_QUBIT_CAP`` qubits, and past it trajectories keyed by
    ``seed``. Each group's tail (the message's instructions from its Bell cx
    on, the Bell measures and the group's own later ones, :func:`_cut`) runs
    over (message, port, group) from |i><j| (x) the marginal, the inputs and
    the trajectories a batch, through :func:`_density_walk`."""
    eye = np.eye(2, dtype=complex)
    noise = NoiseModel() if noise is None else noise
    position = _validated(circuit)
    if "clones" not in circuit.roles:
        raise SimulationError("circuit lacks role metadata for the protocol")
    parts = _protocol_parts(circuit)
    mq, pq = circuit.roles["message"], circuit.roles["port"]
    gone = sorted({q for group in groups for q in group} - (position.keys() - {mq, pq}))
    if gone:
        raise SimulationError(f"no state for qubits {gone}: the circuit does "
                              "not use them or measures them")
    repeated = sorted({q for group in groups for q in group if group.count(q) > 1})
    if repeated:
        raise SimulationError(f"qubits {repeated} are repeated in a group")
    if parts is None:
        return None
    _, post, prep, bell, later = parts
    axis = {q: k for k, q in enumerate(q for q in position if q != mq)}
    keeps = [tuple(axis[q] for q in (pq, *group)) for group in groups]
    p, blocks = len(axis), {}
    if not noise.any_gate_noise() or not any(_channels(ins, noise) for ins in prep):
        state = _prep_state(prep, axis)
        marginals = [_gram(state, keep, p) for keep in keeps]
    elif p <= _DENSITY_QUBIT_CAP:
        rho = _density_walk([_remap(ins, axis) for ins in prep], p, 0, noise,
                            _ground(2 * p).reshape(1 << p, 1 << p), blocks)
        marginals = [partial_trace(rho, keep) for keep in keeps]
    else:
        per = [[_gram(state, keep, p) for keep in keeps]
               for state in _trajectories(prep, axis, noise, seed, _TRAJECTORIES)]
        marginals = list(map(np.stack, zip(*per)))
    maps = []
    for group, marginal in zip(groups, marginals):  # marginal: ([trajectory,] x, y)
        n, k, batch = 2 + len(group), 1 << len(group), marginal.shape[:-2]
        tail_axis = {mq: 0, pq: 1, **{q: 2 + r for r, q in enumerate(group)}}
        gates = [_remap(ins, tail_axis) for ins in post + bell + _cut(later, group)]
        start = np.einsum("ia,jb,...xy->ixjyab...", eye, eye, marginal, order="C")
        after = _density_walk(gates, n, circuit.num_clbits, noise,
                              start.reshape(1 << n, 1 << n, 2, 2, *batch), blocks)
        out = np.einsum("axay...->...xy", after.reshape(4, k, 4, k, 2, 2, *batch))
        maps.append(np.moveaxis(out, (0, 1), (-4, -3)))
    return maps


def _exact_states(circuit: Circuit, groups) -> list[np.ndarray]:
    """The noiseless state of each group of a protocol circuit that measures
    only its Bell pair: its :func:`_traced` map applied to its message's
    state, or, when it cannot be traced first, the sum of the :func:`_gram`
    traces of its :func:`_full_walk` branch supports."""
    if sum(ins.gate == "measure" for ins in circuit.instructions) > 2:
        raise SimulationError("circuit lacks the Bell-measurement structure")
    traced = _traced(circuit, groups)
    if traced is not None:
        rho = message_state(_pre_gates(circuit), NoiseModel(), {})
        return [np.tensordot(rho, r) for r in traced]
    position = _compaction(circuit)
    walked, _ = _full_walk(circuit, position)
    return [sum(_gram(support, [position[q] for q in group], len(position))
                for _, support in walked) for group in groups]


def exact_clone_states(circuit: Circuit):
    """Deterministic per-clone density matrices of a protocol circuit,
    summed over the four Bell outcomes, each with its feed-forward
    corrections (:func:`_exact_states`); noiseless, tomo_basis="none"."""
    return _exact_states(circuit, [(q,) for q in circuit.roles.get("clones", ())])


def exact_subsystem_state(circuit: Circuit, qubits) -> np.ndarray:
    """Branch-averaged reduced density matrix on the given original qubits."""
    return _exact_states(circuit, [tuple(qubits)])[0]


def _pre_gates(circuit: Circuit) -> list[Instruction]:
    """The message's own gates before its Bell cx in a protocol circuit that
    :func:`_protocol_parts` can trace first, moved to qubit 0."""
    return [_remap(ins, {circuit.roles["message"]: 0}) for ins in _protocol_parts(circuit)[0]]


def compile_response(circuit: Circuit, noise: NoiseModel | None = None,
                     seed: int = 0) -> np.ndarray:
    """The clone response of a protocol circuit with M clones: an (M, 2, 2,
    2, 2) array R, clone k being in the state sum_ij rho[i, j] R[k, i, j]
    when the message's own gates before the Bell cx leave it in the state
    rho (:func:`message_state` of those gates). No other gate depends on the
    message, so one response serves every message of the same (m, variant,
    layout, dd). R stacks each clone's :func:`_traced` map, the state before
    its terminal measures. Under gate noise past the density cap, R is the
    mean of ``_TRAJECTORIES`` trajectories' responses, keyed by ``seed``
    (:func:`_compiled`)."""
    return _compiled(circuit, noise, seed)[0]


def _compiled(circuit: Circuit, noise: NoiseModel | None = None, seed: int = 0):
    """The :func:`compile_response` R of ``circuit``, and each trajectory's
    response when its prep ran as trajectories (a (K, M, 2, 2, 2, 2) array
    whose mean over its first axis is R), else None."""
    maps = _traced(circuit, [(q,) for q in circuit.roles.get("clones", ())], noise, seed)
    if maps is None:
        raise SimulationError("the clone states of this circuit cannot be traced "
                              "before its feed-forward")
    response = np.stack(maps, axis=-5)
    return (response, None) if response.ndim == 5 else (response.mean(axis=0), response)


def apply_response(response: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The (M, 2, 2) clone states of a :func:`compile_response` for the
    message state ``rho``. The response is contracted in C order, so the
    rounding does not depend on how it is laid out in memory."""
    return np.tensordot(rho, np.ascontiguousarray(response), axes=([0, 1], [1, 2]))


def statevector(circuit: Circuit) -> np.ndarray:
    """Final statevector of a measurement-free circuit, over its compacted
    qubits: the one support of its :func:`_full_walk`, scattered."""
    position = _validated(circuit)
    if any(i.gate in ("measure", "cond") for i in circuit.instructions):
        raise SimulationError("statevector requires a measurement-free circuit")
    ((_, (idx, amp)),), _ = _full_walk(circuit, position)
    psi = np.zeros(1 << len(position), dtype=complex)
    psi[idx] = amp
    return psi


# ---------------------------------------------------------------------------
# shot sampling
# ---------------------------------------------------------------------------

def _check_int(name: str, value, low: int, stop: float = math.inf) -> None:
    """Refuse ``value`` unless it is an integer (a bool is not) in [low, stop)."""
    if not _is_int(value) or not low <= value < stop:
        raise SimulationError(f"{name} must be an integer in [{low}, {stop}), got {value!r}")


def _outcome_table(circuit: Circuit, position: dict[int, int],
                   noise: NoiseModel | None = None) -> dict[str, float]:
    """The probability of every string of recorded bits of a valid circuit
    that can occur, each nonzero one keyed in branch, then outcome order:
    each branch's bits, with the outcomes of its deferred measures summed
    off its state by one ``np.bincount`` (the first deferred measure's bit
    the most significant), each flipped with probability readout_flip. The
    branches are the pure supports of its :func:`_full_walk` without gate
    noise, which flips each bit it splits on too, so a flipped bit drives
    the conds; under gate noise, its whole :func:`_density_branches`."""
    noise = NoiseModel() if noise is None else noise
    n, flip = len(position), noise.readout_flip
    if noise.any_gate_noise():
        _validated(circuit, _DENSITY_QUBIT_CAP, "a density matrix")
        circuit = compact(circuit)
        terminal = _terminal_measures(circuit.instructions)
        deferred = [(i.qubits[0], i.clbit) for i in circuit.instructions if id(i) in terminal]
        walked = _density_branches(circuit.instructions, n, circuit.num_clbits, noise,
                                   _ground(2 * n).reshape(1 << n, 1 << n), {})
        branches = [(bits, (np.arange(1 << n), rho.diagonal().real)) for bits, rho in walked]
    else:
        walked, deferred = _full_walk(circuit, position, flip)
        deferred = [(position[q], c) for q, c in deferred]
        branches = [(bits, (idx, amp.real ** 2 + amp.imag ** 2)) for bits, (idx, amp) in walked]
    last, width = len(deferred) - 1, circuit.num_clbits
    table: dict[str, float] = {}
    for bits, (idx, weight) in branches:
        outcomes = np.zeros_like(idx)
        for a, _ in deferred:
            outcomes = outcomes << 1 | idx >> (n - 1 - a) & 1
        probs = np.bincount(outcomes, weight, 1 << len(deferred))
        for k in range(len(deferred) if flip else 0):
            pair = probs.reshape(1 << k, 2, -1)
            probs = ((1 - flip) * pair + flip * pair[:, ::-1]).reshape(-1)
        kept = np.flatnonzero(probs)
        keys = np.tile(np.array(bits, dtype=np.uint8) + ord("0"), (kept.size, 1))
        for k, (_, c) in enumerate(deferred):
            keys[:, c] = (kept >> (last - k) & 1) + ord("0")
        text = keys.tobytes().decode()
        for row, p in enumerate(probs[kept].tolist()):
            key = text[row * width:(row + 1) * width]
            table[key] = table.get(key, 0.0) + p
    return table


def run_shots(circuit: Circuit, shots: int, seed: int,
              noise: NoiseModel | None = None) -> dict[str, int]:
    """Sample measurement outcomes. Identical (circuit, shots, seed, noise)
    inputs give identical counts; the total always equals ``shots``. The
    counts are one multinomial draw, from the Philox stream keyed by
    ``seed``, over the circuit's exact :func:`_outcome_table`: of its pure
    walk without gate noise (a readout flip alone included), and under gate
    noise of its density matrix, refused past ``_DENSITY_QUBIT_CAP`` qubits
    with a SimulationError."""
    _check_int("shots", shots, 1, _SHOTS_STOP)
    _check_int("seed", seed, 0, 1 << 64)
    position = _validated(circuit)
    table = _outcome_table(circuit, position, noise)
    probs = np.array(list(table.values()))
    drawn = np.random.Generator(np.random.Philox(key=np.uint64(seed))).multinomial(
        shots, probs / probs.sum())
    return {key: int(k) for key, k in sorted(zip(table, drawn)) if k}


# ---------------------------------------------------------------------------
# noise: one placement rule, evolved exactly or drawn per trajectory
# ---------------------------------------------------------------------------

def _channels(ins: Instruction, noise: NoiseModel) -> list[tuple]:
    """The channels that follow one gate, in the order they act, each a
    (kind, qubits, parameter) entry: none after the virtual ``rz``; after any
    other gate ("depolarizing", its qubits, p) when p > 0, p being
    depolarizing_2q after ``cx`` (its two qubits jointly) and depolarizing_1q
    otherwise, then ("damping", (q,), gamma) on each of its qubits q when
    amplitude_damping_idle is set."""
    if ins.gate == "rz":
        return []
    p = noise.depolarizing_2q if ins.gate == "cx" else noise.depolarizing_1q
    gamma = noise.amplitude_damping_idle
    channels = [("depolarizing", ins.qubits, p)] if p > 0 else []
    return channels + [("damping", (q,), gamma) for q in ins.qubits if gamma]


def _damping(gamma: float) -> np.ndarray:
    """The superoperator of amplitude damping, whose Kraus operators are
    diag(1, sqrt(1 - gamma)) and sqrt(gamma) |0><1|."""
    c = math.sqrt(1 - gamma)
    return np.array([[1, 0, 0, gamma], [0, c, 0, 0], [0, 0, c, 0], [0, 0, 0, 1 - gamma]],
                    dtype=complex)


def _depolarizing(p: float, k: int) -> np.ndarray:
    """The superoperator of k-qubit depolarizing, which replaces the state
    by I/2^k with probability p: rho -> (1 - p) rho + p Tr(rho) I/2^k."""
    eye = np.eye(1 << k).reshape(-1)
    return (1 - p) * np.eye(1 << 2 * k) + p / (1 << k) * np.outer(eye, eye)


def _noisy_block(ins: Instruction, noise: NoiseModel, n: int) -> tuple:
    """One gate of the density walk with the :func:`_channels` that follow
    it, on a density matrix over ``n`` qubits read as a vector over 2n: the
    superoperator U (x) U* of the gate, then each channel's in turn."""
    k, u = len(ins.qubits), gate_matrix(ins)
    superop = np.kron(u, u.conj()) + 0  # + 0 turns its -0.0 entries into the blocks' 0.0
    for kind, qubits, param in _channels(ins, noise):
        if kind == "depolarizing":
            superop = _depolarizing(param, k) @ superop
        else:  # on superop's rows, its columns a batch axis
            b = ins.qubits.index(qubits[0])
            _apply_block(superop, _block(_damping(param), [b, k + b]))
    return _block(superop, [*ins.qubits, *(q + n for q in ins.qubits)])


def _density_walk(instructions, n: int, num_clbits: int, noise: NoiseModel,
                  rho: np.ndarray, blocks: dict) -> np.ndarray:
    """The :func:`_density_branches` of its arguments summed from the first
    on, so that one branch is returned as walked, its signed zeros kept."""
    branches = _density_branches(instructions, n, num_clbits, noise, rho, blocks)
    return sum((state for _, state in branches[1:]), branches[0][1])


def _density_branches(instructions, n: int, num_clbits: int, noise: NoiseModel,
                      rho: np.ndarray, blocks: dict) -> list:
    """The (recorded bits, state) branches of the density walk of
    ``instructions`` over ``n`` qubits from ``rho``, a (2^n, 2^n) array
    whose trailing axes are a batch. Each gate runs with its noise as one
    :func:`_noisy_block`, kept in ``blocks`` by qubit count for later walks
    under the same ``noise``; a measure splits every branch on its outcome,
    records it flipped with probability readout_flip, merges branches with
    the same bits and drops one only when its whole batch has zero weight.
    Terminal measures are deferred: the state is the one before them."""
    flip = noise.readout_flip
    terminal = _terminal_measures(instructions)

    def measure(branches, ins):
        if id(ins) in terminal:
            return branches
        q = ins.qubits[0]
        merged: dict[tuple, np.ndarray] = {}
        for bits, state in branches:
            for outcome in (0, 1):
                proj = _project(state, (q, q + n), outcome)
                if np.abs(np.trace(proj)).sum() <= 1e-24:
                    continue
                for recorded, scale in ((outcome, 1 - flip), (1 - outcome, flip)):
                    if scale <= 0:
                        continue
                    key = _set_bit(bits, ins.clbit, recorded)
                    merged[key] = merged[key] + proj * scale if key in merged \
                        else proj * scale
        return list(merged.items())

    return _walk(instructions, [((0,) * num_clbits, rho)],
                 _block_rule(instructions, lambda ins: _noisy_block(ins, noise, n),
                             blocks.setdefault(n, {})),
                 measure)


def noisy_clone_states(circuit: Circuit, noise: NoiseModel):
    """Exact density-matrix counterpart of :func:`exact_clone_states` under a
    static noise model, the whole circuit walked from |0...0>: the
    per-circuit oracle of noisy responses."""
    _validated(circuit, _DENSITY_QUBIT_CAP, "a density matrix")
    circuit = compact(circuit)
    if any(i.gate == "measure" and i.qubits[0] in circuit.roles.get("clones", ())
           for i in circuit.instructions):
        raise SimulationError("noisy_clone_states requires tomo_basis='none'")
    n = circuit.num_qubits
    rho = _density_walk(circuit.instructions, n, circuit.num_clbits, noise,
                        _ground(2 * n).reshape(1 << n, 1 << n), {})
    return [partial_trace(rho, [q]) for q in circuit.roles["clones"]]


def message_state(gates, noise: NoiseModel, blocks: dict) -> np.ndarray:
    """The 2 x 2 noisy state, from |0><0|, of a protocol circuit's message
    after ``gates``, its own gates before its Bell cx moved to qubit 0 (the
    ``pre`` of :func:`_protocol_parts`), the blocks kept in ``blocks``."""
    return _density_walk(gates, 1, 0, noise, _ground(2).reshape(2, 2), blocks)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def partial_trace(rho: np.ndarray, keep, num_qubits: int | None = None) -> np.ndarray:
    """Standard partial trace of a square density matrix, whose side is a
    power of two, onto the ordered list ``keep`` of distinct qubits."""
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if dim < 1 or dim & (dim - 1) or rho.shape != (dim, dim):
        raise SimulationError(f"density matrix of shape {rho.shape} is not square "
                              "with a power of two side")
    n, keep = dim.bit_length() - 1, list(keep)
    if any(q not in range(n) for q in keep) or len(set(keep)) < len(keep):
        raise SimulationError(f"qubits {keep} out of range or repeated for {n} qubits")
    if not keep or num_qubits not in (None, n):
        raise SimulationError(f"keep set {keep} is empty, or the state is over {n} "
                              f"qubits, not {num_qubits}")
    tensor = rho.reshape((2,) * (2 * n))
    order = keep + [q for q in range(n) if q not in keep]
    full_order = order + [q + n for q in order]
    tensor = np.transpose(tensor, full_order)
    k = len(keep)
    tensor = tensor.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
    return np.einsum("ajbj->ab", tensor)
