"""Pure-state, trajectory and density-matrix simulation with mid-circuit
measurement, feed-forward, seeded shot sampling and configurable noise.

Conventions: qubit 0 is the most significant bit of the state index; counts
keys list classical bits ascending left-to-right. A pure state is strictly
noiseless and carried on its sparse support; noise runs either as
stochastic Kraus unravelling (Monte Carlo wavefunction trajectories, one
per shot, on dense blocks) or as exact density-matrix evolution.

One interpreter, :func:`_walk`, runs every mode. It carries a list of
(classical bits, state) branches through the instructions and runs each
cond body only on the branches whose bit matches. Each mode supplies how a
gate acts on its state and how a measurement changes the branch list: the
pure walk splits every branch's support into both outcomes and defers
terminal measurements to the final distribution, the density walk
defers them too and splits and merges readout-flip branches, and the
trajectory mode samples every shot's outcome and splits its shots by the
recorded bit.
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

The resource state does not depend on the message, and after the Bell cx
only one-qubit gates touch a clone, so a protocol circuit's clone states
are traced before its feed-forward (Murao et al., PRA 59, 156 (1999)).
:func:`_traced` runs the prep once over every qubit but the message, a pure
state without noise and a density matrix with it, takes each group's
marginal with the port and runs a small tail over (message, port, group):
the message's gates from its Bell cx on, the Bell measures and the group's
own later gates, with the four message inputs |i><j| as a batch. Noise
acts on a gate's own qubits only, so every clone state is linear in the
message's state after its own gates (:func:`message_state` walks them
alone), and one :func:`compile_response` call serves every message of a sweep
(:func:`apply_response`) and every tomography basis: circuits whose preps
are equal share one prep run, and all the density walks of the call share
one dict of blocks. :func:`exact_clone_states` contracts a response with the
circuit's own message, and noiseless tomography draws each clone's counts
from its contracted state. Any other circuit, and noiseless
:func:`run_shots`, is walked in full from |0...0> on the support of each
branch, its instructions read where they lie and its qubits through their
compaction map (:func:`_full_walk`).

One kernel, :func:`_apply_block`, applies every gate and channel matrix
of a density or trajectory walk, as a :func:`_block` built once per
distinct instruction of a circuit (:func:`_block_rule`): only the slices of
its non-identity rows are written, each from the slices its nonzero entries
name, so an X is a half swap, a Z a sign flip and a controlled gate touches
only the half where its control is set. Trailing axes are batch axes, so
one block serves a trajectory block's shots in its columns and a density
matrix read as a vector over 2n qubits, where a gate with its noise is one
superoperator block sum_K K (x) K* on the axes (q..., q+n...).

A pure state is never walked dense. A resource prep is a sum of
Dicke-state products (Bärtschi and Eidenbenz, FCT 2019), nonzero on a
sliver of the 2^n basis states: 2^(M+1) - 2 of them for the optimized
resource, C(2M, M) for the full one. :func:`_prep_state` carries the state
as the (basis indices, amplitudes) of its support and walks it in phases,
each one pairing of the entries on a qubit, which lasts through a
split-and-cyclic-shift block (rotations and cx on one target). A traced
marginal is a Gram product of the amplitudes grouped by their index bits
off its axes (:func:`_grouped`, :func:`_gram`). A full walk keeps each
branch as such a support, which a measure splits by the measured bit; only
:func:`statevector` scatters one into a dense state.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Instruction, _is_int, check, cond
from .exceptions import SimulationError
from .hardware import _DENSITY_QUBIT_CAP, DEFAULT_QUBIT_CAP, NoiseModel

_BRANCH_CAP = 4096
_BLOCK_AMPLITUDES = 1 << 18  # shots x 2^n of one block of noisy trajectories
_FLOOR = 1e-14  # prep amplitudes at or below this are rounding residue, dropped

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # over (control, target)
_PAULIS_1Q = (np.eye(2, dtype=complex), _X, _Y, _Z)


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
    diagonal one first)). The entries keep the dtype of ``mat``: a complex
    state multiplies fastest by complex scalars."""
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


def _block_rule(instructions, build=lambda ins: _block(gate_matrix(ins), ins.qubits),
                built=None):
    """``apply`` of a :func:`_walk` of ``instructions``, whose qubits are
    state axes: each gate, cond bodies included, runs as the block that
    ``build`` makes of it (by default its own matrix), built once per
    distinct instruction into ``built`` (a new dict unless one is given), so
    repeated decoupling pulses share one, and so do the walks that share
    ``built``."""
    built = {} if built is None else built
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


def _full_walk(circuit: Circuit, position: dict[int, int]):
    """Walk a valid circuit in full from |0...0> with its terminal measures
    deferred, its qubits read through their :func:`_compaction` ``position``:
    (the (clbits, support) branches, each support the (basis indices,
    amplitudes) of a pure state over the compacted qubits, and the deferred
    (qubit, clbit) pairs in circuit order). The gates before its first
    measure or cond run as one :func:`_prep_state`, and each later gate as
    its own, from its branch's support. A measure splits every support by
    the measured bit and drops an outcome of zero weight."""
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
                    out.append((_set_bit(bits, ins.clbit, outcome), (idx[kept], amp[kept])))
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
    included, must act on one qubit and each of its measures be terminal.
    """
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
    # Number the groups in time linear in the support, with no sort: one
    # entry of each group wins the write of its position into ``owner``, and
    # the winners, in support order, are the groups.
    owner = np.empty(1 << (n - k), dtype=np.int64)
    owner[rest] = np.arange(idx.size)
    first = np.flatnonzero(owner[rest] == np.arange(idx.size))
    owner[rest[first]] = np.arange(first.size)
    rows = np.zeros((first.size, 1 << k), dtype=amp.dtype)
    rows[owner[rest], local] = amp
    return rows


def _prep_state(gates, axis: dict[int, int], start=None) -> tuple[np.ndarray, np.ndarray]:
    """The pure state over the axes of ``axis`` after the unitary ``gates``,
    as the (basis indices, amplitudes) of its support, from |0...0> or from
    the support ``start``, which is left unchanged.

    The support is walked in phases. A mixing gate (ry, h, sx) on bit q
    pairs it on q through an ``owner`` table of 2^n entries into two rows
    (bit q = 0, 1), a column per entry keyed by its index with bit q clear:
    a pair shares the column of the entry that wins the write at its key,
    the other columns stay zero. Until a mixing gate on another bit or a cx
    controlled by q unpairs them, dropping rounding residue at or below
    ``_FLOOR``, the gates on q multiply, in extended precision, into one
    2x2 applied before a cx(c, q) swaps the rows of the columns whose key
    has bit c set, and a z or rz elsewhere scales each column by the entry
    its key selects. A cx off q XORs key bits; an x flips a bit of a mask
    XORed in at the end. Amplitudes are complex only if ``start``'s are or
    a gate is (rz, sx)."""
    bit = {q: len(axis) - 1 - a for q, a in axis.items()}
    kinds = {(ins.gate, ins.angle): ins for ins in gates if ins.gate != "cx"}
    real = not any(gate in ("rz", "sx") for gate, _ in kinds) and (
        start is None or not np.iscomplexobj(start[1]))
    dtype, ext = (float, np.longdouble) if real else (complex, np.clongdouble)
    mats = {k: gate_matrix(ins).real if real else gate_matrix(ins) for k, ins in kinds.items()}
    keys, rows = (np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=dtype)) if start is None \
        else (start[0].copy(), start[1].astype(dtype)[None])
    owner = np.empty(1 << len(axis), dtype=np.int32)  # pages are touched only where written
    s, mat, scale, flip = -1, None, None, 0  # paired bit, its 2x2 and column scale; x mask

    def unpair():
        amps = rows if mat is None else mat.astype(dtype) @ rows
        amps = (amps if scale is None else amps * scale).reshape(-1)
        keep = np.flatnonzero(np.abs(amps) > _FLOOR)
        return np.concatenate([keys, keys | 1 << s])[keep], amps[None, keep]

    for ins in gates:
        gate, c, t = ins.gate, bit[ins.qubits[0]], bit[ins.qubits[-1]]
        if s >= 0 and (gate == "cx" and c == s or gate in ("ry", "h", "sx") and t != s):
            (keys, rows), s, mat, scale = unpair(), -1, None, None
        if gate == "cx" and t == s:
            rows, mat = rows if mat is None else mat.astype(dtype) @ rows, None
            rows = np.where((keys & 1 << c) != (flip & 1 << c), rows[::-1], rows)
        elif gate == "cx":
            keys ^= (keys >> (c - t) if c > t else keys << (t - c)) & (1 << t)
            flip ^= (flip >> c & 1) << t
        elif gate == "x" and t != s:
            flip ^= 1 << t
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
    keys, rows = unpair() if s >= 0 else (keys, rows)
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


def _traced(jobs, noise: NoiseModel | None = None) -> list:
    """For each (protocol circuit, groups) pair of ``jobs``, each ordered
    qubit tuple in its ``groups`` as a linear map of its message: a (2, 2,
    2^k, 2^k) array R, the group being in the state sum_ij rho[i, j] R[i, j]
    when the message's gates before its Bell cx leave it in rho
    (:func:`message_state`). None in place of a circuit's maps when
    :func:`_protocol_parts` finds that they cannot be traced first.

    After the Bell cx only one-qubit gates touch a clone, and noise acts on
    a gate's own qubits, so a group sees the prep only through its marginal
    with the port. A prep runs once over every qubit but the message:
    without ``noise`` (None, or every channel zero) as the support of a
    pure state (:func:`_prep_state`), whose marginals are :func:`_gram`
    products, and with it as a density matrix over at most
    ``_DENSITY_QUBIT_CAP`` qubits, whose marginals are partial traces.
    Circuits whose prep instructions are equal and act on the same axes, as
    the tomography bases of one circuit do, share that run; any other prep
    runs on its own. Each group's tail then runs over (message, port,
    group), from |i><j| (x) the marginal with the four message inputs as a
    batch, through :func:`_density_walk`: the message's instructions from
    its Bell cx on, the Bell measures and the group's own later instructions
    (:func:`_cut`). Every density walk of the call shares one dict of
    blocks, so each distinct (instruction, qubit count) is built once."""
    eye = np.eye(2, dtype=complex)
    noise = noise if noise is not None and noise.any_noise() else None
    tail_noise = NoiseModel() if noise is None else noise
    preps, blocks, out = [], {}, []
    for circuit, groups in jobs:
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
            out.append(None)
            continue
        _, post, prep, bell, later = parts
        axis = {q: k for k, q in enumerate(q for q in position if q != mq)}
        p = len(axis)
        state = next((s for a, g, s in preps if a == axis and g == prep), None)
        if state is None:
            if noise is None:
                state = _prep_state(prep, axis)
            elif p > _DENSITY_QUBIT_CAP:
                raise SimulationError(f"a density matrix over {p} qubits exceeds the "
                                      f"{_DENSITY_QUBIT_CAP}-qubit cap")
            else:
                state = _density_walk([_remap(ins, axis) for ins in prep], p, 0, noise,
                                      _ground(2 * p).reshape(1 << p, 1 << p), blocks)
            preps.append((axis, prep, state))
        maps = []
        for group in groups:
            n, k = 2 + len(group), 1 << len(group)
            keep = [axis[q] for q in (pq, *group)]
            marginal = _gram(state, keep, p) if noise is None else partial_trace(state, keep)
            tail_axis = {mq: 0, pq: 1, **{q: 2 + r for r, q in enumerate(group)}}
            tail = [_remap(ins, tail_axis) for ins in post + bell + _cut(later, group)]
            start = np.einsum("ia,jb,xy->ixjyab", eye, eye, marginal, order="C")
            after = _density_walk(tail, n, circuit.num_clbits, tail_noise,
                                  start.reshape(1 << n, 1 << n, 2, 2), blocks)
            maps.append(np.einsum("axay...->...xy", after.reshape(4, k, 4, k, 2, 2)))
        out.append(maps)
    return out


def _exact_states(circuit: Circuit, groups) -> list[np.ndarray]:
    """The noiseless state of each group of a protocol circuit that measures
    only its Bell pair: its :func:`_traced` map applied to its message's
    state, or, when it cannot be traced first, the sum of the :func:`_gram`
    traces of its :func:`_full_walk` branch supports."""
    if sum(ins.gate == "measure" for ins in circuit.instructions) > 2:
        raise SimulationError("circuit lacks the Bell-measurement structure")
    (traced,) = _traced([(circuit, groups)])
    if traced is not None:
        mq = circuit.roles["message"]
        pre = [_remap(ins, {mq: 0}) for ins in _protocol_parts(circuit)[0]]
        rho = message_state(pre, NoiseModel(), {})
        return [np.tensordot(rho, r) for r in traced]
    position = _compaction(circuit)
    walked, _ = _full_walk(circuit, position)
    return [sum(_gram(support, [position[q] for q in group], len(position))
                for _, support in walked) for group in groups]


def exact_clone_states(circuit: Circuit):
    """Deterministic per-clone density matrices of a protocol circuit,
    summed over the four Bell outcomes, each with its feed-forward
    corrections (:func:`_exact_states`); noiseless semantics only. Requires
    tomo_basis="none".
    """
    return _exact_states(circuit, [(q,) for q in circuit.roles.get("clones", ())])


def exact_subsystem_state(circuit: Circuit, qubits) -> np.ndarray:
    """Branch-averaged reduced density matrix on the given original qubits."""
    return _exact_states(circuit, [tuple(qubits)])[0]


def compile_response(circuits, noise: NoiseModel | None = None) -> np.ndarray:
    """The clone responses of a sequence of protocol circuits with one clone
    count M: a (len(circuits), M, 2, 2, 2, 2) array R, clone k of circuit c
    being in the state sum_ij rho[i, j] R[c, k, i, j] when the message's own
    gates before the Bell cx leave it in the state rho
    (:func:`message_state` of those gates). No other gate depends on the
    message, so one response serves every message of the same (m, variant,
    layout, dd, tomography basis).

    R stacks each clone's :func:`_traced` map, its terminal measures
    deferred: the state before them. The circuits share one :func:`_traced`
    call, so the tomography bases of one circuit run its prep once. This
    requires circuits that :func:`_protocol_parts` can trace first and, with
    ``noise``, preps within the density cap.
    """
    traced = _traced([(c, [(q,) for q in c.roles.get("clones", ())]) for c in circuits], noise)
    if any(maps is None for maps in traced):
        raise SimulationError("the clone states of this circuit cannot be traced "
                              "before its feed-forward")
    if len({len(maps) for maps in traced}) != 1:
        raise SimulationError("compile_response needs one or more circuits of one clone count")
    return np.stack([np.stack(maps) for maps in traced])


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


def _outcome_table(circuit: Circuit, position: dict[int, int]) -> dict[str, float]:
    """The probability of every string of recorded bits of a valid circuit
    that can occur, with no noise: each :func:`_full_walk` branch's bits,
    with the outcomes of its deferred measures summed off its support by one
    ``np.bincount`` over their bits (the first deferred measure's the most
    significant) and keyed as the rows of one array of digits. Only nonzero
    outcomes are keyed, in branch, then outcome order."""
    branches, deferred = _full_walk(circuit, position)
    n, last, width = len(position), len(deferred) - 1, circuit.num_clbits
    table: dict[str, float] = {}
    for bits, (idx, amp) in branches:
        outcomes = np.zeros_like(idx)
        for q, _ in deferred:
            outcomes = outcomes << 1 | idx >> (n - 1 - position[q]) & 1
        probs = np.bincount(outcomes, amp.real ** 2 + amp.imag ** 2, 1 << len(deferred))
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
    inputs give identical counts; the total always equals ``shots``.

    Without noise, the counts are one multinomial draw, from the Philox
    stream keyed by ``seed``, over the circuit's exact outcome table
    (:func:`_outcome_table`), which walks the whole circuit as the support
    of a pure state and splits it at every measure that a later gate or
    cond depends on.
    Under noise every shot is a Monte Carlo wavefunction trajectory, run in
    blocks of shots (see :func:`_trajectory_counts`).
    """
    _check_int("shots", shots, 1)
    _check_int("seed", seed, 0, 1 << 64)
    position = _validated(circuit)
    if noise is not None and noise.any_noise():
        counts = _trajectory_counts(compact(circuit), noise, seed, 0, shots)
        return dict(sorted(counts.items()))
    table = _outcome_table(circuit, position)
    probs = np.array(list(table.values()))
    drawn = np.random.Generator(np.random.Philox(key=np.uint64(seed))).multinomial(
        shots, probs / probs.sum())
    return {key: int(k) for key, k in sorted(zip(table, drawn)) if k}


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


def _superop(kraus) -> np.ndarray:
    """sum_K K (x) K*: the channel on a density matrix read as a vector,
    its row qubits before its column qubits."""
    return sum(np.kron(K, K.conj()) for K in kraus)


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


def _channel_block(superop: np.ndarray, qubits, n: int) -> tuple:
    """The block of a :func:`_superop` on ``qubits`` of a density matrix
    over ``n`` qubits, read as a vector over 2n."""
    return _block(superop, [*qubits, *(q + n for q in qubits)])


def _noisy_block(ins: Instruction, noise: NoiseModel, n: int) -> tuple:
    """One gate of the density walk with the noise that follows it
    (:func:`_noise_after`): the gate, depolarizing on its qubits jointly,
    then amplitude damping on each of its qubits in turn."""
    k = len(ins.qubits)
    p, gamma = _noise_after(ins, noise)
    superop = _superop([gate_matrix(ins)])
    if p > 0:
        superop = _depolarizing(p, k) @ superop
    for b in range(k if gamma else 0):  # on superop's rows, its columns a batch axis
        _apply_block(superop, _block(_damping(gamma), [b, k + b]))
    return _channel_block(superop, ins.qubits, n)


def _slot_schedule(instructions, noise: NoiseModel):
    """Offset of every instruction's first uniform in a shot's row, keyed by
    ``id`` (cond bodies included; :func:`compact` makes every instruction
    its own object), and the row width. A measurement reads one uniform for
    its outcome and one for its readout flip; a gate, one for its
    depolarizing Pauli and one per qubit for amplitude damping. A shot that
    skips a cond body leaves the body's slots unread, so every shot reads
    the same slot for the same instruction whatever its branch."""
    slots, width = {}, 0
    for ins in _ops(instructions):
        slots[id(ins)] = width
        if ins.gate == "measure":
            width += 1 + (noise.readout_flip > 0)
        elif ins.gate != "barrier":
            p, gamma = _noise_after(ins, noise)
            width += (p > 0) + (len(ins.qubits) if gamma else 0)
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


def _pauli_columns(psi: np.ndarray, which: np.ndarray, paulis):
    """Apply Pauli ``which[c]`` (0 = I, then X, Y, Z) to the state in
    column c of a block; ``paulis`` are the four blocks on one qubit."""
    for k in (1, 2, 3):
        cols = np.flatnonzero(which == k)
        if cols.size:
            psi[:, cols] = _apply_block(psi.take(cols, axis=1), paulis[k])


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


def _trajectory_rules(noise: NoiseModel, slots: dict, gate, paulis, u: np.ndarray):
    """``apply`` and ``measure`` of the trajectory walk of one block, whose
    gates ``gate`` applies (a :func:`_block_rule`), with the four Pauli
    blocks of each qubit in ``paulis``.

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
        gate(psi, ins)
        p, gamma = _noise_after(ins, noise)
        k = slots[id(ins)]
        if p > 0:
            draw = u[k][shots]
            k += 1
            if ins.gate == "cx":
                which = np.where(draw < p, np.minimum(draw * (16 / p), 15), 0).astype(int)
                _pauli_columns(psi, which >> 2, paulis[ins.qubits[0]])
                _pauli_columns(psi, which & 3, paulis[ins.qubits[1]])
            else:
                which = np.where(draw < 0.75 * p, np.minimum(draw * (4 / p), 2) + 1, 0)
                _pauli_columns(psi, which.astype(int), paulis[ins.qubits[0]])
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
    gate = _block_rule(circuit.instructions)
    paulis = [[_block(P, (q,)) for P in _PAULIS_1Q] for q in range(n)]
    per_block = max(1, _BLOCK_AMPLITUDES >> n)
    counts: Counter = Counter()
    for start in range(first, stop, per_block):
        end = min(start + per_block, stop)
        block = np.zeros((1 << n, end - start), dtype=complex)
        block[0] = 1.0
        u = _shot_uniforms(seed, start, end, width).T
        branches = _walk(circuit.instructions,
                         [((0,) * circuit.num_clbits, (block, np.arange(end - start)))],
                         *_trajectory_rules(noise, slots, gate, paulis, u))
        for bits, (_, shots) in branches:
            counts["".join(map(str, bits))] += len(shots)
    return counts


def _density_walk(instructions, n: int, num_clbits: int, noise: NoiseModel,
                  rho: np.ndarray, blocks: dict) -> np.ndarray:
    """The state after the density walk of ``instructions`` over ``n``
    qubits from ``rho``, a (2^n, 2^n) array whose trailing axes are a batch,
    summed over the recorded bits from the first branch on, so that one
    branch is returned as walked, its signed zeros kept. Each gate runs with its noise as one
    :func:`_noisy_block`, kept in ``blocks``, which maps a qubit count to the
    blocks built for it under ``noise`` by this or an earlier walk (see
    :func:`_block_rule`); a measure splits every branch on its outcome,
    records it flipped with probability readout_flip and merges branches
    with the same bits, and drops a branch only when its whole batch has
    zero weight. Terminal measures are deferred: the state is the one
    before them."""
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

    branches = _walk(instructions, [((0,) * num_clbits, rho)],
                     _block_rule(instructions, lambda ins: _noisy_block(ins, noise, n),
                                 blocks.setdefault(n, {})),
                     measure)
    return sum((state for _, state in branches[1:]), branches[0][1])


def noisy_clone_states(circuit: Circuit, noise: NoiseModel):
    """Exact density-matrix counterpart of :func:`exact_clone_states` under a
    static noise model, the whole circuit walked from |0...0>
    (:func:`_density_walk`): the per-circuit oracle of noisy responses and
    of stochastic shot-mode noise."""
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
    """The 2 x 2 state of a protocol circuit's message after ``gates``, its
    own one-qubit gates before its Bell cx (``pre`` of
    :func:`_protocol_parts`) moved to qubit 0, from |0><0|, each gate
    followed by its noise (:func:`_density_walk`, which keeps its blocks in
    ``blocks``). Noise acts on a gate's own qubits only, so the rest of the
    circuit is linear in this state (:func:`compile_response`)."""
    return _density_walk(gates, 1, 0, noise, _ground(2).reshape(2, 2), blocks)


# ---------------------------------------------------------------------------
# channels and partial trace
# ---------------------------------------------------------------------------

def _checked_qubits(rho: np.ndarray, qubits) -> tuple[int, list]:
    """The qubit count of a square density matrix whose side is a power of
    two, and ``qubits`` as a list of distinct qubits in range."""
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if dim < 1 or dim & (dim - 1) or rho.shape != (dim, dim):
        raise SimulationError(f"density matrix of shape {rho.shape} is not square "
                              "with a power of two side")
    n, qubits = dim.bit_length() - 1, list(qubits)
    if any(q not in range(n) for q in qubits) or len(set(qubits)) < len(qubits):
        raise SimulationError(f"qubits {qubits} out of range or repeated for {n} qubits")
    return n, qubits


def partial_trace(rho: np.ndarray, keep, num_qubits: int | None = None) -> np.ndarray:
    """Standard partial trace onto the ordered qubit list ``keep``."""
    n, keep = _checked_qubits(rho, keep)
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


def apply_noise_channel(rho: np.ndarray, channel: tuple, qubits) -> np.ndarray:
    """Apply a named single-qubit CPTP channel to each listed qubit (or a
    joint two-qubit depolarizing when two qubits are given)."""
    if not (isinstance(channel, (tuple, list)) and len(channel) == 2
            and isinstance(channel[1], numbers.Real) and not isinstance(channel[1], bool)
            and 0.0 <= channel[1] <= 1.0):
        raise SimulationError(f"channel {channel!r} is not a (name, number in [0, 1]) pair")
    name, param = channel
    n, qubits = _checked_qubits(rho, qubits)
    joint = name == "depolarizing" and len(qubits) == 2
    if name == "depolarizing":
        superop = _depolarizing(param, 2 if joint else 1)
    elif name == "bit_flip":
        superop = _superop([math.sqrt(1 - param) * _PAULIS_1Q[0], math.sqrt(param) * _X])
    elif name == "amplitude_damping":
        superop = _damping(param)
    else:
        raise SimulationError(f"unknown channel '{name}'")
    out = rho.astype(complex, order="C")
    for group in [qubits] if joint else [[q] for q in qubits]:
        _apply_block(out, _channel_block(superop, group, n))
    return out
