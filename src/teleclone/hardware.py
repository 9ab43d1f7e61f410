"""Device model: 27-qubit heavy-hex coupling graph, the seven caterpillar
layouts, gate durations and noise, the simulators' qubit caps,
native-gateset transpilation and the X-X decoupling pass. Nothing here
needs numpy, so a config is checked without loading the numeric layers.

A layout places the protocol's hardware line onto the lattice: the ancilla
arm and clone arm are nearest-neighbour paths meeting at the port, with the
message qubit on a spare port neighbour. Layouts for fewer clones reuse the
same anchors and drop unused qubits down each line, so no SWAPs are ever
required. The role-to-qubit assignment is this package's canonical choice;
any line embedding satisfying the same adjacency invariants would do.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cache
from importlib import resources

from .circuit import Circuit, Instruction, rz, sx, x
from .exceptions import CapacityError, SimulationError, TranspileError
from .telecloning import TelecloningVariant

_NATIVE_GATES = ("rz", "sx", "x", "cx")
DEFAULT_QUBIT_CAP = 24
_DENSITY_QUBIT_CAP = 8  # qubits of a walked density matrix: a noisy prep or an oracle


@dataclass(frozen=True)
class CouplingGraph:
    num_qubits: int
    edges: frozenset

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def degree(self, q: int) -> int:
        return sum(1 for e in self.edges if q in e)

    def is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            q = frontier.pop()
            for a, b in self.edges:
                other = b if a == q else a if b == q else None
                if other is not None and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == self.num_qubits


def heavy_hex_27() -> CouplingGraph:
    """The 27-qubit heavy-hex lattice shared by the modelled processors."""
    return _load_data()[0]


@dataclass(frozen=True)
class Layout:
    """Role-to-physical-qubit assignment. ``ancillas`` and ``clones`` are
    ordered along their lines starting at the port's neighbour."""

    message: int
    port: int
    ancillas: tuple[int, ...]
    clones: tuple[int, ...]

    def used(self) -> tuple[int, ...]:
        return (self.message, self.port, *self.ancillas, *self.clones)


@cache
def _load_data() -> tuple[CouplingGraph, tuple[Layout, ...]]:
    """The device file, parsed once: the lattice and the seven full-length
    layouts, all frozen."""
    path = resources.files("teleclone.data").joinpath("heavy_hex_27.json")
    data = json.loads(path.read_text())
    graph = CouplingGraph(data["num_qubits"],
                          frozenset(tuple(e) for e in data["edges"]))
    layouts = tuple(Layout(message=raw["message"], port=raw["port"],
                           ancillas=tuple(raw["ancillas"]),
                           clones=tuple(raw["clones"]))
                    for raw in data["layouts"])
    return graph, layouts


def validate_layout(layout: Layout, graph: CouplingGraph) -> list[str]:
    errors = []
    used = layout.used()
    if len(set(used)) != len(used):
        errors.append("layout assigns one physical qubit to two roles")
    if any(not (0 <= q < graph.num_qubits) for q in used):
        errors.append("layout references a qubit outside the device")
        return errors
    if not graph.has_edge(layout.message, layout.port):
        errors.append("message and port are not coupled")
    for arm in (layout.ancillas, layout.clones):
        if arm and not graph.has_edge(layout.port, arm[0]):
            errors.append("arm does not start at a port neighbour")
        for a, b in zip(arm, arm[1:]):
            if not graph.has_edge(a, b):
                errors.append(f"arm break: {a}-{b} is not an edge")
    return errors


def check_capacity(m: int, variant: TelecloningVariant) -> None:
    """Raise :class:`CapacityError` unless the layouts hold M clones of
    ``variant``. Reads no device file."""
    if variant is TelecloningVariant.NO_ANCILLA:
        if m not in (2, 3):
            raise CapacityError(f"no-ancilla layouts exist only for M=2,3, got {m}")
    elif not (2 <= m <= 10):
        raise CapacityError(
            f"M={m} exceeds the M=10 capacity of the 27-qubit lattice")


def enumerate_layouts(m: int, variant: TelecloningVariant) -> list[Layout]:
    """The seven line embeddings, truncated to M clones (and M-1 ancillas
    for the ancilla variants; the ancilla line stays unused otherwise)."""
    check_capacity(m, variant)
    n_anc = 0 if variant is TelecloningVariant.NO_ANCILLA else m - 1
    return [Layout(full.message, full.port, full.ancillas[:n_anc], full.clones[:m])
            for full in _load_data()[1]]


def _check_duration(name: str, value) -> None:
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or value < 0):
        raise TranspileError(f"{name} duration must be a finite number >= 0, "
                             f"got {value!r}")


@dataclass(frozen=True)
class DurationTable:
    """Gate durations in nanoseconds. rz is virtual and must stay at 0."""

    rz: float = 0.0
    sx: float = 35.0
    x: float = 35.0
    cx: float = 300.0
    measure: float = 700.0
    feedforward_latency: float = 500.0
    cx_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rz != 0.0:
            raise TranspileError("rz is virtual; its duration must be 0")
        for name in ("sx", "x", "cx", "measure", "feedforward_latency"):
            _check_duration(name, getattr(self, name))
        for pair, value in self.cx_overrides.items():
            _check_duration(f"cx_overrides {pair}", value)

    def gate(self, ins: Instruction) -> float:
        if ins.gate == "cx":
            key = (min(ins.qubits), max(ins.qubits))
            return float(self.cx_overrides.get(key, self.cx))
        try:
            return float(getattr(self, ins.gate))
        except AttributeError:
            raise TranspileError(f"missing duration entry for '{ins.gate}'")

    def to_json_dict(self) -> dict:
        return {"rz": self.rz, "sx": self.sx, "x": self.x, "cx": self.cx,
                "measure": self.measure,
                "feedforward_latency": self.feedforward_latency,
                "cx_overrides": {f"{a}-{b}": v for (a, b), v in
                                 self.cx_overrides.items()}}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DurationTable":
        if not isinstance(d, dict):
            raise TranspileError(f"durations must be an object, got {d!r}")
        raw = d.get("cx_overrides", {})
        if not isinstance(raw, dict):
            raise TranspileError(f"cx_overrides must be an object, got {raw!r}")
        overrides = {}
        for key, v in raw.items():
            pair = key.split("-")
            if len(pair) != 2 or not all(p.isdecimal() for p in pair):
                raise TranspileError(f"cx_overrides key {key!r} is not 'a-b'")
            _check_duration(f"cx_overrides {key}", v)
            overrides[(int(pair[0]), int(pair[1]))] = float(v)
        kwargs = {k: d[k] for k in
                  ("rz", "sx", "x", "cx", "measure", "feedforward_latency")
                  if k in d}
        return cls(cx_overrides=overrides, **kwargs)


@dataclass(frozen=True)
class NoiseModel:
    """Static gate-level noise. Probabilities are per instruction; rz is
    treated as virtual (error-free) and barriers carry no noise."""

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0
    readout_flip: float = 0.0
    amplitude_damping_idle: float | None = None

    def __post_init__(self):
        for f in fields(self):
            p = getattr(self, f.name)
            if p is None and f.default is None:  # a channel that may be left unset
                continue
            if not isinstance(p, numbers.Real) or isinstance(p, bool):
                raise SimulationError(f"{f.name}={p!r} is not a number")
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"{f.name}={p} outside [0, 1]")

    def any_noise(self) -> bool:
        return (self.depolarizing_1q > 0 or self.depolarizing_2q > 0
                or self.readout_flip > 0 or bool(self.amplitude_damping_idle))


# ---------------------------------------------------------------------------
# native-gateset translation
# ---------------------------------------------------------------------------

def _native_1q(ins: Instruction, q: int) -> list[Instruction]:
    """rz/sx/x pass through; ry, h and z become rz/sx sequences equal to the
    original gate up to global phase."""
    if ins.gate == "rz":
        return [rz(ins.angle, q)]
    if ins.gate in ("sx", "x"):
        return [Instruction(ins.gate, (q,))]
    if ins.gate == "z":
        return [rz(math.pi, q)]
    if ins.gate == "h":
        return [rz(math.pi / 2, q), sx(q), rz(math.pi / 2, q)]
    if ins.gate == "ry":
        return [sx(q), rz(ins.angle + math.pi, q), sx(q), rz(math.pi, q)]
    raise TranspileError(f"cannot translate gate '{ins.gate}'")


def _layout_map(circuit: Circuit, layout: Layout) -> dict[int, int]:
    roles = circuit.roles
    if "port" not in roles or "clones" not in roles:
        raise TranspileError("circuit carries no role metadata to map")
    clones = roles["clones"]
    ancillas = roles.get("ancillas", ())
    if len(clones) > len(layout.clones) or len(ancillas) > len(layout.ancillas):
        raise CapacityError("layout is too small for this circuit")
    mapping = {roles["port"]: layout.port}
    if "message" in roles:
        mapping[roles["message"]] = layout.message
    for k, q in enumerate(clones):
        mapping[q] = layout.clones[k]
    # logical ancillas are listed far-end first; the layout arm starts at
    # the port, so reverse
    for j, q in enumerate(reversed(ancillas)):
        mapping[q] = layout.ancillas[j]
    return mapping


def transpile_to_native(circuit: Circuit, layout: Layout) -> Circuit:
    """Rewrite onto {rz, sx, x, cx} and physical qubit indices.

    Preserves noiseless semantics up to a global phase per branch. Any
    two-qubit interaction that does not land on a lattice edge is a routing
    error; SWAP insertion is out of scope.
    """
    graph = heavy_hex_27()
    errors = validate_layout(layout, graph)
    if errors:
        raise TranspileError("; ".join(errors))
    mapping = _layout_map(circuit, layout)

    def convert(ins: Instruction) -> list[Instruction]:
        if ins.gate == "barrier":
            return [Instruction("barrier", tuple(sorted(mapping[q] for q in ins.qubits)))]
        if ins.gate == "measure":
            return [Instruction("measure", (mapping[ins.qubits[0]],), clbit=ins.clbit)]
        if ins.gate == "cond":
            body = [out for sub in ins.body for out in convert(sub)]
            return [Instruction("cond", tuple(sorted({q for b in body for q in b.qubits})),
                                cond_clbit=ins.cond_clbit, cond_value=ins.cond_value,
                                body=tuple(body))]
        if ins.gate == "cx":
            a, b = mapping[ins.qubits[0]], mapping[ins.qubits[1]]
            if not graph.has_edge(a, b):
                raise TranspileError(f"interaction {a}-{b} is not a lattice edge")
            return [Instruction("cx", (a, b))]
        return _native_1q(ins, mapping[ins.qubits[0]])

    instrs = [out for ins in circuit.instructions for out in convert(ins)]
    roles = {}
    for k, v in circuit.roles.items():
        roles[k] = mapping[v] if isinstance(v, int) else tuple(mapping[q] for q in v)
    return Circuit(graph.num_qubits, circuit.num_clbits, tuple(instrs), roles=roles)


# ---------------------------------------------------------------------------
# ALAP scheduling and X-X insertion
# ---------------------------------------------------------------------------

def _alap_schedule(circuit: Circuit, durations: DurationTable):
    """As-late-as-possible start/end times per instruction.

    Runs backwards over the instruction list; qubits and classical bits both
    act as wires, and barriers synchronize every qubit. Feed-forward blocks
    occupy their body qubits for the classical latency plus their gates.
    """
    cursors_q = [0.0] * circuit.num_qubits
    cursors_c = [0.0] * circuit.num_clbits
    spans = [None] * len(circuit.instructions)
    for idx in range(len(circuit.instructions) - 1, -1, -1):
        ins = circuit.instructions[idx]
        if ins.gate == "barrier":
            t = max(cursors_q) if cursors_q else 0.0
            cursors_q = [t] * circuit.num_qubits
            spans[idx] = (t, t, ())
            continue
        if ins.gate == "cond":
            qubits = sorted({q for sub in ins.body for q in sub.qubits})
            dur = durations.feedforward_latency + sum(
                durations.gate(sub) for sub in ins.body)
            wires_c = (ins.cond_clbit,)
        elif ins.gate == "measure":
            qubits = list(ins.qubits)
            dur = durations.measure
            wires_c = (ins.clbit,)
        else:
            qubits = list(ins.qubits)
            dur = durations.gate(ins)
            wires_c = ()
        rstart = max([cursors_q[q] for q in qubits]
                     + [cursors_c[c] for c in wires_c] + [0.0])
        rend = rstart + dur
        for q in qubits:
            cursors_q[q] = rend
        for c in wires_c:
            cursors_c[c] = rend
        spans[idx] = (rstart, rend, tuple(qubits))
    total = max([0.0] + [e for _, e, _ in spans if e is not None])
    # flip the reversed time axis into forward start/end times
    return [(total - e, total - s, qs) for s, e, qs in spans], total


def insert_dd(circuit: Circuit, durations: DurationTable | None = None) -> Circuit:
    """Pad idle windows with adjacent X-X pairs, placed late in each window.

    Only native-gateset circuits are schedulable. Windows overlapping the
    feed-forward region (from the first conditional's classical wait to the
    last conditional's end) receive no pulses, and nothing is ever inserted
    inside a conditional body. Nor is a window of zero length padded, or
    one that ends at a measure whose bit a conditional reads: pulses there
    would split the Bell measurement that the feed-forward reads, which the
    simulator traces as one step. Semantics are unchanged: X pairs multiply
    to the identity.
    """
    durations = durations or DurationTable()
    for ins in circuit.instructions:
        for sub in (ins,) + ins.body:
            if sub.gate not in _NATIVE_GATES + ("barrier", "measure", "cond"):
                raise TranspileError(
                    f"insert_dd requires a native-gateset circuit, found '{sub.gate}'")
    spans, _ = _alap_schedule(circuit, durations)

    # feed-forward exclusion region across all conditionals
    cond_spans = [(s, e) for (s, e, _), ins in zip(spans, circuit.instructions)
                  if ins.gate == "cond"]
    epoch = (min(s for s, _ in cond_spans), max(e for _, e in cond_spans)) \
        if cond_spans else None
    read = {ins.cond_clbit for ins in circuit.instructions if ins.gate == "cond"}

    # per-qubit op intervals in time order
    per_qubit: dict[int, list] = {}
    for idx, ((start, end, qubits), ins) in enumerate(zip(spans, circuit.instructions)):
        if ins.gate == "barrier":
            continue
        for q in qubits:
            per_qubit.setdefault(q, []).append((start, end, idx))
    xdur = durations.x
    insertions: dict[int, list] = {}
    for q, ops in per_qubit.items():
        ops.sort()
        for (s0, e0, _), (s1, e1, idx1) in zip(ops, ops[1:]):
            lo, hi = e0, s1
            if epoch is not None and lo < epoch[1] and hi > epoch[0]:
                hi = min(hi, epoch[0])  # keep out of the feed-forward region
            end = circuit.instructions[idx1]
            if end.gate == "measure" and end.clbit in read:
                continue
            if hi > lo and hi - lo >= 2 * xdur:
                insertions.setdefault(idx1, []).append(q)

    out: list[Instruction] = []
    for idx, ins in enumerate(circuit.instructions):
        for q in insertions.get(idx, ()):
            out.extend([x(q)] * 2)
        out.append(ins)
    return Circuit(circuit.num_qubits, circuit.num_clbits, tuple(out),
                   roles=dict(circuit.roles))


def count_dd_pulses(before: Circuit, after: Circuit) -> int:
    def xs(c):
        return sum(1 for i in c.instructions if i.gate == "x")
    return xs(after) - xs(before)
