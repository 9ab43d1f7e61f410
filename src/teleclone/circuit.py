"""Circuit intermediate representation: gates, classical bits, feed-forward blocks.

Instructions are immutable; a Circuit is an ordered instruction tuple plus a
role map (message / port / ancillas / clones) used by builders, layouts and
the simulator. Qubit 0 is the message qubit in every protocol builder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .config import _is_int
from .exceptions import CircuitError

ONE_QUBIT_GATES = ("ry", "rz", "h", "x", "z", "sx")
UNITARY_GATES = ONE_QUBIT_GATES + ("cx",)
PARAM_GATES = ("ry", "rz")
ALL_GATES = UNITARY_GATES + ("barrier", "measure", "cond")


@dataclass(frozen=True)
class Instruction:
    """One IR instruction.

    ``gate`` is one of ry/rz/h/x/z/sx/cx/barrier/measure/cond. ``angle`` is
    set for ry/rz, ``clbit`` for measure. A cond carries the classical bit it
    reads, the value it compares against and a tuple of unitary body
    instructions. A barrier with empty ``qubits`` spans all qubits.
    """

    gate: str
    qubits: tuple[int, ...] = ()
    angle: float | None = None
    clbit: int | None = None
    cond_clbit: int | None = None
    cond_value: int = 1
    body: tuple[Instruction, ...] = ()


def ry(angle: float, qubit: int) -> Instruction:
    return Instruction("ry", (qubit,), angle=float(angle))


def rz(angle: float, qubit: int) -> Instruction:
    return Instruction("rz", (qubit,), angle=float(angle))


def h(qubit: int) -> Instruction:
    return Instruction("h", (qubit,))


def x(qubit: int) -> Instruction:
    return Instruction("x", (qubit,))


def z(qubit: int) -> Instruction:
    return Instruction("z", (qubit,))


def sx(qubit: int) -> Instruction:
    return Instruction("sx", (qubit,))


def cx(control: int, target: int) -> Instruction:
    return Instruction("cx", (control, target))


def barrier(*qubits: int) -> Instruction:
    return Instruction("barrier", tuple(qubits))


def measure(qubit: int, clbit: int) -> Instruction:
    return Instruction("measure", (qubit,), clbit=clbit)


def cond(clbit: int, value: int, body) -> Instruction:
    body = tuple(body)
    qubits = tuple(sorted({q for ins in body for q in ins.qubits}))
    return Instruction("cond", qubits, cond_clbit=clbit, cond_value=value, body=body)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate/measure/cond list over ``num_qubits`` and ``num_clbits``.

    ``roles`` maps role names to qubit indices: ``message`` and ``port`` are
    ints, ``ancillas`` and ``clones`` tuples ordered along the hardware line
    (first clone adjacent to the port). Circuits are never mutated after
    construction; builders return fresh instances.
    """

    num_qubits: int
    num_clbits: int
    instructions: tuple[Instruction, ...]
    roles: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))


@dataclass(frozen=True)
class CircuitStats:
    two_qubit_gate_count: int
    total_gate_count: int
    depth: int


def _check_instruction(ins, num_qubits, num_clbits, errors, in_body=False):
    if ins.gate not in ALL_GATES:
        errors.append(f"unknown gate '{ins.gate}'")
        return
    if in_body and ins.gate not in UNITARY_GATES:
        errors.append(f"cond body contains non-unitary instruction '{ins.gate}'")
    for q in ins.qubits:
        if not (_is_int(q) and 0 <= q < num_qubits):
            errors.append(f"{ins.gate} qubit {q!r} is not an integer in [0, {num_qubits})")
    if ins.gate == "cx":
        if len(ins.qubits) != 2:
            errors.append("cx requires exactly two qubits")
        elif ins.qubits[0] == ins.qubits[1]:
            errors.append("self-coupled two-qubit gate")
    elif ins.gate in ONE_QUBIT_GATES and len(ins.qubits) != 1:
        errors.append(f"{ins.gate} requires exactly one qubit")
    if ins.gate in PARAM_GATES:
        if isinstance(ins.angle, bool) or not isinstance(ins.angle, (int, float)) \
                or not math.isfinite(ins.angle):
            errors.append(f"{ins.gate} angle {ins.angle!r} must be a finite real")
    if ins.gate == "measure":
        if not (_is_int(ins.clbit) and 0 <= ins.clbit < num_clbits):
            errors.append(f"measure clbit {ins.clbit!r} is not an integer in [0, {num_clbits})")
    if ins.gate == "cond":
        if not (_is_int(ins.cond_clbit) and 0 <= ins.cond_clbit < num_clbits):
            errors.append(f"cond clbit {ins.cond_clbit!r} is not an integer in [0, {num_clbits})")
        if not (_is_int(ins.cond_value) and ins.cond_value in (0, 1)):
            errors.append(f"cond value {ins.cond_value!r} must be the integer 0 or 1")
        for sub in ins.body:
            _check_instruction(sub, num_qubits, num_clbits, errors, in_body=True)


def validate(circuit: Circuit) -> list[str]:
    """Return all IR invariant violations; an empty list means well-formed."""
    if not all(_is_int(n) and n >= 0 for n in (circuit.num_qubits, circuit.num_clbits)):
        return [f"qubit/clbit counts {circuit.num_qubits!r}, {circuit.num_clbits!r} "
                "must be integers >= 0"]
    errors: list[str] = []
    written: set[int] = set()
    for ins in circuit.instructions:
        _check_instruction(ins, circuit.num_qubits, circuit.num_clbits, errors)
        if ins.gate == "measure" and _is_int(ins.clbit):
            if ins.clbit in written:
                errors.append(f"classical bit {ins.clbit} written more than once")
            written.add(ins.clbit)
        if ins.gate == "cond" and _is_int(ins.cond_clbit):
            if ins.cond_clbit not in written:
                errors.append(
                    f"read-before-write: cond on c{ins.cond_clbit} precedes its measure")
    return errors


def check(circuit: Circuit) -> None:
    """Raise :class:`CircuitError` naming every :func:`validate` error, if any."""
    errors = validate(circuit)
    if errors:
        raise CircuitError("; ".join(errors))


def stats(circuit: Circuit) -> CircuitStats:
    """Gate counts and dependency depth. Barriers are ignored entirely;
    cond body gates count once; the cond's classical bit acts as a wire."""
    check(circuit)
    two_qubit = 0
    total = 0
    qlevel = [0] * circuit.num_qubits
    clevel = [0] * circuit.num_clbits

    def wires_level(qubits, clbits):
        lv = 0
        for q in qubits:
            lv = max(lv, qlevel[q])
        for c in clbits:
            lv = max(lv, clevel[c])
        return lv

    def bump(qubits, clbits, lv):
        for q in qubits:
            qlevel[q] = lv
        for c in clbits:
            clevel[c] = lv

    for ins in circuit.instructions:
        if ins.gate == "barrier":
            continue
        if ins.gate == "cond":
            for sub in ins.body:
                total += 1
                two_qubit += sub.gate == "cx"
                lv = wires_level(sub.qubits, (ins.cond_clbit,)) + 1
                bump(sub.qubits, (ins.cond_clbit,), lv)
            continue
        total += 1
        two_qubit += ins.gate == "cx"
        clbits = (ins.clbit,) if ins.gate == "measure" else ()
        lv = wires_level(ins.qubits, clbits) + 1
        bump(ins.qubits, clbits, lv)
    depth = max(qlevel + clevel, default=0)
    return CircuitStats(two_qubit, total, depth)


def _instruction_to_dict(ins: Instruction) -> dict:
    d: dict = {"gate": ins.gate, "qubits": list(ins.qubits)}
    if ins.angle is not None:
        d["angle"] = ins.angle
    if ins.clbit is not None:
        d["clbit"] = ins.clbit
    if ins.gate == "cond":
        d["cond"] = {"clbit": ins.cond_clbit, "value": ins.cond_value,
                     "body": [_instruction_to_dict(s) for s in ins.body]}
    return d


def _instruction_from_dict(d: dict) -> Instruction:
    gate = d["gate"]
    if gate == "cond":
        c = d["cond"]
        return cond(c["clbit"], c["value"],
                    [_instruction_from_dict(s) for s in c["body"]])
    return Instruction(gate, tuple(d["qubits"]), angle=d.get("angle"),
                       clbit=d.get("clbit"))


def to_json(circuit: Circuit) -> str:
    """Deterministic JSON form; byte-stable under round-trips."""
    payload = {
        "num_qubits": circuit.num_qubits,
        "num_clbits": circuit.num_clbits,
        "instructions": [_instruction_to_dict(i) for i in circuit.instructions],
        "roles": _roles_to_json(circuit.roles),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Circuit:
    """The circuit of a :func:`to_json` text; CircuitError when the JSON
    does not have that structure or the circuit fails :func:`validate`."""
    d = json.loads(text)
    try:
        circuit = Circuit(
            num_qubits=d["num_qubits"],
            num_clbits=d["num_clbits"],
            instructions=tuple(_instruction_from_dict(i) for i in d["instructions"]),
            roles=_roles_from_json(d.get("roles", {})),
        )
    except (TypeError, KeyError, AttributeError) as exc:
        raise CircuitError(f"malformed circuit JSON ({type(exc).__name__}: {exc})")
    check(circuit)
    return circuit


def _roles_to_json(roles: dict) -> dict:
    out = {}
    for k, v in roles.items():
        out[k] = list(v) if isinstance(v, (tuple, list)) else v
    return out


def _roles_from_json(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        out[k] = tuple(v) if isinstance(v, list) else v
    return out
