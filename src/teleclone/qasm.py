"""OpenQASM 3 subset exporter for interchange. Import is not supported."""

from __future__ import annotations

from .circuit import Circuit, Instruction, check
from .exceptions import CircuitError

_EXPORTABLE = {"ry", "rz", "h", "x", "z", "sx", "cx", "barrier", "measure", "cond"}


def _gate_line(ins: Instruction) -> str:
    qs = ", ".join(f"q[{q}]" for q in ins.qubits)
    if ins.gate in ("ry", "rz"):
        return f"{ins.gate}({ins.angle!r}) {qs};"
    return f"{ins.gate} {qs};"


def _body(instructions) -> str:
    """The OpenQASM lines of ``instructions``, each ending in a newline."""
    lines = []
    for ins in instructions:
        if ins.gate not in _EXPORTABLE:
            raise CircuitError(f"gate '{ins.gate}' outside exportable set")
        if ins.gate == "barrier":
            if ins.qubits:
                lines.append(_gate_line(ins))
            else:
                lines.append("barrier q;")
        elif ins.gate == "measure":
            lines.append(f"c[{ins.clbit}] = measure q[{ins.qubits[0]}];")
        elif ins.gate == "cond":
            lines.append(f"if (c[{ins.cond_clbit}] == {ins.cond_value}) {{")
            for sub in ins.body:
                lines.append("  " + _gate_line(sub))
            lines.append("}")
        else:
            lines.append(_gate_line(ins))
    return "".join(line + "\n" for line in lines)


def export_qasm(circuit: Circuit) -> str:
    """Render the circuit as OpenQASM 3 text with `if (c[k] == v) { ... }`
    blocks for feed-forward. Output is deterministic for a given circuit."""
    return export_extensions(circuit, [circuit])[0]


def export_extensions(circuit: Circuit, extended) -> list[str]:
    """The :func:`export_qasm` text of each circuit of ``extended``, each
    over the qubits of ``circuit`` and starting with all its instructions,
    as its tomography circuits do. ``circuit`` is validated and rendered
    once; each text adds its own header and further instructions, which
    are validated after the measures of ``circuit``."""
    check(circuit)
    body = _body(circuit.instructions)
    written = tuple(ins for ins in circuit.instructions if ins.gate == "measure")
    k = len(circuit.instructions)
    texts = []
    for c in extended:
        if c.num_qubits != circuit.num_qubits or c.instructions[:k] != circuit.instructions:
            raise CircuitError("circuit does not extend the rendered circuit")
        check(Circuit(c.num_qubits, c.num_clbits, written + c.instructions[k:]))
        header = (f'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
                  f"qubit[{c.num_qubits}] q;\nbit[{c.num_clbits}] c;\n")
        texts.append(header + body + _body(c.instructions[k:]))
    return texts
