"""OpenQASM 3 exporter output checks."""

import pytest

from teleclone import (Circuit, MessageState, TelecloningVariant, barrier,
                       export_qasm, measure, x)
from teleclone.circuit import Instruction
from teleclone.exceptions import CircuitError
from teleclone.telecloning import build_protocol_circuit


def test_x_gate_line():
    text = export_qasm(Circuit(1, 0, (x(0),)))
    assert "x q[0];" in text
    assert text.startswith("OPENQASM 3.0;")


def test_protocol_m2_has_exactly_four_if_blocks():
    c = build_protocol_circuit(2, TelecloningVariant.NO_ANCILLA,
                               MessageState(0.1, 0.2), tomo_basis="z")
    text = export_qasm(c)
    assert text.count("if (") == 4
    assert "if (c[0] == 1) {" in text and "if (c[1] == 1) {" in text
    assert "c[0] = measure q[" in text


def test_barriers_preserved():
    text = export_qasm(Circuit(2, 0, (x(0), barrier(), x(1), barrier(0, 1))))
    assert text.count("barrier") == 2


def test_unknown_gate_rejected():
    bad = Circuit(1, 0, (Instruction("swap", (0,)),))
    with pytest.raises(CircuitError):
        export_qasm(bad)


def test_deterministic_output():
    c = build_protocol_circuit(3, TelecloningVariant.NO_ANCILLA,
                               MessageState(0.62831, 0.62831), tomo_basis="y")
    assert export_qasm(c) == export_qasm(c)


def test_extensions_are_validated_as_whole_circuits():
    """export_extensions refuses a circuit that does not start with the
    rendered one, and an extension that validate refuses as a whole: here
    one that measures the port's bit again."""
    from teleclone import validate
    from teleclone.qasm import export_extensions
    none = build_protocol_circuit(2, TelecloningVariant.NO_ANCILLA, MessageState(0.1, 0.2))
    rewrite = Circuit(none.num_qubits, 2, none.instructions + (measure(2, 0),))
    assert validate(rewrite)
    for bad in (rewrite, Circuit(none.num_qubits, 2, none.instructions[1:])):
        with pytest.raises(CircuitError):
            export_extensions(none, [bad])
