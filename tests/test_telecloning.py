"""Resource-state and protocol-circuit builders against formula oracles."""

import math

import numpy as np
import pytest

from teleclone import (MessageState, TelecloningVariant, build_protocol_circuit,
                       build_telecloning_state, exact_subsystem_state,
                       partial_trace, statevector, stats, validate)
from teleclone.exceptions import CircuitError

from .oracles import telecloning_state_vector

OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL
NOA = TelecloningVariant.NO_ANCILLA


def test_no_ancilla_limited_to_small_m():
    with pytest.raises(CircuitError):
        build_telecloning_state(4, NOA)
    with pytest.raises(CircuitError):
        build_protocol_circuit(5, NOA, MessageState(0.0, 0.0))


def test_no_ancilla_prep_angles():
    """One rule gives the M=2 and M=3 no-ancilla preps: the port's ry and
    the two controlled ry take 2 acos sqrt((M-1)/M), 2 acos sqrt((M-1)/(M+1))
    and 2 acos sqrt(M/(M+1)), the constants of each prep bitwise."""
    for m, fractions in ((2, (1 / 2, 1 / 3, 2 / 3)), (3, (2 / 3, 1 / 2, 3 / 4))):
        angles = [ins.angle for ins in build_telecloning_state(m, NOA).instructions
                  if ins.gate == "ry"]
        a, b, c = (2 * math.acos(math.sqrt(f)) for f in fractions)
        assert angles[:5] == [a, b / 2, -b / 2, c / 2, -c / 2]


def test_full_state_matches_formula_exactly():
    for m in (2, 3, 4):
        circ = build_telecloning_state(m, FULL)
        psi = statevector(circ)
        np.testing.assert_allclose(psi, telecloning_state_vector(m), atol=1e-12)


def test_full_m2_overlap_values():
    psi = statevector(build_telecloning_state(2, FULL))
    from .oracles import dicke_vector
    for i in range(3):
        ov = np.vdot(np.kron(dicke_vector(2, i), dicke_vector(2, i)), psi)
        assert abs(ov - 1 / math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("m", (2, 3, 4))
def test_optimized_equals_full_on_port_and_clones(m):
    """Tracing the ancillas must hide the skipped ancilla symmetrization."""
    keep_roles = lambda c: [c.roles["port"], *c.roles["clones"]]
    full = build_telecloning_state(m, FULL)
    opt = build_telecloning_state(m, OPT)
    rho_f = _reduced(full, keep_roles(full))
    rho_o = _reduced(opt, keep_roles(opt))
    np.testing.assert_allclose(rho_o, rho_f, atol=1e-12)


def _reduced(circ, keep):
    psi = statevector(circ)
    rho = np.outer(psi, psi.conj())
    return partial_trace(rho, keep, circ.num_qubits)


@pytest.mark.parametrize("m", (2, 3))
def test_no_ancilla_protocol_output_matches_full(m):
    """The ancilla-free prep is a different pure state, but averaging the
    four Bell branches gives the same clone-register density matrix."""
    for message in (MessageState(0.0, 0.0), MessageState(1.1, 2.2),
                    MessageState(math.pi / 2, math.pi / 4)):
        a = build_protocol_circuit(m, NOA, message)
        b = build_protocol_circuit(m, FULL, message)
        rho_a = exact_subsystem_state(a, a.roles["clones"])
        rho_b = exact_subsystem_state(b, b.roles["clones"])
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-12)


def test_qubit_budgets():
    # message + port + M clones (+ M-1 ancillas with the ancilla variants)
    assert build_protocol_circuit(2, NOA, MessageState(0, 0)).num_qubits == 4
    assert build_protocol_circuit(3, NOA, MessageState(0, 0)).num_qubits == 5
    assert build_protocol_circuit(3, OPT, MessageState(0, 0)).num_qubits == 7
    assert build_protocol_circuit(10, OPT, MessageState(0, 0)).num_qubits == 21
    # resource state alone: no message qubit
    assert build_telecloning_state(2, NOA).num_qubits == 3
    assert build_telecloning_state(3, FULL).num_qubits == 6


def test_protocol_structure_counts():
    c = build_protocol_circuit(2, NOA, MessageState(0.1, 0.2), tomo_basis="z")
    assert c.num_clbits == 4
    conds = [i for i in c.instructions if i.gate == "cond"]
    assert len(conds) == 4
    measures = [i for i in c.instructions if i.gate == "measure"]
    assert len(measures) == 4
    c3 = build_protocol_circuit(3, OPT, MessageState(0.1, 0.2), tomo_basis="y")
    assert c3.num_qubits == 7
    assert len([i for i in c3.instructions if i.gate == "cond"]) == 6


def test_tomo_none_leaves_clones_unmeasured():
    c = build_protocol_circuit(2, NOA, MessageState(0.3, 0.4), tomo_basis="none")
    measured = {i.qubits[0] for i in c.instructions if i.gate == "measure"}
    assert measured == {c.roles["message"], c.roles["port"]}
    assert c.num_clbits == 2


def test_six_segment_barrier_structure():
    """prep | bell | measures | corrections | basis change | clone readout,
    separated by barriers (the last two segments only with tomography)."""
    with_tomo = build_protocol_circuit(3, OPT, MessageState(0.2, 0.4), tomo_basis="x")
    without = build_protocol_circuit(3, OPT, MessageState(0.2, 0.4), tomo_basis="none")
    assert sum(i.gate == "barrier" for i in with_tomo.instructions) == 5
    assert sum(i.gate == "barrier" for i in without.instructions) == 4


def test_correction_order_x_then_z():
    c = build_protocol_circuit(2, NOA, MessageState(0, 0))
    conds = [i for i in c.instructions if i.gate == "cond"]
    # per clone: first block reads c0 and applies X, second reads c1, applies Z
    for k in range(2):
        assert conds[2 * k].cond_clbit == 0 and conds[2 * k].body[0].gate == "x"
        assert conds[2 * k + 1].cond_clbit == 1 and conds[2 * k + 1].body[0].gate == "z"


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA), (2, FULL), (3, OPT),
                                       (4, OPT), (4, FULL)])
def test_builders_validate_clean(m, variant):
    for basis in ("none", "x", "y", "z"):
        c = build_protocol_circuit(m, variant, MessageState(0.6, 1.9), tomo_basis=basis)
        assert validate(c) == []


@pytest.mark.parametrize("m", (3, 4, 5))
def test_gate_count_monotonicity(m):
    opt = stats(build_telecloning_state(m, OPT))
    full = stats(build_telecloning_state(m, FULL))
    assert opt.two_qubit_gate_count < full.two_qubit_gate_count


def test_caterpillar_interactions_only():
    """All two-qubit gates act on line neighbours or the message-port edge."""
    for m, variant in [(2, NOA), (3, NOA), (3, OPT), (4, FULL), (5, OPT)]:
        c = build_protocol_circuit(m, variant, MessageState(0.5, 0.5), tomo_basis="y")
        port = c.roles["port"]
        for ins in c.instructions:
            for sub in (ins,) + ins.body:
                if sub.gate == "cx":
                    a, b = sub.qubits
                    assert abs(a - b) == 1 or {a, b} == {0, port}


def test_protocol_prep_is_the_resource_prep_shifted_by_one():
    """The protocol circuit's prep, between the message's two gates and the
    first barrier, is build_telecloning_state's instructions with every
    qubit shifted by one, for M=2..10 and every variant check_variant
    accepts."""
    from teleclone.circuit import Instruction, barrier
    from teleclone.telecloning import check_variant
    for m in range(2, 11):
        for variant in TelecloningVariant:
            try:
                check_variant(m, variant)
            except CircuitError:
                continue
            state = build_telecloning_state(m, variant).instructions
            ops = build_protocol_circuit(m, variant, MessageState(0.6, 1.9)).instructions
            assert ops[2:ops.index(barrier())] == tuple(
                Instruction(i.gate, tuple(q + 1 for q in i.qubits), angle=i.angle)
                for i in state)
