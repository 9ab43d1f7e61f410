"""Split & cyclic shift and Dicke-unitary builders against brute-force
enumeration oracles."""

import math

import numpy as np
import pytest

from teleclone import Circuit, build_dsu, build_scs, statevector, validate
from teleclone.exceptions import CircuitError

from .oracles import (apply_unitary, basis_state, circuit_unitary, dicke_vector,
                      scs_expected, staircase_bits)


def _apply(circuit):
    def run(psi):
        out = psi.copy()
        for ins in circuit.instructions:
            if ins.gate != "barrier":
                apply_unitary(out, ins, circuit.num_qubits)
        return out
    return run


def test_scs_rejects_m_below_two():
    with pytest.raises(CircuitError):
        build_scs(1)


def test_scs_m2_examples():
    run = _apply(build_scs(2))
    np.testing.assert_allclose(run(basis_state(2, [0, 0])),
                               basis_state(2, [0, 0]), atol=1e-12)
    out = run(basis_state(2, [1, 0]))
    want = (basis_state(2, [1, 0]) + basis_state(2, [0, 1])) / math.sqrt(2)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_scs_m3_weight2_example():
    run = _apply(build_scs(3))
    out = run(basis_state(3, [1, 1, 0]))
    want = (math.sqrt(1 / 3) * basis_state(3, [1, 1, 0])
            + math.sqrt(2 / 3) * basis_state(3, [1, 0, 1]))
    np.testing.assert_allclose(out, want, atol=1e-12)


@pytest.mark.parametrize("m", range(2, 8))
def test_scs_mapping_all_staircases(m):
    run = _apply(build_scs(m))
    for i in range(m + 1):
        out = run(basis_state(m, staircase_bits(i, m)))
        np.testing.assert_allclose(out, scs_expected(m, i), atol=1e-12)


@pytest.mark.parametrize("m", range(2, 6))
def test_scs_is_unitary(m):
    u = circuit_unitary(build_scs(m), _apply(build_scs(m)), m)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << m), atol=1e-10)


def test_dsu_trivial_and_small():
    assert build_dsu(1).instructions == ()
    run = _apply(build_dsu(2))
    np.testing.assert_allclose(run(basis_state(2, [1, 0])), dicke_vector(2, 1),
                               atol=1e-12)
    run3 = _apply(build_dsu(3))
    np.testing.assert_allclose(run3(basis_state(3, [1, 0, 0])), dicke_vector(3, 1),
                               atol=1e-12)


def test_dsu_m4_weight2_uniform_six_strings():
    run = _apply(build_dsu(4))
    out = run(basis_state(4, [1, 1, 0, 0]))
    np.testing.assert_allclose(out, dicke_vector(4, 2), atol=1e-12)
    nonzero = np.abs(out) > 1e-12
    assert nonzero.sum() == 6
    np.testing.assert_allclose(np.abs(out[nonzero]), 1 / math.sqrt(6), atol=1e-12)


@pytest.mark.parametrize("m", range(1, 7))
def test_dsu_matches_enumeration_all_weights(m):
    run = _apply(build_dsu(m))
    for i in range(m + 1):
        out = run(basis_state(m, staircase_bits(i, m)))
        np.testing.assert_allclose(out, dicke_vector(m, i), atol=1e-12)


@pytest.mark.parametrize("m", range(2, 6))
def test_dsu_recursion(m):
    """DSU_m == (DSU_{m-1} x I) . SCS_m up to global phase."""
    full = circuit_unitary(build_dsu(m), _apply(build_dsu(m)), m)
    scs = circuit_unitary(build_scs(m), _apply(build_scs(m)), m)
    sub = build_dsu(m - 1)
    embedded = Circuit(m, 0, sub.instructions)
    du = circuit_unitary(embedded, _apply(embedded), m)
    composed = du @ scs
    # strip any global phase via the largest element
    idx = np.unravel_index(np.argmax(np.abs(full)), full.shape)
    phase = composed[idx] / full[idx]
    np.testing.assert_allclose(composed, full * phase, atol=1e-10)


def test_builders_validate_clean():
    for m in range(2, 7):
        assert validate(build_scs(m)) == []
        assert validate(build_dsu(m)) == []


def test_all_interactions_nearest_neighbour():
    for m in range(2, 9):
        for ins in build_dsu(m).instructions:
            if ins.gate == "cx":
                assert abs(ins.qubits[0] - ins.qubits[1]) == 1
