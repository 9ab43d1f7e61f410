"""Closed-form metrics: optimal-fidelity bound, shrinking factor, fidelity
routes, Bloch vectors, concurrence and negativity."""

import math

import numpy as np
import pytest

from teleclone import (MessageState, TelecloningVariant, bloch_vector,
                       build_protocol_circuit, clone_metrics, concurrence,
                       exact_clone_states, exact_subsystem_state, fidelity,
                       fidelity_general, negativity, shrinking_factor,
                       theoretical_fidelity)
from teleclone.exceptions import SimulationError

from .oracles import PAULIS, random_density_matrix

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL


def test_bounds_are_correctly_rounded_ratios():
    """Integer true division rounds each bound as the exact fraction does."""
    from fractions import Fraction
    for n in range(1, 60):
        for m in range(n, 200):
            assert theoretical_fidelity(n, m) == float(Fraction(m * n + m + n, m * (n + 2)))
            assert shrinking_factor(n, m) == float(Fraction(n * (m + 2), m * (n + 2)))


def test_theoretical_fidelity_values():
    assert abs(theoretical_fidelity(1, 2) - 5 / 6) < 1e-15
    assert abs(theoretical_fidelity(1, 3) - 7 / 9) < 1e-15
    assert abs(theoretical_fidelity(1, 4) - 0.75) < 1e-15
    assert abs(theoretical_fidelity(1, 5) - 11 / 15) < 1e-15
    assert abs(theoretical_fidelity(1, 10) - 0.7) < 1e-15
    assert theoretical_fidelity(1, 1) == 1.0
    with pytest.raises(ValueError):
        theoretical_fidelity(3, 2)


def test_shrinking_factor_values_and_identity():
    assert abs(shrinking_factor(1, 2) - 2 / 3) < 1e-15
    assert shrinking_factor(1, 1) == 1.0
    assert abs(shrinking_factor(1, 10) - 0.4) < 1e-15
    for m in range(1, 101):
        lhs = theoretical_fidelity(1, m)
        rhs = (1 + shrinking_factor(1, m)) / 2
        assert abs(lhs - rhs) < 1e-15


def test_fidelity_basic_values():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_density_matrix(rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(zero, one) < 1e-12
    assert abs(fidelity(zero, np.eye(2) / 2) - 0.5) < 1e-12
    with pytest.raises(SimulationError):
        fidelity(zero, np.eye(4) / 4)


def test_fidelity_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_density_matrix(rng), random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10


def test_closed_form_matches_general_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = random_density_matrix(rng), random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity_general(a, b)) < 1e-10


def test_bloch_vector_values():
    np.testing.assert_allclose(bloch_vector(np.diag([1.0, 0.0])), [0, 0, 1],
                               atol=1e-12)
    np.testing.assert_allclose(bloch_vector(np.eye(2) / 2), [0, 0, 0], atol=1e-12)
    with pytest.raises(SimulationError):
        bloch_vector(np.eye(4) / 4)


def test_bloch_vector_equals_the_trace_formula_bitwise():
    """Read off the entries, the Bloch vector is bitwise the real part of
    Tr(rho P) for P = X, Y, Z, taken through the matrix products."""
    rng = np.random.default_rng(7)
    for _ in range(120):
        rho = random_density_matrix(rng)
        want = [np.trace(rho @ p).real for p in PAULIS[1:]]
        assert bloch_vector(rho).tolist() == want


def test_ideal_m2_clone_bloch():
    c = build_protocol_circuit(2, NOA, MessageState(0.0, 0.0))
    rho = exact_clone_states(c)[0]
    np.testing.assert_allclose(bloch_vector(rho), [0, 0, 2 / 3], atol=1e-9)


def test_concurrence_reference_states():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert abs(concurrence(np.outer(bell, bell.conj())) - 1.0) < 1e-10
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1.0
    assert concurrence(prod) < 1e-12
    with pytest.raises(SimulationError):
        concurrence(np.eye(2) / 2)


def test_negativity_reference_states():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert abs(negativity(np.outer(bell, bell.conj()), [0]) - 0.5) < 1e-10
    prod = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert negativity(prod, [0]) < 1e-12
    with pytest.raises(SimulationError):
        negativity(prod, [7])


@pytest.mark.parametrize("variant", (NOA, FULL, OPT))
def test_two_clone_entanglement_reference_values(variant):
    """Concurrence 1/3 and negativity (sqrt5-2)/6, independent of message."""
    rng = np.random.default_rng(3)
    for _ in range(4):
        msg = MessageState(float(rng.uniform(0, math.pi)),
                           float(rng.uniform(0, 2 * math.pi)))
        c = build_protocol_circuit(2, variant, msg)
        rho = exact_subsystem_state(c, c.roles["clones"])
        assert abs(concurrence(rho) - 1 / 3) < 1e-9
        assert abs(negativity(rho, [0]) - (math.sqrt(5) - 2) / 6) < 1e-9


def test_universality_fidelity_state_independent():
    vals = []
    rng = np.random.default_rng(9)
    for _ in range(12):
        msg = MessageState(float(rng.uniform(0, math.pi)),
                           float(rng.uniform(0, 2 * math.pi)))
        c = build_protocol_circuit(2, NOA, msg)
        rho = exact_clone_states(c)[0]
        vals.append(clone_metrics(rho, msg.bloch()).fidelity_to_message)
    assert np.std(vals) < 1e-9
    assert abs(np.mean(vals) - 5 / 6) < 1e-9


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, OPT), (4, OPT), (5, FULL)])
def test_angle_preserved_magnitude_shrunk(m, variant):
    rng = np.random.default_rng(m)
    for _ in range(3):
        msg = MessageState(float(rng.uniform(0.2, math.pi - 0.2)),
                           float(rng.uniform(0, 2 * math.pi)))
        c = build_protocol_circuit(m, variant, msg)
        for rho in exact_clone_states(c):
            met = clone_metrics(rho, msg.bloch())
            assert met.bloch_angle_error <= 1e-12
            assert abs(met.bloch_magnitude - shrinking_factor(1, m)) < 1e-9
