"""Shot sampling, exact branch enumeration, partial trace, noise channels."""

import math

import numpy as np
import pytest

from teleclone import (Circuit, MessageState, NoiseModel, TelecloningVariant,
                       apply_noise_channel, build_protocol_circuit, cond, cx,
                       exact_clone_states, exact_subsystem_state, h, measure,
                       noisy_clone_states, partial_trace, run_shots, ry, rz, x)
from teleclone.exceptions import SimulationError
from teleclone.simulator import _apply_unitary, compact

from .oracles import ideal_clone_rho, trace_distance

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL


def test_deterministic_bit():
    counts = run_shots(Circuit(1, 1, (x(0), measure(0, 0))), 100, seed=1)
    assert counts == {"1": 100}


def test_h_is_binomial_within_4_sigma():
    counts = run_shots(Circuit(1, 1, (h(0), measure(0, 0))), 10_000, seed=3)
    assert abs(counts.get("0", 0) - 5000) <= 4 * 50
    assert sum(counts.values()) == 10_000


@pytest.mark.parametrize("noise,shots", [
    (None, 2000),
    (NoiseModel(depolarizing_1q=0.02, depolarizing_2q=0.05, readout_flip=0.05,
                amplitude_damping_idle=0.02), 300),
], ids=["noiseless", "noisy"])
def test_identical_inputs_identical_counts(noise, shots):
    c = build_protocol_circuit(2, NOA, MessageState(0.7, 0.3), tomo_basis="z")
    a = run_shots(c, shots, seed=42, noise=noise)
    b = run_shots(c, shots, seed=42, noise=noise)
    assert a == b
    assert a != run_shots(c, shots, seed=43, noise=noise)


def test_shots_must_be_positive():
    with pytest.raises(SimulationError):
        run_shots(Circuit(1, 1, (measure(0, 0),)), 0, seed=1)


def test_qubit_cap():
    with pytest.raises(SimulationError):
        run_shots(Circuit(30, 1, (h(29), measure(29, 0)),
                          roles={"clones": tuple(range(30))}), 1, seed=0, cap=24)


def test_bell_outcomes_uniform_m2_all_variants():
    """Pole messages give exactly uniform Bell statistics in every variant."""
    for variant in (NOA, FULL, OPT):
        c = build_protocol_circuit(2, variant, MessageState(0.0, 0.0))
        counts = run_shots(c, 10_000, seed=11)
        sigma = math.sqrt(10_000 * 0.25 * 0.75)
        for key in ("00", "01", "10", "11"):
            assert abs(counts.get(key, 0) - 2500) <= 4 * sigma, (variant, counts)


def test_counts_match_exact_branch_probabilities():
    """Total-variation distance to the exact distribution <= 5/sqrt(shots).
    The oracle enumerates every measurement, the clone measures included."""
    from teleclone.simulator import _enumerate_branches
    shots = 10_000
    c = build_protocol_circuit(2, NOA, MessageState(1.0, 0.5), tomo_basis="z")
    exact = {}
    for bits, vec in _enumerate_branches(compact(c)):
        key = "".join(map(str, bits))
        exact[key] = exact.get(key, 0.0) + np.vdot(vec, vec).real
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    for seed in (0, 1, 2):
        counts = run_shots(c, shots, seed=seed)
        tvd = 0.5 * sum(abs(counts.get(k, 0) / shots - exact.get(k, 0.0))
                        for k in set(counts) | set(exact))
        assert tvd <= 5 / math.sqrt(shots)


def _native(c, m, variant):
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    return insert_dd(transpile_to_native(c, enumerate_layouts(m, variant)[m]))


@pytest.mark.parametrize("native", [False, True], ids=["logical", "layout-dd"])
@pytest.mark.parametrize("m,variant", [(2, NOA), (2, OPT), (2, FULL), (3, NOA),
                                       (3, OPT), (3, FULL), (4, OPT), (4, FULL)])
def test_seeded_shot_distributions_match_full_walk(m, variant, native):
    """Shot sampling from the four seeded Bell branches gives the same
    branches and per-branch distributions as walking the whole circuit."""
    from teleclone.simulator import (_bell_parts, _ground, _shot_distributions,
                                     _start, _validated)
    msg = MessageState(1.1, 0.4)
    for basis in ("x", "y", "z"):
        c = build_protocol_circuit(m, variant, msg, tomo_basis=basis)
        c = _native(c, m, variant) if native else c
        position = _validated(c, 24)
        instructions, seeds, n, _ = _start(c, position, _bell_parts(c), None)
        assert n == len(position) - 2
        bits, weights, clbits, rows = _shot_distributions(instructions, seeds, n)
        cc = compact(c)
        full = _shot_distributions(
            cc.instructions, [((0,) * cc.num_clbits, _ground(cc.num_qubits))],
            cc.num_qubits)
        assert (bits, clbits) == (full[0], full[2])
        np.testing.assert_allclose(weights, full[1], rtol=0, atol=1e-12)
        for row, want in zip(rows, full[3]):
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA)]
                         + [(m, v) for m in range(2, 9) for v in (OPT, FULL)])
def test_compiled_prep_matches_gate_walk(m, variant):
    """The fused prep gives the port slices of the gate-by-gate walk of the
    same prep gates: in float64 for a logical circuit, in complex128 for a
    native one at layouts 0 and 6 with decoupling, whose rz/sx are complex."""
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    from teleclone.simulator import _ground, _prep_state, _remap, compile_resource
    logical = build_protocol_circuit(m, variant, MessageState(1.1, 0.4))
    layouts = enumerate_layouts(m, variant)
    cases = [(logical, np.float64)] + [
        (insert_dd(transpile_to_native(logical, layouts[k])), np.complex128)
        for k in (0, 6)]
    for c, dtype in cases:
        resource = compile_resource(c)
        used, mq, pq, gates = resource.prep
        axis = {q: k for k, q in enumerate(q for q in used if q != mq)}
        assert _prep_state(gates, axis).dtype == dtype
        psi = _ground(len(axis))
        for ins in gates:
            _apply_unitary(psi, _remap(ins, axis), len(axis))
        view = psi.reshape(1 << axis[pq], 2, -1)
        for got, want in ((resource.t0, view[:, 0, :]), (resource.t1, view[:, 1, :])):
            assert got.dtype == np.complex128
            np.testing.assert_allclose(got, want.reshape(-1), rtol=0, atol=1e-12)


def test_exact_clone_states_m2_pole():
    c = build_protocol_circuit(2, NOA, MessageState(0.0, 0.0))
    states = exact_clone_states(c)
    want = np.diag([5 / 6, 1 / 6]).astype(complex)
    for rho in states:
        np.testing.assert_allclose(rho, want, atol=1e-10)


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA), (2, FULL),
                                       (3, OPT), (4, OPT), (5, OPT)])
def test_exact_clone_states_match_shrunk_message(m, variant):
    msg = MessageState(1.234, 4.321)
    c = build_protocol_circuit(m, variant, msg)
    states = exact_clone_states(c)
    want = ideal_clone_rho(msg.bloch(), m)
    assert len(states) == m
    for rho in states:
        np.testing.assert_allclose(rho, want, atol=1e-10)
    # clones pairwise equal
    for rho in states[1:]:
        np.testing.assert_allclose(rho, states[0], atol=1e-10)


@pytest.mark.slow
def test_exact_clone_states_m10_theory_value():
    from teleclone import clone_metrics
    msg = MessageState(0.9, 1.7)
    c = build_protocol_circuit(10, OPT, msg)
    states = exact_clone_states(c)
    vals = [clone_metrics(rho, msg.bloch()).fidelity_to_message for rho in states]
    assert all(abs(v - 0.7) < 1e-9 for v in vals)


def test_exact_requires_bell_structure():
    c = Circuit(2, 1, (h(0), measure(0, 0)), roles={"message": 0, "port": 1,
                                                    "clones": (1,)})
    with pytest.raises(SimulationError):
        exact_clone_states(c)


def test_exact_fast_path_matches_generic():
    """The port-slice shortcut and plain branch enumeration must agree."""
    from teleclone.simulator import _enumerate_branches, _ptrace_pure
    msg = MessageState(0.8, 2.5)
    for m, variant in [(2, NOA), (3, OPT)]:
        c = build_protocol_circuit(m, variant, msg)
        fast = exact_clone_states(c)
        cc = compact(c)
        branches = _enumerate_branches(cc)
        for k, q in enumerate(cc.roles["clones"]):
            rho = sum(_ptrace_pure(v, [q], cc.num_qubits) for _, v in branches)
            np.testing.assert_allclose(fast[k], rho, atol=1e-12)


def test_port_gate_after_bell_cx_is_enumerated():
    """A gate on the port between the Bell cx and the measures cannot be
    moved ahead of that cx, so such a circuit is walked in full."""
    from teleclone.simulator import _enumerate_branches, _ptrace_pure
    c = build_protocol_circuit(2, NOA, MessageState(0.8, 2.5))
    port = c.roles["port"]
    at = c.instructions.index(cx(0, port)) + 1
    odd = Circuit(c.num_qubits, c.num_clbits,
                  c.instructions[:at] + (h(port), rz(0.7, port)) + c.instructions[at:],
                  roles=c.roles)
    branches = _enumerate_branches(odd)
    for k, q in enumerate(odd.roles["clones"]):
        want = sum(_ptrace_pure(v, [q], odd.num_qubits) for _, v in branches)
        np.testing.assert_allclose(exact_clone_states(odd)[k], want, atol=1e-12)
        assert np.abs(want - exact_clone_states(c)[k]).max() > 0.05


def test_compiled_resource_reused_only_on_matching_prep():
    """A compiled resource serves every message and basis of its prep and
    gives the results of an uncompiled call; a circuit whose prep differs
    compiles its own."""
    from teleclone.simulator import compile_resource
    c = build_protocol_circuit(2, NOA, MessageState(0.3, 1.2))
    resource = compile_resource(c)
    msg = MessageState(0.8, 2.5)
    same = build_protocol_circuit(2, NOA, msg)
    for got, want in zip(exact_clone_states(same, resource=resource),
                         exact_clone_states(same)):
        np.testing.assert_array_equal(got, want)
    for basis in ("x", "y", "z"):
        t = build_protocol_circuit(2, NOA, msg, tomo_basis=basis)
        assert run_shots(t, 500, seed=4, resource=resource) == run_shots(t, 500, seed=4)
    clone = same.roles["clones"][0]
    odd = Circuit(same.num_qubits, same.num_clbits,
                  (ry(0.9, clone),) + same.instructions, roles=same.roles)
    got = exact_clone_states(odd, resource=resource)
    for rho, want, plain in zip(got, exact_clone_states(odd), exact_clone_states(same)):
        np.testing.assert_allclose(rho, want, atol=1e-12)
        assert np.abs(rho - plain).max() > 0.05


def test_subsystem_state_takes_original_qubits():
    """Qubits name the caller's circuit, not its compacted copy."""
    from teleclone.hardware import enumerate_layouts, transpile_to_native
    from teleclone.simulator import used_qubits
    logical = build_protocol_circuit(3, OPT, MessageState(0.8, 2.5))
    native = transpile_to_native(logical, enumerate_layouts(3, OPT)[0])
    np.testing.assert_allclose(
        exact_subsystem_state(native, native.roles["clones"]),
        exact_subsystem_state(logical, logical.roles["clones"]), atol=1e-12)
    idle = min(set(range(native.num_qubits)) - used_qubits(native))
    with pytest.raises(SimulationError):
        exact_subsystem_state(native, (idle,))
    # measured qubits have no state, whether the Bell prefix is seeded or,
    # with a gate on the port after the Bell cx, the circuit is walked in full
    port = logical.roles["port"]
    at = logical.instructions.index(cx(0, port)) + 1
    walked = Circuit(logical.num_qubits, logical.num_clbits,
                     logical.instructions[:at] + (h(port),) + logical.instructions[at:],
                     roles=logical.roles)
    for c in (native, walked):
        for role in ("port", "message"):
            with pytest.raises(SimulationError):
                exact_subsystem_state(c, (c.roles[role],))


def test_partial_trace_product_and_bell():
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    state = np.kron(np.array([1, 0], dtype=complex), plus)
    rho = np.outer(state, state.conj())
    np.testing.assert_allclose(partial_trace(rho, [1]), np.outer(plus, plus.conj()),
                               atol=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho_b = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho_b, [0]), np.eye(2) / 2, atol=1e-12)
    with pytest.raises(SimulationError):
        partial_trace(rho_b, [5])


def test_partial_trace_ancilla_equivalence_m3():
    from teleclone import build_telecloning_state, statevector
    full = build_telecloning_state(3, FULL)
    opt = build_telecloning_state(3, OPT)
    keep_f = [full.roles["port"], *full.roles["clones"]]
    keep_o = [opt.roles["port"], *opt.roles["clones"]]
    pf = statevector(full)
    po = statevector(opt)
    rf = partial_trace(np.outer(pf, pf.conj()), keep_f, full.num_qubits)
    ro = partial_trace(np.outer(po, po.conj()), keep_o, opt.num_qubits)
    np.testing.assert_allclose(rf, ro, atol=1e-12)


def test_noise_channels_basic():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(apply_noise_channel(rho0, ("depolarizing", 0.0), [0]),
                               rho0, atol=1e-12)
    np.testing.assert_allclose(apply_noise_channel(rho0, ("depolarizing", 1.0), [0]),
                               np.eye(2) / 2, atol=1e-12)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(
        apply_noise_channel(rho1, ("amplitude_damping", 1.0), [0]), rho0, atol=1e-12)
    with pytest.raises(SimulationError):
        apply_noise_channel(rho0, ("depolarizing", 1.5), [0])
    # trace preserved
    out = apply_noise_channel(rho0, ("bit_flip", 0.3), [0])
    assert abs(np.trace(out).real - 1.0) < 1e-10


def test_statevector_norm_preserved_random_circuits():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        for _ in range(8):
            kind = rng.integers(0, 4)
            if kind == 0 and n >= 2:
                a, b = rng.choice(n, size=2, replace=False)
                ins = cx(int(a), int(b))
            elif kind == 1:
                ins = ry(float(rng.normal()), int(rng.integers(n)))
            elif kind == 2:
                ins = rz(float(rng.normal()), int(rng.integers(n)))
            else:
                ins = h(int(rng.integers(n)))
            _apply_unitary(psi, ins, n)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10


def test_noise_monotone_fidelity_and_floor():
    """Depolarizing sweep: clone fidelity decreases toward the 0.5 floor."""
    from teleclone import fidelity
    msg = MessageState(0.8, 0.6)
    pure = ideal_clone_rho(msg.bloch(), 1)
    c = build_protocol_circuit(2, NOA, msg)
    means = []
    for p in (0.0, 0.002, 0.01, 0.05, 0.5):
        noise = NoiseModel(depolarizing_1q=p, depolarizing_2q=p)
        states = noisy_clone_states(c, noise)
        means.append(np.mean([fidelity(pure, r) for r in states]))
    assert all(means[i] >= means[i + 1] - 1e-12 for i in range(len(means) - 1))
    assert abs(means[0] - 5 / 6) < 1e-10
    assert means[-1] < 0.56


def test_noisy_p0_matches_exact():
    msg = MessageState(1.0, 1.0)
    c = build_protocol_circuit(2, NOA, msg)
    a = noisy_clone_states(c, NoiseModel())
    b = exact_clone_states(c)
    for x_, y_ in zip(a, b):
        np.testing.assert_allclose(x_, y_, atol=1e-10)


_ALL_CHANNELS = NoiseModel(depolarizing_1q=0.01, depolarizing_2q=0.02, readout_flip=0.1,
                           amplitude_damping_idle=0.05)


@pytest.mark.parametrize("m,variant,noise,layout_dd", [
    (2, NOA, NoiseModel(depolarizing_1q=0.02, depolarizing_2q=0.05), False),
    (2, NOA, _ALL_CHANNELS, True),
    (3, OPT, _ALL_CHANNELS, True),
], ids=["depolarizing", "all-channels-layout0-dd", "m3-opt-all-channels-layout0-dd"])
def test_shot_noise_matches_density_oracle(m, variant, noise, layout_dd):
    """Stochastic Kraus unravelling agrees with the density-matrix path."""
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    msg = MessageState(0.6, 0.9)
    shots = 4000
    c = build_protocol_circuit(m, variant, msg, tomo_basis="z")
    if layout_dd:
        c = insert_dd(transpile_to_native(c, enumerate_layouts(m, variant)[0]))
    counts = run_shots(c, shots, seed=5, noise=noise)
    # z-basis marginal of each clone from the density oracle: the same circuit
    # without its clone measurements, with the readout flip applied to P(1)
    c0 = Circuit(c.num_qubits, c.num_clbits,
                 tuple(i for i in c.instructions
                       if not (i.gate == "measure" and i.clbit >= 2)), roles=c.roles)
    f = noise.readout_flip
    for clone, rho in enumerate(noisy_clone_states(c0, noise)):
        p1 = (1 - f) * rho[1, 1].real + f * rho[0, 0].real
        n1 = sum(v for k, v in counts.items() if k[2 + clone] == "1")
        sigma = math.sqrt(shots * p1 * (1 - p1))
        assert abs(n1 - shots * p1) <= 5 * sigma, clone


def test_noisy_counts_do_not_depend_on_blocks(monkeypatch):
    """Each shot draws from its own stream, so the counts are the same in one
    block or in many, and with the shot range run whole or in two halves."""
    from teleclone import simulator
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    noise = NoiseModel(depolarizing_1q=0.05, depolarizing_2q=0.1, readout_flip=0.1,
                       amplitude_damping_idle=0.1)
    c = build_protocol_circuit(2, NOA, MessageState(0.7, 0.3), tomo_basis="x")
    c = compact(insert_dd(transpile_to_native(c, enumerate_layouts(2, NOA)[0])))
    shots = 600
    whole = run_shots(c, shots, seed=12, noise=noise)
    assert len(whole) > 8
    halves = (simulator._trajectory_counts(c, noise, 12, 0, 250)
              + simulator._trajectory_counts(c, noise, 12, 250, shots))
    assert dict(sorted(halves.items())) == whole
    monkeypatch.setattr(simulator, "_BLOCK_AMPLITUDES", 7 << c.num_qubits)
    assert run_shots(c, shots, seed=12, noise=noise) == whole
    late = simulator._trajectory_counts(c, noise, 12, 250, shots)
    early = simulator._trajectory_counts(c, noise, 12, 0, 250)
    assert dict(sorted((early + late).items())) == whole


def test_readout_flip_biases_counts():
    c = Circuit(1, 1, (measure(0, 0),), roles={})
    counts = run_shots(c, 2000, seed=9, noise=NoiseModel(readout_flip=0.25))
    frac = counts.get("1", 0) / 2000
    assert abs(frac - 0.25) < 0.05
