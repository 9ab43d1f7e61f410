"""Shot sampling, exact branch enumeration, partial trace, noise channels."""

import itertools
import math

import numpy as np
import pytest

from teleclone import (Circuit, MessageState, NoiseModel, TelecloningVariant,
                       build_protocol_circuit, cond, cx, exact_clone_states,
                       exact_subsystem_state, h, measure, noisy_clone_states,
                       partial_trace, run_shots, ry, rz, sx, x, z)
from teleclone.exceptions import SimulationError
from teleclone.simulator import _apply_block, _block, compact, gate_matrix

from .oracles import (apply_1q, apply_unitary, basis_state, embed, enumerate_branches,
                      ideal_clone_rho, noisy_gate, ptrace_pure, random_density_matrix)

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL
_ALL_CHANNELS = NoiseModel(depolarizing_1q=0.01, depolarizing_2q=0.02, readout_flip=0.1,
                           amplitude_damping_idle=0.05)


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


@pytest.mark.parametrize("shots,seed", [(0, 1), (2.5, 1), (True, 1), (2 ** 63, 1), (10, -1),
                                        (10, 2 ** 64), (10, 1.5)],
                         ids=["shots-zero", "shots-float", "shots-bool", "shots-too-large",
                              "seed-negative", "seed-too-large", "seed-float"])
def test_run_shots_rejects_bad_shots_or_seed(shots, seed):
    from teleclone import tomography_run
    from teleclone.tomography import sample_tomography
    c = Circuit(1, 1, (h(0), measure(0, 0)))
    for noise in (None, NoiseModel(readout_flip=0.1)):
        with pytest.raises(SimulationError):
            run_shots(c, shots, seed=seed, noise=noise)
    if seed == 1:  # a bad shot count, which tomography_run and sample_tomography refuse too
        with pytest.raises(SimulationError):
            tomography_run(2, NOA, MessageState(0.3, 0.2), shots_per_basis=shots, seed=seed)
        with pytest.raises(SimulationError):
            sample_tomography([[0.5, 0.5, 0.5]], shots, seed)


def test_shot_counts_run_up_to_the_binomial_range():
    """numpy draws binomial and multinomial counts below 2^63: 2^63 - 1
    shots run in run_shots, sample_tomography and tomography_run, and the
    counts sum to them."""
    from teleclone import tomography_run
    from teleclone.tomography import sample_tomography
    shots = 2 ** 63 - 1
    assert sum(run_shots(Circuit(1, 1, (h(0), measure(0, 0))), shots, seed=1).values()) == shots
    for rec in sample_tomography([[0.5, 0.2, 0.9]], shots, 0) + \
            tomography_run(2, NOA, MessageState(0.3, 0.2), shots, seed=1):
        assert all(sum(rec.counts[b]) == shots for b in ("x", "y", "z"))


def test_qubit_cap():
    with pytest.raises(SimulationError):
        run_shots(Circuit(30, 1, (h(29), measure(29, 0)),
                          roles={"clones": tuple(range(30))}), 1, seed=0)


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
    shots = 10_000
    c = build_protocol_circuit(2, NOA, MessageState(1.0, 0.5), tomo_basis="z")
    exact = _oracle_table(c)
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    for seed in (0, 1, 2):
        counts = run_shots(c, shots, seed=seed)
        tvd = 0.5 * sum(abs(counts.get(k, 0) / shots - exact.get(k, 0.0))
                        for k in set(counts) | set(exact))
        assert tvd <= 5 / math.sqrt(shots)


def _native(c, m, variant):
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    return insert_dd(transpile_to_native(c, enumerate_layouts(m, variant)[m]))


def _oracle_table(c):
    """The same table from every measurement branch of the oracle's walk."""
    table = {}
    for bits, vec in enumerate_branches(compact(c)):
        key = "".join(map(str, bits))
        table[key] = table.get(key, 0.0) + np.vdot(vec, vec).real
    return table


def _assert_same_table(c):
    from teleclone.simulator import _compaction, _outcome_table
    got, want = _outcome_table(c, _compaction(c)), _oracle_table(c)
    assert abs(sum(got.values()) - 1.0) < 1e-12
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < 1e-12, key


@pytest.mark.parametrize("native", [False, True], ids=["logical", "layout-dd"])
@pytest.mark.parametrize("m,variant", [(2, NOA), (2, OPT), (2, FULL), (3, NOA),
                                       (3, OPT), (3, FULL), (4, OPT), (4, FULL)])
def test_outcome_table_matches_branch_oracle(m, variant, native):
    """The joint outcome distribution that noiseless shots are drawn from,
    walked in full after its fused prep, is the oracle's: every measurement
    enumerated gate by gate from |0...0>, the clone measures included."""
    msg = MessageState(1.1, 0.4)
    for basis in ("x", "y", "z"):
        c = build_protocol_circuit(m, variant, msg, tomo_basis=basis)
        _assert_same_table(_native(c, m, variant) if native else c)


def test_outcome_table_of_a_circuit_walked_in_full():
    """A measure read by a later cond is walked, both outcomes, and the
    terminal measures after it are deferred, in an order that is not the
    order of their qubits: for a general circuit, and for a protocol
    circuit whose feed-forward reads a clone bit."""
    general = Circuit(3, 3, (h(0), cx(0, 1), ry(0.7, 2), measure(0, 0),
                             cond(0, 1, (x(2), ry(0.3, 1))), ry(1.2, 1),
                             measure(2, 1), measure(1, 2)))
    _assert_same_table(general)
    c = build_protocol_circuit(2, OPT, MessageState(1.1, 0.4), tomo_basis="y")
    clones = c.roles["clones"]
    c = Circuit(c.num_qubits, c.num_clbits + 1,
                c.instructions + (cond(2, 1, (ry(0.9, clones[1]),)),
                                  measure(clones[1], c.num_clbits)), roles=c.roles)
    _assert_same_table(c)
    counts = run_shots(c, 4000, seed=3)
    assert sum(counts.values()) == 4000 and set(counts) <= set(_oracle_table(c))


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA)]
                         + [(m, v) for m in range(2, 9) for v in (OPT, FULL)])
def test_compiled_prep_matches_gate_walk(m, variant):
    """The prep's support, each basis index once, gives the state of the
    dense gate-by-gate walk of the same prep gates: in float64 for a
    logical circuit, in complex128 for a native one at layouts 0 and 6 with
    decoupling, whose rz/sx are complex."""
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    from teleclone.simulator import _ground, _prep_state, _protocol_parts, _remap, _validated
    logical = build_protocol_circuit(m, variant, MessageState(1.1, 0.4))
    layouts = enumerate_layouts(m, variant)
    cases = [(logical, np.float64)] + [
        (insert_dd(transpile_to_native(logical, layouts[k])), np.complex128)
        for k in (0, 6)]
    for c, dtype in cases:
        _, _, gates, _, _ = _protocol_parts(c)
        mq = c.roles["message"]
        axis = {q: k for k, q in enumerate(q for q in _validated(c) if q != mq)}
        idx, amp = _prep_state(gates, axis)
        assert amp.dtype == dtype and np.unique(idx).size == idx.size
        got = np.zeros(1 << len(axis), dtype=complex)
        got[idx] = amp
        psi = _ground(len(axis))
        for ins in gates:
            apply_unitary(psi, _remap(ins, axis), len(axis))
        np.testing.assert_allclose(got, psi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", [OPT, FULL])
def test_prep_is_walked_on_its_support(variant):
    """The prep without the message, a sum of Dicke-state products, is
    carried on its support alone: 2^(M+1) - 2 basis states for the
    optimized resource and C(2M, M) for the full one, each once, for
    M = 2..10, with norm 1."""
    from teleclone.simulator import _prep_state, _protocol_parts, _validated
    for m in range(2, 11):
        c = build_protocol_circuit(m, variant, MessageState(1.1, 0.4))
        _, _, gates, _, _ = _protocol_parts(c)
        mq = c.roles["message"]
        idx, amp = _prep_state(gates, {q: k for k, q in enumerate(
            q for q in _validated(c) if q != mq)})
        assert idx.size == (2 ** (m + 1) - 2 if variant is OPT else math.comb(2 * m, m))
        assert np.unique(idx).size == idx.size
        assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12


def test_prep_whose_gates_cancel_leaves_ground():
    """Gates of every kind, relabelling (cx, x), diagonal (z, rz) and
    mixing (ry, h, sx), followed by their inverses in reverse order, leave
    the support {0}: what rounding leaves elsewhere is dropped. The x and z
    are undone as HZH and HXH, so that each branch must act."""
    from teleclone.simulator import _prep_state
    gates = [h(0), ry(0.7, 1), cx(0, 2), ry(1.1, 3), cx(3, 4), h(4), cx(1, 3), x(3),
             rz(0.4, 2), z(4), sx(1), cx(2, 4), ry(0.2, 0), x(1), z(0), cx(4, 0)]
    undo = {"ry": lambda g: [ry(-g.angle, *g.qubits)], "rz": lambda g: [rz(-g.angle, *g.qubits)],
            "sx": lambda g: [g] * 3, "x": lambda g: [h(*g.qubits), z(*g.qubits), h(*g.qubits)],
            "z": lambda g: [h(*g.qubits), x(*g.qubits), h(*g.qubits)]}
    gates += [u for g in gates[::-1] for u in undo.get(g.gate, lambda g: [g])(g)]
    idx, amp = _prep_state(gates, {q: q for q in range(5)})
    assert idx.tolist() == [0] and abs(amp[0] - 1.0) <= 1e-12


def _layout_0_dd(c, m):
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    return insert_dd(transpile_to_native(c, enumerate_layouts(m, OPT)[0]))


def test_prep_resumes_from_a_support():
    """A native prep cut in two, at cuts spread over it and at cuts inside
    a phase (a gate on the qubit that the gate before the cut paired), and
    resumed from the support of its first part, gives the state of one walk
    within 1e-14, as the full walk resumes each gate after a measure; the
    support it resumes from is left as it was."""
    from teleclone.simulator import _prep_state, _protocol_parts, _validated
    c = _layout_0_dd(build_protocol_circuit(4, OPT, MessageState(1.1, 0.4)), 4)
    _, _, gates, _, _ = _protocol_parts(c)
    mq = c.roles["message"]
    axis = {q: k for k, q in enumerate(q for q in _validated(c) if q != mq)}

    def dense(support):
        psi = np.zeros(1 << len(axis), dtype=complex)
        psi[support[0]] = support[1]
        return psi

    inside = [k for k in range(1, len(gates)) if gates[k - 1].gate == "sx"
              and gates[k].qubits[-1] == gates[k - 1].qubits[0]]
    whole = dense(_prep_state(gates, axis))
    for k in sorted({*np.linspace(1, len(gates) - 1, 20).astype(int).tolist(), *inside[::7]}):
        start = _prep_state(gates[:k], axis)
        kept = [a.copy() for a in start]
        got = dense(_prep_state(gates[k:], axis, start=start))
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-14)
        assert all(np.array_equal(a, b) for a, b in zip(start, kept))


def test_noiseless_shots_hold_no_dense_state():
    """Noiseless shots of a native M=10 protocol circuit, 21 qubits after
    compaction, walk its Bell branches on their supports: the traced peak
    stays under the 32 MiB of one dense 21-qubit state."""
    import tracemalloc
    from teleclone.simulator import used_qubits
    c = _layout_0_dd(build_protocol_circuit(10, OPT, MessageState(1.1, 0.4), tomo_basis="z"),
                     10)
    assert len(used_qubits(c)) == 21
    tracemalloc.start()
    try:
        counts = run_shots(c, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10_000
    assert peak < 32 << 20


@pytest.mark.parametrize("m", [4, 5, 8])
def test_zero_noise_response_is_the_noiseless_one(m):
    """A noise model whose channels are all zero is no noise: its response
    is the noiseless one bitwise, past the density cap too (M=5, 8)."""
    from teleclone.simulator import compile_response
    c = build_protocol_circuit(m, OPT, MessageState(1.1, 0.4))
    assert np.array_equal(compile_response(c, NoiseModel()), compile_response(c))


def test_density_cap_names_a_density_matrix():
    """Noisy exact simulation holds a density matrix, and its cap says so."""
    c = build_protocol_circuit(4, OPT, MessageState(0.3, 0.2))
    with pytest.raises(SimulationError,
                       match="a density matrix over 9 qubits exceeds the 8-qubit cap"):
        noisy_clone_states(c, NoiseModel(depolarizing_1q=0.01))


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
    for variant in (OPT, FULL):
        states = exact_clone_states(build_protocol_circuit(10, variant, msg))
        vals = [clone_metrics(rho, msg.bloch()).fidelity_to_message for rho in states]
        assert all(abs(v - 0.7) < 1e-9 for v in vals), variant


def test_exact_requires_bell_structure():
    """Exact states need the Bell measurement and no later measure: a
    tomography circuit, which measures its clones, is refused, though its
    response is compiled with those measures deferred."""
    c = Circuit(2, 1, (h(0), measure(0, 0)), roles={"message": 0, "port": 1,
                                                    "clones": (1,)})
    with pytest.raises(SimulationError):
        exact_clone_states(c)
    from teleclone.simulator import compile_response
    tomo = build_protocol_circuit(2, NOA, MessageState(0.8, 2.5), tomo_basis="x")
    with pytest.raises(SimulationError, match="Bell-measurement structure"):
        exact_clone_states(tomo)
    with pytest.raises(SimulationError, match="Bell-measurement structure"):
        exact_subsystem_state(tomo, tomo.roles["clones"][:1])
    assert compile_response(tomo).shape == (2, 2, 2, 2, 2)


def test_exact_fast_path_matches_generic():
    """The port-slice shortcut and plain branch enumeration must agree."""
    msg = MessageState(0.8, 2.5)
    for m, variant in [(2, NOA), (3, OPT)]:
        c = build_protocol_circuit(m, variant, msg)
        fast = exact_clone_states(c)
        cc = compact(c)
        branches = enumerate_branches(cc)
        for k, q in enumerate(cc.roles["clones"]):
            rho = sum(ptrace_pure(v, [q], cc.num_qubits) for _, v in branches)
            np.testing.assert_allclose(fast[k], rho, atol=1e-12)


def test_port_gate_after_bell_cx_is_enumerated():
    """A gate on the port between the Bell cx and the measures cannot be
    moved ahead of that cx, so such a circuit is walked in full."""
    c = build_protocol_circuit(2, NOA, MessageState(0.8, 2.5))
    port = c.roles["port"]
    at = c.instructions.index(cx(0, port)) + 1
    odd = Circuit(c.num_qubits, c.num_clbits,
                  c.instructions[:at] + (h(port), rz(0.7, port)) + c.instructions[at:],
                  roles=c.roles)
    branches = enumerate_branches(odd)
    for k, q in enumerate(odd.roles["clones"]):
        want = sum(ptrace_pure(v, [q], odd.num_qubits) for _, v in branches)
        np.testing.assert_allclose(exact_clone_states(odd)[k], want, atol=1e-12)
        assert np.abs(want - exact_clone_states(c)[k]).max() > 0.05


def _oracle_states(c, groups):
    """Branch-summed reduced states of ``c`` on each group of its qubits,
    from the gate-by-gate walk of the whole compacted circuit."""
    from teleclone.simulator import _compaction
    position, cc = _compaction(c), compact(c)
    branches = enumerate_branches(cc)
    return [sum(ptrace_pure(v, [position[q] for q in group], cc.num_qubits)
                for _, v in branches) for group in groups]


def _assert_traced_first(c, msg):
    """exact_clone_states, exact_subsystem_state on all clones and on two
    clones in reverse order, and the response contracted with ``msg`` give
    the gate-by-gate oracle's states to 1e-12."""
    from teleclone.simulator import apply_response, compile_response
    clones = c.roles["clones"]
    pair = (clones[-1], clones[0])
    want = _oracle_states(c, [(q,) for q in clones] + [clones, pair])
    got = exact_clone_states(c) + [exact_subsystem_state(c, clones),
                                   exact_subsystem_state(c, pair)]
    a = np.array(msg.amplitudes())
    got += list(apply_response(compile_response(c), np.outer(a, a.conj())))
    want += want[:len(clones)]
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("native", [False, True], ids=["logical", "layouts"])
@pytest.mark.parametrize("m,variant", [(2, NOA), (2, OPT), (2, FULL), (3, NOA),
                                       (3, OPT), (3, FULL), (5, OPT)])
def test_trace_first_matches_branch_oracle(m, variant, native):
    """Tracing each clone out of the prep's port slices and turning it by
    each Bell branch's feed-forward gives the branch-by-branch oracle's
    states, logical and on all 7 layouts with and without decoupling, for
    random messages."""
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    rng = np.random.default_rng(7 * m + native)
    for _ in range(2):
        msg = MessageState(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        logical = build_protocol_circuit(m, variant, msg)
        circuits = [logical] if not native else [
            f(transpile_to_native(logical, layout)) for layout in enumerate_layouts(m, variant)
            for f in (lambda c: c, insert_dd)]
        for c in circuits:
            _assert_traced_first(c, msg)


def _with_suffix(c, mid, tail):
    """``c`` with ``mid`` between its two Bell measures and ``tail`` at the
    end."""
    at = [k for k, ins in enumerate(c.instructions) if ins.gate == "measure"][1]
    ins = c.instructions
    return Circuit(c.num_qubits, c.num_clbits, ins[:at] + tuple(mid) + ins[at:] + tuple(tail),
                   roles=c.roles)


def test_trace_first_turns_by_non_hermitian_feed_forward():
    """One-qubit gates after the Bell measures that are not their own
    inverse, between the measures, in cond bodies and on an ancilla that is
    traced out, are applied in order, as U rho U^dagger; under all four
    noise channels each clone's tail, cut down to its own gates, gives the
    whole-circuit density oracle's states."""
    from teleclone import cond
    from teleclone.simulator import apply_response, compile_response, message_state
    from teleclone.telecloning import message_prep
    for m, variant in [(2, NOA), (3, OPT), (3, FULL)]:
        msg = MessageState(1.1, 0.4)
        c = build_protocol_circuit(m, variant, msg)
        a, b = c.roles["clones"][:2]
        mid = [ry(0.7, a), rz(0.3, b)]
        tail = [cond(0, 1, [sx(a), rz(1.3, a)]), cond(1, 0, [ry(-0.4, b)]), rz(0.9, a),
                cond(1, 1, [sx(b)])] + [ry(0.5, q) for q in c.roles["ancillas"]]
        odd = _with_suffix(c, mid, tail)
        _assert_traced_first(odd, msg)
        got = apply_response(compile_response(odd, _ALL_CHANNELS),
                             message_state(message_prep(msg), _ALL_CHANNELS, {}))
        for g, w in zip(got, noisy_clone_states(odd, _ALL_CHANNELS), strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_apply_response_ignores_memory_layout():
    """A noisy M=4 response contracts to bitwise-equal clone states in the
    layout compile_response stacks it in, in C order and in Fortran order."""
    from teleclone.simulator import apply_response, compile_response
    c = build_protocol_circuit(4, OPT, MessageState(0.3, 0.2))
    response = compile_response(c, _ALL_CHANNELS)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(a, a.conj()) / (a.conj() @ a)
        want = apply_response(response, rho)
        for layout in (np.ascontiguousarray(response), np.asfortranarray(response)):
            assert np.array_equal(apply_response(layout, rho), want)


def test_two_qubit_feed_forward_walks_in_full():
    """A cx between two clones after the Bell measures cannot be traced
    first: the clone states come from the full walk, and the circuit has no
    response."""
    from teleclone.simulator import compile_response
    c = build_protocol_circuit(3, OPT, MessageState(0.8, 2.5))
    a, b = c.roles["clones"][:2]
    odd = _with_suffix(c, [], [ry(0.6, a), cx(a, b)])
    want = _oracle_states(odd, [(q,) for q in odd.roles["clones"]] + [(b, a)])
    got = exact_clone_states(odd) + [exact_subsystem_state(odd, (b, a))]
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    assert np.abs(got[1] - exact_clone_states(c)[1]).max() > 0.05
    with pytest.raises(SimulationError, match="cannot be traced"):
        compile_response(odd)


def test_full_walk_reads_its_circuit_in_place(monkeypatch):
    """Noiseless run_shots, statevector and the exact clone states of a
    circuit with no response walk the caller's instructions where they lie:
    with compact made to raise, they give what they gave before, and the
    clone states are still the gate-by-gate oracle's."""
    from teleclone import simulator
    c = build_protocol_circuit(3, OPT, MessageState(0.8, 2.5))
    a, b = c.roles["clones"][:2]
    odd = _with_suffix(c, [], [ry(0.6, a), cx(a, b)])
    first = next(k for k, ins in enumerate(odd.instructions) if ins.gate == "measure")
    unitary = Circuit(odd.num_qubits, 0, odd.instructions[:first])
    want = _oracle_states(odd, [(q,) for q in odd.roles["clones"]])

    def calls():
        return (run_shots(odd, 3000, seed=4), simulator.statevector(unitary),
                exact_clone_states(odd))

    before = calls()

    def refuse(circuit):
        raise AssertionError("compact was called")

    monkeypatch.setattr(simulator, "compact", refuse)
    after = calls()
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1])
    for g, old, w in zip(after[2], before[2], want, strict=True):
        assert np.array_equal(g, old)
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_outcome_table_keys_only_outcomes_that_occur():
    """Deferred measures whose outcomes cannot occur give no key: x on
    qubit 0 and h on qubit 2, each of three qubits then measured, gives only
    the two outcomes with qubit 0 at 1 and qubit 1 at 0."""
    from teleclone.simulator import _compaction, _outcome_table
    c = Circuit(3, 3, (x(0), h(2), measure(0, 0), measure(1, 1), measure(2, 2)))
    table = _outcome_table(c, _compaction(c))
    assert set(table) == {"100", "101"}
    assert all(abs(p - 0.5) < 1e-15 for p in table.values())
    assert run_shots(c, 200, seed=1).keys() <= {"100", "101"}


def test_outcome_table_of_a_circuit_without_clbits():
    """A circuit that records no bit has one outcome, the empty string."""
    from teleclone.simulator import _compaction, _outcome_table
    c = Circuit(2, 0, (h(0), cx(0, 1)))
    assert _outcome_table(c, _compaction(c)) == {"": pytest.approx(1.0, abs=1e-15)}
    assert run_shots(c, 50, seed=3) == {"": 50}


def test_noiseless_run_shots_computes_the_compaction_once(monkeypatch):
    """_validated's compaction map is the one the full walk reads."""
    from teleclone import simulator
    calls = []

    def counted(circuit):
        calls.append(circuit)
        return compaction(circuit)

    compaction = simulator._compaction
    monkeypatch.setattr(simulator, "_compaction", counted)
    c = build_protocol_circuit(3, OPT, MessageState(0.8, 2.5), tomo_basis="z")
    run_shots(c, 100, seed=0)
    assert len(calls) == 1


def test_protocol_parts_split_a_protocol_circuit():
    """One scan splits an M=2 protocol circuit: the message's ry and rz
    before its Bell cx, the message's gates from that cx on, the prep, the
    two Bell measures and the feed-forward conds after them. A circuit
    without a port is refused, and one with a gate on the port after the
    Bell cx cannot be traced first."""
    from teleclone.simulator import _protocol_parts
    c = build_protocol_circuit(2, OPT, MessageState(1.1, 0.4))
    mq, pq = c.roles["message"], c.roles["port"]
    pre, post, prep, bell, later = _protocol_parts(c)
    assert [(ins.gate, ins.qubits) for ins in pre] == [("ry", (mq,)), ("rz", (mq,))]
    assert post[0] == cx(mq, pq) and all(ins.qubits == (mq,) for ins in post[1:])
    assert prep and all(mq not in ins.qubits for ins in prep)
    assert [(ins.gate, ins.qubits[0]) for ins in bell] == [("measure", pq), ("measure", mq)]
    assert later and all(ins.gate == "cond" for ins in later)
    assert sorted(map(id, pre + post + prep + bell + later)) == sorted(
        id(ins) for ins in c.instructions if ins.gate != "barrier")
    roles = {k: v for k, v in c.roles.items() if k != "port"}
    with pytest.raises(SimulationError, match="role metadata"):
        _protocol_parts(Circuit(c.num_qubits, c.num_clbits, c.instructions, roles=roles))
    at = c.instructions.index(cx(mq, pq)) + 1
    odd = Circuit(c.num_qubits, c.num_clbits,
                  c.instructions[:at] + (h(pq),) + c.instructions[at:], roles=c.roles)
    assert _protocol_parts(odd) is None


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


def test_subsystem_state_refuses_a_repeated_qubit():
    """A qubit listed twice is refused by name, not by a numpy error."""
    c = build_protocol_circuit(3, OPT, MessageState(0.8, 2.5))
    q = c.roles["clones"][1]
    with pytest.raises(SimulationError, match=rf"qubits \[{q}\] are repeated"):
        exact_subsystem_state(c, (q, q))


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


def test_partial_trace_rejects_a_matrix_that_is_not_a_density_matrix():
    for rho in (np.eye(3) / 3, np.eye(4)[:, :2], np.ones(4)):
        with pytest.raises(SimulationError, match="power of two"):
            partial_trace(rho, [0])


def test_partial_trace_rejects_a_qubit_out_of_range():
    for keep in ([5], [-1], [0, 2]):
        with pytest.raises(SimulationError, match="out of range"):
            partial_trace(np.eye(4) / 4, keep)


def test_partial_trace_rejects_a_repeated_qubit():
    with pytest.raises(SimulationError, match="repeated"):
        partial_trace(np.eye(4) / 4, [0, 0])


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


def _oracle_gates(n):
    """x, sx, rz, h, ry and cx in both orientations, on the first and last
    of ``n`` qubits and one between."""
    return [x(n - 1), sx(0), rz(0.7, 1), h(n - 1), ry(1.3, 1), cx(0, n - 1), cx(n - 1, 1)]


_ONE_CHANNEL = {
    "depolarizing_1q": NoiseModel(depolarizing_1q=0.3),
    "depolarizing_2q": NoiseModel(depolarizing_2q=0.4),
    "readout_flip": NoiseModel(readout_flip=0.2),
    "amplitude_damping": NoiseModel(amplitude_damping_idle=0.35),
    "all-four": NoiseModel(depolarizing_1q=0.3, depolarizing_2q=0.4, readout_flip=0.2,
                           amplitude_damping_idle=0.35),
    "depolarizing-p0": NoiseModel(depolarizing_1q=0.0, depolarizing_2q=0.0,
                                  amplitude_damping_idle=0.0),
    "depolarizing-p1": NoiseModel(depolarizing_1q=1.0, depolarizing_2q=1.0),
    "damping-gamma1": NoiseModel(amplitude_damping_idle=1.0),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("noise", list(_ONE_CHANNEL.values()), ids=list(_ONE_CHANNEL))
def test_density_walk_gate_matches_full_matrices(noise, n):
    """The density walk's one block per gate is the gate, then
    depolarizing, then damping on each of its qubits, on full 2^n matrices.
    Damping does not commute with X, so a wrong composition order fails."""
    from teleclone.simulator import _apply_block, _noisy_block
    rho = random_density_matrix(np.random.default_rng(n), 1 << n)
    for ins in _oracle_gates(n):
        got = _apply_block(rho.copy(), _noisy_block(ins, noise, n))
        np.testing.assert_allclose(got, noisy_gate(rho, ins, noise, n), rtol=0, atol=1e-12)


_CHANNELS_AFTER = {
    "rz": (rz(0.7, 1), []),
    "h": (h(2), [("depolarizing", (2,), 0.3), ("damping", (2,), 0.35)]),
    "cx": (cx(2, 0), [("depolarizing", (2, 0), 0.4), ("damping", (2,), 0.35),
                      ("damping", (0,), 0.35)]),
}


@pytest.mark.parametrize("ins,want", list(_CHANNELS_AFTER.values()), ids=list(_CHANNELS_AFTER))
def test_channels_follow_a_gate_in_order(ins, want):
    """Under all four channels a gate is followed by depolarizing on its
    qubits (depolarizing_2q jointly after a cx, in the cx's own qubit
    order), then damping on each of its qubits in turn, and rz by nothing; a
    zero channel is left out, and the readout flip follows no gate."""
    from teleclone.simulator import _channels
    assert _channels(ins, _ONE_CHANNEL["all-four"]) == want
    assert _channels(ins, _ONE_CHANNEL["amplitude_damping"]) == \
        [c for c in want if c[0] == "damping"]
    assert _channels(ins, _ONE_CHANNEL["readout_flip"]) == []
    assert _channels(ins, _ONE_CHANNEL["depolarizing-p0"]) == []


def test_trajectory_damping_jumps_by_the_norm_rule():
    """A damping in a trajectory is the no-jump diag(1, sqrt(1 - gamma)),
    the state walked unnormalized, until its squared norm falls below the
    drawn r: there it jumps |1> -> |0> and draws again. After h the no-jump
    norm^2 is 1 - gamma/2 = 0.8, and 0.68 after a second damping."""
    from teleclone.circuit import Instruction
    from teleclone.simulator import _prep_state
    damp = Instruction("damping", (0,), angle=0.4)
    for draws, gates, want in [
        ([0.7], [h(0), damp], np.array([1, math.sqrt(0.6)]) / math.sqrt(1.6)),
        ([0.9, 0.5], [h(0), damp], np.array([1.0, 0.0])),
        ([0.75, 0.1], [h(0), damp, damp], np.array([1.0, 0.0])),
        ([0.6], [h(0), damp, damp], np.array([1, 0.6]) / math.sqrt(1.36)),
    ]:
        idx, amp = _prep_state(gates, {0: 0}, draw=iter(draws).__next__)
        psi = np.zeros(2)
        psi[idx] = amp
        np.testing.assert_allclose(psi, want, rtol=0, atol=1e-15)


def _prep_of(m):
    """(prep gates, axis map, port, clones) of the M-clone optimized
    protocol circuit at layout 0 with decoupling."""
    from teleclone.simulator import _protocol_parts, _validated
    c = _layout_0_dd(build_protocol_circuit(m, OPT, MessageState(0.0, 0.0)), m)
    mq = c.roles["message"]
    axis = {q: k for k, q in enumerate(q for q in _validated(c) if q != mq)}
    return _protocol_parts(c)[2], axis, c.roles["port"], c.roles["clones"]


_DEPOLARIZING = NoiseModel(depolarizing_1q=0.004, depolarizing_2q=0.02)
_DAMPED = NoiseModel(depolarizing_1q=0.004, depolarizing_2q=0.02,
                     amplitude_damping_idle=0.01)


@pytest.mark.parametrize("noise", [_DEPOLARIZING, _DAMPED], ids=["depolarizing", "damping"])
@pytest.mark.parametrize("m", [3, 4])
def test_trajectory_marginals_match_the_density_walk(m, noise):
    """Within the density cap, the mean of 300 prep trajectories' (port,
    clone) marginals matches the exact density walk's: every real and
    imaginary part within 5 standard errors, and the mean's trace 1, while
    the noiseless marginal lies outside that band somewhere."""
    from teleclone.simulator import (_density_walk, _ground, _gram, _prep_state, _remap,
                                     _trajectories)
    prep, axis, port, clones = _prep_of(m)
    p, runs = len(axis), 300
    rho = _density_walk([_remap(ins, axis) for ins in prep], p, 0, noise,
                        _ground(2 * p).reshape(1 << p, 1 << p), {})
    states = list(_trajectories(prep, axis, noise, 7, runs))
    pure, far = _prep_state(prep, axis), 0.0
    for clone in clones:
        keep = (axis[port], axis[clone])
        samples = np.stack([_gram(state, keep, p) for state in states])
        mean, exact = samples.mean(axis=0), partial_trace(rho, keep)
        assert abs(np.trace(mean) - 1) <= 1e-12
        for part in (np.real, np.imag):
            se = part(samples).std(axis=0, ddof=1) / math.sqrt(runs)
            assert np.all(np.abs(part(mean) - part(exact)) <= 5 * se + 1e-12), clone
            far = max(far, np.max(np.abs(part(mean) - part(_gram(pure, keep, p)))
                                  / (se + 1e-300)))
    assert far > 5


def test_trajectory_response_matches_the_exact_one(monkeypatch):
    """Past a density cap lowered below its 6 prep qubits, an M=3 response
    under all four channels, at layout 0 with decoupling, is the mean of its
    trajectories' responses, tails included: each real and imaginary part
    within 5 standard errors of the exact response, and the noiseless
    response outside that band somewhere."""
    from teleclone import simulator
    from teleclone.simulator import _compiled, compile_response
    c = _layout_0_dd(build_protocol_circuit(3, OPT, MessageState(0.0, 0.0)), 3)
    exact, noiseless = compile_response(c, _ALL_CHANNELS), compile_response(c)
    monkeypatch.setattr(simulator, "_DENSITY_QUBIT_CAP", 5)
    mean, samples = _compiled(c, _ALL_CHANNELS, seed=4)
    runs = simulator._TRAJECTORIES
    assert samples.shape == (runs, 3, 2, 2, 2, 2)
    np.testing.assert_array_equal(mean, samples.mean(axis=0))
    far = 0.0
    for part in (np.real, np.imag):
        se = part(samples).std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(part(mean - exact)) <= 5 * se + 1e-12)
        far = max(far, np.max(np.abs(part(mean - noiseless)) / (se + 1e-300)))
    assert far > 5


@pytest.mark.parametrize("m", [5, 8])
def test_noiseless_trajectory_is_the_support_walk(m):
    """A trajectory with no channel after any gate, under no noise or a
    readout flip alone, is the noiseless prep's support walk bitwise."""
    from teleclone.simulator import _prep_state, _trajectories
    prep, axis, _, _ = _prep_of(m)
    idx, amp = _prep_state(prep, axis)
    for noise in (NoiseModel(), NoiseModel(readout_flip=0.3)):
        for got_idx, got_amp in _trajectories(prep, axis, noise, 0, 2):
            assert np.array_equal(got_idx, idx) and np.array_equal(got_amp, amp)


def _phased_preps(rng, count: int):
    """(qubit count, gates) of random preps over 2 to 6 qubits, each an x on
    every qubit and then phases: a mixing gate (ry, h or sx) on a qubit q,
    then gates on q, cx(c, q), x, z or rz on other qubits and cx between
    them, closed by a cx controlled by q or by the next phase's mixing gate
    on another qubit; some phases end in a cancelling pair, ry(a) then
    ry(-a) on another qubit, which leaves only rounding residue where the
    first ry split an amplitude."""
    for k in range(count):
        n = 2 + k % 5
        gates = [x(q) for q in range(n)]
        for _ in range(4):
            q = int(rng.integers(n))
            others = [p for p in range(n) if p != q]
            angle = float(rng.normal())
            gates.append((ry(angle, q), h(q), sx(q))[rng.integers(3)])
            for _ in range(6):
                p = others[rng.integers(len(others))]
                r = others[rng.integers(len(others))]
                angle = float(rng.normal())
                gates.append((cx(p, q), ry(angle, q), rz(angle, q), x(q), z(q), sx(q),
                              x(p), z(p), rz(angle, p), cx(p, r) if p != r else h(q),
                              )[rng.integers(10)])
            p = others[rng.integers(len(others))]
            if rng.random() < 0.5:
                gates.append(cx(q, p))
            if rng.random() < 0.5:
                gates += [ry(angle, p), ry(-angle, p)]
        yield n, gates


@pytest.mark.parametrize("gamma", [0.2, 1.0])
def test_damped_walk_matches_a_dense_jump_oracle(gamma):
    """Preps built of phases (:func:`_phased_preps`), a damping of gamma
    after about half of each gate's qubits (gamma 0.2, or 1 in about one
    damping in ten and 0.2 in the others), walk as a dense oracle of the
    jump rule does draw for draw, to 1e-12: after each gate its no-jump
    diag(1, sqrt(1 - gamma)), and where the squared norm falls below r the
    jump sqrt(gamma) |0><1| of the state before that step, renormalized,
    and a new r; the final state normalized. The x pulses swap the damping
    factors held off the paired bit, and some walks jump, at gamma 1 too,
    while others do not."""
    from teleclone.circuit import Instruction
    from teleclone.simulator import _prep_state
    rng, jumps, full = np.random.default_rng(5), [], 0
    for n, prep in _phased_preps(np.random.default_rng(2), 100):
        gates = []
        for ins in prep:
            gates += [ins] + [Instruction("damping", (q,), angle=gamma if rng.random() < 0.1
                                          else 0.2) for q in ins.qubits if rng.random() < 0.5]
        draws = rng.random(len(gates) + 1)
        idx, amp = _prep_state(gates, {q: q for q in range(n)}, draw=iter(draws).__next__)
        got = np.zeros(1 << n, dtype=complex)
        got[idx] = amp
        psi, left, count = basis_state(n, [0] * n), iter(draws), 0
        r = next(left)
        for ins in gates:
            if ins.gate != "damping":
                apply_unitary(psi, ins, n)
                continue
            pre = psi.copy()
            apply_1q(psi, np.diag([1.0, math.sqrt(1 - ins.angle)]), ins.qubits[0], n)
            if np.vdot(psi, psi).real < r:
                psi = pre
                apply_1q(psi, np.array([[0.0, math.sqrt(ins.angle)], [0.0, 0.0]]),
                         ins.qubits[0], n)
                psi /= np.linalg.norm(psi)
                r, count = next(left), count + 1
                full += ins.angle == 1
        np.testing.assert_allclose(got, psi / np.linalg.norm(psi), rtol=0, atol=1e-12)
        jumps.append(count)
    assert min(jumps) == 0 < max(jumps)
    assert (full > 0) == (gamma == 1)


def test_statevector_norm_preserved_random_circuits():
    """Random circuits, 300 for each qubit count from 1 to 6, applied to a
    batch of random states in the columns of one array through blocks, one
    per gate or one per pair of consecutive gates (their product over the
    union of their qubits, in the order the gates name them; an odd last
    gate alone), give the
    oracle's gate-by-gate states to 1e-12, norms kept; statevector gives
    the oracle's walk from |0...0>. So do 300 preps built of phases
    (:func:`_phased_preps`), and the prep walk of each circuit holds the
    oracle's nonzero amplitudes only: the floor drops rounding residue."""
    from teleclone import statevector
    from teleclone.simulator import _prep_state, used_qubits
    rng = np.random.default_rng(0)

    def random_circuits():
        for n in [n for n in range(1, 7) for _ in range(300)]:
            gates = []
            for _ in range(8):
                kind = rng.integers(0, 6)
                q = int(rng.integers(n))
                if kind == 0 and n >= 2:
                    a, b = rng.choice(n, size=2, replace=False)
                    gates.append(cx(int(a), int(b)))
                elif kind == 1:
                    gates.append(ry(float(rng.normal()), q))
                elif kind == 2:
                    gates.append(rz(float(rng.normal()), q))
                elif kind == 3:
                    gates.append(x(q))
                elif kind == 4:
                    gates.append(sx(q))
                else:
                    gates.append(h(q))
            yield n, gates

    for n, gates in itertools.chain(random_circuits(),
                                    _phased_preps(np.random.default_rng(1), 300)):
        cols = int(rng.integers(1, 4))
        psi = rng.normal(size=(1 << n, cols)) + 1j * rng.normal(size=(1 << n, cols))
        psi /= np.linalg.norm(psi, axis=0)
        want = psi.copy()
        for ins in gates:
            apply_unitary(want, ins, n)
        pairs = []
        for first, then in zip(gates[::2], gates[1::2]):
            axes = list(dict.fromkeys(first.qubits + then.qubits))
            mat = [embed(gate_matrix(g), [axes.index(q) for q in g.qubits], len(axes))
                   for g in (first, then)]
            pairs.append(_block(mat[1] @ mat[0], axes))
        pairs += [_block(gate_matrix(ins), ins.qubits) for ins in gates[len(gates) & ~1:]]
        for blocks in ([_block(gate_matrix(ins), ins.qubits) for ins in gates], pairs):
            got = psi.copy()
            for block in blocks:
                _apply_block(got, block)
            assert np.abs(got - want).max() <= 1e-12
        assert np.abs(np.linalg.norm(got, axis=0) - 1.0).max() < 1e-10
        circuit = Circuit(n, 0, tuple(gates))
        if len(used_qubits(circuit)) == n:
            ground = np.zeros(1 << n, dtype=complex)
            ground[0] = 1.0
            for ins in gates:
                apply_unitary(ground, ins, n)
            assert np.abs(statevector(circuit) - ground).max() <= 1e-12
            idx, _ = _prep_state(gates, {q: q for q in range(n)})
            assert sorted(idx.tolist()) == np.flatnonzero(np.abs(ground) > 1e-10).tolist()


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


# all four channels, mild enough that the decoupled layout's many pulses
# leave each clone's P(1) away from 1/2, where a wrong channel would show
_MILD = NoiseModel(depolarizing_1q=0.002, depolarizing_2q=0.01, readout_flip=0.1,
                   amplitude_damping_idle=0.002)


@pytest.mark.parametrize("m,variant,noise,layout_dd", [
    (2, NOA, NoiseModel(depolarizing_1q=0.02, depolarizing_2q=0.05), False),
    (2, NOA, _MILD, True),
    (3, OPT, _MILD, True),
    (2, NOA, NoiseModel(readout_flip=0.1), True),
], ids=["depolarizing", "all-channels-layout0-dd", "m3-opt-all-channels-layout0-dd",
        "readout-only-layout0-dd"])
def test_shot_noise_matches_density_oracle(m, variant, noise, layout_dd):
    """Noisy counts, one multinomial over the exact outcome table (of the
    whole density walk under gate noise, of the pure walk with flipped bits
    under a readout flip alone), agree with each clone's P(1) from
    noisy_clone_states within 5 sigma, on clones whose P(1) is at least
    0.05 from 1/2."""
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
        assert abs(p1 - 0.5) >= 0.05, clone
        n1 = sum(v for k, v in counts.items() if k[2 + clone] == "1")
        sigma = math.sqrt(shots * p1 * (1 - p1))
        assert abs(n1 - shots * p1) <= 5 * sigma, clone


def test_noisy_run_shots_walks_a_density_only_under_gate_noise(monkeypatch):
    """A readout flip alone leaves an M=5 basis circuit's state pure, so its
    shots walk no density matrix; under gate noise the same 11-qubit circuit
    needs one, past the 8-qubit cap, and is refused."""
    from teleclone import simulator
    c = build_protocol_circuit(5, OPT, MessageState(0.6, 0.9), tomo_basis="x")

    def refused(*args):
        raise AssertionError("a density walk")

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_density_branches", refused)
        counts = run_shots(c, 1000, seed=3, noise=NoiseModel(readout_flip=0.02))
    assert sum(counts.values()) == 1000 and len(counts) > 4
    with pytest.raises(SimulationError,
                       match="a density matrix over 11 qubits exceeds the 8-qubit cap"):
        run_shots(c, 10, seed=3, noise=NoiseModel(depolarizing_1q=0.01))


def test_readout_flip_biases_counts():
    c = Circuit(1, 1, (measure(0, 0),), roles={})
    counts = run_shots(c, 2000, seed=9, noise=NoiseModel(readout_flip=0.25))
    frac = counts.get("1", 0) / 2000
    assert abs(frac - 0.25) < 0.05
