"""Coupling graph, layouts, native transpilation and X-X padding."""

import math

import numpy as np
import pytest

from teleclone import (Circuit, MessageState, NoiseModel, TelecloningVariant,
                       build_protocol_circuit, cx, exact_clone_states, h, ry, rz,
                       stats, validate, x)
from teleclone.exceptions import CapacityError, TranspileError
from teleclone.hardware import (DurationTable, Layout, enumerate_layouts, heavy_hex_27,
                                insert_dd, transpile_to_native, validate_layout)
from teleclone.simulator import gate_matrix

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL


def count_dd_pulses(before: Circuit, after: Circuit) -> int:
    """The X pulses that decoupling added to ``before`` to give ``after``."""
    def xs(c):
        return sum(1 for i in c.instructions if i.gate == "x")
    return xs(after) - xs(before)


def test_heavy_hex_shape():
    g = heavy_hex_27()
    assert g.num_qubits == 27
    assert len(g.edges) == 28
    assert max(g.degree(q) for q in range(27)) == 3
    assert g.is_connected()


def test_enumerate_layouts_m10():
    layouts = enumerate_layouts(10, OPT)
    assert len(layouts) == 7
    g = heavy_hex_27()
    for lay in layouts:
        assert len(lay.used()) == 21
        assert validate_layout(lay, g) == []


def test_enumerate_layouts_small_m_truncates():
    for lay in enumerate_layouts(2, NOA):
        assert len(lay.used()) == 4  # message + port + two clones
        assert lay.ancillas == ()
    for lay in enumerate_layouts(3, OPT):
        assert len(lay.used()) == 7
    g = heavy_hex_27()
    for m in (2, 3, 4, 7):
        for lay in enumerate_layouts(m, OPT):
            assert validate_layout(lay, g) == []


def test_capacity_errors():
    with pytest.raises(CapacityError):
        enumerate_layouts(11, OPT)
    with pytest.raises(CapacityError):
        enumerate_layouts(4, NOA)


def test_layout_validation_catches_breaks():
    g = heavy_hex_27()
    bad = Layout(message=0, port=1, ancillas=(2, 9), clones=(4,))
    assert validate_layout(bad, g)


def _unitary_1q(instrs):
    u = np.eye(2, dtype=complex)
    for ins in instrs:
        u = gate_matrix(ins) @ u
    return u


def _phase_equal(u, v, atol=1e-10):
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[idx]) < 1e-12:
        return np.allclose(u, v, atol=atol)
    phase = u[idx] / v[idx]
    return np.allclose(u, v * phase, atol=atol) and abs(abs(phase) - 1) < 1e-10


def test_ry_translation_100_random_angles():
    from teleclone.hardware import _native_1q
    rng = np.random.default_rng(2)
    for _ in range(100):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        want = gate_matrix(ry(theta, 0))
        got = _unitary_1q(_native_1q(ry(theta, 0), 0))
        assert _phase_equal(got, want)


def test_h_and_z_translation():
    from teleclone.hardware import _native_1q
    assert _phase_equal(_unitary_1q(_native_1q(h(0), 0)), gate_matrix(h(0)))
    from teleclone.circuit import z as zgate
    assert _phase_equal(_unitary_1q(_native_1q(zgate(0), 0)),
                        gate_matrix(zgate(0)))


def test_native_circuit_gate_multiset_unchanged():
    lay = enumerate_layouts(2, NOA)[0]
    base = build_protocol_circuit(2, NOA, MessageState(0.2, 0.1))
    native = transpile_to_native(base, lay)
    again = transpile_to_native_roundtrip(native, lay)
    def multiset(circ):
        out = []
        for i in circ.instructions:
            for s in (i,) + i.body:
                if s.gate != "cond":
                    out.append((s.gate, s.angle))
        return sorted(out, key=str)
    assert multiset(native) == multiset(again)


def transpile_to_native_roundtrip(native, lay):
    """Re-transpiling an already-native physical circuit must be a no-op on
    the gate multiset; identity layout mapping via matching roles."""
    identity = Layout(message=native.roles["message"], port=native.roles["port"],
                      ancillas=tuple(native.roles.get("ancillas", ())),
                      clones=tuple(native.roles["clones"]))
    return transpile_to_native(native, identity)


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA), (2, FULL), (3, OPT)])
def test_transpile_preserves_exact_clone_states(m, variant):
    """Transpiled, with and without decoupling, equals logical on every
    layout for random messages."""
    rng = np.random.default_rng(m)
    for _ in range(2):
        msg = MessageState(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        base = build_protocol_circuit(m, variant, msg)
        want = exact_clone_states(base)
        for lay in enumerate_layouts(m, variant):
            native = transpile_to_native(base, lay)
            assert validate(native) == []
            for c in (native, insert_dd(native)):
                for ra, rb in zip(want, exact_clone_states(c)):
                    np.testing.assert_allclose(rb, ra, rtol=0, atol=1e-12)


def test_transpile_rejects_off_edge():
    base = build_protocol_circuit(2, NOA, MessageState(0, 0))
    g = heavy_hex_27()
    # clones placed on non-adjacent qubits
    bad = Layout(message=0, port=1, ancillas=(), clones=(2, 9))
    with pytest.raises(TranspileError):
        transpile_to_native(base, bad)


def test_dd_no_idle_no_insertion():
    base = Circuit(1, 1, (x(0), x(0)), roles={})
    out = insert_dd(base)
    assert out.instructions == base.instructions


def test_dd_pairs_adjacent_and_semantics_preserved():
    msg = MessageState(0.9, 0.4)
    for m, variant in [(2, NOA), (3, NOA)]:
        lay = enumerate_layouts(m, variant)[0]
        native = transpile_to_native(build_protocol_circuit(m, variant, msg), lay)
        padded = insert_dd(native)
        assert validate(padded) == []
        # inserted X come in adjacent same-qubit pairs
        extra = count_dd_pulses(native, padded)
        assert extra % 2 == 0 and extra > 0
        seq = list(padded.instructions)
        i = 0
        orig = list(native.instructions)
        # every inserted x is immediately followed by its партner on the same qubit
        added = []
        j = 0
        for ins in seq:
            if j < len(orig) and ins == orig[j]:
                j += 1
            else:
                added.append(ins)
        assert all(a.gate == "x" for a in added)
        for a, b in zip(added[0::2], added[1::2]):
            assert a.qubits == b.qubits
        # clone states untouched
        a = exact_clone_states(native)
        b = exact_clone_states(padded)
        for ra, rb in zip(a, b):
            np.testing.assert_allclose(ra, rb, atol=1e-10)


def test_dd_count_in_expected_band_m2():
    lay = enumerate_layouts(2, NOA)[0]
    native = transpile_to_native(
        build_protocol_circuit(2, NOA, MessageState(math.pi / 5, math.pi / 5),
                               tomo_basis="y"), lay)
    padded = insert_dd(native)
    extra = count_dd_pulses(native, padded)
    assert 8 <= extra <= 20, extra


def test_dd_never_inside_cond_bodies():
    lay = enumerate_layouts(2, NOA)[0]
    native = transpile_to_native(
        build_protocol_circuit(2, NOA, MessageState(0.3, 0.3), tomo_basis="z"), lay)
    padded = insert_dd(native)
    for ins in padded.instructions:
        if ins.gate == "cond":
            # bodies must be exactly the single correction gate
            assert len(ins.body) == 1


def test_dd_requires_native_gateset():
    c = build_protocol_circuit(2, NOA, MessageState(0.1, 0.1))
    with pytest.raises(TranspileError):
        insert_dd(c)


def test_duration_table_roundtrip_and_validation():
    t = DurationTable(cx_overrides={(0, 1): 250.0})
    t2 = DurationTable.from_json_dict(t.to_json_dict())
    assert t2 == t
    with pytest.raises(TranspileError):
        DurationTable(rz=5.0)
    with pytest.raises(TranspileError):
        DurationTable(sx=-1.0)


def test_cx_override_keys_name_a_pair_in_either_order():
    """A cx_overrides key written high-low, in a JSON table or in the
    constructor, is the pair's override: "b-a" and "a-b" give the same
    decoupled circuit, which the override changes, and a config's table
    round-trips through its JSON form."""
    from teleclone.experiment import ExperimentConfig
    native = transpile_to_native(build_protocol_circuit(2, OPT, MessageState(0.4, 1.1)),
                                 enumerate_layouts(2, OPT)[0])
    a, b = sorted((native.roles["port"], *native.roles["ancillas"]))
    low, high = ({"cx_overrides": {key: 5000.0}} for key in (f"{a}-{b}", f"{b}-{a}"))
    padded = insert_dd(native, DurationTable.from_json_dict(low))
    assert insert_dd(native, DurationTable.from_json_dict(high)) == padded
    assert insert_dd(native, DurationTable(cx_overrides={(b, a): 5000.0})) == padded
    assert insert_dd(native) != padded
    assert DurationTable.from_json_dict(high).gate(cx(a, b)) == 5000.0
    cfg = ExperimentConfig(m=2, variant=OPT, layout_index=0, dd=True,
                           durations=DurationTable(cx_overrides={(b, a): 5000.0, (3, 1): 7.5}))
    assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("overrides", [{"3-3": 10.0}, {"1-0": 10.0, "0-1": 20.0},
                                       {"01-2": 10.0, "1-2": 20.0}],
                         ids=["one-qubit", "pair-twice", "pair-twice-written-apart"])
def test_cx_override_keys_refuse_one_qubit_and_a_pair_twice(overrides):
    with pytest.raises(TranspileError):
        DurationTable.from_json_dict({"cx_overrides": overrides})
    pairs = {tuple(map(int, key.split("-"))): v for key, v in overrides.items()}
    if len(pairs) == len(overrides):
        with pytest.raises(TranspileError):
            DurationTable(cx_overrides=pairs)


@pytest.mark.parametrize("kwargs,gate,any_", [
    ({}, False, False),
    ({"readout_flip": 0.2}, False, True),
    ({"amplitude_damping_idle": 0.0, "depolarizing_1q": 0.0}, False, False),
    ({"depolarizing_1q": 0.01}, True, True),
    ({"depolarizing_2q": 0.01}, True, True),
    ({"amplitude_damping_idle": 0.01, "readout_flip": 0.2}, True, True),
], ids=["none", "readout-only", "zeros", "depolarizing_1q", "depolarizing_2q", "damping"])
def test_noise_model_tells_gate_noise_from_readout(kwargs, gate, any_):
    """A readout flip is noise but no gate channel; a channel set to zero is
    neither."""
    noise = NoiseModel(**kwargs)
    assert noise.any_gate_noise() is gate
    assert noise.any_noise() is any_
