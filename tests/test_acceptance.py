"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from teleclone import (MessageState, NoiseModel, TelecloningVariant,
                       build_protocol_circuit, clone_metrics, concurrence,
                       exact_clone_states, exact_subsystem_state, fidelity,
                       fidelity_general, mle_fit, negativity, noisy_clone_states,
                       run_shots, shrinking_factor, stats, theoretical_fidelity,
                       tomography_run)
from teleclone.experiment import ExperimentConfig, run_experiment
from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
from teleclone.simulator import apply_response, compile_response
from teleclone.tomography import rho_from_bloch

from .oracles import (PAULIS, apply_unitary, basis_state, dicke_vector, mle_grid_oracle,
                      random_density_matrix, staircase_bits, trace_distance)

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL

THEORY = {2: 0.833333, 3: 0.777778, 4: 0.7500, 5: 0.733333, 10: 0.7000}


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: optimal-fidelity reproduction ------------------------------

_AC1_CONFIGS = (
    [(2, v, 20, 20) for v in (NOA, FULL, OPT)]
    + [(3, v, 10, 10) for v in (NOA, FULL, OPT)]
    + [(4, OPT, 10, 10), (4, FULL, 10, 10),
       (5, OPT, 10, 10), (5, FULL, 10, 10),
       (10, OPT, 5, 5), (10, FULL, 5, 5)]
)

_RECORDS = {}


def _record(m, variant, n_psi, n_phi):
    key = (m, variant, n_psi, n_phi)
    if key not in _RECORDS:
        cfg = ExperimentConfig(m=m, variant=variant, n_psi=n_psi, n_phi=n_phi,
                               mode="exact")
        _RECORDS[key] = run_experiment(cfg)
    return _RECORDS[key]


def test_criterion_1_optimal_fidelity():
    worst = 0.0
    for m, variant, npsi, nphi in _AC1_CONFIGS:
        rec = _record(m, variant, npsi, nphi)
        mean = rec.aggregate["overall_mean_fidelity"]
        spread = rec.aggregate["overall_std_fidelity"]
        target = theoretical_fidelity(1, m)
        worst = max(worst, abs(mean - target))
        # universality: fidelity is state independent across the whole grid
        if abs(mean - target) > 1e-9 or spread > 1e-9 or rec.aggregate["n_failed"]:
            _report("criterion 1: optimal fidelity", False,
                    f"M={m} {variant.value}: mean={mean!r} std={spread!r} "
                    f"target={target!r}")
    # the rounded table values agree with the exact bound
    for m, shown in THEORY.items():
        assert abs(theoretical_fidelity(1, m) - shown) < 5e-7
    _report("criterion 1: optimal fidelity (M=2,3,4,5,10; all variants)", True,
            f"max |mean - theory| = {worst:.2e}")


def _bloch_map(response):
    """Each clone's affine Bloch map r -> T r + t, read off a response: t is
    the clones' Bloch vectors for the mixed message I/2, and T's column l
    the shift that the pure message (I + sigma_l)/2 adds to it."""
    def bloch(rho_msg):
        return np.array([[np.trace(rho @ p).real for p in PAULIS[1:]]
                         for rho in apply_response(response, rho_msg)])
    t = bloch(np.eye(2) / 2)
    T = np.stack([bloch((np.eye(2) + p) / 2) - t for p in PAULIS[1:]], axis=-1)
    return T, t


def test_criterion_1_universal_over_the_bloch_ball():
    """Universality over every message, not only the grid: each clone's
    Bloch map is the shrinking r -> eta r, for M=2..10, every variant,
    logical and at layout 0 with decoupling."""
    worst = 0.0
    for m in range(2, 11):
        eta = shrinking_factor(1, m)
        for variant in ((NOA, FULL, OPT) if m <= 3 else (FULL, OPT)):
            logical = build_protocol_circuit(m, variant, MessageState(0.0, 0.0))
            native = insert_dd(transpile_to_native(
                logical, enumerate_layouts(m, variant)[0]))
            for circuit in (logical, native):
                T, t = _bloch_map(compile_response(circuit))
                err = max(float(np.abs(T - eta * np.eye(3)).max()),
                          float(np.abs(t).max()))
                worst = max(worst, err)
                if err > 1e-12:
                    _report("criterion 1: universal Bloch map", False,
                            f"M={m} {variant.value}: max |T - eta I|, |t| = {err:.2e}")
    _report("criterion 1: Bloch map T = eta I, t = 0 (M=2..10; all variants; "
            "logical and layout 0 + DD)", True, f"max deviation = {worst:.2e}")


def test_criterion_2_shrinking_geometry():
    worst_mag, worst_ang = 0.0, 0.0
    for m, variant, npsi, nphi in _AC1_CONFIGS:
        eta = shrinking_factor(1, m)
        rec = _record(m, variant, npsi, nphi)
        for point in rec.results:
            for clone in point["clones"]:
                worst_mag = max(worst_mag, abs(clone["bloch_magnitude"] - eta))
                worst_ang = max(worst_ang, clone["bloch_angle_error"])
    ok = worst_mag <= 1e-9 and worst_ang <= 1e-12
    _report("criterion 2: shrinking-factor geometry", ok,
            f"max |r - eta| = {worst_mag:.2e}, max angle = {worst_ang:.2e} rad")


def test_criterion_3_clone_entanglement():
    rng = np.random.default_rng(1234)
    target_c, target_n = 1 / 3, (math.sqrt(5) - 2) / 6
    worst_c, worst_n = 0.0, 0.0
    for _ in range(10):
        msg = MessageState(float(rng.uniform(0, math.pi)),
                           float(rng.uniform(0, 2 * math.pi)))
        for variant in (NOA, FULL, OPT):
            circ = build_protocol_circuit(2, variant, msg)
            rho = exact_subsystem_state(circ, circ.roles["clones"])
            worst_c = max(worst_c, abs(concurrence(rho) - target_c))
            worst_n = max(worst_n, abs(negativity(rho, [0]) - target_n))
    ok = worst_c <= 1e-9 and worst_n <= 1e-9
    _report("criterion 3: clone entanglement (C=1/3, N=(sqrt5-2)/6)", ok,
            f"max dC = {worst_c:.2e}, max dN = {worst_n:.2e} "
            "over 10 messages x 3 variants")


def test_criterion_4_variant_equivalence():
    msg = MessageState(0.77, 2.31)
    worst = 0.0
    for m in (3, 4, 5):
        opt_c = build_protocol_circuit(m, OPT, msg)
        full_c = build_protocol_circuit(m, FULL, msg)
        for a, b in zip(exact_clone_states(opt_c), exact_clone_states(full_c)):
            worst = max(worst, float(np.abs(a - b).max()))
        s_opt = stats(opt_c).two_qubit_gate_count
        s_full = stats(full_c).two_qubit_gate_count
        if not s_opt < s_full:
            _report("criterion 4: variant equivalence", False,
                    f"M={m}: optimized {s_opt} cx !< full {s_full} cx")
    ok = worst <= 1e-10
    _report("criterion 4: variant equivalence + gate reduction", ok,
            f"max state diff = {worst:.2e}; fewer 2q gates for M=3,4,5")


def test_criterion_5_protocol_statistics():
    shots = 10_000
    sigma = math.sqrt(shots * 0.25 * 0.75)
    ok = True
    detail = []
    for variant in (NOA, FULL, OPT):
        counts = run_shots(build_protocol_circuit(2, variant, MessageState(0, 0)),
                           shots, seed=101)
        dev = max(abs(counts.get(k, 0) - shots / 4) for k in ("00", "01", "10", "11"))
        detail.append(f"{variant.value}: max dev {dev:.0f} (4s={4 * sigma:.0f})")
        ok &= dev <= 4 * sigma
    # with-ancilla variants stay uniform for arbitrary messages
    counts = run_shots(build_protocol_circuit(2, FULL, MessageState(1.1, 2.2)),
                       shots, seed=102)
    dev = max(abs(counts.get(k, 0) - shots / 4) for k in ("00", "01", "10", "11"))
    ok &= dev <= 4 * sigma

    msg = MessageState(0.9, 1.4)
    exact = exact_clone_states(build_protocol_circuit(2, NOA, msg))
    recs = tomography_run(2, NOA, msg, shots_per_basis=shots, seed=103)
    f_err = 0.0
    for rec, rho in zip(recs, exact):
        f_exact = clone_metrics(rho, msg.bloch()).fidelity_to_message
        f_tomo = clone_metrics(rec.reconstructed, msg.bloch()).fidelity_to_message
        f_err = max(f_err, abs(f_tomo - f_exact))
    ok &= f_err <= 0.01
    _report("criterion 5: protocol statistics", ok,
            "; ".join(detail) + f"; |F_tomo - F_exact| = {f_err:.4f}")


def test_criterion_6_transpile_dd_semantics():
    worst = 0.0
    pair_ok = True
    for m, variant in [(2, NOA), (3, NOA), (3, OPT)]:
        msg = MessageState(1.2, 0.7)
        base = build_protocol_circuit(m, variant, msg)
        ref = exact_clone_states(base)
        layout = enumerate_layouts(m, variant)[0]
        native = transpile_to_native(base, layout)
        padded = insert_dd(native)
        for circ in (native, padded):
            for a, b in zip(ref, exact_clone_states(circ)):
                worst = max(worst, float(np.abs(a - b).max()))
        # inserted X pulses come in adjacent same-qubit pairs, never in bodies
        orig = list(native.instructions)
        added, j = [], 0
        for ins in padded.instructions:
            if j < len(orig) and ins == orig[j]:
                j += 1
            else:
                added.append(ins)
        pair_ok &= all(a.gate == "x" for a in added) and len(added) % 2 == 0
        pair_ok &= all(a.qubits == b.qubits
                       for a, b in zip(added[0::2], added[1::2]))
        for ins in padded.instructions:
            if ins.gate == "cond":
                pair_ok &= len(ins.body) == 1
    ok = worst <= 1e-10 and pair_ok
    _report("criterion 6: transpile + decoupling preserve semantics", ok,
            f"max clone-state drift = {worst:.2e}; X-X pairs adjacent "
            f"and outside conditional blocks: {pair_ok}")


def test_criterion_7_noise_floor():
    msg_grid = [MessageState(0.0, 0.0), MessageState(1.0, 0.5),
                MessageState(2.0, 3.9)]
    means = []
    for p in (0.0, 0.002, 0.01, 0.05, 0.3, 0.8):
        noise = NoiseModel(depolarizing_1q=p, depolarizing_2q=p)
        vals = []
        for msg in msg_grid:
            circ = build_protocol_circuit(2, NOA, msg)
            for rho in noisy_clone_states(circ, noise):
                vals.append(clone_metrics(rho, msg.bloch()).fidelity_to_message)
        means.append(float(np.mean(vals)))
    monotone = all(means[i] >= means[i + 1] - 1e-12 for i in range(len(means) - 1))
    ok = monotone and abs(means[-1] - 0.5) <= 0.02
    _report("criterion 7: depolarizing noise floor", ok,
            "means " + ", ".join(f"{v:.4f}" for v in means))


def test_criterion_8_oracle_suites():
    # (a) Dicke builders vs combinatorial enumeration, M <= 6, every weight
    from teleclone import build_dsu
    worst_dicke = 0.0
    for m in range(1, 7):
        circ = build_dsu(m)
        for i in range(m + 1):
            psi = basis_state(m, staircase_bits(i, m))
            for ins in circ.instructions:
                apply_unitary(psi, ins, m)
            worst_dicke = max(worst_dicke,
                              float(np.abs(psi - dicke_vector(m, i)).max()))
    ok_a = worst_dicke <= 1e-12

    # (b) MLE vs Bloch-ball likelihood search at 1e-3 resolution
    shots = 200
    cases = [
        {"x": (200, 0), "y": (200, 0), "z": (200, 0)},
        {"x": (190, 10), "y": (180, 20), "z": (200, 0)},
        {"x": (10, 190), "y": (170, 30), "z": (195, 5)},
        {"x": (120, 80), "y": (60, 140), "z": (150, 50)},
    ]
    worst_mle = 0.0
    for counts in cases:
        rho = mle_fit(counts, shots)
        r_star = mle_grid_oracle(counts, shots, resolution=1e-3)
        worst_mle = max(worst_mle,
                        trace_distance(rho, rho_from_bloch(np.clip(r_star, -1, 1))))
    ok_b = worst_mle <= 2e-3

    # (c) closed-form vs general fidelity, 1e4 fuzz cases
    rng = np.random.default_rng(55)
    worst_f = 0.0
    for _ in range(10_000):
        a, b = random_density_matrix(rng), random_density_matrix(rng)
        worst_f = max(worst_f, abs(fidelity(a, b) - fidelity_general(a, b)))
    ok_c = worst_f <= 1e-10

    _report("criterion 8: oracle suites", ok_a and ok_b and ok_c,
            f"dicke ={worst_dicke:.1e} (<=1e-12), mle ={worst_mle:.1e} (<=2e-3), "
            f"fidelity ={worst_f:.1e} (<=1e-10)")
