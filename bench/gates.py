"""Correctness gates for the records a benchmark run writes.

Each check returns a list of failure messages; an empty list means the
record passed. The expected values come from closed forms or from an
independent simulation path, never from the record itself, and each check
takes its expectation as an argument so a self-test can feed it a wrong one.
"""

from __future__ import annotations

import math

BASES = ("x", "y", "z")
EXACT_TOL = 1e-6
# Binomial z-score limit per (point, clone, basis) count; a false trip at
# 6 sigma is about 2e-9 per count.
COUNT_Z_MAX = 6.0
# Multiple of the shot-noise sigma allowed for the mean clone fidelity.
MEAN_K_SIGMA = 5.0


def optimal_fidelity(m: int) -> float:
    return (2 * m + 1) / (3 * m)


def shrinking(m: int) -> float:
    return (m + 2) / (3 * m)


def _ok_points(record: dict):
    return [p for p in record["results"] if p["error"] is None]


def check_exact(record: dict, m: int, fidelity: float, eta: float,
                tol: float = EXACT_TOL) -> list[str]:
    """Every clone's fidelity and Bloch magnitude hit their targets."""
    errors = []
    for point in _ok_points(record):
        if len(point["clones"]) != m:
            errors.append(f"point {point['index']}: {len(point['clones'])} clones, want {m}")
        for clone in point["clones"]:
            where = f"point {point['index']} clone {clone['clone_index']}"
            if not abs(clone["fidelity"] - fidelity) <= tol:
                errors.append(f"{where}: fidelity {clone['fidelity']!r} != {fidelity!r}")
            if not abs(clone["bloch_magnitude"] - eta) <= tol:
                errors.append(f"{where}: |r| {clone['bloch_magnitude']!r} != {eta!r}")
    return errors


def check_counts(record: dict, m: int, p1_of, z_max: float = COUNT_Z_MAX) -> list[str]:
    """Each clone's count of outcome 1 in each basis lies within ``z_max``
    binomial sigmas of ``shots * p1_of(point, clone_index, basis)``."""
    errors = []
    for point in _ok_points(record):
        if len(point["clones"]) != m:
            errors.append(f"point {point['index']}: {len(point['clones'])} clones, want {m}")
        for clone in point["clones"]:
            tomo = clone["tomography"]
            shots = tomo["shots_per_basis"]
            for basis in BASES:
                n0, n1 = tomo["counts"][basis]
                p1 = p1_of(point, clone["clone_index"], basis)
                diff = n1 - shots * p1
                sigma = math.sqrt(shots * p1 * (1.0 - p1))
                z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
                if n0 + n1 != shots or not abs(z) <= z_max:
                    errors.append(f"point {point['index']} clone {clone['clone_index']} "
                                  f"basis {basis}: n1={n1} of {shots}, expected p1={p1:.4f} "
                                  f"(z={z:.2f})")
    return errors


def analytic_p1(eta: float):
    """Noiseless expectation: each clone's Bloch vector is eta times the
    message's, so P(1) in basis b is (1 - eta * m_b) / 2."""
    def p1(point, clone_index, basis):
        return 0.5 * (1.0 - eta * point["message_bloch"][BASES.index(basis)])
    return p1


def check_mean_fidelity(record: dict, fidelity: float, eta: float,
                        k_sigma: float = MEAN_K_SIGMA) -> list[str]:
    """The mean clone fidelity is within ``k_sigma`` shot-noise sigmas of
    ``fidelity``. F = (1 + r.m)/2 with r_b estimated from independent bases;
    clones of one point share shots, so their mean is bounded by one clone's
    sigma, and points are independent."""
    points = _ok_points(record)
    if not points:
        return ["no successful points to check"]
    var_sum, means = 0.0, []
    for point in points:
        mb = point["message_bloch"]
        shots = point["clones"][0]["tomography"]["shots_per_basis"]
        var_f = 0.25 * sum(v * v * (1.0 - (eta * v) ** 2) / shots for v in mb)
        var_sum += var_f
        means.append(sum(c["fidelity"] for c in point["clones"]) / len(point["clones"]))
    mean = sum(means) / len(means)
    sigma = math.sqrt(var_sum) / len(points)
    if not abs(mean - fidelity) <= k_sigma * sigma:
        return [f"mean fidelity {mean:.6f} vs {fidelity:.6f}: "
                f"{abs(mean - fidelity) / sigma:.2f} sigma > {k_sigma}"]
    return []


def noisy_p1(config: dict):
    """P(1) per clone and basis from exact density-matrix evolution of the
    same native circuit, with the final clone measurements removed and the
    readout flip applied to their outcome."""
    from teleclone.circuit import Circuit
    from teleclone.hardware import (DurationTable, enumerate_layouts, insert_dd,
                                    transpile_to_native)
    from teleclone.simulator import NoiseModel, noisy_clone_states
    from teleclone.telecloning import (MessageState, TelecloningVariant,
                                       build_protocol_circuit)

    m = config["m"]
    variant = TelecloningVariant(config["variant"])
    noise = NoiseModel(**config["noise"])
    layout = None
    if config.get("layout_index") is not None:
        layout = enumerate_layouts(m, variant)[config["layout_index"]]
    durations = (DurationTable.from_json_dict(config["durations"])
                 if config.get("durations") else DurationTable())
    cache: dict = {}

    def p1(point, clone_index, basis):
        key = (point["psi"], point["phi"], basis)
        if key not in cache:
            circuit = build_protocol_circuit(
                m, variant, MessageState(point["psi"], point["phi"]), tomo_basis=basis)
            if layout is not None:
                circuit = transpile_to_native(circuit, layout)
                if config.get("dd"):
                    circuit = insert_dd(circuit, durations)
            kept = tuple(i for i in circuit.instructions
                         if not (i.gate == "measure" and i.clbit >= 2))
            circuit = Circuit(circuit.num_qubits, circuit.num_clbits, kept,
                              roles=circuit.roles)
            f = noise.readout_flip
            cache[key] = [(1 - f) * float(rho[1, 1].real) + f * float(rho[0, 0].real)
                          for rho in noisy_clone_states(circuit, noise)]
        return cache[key][clone_index]

    return p1


def gate_for(config: dict):
    """The check a record of ``config`` must pass: record -> failures."""
    m = config["m"]
    fid, eta = optimal_fidelity(m), shrinking(m)
    if config.get("mode", "exact") == "exact":
        if config.get("noise"):
            raise ValueError("no gate for noisy exact mode")
        return lambda record: check_exact(record, m, fid, eta)
    if config.get("noise"):
        p1 = noisy_p1(config)
        return lambda record: check_counts(record, m, p1)
    p1 = analytic_p1(eta)
    return lambda record: (check_counts(record, m, p1)
                           + check_mean_fidelity(record, fid, eta))
