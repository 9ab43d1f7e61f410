"""Linear inversion, MLE reconstruction, and the sampled tomography loop."""

import math

import numpy as np
import pytest

from teleclone import (MessageState, NoiseModel, TelecloningVariant, bloch_vector,
                       build_protocol_circuit, exact_clone_states, linear_inversion, mle_fit,
                       run_shots, tomography_run)
from teleclone.tomography import TomographyRecord, basis_p1, rho_from_bloch
from teleclone.exceptions import SimulationError

from .oracles import mle_grid_oracle, trace_distance

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED


def _counts(x, y, z, shots):
    return {"x": x, "y": y, "z": z}


def test_linear_inversion_pure_z():
    shots = 100
    counts = _counts((50, 50), (50, 50), (100, 0), shots)
    r, rho = linear_inversion(counts, shots)
    np.testing.assert_allclose(r, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_linear_inversion_maximally_mixed():
    counts = _counts((50, 50), (50, 50), (50, 50), 100)
    r, rho = linear_inversion(counts, 100)
    np.testing.assert_allclose(r, [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_linear_inversion_can_be_unphysical():
    counts = _counts((100, 0), (100, 0), (100, 0), 100)
    r, _ = linear_inversion(counts, 100)
    assert abs(np.linalg.norm(r) - math.sqrt(3)) < 1e-12


def test_mle_interior_equals_linear_inversion():
    rng = np.random.default_rng(21)
    for _ in range(200):
        shots = 1000
        # draw counts from a random physical state so LI is usually interior
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0, 0.9)
        counts = {}
        for b, comp in zip(("x", "y", "z"), r):
            n0 = int(rng.binomial(shots, (1 + comp) / 2))
            counts[b] = (n0, shots - n0)
        r_li, rho_li = linear_inversion(counts, shots)
        rho = mle_fit(counts, shots)
        if np.linalg.norm(r_li) <= 1.0:
            assert trace_distance(rho, rho_li) < 1e-6


def test_mle_all_zero_counts_boundary():
    shots = 100
    counts = _counts((100, 0), (100, 0), (100, 0), shots)
    rho = mle_fit(counts, shots)
    r = bloch_vector(rho)
    want = np.ones(3) / math.sqrt(3)
    assert abs(np.linalg.norm(r) - 1.0) < 1e-6
    np.testing.assert_allclose(r, want, atol=1e-3)


def test_mle_uniform_counts_is_maximally_mixed():
    rho = mle_fit(_counts((50, 50), (50, 50), (50, 50), 100), 100)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-9)


def test_mle_matches_grid_oracle_boundary_cases():
    shots = 200
    cases = [
        _counts((200, 0), (200, 0), (200, 0), shots),
        _counts((190, 10), (180, 20), (200, 0), shots),
        _counts((10, 190), (170, 30), (195, 5), shots),
        _counts((200, 0), (100, 100), (150, 50), shots),
    ]
    for counts in cases:
        rho = mle_fit(counts, shots)
        r_star = mle_grid_oracle(counts, shots, resolution=1e-3)
        dist = trace_distance(rho, rho_from_bloch(np.clip(r_star, -1, 1)))
        assert dist <= 2e-3, (counts, dist)


def _fuzz_cases(n):
    """n (counts, shots) pairs with 1..399 shots and uniform 0-counts."""
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(n):
        shots = int(rng.integers(1, 400))
        counts = {}
        for b in ("x", "y", "z"):
            n0 = int(rng.integers(0, shots + 1))
            counts[b] = (n0, shots - n0)
        cases.append((counts, shots))
    return cases


def test_mle_always_physical_fuzz():
    for counts, shots in _fuzz_cases(10_000):
        rho = mle_fit(counts, shots)
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() >= -1e-15
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def _log_likelihood(r, n0, n1):
    c = np.clip(r, -1 + 1e-9, 1 - 1e-9)  # the clip mle_grid_oracle scores with
    return float(np.sum(n0 * np.log1p(c) + n1 * np.log1p(-c)))


def test_mle_boundary_fits_are_exact():
    """Where linear inversion leaves the ball, the fit is the exact optimum
    on the sphere: |r| = 1, the likelihood gradient is 2 mu r with mu > 0
    (the Lagrange condition), and no point of a coarse sphere grid scores
    higher."""
    boundary = 0
    for counts, shots in _fuzz_cases(10_000):
        n0 = np.array([counts[b][0] for b in "xyz"], dtype=float)
        n1 = np.array([counts[b][1] for b in "xyz"], dtype=float)
        r_li = (n0 - n1) / shots
        if r_li @ r_li <= 1.0:
            continue
        boundary += 1
        r = bloch_vector(mle_fit(counts, shots))
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-12, counts
        grad = n0 / (1 + r) - n1 / (1 - r)
        mu = grad @ r / 2
        assert mu > 0, counts
        assert np.linalg.norm(grad - 2 * mu * r) <= 1e-9 * np.linalg.norm(grad), counts
        if boundary <= 1_000:
            r_grid = mle_grid_oracle(counts, shots, resolution=5e-2)
            ll = _log_likelihood(r, n0, n1)
            assert ll >= _log_likelihood(r_grid, n0, n1) - 1e-12 * abs(ll), counts
    assert boundary > 4_000


def test_record_requires_consistent_counts():
    with pytest.raises(SimulationError):
        TomographyRecord({"x": (5, 4), "y": (5, 5), "z": (5, 5)}, 10)


@pytest.mark.parametrize("counts", [
    {"x": (-1, 3), "y": (1, 1), "z": (1, 1)},
    {"x": (0.5, 1.5), "y": (1, 1), "z": (1, 1)},
    {"x": (True, True), "y": (1, 1), "z": (1, 1)},
    {"x": (1, 1), "y": (1, 1)},
    {"x": (1, 1), "y": (2, 1), "z": (1, 1)},
], ids=["negative", "non-integer", "bool", "missing-basis", "wrong-sum"])
def test_tomography_rejects_bad_counts(counts):
    """mle_fit, linear_inversion and TomographyRecord refuse counts that are
    not two integers >= 0 summing to the shots in each of x, y and z."""
    for consumer in (mle_fit, linear_inversion, TomographyRecord):
        with pytest.raises(SimulationError):
            consumer(counts, 2)


def test_tomography_run_shapes_and_samples():
    recs = tomography_run(2, NOA, MessageState(0.4, 0.9), shots_per_basis=500,
                          seed=13)
    assert len(recs) == 2
    for rec in recs:
        assert sum(sum(rec.counts[b]) for b in ("x", "y", "z")) == 1500
        assert rec.reconstructed is not None


def test_tomography_single_shot_degenerate_but_physical():
    recs = tomography_run(2, NOA, MessageState(1.2, 0.3), shots_per_basis=1, seed=1)
    for rec in recs:
        vals = np.linalg.eigvalsh(rec.reconstructed)
        assert vals.min() >= -1e-12


def test_tomography_pole_message_z_frequency():
    shots = 10_000
    recs = tomography_run(2, NOA, MessageState(0.0, 0.0), shots_per_basis=shots,
                          seed=23)
    sigma = math.sqrt(shots * (5 / 6) * (1 / 6))
    for rec in recs:
        n0 = rec.counts["z"][0]
        assert abs(n0 - shots * 5 / 6) <= 4 * sigma


def test_tomography_close_to_exact_at_10k():
    msg = MessageState(0.9, 1.3)
    exact = exact_clone_states(build_protocol_circuit(2, NOA, msg))
    recs = tomography_run(2, NOA, msg, shots_per_basis=10_000, seed=29)
    for rec, rho in zip(recs, exact):
        assert trace_distance(rec.reconstructed, rho) < 0.02


@pytest.mark.parametrize("native", [False, True], ids=["logical", "layout-dd"])
def test_noiseless_tomography_samples_the_exact_clone_states(monkeypatch, native):
    """Noiseless tomography_run, with no noise object or an all-zero one,
    draws its counts from each clone's exact state: the P(1)s it passes to
    sample_tomography are basis_p1 of exact_clone_states of its circuit."""
    import teleclone.tomography as tomo
    from teleclone.hardware import enumerate_layouts, insert_dd, transpile_to_native
    layout = enumerate_layouts(3, OPT)[0]
    transform = (lambda c: insert_dd(transpile_to_native(c, layout))) if native \
        else (lambda c: c)
    msg, seen, sample = MessageState(1.1, 0.4), [], tomo.sample_tomography
    monkeypatch.setattr(tomo, "sample_tomography",
                        lambda p1, *args: seen.append(np.array(p1)) or sample(p1, *args))
    want = [basis_p1(rho) for rho in
            exact_clone_states(transform(build_protocol_circuit(3, OPT, msg)))]
    for noise in (None, NoiseModel()):
        recs = tomography_run(3, OPT, msg, 200, seed=5, noise=noise, transform=transform)
        assert len(recs) == 3 and all(sum(rec.counts["z"]) == 200 for rec in recs)
    assert len(seen) == 2
    for got in seen:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_noiseless_tomography_walks_the_prep_once(monkeypatch):
    """The three bases of a noiseless tomography_run share one prep walk."""
    import teleclone.simulator as sim
    calls, prep_state = [], sim._prep_state
    monkeypatch.setattr(sim, "_prep_state",
                        lambda *args: calls.append(args) or prep_state(*args))
    tomography_run(3, OPT, MessageState(0.3, 0.2), 100, seed=1)
    assert len(calls) == 1


_NOISY = NoiseModel(depolarizing_1q=0.01, depolarizing_2q=0.02, readout_flip=0.1,
                    amplitude_damping_idle=0.05)


def test_basis_observables_are_the_paulis_without_noise():
    """Without noise, or under a model whose channels are all zero, every
    clone's observables are X, Y and Z themselves, bitwise, and the basis
    circuits are not read; under a readout flip alone they are the Paulis
    scaled by 1 - 2f, to rounding."""
    from teleclone.simulator import _X, _Y, _Z
    from teleclone.telecloning import with_tomography
    from teleclone.tomography import BASES, basis_observables

    def unread():
        raise AssertionError("the basis circuits were read")
        yield

    c = build_protocol_circuit(3, OPT, MessageState(0.3, 0.2))
    for noise in (None, NoiseModel()):
        got = basis_observables(c, unread(), noise)
        assert got.shape == (3, 3, 2, 2)
        assert all(np.array_equal(clone, [_X, _Y, _Z]) for clone in got)
    flipped = basis_observables(c, [with_tomography(c, basis) for basis in BASES],
                                NoiseModel(readout_flip=0.1))
    np.testing.assert_allclose(flipped, 0.8 * np.array([[_X, _Y, _Z]] * 3), rtol=0, atol=1e-15)


def test_basis_observables_refuse_a_basis_circuit_that_does_not_extend_its_none_circuit():
    """The observables are exact only for basis circuits that are the
    "none" circuit's instructions and then one-qubit gates and a measure on
    each clone: a transform that appends a gate to every circuit breaks
    that, and so does a cx between two clones after the basis change; noisy
    tomography_run refuses the first too, while without noise it does not
    read the basis circuits."""
    from teleclone import Circuit, cx, rz
    from teleclone.telecloning import with_tomography
    from teleclone.tomography import BASES, basis_observables
    msg = MessageState(0.3, 0.2)
    none = build_protocol_circuit(2, NOA, msg)
    a, b = none.roles["clones"]

    def appended(c):
        return Circuit(c.num_qubits, c.num_clbits, c.instructions + (rz(0.3, a),), roles=c.roles)

    bases = [appended(with_tomography(none, basis)) for basis in BASES]
    with pytest.raises(SimulationError, match="does not start with"):
        basis_observables(appended(none), bases, _NOISY)
    with pytest.raises(SimulationError, match="does not start with"):
        tomography_run(2, NOA, msg, 100, seed=1, noise=_NOISY, transform=appended)
    assert len(tomography_run(2, NOA, msg, 100, seed=1, transform=appended)) == 2
    x = with_tomography(none, "x")
    entangled = Circuit(x.num_qubits, x.num_clbits, x.instructions[:-3] + (cx(a, b),)
                        + x.instructions[-3:], roles=x.roles)
    with pytest.raises(SimulationError, match="one-qubit gates of its own"):
        basis_observables(none, [entangled], _NOISY)


def test_marginals_independent_of_other_clone_measures():
    """Measuring clone 1 alongside clone 0 must not change clone 0's counts
    distribution (noiseless): compare against a single-clone circuit."""
    from teleclone.circuit import Circuit
    msg = MessageState(0.7, 2.1)
    full = build_protocol_circuit(2, NOA, msg, tomo_basis="z")
    # drop the other clone's measurement
    keep_clone = full.roles["clones"][0]
    instrs = tuple(i for i in full.instructions
                   if not (i.gate == "measure" and i.qubits[0] != keep_clone
                           and i.qubits[0] in full.roles["clones"]))
    solo = Circuit(full.num_qubits, full.num_clbits, instrs, roles=full.roles)
    shots = 20_000
    c_full = run_shots(full, shots, seed=31)
    c_solo = run_shots(solo, shots, seed=31)
    f1 = sum(v for k, v in c_full.items() if k[2] == "1") / shots
    f2 = sum(v for k, v in c_solo.items() if k[2] == "1") / shots
    assert abs(f1 - f2) < 0.02


@pytest.mark.slow
def test_tomography_consistency_improves_with_shots():
    msg = MessageState(1.1, 0.7)
    exact = exact_clone_states(build_protocol_circuit(2, NOA, msg))[0]
    dists = []
    for shots in (1000, 10_000, 100_000, 1_000_000):
        recs = tomography_run(2, NOA, msg, shots_per_basis=shots, seed=37)
        dists.append(trace_distance(recs[0].reconstructed, exact))
    assert dists[-1] <= 0.005
    assert dists[-1] < dists[0]


@pytest.mark.slow
@pytest.mark.parametrize("m,variant", [(2, NOA), (3, NOA),
                                       (4, TelecloningVariant.WITH_ANCILLA_OPTIMIZED)])
def test_tomography_matches_exact_at_1m_shots(m, variant):
    msg = MessageState(0.8, 2.4)
    exact = exact_clone_states(build_protocol_circuit(m, variant, msg))
    recs = tomography_run(m, variant, msg, shots_per_basis=1_000_000, seed=41)
    for rec, rho in zip(recs, exact):
        assert trace_distance(rec.reconstructed, rho) <= 0.01
