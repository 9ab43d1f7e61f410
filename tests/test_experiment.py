"""Sweep orchestration, persisted outputs, and the CLI surface."""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from teleclone import MessageState, NoiseModel, TelecloningVariant, theoretical_fidelity
from teleclone.exceptions import ConfigError
from teleclone.experiment import (ExperimentConfig, ExperimentRecord, angle_grid,
                                  emit_bloch, emit_heatmap, run_experiment)
from teleclone.hardware import DurationTable

NOA = TelecloningVariant.NO_ANCILLA
OPT = TelecloningVariant.WITH_ANCILLA_OPTIMIZED
FULL = TelecloningVariant.WITH_ANCILLA_FULL


def test_angle_grid_counts_and_endpoints():
    grid = angle_grid(20, 20)
    assert len(grid) == 400
    assert grid[0].psi == 0.0 and grid[0].phi == 0.0
    assert abs(grid[-1].psi - math.pi) < 1e-15
    assert abs(grid[-1].phi - 2 * math.pi) < 1e-15
    single = angle_grid(1, 1)
    assert len(single) == 1 and single[0] == MessageState(0.0, 0.0)
    two = angle_grid(2, 2)
    assert {(s.psi, s.phi) for s in two} == {(0.0, 0.0), (0.0, 2 * math.pi),
                                             (math.pi, 0.0), (math.pi, 2 * math.pi)}


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(m=1, variant=NOA)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=2, variant=NOA, n_psi=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=2, variant=NOA, mode="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(m=2, variant=NOA, dd=True)  # dd without layout
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"m": 2, "variant": "no-ancilla",
                                         "bogus_key": 1})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)
_UNIT = st.floats(0.0, 1.0)
_NS = st.floats(0.0, 1e4)


@st.composite
def _configs(draw):
    variant = draw(st.sampled_from(list(TelecloningVariant)))
    layout = draw(st.none() | st.integers(0, 6))
    noise = draw(st.none() | st.builds(NoiseModel, depolarizing_1q=_UNIT,
                                       depolarizing_2q=_UNIT, readout_flip=_UNIT,
                                       amplitude_damping_idle=st.none() | _UNIT))
    mode = draw(st.sampled_from(["exact", "shots"]))
    # noisy exact mode holds a density matrix: at most 8 qubits, M=3 with ancillas
    small = variant is NOA or (mode == "exact" and noise is not None and noise.any_noise())
    return ExperimentConfig(
        m=draw(st.integers(2, 3) if small else st.integers(2, 10)),
        variant=variant, n_psi=draw(st.integers(1, 50)), n_phi=draw(st.integers(1, 50)),
        shots_per_basis=draw(st.integers(1, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 64 - 1)), layout_index=layout,
        dd=layout is not None and draw(st.booleans()),
        durations=draw(st.none() | st.builds(
            DurationTable, sx=_NS, x=_NS, cx=_NS, measure=_NS, feedforward_latency=_NS,
            cx_overrides=st.dictionaries(st.tuples(st.integers(0, 26), st.integers(0, 26)),
                                         _NS, max_size=3))),
        noise=noise, mode=mode)


@given(_configs())
def test_config_json_round_trip(cfg):
    d = cfg.to_json_dict()
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(d))) == cfg


def _config_or_config_error(d):
    try:
        assert isinstance(ExperimentConfig.from_json_dict(d), ExperimentConfig)
    except ConfigError:
        pass


@example(7)
@example(["x"])
@example({"variant": "no-ancilla"})
@given(_JSON)
def test_any_json_config_gives_config_or_config_error(doc):
    _config_or_config_error(json.loads(json.dumps(doc)))


@example(ExperimentConfig(m=2, variant=OPT), "m", 10 ** 12)
@given(_configs(), st.sampled_from(sorted(ExperimentConfig(m=2, variant=NOA).to_json_dict())),
       _JSON)
def test_any_json_config_value_gives_config_or_config_error(cfg, key, value):
    d = cfg.to_json_dict()
    d[key] = value
    _config_or_config_error(json.loads(json.dumps(d)))


def test_exact_mode_mean_matches_theory_m2():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=5, n_phi=5, mode="exact")
    rec = run_experiment(cfg)
    assert rec.aggregate["n_failed"] == 0
    assert abs(rec.aggregate["overall_mean_fidelity"] - 5 / 6) < 1e-9
    assert rec.aggregate["overall_std_fidelity"] < 1e-9


def test_determinism_byte_identical_records():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=3, mode="shots",
                           shots_per_basis=200, seed=5)
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b


def test_shots_mode_agrees_with_exact_within_3_sigma():
    cfg_exact = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact")
    cfg_shots = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2,
                                 mode="shots", shots_per_basis=10_000, seed=3)
    f_exact = run_experiment(cfg_exact).aggregate["overall_mean_fidelity"]
    f_shots = run_experiment(cfg_shots).aggregate["overall_mean_fidelity"]
    # shot noise on a fidelity mean over 4 points x 2 clones at 10k shots
    assert abs(f_exact - f_shots) < 0.01


def test_heatmap_shape_and_uniformity():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=4, n_phi=6, mode="exact")
    rec = run_experiment(cfg)
    csv = emit_heatmap(rec, 0)
    rows = csv.strip().split("\n")
    assert len(rows) == 4
    vals = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert vals.shape == (4, 6)
    assert np.nanmax(np.abs(vals - 5 / 6)) < 1e-9
    with pytest.raises(ConfigError):
        emit_heatmap(rec, 2)


def test_heatmap_renders_a_failed_point_as_nan():
    """The heatmap of a record with a failed point, against the grid filled
    as a numpy array of nan."""
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=3)
    fids = [1 / 3, 0.1, 5 / 6, None, 0.7 + 1e-12, 1.0]
    results = [{"psi_index": i // 3, "phi_index": i % 3,
                "clones": [] if f is None else [{"fidelity": f}, {"fidelity": 1 - f}],
                "error": "failed" if f is None else None} for i, f in enumerate(fids)]
    rec = ExperimentRecord(config=cfg, results=results)
    for k in range(2):
        grid = np.full((2, 3), math.nan)
        for point in results:
            if point["error"] is None:
                grid[point["psi_index"], point["phi_index"]] = point["clones"][k]["fidelity"]
        want = "\n".join(",".join(repr(float(v)) for v in row) for row in grid) + "\n"
        assert emit_heatmap(rec, k) == want
    assert emit_heatmap(rec, 0).splitlines()[1].startswith("nan,")


def test_bloch_output_shrinks_message():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=3, n_phi=3, mode="exact")
    rec = run_experiment(cfg)
    data = json.loads(emit_bloch(rec))
    assert len(data) == 9
    for entry in data:
        msg = np.array(entry["message"])
        for clone in entry["clones"]:
            np.testing.assert_allclose(np.array(clone), (2 / 3) * msg, atol=1e-9)


def test_record_json_round_trip():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact")
    rec = run_experiment(cfg)
    text = rec.to_json()
    again = ExperimentRecord.from_json(text)
    assert again.to_json() == text


def test_transpiled_dd_run_matches_theory():
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact",
                           layout_index=1, dd=True)
    rec = run_experiment(cfg)
    assert rec.aggregate["n_failed"] == 0
    assert abs(rec.aggregate["overall_mean_fidelity"] - 5 / 6) < 1e-9


@pytest.mark.parametrize("m,variant", [(2, NOA), (3, OPT), (2, FULL)])
@pytest.mark.parametrize("xdur", [0, 1, 10])
def test_dd_with_short_x_pulses_runs_every_point(m, variant, xdur):
    """X pulses shorter than half the port's window between its Bell cx and
    its measure, or of no length at all, leave the Bell measurement whole:
    no pair pads that window or a zero-length one, and every point meets
    the theory bound."""
    cfg = ExperimentConfig(m=m, variant=variant, n_psi=2, n_phi=2, layout_index=0, dd=True,
                           durations=DurationTable(x=xdur))
    rec = run_experiment(cfg)
    assert rec.aggregate["n_failed"] == 0
    assert abs(rec.aggregate["overall_mean_fidelity"] - theoretical_fidelity(1, m)) < 1e-9


def test_noise_floor_heavy_depolarizing():
    from teleclone import NoiseModel
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact",
                           noise=NoiseModel(depolarizing_1q=0.5,
                                            depolarizing_2q=0.5))
    rec = run_experiment(cfg)
    assert abs(rec.aggregate["overall_mean_fidelity"] - 0.5) < 0.05


_ALL_CHANNELS = NoiseModel(depolarizing_1q=0.01, depolarizing_2q=0.02, readout_flip=0.1,
                           amplitude_damping_idle=0.05)


def _density_p1(cfg, msg):
    """P(1) of each clone in each basis from the density oracle: each basis
    circuit of ``msg`` walked whole without its clone measures, with the
    readout flip applied to P(1)."""
    from teleclone import Circuit, build_protocol_circuit, noisy_clone_states
    from teleclone.experiment import _transform_for
    from teleclone.tomography import BASES
    transform = _transform_for(cfg)
    f = cfg.noise.readout_flip
    p1 = []
    for basis in BASES:
        c = transform(build_protocol_circuit(cfg.m, cfg.variant, msg, tomo_basis=basis))
        c = Circuit(c.num_qubits, c.num_clbits,
                    tuple(i for i in c.instructions if not (i.gate == "measure" and i.clbit >= 2)),
                    roles=c.roles)
        p1.append([(1 - f) * rho[1, 1].real + f * rho[0, 0].real
                   for rho in noisy_clone_states(c, cfg.noise)])
    return np.transpose(p1)


def test_shots_mode_heavy_noise_matches_density_oracle():
    """Sampled sweeps, under strong CX depolarizing and under all four
    channels on layout 0 with decoupling, draw each clone's count of 1s in
    each basis within 5 binomial sigmas of the density-matrix oracle; the
    strong-depolarizing mean lands on the oracle's, close to the 0.5 floor."""
    heavy = NoiseModel(depolarizing_2q=0.5)
    # the decoupled layout's many pulses damp the clones to near I/2 under
    # _ALL_CHANNELS, which would hide a misplaced readout flip
    mild = NoiseModel(depolarizing_1q=0.002, depolarizing_2q=0.01, readout_flip=0.1,
                      amplitude_damping_idle=0.002)
    means = []
    for noise, layout, (n_psi, n_phi) in ((heavy, None, (2, 2)), (mild, 0, (3, 4))):
        cfg = ExperimentConfig(m=2, variant=NOA, n_psi=n_psi, n_phi=n_phi, mode="shots",
                               shots_per_basis=2000, seed=6, noise=noise,
                               layout_index=layout, dd=layout is not None)
        rec = run_experiment(cfg)
        means.append(rec.aggregate["overall_mean_fidelity"])
        for point in rec.results:
            p1 = _density_p1(cfg, MessageState(point["psi"], point["phi"]))
            for k, clone in enumerate(point["clones"]):
                for b, basis in enumerate(("x", "y", "z")):
                    n1 = clone["tomography"]["counts"][basis][1]
                    sigma = math.sqrt(2000 * p1[k, b] * (1 - p1[k, b]))
                    assert abs(n1 - 2000 * p1[k, b]) <= 5 * sigma, (point["index"], k, basis)
    oracle = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact",
                              noise=heavy)
    oracle_mean = run_experiment(oracle).aggregate["overall_mean_fidelity"]
    assert abs(means[0] - oracle_mean) < 0.03
    assert oracle_mean < 0.62


# Fails grid points 1 and 2 of every sweep with a SimulationError.
_FAIL_TWO_POINTS = """
from teleclone import experiment
from teleclone.exceptions import SimulationError
run_point = experiment._run_point

def failing(config, response, blocks, index, msg):
    if index in (1, 2):
        raise SimulationError(f"point {index} failed")
    return run_point(config, response, blocks, index, msg)
"""


def test_partial_failure_markers_and_exit_code(tmp_path, monkeypatch):
    """Points that raise keep failure markers while the others run; the CLI
    then signals partial failure."""
    from teleclone import experiment
    cfg = {"m": 2, "variant": "no-ancilla", "n_psi": 2, "n_phi": 2, "mode": "exact",
           "noise": {"depolarizing_1q": 0.1}}
    scope = {}
    exec(_FAIL_TWO_POINTS, scope)
    monkeypatch.delenv("TELECLONE_WORKERS", raising=False)
    monkeypatch.setattr(experiment, "_run_point", scope["failing"])
    rec = run_experiment(ExperimentConfig.from_json_dict(cfg))
    assert rec.aggregate["n_failed"] == 2
    assert [p["error"] for p in rec.results] == [None, "point 1 failed", "point 2 failed", None]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = _FAIL_TWO_POINTS + (
        "experiment._run_point = failing\n"
        "from teleclone import cli\n"
        f"print(cli.main(['run', '--config', {str(cfg_path)!r}, "
        f"'--out-dir', {str(tmp_path / 'runs')!r}]))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.stdout.splitlines()[-1] == "2", r.stderr


def test_noisy_shots_past_the_density_cap_run_trajectories():
    """Noisy shots whose prep is past the density cap (M=5 with ancillas, 10
    qubits without the message) share no response; each point runs
    tomography_run's trajectories from its own seed."""
    from teleclone import tomography_run
    from teleclone.experiment import _response_for
    from teleclone.tomography import _child_seed
    cfg = ExperimentConfig(m=5, variant=OPT, n_psi=1, n_phi=1, mode="shots",
                           shots_per_basis=40, seed=2, noise=_ALL_CHANNELS)
    assert _response_for(cfg) is None
    fits = ExperimentConfig(m=4, variant=OPT, mode="shots", noise=_ALL_CHANNELS)
    assert _response_for(fits).shape == (3, 4, 2, 2, 2, 2)
    (point,) = run_experiment(cfg).results
    records = tomography_run(5, OPT, MessageState(0.0, 0.0), 40, seed=_child_seed(2, 0),
                             noise=_ALL_CHANNELS)
    assert [c["tomography"] for c in point["clones"]] == [r.to_json_dict() for r in records]


def test_zero_noise_exact_mode_runs_noiseless():
    """A noise object with every channel at zero is no noise: an M=5 exact
    sweep, whose density matrix would be past the cap, gives the noiseless
    sweep's results."""
    cfg = {"m": 5, "variant": "with-ancilla-optimized", "n_psi": 2, "n_phi": 1}
    rec = run_experiment(ExperimentConfig.from_json_dict({**cfg, "noise": {}}))
    assert rec.aggregate["n_failed"] == 0
    assert rec.results == run_experiment(ExperimentConfig.from_json_dict(cfg)).results


def test_cli_build_with_layout_and_dd(tmp_path):
    out = tmp_path / "native.json"
    r = _cli("build", "--m", "2", "--variant", "no-ancilla", "--basis", "z",
             "--layout-index", "0", "--dd", "on", "--out", str(out))
    assert r.returncode == 0, r.stderr
    circ = json.loads(out.read_text())
    assert circ["num_qubits"] == 27
    gates = {i["gate"] for i in circ["instructions"]}
    assert gates <= {"rz", "sx", "x", "cx", "barrier", "measure", "cond"}


@pytest.mark.parametrize("index", ["7", "9", "-1"])
def test_cli_build_rejects_a_layout_index_out_of_range(tmp_path, index):
    out = tmp_path / "native.json"
    r = _cli("build", "--m", "2", "--variant", "no-ancilla",
             "--layout-index", index, "--out", str(out))
    assert r.returncode == 1
    assert "config error" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def _cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "teleclone.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_build_refuses_a_huge_m_at_the_boundary():
    """A clone count whose circuit could never be simulated is a config
    error before any of its circuit is built: no MemoryError, no traceback."""
    start = time.perf_counter()
    r = _cli("build", "--m", "1000000000000", "--variant", "with-ancilla-optimized")
    assert time.perf_counter() - start < 5
    assert r.returncode == 1
    assert "config error" in r.stderr and "Traceback" not in r.stderr


def test_cli_reports_an_unallocatable_grid_as_an_error(tmp_path):
    """A grid too large to allocate is an error line and exit 1, not a
    MemoryError traceback. The child's address space is capped at 2 GiB, so
    the grid is never really allocated; one BLAS thread keeps its buffers
    within that cap. The error comes at once, not after the grid has been
    built value by value up to the cap."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "variant": "no-ancilla", "n_psi": 10 ** 12, "n_phi": 1}))
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "teleclone.cli", "run", "--config", str(cfg),
                        "--out-dir", str(tmp_path / "runs")],
                       capture_output=True, text=True, preexec_fn=cap,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert time.perf_counter() - start < 3  # about 0.3 s; 5 s built value by value
    assert r.returncode == 1
    assert "error" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("m,variant,basis", [(2, NOA, "z"), (5, OPT, "x")])
def test_cli_build_is_the_sweeps_transform(tmp_path, m, variant, basis):
    """build writes the circuit that a sweep of its flags simulates: its
    config's transform of the protocol circuit, at every layout with and
    without DD, and with a durations file carrying cx overrides."""
    from teleclone import build_protocol_circuit
    from teleclone.circuit import to_json
    from teleclone.cli import main
    from teleclone.experiment import _transform_for
    durations = {"cx": 400.0, "cx_overrides": {"0-1": 800.0, "1-2": 123.5}}
    (tmp_path / "durations.json").write_text(json.dumps(durations))
    msg = MessageState(0.7, 1.9)
    runs = [(layout, dd, None) for layout in range(7) for dd in (False, True)]
    runs.append((1, True, durations))
    for layout, dd, table in runs:
        out = tmp_path / "circuit.json"
        argv = ["build", "--m", str(m), "--variant", variant.value, "--basis", basis,
                "--psi", "0.7", "--phi", "1.9", "--layout-index", str(layout),
                "--dd", "on" if dd else "off", "--out", str(out)]
        if table is not None:
            argv += ["--durations", str(tmp_path / "durations.json")]
        assert main(argv) == 0
        cfg = ExperimentConfig(m=m, variant=variant, layout_index=layout, dd=dd,
                               durations=table and DurationTable.from_json_dict(table))
        circuit = build_protocol_circuit(m, variant, msg, tomo_basis=basis)
        assert out.read_text() == to_json(_transform_for(cfg)(circuit)) + "\n"


@pytest.mark.parametrize("argv", [
    ["--m", "2", "--variant", "no-ancilla", "--dd", "on"],
    ["--m", "2", "--variant", "no-ancilla", "--layout-index", "0", "--dd", "on",
     "--durations", "{durations}"],
    ["--m", "2", "--variant", "no-ancilla", "--durations", "{durations}"],
    ["--m", "12", "--variant", "with-ancilla-full"],
], ids=["dd-without-layout", "bad-durations-dd", "bad-durations-no-dd", "past-qubit-cap"])
def test_cli_build_refuses_what_a_config_refuses(tmp_path, capsys, argv):
    """build checks its flags as a run config is checked: DD without a
    layout, a malformed durations file (used or not) and a circuit past the
    statevector cap are config errors, and nothing is written."""
    from teleclone.cli import main
    bad = tmp_path / "durations.json"
    bad.write_text(json.dumps({"sx": -3}))
    out = tmp_path / "circuit.json"
    argv = [a.format(durations=bad) for a in argv]
    assert main(["build", *argv, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_undecodable_input_file_is_an_error(tmp_path, capsys):
    """An input file that is not UTF-8 text is an input error, exit 1, for
    build's durations and run's config alike."""
    from teleclone.cli import main
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for argv in (["build", "--m", "2", "--variant", "no-ancilla", "--durations", str(binary)],
                 ["run", "--config", str(binary), "--out-dir", str(tmp_path / "runs")]):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err


def test_cli_import_loads_every_traced_layer():
    """Importing the CLI loads every module whose functions the traced
    benchmark wraps, so none of them is loaded after the wrapping and
    missed."""
    layers = ["telecloning", "hardware", "circuit", "simulator", "tomography",
              "analysis", "experiment"]
    code = ("import sys, teleclone.cli; "
            f"print([m for m in {layers!r} if 'teleclone.' + m not in sys.modules])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.strip() == "[]"


def test_config_record_circuit_and_qasm_load_no_numpy():
    """Importing the package, reading a noisy layout + DD config and a
    record, building a circuit and exporting it to QASM load no numpy; each
    public name loads its home module's object on first access, and each
    submodule that the package used to import eagerly is an attribute."""
    import teleclone
    config = {"m": 2, "variant": "no-ancilla", "layout_index": 0, "dd": True,
              "durations": {"x": 40.0}, "mode": "shots",
              "noise": {"depolarizing_1q": 0.01, "readout_flip": 0.02}}
    record = {"config": config, "aggregate": {"n_points": 1, "n_failed": 1},
              "results": [{"index": 0, "psi_index": 0, "phi_index": 0, "psi": 0.0,
                           "phi": 0.0, "clones": [], "error": "failed"}]}
    code = f"""
import sys
import teleclone
from teleclone.experiment import ExperimentConfig, ExperimentRecord
ExperimentConfig.from_json_dict({config!r})
ExperimentRecord.from_json({json.dumps(record)!r})
from teleclone import MessageState, TelecloningVariant, build_protocol_circuit, export_qasm
export_qasm(build_protocol_circuit(2, TelecloningVariant.NO_ANCILLA, MessageState(0.3, 0.4)))
print(sorted(m for m in ("numpy", "teleclone.simulator") if m in sys.modules))
assert teleclone.simulator.run_shots and teleclone.exceptions.ConfigError
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.strip() == "[]"
    for name in teleclone.__all__:
        value = getattr(teleclone, name)
        assert getattr(sys.modules[value.__module__], name) is value
    star = {}
    exec("from teleclone import *", star)
    assert set(teleclone.__all__) <= set(star)
    assert "__all__" in dir(teleclone) and "NoiseModel" in dir(teleclone)
    with pytest.raises(AttributeError):
        getattr(teleclone, "no_such_name")


def test_traced_benchmark_cli_runs_a_noisy_sweep(tmp_path):
    """bench/traced_cli.py wraps every layer it names, which fails on a name
    the package no longer has, and runs a small noisy shots sweep (M=2
    without ancillas, layout 0 with decoupling) to a trace that holds the
    spans of the layers it passes through."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "variant": "no-ancilla", "n_psi": 2, "n_phi": 1,
                               "shots_per_basis": 20, "layout_index": 0, "dd": True,
                               "mode": "shots", "noise": {"depolarizing_1q": 0.001,
                                                          "depolarizing_2q": 0.01}}))
    trace = tmp_path / "trace.json"
    r = subprocess.run([sys.executable, os.path.join(root, "bench", "traced_cli.py"), str(trace),
                        "run", "--config", str(cfg), "--out-dir", str(tmp_path / "runs")],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert r.returncode == 0, r.stderr
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"experiment.run_experiment", "telecloning.build_protocol_circuit",
            "hardware.insert_dd", "tomography.mle_fit"} <= names


def test_cli_build_and_export(tmp_path):
    out = tmp_path / "circuit.json"
    r = _cli("build", "--m", "3", "--variant", "no-ancilla", "--psi", "0.6283",
             "--phi", "0.6283", "--basis", "y", "--out", str(out))
    assert r.returncode == 0, r.stderr
    text = out.read_text()
    circ = json.loads(text)
    assert circ["num_qubits"] == 5
    r2 = _cli("export", "--circuit", str(out), "--format", "qasm")
    assert r2.returncode == 0
    assert r2.stdout.count("if (") == 6
    assert "ry(0.6283)" in r2.stdout


def test_cli_qasm_contains_expected_lines(tmp_path):
    out = tmp_path / "c.json"
    _cli("build", "--m", "2", "--variant", "no-ancilla", "--basis", "z",
         "--out", str(out))
    r = _cli("export", "--circuit", str(out))
    assert r.returncode == 0
    assert r.stdout.count("if (") == 4
    assert "barrier" in r.stdout
    assert "measure" in r.stdout


def test_cli_run_and_analyze(tmp_path):
    cfg = {"m": 2, "variant": "no-ancilla", "n_psi": 2, "n_phi": 2,
           "mode": "exact", "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 0, r.stderr
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    files = {p.name for p in run_dirs[0].iterdir()}
    assert {"config.json", "record.json", "heatmap-clone0.csv",
            "heatmap-clone1.csv", "bloch.json", "circuits"} <= files
    r2 = _cli("analyze", str(run_dirs[0] / "record.json"))
    assert r2.returncode == 0
    assert "theory bound" in r2.stdout


def test_cli_bad_config_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "nope"}))
    r = _cli("run", "--config", str(cfg_path))
    assert r.returncode == 1


def test_worker_pool_determinism(tmp_path, monkeypatch):
    configs = [ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="shots",
                                shots_per_basis=100, seed=8),
               ExperimentConfig(m=3, variant=OPT, n_psi=3, n_phi=1, mode="shots",
                                shots_per_basis=100, seed=5, layout_index=2, dd=True),
               ExperimentConfig(m=2, variant=NOA, n_psi=3, n_phi=1, mode="shots",
                                shots_per_basis=100, seed=4, layout_index=3, dd=True,
                                noise=_ALL_CHANNELS)]
    serial = [run_experiment(cfg) for cfg in configs]
    assert serial[1].aggregate["n_failed"] == serial[2].aggregate["n_failed"] == 0
    monkeypatch.setenv("TELECLONE_WORKERS", "2")
    parallel = [run_experiment(cfg).to_json() for cfg in configs]
    assert [rec.to_json() for rec in serial] == parallel


def test_serial_sweep_skips_the_process_pool_import(tmp_path):
    """A serial sweep never imports the process pool; two workers still run."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla",
                                    "n_psi": 2, "n_phi": 1}))
    code = ("import sys; from teleclone import cli; "
            f"rc = cli.main(['run', '--config', {str(cfg_path)!r}, "
            f"'--out-dir', {str(tmp_path / 'runs')!r}]); "
            "print(rc, 'concurrent.futures.process' in sys.modules)")
    for workers, want in (("1", "0 False"), ("2", "0 True")):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "TELECLONE_WORKERS": workers})
        assert r.stdout.splitlines()[-1] == want, r.stderr


def test_point_raising_any_exception_is_marked_not_fatal(tmp_path, monkeypatch, capsys):
    """An exception that is not a TelecloneError fails only its own point,
    whose marker names its type, and its traceback goes to stderr; the CLI
    then exits 2."""
    from teleclone import cli, experiment
    run_point = experiment._run_point

    def flaky(config, response, blocks, index, msg):
        if index == 1:
            raise ValueError("bad point")
        return run_point(config, response, blocks, index, msg)

    monkeypatch.delenv("TELECLONE_WORKERS", raising=False)
    monkeypatch.setattr(experiment, "_run_point", flaky)
    rec = run_experiment(ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2))
    assert [p["error"] for p in rec.results] == [None, "ValueError: bad point", None, None]
    assert rec.aggregate["n_failed"] == 1
    assert all(len(p["clones"]) == 2 for k, p in enumerate(rec.results) if k != 1)
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: bad point" in err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rec.config.to_json_dict()))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    # an exception while compiling the shared response marks every point
    monkeypatch.setattr(experiment, "_response_for", lambda *args: 1 / 0)
    rec = run_experiment(ExperimentConfig(m=2, variant=NOA, n_psi=1, n_phi=2))
    assert [p["error"] for p in rec.results] == ["ZeroDivisionError: division by zero"] * 2


@pytest.mark.parametrize("m,variant", [(2, NOA), (5, OPT), (8, FULL)])
def test_cli_writes_every_basis_circuit_from_one_build(tmp_path, m, variant):
    """The four circuits/protocol-*.qasm of a run, derived from its one
    "none" build, are byte-identical to each basis's own build."""
    from teleclone import build_protocol_circuit, cli
    from teleclone.qasm import export_qasm
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": m, "variant": variant.value,
                                    "n_psi": 1, "n_phi": 1}))
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    (run,) = out.iterdir()
    for basis in ("none", "x", "y", "z"):
        c = build_protocol_circuit(m, variant, MessageState(0.0, 0.0), tomo_basis=basis)
        assert (run / "circuits" / f"protocol-{basis}.qasm").read_text() == export_qasm(c)


def test_run_directory_is_named_by_the_config(tmp_path):
    """A run directory is <timestamp>-<config digest>: the digest is the
    same for one config and differs between two, and a taken name gets a
    -2, -3 suffix."""
    from teleclone import cli
    names = []
    for n_psi in (1, 1, 2):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla",
                                        "n_psi": n_psi, "n_phi": 1}))
        out = tmp_path / f"runs{len(names)}"
        assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        (run,) = out.iterdir()
        names.append(run.name)
    assert all(re.fullmatch(r"\d{8}T\d{6}-[0-9a-f]{8}", name) for name in names)
    digests = [name.split("-")[1] for name in names]
    assert digests[0] == digests[1] != digests[2]
    assert [cli._fresh_dir(tmp_path / "taken", "name").name for _ in range(3)] == [
        "name", "name-2", "name-3"]


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_cli_rejects_bad_worker_count(tmp_path, monkeypatch, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla",
                                    "n_psi": 1, "n_phi": 1}))
    monkeypatch.setenv("TELECLONE_WORKERS", value)
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 1
    assert "TELECLONE_WORKERS" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("entry", [
    {"noise": {"readout_flip": "0.1"}},
    {"noise": {"bogus": 0.1}},
    {"noise": [0.1]},
    {"n_psi": "3"},
    {"layout_index": 0, "dd": "yes"},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"seed": 1.5},
    {"durations": {"sx": "35"}},
    {"durations": 5},
    {"durations": {"cx_overrides": {"1-2": "fast"}}},
    {"m": 4},
    {"m": 11, "variant": "with-ancilla-optimized", "layout_index": 0},
    {"m": 5, "variant": "with-ancilla-optimized", "mode": "exact",
     "noise": {"depolarizing_1q": 0.1}},
    {"m": 12, "variant": "with-ancilla-optimized", "n_psi": 2, "n_phi": 2, "mode": "exact"},
], ids=["noise-string", "noise-unknown-key", "noise-list", "n_psi-string",
        "dd-string", "seed-negative", "seed-too-large", "seed-float",
        "durations-string", "durations-number", "cx-override-string",
        "no-ancilla-m4", "layout-m11", "noisy-exact-past-density-cap",
        "m12-past-statevector-cap"])
def test_cli_rejects_bad_config_values(tmp_path, entry):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla", "n_psi": 1,
                                    "n_phi": 1, "shots_per_basis": 10,
                                    "mode": "shots", **entry}))
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 1
    assert "config error" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("doc", [7, ["x"], {"variant": "no-ancilla"}],
                         ids=["number", "list", "no-m"])
def test_cli_rejects_config_that_is_not_a_config_object(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 1
    assert "config error" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "runs").exists()


_H_ON_QUBIT_5 = {"num_qubits": 1, "num_clbits": 0,
                 "instructions": [{"gate": "h", "qubits": 5}]}


def _two_qubit_doc(**instruction):
    return {"num_qubits": 2, "num_clbits": 0, "instructions": [instruction]}


def _cond_doc(clbit, value):
    return {"num_qubits": 2, "num_clbits": 1, "instructions": [
        {"gate": "measure", "qubits": [0], "clbit": 0},
        {"gate": "cond", "qubits": [1], "cond": {"clbit": clbit, "value": value,
                                                 "body": [{"gate": "x", "qubits": [1]}]}}]}


@pytest.mark.parametrize("command,doc", [
    ("export", _H_ON_QUBIT_5),
    ("export", {"num_qubits": 1, "num_clbits": 0, "instructions": 3}),
    ("export", [_H_ON_QUBIT_5]),
    ("analyze", [{"config": {"m": 2, "variant": "no-ancilla"}}]),
    ("export", _two_qubit_doc(gate="h", qubits=["a"])),
    ("export", _two_qubit_doc(gate="x", qubits=[True])),
    ("export", _two_qubit_doc(gate="ry", qubits=[0], angle="x")),
    ("export", {"num_qubits": 1, "num_clbits": 1, "instructions": [
        {"gate": "measure", "qubits": [0], "clbit": "0"}]}),
    ("export", _cond_doc("0", 1)),
    ("export", _cond_doc(0, "x")),
    ("export", {"num_qubits": "1", "num_clbits": 0,
                "instructions": [{"gate": "h", "qubits": [0]}]}),
], ids=["export-qubits-number", "export-instructions-number", "export-list", "analyze-list",
        "export-qubit-string", "export-qubit-bool", "export-angle-string",
        "export-clbit-string", "export-cond-clbit-string", "export-cond-value-string",
        "export-num-qubits-string"])
def test_cli_rejects_malformed_json(tmp_path, command, doc):
    """A JSON file of the wrong structure fails with exit code 1 and a
    message, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = _cli(*(["export", "--circuit"] if command == "export" else ["analyze"]), str(path))
    assert r.returncode == 1
    assert "error" in r.stderr and "Traceback" not in r.stderr


def test_same_second_runs_get_their_own_directories(tmp_path, monkeypatch):
    from teleclone import cli
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla",
                                    "n_psi": 1, "n_phi": 1}))
    monkeypatch.setattr(cli.time, "strftime", lambda *args: "20260101T000000")
    out = tmp_path / "runs"
    for _ in range(2):
        assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    run_dirs = sorted(out.iterdir())
    assert len(run_dirs) == 2
    assert run_dirs[1].name == run_dirs[0].name + "-2"
    for d in run_dirs:
        assert (d / "record.json").is_file()


def _message_gates(c):
    """The gate names on the message qubit alone, in order."""
    mq = c.roles["message"]
    return [i.gate for i in c.instructions if i.qubits == (mq,) and i.gate != "measure"]


def _non_message(c):
    """Every instruction but the gates on the message qubit alone."""
    mq = c.roles["message"]
    return [i for i in c.instructions if i.gate == "measure" or i.qubits != (mq,)]


def _clone_p1(c, m):
    """Each clone's P(1) in a basis circuit: the marginal of the exact
    outcome table that run_shots samples from."""
    from teleclone.simulator import _compaction, _outcome_table
    table = _outcome_table(c, _compaction(c))
    return np.array([sum(p for key, p in table.items() if key[2 + k] == "1")
                     for k in range(m)])


@pytest.mark.parametrize("dd", [False, True], ids=["no-dd", "dd"])
@pytest.mark.parametrize("m,variant", [(2, NOA), (2, OPT), (2, FULL), (3, NOA),
                                       (3, OPT), (3, FULL), (5, OPT)])
def test_response_matches_each_point_circuit(m, variant, dd):
    """The response a sweep compiles from its template message stands for
    every point's own circuit, logical and on all 7 layouts: the circuits
    differ only in the message's gate angles, the contraction gives the
    point circuit's exact clone states, and the shots-mode P(1) of each
    clone and basis is the marginal of that basis circuit's distribution."""
    from teleclone import build_protocol_circuit, exact_clone_states
    from teleclone.experiment import _TEMPLATE, _response_for, _transform_for
    from teleclone.simulator import apply_response
    from teleclone.tomography import BASES, basis_p1
    rng = np.random.default_rng(10 * m + dd)
    msgs = [MessageState(float(rng.uniform(0, math.pi)),
                         float(rng.uniform(0, 2 * math.pi))) for _ in range(2)]
    for layout in ([] if dd else [None]) + list(range(7)):
        cfg = ExperimentConfig(m=m, variant=variant, layout_index=layout,
                               dd=dd, mode="shots")
        transform = _transform_for(cfg)
        response = _response_for(cfg)
        template = transform(build_protocol_circuit(m, variant, _TEMPLATE))
        for msg in msgs:
            circuit = transform(build_protocol_circuit(m, variant, msg))
            assert _non_message(circuit) == _non_message(template)
            assert _message_gates(circuit) == _message_gates(template)
            a = np.array(msg.amplitudes())
            rhos = apply_response(response, np.outer(a, a.conj()))
            for got, want in zip(rhos, exact_clone_states(circuit), strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            p1 = np.array([basis_p1(rho) for rho in rhos])
            for bi, basis in enumerate(BASES):
                c = transform(build_protocol_circuit(m, variant, msg, tomo_basis=basis))
                np.testing.assert_allclose(p1[:, bi], _clone_p1(c, m), rtol=0, atol=1e-12)


def test_message_gates_are_each_point_circuits_own():
    """A point's message gates, from which its noisy message state is
    walked, are its own circuit's gates before its Bell cx, moved to qubit
    0, gate for gate: on a 20x20 grid at M=2 without ancillas on layout 0
    with decoupling, and on 3x3 grids for each variant, logical and on
    layouts 0-6 with and without decoupling, and with a durations table
    that sets cx overrides and a zero sx duration."""
    from teleclone import build_protocol_circuit
    from teleclone.experiment import _message_gates, _transform_for
    from teleclone.simulator import _protocol_parts, _remap
    overrides = DurationTable(sx=0.0, cx_overrides={(0, 1): 250.0, (1, 4): 900.0})
    cases = [(2, NOA, 0, True, None, 20), (3, FULL, 1, True, overrides, 3)]
    for m, variant in [(2, NOA), (3, NOA), (2, OPT), (3, FULL), (5, OPT)]:
        cases += [(m, variant, None, False, None, 3)]
        cases += [(m, variant, layout, dd, None, 3) for layout in range(7) for dd in (False, True)]
    for m, variant, layout, dd, durations, side in cases:
        cfg = ExperimentConfig(m=m, variant=variant, layout_index=layout, dd=dd,
                               durations=durations)
        transform = _transform_for(cfg)
        for msg in angle_grid(side, side):
            c = transform(build_protocol_circuit(m, variant, msg))
            pre = [_remap(ins, {c.roles["message"]: 0}) for ins in _protocol_parts(c)[0]]
            assert _message_gates(cfg, msg) == pre, (m, variant, layout, dd, msg)


@pytest.mark.parametrize("mode", ["exact", "shots"])
def test_no_grid_point_builds_a_circuit(mode, monkeypatch):
    """Within the density cap a noisy sweep builds, transforms and splits
    circuits only for the response its points share: a 1x1 grid and a 4x4
    grid, at layout 0 with decoupling, make the same calls."""
    from collections import Counter

    from teleclone import experiment, hardware, simulator, telecloning, tomography
    calls = Counter()
    for module, name in [(telecloning, "build_protocol_circuit"),
                         (hardware, "transpile_to_native"), (hardware, "insert_dd"),
                         (simulator, "_protocol_parts")]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for owner in (experiment, hardware, simulator, telecloning, tomography):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counted)
    monkeypatch.delenv("TELECLONE_WORKERS", raising=False)
    seen = []
    for side in (1, 4):
        calls.clear()
        rec = run_experiment(ExperimentConfig(m=2, variant=NOA, n_psi=side, n_phi=side,
                                              shots_per_basis=50, layout_index=0, dd=True,
                                              mode=mode, noise=_ALL_CHANNELS))
        assert rec.aggregate["n_failed"] == 0
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert set(seen[0]) == {"build_protocol_circuit", "transpile_to_native", "insert_dd",
                            "_protocol_parts"}


@pytest.mark.parametrize("dd", [False, True], ids=["no-dd", "dd"])
@pytest.mark.parametrize("m,variant", [(2, NOA), (2, OPT), (2, FULL), (3, NOA),
                                       (3, OPT), (3, FULL), (4, OPT)])
def test_noisy_response_matches_each_point_circuit(m, variant, dd, monkeypatch):
    """Under all four noise channels, the responses a noisy sweep compiles
    from its template stand for every point's own circuit, logical and on
    layouts (all 7 at M=2, two at M=3, layout 0 with decoupling at M=4):
    the circuits differ only in the message's own gates before its Bell cx,
    exact mode's contraction gives the point circuit's noisy_clone_states,
    and shots mode's P(1) of each clone and basis is the density oracle's.
    At M=4 the responses are compiled within the density cap, whose 8
    qubits hold the prep without the message; only the whole-circuit oracle
    is given a 9-qubit cap, and one message."""
    from dataclasses import replace

    from teleclone import build_protocol_circuit, noisy_clone_states, simulator
    from teleclone.experiment import _TEMPLATE, _response_for, _transform_for
    from teleclone.simulator import _protocol_parts, _remap, apply_response, message_state
    from teleclone.telecloning import with_tomography
    from teleclone.tomography import BASES
    rng = np.random.default_rng(20 * m + dd)
    msgs = [MessageState(float(rng.uniform(0, math.pi)),
                         float(rng.uniform(0, 2 * math.pi))) for _ in range(1 if m == 4 else 2)]
    f = _ALL_CHANNELS.readout_flip

    def pre(c):
        return _protocol_parts(c)[0]

    def rest(c):
        prefix = set(map(id, pre(c)))
        return [i for i in c.instructions if id(i) not in prefix]

    layouts = list(range(7)) if m == 2 else [0, 5] if m == 3 else [0] if dd else []
    for layout in ([] if dd else [None]) + layouts:
        exact = ExperimentConfig(m=m, variant=variant, layout_index=layout, dd=dd,
                                 noise=_ALL_CHANNELS)
        shots = replace(exact, mode="shots")
        transform = _transform_for(exact)
        response = _response_for(exact)
        per_basis = _response_for(shots)
        if m == 4:
            monkeypatch.setattr(simulator, "_DENSITY_QUBIT_CAP", 9)
        template = build_protocol_circuit(m, variant, _TEMPLATE)
        for msg in msgs:
            none = build_protocol_circuit(m, variant, msg)
            for basis in ("none",) + BASES:
                circuit = transform(with_tomography(none, basis))
                assert rest(circuit) == rest(transform(with_tomography(template, basis)))
                assert pre(circuit) == pre(transform(none))
            mq = transform(none).roles["message"]
            rho = message_state([_remap(i, {mq: 0}) for i in pre(transform(none))],
                                _ALL_CHANNELS, {})
            for got, want in zip(apply_response(response, rho),
                                 noisy_clone_states(transform(none), _ALL_CHANNELS),
                                 strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            p1 = [[(1 - f) * s[1, 1].real + f * s[0, 0].real
                   for s in apply_response(r, rho)] for r in per_basis]
            np.testing.assert_allclose(np.transpose(p1), _density_p1(shots, msg),
                                       rtol=0, atol=1e-12)


def _prep_walks(monkeypatch) -> list:
    """The qubit count of every density walk from a prep's |0><0|, which,
    unlike a tail's, carries no batch of message inputs, recorded as
    compile_response runs it."""
    from teleclone import simulator
    walks, walk = [], simulator._density_walk

    def counted(instructions, n, num_clbits, noise, rho, blocks):
        if rho.ndim == 2:
            walks.append(n)
        return walk(instructions, n, num_clbits, noise, rho, blocks)

    monkeypatch.setattr(simulator, "_density_walk", counted)
    return walks


@pytest.mark.parametrize("m,variant", [(2, NOA), (4, OPT)])
def test_noisy_shots_walk_the_prep_once_for_all_bases(m, variant, monkeypatch):
    """The x, y and z circuits of a noisy shots sweep, at layout 0 with
    decoupling, share one prep, walked once over every qubit but the
    message."""
    from teleclone import build_protocol_circuit
    from teleclone.experiment import _response_for, _transform_for
    from teleclone.simulator import used_qubits
    cfg = ExperimentConfig(m=m, variant=variant, layout_index=0, dd=True, mode="shots",
                           noise=_ALL_CHANNELS)
    transform = _transform_for(cfg)
    prep = len(used_qubits(transform(build_protocol_circuit(m, variant, MessageState(0, 0))))) - 1
    walks = _prep_walks(monkeypatch)
    assert _response_for(cfg).shape == (3, m, 2, 2, 2, 2)
    assert walks == [prep]


def test_a_different_prep_is_walked_on_its_own(monkeypatch):
    """A basis circuit whose prep has an extra gate gets its own prep walk,
    and every circuit's response is the one it compiles alone."""
    from teleclone import Circuit, build_protocol_circuit, ry
    from teleclone.simulator import compile_response
    from teleclone.telecloning import with_tomography
    from teleclone.tomography import BASES
    none = build_protocol_circuit(2, NOA, MessageState(0.0, 0.0))
    x, y, z = [with_tomography(none, basis) for basis in BASES]
    odd = Circuit(y.num_qubits, y.num_clbits, (ry(0.3, y.roles["clones"][0]),) + y.instructions,
                  roles=y.roles)
    walks = _prep_walks(monkeypatch)
    shared = compile_response([x, odd, z], _ALL_CHANNELS)
    assert len(walks) == 2
    alone = np.stack([compile_response([c], _ALL_CHANNELS)[0] for c in (x, odd, z)])
    np.testing.assert_allclose(shared, alone, rtol=0, atol=1e-12)
    assert np.abs(shared[1] - compile_response([y], _ALL_CHANNELS)[0]).max() > 1e-3


def test_noise_sweep_script_runs():
    """scripts/noise_sweep.py prints its header and one row per noise level,
    the noiseless one at the M=2 optimum 5/6."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "noise_sweep.py")
    r = subprocess.run([sys.executable, script, "--grid", "2"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.split()
    assert header == "p,mean_fidelity,mean_bloch_magnitude" and len(rows) == 10
    assert rows[0].split(",")[:2] == ["0.0", "0.833333"]
