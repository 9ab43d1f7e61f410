"""Sweep orchestration, persisted outputs, and the CLI surface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from teleclone import MessageState, TelecloningVariant, theoretical_fidelity
from teleclone.exceptions import ConfigError
from teleclone.experiment import (ExperimentConfig, ExperimentRecord, angle_grid,
                                  emit_bloch, emit_heatmap, run_experiment)

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


def test_config_json_round_trip():
    cfg = ExperimentConfig(m=3, variant=OPT, n_psi=4, n_phi=5, seed=9,
                           layout_index=2, dd=True, mode="exact")
    d = cfg.to_json_dict()
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(d))) == cfg


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


def test_noise_floor_heavy_depolarizing():
    from teleclone import NoiseModel
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact",
                           noise=NoiseModel(depolarizing_1q=0.5,
                                            depolarizing_2q=0.5))
    rec = run_experiment(cfg)
    assert abs(rec.aggregate["overall_mean_fidelity"] - 0.5) < 0.05


def test_shots_mode_heavy_noise_matches_density_oracle():
    """Sampled sweep under strong CX depolarizing lands on the density-matrix
    oracle's mean (within shot noise), close to the 0.5 floor."""
    from teleclone import NoiseModel
    noise = NoiseModel(depolarizing_2q=0.5)
    cfg = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="shots",
                           shots_per_basis=2000, seed=6, noise=noise)
    mean = run_experiment(cfg).aggregate["overall_mean_fidelity"]
    oracle = ExperimentConfig(m=2, variant=NOA, n_psi=2, n_phi=2, mode="exact",
                              noise=noise)
    oracle_mean = run_experiment(oracle).aggregate["overall_mean_fidelity"]
    assert abs(mean - oracle_mean) < 0.03
    assert oracle_mean < 0.62


def test_partial_failure_markers_and_exit_code(tmp_path):
    """Density-mode noise on a circuit above the density cap fails per point;
    the record keeps markers and the CLI signals partial failure."""
    cfg = {"m": 4, "variant": "with-ancilla-optimized", "n_psi": 2, "n_phi": 2,
           "mode": "exact", "noise": {"depolarizing_1q": 0.1}}
    rec = run_experiment(ExperimentConfig.from_json_dict(cfg))
    assert rec.aggregate["n_failed"] == 4
    assert all(p["error"] is not None for p in rec.results)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 2


def test_cli_build_with_layout_and_dd(tmp_path):
    out = tmp_path / "native.json"
    r = _cli("build", "--m", "2", "--variant", "no-ancilla", "--basis", "z",
             "--layout-index", "0", "--dd", "on", "--out", str(out))
    assert r.returncode == 0, r.stderr
    circ = json.loads(out.read_text())
    assert circ["num_qubits"] == 27
    gates = {i["gate"] for i in circ["instructions"]}
    assert gates <= {"rz", "sx", "x", "cx", "barrier", "measure", "cond"}


def _cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "teleclone.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


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
                                shots_per_basis=100, seed=5, layout_index=2, dd=True)]
    serial = [run_experiment(cfg) for cfg in configs]
    assert serial[1].aggregate["n_failed"] == 0
    monkeypatch.setenv("TELECLONE_WORKERS", "2")
    parallel = [run_experiment(cfg).to_json() for cfg in configs]
    assert [rec.to_json() for rec in serial] == parallel


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
], ids=["noise-string", "noise-unknown-key", "noise-list", "n_psi-string",
        "dd-string", "seed-negative", "seed-too-large", "seed-float",
        "durations-string", "durations-number", "cx-override-string",
        "no-ancilla-m4", "layout-m11"])
def test_cli_rejects_bad_config_values(tmp_path, entry):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "variant": "no-ancilla", "n_psi": 1,
                                    "n_phi": 1, "shots_per_basis": 10,
                                    "mode": "shots", **entry}))
    r = _cli("run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs"))
    assert r.returncode == 1
    assert "config error" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "runs").exists()


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
