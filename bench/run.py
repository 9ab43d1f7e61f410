"""Teleclone benchmark: message-state sweeps timed end to end in fresh
processes, plus a traced run that times each layer.

Run from the repository root:

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one line each

Each timed repetition starts a fresh `python -m teleclone.cli run` with
PYTHONPATH=src, TELECLONE_WORKERS unset and its own --out-dir, so every
repetition pays for import, config checks, the sweep and writing the record
files, and starts with an empty resource-prep cache. The workload config
takes its `seed` from --seed. Repetitions continue until --seconds have
passed (at least MIN_REPS); timings are medians over repetitions. Every
record passes a correctness gate (bench/gates.py) outside the timed region.

The host's speed drifts with other tenants' load, so each timed repetition
is preceded by a fixed reference program (REFERENCE_CODE) in a fresh
interpreter, and wall_s and setup_s are reported at a fixed host speed:
REF_S times the median, over repetitions, of the measured time divided by
the time of the reference run next to it. A setup_s probe runs before every
SETUP_EVERY-th repetition, so the probes span the whole window. The raw
medians are printed as a line of their own.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
repetitions with traced ones (bench/traced_cli.py) and reports per-layer
metrics from the traced spans plus the tracing overhead. The last line of
standard output is the result as one JSON object; per-metric lines and the
machine description go before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import gates
from traced_cli import SIMULATE

HERE = Path(__file__).resolve().parent

_NOISE = {"depolarizing_1q": 0.001, "depolarizing_2q": 0.01,
          "readout_flip": 0.02, "amplitude_damping_idle": 0.001}

# Sized so that a repetition takes one to one and a half seconds on a 2-core
# machine and a run of --seconds 30 holds fifteen or more: on a shared host
# single repetitions vary by 20-30%, and their number steadies the median.
WORKLOADS = {
    # The paper's per-point pipeline (build, transpile, DD, compact, branch
    # sums) on a 4x6 grid; the M=5 resource prep is a few percent.
    "exact-grid": {"m": 5, "variant": "with-ancilla-optimized", "n_psi": 4,
                   "n_phi": 6, "layout_index": 0, "dd": True, "mode": "exact"},
    # The cold resource prep on 2^16 amplitudes dominates; gate kernels.
    "exact-large-m": {"m": 8, "variant": "with-ancilla-optimized", "n_psi": 2,
                      "n_phi": 2, "mode": "exact"},
    # Noiseless sampling re-simulates the whole prep for every basis at every
    # point; a compile-once change shows here and not on exact-large-m.
    "shots-large-m": {"m": 7, "variant": "with-ancilla-optimized", "n_psi": 2,
                      "n_phi": 1, "shots_per_basis": 10_000, "mode": "shots"},
    # The only noisy path: the per-shot trajectory loop in Python.
    "noisy-shots": {"m": 2, "variant": "no-ancilla", "n_psi": 3, "n_phi": 1,
                    "shots_per_basis": 30, "layout_index": 0, "dd": True,
                    "mode": "shots", "noise": _NOISE},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = {
    "telecloning.build_protocol_circuit.calls": "count",
    "telecloning.build_protocol_circuit.busy_s": "s",
    "hardware.transpile_to_native.busy_s": "s",
    "hardware.insert_dd.busy_s": "s",
    "circuit.validate.busy_s": "s",
    "simulator.compact.busy_s": "s",
    "simulator.exact_clone_states.first_call_s": "s",
    "simulator.exact_clone_states.p50_s": "s",
    "simulator.exact_clone_states.busy_s": "s",
    "simulator.run_shots.calls": "count",
    "simulator.run_shots.shots": "count",
    "simulator.run_shots.busy_s": "s",
    "simulator.run_shots.shots_per_s": "1/s",
    "tomography.tomography_run.self_s": "s",
    "tomography.mle_fit.calls": "count",
    "tomography.mle_fit.busy_s": "s",
    "analysis.clone_metrics.busy_s": "s",
    "experiment.run_experiment.self_s": "s",
    "experiment.emit.busy_s": "s",
    "experiment.emit.bytes": "B",
    "simulator.amp_updates": "count",
    "simulator.amp_updates_per_s": "1/s",
    "simulator.bytes_moved_computed": "B",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "cli.raw_wall_s": "s",
}

SETUP_EVERY = 2
MIN_REPS = 5
HARD_LIMIT_S = 165.0  # the whole run must end well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = ("import json, sys, teleclone\n"
              "from teleclone.experiment import ExperimentConfig\n"
              "ExperimentConfig.from_json_dict(json.load(open(sys.argv[1])))\n")
# Fixed work that needs nothing from the repository: start an interpreter,
# import numpy, then a dict-heavy Python loop, many small complex tensor
# contractions and one-qubit rotations of a 2^16-amplitude state, the kinds
# of work the sweeps do. Run next to each timed sweep, its wall time
# measures how fast the shared host is at that moment; the host's speed
# drifts by 10-40% over tens of seconds.
REFERENCE_CODE = """\
import numpy as np
d = {}
for i in range(150_000):
    d[i & 1023] = d.get(i & 1023, 0) + i * 3
a = np.ones([2] * 10, complex)
u = np.array([[0, 1], [1, 0]], complex)
for i in range(400):
    a = np.moveaxis(np.tensordot(u, a, axes=([1], [i % 10])), 0, i % 10)
psi = np.full(1 << 16, 2 ** -8, complex)
for i in range(60):
    view = psi.reshape(1 << (i % 16), 2, -1)
    x = view[:, 0, :].copy()
    y = view[:, 1, :]
    view[:, 0, :] = 0.6 * x + 0.8 * y
    view[:, 1, :] = 0.8 * x - 0.6 * y
"""
# The reference program's wall time at the host speed the end-to-end times
# are reported at: about its median on the 2-core Xeon VM the workloads
# were sized on.
REF_S = 0.4


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("TELECLONE_WORKERS", None)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd: list[str], env: dict, timeout: float, log: Path | None = None):
    """Run one process to exit. Returns (wall seconds, peak RSS in MB, exit
    code); the wall time spans spawn to reaping, and a child still running
    after ``timeout`` seconds is killed."""
    with open(log or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(root)}


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers from one traced run's spans and counts. A layer's
    self time is its duration minus the time its direct child spans cover."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    durations, own = defaultdict(list), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        durations[name].append(end - start)
        own[name] += end - start - covered[i]

    def busy(name):
        return float(sum(durations[name]))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    ecs = durations["simulator.exact_clone_states"]
    sim_busy = sum(busy(n) for n in SIMULATE)
    return {
        "telecloning.build_protocol_circuit.calls": len(durations["telecloning.build_protocol_circuit"]),
        "telecloning.build_protocol_circuit.busy_s": busy("telecloning.build_protocol_circuit"),
        "hardware.transpile_to_native.busy_s": busy("hardware.transpile_to_native"),
        "hardware.insert_dd.busy_s": busy("hardware.insert_dd"),
        "circuit.validate.busy_s": busy("circuit.validate"),
        "simulator.compact.busy_s": busy("simulator.compact"),
        "simulator.exact_clone_states.first_call_s": ecs[0] if ecs else 0.0,
        "simulator.exact_clone_states.p50_s": statistics.median(ecs) if ecs else 0.0,
        "simulator.exact_clone_states.busy_s": busy("simulator.exact_clone_states"),
        "simulator.run_shots.calls": len(durations["simulator.run_shots"]),
        "simulator.run_shots.shots": trace["shots"],
        "simulator.run_shots.busy_s": busy("simulator.run_shots"),
        "simulator.run_shots.shots_per_s": rate(trace["shots"], busy("simulator.run_shots")),
        "tomography.tomography_run.self_s": own["tomography.tomography_run"],
        "tomography.mle_fit.calls": len(durations["tomography.mle_fit"]),
        "tomography.mle_fit.busy_s": busy("tomography.mle_fit"),
        "analysis.clone_metrics.busy_s": busy("analysis.clone_metrics"),
        "experiment.run_experiment.self_s": own["experiment.run_experiment"],
        "experiment.emit.busy_s": busy("experiment.emit"),
        "experiment.emit.bytes": trace["emit_bytes"],
        "simulator.amp_updates": trace["amp_updates"],
        "simulator.amp_updates_per_s": rate(trace["amp_updates"], sim_busy),
        # complex128 amplitudes, one read and one write per update
        "simulator.bytes_moved_computed": trace["amp_updates"] * 16 * 2,
    }


class Run:
    """One workload at one seed: its config file, child environment and gate."""

    def __init__(self, config: dict, seed: int, root: Path, work: Path):
        self.config = dict(config, seed=seed)
        self.points = self.config["n_psi"] * self.config["n_phi"]
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True))
        self.env = child_env(root)
        self.gate = gates.gate_for(self.config)
        self.started = time.perf_counter()
        self.reps = 0

    def remaining(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))

    def probe(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code`` (argv[1] is the
        workload config)."""
        cmd = [sys.executable, "-c", code, str(self.config_path)]
        wall, _, status = run_child(cmd, self.env, self.remaining())
        if status != 0:
            raise RuntimeError(f"probe exited with {status}: {code.splitlines()[0]}")
        return wall

    def sweep(self, traced: bool) -> dict:
        """One CLI run in a fresh output directory, checked after it exits."""
        self.reps += 1
        out = self.work / f"rep{self.reps}"
        args = ["run", "--config", str(self.config_path), "--out-dir", str(out)]
        trace_path = self.work / f"rep{self.reps}.trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)] + args
        else:
            cmd = [sys.executable, "-m", "teleclone.cli"] + args
        log = self.work / f"rep{self.reps}.stderr"
        wall, rss, code = run_child(cmd, self.env, self.remaining(), log)
        rep = {"wall": wall, "rss": rss, "failed": self.points,
               "errors": [], "record": None, "trace": None}
        records = sorted(out.glob("*/record.json"))
        if code not in (0, 2) or len(records) != 1:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            rep["errors"] = [f"exit code {code}, {len(records)} record(s): {tail}"]
        else:
            record = json.loads(records[0].read_text())
            agg = record["aggregate"]
            if agg["n_points"] != self.points:
                rep["errors"].append(f"record has {agg['n_points']} points, want {self.points}")
            rep["failed"] = agg["n_failed"] + max(0, self.points - agg["n_points"])
            try:
                rep["errors"] += self.gate(record)
            except Exception as exc:  # a record the gate cannot read fails it
                rep["errors"].append(f"gate could not check the record: {exc!r}")
            rep["record"] = record
            if traced:
                rep["trace"] = json.loads(trace_path.read_text())
        shutil.rmtree(out, ignore_errors=True)
        print(f"rep {self.reps}{' traced' if traced else ''}: wall {wall:.3f} s, "
              f"rss {rss:.1f} MB, exit {code}", file=sys.stderr, flush=True)
        return rep


def measure(config: dict, seed: int, seconds: float, trace: bool,
            root: Path, work: Path) -> dict:
    """Run one workload and return the result object."""
    run = Run(config, seed, root, work)
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_REPS
    reps = {k: [] for k in kinds}
    start = time.perf_counter()
    rounds = 0
    while True:
        setup = run.probe(SETUP_CODE) if not trace and rounds % SETUP_EVERY == 0 else None
        for traced in kinds:
            ref = None if trace else run.probe(REFERENCE_CODE)
            reps[traced].append(dict(run.sweep(traced), ref=ref, setup=setup))
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
        if run.remaining() <= per_round + 5.0:
            break
    every = [r for rs in reps.values() for r in rs]
    attempted = run.points * len(every)
    failed = sum(r["failed"] for r in every)
    errors = [e for r in every for e in r["errors"]]
    for e in errors[:10]:
        print(f"gate: {e}", file=sys.stderr)

    plain = reps[False]
    if not trace:
        probed = [r for r in plain if r["setup"] is not None]
        print("raw medians: " + ", ".join(
            f"{k} {statistics.median(r[k] for r in rs):.6g} s"
            for k, rs in (("wall", plain), ("setup", probed), ("ref", plain))), flush=True)
        values = {
            "wall_s": REF_S * statistics.median(r["wall"] / r["ref"] for r in plain),
            "setup_s": REF_S * statistics.median(r["setup"] / r["ref"] for r in probed),
            "peak_rss_mb": statistics.median(r["rss"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        layers = [layer_metrics(r["trace"]) for r in reps[True] if r["trace"]]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        untraced = statistics.median(r["wall"] for r in plain)
        overhead = statistics.median(r["wall"] for r in reps[True]) - untraced
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / untraced
        values["cli.raw_wall_s"] = untraced
        units = PER_LAYER
    missing = sorted(set(units) - set(values))
    if missing:
        errors.append(f"metrics not measured: {missing}")
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(WORKLOADS[name], seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "teleclone" / "cli.py").is_file():
        print(f"bench: no teleclone sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    print(json.dumps({"environment": environment(root)}), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        for key, metric in result["metrics"].items():
            print(f"{name} {key} {metric['value']:.6g} {metric['unit']}", flush=True)
        print(f"{name} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
