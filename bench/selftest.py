"""Self-test of the benchmark harness on tiny grids.

Run from the repository root:

    python3 bench/selftest.py

It checks that each workload, shrunk to a tiny grid, passes its correctness
gate and emits every metric BENCHMARK.json names, with its unit, with and
without tracing; that each gate trips on a deliberately wrong expected
value; and that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and bench/. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gates
import run

ROOT = Path.cwd()


def tiny(config: dict) -> dict:
    return dict(config, m=min(config["m"], 3), n_psi=3, n_phi=1,
                shots_per_basis=min(config.get("shots_per_basis", 200), 200))


def wrong_gates(config: dict) -> list:
    """The workload's checks, each with its expected value deliberately wrong."""
    m = config["m"]
    fid, eta = gates.optimal_fidelity(m), gates.shrinking(m)
    if config["mode"] == "exact":
        return [lambda record: gates.check_exact(record, m, fid + 1e-3, eta),
                lambda record: gates.check_exact(record, m, fid, eta - 1e-3)]
    if config.get("noise"):
        p1 = gates.noisy_p1(config)
        return [lambda record: gates.check_counts(
            record, m, lambda point, k, b: min(1.0, p1(point, k, b) + 0.3))]
    return [lambda record: gates.check_counts(record, m, gates.analytic_p1(-eta)),
            lambda record: gates.check_mean_fidelity(record, fid + 0.1, eta)]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    check(declared["end_to_end"] == run.END_TO_END and declared["per_layer"] == run.PER_LAYER,
          "BENCHMARK.json metric names and units match the harness")
    try:
        for name, config in run.WORKLOADS.items():
            config = tiny(config)
            work.mkdir(parents=True)
            rep = run.Run(config, 7, ROOT, work).sweep(traced=False)
            check(rep["record"] is not None and not rep["errors"],
                  f"{name}: tiny sweep passes its gate {rep['errors'][:2]}")
            for i, gate in enumerate(wrong_gates(config) if rep["record"] else []):
                check(bool(gate(rep["record"])),
                      f"{name}: check {i} trips on a wrong expected value")
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                result = run.measure(config, 7, 0.0, trace, ROOT, work)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                check(units == declared[kind] and result["correct"]
                      and result["failed"] == 0 and result["attempted"] > 0,
                      f"{name}: --trace {int(trace)} emits every {kind} metric with its unit")
            shutil.rmtree(work)

        bare = work / "bare"
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-grid",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "bare directory: non-zero exit and no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
