"""Run the teleclone CLI with a span around every call into each layer.

Usage: python bench/traced_cli.py TRACE_JSON <teleclone cli arguments>

The package is instrumented from outside: each public function named in
LAYERS is replaced, in every teleclone module that imported it, by a
wrapper that records (name, start, end, parent span). Spans stay in memory
and are written to TRACE_JSON when the CLI returns, together with the counts
that are cheaper to compute once at the end (shots sampled, bytes emitted,
amplitude updates). The CLI's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (span name, module, attribute); "Class.method" patches the class.
LAYERS = [
    ("telecloning.build_protocol_circuit", "teleclone.telecloning", "build_protocol_circuit"),
    ("hardware.transpile_to_native", "teleclone.hardware", "transpile_to_native"),
    ("hardware.insert_dd", "teleclone.hardware", "insert_dd"),
    ("circuit.validate", "teleclone.circuit", "validate"),
    ("simulator.compact", "teleclone.simulator", "compact"),
    ("simulator.exact_clone_states", "teleclone.simulator", "exact_clone_states"),
    ("simulator.noisy_clone_states", "teleclone.simulator", "noisy_clone_states"),
    ("simulator.run_shots", "teleclone.simulator", "run_shots"),
    ("tomography.tomography_run", "teleclone.tomography", "tomography_run"),
    ("tomography.mle_fit", "teleclone.tomography", "mle_fit"),
    ("analysis.clone_metrics", "teleclone.analysis", "clone_metrics"),
    ("experiment.run_experiment", "teleclone.experiment", "run_experiment"),
    ("experiment.emit", "teleclone.experiment", "ExperimentRecord.to_json"),
    ("experiment.emit", "teleclone.experiment", "emit_heatmap"),
    ("experiment.emit", "teleclone.experiment", "emit_bloch"),
]

SIMULATE = ("simulator.exact_clone_states", "simulator.noisy_clone_states",
            "simulator.run_shots")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: list = []  # (span name, bound arguments, result) per call
        self._restore: list = []

    def wrap(self, name: str, fn, keep_args: bool):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if keep_args:
                self.calls.append((name, sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "teleclone" or k.startswith("teleclone.")]
        for name, module_name, attr in LAYERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            keep = name in SIMULATE or name == "experiment.emit"
            wrapper = self.wrap(name, original, keep)
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            # rebind every module-level name that imported the function
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def counts(self) -> dict:
        """Counts derived from the recorded calls; run after uninstall so the
        circuit statistics below add no spans."""
        from teleclone.circuit import stats
        from teleclone.simulator import used_qubits
        shots = emit_bytes = amp_updates = 0
        for name, args, result in self.calls:
            if name == "experiment.emit":
                emit_bytes += len(result.encode())
                continue
            circuit = args["circuit"]
            repeat = 1
            if name == "simulator.run_shots":
                shots += args["shots"]
                noise = args.get("noise")
                if noise is not None and noise.any_noise():
                    repeat = args["shots"]  # one trajectory per shot
            updates = stats(circuit).total_gate_count << len(used_qubits(circuit))
            amp_updates += updates * repeat
        return {"shots": shots, "emit_bytes": emit_bytes, "amp_updates": amp_updates}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE_JSON <teleclone cli arguments>",
              file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    import teleclone.cli
    tracer = Tracer()
    tracer.install()
    root = tracer.wrap("cli.main", teleclone.cli.main, keep_args=False)
    try:
        code = root(cli_args)
    finally:
        tracer.uninstall()
    payload = {"spans": tracer.spans, **tracer.counts()}
    with open(trace_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
