"""Universal symmetric 1->M telecloning circuits: construction, dynamic
circuit simulation with feed-forward, tomography, and hardware mapping.
Each public name loads its module on first access (PEP 562), so numpy loads
only with the numeric layers (``simulator``, ``tomography``, ``analysis``)."""

import importlib

_HOMES = {
    "circuit": ("Circuit", "CircuitStats", "Instruction", "barrier", "cond", "cx", "h",
                "measure", "ry", "rz", "stats", "sx", "to_json", "from_json", "validate",
                "x", "z"),
    "dicke": ("build_dsu", "build_scs"),
    "telecloning": ("MessageState", "TelecloningVariant", "build_protocol_circuit",
                    "build_telecloning_state"),
    "hardware": ("NoiseModel",),
    "simulator": ("apply_noise_channel", "exact_clone_states", "exact_subsystem_state",
                  "noisy_clone_states", "partial_trace", "run_shots", "statevector"),
    "tomography": ("TomographyRecord", "linear_inversion", "mle_fit", "tomography_run"),
    "analysis": ("CloneMetrics", "bloch_vector", "clone_metrics", "concurrence", "fidelity",
                 "fidelity_general", "negativity", "shrinking_factor",
                 "theoretical_fidelity"),
    "qasm": ("export_qasm",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES or name == "exceptions":  # a submodule: ``teleclone.simulator``
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return [*globals(), *__all__]
