"""Experiment sweep over a grid of message states with persisted results.

Defaults reproduce the sampling protocol: a 20x20 grid of rotation angles
(400 message states), 10,000 shots per tomography basis. Exact mode skips
sampling entirely and is the acceptance path; shots mode reproduces the
statistical procedure.

The grid runs in chunks, one per worker process (a serial run is one
chunk). Each chunk of noiseless points compiles the message-independent
resource state once and passes it to every point and tomography basis.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .analysis import CloneMetrics, clone_metrics
from .circuit import Circuit
from .exceptions import ConfigError, SimulationError, TelecloneError, TranspileError
from .hardware import (DurationTable, check_capacity, enumerate_layouts, insert_dd,
                       transpile_to_native)
from .simulator import (CompiledResource, NoiseModel, compile_resource,
                        exact_clone_states, noisy_clone_states)
from .telecloning import (MessageState, TelecloningVariant, build_protocol_circuit,
                          check_variant)
from .tomography import tomography_run

MODES = ("exact", "shots")


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    variant: TelecloningVariant
    n_psi: int = 20
    n_phi: int = 20
    shots_per_basis: int = 10_000
    seed: int = 0
    layout_index: int | None = None
    dd: bool = False
    durations: DurationTable | None = None
    noise: NoiseModel | None = None
    mode: str = "exact"

    def __post_init__(self):
        for name in ("m", "n_psi", "n_phi", "shots_per_basis", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (self.layout_index is None or _is_int(self.layout_index)):
            raise ConfigError(f"layout_index must be an integer or null, "
                              f"got {self.layout_index!r}")
        if not isinstance(self.dd, bool):
            raise ConfigError(f"dd must be true or false, got {self.dd!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.m < 2:
            raise ConfigError("m must be >= 2")
        if self.n_psi < 1 or self.n_phi < 1:
            raise ConfigError("grid counts must be >= 1")
        if self.shots_per_basis < 1:
            raise ConfigError("shots_per_basis must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.layout_index is not None and not (0 <= self.layout_index <= 6):
            raise ConfigError("layout_index must be in 0..6")
        if self.dd and self.layout_index is None:
            raise ConfigError("decoupling requires a layout (set layout_index)")
        try:  # a config no point of which can run is refused here
            check_variant(self.m, self.variant)
            if self.layout_index is not None:
                check_capacity(self.m, self.variant)
        except TelecloneError as exc:
            raise ConfigError(str(exc))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "variant": self.variant.value,
            "n_psi": self.n_psi,
            "n_phi": self.n_phi,
            "shots_per_basis": self.shots_per_basis,
            "seed": self.seed,
            "layout_index": self.layout_index,
            "dd": self.dd,
            "durations": None if self.durations is None
            else self.durations.to_json_dict(),
            "noise": None if self.noise is None else {
                "depolarizing_1q": self.noise.depolarizing_1q,
                "depolarizing_2q": self.noise.depolarizing_2q,
                "readout_flip": self.noise.readout_flip,
                "amplitude_damping_idle": self.noise.amplitude_damping_idle,
            },
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            variant = TelecloningVariant(d["variant"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad variant: {exc}")
        noise = d.get("noise")
        durations = d.get("durations")
        known = {"m", "variant", "n_psi", "n_phi", "shots_per_basis", "seed",
                 "layout_index", "dd", "durations", "noise", "mode"}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        kwargs = {k: d[k] for k in known - {"variant", "noise", "durations"}
                  if k in d}
        return cls(variant=variant,
                   noise=None if noise is None else _noise_model(noise),
                   durations=None if durations is None else _durations(durations),
                   **kwargs)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _noise_model(d) -> NoiseModel:
    """The :class:`NoiseModel` of a config's ``noise`` object."""
    names = [f.name for f in fields(NoiseModel)]
    if not isinstance(d, dict):
        raise ConfigError(f"noise must be an object with keys {names}, got {d!r}")
    extra = set(d) - set(names)
    if extra:
        raise ConfigError(f"unknown noise keys: {sorted(extra)}")
    try:
        return NoiseModel(**d)
    except SimulationError as exc:
        raise ConfigError(f"bad noise: {exc}")


def _durations(d) -> DurationTable:
    """The :class:`DurationTable` of a config's ``durations`` object."""
    try:
        return DurationTable.from_json_dict(d)
    except TranspileError as exc:
        raise ConfigError(f"bad durations: {exc}")


def angle_grid(n_psi: int, n_phi: int) -> list[MessageState]:
    """Linearly spaced message angles over [0, pi] x [0, 2pi], endpoints
    included (so phi = 0 and phi = 2pi both appear; they describe the same
    state and are kept for grid regularity)."""
    if n_psi < 1 or n_phi < 1:
        raise ConfigError("grid counts must be >= 1")
    psis = np.linspace(0.0, math.pi, n_psi) if n_psi > 1 else np.array([0.0])
    phis = np.linspace(0.0, 2 * math.pi, n_phi) if n_phi > 1 else np.array([0.0])
    return [MessageState(float(p), float(f)) for p in psis for f in phis]


def _transform_for(config: ExperimentConfig):
    if config.layout_index is None:
        return None
    layout = enumerate_layouts(config.m, config.variant)[config.layout_index]
    durations = config.durations or DurationTable()

    def run(circuit: Circuit) -> Circuit:
        native = transpile_to_native(circuit, layout)
        if config.dd:
            native = insert_dd(native, durations)
        return native

    return run


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _compile_for(config: ExperimentConfig, transform,
                 msg: MessageState) -> CompiledResource | None:
    """The resource that noiseless points share, compiled from the circuit
    of ``msg``. None when the points simulate noise, or when that circuit
    cannot be built or simulated: each point then reports its own error."""
    if config.noise is not None and (config.mode == "exact"
                                     or config.noise.any_noise()):
        return None
    try:
        circuit = build_protocol_circuit(config.m, config.variant, msg,
                                         tomo_basis="none")
        return compile_resource(circuit if transform is None else transform(circuit))
    except TelecloneError:
        return None


def _run_point(config: ExperimentConfig, transform,
               resource: CompiledResource | None,
               index: int, msg: MessageState) -> dict:
    if config.mode == "exact":
        circuit = build_protocol_circuit(config.m, config.variant, msg,
                                         tomo_basis="none")
        if transform is not None:
            circuit = transform(circuit)
        if config.noise is None:
            rhos = exact_clone_states(circuit, resource=resource)
        else:
            rhos = noisy_clone_states(circuit, config.noise)
        tomo = [None] * config.m
    else:
        records = tomography_run(config.m, config.variant, msg,
                                 config.shots_per_basis,
                                 seed=_point_seed(config.seed, index),
                                 noise=config.noise, transform=transform,
                                 resource=resource)
        rhos = [rec.reconstructed for rec in records]
        tomo = [rec.to_json_dict() for rec in records]
    clones = []
    for k, rho in enumerate(rhos):
        met = clone_metrics(rho, msg.bloch())
        clones.append({
            "clone_index": k,
            "fidelity": met.fidelity_to_message,
            "bloch": list(met.bloch),
            "bloch_angle_error": met.bloch_angle_error,
            "bloch_magnitude": met.bloch_magnitude,
            "rho": [[[float(v.real), float(v.imag)] for v in row] for row in rho],
            "tomography": tomo[k],
        })
    return {"clones": clones, "error": None}


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    results: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_json_dict(),
            "results": self.results,
            "aggregate": self.aggregate,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        d = json.loads(text)
        return cls(config=ExperimentConfig.from_json_dict(d["config"]),
                   results=d["results"], aggregate=d["aggregate"])


def _aggregate(config: ExperimentConfig, results: list) -> dict:
    per_clone = [[] for _ in range(config.m)]
    failed = 0
    for point in results:
        if point["error"] is not None:
            failed += 1
            continue
        for clone in point["clones"]:
            per_clone[clone["clone_index"]].append(clone["fidelity"])
    alls = [f for fs in per_clone for f in fs]
    return {
        "per_clone": [{"mean_fidelity": float(np.mean(fs)) if fs else None,
                       "std_fidelity": float(np.std(fs)) if fs else None}
                      for fs in per_clone],
        "overall_mean_fidelity": float(np.mean(alls)) if alls else None,
        "overall_std_fidelity": float(np.std(alls)) if alls else None,
        "n_points": len(results),
        "n_failed": failed,
    }


def _run_chunk(config: ExperimentConfig, points) -> list[dict]:
    """Outcomes of a run of (index, message) grid points, each one's failure
    marker on a TelecloneError; the points share one layout transform and
    one compiled resource."""
    try:
        transform = _transform_for(config)
    except TelecloneError as exc:
        return [{"clones": [], "error": str(exc)} for _ in points]
    resource = _compile_for(config, transform, points[0][1])
    outcomes = []
    for index, msg in points:
        try:
            outcomes.append(_run_point(config, transform, resource, index, msg))
        except TelecloneError as exc:
            outcomes.append({"clones": [], "error": str(exc)})
    return outcomes


def _workers() -> int:
    raw = os.environ.get("TELECLONE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"TELECLONE_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Sweep the message grid, collect per-clone metrics and aggregates.

    Deterministic for a fixed config (per-point seeds derive from the config
    seed and grid index). A failing grid point is recorded with an error
    marker instead of aborting the sweep. ``TELECLONE_WORKERS`` (default 1)
    splits the grid into that many contiguous chunks, one per process, and
    never into more chunks than grid points.
    """
    workers = _workers()
    states = angle_grid(config.n_psi, config.n_phi)
    points = list(enumerate(states))
    size = -(-len(points) // workers)
    chunks = [points[k:k + size] for k in range(0, len(points), size)]
    jobs = (repeat(config), chunks)
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_run_chunk, *jobs))
    else:
        done = list(map(_run_chunk, *jobs))
    outcomes = [outcome for chunk in done for outcome in chunk]
    results = [{"index": i,
                "psi_index": i // config.n_phi,
                "phi_index": i % config.n_phi,
                "psi": msg.psi, "phi": msg.phi,
                "message_bloch": list(msg.bloch()),
                **outcome}
               for i, (msg, outcome) in enumerate(zip(states, outcomes))]
    return ExperimentRecord(config=config, results=results,
                            aggregate=_aggregate(config, results))


def emit_heatmap(record: ExperimentRecord, clone_index: int) -> str:
    """Fidelity grid as CSV, rows = psi index, columns = phi index; no
    interpolation. Failed points render as nan."""
    cfg = record.config
    if not (0 <= clone_index < cfg.m):
        raise ConfigError(f"clone index {clone_index} out of range for m={cfg.m}")
    grid = np.full((cfg.n_psi, cfg.n_phi), math.nan)
    for point in record.results:
        if point["error"] is not None:
            continue
        row, col = point["psi_index"], point["phi_index"]
        grid[row, col] = point["clones"][clone_index]["fidelity"]
    lines = [",".join(repr(float(v)) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def emit_bloch(record: ExperimentRecord) -> str:
    """Per-state message and clone Bloch vectors as a JSON list."""
    out = []
    for point in record.results:
        out.append({
            "psi_index": point["psi_index"],
            "phi_index": point["phi_index"],
            "message": point["message_bloch"],
            "clones": [c["bloch"] for c in point["clones"]],
            "error": point["error"],
        })
    return json.dumps(out, sort_keys=True, separators=(",", ":"))
