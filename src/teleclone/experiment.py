"""Experiment sweep over a grid of message states with persisted results.

Defaults reproduce the sampling protocol: a 20x20 grid of rotation angles
(400 message states), 10,000 shots per tomography basis. Exact mode skips
sampling entirely and is the acceptance path; shots mode reproduces the
statistical procedure.

The grid runs in chunks, one per worker process (a serial run is one
chunk). Every clone state is linear in the message's one-qubit state, so
each chunk compiles one clone response (``simulator.compile_response``)
from the "none" circuit of a template message, and a point contracts it
with its message state: exact mode records the contracted states, and
shots mode draws each clone's counts (``tomography.sample_tomography``)
from their P(1) in each basis, read through one-qubit observables
(``tomography.basis_observables``). No point builds a circuit. Under gate
noise the response holds the prep as a density matrix within the density
cap without the message (M <= 4 with ancillas), and past it as the mean
of ``simulator._TRAJECTORIES`` prep trajectories keyed by the config's
seed; a readout flip alone acts on measures only and leaves the prep pure
at every M. Under noise each point walks its message's own gates
(``_message_gates``) to its noisy state (``simulator.message_state``), and
the observables come from the template's transformed x, y and z circuits.
A record whose response came from trajectories also carries, per clone,
the standard error of its mean fidelity over the trajectories.

Configs and records are built, checked and serialized without numpy or the
circuit layers; the functions that build, simulate and aggregate import
``telecloning``, ``hardware``, the numeric layers and numpy when they run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat

from .config import (_SHOTS_STOP, DEFAULT_QUBIT_CAP, DurationTable, MessageState, NoiseModel,
                     TelecloningVariant, _is_int, check_capacity, check_variant)
from .exceptions import ConfigError, SimulationError, TelecloneError, TranspileError

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
        if self.n_psi < 1 or self.n_phi < 1:
            raise ConfigError("grid counts must be >= 1")
        if not 1 <= self.shots_per_basis < _SHOTS_STOP:
            raise ConfigError(f"shots_per_basis must be in [1, 2^63), got {self.shots_per_basis}")
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
        prep = _prep_qubits(self)
        if prep + 1 > DEFAULT_QUBIT_CAP:
            raise ConfigError(f"the protocol circuit's {prep + 1} qubits exceed the "
                              f"{DEFAULT_QUBIT_CAP}-qubit statevector cap")

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["variant"] = self.variant.value
        if self.durations is not None:
            d["durations"] = self.durations.to_json_dict()
        if self.noise is not None:
            d["noise"] = asdict(self.noise)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be an object, got {d!r}")
        if "m" not in d:
            raise ConfigError("the config lacks 'm', the clone count")
        try:
            variant = TelecloningVariant(d["variant"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad variant: {exc}")
        noise = d.get("noise")
        durations = d.get("durations")
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        kwargs = {k: d[k] for k in known - {"variant", "noise", "durations"} if k in d}
        return cls(variant=variant,
                   noise=None if noise is None else _noise_model(noise),
                   durations=None if durations is None else _durations(durations),
                   **kwargs)


def _prep_qubits(config: ExperimentConfig) -> int:
    """Qubits of the config's protocol circuits but the message: its prep,
    counted from m so that a huge m is refused without building its roles."""
    return config.m + (1 if config.variant is TelecloningVariant.NO_ANCILLA else config.m)


def _noise(config: ExperimentConfig) -> NoiseModel | None:
    """The config's noise model, or None when it has no nonzero channel."""
    return config.noise if config.noise is not None and config.noise.any_noise() else None


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
    import numpy as np  # a grid too large to allocate fails here at once
    psis = np.linspace(0.0, math.pi, n_psi) if n_psi > 1 else np.array([0.0])
    phis = np.linspace(0.0, 2 * math.pi, n_phi) if n_phi > 1 else np.array([0.0])
    return [MessageState(float(p), float(f)) for p in psis for f in phis]


def _transform_for(config: ExperimentConfig):
    if config.layout_index is None:
        return lambda circuit: circuit
    from .hardware import enumerate_layouts, insert_dd, transpile_to_native
    layout = enumerate_layouts(config.m, config.variant)[config.layout_index]

    def run(circuit):
        native = transpile_to_native(circuit, layout)
        if config.dd:
            native = insert_dd(native, config.durations)
        return native

    return run


def _message_gates(config: ExperimentConfig, msg: MessageState) -> list:
    """The message's gates before its Bell cx, on qubit 0: :func:`message_prep`,
    native on a layout. Decoupling adds none: the ALAP schedule and the barrier
    after the prep leave the message no idle window before its Bell cx."""
    from .telecloning import message_prep
    gates = message_prep(msg)
    if config.layout_index is None:
        return gates
    from .hardware import _native_1q
    return [out for ins in gates for out in _native_1q(ins, 0)]


# The message whose circuit compiles a sweep's response: any message gives
# the same response, since only the message's own gates depend on it.
_TEMPLATE = MessageState(0.0, 0.0)


def _response_for(config: ExperimentConfig):
    """What every point of a sweep chunk shares: the clone response of one
    ``simulator._compiled`` call on the config's transformed "none"
    circuit, its trajectories' responses when its prep ran as trajectories
    (keyed by the config's seed), else None, and the clones' observables
    (``tomography.basis_observables``): None in exact mode, the Paulis in
    noiseless shots mode, and under noise those of the template's
    transformed x, y and z circuits."""
    from .simulator import _compiled
    from .telecloning import build_protocol_circuit, with_tomography
    from .tomography import BASES, basis_observables
    noise, transform = _noise(config), _transform_for(config)
    template = build_protocol_circuit(config.m, config.variant, _TEMPLATE)
    circuit = transform(template)
    response, samples = _compiled(circuit, noise, config.seed)
    observables = None if config.mode == "exact" else basis_observables(
        circuit, (transform(with_tomography(template, basis)) for basis in BASES), noise)
    return response, samples, observables


def _run_point(config: ExperimentConfig, shared, blocks: dict, index: int,
               msg: MessageState) -> dict:
    """Point ``index``'s outcome: the response of the :func:`_response_for`
    triple ``shared`` contracted with its message's state (under noise,
    from its :func:`_message_gates` with ``blocks``), and, with
    trajectories, each clone's fidelity under each trajectory's response,
    an (M, trajectories) array: the exact state's in exact mode, and in
    shots mode the linear inversion of the exact P(1)s of its observables."""
    import numpy as np
    from .analysis import clone_metrics
    from .simulator import apply_response, message_state
    from .tomography import _child_seed, basis_p1, sample_tomography
    noise, records, (response, samples, observables) = _noise(config), None, shared
    a = np.array(msg.amplitudes())
    # transpiling changes the message's gates only by a global phase, and
    # decoupling pulses multiply to the identity
    rho = np.outer(a, a.conj()) if noise is None else \
        message_state(_message_gates(config, msg), noise, blocks)
    rhos = apply_response(response, rho)
    if config.mode == "shots":  # exact mode draws no seed: that would import numpy.random
        records = sample_tomography([basis_p1(s, o) for s, o in zip(rhos, observables)],
                                    config.shots_per_basis, _child_seed(config.seed, index))
        rhos = [rec.reconstructed for rec in records]
    clones = []
    for k, state in enumerate(rhos):
        met = clone_metrics(state, msg.bloch())
        clones.append({
            "clone_index": k,
            "fidelity": met.fidelity_to_message,
            "bloch": list(met.bloch),
            "bloch_angle_error": met.bloch_angle_error,
            "bloch_magnitude": met.bloch_magnitude,
            "rho": [[[float(v.real), float(v.imag)] for v in row] for row in state],
            "tomography": None if records is None else records[k].to_json_dict(),
        })
    if samples is None:
        return {"clones": clones, "error": None}
    if config.mode == "exact":
        fid = np.einsum("ij,tkijxy,x,y->kt", rho, samples, a.conj(), a).real
    else:
        bloch = np.einsum("ij,tkijxy,kbyx->tkb", rho, samples, observables).real
        fid = 0.5 * (1 + np.einsum("tkb,b->kt", bloch, msg.bloch()))
    return {"clones": clones, "error": None, "trajectory_fidelity": fid}


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
        if not (isinstance(d, dict) and isinstance(d.get("results"), list)
                and isinstance(d.get("aggregate"), dict)):
            raise ConfigError("a record must be an object with a 'config', a 'results' "
                              "list and an 'aggregate' object")
        _check_record(d["results"], d["aggregate"])
        return cls(config=ExperimentConfig.from_json_dict(d["config"]),
                   results=d["results"], aggregate=d["aggregate"])


def _check_record(results: list, aggregate: dict) -> None:
    """Refuse, naming the field, a record whose ``results`` or ``aggregate``
    lack a field that a summary of it reads, or hold one of the wrong type."""
    def field_of(d, key, path, kinds, none=False):
        if not isinstance(d, dict):
            raise ConfigError(f"record field {path} is not an object")
        value = d.get(key)
        if none and key in d and value is None:
            return None
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise ConfigError(f"record field {path}[{key!r}] is missing or not "
                              f"{' or '.join(k.__name__ for k in kinds)}")
        return value

    for key in ("n_points", "n_failed"):
        field_of(aggregate, key, "aggregate", (int,))
    mean = field_of(aggregate, "overall_mean_fidelity", "aggregate", (int, float), none=True)
    if mean is not None:
        field_of(aggregate, "overall_std_fidelity", "aggregate", (int, float))
        for k, row in enumerate(field_of(aggregate, "per_clone", "aggregate", (list,))):
            field_of(row, "mean_fidelity", f"aggregate['per_clone'][{k}]", (int, float))
    for i, point in enumerate(results):
        for k, clone in enumerate(field_of(point, "clones", f"results[{i}]", (list,))):
            for key in ("bloch_magnitude", "bloch_angle_error"):
                field_of(clone, key, f"results[{i}]['clones'][{k}]", (int, float))


def _aggregate(config: ExperimentConfig, results: list, trajectories: list) -> dict:
    """The record's aggregate of ``results``. With the (M, K) trajectory
    fidelities of each point that ran, in point order, it adds K as
    ``trajectories`` and each clone's ``mean_fidelity_se``: the standard
    error, over the K trajectories, of the clone's mean fidelity over those
    points."""
    import numpy as np  # its pairwise sums are in the records
    per_clone = [[] for _ in range(config.m)]
    failed = 0
    for point in results:
        if point["error"] is not None:
            failed += 1
            continue
        for clone in point["clones"]:
            per_clone[clone["clone_index"]].append(clone["fidelity"])
    alls = [f for fs in per_clone for f in fs]
    aggregate = {
        "per_clone": [{"mean_fidelity": float(np.mean(fs)) if fs else None,
                       "std_fidelity": float(np.std(fs)) if fs else None}
                      for fs in per_clone],
        "overall_mean_fidelity": float(np.mean(alls)) if alls else None,
        "overall_std_fidelity": float(np.std(alls)) if alls else None,
        "n_points": len(results),
        "n_failed": failed,
    }
    if trajectories:
        means = np.mean(trajectories, axis=0)  # each trajectory's mean over the points
        aggregate["trajectories"] = means.shape[1]
        for row, per_run in zip(aggregate["per_clone"], means):
            row["mean_fidelity_se"] = float(np.std(per_run, ddof=1) / math.sqrt(per_run.size))
    return aggregate


def _failure(exc: Exception) -> dict:
    """The outcome of a point that raised ``exc``: a TelecloneError's
    message, or any other exception's type and message, with its traceback
    on stderr, since that is a fault of the program, not of the input."""
    if isinstance(exc, TelecloneError):
        return {"clones": [], "error": str(exc)}
    import traceback
    traceback.print_exception(exc)
    return {"clones": [], "error": f"{type(exc).__name__}: {exc}"}


def _run_chunk(config: ExperimentConfig, points) -> list[dict]:
    """Outcomes of a run of (index, message) grid points, each one's failure
    marker on an exception; the points share one :func:`_response_for`, and
    their message walks one dict of blocks. When the response cannot be
    made, every point carries its error."""
    try:
        response = _response_for(config)
    except Exception as exc:
        error = _failure(exc)["error"]
        return [{"clones": [], "error": error} for _ in points]
    outcomes, blocks = [], {}
    for index, msg in points:
        try:
            outcomes.append(_run_point(config, response, blocks, index, msg))
        except Exception as exc:
            outcomes.append(_failure(exc))
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
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_run_chunk, *jobs))
    else:
        done = list(map(_run_chunk, *jobs))
    outcomes = [outcome for chunk in done for outcome in chunk]
    trajectories = [o.pop("trajectory_fidelity") for o in outcomes if "trajectory_fidelity" in o]
    results = [{"index": i,
                "psi_index": i // config.n_phi,
                "phi_index": i % config.n_phi,
                "psi": msg.psi, "phi": msg.phi,
                "message_bloch": list(msg.bloch()),
                **outcome}
               for i, (msg, outcome) in enumerate(zip(states, outcomes))]
    return ExperimentRecord(config=config, results=results,
                            aggregate=_aggregate(config, results, trajectories))


def emit_heatmap(record: ExperimentRecord, clone_index: int) -> str:
    """Fidelity grid as CSV, rows = psi index, columns = phi index; no
    interpolation. Failed points render as nan."""
    cfg = record.config
    if not (0 <= clone_index < cfg.m):
        raise ConfigError(f"clone index {clone_index} out of range for m={cfg.m}")
    grid = [[math.nan] * cfg.n_phi for _ in range(cfg.n_psi)]
    for point in record.results:
        if point["error"] is not None:
            continue
        row, col = point["psi_index"], point["phi_index"]
        grid[row][col] = point["clones"][clone_index]["fidelity"]
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
