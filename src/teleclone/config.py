"""What a config is made of and checked with: variants, message states,
durations, noise, the simulators' qubit caps and the M checks. It needs the
standard library only, so a config is checked without the circuit layers
or numpy; ``circuit``, ``telecloning``, ``hardware`` and ``simulator``
import these names from here."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields

from .exceptions import CapacityError, CircuitError, SimulationError, TranspileError

DEFAULT_QUBIT_CAP = 24
_DENSITY_QUBIT_CAP = 8  # qubits of a walked density matrix: a noisy prep or an oracle
_SHOTS_STOP = 1 << 63  # numpy's binomial and multinomial draws take shot counts below this


def _is_int(value) -> bool:
    """An integer that is not a bool (type() first: isinstance on the ABC is slow)."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


class TelecloningVariant(enum.Enum):
    WITH_ANCILLA_OPTIMIZED = "with-ancilla-optimized"
    WITH_ANCILLA_FULL = "with-ancilla-full"
    NO_ANCILLA = "no-ancilla"


@dataclass(frozen=True)
class MessageState:
    """Pure message qubit cos(psi/2)|0> + e^{i phi} sin(psi/2)|1>."""

    psi: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.psi) and math.isfinite(self.phi)):
            raise CircuitError("message angles must be finite")

    def amplitudes(self):
        return (math.cos(self.psi / 2),
                complex(math.cos(self.phi), math.sin(self.phi)) * math.sin(self.psi / 2))

    def bloch(self):
        a, b = self.amplitudes()
        return (2 * (a * b.conjugate()).real,
                2 * (a * b.conjugate()).imag * -1.0,
                abs(a) ** 2 - abs(b) ** 2)


def check_variant(m: int, variant: TelecloningVariant):
    """Raise :class:`CircuitError` unless a circuit for M clones of
    ``variant`` is known."""
    if m < 2:
        raise CircuitError(f"clone count must be >= 2, got {m}")
    if variant is TelecloningVariant.NO_ANCILLA and m not in (2, 3):
        raise CircuitError(
            f"no telecloning circuit without ancillas is known for M={m}")


def check_capacity(m: int, variant: TelecloningVariant) -> None:
    """Raise :class:`CapacityError` unless the layouts hold M clones of
    ``variant``. Reads no device file."""
    if variant is TelecloningVariant.NO_ANCILLA:
        if m not in (2, 3):
            raise CapacityError(f"no-ancilla layouts exist only for M=2,3, got {m}")
    elif not (2 <= m <= 10):
        raise CapacityError(
            f"M={m} exceeds the M=10 capacity of the 27-qubit lattice")


def _check_duration(name: str, value) -> None:
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or value < 0):
        raise TranspileError(f"{name} duration must be a finite number >= 0, "
                             f"got {value!r}")


def _cx_pair(pair, seen) -> tuple[int, int]:
    """A cx_overrides key as the (min, max) pair that :meth:`DurationTable.gate`
    looks up: a cx keys its two qubits in either order. Refused when it is not
    two distinct qubits or when ``seen`` already holds its pair."""
    if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_int, pair))
            and pair[0] != pair[1]):
        raise TranspileError(f"cx_overrides key {pair!r} is not a pair of two qubits")
    key = (min(pair), max(pair))
    if key in seen:
        raise TranspileError(f"two cx_overrides keys name the qubit pair {key}")
    return key


@dataclass(frozen=True)
class DurationTable:
    """Gate durations in nanoseconds. rz is virtual and must stay at 0."""

    rz: float = 0.0
    sx: float = 35.0
    x: float = 35.0
    cx: float = 300.0
    measure: float = 700.0
    feedforward_latency: float = 500.0
    cx_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rz != 0.0:
            raise TranspileError("rz is virtual; its duration must be 0")
        for name in ("sx", "x", "cx", "measure", "feedforward_latency"):
            _check_duration(name, getattr(self, name))
        pairs = {}
        for pair, value in self.cx_overrides.items():
            _check_duration(f"cx_overrides {pair}", value)
            pairs[_cx_pair(pair, pairs)] = value
        object.__setattr__(self, "cx_overrides", pairs)

    def gate(self, ins) -> float:  # ins: a circuit.Instruction
        if ins.gate == "cx":
            key = (min(ins.qubits), max(ins.qubits))
            return float(self.cx_overrides.get(key, self.cx))
        try:
            return float(getattr(self, ins.gate))
        except AttributeError:
            raise TranspileError(f"missing duration entry for '{ins.gate}'")

    def to_json_dict(self) -> dict:
        return {"rz": self.rz, "sx": self.sx, "x": self.x, "cx": self.cx,
                "measure": self.measure,
                "feedforward_latency": self.feedforward_latency,
                "cx_overrides": {f"{a}-{b}": v for (a, b), v in
                                 self.cx_overrides.items()}}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DurationTable":
        if not isinstance(d, dict):
            raise TranspileError(f"durations must be an object, got {d!r}")
        raw = d.get("cx_overrides", {})
        if not isinstance(raw, dict):
            raise TranspileError(f"cx_overrides must be an object, got {raw!r}")
        overrides = {}
        for key, v in raw.items():
            pair = key.split("-")
            if len(pair) != 2 or not all(p.isdecimal() for p in pair):
                raise TranspileError(f"cx_overrides key {key!r} is not 'a-b'")
            _check_duration(f"cx_overrides {key}", v)
            overrides[_cx_pair((int(pair[0]), int(pair[1])), overrides)] = float(v)
        kwargs = {k: d[k] for k in
                  ("rz", "sx", "x", "cx", "measure", "feedforward_latency")
                  if k in d}
        return cls(cx_overrides=overrides, **kwargs)


@dataclass(frozen=True)
class NoiseModel:
    """Static gate-level noise. Probabilities are per instruction; rz is
    treated as virtual (error-free) and barriers carry no noise. Every other
    gate is followed by depolarizing (``depolarizing_2q`` jointly after a
    cx, ``depolarizing_1q`` otherwise) and then by amplitude damping with
    gamma ``amplitude_damping_idle`` on each of its qubits: despite its name,
    damping acts after gates, not in idle windows. ``readout_flip`` flips
    each recorded measurement outcome."""

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0
    readout_flip: float = 0.0
    amplitude_damping_idle: float | None = None

    def __post_init__(self):
        for f in fields(self):
            p = getattr(self, f.name)
            if p is None and f.default is None:  # a channel that may be left unset
                continue
            if not isinstance(p, numbers.Real) or isinstance(p, bool):
                raise SimulationError(f"{f.name}={p!r} is not a number")
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"{f.name}={p} outside [0, 1]")

    def any_gate_noise(self) -> bool:
        """Whether a channel follows some gate: without one, a state before
        the first measurement stays pure."""
        return (self.depolarizing_1q > 0 or self.depolarizing_2q > 0
                or bool(self.amplitude_damping_idle))

    def any_noise(self) -> bool:
        return self.any_gate_noise() or self.readout_flip > 0
