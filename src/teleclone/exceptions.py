"""Exception types shared across the package."""


class TelecloneError(Exception):
    """Base class for all package errors."""


class CircuitError(TelecloneError):
    """A circuit violates an IR invariant or references bad indices."""


class SimulationError(TelecloneError):
    """Simulation cannot proceed (memory cap, malformed protocol, bad noise)."""


class TranspileError(TelecloneError):
    """A two-qubit interaction cannot be routed on the requested layout."""


class CapacityError(TelecloneError):
    """Requested clone count does not fit the device model."""


class ConfigError(TelecloneError):
    """Invalid experiment configuration."""
