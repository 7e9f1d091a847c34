"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  More specific subclasses are raised by the
individual subsystems (task graphs, machines, schedulers, simulator).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TaskGraphError",
    "CycleError",
    "UnknownTaskError",
    "MachineError",
    "TopologyError",
    "SchedulingError",
    "SimulationError",
    "ConfigurationError",
    "ProtocolError",
    "WorkerError",
    "CellTimeoutError",
    "EngineFallbackError",
    "ChaosError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class TaskGraphError(ReproError):
    """Raised for malformed task graphs (bad durations, weights, edges)."""


class CycleError(TaskGraphError):
    """Raised when a task graph that must be acyclic contains a cycle."""


class UnknownTaskError(TaskGraphError, KeyError):
    """Raised when a task identifier is not present in the graph."""


class MachineError(ReproError):
    """Raised for invalid machine / host-configuration descriptions."""


class TopologyError(MachineError):
    """Raised for malformed interconnection topologies."""


class SchedulingError(ReproError):
    """Raised when a scheduling policy produces an invalid assignment."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator reaches an invalid state."""


class ConfigurationError(ReproError):
    """Raised for invalid configuration values (SA parameters, weights, ...)."""


class ProtocolError(ReproError):
    """Raised for malformed scheduling-service requests.

    Covers wire-level violations of the job protocol
    (:mod:`repro.service.protocol`): lines that are not JSON objects,
    unknown operations, missing or ill-typed job fields, and payloads
    exceeding the server's size limits.  Domain errors inside an
    otherwise well-formed job (unknown policy, invalid machine payload)
    keep their own taxonomy (:class:`ConfigurationError`,
    :class:`MachineError`, ...).
    """


class WorkerError(ReproError):
    """A supervised worker failed to produce a valid result for a cell.

    Carries the structured failure record the supervisor accumulated:
    *error_type* (the original exception class name, or a synthetic tag such
    as ``"WorkerDeath"`` / ``"MalformedResult"``), the formatted *traceback*
    when one was captured, and the number of *attempts* consumed.
    """

    def __init__(
        self,
        message: str,
        error_type: str = "WorkerError",
        traceback: str = "",
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.traceback = traceback
        self.attempts = attempts


class CellTimeoutError(WorkerError):
    """A cell exceeded its per-cell wall-clock timeout and its worker was killed."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(
            message, error_type="CellTimeoutError", attempts=attempts
        )


class EngineFallbackError(SimulationError):
    """A run pinned to an engine that cannot execute its scenario.

    Subclasses :class:`SimulationError` so existing callers that catch the
    simulator's errors keep working; raised when ``fast=True`` meets a
    communication model that cannot be folded into tables.
    """

    def __init__(self, message: str, tier: str = "fast", cause: str = "") -> None:
        super().__init__(message)
        self.tier = tier
        self.cause = cause


class ChaosError(ReproError):
    """An injected fault from the chaos harness (:mod:`repro.utils.chaos`)."""
