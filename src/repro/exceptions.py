"""Exception hierarchy for the ``repro`` package.

All exceptions raised by the library derive from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing the failure domain (problem modelling, QUBO
construction, embedding, device simulation, solving).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidProblemError",
    "InvalidSolutionError",
    "QUBOError",
    "TopologyError",
    "EmbeddingError",
    "EmbeddingNotFoundError",
    "DeviceError",
    "DeviceCapacityError",
    "SolverError",
    "TimeBudgetExceededError",
    "ServiceError",
    "UnknownSolverError",
    "DuplicateSolverError",
    "ServerError",
    "ProtocolError",
    "AdmissionError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class InvalidProblemError(ReproError, ValueError):
    """An MQO problem instance violates a structural invariant.

    Examples: a query without plans, a plan referenced by a savings entry
    that does not exist, a negative execution cost, or a savings entry
    between two plans of the same query.
    """


class InvalidSolutionError(ReproError, ValueError):
    """A candidate MQO solution is structurally invalid.

    A valid solution selects exactly one plan per query; anything else
    (missing query, multiple plans for one query, unknown plan) raises
    this error when strict validation is requested.
    """


class QUBOError(ReproError, ValueError):
    """A QUBO model is malformed (bad variable labels, non-finite weights)."""


class TopologyError(ReproError, ValueError):
    """A hardware-topology operation failed (unknown qubit, bad coordinates)."""


class EmbeddingError(ReproError, ValueError):
    """A minor-embedding is invalid for the given source/target graphs."""


class EmbeddingNotFoundError(EmbeddingError):
    """No embedding could be constructed within the available qubits."""


class DeviceError(ReproError, RuntimeError):
    """The (simulated) annealing device rejected a request."""


class DeviceCapacityError(DeviceError):
    """The physical problem does not fit onto the device topology."""


class SolverError(ReproError, RuntimeError):
    """A classical solver failed to produce a result."""


class TimeBudgetExceededError(SolverError):
    """A solver exceeded its configured time budget without any solution."""


class ServiceError(ReproError, RuntimeError):
    """The solver service (registry, portfolio, result cache, jobs) failed."""


class UnknownSolverError(ServiceError, KeyError):
    """A solver name was requested that is not present in the registry."""

    def __str__(self) -> str:  # KeyError quotes its args; keep the message readable
        return RuntimeError.__str__(self)


class DuplicateSolverError(ServiceError):
    """A solver name was registered twice without ``replace=True``."""


class ServerError(ServiceError):
    """The solver server (or its client) failed to process a request."""


class ProtocolError(ServerError, ValueError):
    """A wire frame violates the solver-server protocol.

    Raised for unparsable JSON, frames that are not objects, oversized
    frames, unknown operations and missing/ill-typed required fields.
    """


class AdmissionError(ServerError):
    """The server refused to enqueue a job (admission control).

    The ``code`` attribute distinguishes the reason: ``"queue_full"``
    (global backpressure), ``"client_quota"`` (per-client fairness cap),
    ``"draining"`` (graceful shutdown in progress) or ``"budget"`` (the
    requested time budget exceeds the server's cap).
    """

    def __init__(self, message: str, code: str = "queue_full") -> None:
        super().__init__(message)
        self.code = code
