"""Exception hierarchy for the repro (AliGraph reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem with a graph (bad vertex, malformed edge, ...)."""


class VertexNotFoundError(GraphError):
    """A vertex id was requested that does not exist in the graph."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex!r} not found in graph")
        self.vertex = vertex


class SchemaError(GraphError):
    """Vertex/edge type or attribute schema violated (AHG constraints)."""


class StorageError(ReproError):
    """Problem inside the distributed storage layer."""


class PartitionError(StorageError):
    """A partitioner was misconfigured or produced an invalid assignment."""


class ReadUnavailableError(StorageError):
    """A read could not be served by any healthy server or replica.

    Raised when a vertex's owning worker is down (or unreachable past the
    retry budget) and no healthy cache replica holds the data. Carries the
    vertex and owner so callers can degrade per-vertex instead of per-batch.
    """

    def __init__(self, vertex: int, owner: int, kind: str = "neighbors") -> None:
        super().__init__(
            f"{kind} of vertex {vertex} unavailable: owner worker {owner} "
            "is down and no healthy replica holds it"
        )
        self.vertex = vertex
        self.owner = owner
        self.kind = kind


class ReproRuntimeError(ReproError, RuntimeError):
    """Problem inside the simulated RPC runtime (repro.runtime).

    Also derives from the builtin :class:`RuntimeError` so generic handlers
    written against the standard hierarchy keep working.
    """


class RuntimeConfigError(ReproRuntimeError):
    """A runtime component (fault plan, retry policy, request kind, metric)
    was misconfigured or misused."""


class RetryExhaustedError(ReproRuntimeError):
    """A request kept failing past the retry budget and no failover replica
    could serve it."""

    def __init__(self, detail: str, attempts: int) -> None:
        super().__init__(f"{detail} (after {attempts} attempts)")
        self.attempts = attempts


class SamplingError(ReproError):
    """A sampler was misconfigured or asked for an impossible sample."""


class OperatorError(ReproError):
    """An AGGREGATE/COMBINE operator was misused."""


class TrainingError(ReproError):
    """A model failed during training (diverged, bad shapes, ...)."""


class DatasetError(ReproError):
    """A dataset generator or loader was misconfigured."""


class ServingError(ReproError):
    """The online serving tier was misconfigured or misused."""


class CheckFailedError(ReproError):
    """An experiment's ``check`` rejected the report its ``run`` produced."""
