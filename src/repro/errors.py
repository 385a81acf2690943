"""Exception hierarchy for the repro (AliGraph reproduction) library, and
the one id check.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single handler.

Every layer that takes vertex, row or worker ids checks them with
:func:`check_ids` (a batch) or :func:`check_id` (one id) and nothing else:
an id is an integer (``bool`` excluded, since ``True`` would alias id 1, and
a float would truncate into a row) in ``[0, n)``. The caller names the
:class:`ReproError` subclass to raise, and checks before any rng draw,
ledger event or state change.
"""

from __future__ import annotations

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem with a graph (bad vertex, malformed edge, ...)."""


class VertexNotFoundError(GraphError):
    """A vertex id was requested that does not exist in the graph."""


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


_BOOLS = frozenset((bool, np.bool_))

#: Up to this many ids are bounded as Python ints, more by one reduction.
_FEW_IDS = 16


def check_ids(
    ids: "np.ndarray | list",
    n: "int | None",
    error: "type[ReproError]",
    what: str,
    ndim: "int | None" = 1,
) -> np.ndarray:
    """``ids`` as int64 ids in ``[0, n)`` (``n=None``: any non-negative id).

    Raises ``error`` unless ``ids`` has ``ndim`` dimensions (``None``: any)
    and an integer dtype, with no ``bool`` among a list's elements (a nested
    list's included); an empty batch of any dtype passes. ``what`` names
    the ids in the message.
    """
    listed = ids if isinstance(ids, (list, tuple)) else ()
    ids = np.asarray(ids)
    if listed and ids.ndim > 1:  # scan a nested list's elements
        for _ in range(ids.ndim - 1):
            listed = [x for row in listed for x in row]
    if (
        (ndim is not None and ids.ndim != ndim)
        or (ids.size and ids.dtype.kind not in "iu")
        or not _BOOLS.isdisjoint(map(type, listed))  # a bool among ints reads as 0 / 1
    ):
        rank = "an array" if ndim is None else f"a {ndim}-D array"
        raise error(f"{what} must be {rank} of integers, got shape {ids.shape} of {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids.size > _FEW_IDS:
        # Viewed unsigned, a negative id is larger than any bound: one reduction.
        outside = ids.view(np.uint64).max() >= (1 << 63 if n is None else n)
    else:  # a reduction's fixed cost exceeds bounding a few Python ints
        few = ids.reshape(-1).tolist()
        outside = bool(few) and (min(few) < 0 or (n is not None and max(few) >= n))
    if outside:
        raise error(
            f"{what} span [{ids.min()}, {ids.max()}], outside [0, {'inf' if n is None else n})"
        )
    return ids


def check_id(
    value: int, n: "int | None", error: "type[ReproError]", what: str
) -> int:
    """``value`` as an ``int`` id in ``[0, n)``: :func:`check_ids` for one id."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < 0
        or (n is not None and value >= n)
    ):
        raise error(
            f"unknown {what} {value!r}: not an integer in [0, {'inf' if n is None else n})"
        )
    return int(value)
