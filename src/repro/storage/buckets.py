"""Lock-free request-flow buckets (paper §3.3, Figure 6).

On each graph server, vertices are split into groups; each group gets a
request-flow bucket — a lock-free FIFO queue bound to one CPU core — and all
reads/updates of a vertex are funnelled through its group's bucket, processed
sequentially without locking.

We simulate the scheduling consequence of that design rather than actual
threads: given a request trace, the lock-free makespan is the busiest
bucket's total service time (buckets drain in parallel, no synchronization),
while the lock-based alternative serializes conflicting requests on shared
structures and pays a lock acquisition overhead per request. The ablation
benchmark compares the two makespans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError

#: What the lock-based alternative pays per request to take its lock (µs).
LOCK_OVERHEAD_US = 0.8


@dataclass(frozen=True)
class Request:
    """One storage operation: a read or a (sampler weight) update."""

    vertex: int
    kind: str = "read"  # "read" or "update"
    service_us: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("read", "update"):
            raise StorageError(f"request kind must be read/update: {self.kind!r}")
        if self.service_us <= 0:
            raise StorageError("service time must be positive")


class RequestFlowBuckets:
    """Vertex-group buckets bound to cores, as in Figure 6."""

    def __init__(self, n_vertices: int, n_buckets: int) -> None:
        if n_buckets < 1:
            raise StorageError(f"need at least one bucket, got {n_buckets}")
        if n_vertices < 1:
            raise StorageError("need at least one vertex")
        self.n_vertices = n_vertices
        self.n_buckets = n_buckets

    def bucket_of(self, vertex: int) -> int:
        """The bucket (== core) responsible for ``vertex``'s group."""
        if not 0 <= vertex < self.n_vertices:
            raise StorageError(f"unknown vertex {vertex}")
        return vertex % self.n_buckets

    def route(self, requests: "list[Request]") -> list[list[Request]]:
        """Distribute a request trace into per-bucket FIFO queues."""
        queues: list[list[Request]] = [[] for _ in range(self.n_buckets)]
        for req in requests:
            queues[self.bucket_of(req.vertex)].append(req)
        return queues

    def lock_free_makespan_us(self, requests: "list[Request]") -> float:
        """Makespan with one core per bucket and no locks.

        Each bucket drains sequentially; buckets drain concurrently; the
        makespan is the busiest bucket.
        """
        queues = self.route(requests)
        if not requests:
            return 0.0
        return max(sum(r.service_us for r in q) for q in queues)

    def locked_makespan_us(self, requests: "list[Request]") -> float:
        """Makespan of the lock-based alternative on the same trace.

        As many cores as buckets share one locked structure: every request
        pays :data:`LOCK_OVERHEAD_US`, and updates serialize globally (a
        readers-writer lock) while reads split across the cores.
        """
        if not requests:
            return 0.0
        read_us = sum(
            r.service_us + LOCK_OVERHEAD_US for r in requests if r.kind == "read"
        )
        update_us = sum(
            r.service_us + LOCK_OVERHEAD_US for r in requests if r.kind == "update"
        )
        # Updates hold the write lock exclusively; reads parallelize.
        return update_us + read_us / self.n_buckets

def synthetic_trace(
    n_vertices: int,
    n_requests: int,
    update_fraction: float,
    rng: np.random.Generator,
) -> list[Request]:
    """A uniform random request trace for the buckets ablation (a read
    costs 1 µs of service, an update 2 µs)."""
    if not 0.0 <= update_fraction <= 1.0:
        raise StorageError("update_fraction must be within [0, 1]")
    vertices = rng.integers(0, n_vertices, size=n_requests)
    is_update = rng.random(n_requests) < update_fraction
    return [
        Request(
            vertex=int(v),
            kind="update" if u else "read",
            service_us=2.0 if u else 1.0,
        )
        for v, u in zip(vertices, is_update)
    ]
