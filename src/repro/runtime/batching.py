"""Request batching for cross-server reads.

The unbatched read path issues one RPC per vertex — exactly what production
graph stores avoid. The batcher turns the remote arm of a read batch —
aligned ``vertices`` / ``owners`` arrays the caller has already deduplicated
to first-seen order — into one request per destination server, splitting
oversized groups at ``max_batch_size``. The cost ledger then charges one
``remote_rpc`` per batch plus per-item shipping instead of one round trip
per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RuntimeConfigError


@dataclass(frozen=True)
class Batch:
    """One planned request: a deduplicated vertex batch for one server."""

    dst_part: int
    kind: str
    vertices: "tuple[int, ...]"

    def __len__(self) -> int:
        return len(self.vertices)


class RequestBatcher:
    """Groups outstanding reads by destination server.

    ``max_batch_size == 0`` means unbounded batches (one request per
    destination); a positive value splits each destination's batch into
    chunks, modelling a bounded RPC payload.
    """

    def __init__(self, max_batch_size: int = 0) -> None:
        if max_batch_size < 0:
            raise RuntimeConfigError(
                f"max_batch_size must be >= 0 (0 = unbounded), got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size

    def plan_grouped(
        self, kind: str, vertices: np.ndarray, owners: np.ndarray
    ) -> "list[Batch]":
        """Plan one batch per destination for already-deduplicated reads.

        ``vertices``/``owners`` are aligned arrays with no repeated vertex
        (the store's read path dedups its batch up front, so re-checking
        per vertex here would be wasted work). Destinations are ordered by
        first appearance, each destination's vertices stay in input order,
        and oversized groups split at ``max_batch_size``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        if vertices.size == 0:
            return []
        batches: "list[Batch]" = []
        for dest in dict.fromkeys(owners.tolist()):  # first-appearance order
            group = tuple(vertices[owners == dest].tolist())
            if self.max_batch_size:
                for i in range(0, len(group), self.max_batch_size):
                    batches.append(
                        Batch(dest, kind, group[i : i + self.max_batch_size])
                    )
            else:
                batches.append(Batch(dest, kind, group))
        return batches
