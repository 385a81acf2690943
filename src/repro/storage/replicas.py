"""Cluster-wide replica view: which servers hold which cached vertices.

The paper's caching theorems (§4.3, Theorems 1–2) assume an important
vertex's out-neighbors are replicated "on each partition it occurs" — which
is exactly the replica set a serving layer routes around failures with.
The caches are the only record of what they hold; this registry is a
read-only view over them, so nothing on the read path (pins, demand fills,
evictions, invalidations) pays to keep a second index in sync. A lookup
costs one membership probe per server and is paid only where a replica is
wanted: on writes, failover and audits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError, check_id


class ReplicaRegistry:
    """Read-only view of the servers' neighbor caches: vertex <-> parts.

    ``servers`` is the cluster's server list (anything with a
    ``neighbor_cache``); a server whose cache is swapped out is seen with
    its new cache on the next lookup.
    """

    def __init__(self, servers: "list") -> None:
        if not servers:
            raise StorageError("registry needs at least one server")
        self._servers = servers

    @property
    def n_parts(self) -> int:
        """Number of servers viewed."""
        return len(self._servers)

    def held_by(self, part: int) -> "tuple[int, ...]":
        """Vertices ``part``'s cache holds, sorted (deterministic)."""
        part = check_id(part, self.n_parts, StorageError, "part")
        return self._servers[part].neighbor_cache.cached_vertices()

    def first_holders(self, ids: np.ndarray, owners: np.ndarray, skip: "set[int]") -> np.ndarray:
        """The first part, in part order, whose cache holds each of ``ids``
        (``-1``: none), never a part in ``skip`` nor the id's own owner
        (``owners``, aligned): a replica stands in for the owner. One
        ``(parts, ids)`` mask; no cache's counters or recency move."""
        held = np.zeros((self.n_parts, ids.size), dtype=bool)
        for part, server in enumerate(self._servers):
            if part not in skip:
                held[part] = server.neighbor_cache.holds(ids)
        column = np.arange(ids.size)
        held[owners, column] = False
        first = held.argmax(axis=0)
        first[~held[first, column]] = -1
        return first

    def audit(self, contents_by_part: "dict[int, set[int]]") -> "dict[str, list]":
        """Diff the view against contents read through the public surface.

        ``contents_by_part`` maps part -> the vertex ids that part's cache
        answers for (``pinned_vertices()`` plus whatever ``peek`` finds).
        Returns ``{"missing": [...], "stale": [...]}`` of ``(vertex, part)``
        pairs — entries the caller sees but the view does not, and entries
        the view reports that the caller cannot read. Both empty means
        membership and reads agree.
        """
        missing: "list[tuple[int, int]]" = []
        stale: "list[tuple[int, int]]" = []
        for part in sorted(contents_by_part):
            truth = {int(v) for v in contents_by_part[part]}
            indexed = set(self.held_by(part))
            missing.extend((v, part) for v in sorted(truth - indexed))
            stale.extend((v, part) for v in sorted(indexed - truth))
        return {"missing": missing, "stale": stale}

    def __repr__(self) -> str:
        return f"ReplicaRegistry(parts={self.n_parts})"
