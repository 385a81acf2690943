"""Cluster-wide replica registry: which servers hold which cached vertices.

The paper's caching theorems (§4.3, Theorems 1–2) assume an important
vertex's out-neighbors are replicated "on each partition it occurs" — which
is exactly the replica set a serving layer routes around failures with.
Before this registry existed, the failover path scanned every server's
neighbor cache linearly (O(servers) per read, and every probe inflated the
scanned caches' miss counters). The registry keeps a two-way index —
vertex -> holder parts and part -> held vertices — maintained by the
caches themselves: pinned entries register on install, demand fills
register on admit, invalidations and evictions deregister. Failover and
health-aware routing then resolve a replica with one dict lookup.
"""

from __future__ import annotations

from repro.errors import StorageError


class ReplicaRegistry:
    """Two-way index of cache replicas: vertex -> parts and part -> vertices.

    Registration is idempotent; deregistering an unknown pair is a no-op
    (caches may invalidate entries they never held). ``drop_part`` forgets
    one server's registrations wholesale — used when a server's cache is
    swapped out (policy change) or rebuilt.
    """

    def __init__(self, n_parts: int) -> None:
        if n_parts < 1:
            raise StorageError(f"registry needs at least one part, got {n_parts}")
        self.n_parts = n_parts
        self._holders: "dict[int, set[int]]" = {}
        self._by_part: "dict[int, set[int]]" = {p: set() for p in range(n_parts)}

    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.n_parts:
            raise StorageError(f"unknown part {part} (have {self.n_parts})")

    def register(self, vertex: int, part: int) -> None:
        """Record that ``part`` holds a cached replica of ``vertex``."""
        self._check_part(part)
        vertex = int(vertex)
        self._holders.setdefault(vertex, set()).add(part)
        self._by_part[part].add(vertex)

    def register_many(self, vertices: "list[int]", part: int) -> None:
        """Record that ``part`` holds replicas of all ``vertices`` at once.

        What a cache calls when it is bound with contents already in place
        (a policy's whole selection): one part check and one set update for
        the batch. ``vertices`` must be plain ints.
        """
        self._check_part(part)
        for vertex in vertices:
            self._holders.setdefault(vertex, set()).add(part)
        self._by_part[part].update(vertices)

    def deregister(self, vertex: int, part: int) -> None:
        """Forget ``part``'s replica of ``vertex`` (no-op when absent)."""
        self._check_part(part)
        vertex = int(vertex)
        holders = self._holders.get(vertex)
        if holders is None:
            return
        holders.discard(part)
        self._by_part[part].discard(vertex)
        if not holders:
            del self._holders[vertex]

    def deregister_many(self, vertices: "list[int]", part: int) -> None:
        """Forget ``part``'s replicas of all ``vertices`` (absent ones skipped).

        The bulk twin of :meth:`deregister` — what a cache calls with the
        evictions of one batch admission. ``vertices`` must be plain ints.
        """
        self._check_part(part)
        for vertex in vertices:
            holders = self._holders.get(vertex)
            if holders is not None:
                holders.discard(part)
                if not holders:
                    del self._holders[vertex]
        self._by_part[part].difference_update(vertices)

    def drop_part(self, part: int) -> None:
        """Forget every replica registered by ``part`` (cache swap/rebuild)."""
        self._check_part(part)
        for vertex in self._by_part[part]:
            holders = self._holders.get(vertex)
            if holders is not None:
                holders.discard(part)
                if not holders:
                    del self._holders[vertex]
        self._by_part[part] = set()

    def holders(self, vertex: int) -> "tuple[int, ...]":
        """Parts holding a replica of ``vertex``, sorted (deterministic)."""
        return tuple(sorted(self._holders.get(int(vertex), ())))

    def replica_count(self, vertex: int) -> int:
        """Number of servers holding a replica of ``vertex``."""
        return len(self._holders.get(int(vertex), ()))

    def held_by(self, part: int) -> "tuple[int, ...]":
        """Vertices registered by ``part``, sorted (deterministic)."""
        self._check_part(part)
        return tuple(sorted(self._by_part[part]))

    @property
    def n_tracked(self) -> int:
        """Distinct vertices with at least one replica."""
        return len(self._holders)

    def audit(self, contents_by_part: "dict[int, set[int]]") -> "dict[str, list]":
        """Diff the index against ground-truth cache contents.

        ``contents_by_part`` maps part -> the vertex ids that part's cache
        actually holds. Returns ``{"missing": [...], "stale": [...]}`` of
        ``(vertex, part)`` pairs — replicas the cache holds but the index
        lost, and index entries whose cache copy is gone. Both lists empty
        means the two-way index is exact; tests run this after heavy
        promote/demote/migrate churn to prove removals never leak.
        """
        missing: "list[tuple[int, int]]" = []
        stale: "list[tuple[int, int]]" = []
        for part in sorted(contents_by_part):
            self._check_part(part)
            truth = {int(v) for v in contents_by_part[part]}
            indexed = self._by_part.get(part, set())
            missing.extend((v, part) for v in sorted(truth - indexed))
            stale.extend((v, part) for v in sorted(indexed - truth))
        # The vertex->holders side must mirror part->vertices exactly.
        for vertex in sorted(self._holders):
            for part in sorted(self._holders[vertex]):
                if vertex not in self._by_part.get(part, set()):
                    stale.append((vertex, part))
        return {"missing": missing, "stale": stale}

    def __contains__(self, vertex: int) -> bool:
        return int(vertex) in self._holders

    def __repr__(self) -> str:
        return (
            f"ReplicaRegistry(parts={self.n_parts}, "
            f"tracked={self.n_tracked})"
        )
