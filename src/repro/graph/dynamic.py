"""Dynamic graphs: a snapshot sequence G(1), ..., G(T) (paper §2).

A :class:`DynamicGraph` owns a list of per-timestamp snapshots plus the edge
*events* (additions/removals) between consecutive snapshots. The Evolving GNN
model consumes both: the snapshots for per-timestamp embedding and the events
— labelled normal vs burst — for its dynamics predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class EdgeEvent:
    """One edge change between snapshots ``t`` and ``t+1``.

    ``kind`` is ``"add"`` or ``"remove"``; ``burst`` marks the rare/abnormal
    evolving edges the Evolving GNN distinguishes from normal evolution.
    """

    timestamp: int
    src: int
    dst: int
    kind: str = "add"
    burst: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("add", "remove"):
            raise GraphError(f"event kind must be add/remove, got {self.kind!r}")


class DynamicGraph:
    """A sequence of graph snapshots with labelled inter-snapshot events."""

    def __init__(self, snapshots: list[Graph], events: list[EdgeEvent]) -> None:
        if not snapshots:
            raise GraphError("a dynamic graph needs at least one snapshot")
        n = snapshots[0].n_vertices
        if any(g.n_vertices != n for g in snapshots):
            raise GraphError("all snapshots must share the same vertex set")
        if any(not 0 <= ev.timestamp < len(snapshots) - 1 for ev in events):
            raise GraphError("event timestamps must index snapshot transitions")
        self.snapshots = snapshots
        self.events = events

    @property
    def n_timestamps(self) -> int:
        """T — number of snapshots."""
        return len(self.snapshots)

    @property
    def n_vertices(self) -> int:
        """Shared vertex count across snapshots."""
        return self.snapshots[0].n_vertices

    def snapshot(self, t: int) -> Graph:
        """G(t) for ``0 <= t < T``."""
        if not 0 <= t < len(self.snapshots):
            raise GraphError(f"timestamp {t} out of range [0, {len(self.snapshots)})")
        return self.snapshots[t]

    def events_at(self, t: int) -> list[EdgeEvent]:
        """Events on the transition from snapshot ``t`` to ``t+1``."""
        return [ev for ev in self.events if ev.timestamp == t]

    def provider(self) -> "object":
        """A versioned :class:`~repro.sampling.base.SnapshotProvider` at snapshot 0.

        ``provider.advance(t')`` moves it to another snapshot and bumps its
        version, which makes any batched sampler bound to it rebuild its
        CSR snapshot on the next draw.
        """
        from repro.sampling.base import SnapshotProvider

        return SnapshotProvider(self)

    def burst_fraction(self) -> float:
        """Fraction of 'add' events labelled as bursts."""
        adds = [ev for ev in self.events if ev.kind == "add"]
        if not adds:
            return 0.0
        return sum(ev.burst for ev in adds) / len(adds)

    @staticmethod
    def from_events(
        base: Graph, events: list[EdgeEvent], n_timestamps: int
    ) -> "DynamicGraph":
        """Materialize snapshots by replaying ``events`` over ``base``.

        Snapshot 0 is ``base``; snapshot ``t+1`` applies all events with
        ``timestamp == t``. Removals of absent edges are ignored (idempotent
        replay), mirroring how log-structured graph stores apply deltas.
        """
        if n_timestamps < 1:
            raise GraphError("need at least one timestamp")
        src, dst, w = base.edge_array()
        current: dict[tuple[int, int], float] = {
            (int(u), int(v)): float(wt) for u, v, wt in zip(src, dst, w)
        }
        snapshots = [base]
        for t in range(n_timestamps - 1):
            for ev in events:
                if ev.timestamp != t:
                    continue
                key = (ev.src, ev.dst)
                if ev.kind == "add":
                    current[key] = current.get(key, 0.0) or 1.0
                else:
                    current.pop(key, None)
            if current:
                arr = np.array(list(current.keys()), dtype=np.int64)
                weights = np.array(list(current.values()), dtype=np.float64)
                snap = Graph(
                    n_vertices=base.n_vertices,
                    src=arr[:, 0],
                    dst=arr[:, 1],
                    weights=weights,
                    directed=base.directed,
                )
            else:
                empty = np.zeros(0, dtype=np.int64)
                snap = Graph(base.n_vertices, empty, empty, directed=base.directed)
            snapshots.append(snap)
        return DynamicGraph(snapshots, events)
