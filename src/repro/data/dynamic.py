"""Dynamic graph generator: normal evolution + burst links (Evolving GNN).

The Evolving GNN splits edge dynamics into (1) *normal evolution* — the
majority of reasonable changes — and (2) *burst links* — rare, abnormal
edges. We generate a snapshot sequence over a Taobao-like base graph where:

* normal additions follow the existing preferential structure (new edges
  attach to already-popular destinations of the source's community);
* burst events pick a "burst target" and slam it with edges from random
  sources it has no structural affinity to (flash-sale / spam dynamics);
* a small fraction of existing edges is removed per step (churn).

Every event carries its ground-truth ``burst`` label, which is what the
Table 11 multi-class link prediction task trains/evaluates against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graph.dynamic import DynamicGraph, EdgeEvent
from repro.graph.graph import Graph
from repro.utils.rng import make_rng


#: Mean out-degree of the base snapshot G(1).
BASE_MEAN_DEGREE = 6.0


def dynamic_taobao(
    n_vertices: int = 800,
    n_timestamps: int = 6,
    normal_adds_per_step: int = 150,
    burst_events_per_step: int = 1,
    burst_size: int = 40,
    removals_per_step: int = 30,
    seed: int = 0,
) -> DynamicGraph:
    """Generate a labelled dynamic graph G(1..T)."""
    if n_timestamps < 2:
        raise DatasetError("a dynamic graph needs at least 2 snapshots")
    rng = make_rng(seed)

    # Base snapshot: preferential-attachment style directed graph.
    n_base = int(BASE_MEAN_DEGREE * n_vertices)
    popularity = (np.arange(1, n_vertices + 1, dtype=np.float64)) ** -1.0
    rng.shuffle(popularity)
    probs = popularity / popularity.sum()
    src = rng.integers(0, n_vertices, size=n_base)
    dst = rng.choice(n_vertices, size=n_base, p=probs)
    keep = src != dst
    base = Graph(n_vertices, src[keep], dst[keep], directed=True)

    existing: set[tuple[int, int]] = set(
        (int(u), int(v)) for u, v in zip(*base.edge_array()[:2])
    )
    events: list[EdgeEvent] = []
    for t in range(n_timestamps - 1):
        # Normal evolution: preferential destinations, uniform sources.
        added = 0
        while added < normal_adds_per_step:
            u = int(rng.integers(n_vertices))
            v = int(rng.choice(n_vertices, p=probs))
            if u == v or (u, v) in existing:
                continue
            existing.add((u, v))
            events.append(EdgeEvent(timestamp=t, src=u, dst=v, kind="add", burst=False))
            added += 1
        # Burst events: one unpopular target suddenly attracts many edges.
        for _ in range(burst_events_per_step):
            # Pick a target from the *unpopular* half — abnormal by design.
            order = np.argsort(probs)
            target = int(rng.choice(order[: n_vertices // 2]))
            added_burst = 0
            while added_burst < burst_size:
                u = int(rng.integers(n_vertices))
                if u == target or (u, target) in existing:
                    continue
                existing.add((u, target))
                events.append(
                    EdgeEvent(timestamp=t, src=u, dst=target, kind="add", burst=True)
                )
                added_burst += 1
        # Churn: remove a few random existing edges.
        removable = list(existing)
        for idx in rng.choice(len(removable), size=min(removals_per_step, len(removable)), replace=False):
            u, v = removable[int(idx)]
            if (u, v) in existing:
                existing.discard((u, v))
                events.append(EdgeEvent(timestamp=t, src=u, dst=v, kind="remove"))

    return DynamicGraph.from_events(base, events, n_timestamps)
