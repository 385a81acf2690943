"""METIS-style multilevel partitioner (paper §3.2, Karypis & Kumar [27]).

The real METIS is a C library; this is a from-scratch Python implementation
of the same multilevel scheme, which the paper recommends for sparse graphs:

1. **Coarsen** — repeated heavy-edge matching collapses matched vertex pairs
   until the graph is small;
2. **Initial partition** — greedy BFS region growing splits the coarsest
   graph into ``p`` balanced parts;
3. **Uncoarsen + refine** — the partition is projected back level by level
   with boundary Kernighan–Lin/Fiduccia–Mattheyses style moves reducing the
   edge cut while keeping balance.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.storage.partition.base import (
    PartitionAssignment,
    Partitioner,
    register_partitioner,
)
from repro.utils.rng import make_rng

COARSEN_TO = 100
REFINE_PASSES = 4
#: Allowed imbalance, max part weight / ideal (METIS defaults to ~1.03;
#: looser here since the graphs are small).
BALANCE_SLACK = 1.1


class _Level:
    """One coarsening level: weighted adjacency + projection map."""

    def __init__(
        self,
        adj: list[dict[int, float]],
        vertex_weights: np.ndarray,
        fine_to_coarse: np.ndarray | None,
    ) -> None:
        self.adj = adj
        self.vertex_weights = vertex_weights
        self.fine_to_coarse = fine_to_coarse  # None at the finest level

    @property
    def n(self) -> int:
        return len(self.adj)


def _graph_to_adj(graph: Graph) -> list[dict[int, float]]:
    """Symmetrized weighted adjacency dicts (self-loops dropped)."""
    adj: list[dict[int, float]] = [dict() for _ in range(graph.n_vertices)]
    src, dst, w = graph.edge_array()
    for u, v, wt in zip(src, dst, w):
        u, v = int(u), int(v)
        if u == v:
            continue
        adj[u][v] = adj[u].get(v, 0.0) + float(wt)
        adj[v][u] = adj[v].get(u, 0.0) + float(wt)
    return adj


def _heavy_edge_matching(
    adj: list[dict[int, float]], rng: np.random.Generator
) -> np.ndarray:
    """Match each unmatched vertex with its heaviest unmatched neighbor."""
    n = len(adj)
    match = -np.ones(n, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        v = int(v)
        if match[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for u, wt in adj[v].items():
            if match[u] < 0 and wt > best_w:
                best, best_w = u, wt
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # matched with itself
    return match


def _coarsen(level: _Level, rng: np.random.Generator) -> _Level:
    """Collapse matched pairs into coarse vertices."""
    match = _heavy_edge_matching(level.adj, rng)
    n = level.n
    fine_to_coarse = -np.ones(n, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] >= 0:
            continue
        fine_to_coarse[v] = next_id
        partner = int(match[v])
        if partner != v:
            fine_to_coarse[partner] = next_id
        next_id += 1
    coarse_adj: list[dict[int, float]] = [dict() for _ in range(next_id)]
    coarse_w = np.zeros(next_id, dtype=np.float64)
    for v in range(n):
        cv = int(fine_to_coarse[v])
        coarse_w[cv] += level.vertex_weights[v]
        for u, wt in level.adj[v].items():
            cu = int(fine_to_coarse[u])
            if cu == cv:
                continue
            coarse_adj[cv][cu] = coarse_adj[cv].get(cu, 0.0) + wt
    return _Level(coarse_adj, coarse_w, fine_to_coarse)


def _initial_partition(
    level: _Level, n_parts: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy BFS region growing into weight-balanced parts."""
    n = level.n
    total_w = level.vertex_weights.sum()
    target = total_w / n_parts
    part = -np.ones(n, dtype=np.int64)
    part_w = np.zeros(n_parts, dtype=np.float64)
    unassigned = set(range(n))
    for p in range(n_parts - 1):
        if not unassigned:
            break
        seed = int(rng.choice(sorted(unassigned)))
        queue = [seed]
        while queue and part_w[p] < target:
            v = queue.pop(0)
            if part[v] >= 0:
                continue
            part[v] = p
            part_w[p] += level.vertex_weights[v]
            unassigned.discard(v)
            for u in level.adj[v]:
                if part[u] < 0:
                    queue.append(u)
        # BFS exhausted its component early: continue from another seed.
        while part_w[p] < target and unassigned:
            v = int(rng.choice(sorted(unassigned)))
            part[v] = p
            part_w[p] += level.vertex_weights[v]
            unassigned.discard(v)
    for v in list(unassigned):
        part[v] = n_parts - 1
    return part


def _refine(
    level: _Level,
    part: np.ndarray,
    n_parts: int,
    max_passes: int,
    balance_slack: float,
) -> np.ndarray:
    """Boundary KL/FM refinement: greedy gain moves preserving balance."""
    part = part.copy()
    weights = level.vertex_weights
    part_w = np.zeros(n_parts, dtype=np.float64)
    for v in range(level.n):
        part_w[part[v]] += weights[v]
    max_w = balance_slack * weights.sum() / n_parts
    for _ in range(max_passes):
        moved = 0
        for v in range(level.n):
            home = int(part[v])
            # Edge weight toward each adjacent part.
            toward: dict[int, float] = {}
            for u, wt in level.adj[v].items():
                toward[int(part[u])] = toward.get(int(part[u]), 0.0) + wt
            internal = toward.get(home, 0.0)
            best_gain, best_part = 0.0, home
            for p, wt in toward.items():
                if p == home:
                    continue
                if part_w[p] + weights[v] > max_w:
                    continue
                gain = wt - internal
                if gain > best_gain:
                    best_gain, best_part = gain, p
            if best_part != home:
                part[v] = best_part
                part_w[home] -= weights[v]
                part_w[best_part] += weights[v]
                moved += 1
        if moved == 0:
            break
    return part


@register_partitioner
class MetisPartitioner(Partitioner):
    """Multilevel partitioner in the METIS family.

    Coarsening stops at ``max(COARSEN_TO, 20 * n_parts)`` vertices; each
    uncoarsening level gets ``REFINE_PASSES`` boundary refinement sweeps
    under ``BALANCE_SLACK``.
    """

    name = "metis"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        self._validate(graph, n_parts)
        rng = make_rng(self.seed)
        if n_parts == 1:
            return PartitionAssignment(
                graph, 1, np.zeros(graph.n_vertices, dtype=np.int64)
            )
        finest = _Level(
            _graph_to_adj(graph),
            np.ones(graph.n_vertices, dtype=np.float64),
            fine_to_coarse=None,
        )
        levels = [finest]
        floor = max(COARSEN_TO, 20 * n_parts)
        while levels[-1].n > floor:
            coarser = _coarsen(levels[-1], rng)
            if coarser.n >= levels[-1].n * 0.95:
                break  # matching stalled (e.g. star graphs) — stop coarsening
            levels.append(coarser)

        part = _initial_partition(levels[-1], n_parts, rng)
        part = _refine(
            levels[-1], part, n_parts, REFINE_PASSES, BALANCE_SLACK
        )
        # Project back through the levels, refining at each.
        for level in reversed(levels[1:]):
            assert level.fine_to_coarse is not None
            finer = levels[levels.index(level) - 1]
            part = part[level.fine_to_coarse]
            part = _refine(finer, part, n_parts, REFINE_PASSES, BALANCE_SLACK)
        return PartitionAssignment(graph, n_parts, part)
