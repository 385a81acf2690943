"""2-D graph partition (paper §3.2, Boman et al. [3]).

The 2-D scheme views the adjacency matrix as a ``pr × pc`` grid of blocks:
vertices are range-partitioned into ``pr`` row blocks and ``pc`` column
blocks, and edge ``(u, v)`` is stored on worker ``(rowblock(u),
colblock(v))``. The paper notes it is "often used when the number of workers
is fixed" — the grid shape is chosen once from ``p`` and vertex placement is
then purely arithmetic, which is what we implement (with the squarest
factorization of ``p`` picked automatically).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.storage.partition.base import (
    PartitionAssignment,
    Partitioner,
    register_partitioner,
)


def squarest_grid(p: int) -> tuple[int, int]:
    """Factor ``p`` as ``pr * pc`` with the factors as close as possible."""
    if p < 1:
        raise PartitionError(f"worker count must be positive, got {p}")
    for pr in range(int(np.sqrt(p)), 0, -1):
        if p % pr == 0:
            return pr, p // pr
    return 1, p


@register_partitioner
class TwoDimPartitioner(Partitioner):
    """Grid (2-D block) partitioner.

    ``vertex_to_part`` places vertex ``v`` on the diagonal-ish worker of its
    row block (its primary replica); ``edge_to_part`` holds the true 2-D
    placement ``(rowblock(src), colblock(dst))``.
    """

    name = "2d"

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        self._validate(graph, n_parts)
        pr, pc = squarest_grid(n_parts)
        n = graph.n_vertices
        row_block = np.minimum(
            (np.arange(n, dtype=np.int64) * pr) // max(n, 1), pr - 1
        )
        col_block = np.minimum(
            (np.arange(n, dtype=np.int64) * pc) // max(n, 1), pc - 1
        )
        src, dst, _ = graph.edge_array()
        edge_to_part = row_block[src] * pc + col_block[dst]
        # Primary replica: keep each vertex inside its row block (so its
        # out-edges are row-local) but spread across the block's pc workers
        # for balance.
        vertex_to_part = row_block * pc + (np.arange(n, dtype=np.int64) % pc)
        return PartitionAssignment(graph, n_parts, vertex_to_part, edge_to_part)
