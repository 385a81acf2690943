"""K-hop computation blocks: the encoder's input.

A :class:`KHopBlock` is the sub-graph one forward pass touches. Its seed
set is the vertices whose embeddings are wanted; each hop below it adds the
neighbors SAMPLE drew for the level above (one vectorized
``sample_children`` call over the level, so one neighbor set per unique
vertex per level), and every level is stored as sorted unique global ids
plus index tables that address the level beneath it. The encoder runs over
exactly those rows: a step costs what its batch reaches, not what the graph
holds. The all-vertex block (every level ``arange(n)``) is the same object
seeded with every vertex.

A level is built by direct addressing (:func:`compact_level`): the level
above and its drawn children are marked in a boolean table indexed by vertex
id, ``flatnonzero`` reads the level off it — sorted and unique by
construction — ``arange`` is written into a position table at those ids, and
``self_index`` / ``child_index`` are lookups in it. Nothing is sorted or
searched; the tables span the largest id in hand, live for one call and are
kept nowhere. Ids are checked against ``[0, n_vertices)`` before a table is
touched, because a negative id would mark the wrong slot.

Exactness contract: the encoder's per-hop ops (gather, fixed-fanout segment
reduce, dense matmul, normalize) are all *row-wise*, so running them over
the block's row subset produces bit-identical values to the all-vertex
forward restricted to the same vertices — **provided both use the same
per-vertex neighbor draws**. :func:`build_block_from_tables` pins the draws
to pre-sampled ``(n, fanout)`` hop tables for exactly that comparison;
:func:`build_block` draws frontiers live from a sampler for training.

Level convention: ``layers[0]`` is the *input* level (vertices whose raw
features are gathered) and ``layers[kmax]`` the seed set; hop ``k`` of the
encoder consumes ``layers[k]`` states and produces ``layers[k+1]`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import check_vertex_ids


@dataclass
class KHopBlock:
    """Compact k-hop computation block over block-local ids.

    ``layers[k]`` holds the sorted unique *global* vertex ids alive at
    level ``k`` (``layers[-1]`` is the seed set; every level is a superset
    of the one above, since COMBINE needs each vertex's own previous-hop
    state). ``self_index[k]`` locates ``layers[k+1]``'s vertices inside
    ``layers[k]``; ``child_index[k]`` is the ``(len(layers[k+1]),
    fanout_k)`` table of sampled-neighbor positions inside ``layers[k]``
    — the block-local relabeling of the hop-k SAMPLE output.
    """

    layers: "list[np.ndarray]"
    self_index: "list[np.ndarray]"
    child_index: "list[np.ndarray]"
    hop_nums: "list[int]"

    @property
    def n_hops(self) -> int:
        """Number of aggregation hops (kmax)."""
        return len(self.hop_nums)

    @property
    def seeds(self) -> np.ndarray:
        """The sorted unique seed vertex ids (the output rows)."""
        return self.layers[-1]

    @property
    def n_input_rows(self) -> int:
        """Feature rows the block forward gathers (the FLOP proxy)."""
        return int(self.layers[0].size)

    def total_rows(self) -> int:
        """Vertex rows across all levels (block size / memory proxy)."""
        return int(sum(layer.size for layer in self.layers))

    def seed_positions(self, vertices: np.ndarray) -> np.ndarray:
        """Block-local output rows of ``vertices`` (must all be seeds)."""
        vertices = np.asarray(vertices)
        if vertices.size and vertices.dtype.kind not in "iu":
            raise SamplingError(
                "vertices outside the block's seed set: ids must be integers, "
                f"got {vertices.dtype}"
            )
        vertices = vertices.astype(np.int64, copy=False)
        seeds = self.seeds
        position = np.full(seeds[-1] + 1, -1, dtype=np.int64)
        position[seeds] = np.arange(seeds.size)
        pos = position[np.clip(vertices, 0, seeds[-1])]
        # A miss reads -1 (the largest seed) and a clipped id reads an end
        # of the range: neither is the vertex that was asked for.
        if (seeds[pos] != vertices).any():
            raise SamplingError("vertices outside the block's seed set")
        return pos


def compact_level(
    n_vertices: int, *id_arrays: np.ndarray
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """Dedupe ``id_arrays`` into one level and relabel each array into it.

    Returns the sorted unique union of the (non-empty, ``int64``) arrays
    and, per array, the positions of its ids inside that union, same shape.
    The one place a level is deduplicated and relabeled: every hop and the
    seed set of a :class:`KHopBlock`, and each hop of the materialization
    executor's cached recursion.
    """
    lo = min(int(ids.min()) for ids in id_arrays)
    hi = max(int(ids.max()) for ids in id_arrays)
    if lo < 0 or hi >= n_vertices:
        raise SamplingError(
            f"vertex ids span [{lo}, {hi}], outside [0, {n_vertices})"
        )
    present = np.zeros(hi + 1, dtype=bool)
    for ids in id_arrays:
        present[ids] = True
    level = np.flatnonzero(present)
    position = np.empty(hi + 1, dtype=np.int64)
    position[level] = np.arange(level.size)
    return level, [position[ids] for ids in id_arrays]


def _assemble(
    seeds: np.ndarray,
    hop_nums: "list[int]",
    n_vertices: int,
    sample_hop,
) -> KHopBlock:
    """Shared top-down construction: ``sample_hop(k, frontier)`` per hop."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1:
        raise SamplingError(f"seeds must be a 1-D id array, got shape {seeds.shape}")
    if seeds.size == 0:
        raise SamplingError("cannot build a block from an empty seed set")
    kmax = len(hop_nums)
    layers: "list[np.ndarray]" = [None] * (kmax + 1)
    self_index: "list[np.ndarray]" = [None] * kmax
    child_index: "list[np.ndarray]" = [None] * kmax
    layers[kmax], _ = compact_level(n_vertices, seeds)
    for k in range(kmax - 1, -1, -1):
        frontier = layers[k + 1]
        children = sample_hop(k, frontier)
        if children.shape != (frontier.size, hop_nums[k]):
            raise SamplingError(
                f"hop {k} sampler returned shape {children.shape}, expected "
                f"{(frontier.size, hop_nums[k])}"
            )
        layers[k], (self_index[k], child_index[k]) = compact_level(
            n_vertices, frontier, children
        )
    return KHopBlock(
        layers=layers,
        self_index=self_index,
        child_index=child_index,
        hop_nums=list(hop_nums),
    )


def build_block(
    seeds: np.ndarray,
    sampler: "object",
    hop_nums: "list[int]",
    rng: np.random.Generator,
) -> KHopBlock:
    """Build a block by sampling frontiers live through ``sampler``.

    ``sampler`` is any neighborhood sampler exposing the public
    ``sample_children(vertices, count, rng)`` API; each hop is one
    vectorized draw over the deduped frontier (one neighbor set per unique
    vertex per level — the per-vertex hop-table semantics of the
    all-vertex block, scoped to this one). Seeds that are not a 1-D integer
    array of ids in the sampler's graph raise :class:`SamplingError` before
    anything is drawn.
    """
    seeds = check_vertex_ids(seeds, sampler.provider.n_vertices)
    if not hop_nums or min(hop_nums) < 1:
        raise SamplingError(f"hop_nums must be positive, got {hop_nums}")

    def sample_hop(k: int, frontier: np.ndarray) -> np.ndarray:
        return sampler.sample_children(frontier, hop_nums[k], rng)

    return _assemble(seeds, hop_nums, sampler.provider.n_vertices, sample_hop)


def build_block_from_tables(
    seeds: np.ndarray, hop_tables: "list[np.ndarray]"
) -> KHopBlock:
    """Build a block whose draws are *looked up* from full hop tables.

    ``hop_tables[k]`` is the ``(n, fanout_k)`` SAMPLE output for hop k, one
    row per vertex of the graph. The resulting block aggregates exactly
    those neighbor sets, which is what makes block output rows
    ulp-comparable to the all-vertex forward restricted to the seeds. Seeds
    and looked-up children outside ``[0, n)`` raise :class:`SamplingError`.
    """
    if not hop_tables:
        raise SamplingError("hop_tables must be non-empty")
    tables = [np.asarray(table, dtype=np.int64) for table in hop_tables]
    if any(
        t.ndim != 2 or t.shape[0] != tables[0].shape[0] or t.shape[1] < 1
        for t in tables
    ):
        raise SamplingError(
            "hop tables must be (n_vertices, fanout >= 1) with one row count, "
            f"got shapes {[t.shape for t in tables]}"
        )
    hop_nums = [t.shape[1] for t in tables]
    return _assemble(
        seeds, hop_nums, tables[0].shape[0], lambda k, frontier: tables[k][frontier]
    )
