"""NEIGHBORHOOD samplers: per-vertex context generation (paper §3.3).

A neighborhood sampler expands a batch of vertices hop by hop with aligned
fan-outs (``hop_nums``), producing the context the AGGREGATE/COMBINE
operators consume. Variants reproduce the sampling strategies of the GNNs in
the paper's Table 1:

* :class:`UniformNeighborSampler` — GraphSAGE's node-wise uniform sampling;
* :class:`WeightedNeighborSampler` — edge-weight proportional draws through
  alias tables;
* :class:`TopKNeighborSampler` — deterministic heaviest-k (AHEP-style
  importance pruning);
* :class:`ImportanceNeighborSampler` — degree-proportional importance
  sampling (the proposal of the layer-wise samplers in Table 1);
* :class:`FullNeighborSampler` — no sampling (the exact neighborhood), with
  a fan-out cap as a safety valve on power-law hubs.

Every sampler runs one flow behind the public
:meth:`_ExpandingSampler.sample_children` API, whatever provider it reads:
ask the provider for the frontier's rows as one ragged
:class:`~repro.sampling.kernels.CsrAdjacency` block, then expand the whole
frontier with one vectorized kernel call on the block's rows (uniform draws
are a broadcast ``rng.integers``; weighted/importance draws go through one
:class:`~repro.utils.alias.GroupedAliasTable` spanning every row of the
block; top-k/full are one gather). In-memory providers hand back their
whole-graph snapshot for free; the distributed store pays one batched read
of the deduplicated frontier per hop. Tables derived from a block live
exactly as long as the provider keeps handing back that block object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import NeighborProvider, Sampler, check_vertex_ids
from repro.sampling.kernels import CsrAdjacency
from repro.utils.alias import GroupedAliasTable


@dataclass
class NeighborhoodSample:
    """Multi-hop context of a vertex batch.

    ``layers[0]`` is the seed batch; ``layers[k]`` holds the hop-k context,
    flattened so that the ``hop_nums[k-1]`` samples for ``layers[k-1][i]``
    sit at ``layers[k][i * hop_nums[k-1] : (i+1) * hop_nums[k-1]]``.
    Vertices with no neighbors are padded by repeating themselves, so a
    slot equal to its parent is either padding or a genuine self-loop draw.
    """

    layers: list[np.ndarray]
    hop_nums: list[int]

    @property
    def n_hops(self) -> int:
        """Number of expanded hops."""
        return len(self.layers) - 1


class _ExpandingSampler(Sampler):
    """Shared multi-hop expansion; subclasses supply the draw kernel.

    Subclasses implement ``_draw`` (one vectorized draw over block rows);
    fetching the block and hop expansion live here.
    """

    def __init__(self, provider: NeighborProvider) -> None:
        self.provider = provider

    def _draw(
        self,
        block: CsrAdjacency,
        rows: np.ndarray,
        vertices: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(len(rows), count)`` children of block ``rows``.

        ``vertices`` are the rows' global ids, the padding of empty rows.
        """
        raise NotImplementedError

    def sample_children(
        self, vertices: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` children for every frontier vertex — one call.

        Returns the ``(len(vertices), count)`` children table; vertices
        without neighbors are padded with themselves. One provider read for
        the whole frontier, then a handful of numpy kernel calls.
        """
        if count < 1:
            raise SamplingError(f"fan-out must be positive, got {count}")
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        block, rows = self.provider.frontier_block(vertices)
        return self._draw(block, rows, vertices, count, rng)

    def sample(
        self,
        batch: np.ndarray,
        hop_nums: "list[int]",
        rng: np.random.Generator,
    ) -> NeighborhoodSample:
        """Expand ``batch`` by ``hop_nums`` fan-outs per hop."""
        batch = check_vertex_ids(batch, self.provider.n_vertices)
        if batch.size == 0:
            raise SamplingError("cannot expand an empty batch")
        if not hop_nums or min(hop_nums) < 1:
            raise SamplingError(f"hop_nums must be positive, got {hop_nums}")
        layers = [batch]
        for fanout in hop_nums:
            layers.append(self.sample_children(layers[-1], fanout, rng).reshape(-1))
        return NeighborhoodSample(layers=layers, hop_nums=list(hop_nums))


class UniformNeighborSampler(_ExpandingSampler):
    """GraphSAGE-style uniform with-replacement neighbor sampling."""

    name = "neighborhood_uniform"

    def _draw(self, block, rows, vertices, count, rng):
        return block.sample_uniform(rows, count, rng, pad_ids=vertices)


class _AliasSampler(_ExpandingSampler):
    """Weighted draws through one grouped alias table per block.

    The table spans every row of the block it was built on and is kept
    only while the provider hands back that same block object: a
    whole-graph snapshot builds it once, a store-backed frontier block
    builds a frontier-sized one per hop, and neither can outlive the
    adjacency it describes.
    """

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__(provider)
        self._table: GroupedAliasTable | None = None
        self._table_block: CsrAdjacency | None = None

    def _slot_weights(self, block: CsrAdjacency) -> np.ndarray:
        """Per-slot sampling weights of ``block`` (the table only reads them)."""
        raise NotImplementedError

    def _table_for(self, block: CsrAdjacency) -> GroupedAliasTable:
        if block is not self._table_block:
            self._table = GroupedAliasTable(self._slot_weights(block), block.indptr)
            self._table_block = block
        return self._table

    def _draw(self, block, rows, vertices, count, rng):
        return block.sample_alias(
            rows, count, rng, self._table_for(block), pad_ids=vertices
        )


class WeightedNeighborSampler(_AliasSampler):
    """Edge-weight proportional sampling: each block's own edge weights."""

    name = "neighborhood_weighted"

    def _slot_weights(self, block: CsrAdjacency) -> np.ndarray:
        return block.weights


class TopKNeighborSampler(_ExpandingSampler):
    """Deterministic heaviest-``count`` neighbors (ties by id).

    Repeats the heaviest neighbors cyclically when the fan-out exceeds the
    degree so output stays aligned (the kernel gathers through the block's
    cached per-row weight ranking).
    """

    name = "neighborhood_topk"

    def _draw(self, block, rows, vertices, count, rng):
        return block.sample_ranked(rows, count, pad_ids=vertices)


class ImportanceNeighborSampler(_AliasSampler):
    """Degree-proportional importance sampling.

    Samples neighbor ``u`` of ``v`` with probability proportional to
    ``deg(u)`` (degrees below 1 count as 1), which emphasizes hubs.
    """

    name = "neighborhood_importance"

    def __init__(self, provider: NeighborProvider, degrees: np.ndarray):
        super().__init__(provider)
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.ndim != 1:
            raise SamplingError("degrees must be a 1-D vector")
        self._scores = np.maximum(degrees, 1.0)

    def _slot_weights(self, block: CsrAdjacency) -> np.ndarray:
        return self._scores[block.indices]


class FullNeighborSampler(_ExpandingSampler):
    """No sampling: the full neighbor set, cyclically padded to ``count``.

    ``max_fanout`` caps hub explosion; pass the graph's max degree as the
    fan-out to make the expansion exact.
    """

    name = "neighborhood_full"

    def __init__(self, provider: NeighborProvider, max_fanout: int = 512) -> None:
        super().__init__(provider)
        if max_fanout < 1:
            raise SamplingError("max_fanout must be positive")
        self.max_fanout = max_fanout

    def _draw(self, block, rows, vertices, count, rng):
        return block.sample_leading(
            rows, count, max_take=self.max_fanout, pad_ids=vertices
        )
