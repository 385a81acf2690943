"""NEIGHBORHOOD samplers: per-vertex context generation (paper §3.3).

A neighborhood sampler expands a batch of vertices hop by hop with aligned
fan-outs (``hop_nums``), producing the context the AGGREGATE/COMBINE
operators consume. Variants reproduce the sampling strategies of the GNNs in
the paper's Table 1:

* :class:`UniformNeighborSampler` — GraphSAGE's node-wise uniform sampling;
* :class:`WeightedNeighborSampler` — edge-weight proportional draws through
  alias tables, with *dynamic weights*: ``backward`` nudges per-edge sampling
  weights like a gradient step (the paper's trainable sampler);
* :class:`TopKNeighborSampler` — deterministic heaviest-k (AHEP-style
  importance pruning);
* :class:`ImportanceNeighborSampler` — degree-proportional importance
  sampling in the FastGCN/AS-GCN family, with inclusion-probability
  weights exposed for variance correction;
* :class:`FullNeighborSampler` — no sampling (exact GCN), with a fan-out cap
  as a safety valve on power-law hubs.

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

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import NeighborProvider, Sampler
from repro.sampling.kernels import CsrAdjacency
from repro.utils.alias import GroupedAliasTable


@dataclass
class NeighborhoodSample:
    """Multi-hop context of a vertex batch.

    ``layers[0]`` is the seed batch; ``layers[k]`` holds the hop-k context,
    flattened so that the ``hop_nums[k-1]`` samples for ``layers[k-1][i]``
    sit at ``layers[k][i * hop_nums[k-1] : (i+1) * hop_nums[k-1]]``.

    ``pad_masks[k-1]`` (aligned with ``layers[k]``) records the *self-loop
    contract*: an entry is True exactly when the sampled child equals its
    parent vertex. Vertices with no neighbors are padded by repeating
    themselves, so all their entries are True — but a genuine self-loop
    edge draw is marked True as well. The mask therefore answers "does this
    slot aggregate the parent's own features?", not "was this slot
    synthesized?"; downstream consumers (e.g. mean aggregation that wants
    to discount padding) treat the two cases identically.
    """

    layers: list[np.ndarray]
    hop_nums: list[int]
    pad_masks: list[np.ndarray] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Seed batch size."""
        return int(self.layers[0].size)

    @property
    def n_hops(self) -> int:
        """Number of expanded hops."""
        return len(self.layers) - 1

    def hop(self, k: int) -> np.ndarray:
        """Hop-k layer reshaped to ``(len(layers[k-1]), hop_nums[k-1])``."""
        if not 1 <= k <= self.n_hops:
            raise SamplingError(f"hop {k} out of range [1, {self.n_hops}]")
        return self.layers[k].reshape(self.layers[k - 1].size, self.hop_nums[k - 1])

    def all_vertices(self) -> np.ndarray:
        """Unique vertex ids appearing anywhere in the sample."""
        return np.unique(np.concatenate(self.layers))


class _ExpandingSampler(Sampler):
    """Shared multi-hop expansion; subclasses supply the draw kernel.

    Subclasses implement ``_draw`` (one vectorized draw over block rows);
    fetching the block and hop expansion live here.
    """

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__()
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
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Draw ``count`` children for every frontier vertex — one call.

        Returns ``(children, pad_mask)``, both of shape
        ``(len(vertices), count)``. ``pad_mask`` marks entries equal to
        their parent (the self-loop contract of :class:`NeighborhoodSample`);
        vertices without neighbors are padded with themselves. One provider
        read for the whole frontier, then a handful of numpy kernel calls.
        """
        if count < 1:
            raise SamplingError(f"fan-out must be positive, got {count}")
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        block, rows = self.provider.frontier_block(vertices)
        children = self._draw(block, rows, vertices, count, rng)
        return children, children == vertices[:, None]

    def sample(
        self,
        batch: np.ndarray,
        hop_nums: "list[int]",
        rng: np.random.Generator,
    ) -> NeighborhoodSample:
        """Expand ``batch`` by ``hop_nums`` fan-outs per hop."""
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size == 0:
            raise SamplingError("cannot expand an empty batch")
        if not hop_nums or any(h < 1 for h in hop_nums):
            raise SamplingError(f"hop_nums must be positive, got {hop_nums}")
        layers = [batch]
        pad_masks: list[np.ndarray] = []
        for fanout in hop_nums:
            children, pad = self.sample_children(layers[-1], fanout, rng)
            layers.append(children.reshape(-1))
            pad_masks.append(pad.reshape(-1))
        return NeighborhoodSample(layers=layers, hop_nums=list(hop_nums), pad_masks=pad_masks)


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
        """Fresh per-slot sampling weights of ``block`` (the table owns them)."""
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
    """Edge-weight proportional sampling with dynamic (trainable) weights.

    ``backward`` adjusts one vertex's weights — the paper's "register a
    gradient function for the sampler" mechanism. Adjusted weights are kept
    per vertex and laid over every block's own weights when its alias table
    is built (an adjustment whose length no longer matches the vertex's row
    is ignored: the row changed under it); a table already built is patched
    in place, one group per update.
    """

    name = "neighborhood_weighted"

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__(provider)
        self._weights: dict[int, np.ndarray] = {}
        self.register_update_fn(self._apply_weight_update)

    def current_weights(self, vertex: int) -> np.ndarray:
        """The (possibly updated) sampling weights of ``vertex``'s edges."""
        weights = self._weights.get(vertex)
        if weights is None:
            weights = np.array(self.provider.weights(vertex), dtype=np.float64)
        return weights

    def _apply_weight_update(
        self, vertex: int, grads: np.ndarray, lr: float = 0.1
    ) -> None:
        """Gradient-like multiplicative update of ``vertex``'s edge weights."""
        weights = self.current_weights(vertex)
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != weights.shape:
            raise SamplingError(
                f"gradient shape {grads.shape} does not match the "
                f"{weights.shape} weights of vertex {vertex}"
            )
        updated = np.maximum(weights * np.exp(lr * grads), 1e-12)
        self._weights[vertex] = updated
        if self._table_block is not None:
            row = self._table_block.row_of(vertex)
            if row >= 0 and self._table.group_size(row) == updated.size:
                self._table.update_group(row, updated)

    def _slot_weights(self, block: CsrAdjacency) -> np.ndarray:
        weights = block.weights.copy()
        for vertex, override in self._weights.items():
            row = block.row_of(vertex)
            if row >= 0 and override.size == block.degrees[row]:
                weights[block.indptr[row] : block.indptr[row + 1]] = override
        return weights


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
    """Degree-proportional importance sampling (FastGCN/AS-GCN family).

    Samples neighbor ``u`` of ``v`` with probability proportional to
    ``deg(u)^beta`` (``beta=1`` emphasizes hubs; FastGCN's q(u) ∝ deg).
    ``inclusion_probability`` exposes the per-draw probabilities so callers
    can build unbiased (importance-weighted) aggregations.
    """

    name = "neighborhood_importance"

    def __init__(
        self,
        provider: NeighborProvider,
        degrees: np.ndarray,
        beta: float = 1.0,
    ):
        super().__init__(provider)
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.ndim != 1:
            raise SamplingError("degrees must be a 1-D vector")
        self.beta = beta
        self._scores = np.power(np.maximum(degrees, 1.0), beta)

    def inclusion_probability(self, vertex: int) -> np.ndarray:
        """p(u | v) over ``v``'s neighbor list (sums to 1)."""
        nbrs = self.provider.neighbors(vertex)
        if nbrs.size == 0:
            return np.zeros(0, dtype=np.float64)
        scores = self._scores[nbrs]
        return scores / scores.sum()

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
