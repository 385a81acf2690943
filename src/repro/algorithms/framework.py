"""The GNN framework of Algorithm 1, assembled from plugins.

``h^(0) = x_v``; for each hop: ``S = SAMPLE(Nb(v))``,
``h' = AGGREGATE(h^(k-1)_u, u in S)``, ``h^(k) = COMBINE(h^(k-1), h')``;
normalize; after ``kmax`` hops the final vectors are the embeddings.

:class:`GNNFramework` runs this over a
:class:`~repro.sampling.blocks.KHopBlock` — the all-vertex block (every
vertex each hop, exactly the paper's pseudocode) or a per-step minibatch
block — with pluggable sampler / aggregator / combiner names, trained end
to end with an unsupervised link objective (neighbors score high, sampled
negatives low). GraphSAGE, GCN-flavoured models and the
in-house GNNs are all configurations or subclasses of this machinery.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    edge_batches,
    node_features,
    steps_per_epoch,
    train_steps,
    unit_rows,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.ops.aggregate import make_aggregator
from repro.ops.combine import make_combiner
from repro.runtime.tracing import NULL_PROFILER, StageProfiler
from repro.sampling.base import GraphProvider
from repro.sampling.blocks import KHopBlock, build_block, build_block_from_tables
from repro.sampling.neighborhood import (
    ImportanceNeighborSampler,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.rng import make_rng

_SAMPLERS = {
    "uniform": UniformNeighborSampler,
    "weighted": WeightedNeighborSampler,
    "topk": TopKNeighborSampler,
}


class _GNNEncoder(Module):
    """The stacked AGGREGATE/COMBINE network over a k-hop block."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        kmax: int,
        aggregator: str,
        combiner: str,
        rng: np.random.Generator,
    ) -> None:
        from repro.nn.layers import Dense

        #: StageProfiler bucketing forward into materialize / aggregate /
        #: combine stage spans (set by GNNFramework.fit).
        self.profiler = NULL_PROFILER
        self.input_proj = None
        if combiner in ("gru", "sum"):
            # Width-preserving combiners need the input already at the
            # working width: project features up front and keep one width.
            self.input_proj = Dense(in_dim, out_dim, rng)
            dims = [out_dim] * (kmax + 1)
        else:
            dims = [in_dim] + [hidden_dim] * (kmax - 1) + [out_dim]
        self.aggregators = [
            make_aggregator(aggregator, dims[k], dims[k + 1], rng)
            for k in range(kmax)
        ]
        self.combiners = [
            make_combiner(combiner, dims[k], dims[k + 1], dims[k + 1], rng)
            for k in range(kmax)
        ]
        self.kmax = kmax

    def forward(self, features: Tensor, block: KHopBlock) -> Tensor:
        """Embed a :class:`~repro.sampling.blocks.KHopBlock`'s seeds.

        Hop k hands the aggregator the level-k states and the block's
        relabeled ``(B, hop_nums[k])`` child table (a fused gather-reduce
        for mean / sum), gathers each level-(k+1) vertex's own state and
        combines the two. Every op is row-wise, so an output row depends
        only on that vertex's draws:
        a minibatch block and the all-vertex block (every level
        ``arange(n)``) give ulp-identical rows for the same hop tables.
        """
        stage = self.profiler.stage
        with stage("materialize"):
            h = features.gather_rows(block.layers[0])
        if self.input_proj is not None:
            h = self.input_proj(h)
        for k in range(block.n_hops):
            with stage("materialize"):
                h_self = h.gather_rows(block.self_index[k])
            with stage("aggregate"):
                h_neigh = self.aggregators[k](h, block.child_index[k])
            with stage("combine"):
                h = self.combiners[k](h_self, h_neigh)
                h = F.l2_normalize(h)  # Algorithm 1 line 7
        return h


class GNNFramework(EmbeddingModel):
    """Configurable Algorithm-1 GNN with unsupervised link training.

    Parameters
    ----------
    dim:
        Embedding dimension d.
    kmax:
        Hops of neighborhood aggregation.
    fanout:
        Neighbors sampled per vertex per hop (the SAMPLE step).
    aggregator, combiner:
        Plugin names from the operator registries (``mean``, ``maxpool``,
        ``lstm``, ``attention``, ``sum`` / ``concat``, ``sum``, ``gru``).
    sampler:
        Neighborhood sampler plugin: ``uniform``, ``weighted``, ``topk`` or
        ``importance``.
    profiler:
        Optional :class:`~repro.runtime.tracing.StageProfiler`; when set,
        every training step is bucketed into sample / materialize /
        aggregate / combine / backward / optimizer stage spans
        (``profiler.stage_totals()`` shows which stage dominates).
    minibatch_blocks:
        Selects how each step's :class:`~repro.sampling.blocks.KHopBlock`
        is built. False (default, the paper's full-graph Algorithm 1): one
        all-vertex block per epoch from ``(n, fanout)`` hop tables, so
        every step embeds every vertex. True: each step seeds a block from
        its deduped ``(src, dst, negs)`` ids and the encoder runs over only
        that block's rows — per-step forward/backward cost proportional to
        the batch instead of the graph. Live blocks draw frontiers from a
        dedicated RNG stream (derived from ``seed``) so the ``(src, dst,
        negs)`` batch stream is identical in both modes. Either way the
        final embedding matrix comes from one all-vertex block after
        training.
    """

    name = "gnn-framework"

    def __init__(
        self,
        dim: int = 64,
        kmax: int = 2,
        fanout: int = 8,
        aggregator: str = "mean",
        combiner: str = "concat",
        sampler: str = "uniform",
        hidden_dim: int | None = None,
        epochs: int = 5,
        batch_size: int = 512,
        neg_num: int = 5,
        lr: float = 0.01,
        max_steps_per_epoch: int = 40,
        seed: int = 0,
        profiler: "StageProfiler | None" = None,
        minibatch_blocks: bool = False,
    ) -> None:
        if kmax < 1:
            raise TrainingError(f"kmax must be >= 1, got {kmax}")
        self.dim = dim
        self.kmax = kmax
        self.fanout = fanout
        self.aggregator = aggregator
        self.combiner = combiner
        self.sampler = sampler
        self.hidden_dim = hidden_dim or dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.max_steps_per_epoch = max_steps_per_epoch
        self.seed = seed
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.minibatch_blocks = minibatch_blocks
        self._embeddings: np.ndarray | None = None
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    def _make_sampler(self, graph: Graph):
        provider = GraphProvider(graph)
        if self.sampler == "importance":
            return ImportanceNeighborSampler(provider, graph.out_degrees())
        try:
            return _SAMPLERS[self.sampler](provider)
        except KeyError:
            raise TrainingError(f"unknown sampler plugin {self.sampler!r}") from None

    def _sample_hop_tables(
        self, graph: Graph, sampler, rng: np.random.Generator
    ) -> "list[np.ndarray]":
        all_vertices = np.arange(graph.n_vertices, dtype=np.int64)
        return [
            sampler.sample_children(all_vertices, self.fanout, rng)
            for _ in range(self.kmax)
        ]

    def _all_vertex_block(
        self, graph: Graph, sampler, rng: np.random.Generator
    ) -> KHopBlock:
        """Algorithm 1 verbatim: every level is ``arange(n)`` and
        ``child_index[k]`` is hop table k (every vertex every hop)."""
        tables = self._sample_hop_tables(graph, sampler, rng)
        return build_block_from_tables(
            np.arange(graph.n_vertices, dtype=np.int64), tables
        )

    def fit(self, graph: Graph) -> "GNNFramework":
        rng = make_rng(self.seed)
        stage = self.profiler.stage
        features = node_features(graph, make_rng(self.seed), min(self.dim, 16))
        sampler = self._make_sampler(graph)
        encoder = _GNNEncoder(
            in_dim=features.shape[1],
            hidden_dim=self.hidden_dim,
            out_dim=self.dim,
            kmax=self.kmax,
            aggregator=self.aggregator,
            combiner=self.combiner,
            rng=rng,
        )
        encoder.profiler = self.profiler
        self._encoder = encoder
        optimizer = Adam(encoder.parameters(), lr=self.lr)
        feat_tensor = Tensor(features)
        #: Deterministic per-fit block accounting: steps trained on blocks,
        #: feature rows gathered, and vertex rows across all block levels.
        self.block_stats = {"steps": 0, "input_rows": 0, "total_rows": 0}
        #: Full-graph mode's block, redrawn every epoch; minibatch mode
        #: builds it once at the end.
        graph_block: "KHopBlock | None" = None
        if self.minibatch_blocks:
            hop_nums = [self.fanout] * self.kmax
            # Frontier draws get their own stream so the (src, dst, negs)
            # batches consume ``rng`` identically in both block modes.
            block_rng = make_rng(self.seed + 0x5EED)

            def step_block(*batch_ids: np.ndarray) -> KHopBlock:
                with stage("sample"):
                    block = build_block(
                        np.concatenate(batch_ids), sampler, hop_nums, block_rng
                    )
                    self.block_stats["steps"] += 1
                    self.block_stats["input_rows"] += block.n_input_rows
                    self.block_stats["total_rows"] += block.total_rows()
                return block

        else:

            def step_block(*batch_ids: np.ndarray) -> KHopBlock:
                return graph_block

        def loss_fn(src: np.ndarray, dst: np.ndarray, negs: np.ndarray) -> Tensor:
            block = step_block(src, dst, negs)
            h = encoder(feat_tensor, block)
            return skipgram_negative_loss(
                h.gather_rows(block.seed_positions(src)),
                h.gather_rows(block.seed_positions(dst)),
                h.gather_rows(block.seed_positions(negs)),
            )

        steps = steps_per_epoch(graph, self.batch_size, self.max_steps_per_epoch)
        batches = edge_batches(
            graph, rng, steps * self.epochs, self.batch_size, self.neg_num
        )
        self.loss_history = []
        for _ in range(self.epochs):
            if not self.minibatch_blocks:
                with stage("sample"):
                    graph_block = self._all_vertex_block(graph, sampler, rng)
            losses = train_steps(batches, loss_fn, optimizer, steps, self.profiler)
            self.loss_history.append(float(np.mean(losses)))

        # The final all-vertex embedding pass runs unprofiled: stage totals
        # stay pure per-training-step cost, comparable across modes.
        encoder.profiler = NULL_PROFILER
        if graph_block is None:
            graph_block = self._all_vertex_block(graph, sampler, rng)
        with no_grad():
            self._embeddings = unit_rows(encoder(feat_tensor, graph_block).numpy())
        return self
