"""The GNN framework of Algorithm 1, assembled from plugins.

``h^(0) = x_v``; for each hop: ``S = SAMPLE(Nb(v))``,
``h' = AGGREGATE(h^(k-1)_u, u in S)``, ``h^(k) = COMBINE(h^(k-1), h')``;
normalize; after ``kmax`` hops the final vectors are the embeddings.

:class:`GNNFramework` runs this full-graph (every vertex each hop, exactly
the paper's pseudocode) with pluggable sampler / aggregator / combiner
names, trained end to end with an unsupervised link objective (neighbors
score high, sampled negatives low). GraphSAGE, GCN-flavoured models and the
in-house GNNs are all configurations or subclasses of this machinery.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.algorithms.base import EmbeddingModel, unit_rows
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.ops.aggregate import make_aggregator
from repro.ops.combine import make_combiner
from repro.sampling.base import GraphProvider
from repro.sampling.blocks import build_block
from repro.sampling.neighborhood import (
    ImportanceNeighborSampler,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.sampling.prefetch import PrefetchingPipeline
from repro.sampling.traverse import EdgeTraverseSampler
from repro.utils.rng import make_rng

_SAMPLERS = {
    "uniform": UniformNeighborSampler,
    "weighted": WeightedNeighborSampler,
    "topk": TopKNeighborSampler,
}


class _GNNEncoder(Module):
    """The stacked AGGREGATE/COMBINE network over pre-sampled hop tables."""

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

        #: Optional StageProfiler bucketing forward into materialize /
        #: aggregate / combine stage spans (set by GNNFramework.fit).
        self.profiler = None
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

    def _stage(self, name: str):
        if self.profiler is None:
            return nullcontext()
        return self.profiler.stage(name)

    def forward(self, features: Tensor, hop_tables: "list[np.ndarray]") -> Tensor:
        """Embed all n vertices given per-hop sampled neighbor id tables.

        ``hop_tables[k]`` is an ``(n, fanout_k)`` id matrix: the SAMPLE
        output for hop k+1.
        """
        h = features if self.input_proj is None else self.input_proj(features)
        for k in range(self.kmax):
            table = hop_tables[k]
            n, fanout = table.shape
            with self._stage("materialize"):
                neigh = h.gather_rows(table.reshape(-1))  # (n*fanout, d)
            with self._stage("aggregate"):
                h_neigh = self.aggregators[k](neigh, fanout)
            with self._stage("combine"):
                h = self.combiners[k](h, h_neigh)
                h = F.l2_normalize(h)  # Algorithm 1 line 7
        return h

    def forward_block(self, features: Tensor, block: "object") -> Tensor:
        """Embed only a :class:`~repro.sampling.blocks.KHopBlock`'s seeds.

        Runs the identical per-hop ops as :meth:`forward` over the block's
        compact id space: hop k gathers level-k states through the block's
        relabeled child/self indices instead of global ``(n, fanout)``
        tables. Every op is row-wise, so output row ``i`` is ulp-identical
        to the full-graph forward's row ``block.seeds[i]`` when the block
        was built from the same per-vertex hop tables.
        """
        with self._stage("materialize"):
            h = features.gather_rows(block.layers[0])
        if self.input_proj is not None:
            h = self.input_proj(h)
        for k in range(block.n_hops):
            with self._stage("materialize"):
                neigh = h.gather_rows(block.child_index[k].reshape(-1))
                h_self = h.gather_rows(block.self_index[k])
            with self._stage("aggregate"):
                h_neigh = self.aggregators[k](neigh, block.hop_nums[k])
            with self._stage("combine"):
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
        aggregate / combine / backward / optimizer stage spans and
        histograms (``profiler.render()`` shows which stage dominates).
    prefetch_depth:
        Training batches the sampling stage keeps buffered ahead of the
        compute stage (0 = sample on demand, today's behaviour). Every
        depth draws from the RNG in the identical order, so losses and
        embeddings are bit-identical across depths; the buffer adds
        cross-batch frontier overlap measurement
        (``pipeline.coalesced``) and feeds the overlap makespan model.
    minibatch_blocks:
        When True, each training step builds a k-hop
        :class:`~repro.sampling.blocks.KHopBlock` seeded from the deduped
        ``(src, dst, negs)`` batch ids and runs the encoder over only the
        block's rows — per-step forward/backward cost proportional to the
        batch instead of the graph. Blocks draw frontiers from a dedicated
        RNG stream (derived from ``seed``), so the batch stream stays
        bit-identical to the full-graph path at every prefetch depth. The
        final all-vertex embedding pass still runs full-graph once after
        training. Default False (the paper's full-graph Algorithm 1).
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
        resample_each_epoch: bool = True,
        max_steps_per_epoch: int = 40,
        early_stop_patience: int = 0,
        early_stop_min_delta: float = 1e-3,
        seed: int = 0,
        profiler: "object | None" = None,
        prefetch_depth: int = 0,
        minibatch_blocks: bool = False,
    ) -> None:
        if kmax < 1:
            raise TrainingError(f"kmax must be >= 1, got {kmax}")
        if prefetch_depth < 0:
            raise TrainingError(
                f"prefetch_depth must be >= 0, got {prefetch_depth}"
            )
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
        self.resample_each_epoch = resample_each_epoch
        self.max_steps_per_epoch = max_steps_per_epoch
        # Early stopping (paper §7, future work #3): terminate training
        # when no epoch improves the mean loss by min_delta for patience
        # consecutive epochs. 0 disables.
        self.early_stop_patience = early_stop_patience
        self.early_stop_min_delta = early_stop_min_delta
        self.seed = seed
        self.profiler = profiler
        self.prefetch_depth = prefetch_depth
        self.minibatch_blocks = minibatch_blocks
        self._prefetcher: "PrefetchingPipeline | None" = None
        self.stopped_early = False
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

    def _features(self, graph: Graph) -> np.ndarray:
        feats = getattr(graph, "vertex_features", None)
        if feats is not None:
            out = np.asarray(feats, dtype=np.float64)
            # Standardize: discrete attribute codes become usable signals.
            mu = out.mean(axis=0, keepdims=True)
            sd = out.std(axis=0, keepdims=True) + 1e-9
            return (out - mu) / sd
        # Featureless graphs get degree + random projection features.
        rng = make_rng(self.seed)
        deg = np.log1p(graph.out_degrees()).reshape(-1, 1)
        rand = rng.normal(size=(graph.n_vertices, min(self.dim, 16)))
        return np.concatenate([deg, rand], axis=1)

    def _sample_hop_tables(
        self, graph: Graph, sampler, rng: np.random.Generator
    ) -> "list[np.ndarray]":
        tables = []
        all_vertices = np.arange(graph.n_vertices, dtype=np.int64)
        for _ in range(self.kmax):
            table, _ = sampler.sample_children(all_vertices, self.fanout, rng)
            tables.append(table)
        return tables

    def fit(self, graph: Graph) -> "GNNFramework":
        rng = make_rng(self.seed)
        prof = self.profiler
        stage = prof.stage if prof is not None else (lambda name: nullcontext())
        features = self._features(graph)
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
        encoder.profiler = prof
        self._encoder = encoder
        optimizer = Adam(encoder.parameters(), lr=self.lr)
        edge_sampler = EdgeTraverseSampler(graph)
        neg_sampler = DegreeBiasedNegativeSampler(graph)
        feat_tensor = Tensor(features)
        hop_nums = [self.fanout] * self.kmax
        # Blocks draw per-step frontiers from a dedicated stream so the
        # (src, dst, negs) batch stream consumes ``rng`` in exactly the
        # full-graph order — prefetch depths stay bit-identical.
        block_rng = make_rng(self.seed + 0x5EED) if self.minibatch_blocks else None
        #: Deterministic per-fit block accounting: steps trained on blocks,
        #: feature rows gathered, and vertex rows across all block levels.
        self.block_stats = {"steps": 0, "input_rows": 0, "total_rows": 0}
        hop_tables: "list[np.ndarray] | None" = None
        if not self.minibatch_blocks:
            with stage("sample"):
                hop_tables = self._sample_hop_tables(graph, sampler, rng)

        steps = min(self.max_steps_per_epoch, max(1, graph.n_edges // self.batch_size))
        self.loss_history = []
        self.stopped_early = False
        best_loss = float("inf")
        stall = 0

        def _draw_step(step_rng: np.random.Generator):
            with stage("sample"):
                src, dst = edge_sampler.sample(self.batch_size, step_rng)
                negs = neg_sampler.sample(
                    src, self.neg_num, step_rng
                ).reshape(-1)
            return src, dst, negs

        # The prefetcher calls _draw_step strictly in step order with the
        # same rng, so every depth consumes the RNG stream identically;
        # depth 0 adds no buffering, metrics or frontier accounting at all
        # (byte-for-byte today's behaviour).
        self._prefetcher = PrefetchingPipeline(
            _draw_step,
            self.prefetch_depth,
            frontier_of=(
                (lambda b: np.concatenate(b)) if self.prefetch_depth else None
            ),
            metrics=(
                prof.metrics
                if (prof is not None and self.prefetch_depth)
                else None
            ),
        )
        for epoch in range(self.epochs):
            if (
                not self.minibatch_blocks
                and self.resample_each_epoch
                and epoch > 0
            ):
                with stage("sample"):
                    hop_tables = self._sample_hop_tables(graph, sampler, rng)
            epoch_losses = []
            batch_iter = self._prefetcher.run(steps, rng)
            for _ in range(steps):
                with prof.step() if prof is not None else nullcontext():
                    src, dst, negs = next(batch_iter)
                    optimizer.zero_grad()
                    if self.minibatch_blocks:
                        with stage("sample"):
                            seeds = np.unique(np.concatenate([src, dst, negs]))
                            block = build_block(seeds, sampler, hop_nums, block_rng)
                            self.block_stats["steps"] += 1
                            self.block_stats["input_rows"] += block.n_input_rows
                            self.block_stats["total_rows"] += block.total_rows()
                        h = encoder.forward_block(feat_tensor, block)
                        rows = block.seed_positions
                    else:
                        h = encoder(feat_tensor, hop_tables)
                        rows = lambda ids: ids  # noqa: E731 - global id space
                    loss = skipgram_negative_loss(
                        h.gather_rows(rows(src)),
                        h.gather_rows(rows(dst)),
                        h.gather_rows(rows(negs)),
                    )
                    with stage("backward"):
                        loss.backward()
                    with stage("optimizer"):
                        optimizer.step()
                epoch_losses.append(loss.item())
            epoch_loss = float(np.mean(epoch_losses))
            self.loss_history.append(epoch_loss)
            if self.early_stop_patience > 0:
                if epoch_loss < best_loss - self.early_stop_min_delta:
                    best_loss = epoch_loss
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.early_stop_patience:
                        self.stopped_early = True
                        break

        # The final all-vertex embedding pass runs unprofiled: stage totals
        # stay pure per-training-step cost, comparable across modes.
        encoder.profiler = None
        if hop_tables is None:
            # Minibatch mode never sampled full tables: one final
            # full-graph pass produces the all-vertex embedding matrix.
            hop_tables = self._sample_hop_tables(graph, sampler, rng)
        h_final = encoder(feat_tensor, hop_tables).numpy()
        self._embeddings = unit_rows(h_final)
        return self

    def embeddings(self) -> np.ndarray:
        self._require_fitted()
        return self._embeddings
