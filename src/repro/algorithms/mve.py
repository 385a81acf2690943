"""MVE (Qu et al., CIKM 2017): multi-view network embedding.

Each vertex has one *collaborated* base embedding shared by all views plus
a per-view deviation; the view-v representation is ``base + delta_v``. All
views are trained jointly with skip-gram on their own walks, and the
attention mechanism weighs each view's deviation into the final single
embedding — "embeds networks with multiple views in a single collaborated
embedding using the attention mechanism". The collaboration strength
regularizes deviations toward zero, sharing statistical strength across
sparse views.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, pair_batches, train_steps, unit_rows, walk_pairs
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.nn import functional as F
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class MVE(EmbeddingModel):
    """Attention-collaborated multi-view embeddings."""

    name = "mve"

    def __init__(
        self,
        dim: int = 64,
        walks_per_vertex: int = 3,
        walk_length: int = 8,
        window: int = 3,
        epochs: int = 2,
        batch_size: int = 1024,
        neg_num: int = 5,
        collaboration: float = 0.05,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.collaboration = collaboration
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: AttributedHeterogeneousGraph) -> "MVE":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("MVE needs a multi-view (AHG) input")
        rng = make_rng(self.seed)
        n = graph.n_vertices
        views = [(t, graph.edge_type_subgraph(t)) for t in graph.edge_type_names]
        views = [(t, g) for t, g in views if g.n_edges > 0]
        if not views:
            raise TrainingError("no non-empty views")
        n_views = len(views)

        base = Embedding(n, self.dim, rng)
        deltas = [Embedding(n, self.dim, rng, scale=0.01) for _ in range(n_views)]
        context = Embedding(n, self.dim, rng)
        # Per-vertex attention logits over views.
        attn = Tensor(np.zeros((n, n_views)), requires_grad=True, name="view_attn")
        params = base.parameters() + context.parameters() + [attn]
        for d in deltas:
            params += d.parameters()
        optimizer = Adam(params, lr=self.lr)

        per_view_pairs = []
        for _, g in views:
            pairs = walk_pairs(g, rng, self.walks_per_vertex, self.walk_length, self.window)
            per_view_pairs.append(pairs)
        neg_sampler = DegreeBiasedNegativeSampler(graph)

        def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, negs: np.ndarray) -> Tensor:
            delta = deltas[vi](c_ids)  # vi: the view being trained
            z = base(c_ids) + delta
            sg = skipgram_negative_loss(z, context(u_ids), context(negs))
            # Collaboration: deviations stay small, so every view's
            # gradient flows into the shared base.
            collab = (delta * delta).mean()
            # Attention training: the attention-combined embedding
            # must also explain this view's contexts, so the
            # per-vertex view weights learn which views to trust.
            weights = F.softmax(attn.gather_rows(c_ids), axis=-1)
            combined = base(c_ids)
            for vj, d in enumerate(deltas):
                onehot = np.zeros((1, n_views))
                onehot[0, vj] = 1.0
                w_col = (weights * onehot).sum(axis=1, keepdims=True)
                combined = combined + d(c_ids) * w_col
            sg_comb = skipgram_negative_loss(combined, context(u_ids), context(negs))
            return sg + sg_comb * 0.5 + collab * self.collaboration

        for _ in range(self.epochs):
            for vi, pairs in enumerate(per_view_pairs):
                if pairs[0].size == 0:
                    continue
                batches = pair_batches(
                    pairs, neg_sampler, rng, self.batch_size, self.neg_num
                )
                train_steps(batches, loss_fn, optimizer)

        final_weights = F.softmax(Tensor(attn.data), axis=-1).numpy()  # (n, V)
        base_table = base.table.numpy()
        delta_tables = [d.table.numpy() for d in deltas]
        weighted = base_table + sum(
            delta_tables[v] * final_weights[:, v : v + 1] for v in range(n_views)
        )
        self._embeddings = unit_rows(weighted)
        return self
