"""GATNE (paper §4.2): General Attributed Multiplex HeTerogeneous Network
Embedding.

Per edge type ``c``, the embedding of vertex ``v`` is Eq. 3::

    h_{v,c} = b_v + alpha_c * M_c^T g_v a_c + beta_c * D^T x_v

— the sum of (1) the *general* embedding ``b_v`` capturing base structure,
(2) the *specific* part: the vertex's ``t`` meta-specific (edge) embeddings
``g_{v,t'}`` mixed by self-attention coefficients ``a_c`` [36] and lifted by
the trainable ``M_c``, and (3) the *attribute* embedding ``D^T x_v``.
Training is random-walk skip-gram with negative sampling per edge-type
layer (Eq. 4); the final embedding concatenates ``h_{v,c}`` over edge types.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    node_features,
    pair_batches,
    train_steps,
    unit_rows,
    walk_pairs,
)
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.nn import functional as F
from repro.nn.init import xavier_uniform
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class GATNE(EmbeddingModel):
    """General + specific (attention-mixed) + attribute embeddings."""

    name = "gatne"

    def __init__(
        self,
        dim: int = 64,
        edge_dim: int = 8,
        attn_dim: int = 8,
        alpha: float = 1.0,
        beta: float = 1.0,
        walks_per_vertex: int = 3,
        walk_length: int = 8,
        window: int = 3,
        epochs: int = 2,
        batch_size: int = 512,
        neg_num: int = 5,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.edge_dim = edge_dim
        self.attn_dim = attn_dim
        self.alpha = alpha
        self.beta = beta
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _build(self, graph: AttributedHeterogeneousGraph, rng: np.random.Generator):
        n = graph.n_vertices
        self._etypes = [
            t for t in graph.edge_type_names
            if graph.edge_type_subgraph(t).n_edges > 0
        ]
        t_count = len(self._etypes)
        if t_count == 0:
            raise TrainingError("GATNE needs at least one non-empty edge type")
        self._base = Embedding(n, self.dim, rng)
        self._context = Embedding(n, self.dim, rng)
        # One meta-specific (edge) embedding table per edge type.
        self._edge_embs = [Embedding(n, self.edge_dim, rng) for _ in range(t_count)]
        # Per-type attention (W1, w2) and lift M_c.
        self._attn_w1 = [
            Tensor(xavier_uniform((self.edge_dim, self.attn_dim), rng), requires_grad=True)
            for _ in range(t_count)
        ]
        self._attn_w2 = [
            Tensor(xavier_uniform((self.attn_dim,), rng), requires_grad=True)
            for _ in range(t_count)
        ]
        self._lift = [
            Tensor(xavier_uniform((self.edge_dim, self.dim), rng), requires_grad=True)
            for _ in range(t_count)
        ]
        if getattr(graph, "vertex_features", None) is not None:
            self._features = node_features(graph, rng, 0)
            self._attr_proj = Tensor(
                xavier_uniform((self._features.shape[1], self.dim), rng),
                requires_grad=True,
            )
        else:
            self._features = None
            self._attr_proj = None

    def _parameters(self):
        params = self._base.parameters() + self._context.parameters()
        for e in self._edge_embs:
            params += e.parameters()
        params += self._attn_w1 + self._attn_w2 + self._lift
        if self._attr_proj is not None:
            params.append(self._attr_proj)
        return params

    def _embed(self, ids: np.ndarray, type_idx: int) -> Tensor:
        """h_{v,c} of Eq. 3 for a batch of vertex ids."""
        b = ids.size
        t_count = len(self._etypes)
        base = self._base(ids)
        # Stack meta-specific embeddings: rows grouped per vertex.
        stacked_rows = []
        for e in self._edge_embs:
            stacked_rows.append(e(ids))  # (b, s) each
        # Attention scores per vertex over the t tables.
        u_flat = F.concat(stacked_rows, axis=0)  # (t*b, s) grouped by table
        hidden = F.tanh(u_flat @ self._attn_w1[type_idx])  # (t*b, a)
        scores = hidden @ self._attn_w2[type_idx]  # (t*b,)
        scores = scores.reshape(t_count, b).T  # (b, t)
        weights = F.softmax(scores, axis=-1)  # (b, t)
        mixed = None
        for j, u in enumerate(stacked_rows):
            onehot = np.zeros((1, t_count))
            onehot[0, j] = 1.0
            w_col = (weights * onehot).sum(axis=1, keepdims=True)  # (b, 1)
            part = u * w_col
            mixed = part if mixed is None else mixed + part
        specific = (mixed @ self._lift[type_idx]) * self.alpha
        out = base + specific
        if self._attr_proj is not None:
            attr = Tensor(self._features[ids]) @ self._attr_proj
            out = out + attr * self.beta
        return out

    def fit(self, graph: AttributedHeterogeneousGraph) -> "GATNE":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("GATNE needs an AHG")
        rng = make_rng(self.seed)
        self._build(graph, rng)
        optimizer = Adam(self._parameters(), lr=self.lr)
        neg_sampler = DegreeBiasedNegativeSampler(graph)

        def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, negs: np.ndarray) -> Tensor:
            # ti: the edge-type layer being walked
            return skipgram_negative_loss(
                self._embed(c_ids, ti), self._context(u_ids), self._context(negs)
            )

        for _ in range(self.epochs):
            for ti, etype in enumerate(self._etypes):
                layer = graph.edge_type_subgraph(etype)
                pairs = walk_pairs(layer, rng, self.walks_per_vertex, self.walk_length, self.window)
                if pairs[0].size == 0:
                    continue
                batches = pair_batches(
                    pairs, neg_sampler, rng, self.batch_size, self.neg_num
                )
                train_steps(batches, loss_fn, optimizer)

        all_ids = graph.vertices()
        per_type = [unit_rows(self._embed(all_ids, ti).numpy()) for ti in range(len(self._etypes))]
        # Final embedding: concatenation of h_{v,c} across edge types.
        self._embeddings = unit_rows(np.concatenate(per_type, axis=1))
        return self
