"""HEP and AHEP (paper §4.2, Zheng et al. [56]).

HEP — heterogeneous embedding propagation — generates embeddings
iteratively: in each hop, for vertex ``v`` and each node type ``c``, the
type-c neighbors propagate their embeddings to reconstruct ``h'_{v,c}``; the
embeddings are trained so each vertex agrees with its per-type
reconstructions (the EP loss) while a supervised link loss shapes the space.
The total objective is the paper's Eq. 2::

    L = L_SL + alpha * L_EP + beta * Omega(Theta)

AHEP is HEP with *adaptive sampling*: instead of the whole neighbor set,
each type's neighbors are sampled from a variance-minimizing distribution
(probability proportional to neighbor degree — the importance weight whose
inclusion-probability rescaling keeps the reconstruction unbiased). The
experimental contract (Figure 10 / Table 7): AHEP is 2–3× faster and much
lighter per batch, at a modest quality cost.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, edge_batches, train_steps, unit_rows
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.nn.init import xavier_uniform
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


def typed_adjacency(
    indptr: np.ndarray,
    indices: np.ndarray,
    vertex_types: np.ndarray,
    n_types: int,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Split one CSR adjacency into per-target-type CSRs, order-preserving.

    Masking the flat ``indices`` by target type keeps both the row grouping
    and the in-row neighbor order, so type ``c``'s neighbor list of vertex
    ``v`` is ``t_indices[t_indptr[v]:t_indptr[v+1]]`` — the per-(vertex,
    type) neighbor lists HEP's EP term reads, without any per-vertex loop.
    """
    n = indptr.size - 1
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    out = []
    for c in range(n_types):
        mask = vertex_types[indices] == c
        counts = np.bincount(row_ids[mask], minlength=n)
        t_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        out.append((t_indptr, indices[mask]))
    return out


def hep_neighbor_rows(
    t_indptr: np.ndarray,
    t_indices: np.ndarray,
    vertices: np.ndarray,
    cap: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """HEP's deterministic padded pick, batched: (valid, (n_valid, cap)).

    Per valid vertex (non-empty typed list): the first ``cap`` neighbors,
    cyclically tiled when the list is shorter — one gather via a modular
    column index, id-identical to the old per-vertex ``_pad(typed[:cap])``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    deg = t_indptr[vertices + 1] - t_indptr[vertices]
    valid = vertices[deg > 0]
    if valid.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    take = np.minimum(deg[deg > 0], cap)
    col = np.arange(cap, dtype=np.int64)
    return valid, t_indices[t_indptr[valid][:, None] + col % take[:, None]]


class HEP(EmbeddingModel):
    """Embedding propagation over typed neighborhoods (full neighbor sets).

    ``neighbor_cap`` bounds the per-type neighbor list (hub safety valve) —
    HEP's defining cost is that this cap is large; AHEP shrinks it to a
    handful of *importance-sampled* neighbors.
    """

    name = "hep"
    adaptive_sampling = False

    def __init__(
        self,
        dim: int = 64,
        neighbor_cap: int = 24,
        steps: int = 150,
        batch_size: int = 256,
        neg_num: int = 5,
        alpha: float = 0.5,
        beta: float = 1e-5,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.neighbor_cap = neighbor_cap
        self.steps = steps
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.alpha = alpha
        self.beta = beta
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None
        #: peak embedding rows touched in one batch — the memory proxy
        #: Figure 10 reports.
        self.peak_batch_rows = 0

    # ------------------------------------------------------------------ #
    def fit(self, graph: AttributedHeterogeneousGraph) -> "HEP":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("HEP/AHEP need an AHG")
        rng = make_rng(self.seed)
        n = graph.n_vertices
        degrees = graph.out_degrees()
        emb = Embedding(n, self.dim, rng)
        n_types = len(graph.vertex_type_names)
        recon = [
            Tensor(xavier_uniform((self.dim, self.dim), rng), requires_grad=True)
            for _ in range(n_types)
        ]
        params = emb.parameters() + recon
        optimizer = Adam(params, lr=self.lr)
        # Pre-index neighbors by type for the EP term.
        vertex_types = graph.vertex_types
        self.peak_batch_rows = 0

        from repro.nn import functional as F
        from repro.utils.alias import GroupedAliasTable

        indptr, indices, _ = graph.csr_arrays()
        typed_csr = typed_adjacency(indptr, indices, vertex_types, n_types)
        # AHEP redraw machinery: one grouped alias table per type over the
        # variance-minimizing weights (neighbor degree + 1), built lazily —
        # a whole batch of heavy rows then resamples in one kernel call.
        grouped_alias: "list[GroupedAliasTable | None]" = [None] * n_types

        def typed_neighbor_table(
            vertices: np.ndarray, c: int
        ) -> tuple[np.ndarray, np.ndarray]:
            """(valid vertices, (n_valid, cap) padded neighbor ids) for type c.

            Cost — the gathered row count — is proportional to the cap,
            which is the whole HEP-vs-AHEP trade. One batched cyclic gather
            covers HEP rows and AHEP's small rows (first ``cap`` neighbors,
            tiled when fewer — identical ids to the old per-vertex pad);
            AHEP rows over the cap are overwritten by one grouped
            importance draw (with replacement — standard importance
            sampling) in O(n_heavy * cap).
            """
            t_indptr, t_indices = typed_csr[c]
            cap = self.neighbor_cap
            valid, rows = hep_neighbor_rows(t_indptr, t_indices, vertices, cap)
            if valid.size and self.adaptive_sampling:
                vdeg = t_indptr[valid + 1] - t_indptr[valid]
                heavy = vdeg > cap
                if heavy.any():
                    if grouped_alias[c] is None:
                        grouped_alias[c] = GroupedAliasTable(
                            degrees[t_indices].astype(np.float64) + 1.0, t_indptr
                        )
                    flat = grouped_alias[c].draw_for_groups(valid[heavy], cap, rng)
                    rows[heavy] = t_indices[flat]
            return valid, rows

        def loss_fn(src: np.ndarray, dst: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            # Supervised link loss (L_SL).
            loss = skipgram_negative_loss(emb(src), emb(dst), emb(neg_ids))
            # Embedding-propagation loss (L_EP) over the batch sources.
            batch_rows = src.size + dst.size + neg_ids.size
            ep_vertices = np.unique(src)
            ep_terms = []
            n_ep = 0
            for c in range(n_types):
                valid, table = typed_neighbor_table(ep_vertices, c)
                if valid.size == 0:
                    continue
                batch_rows += table.size
                gathered = emb(table.reshape(-1))  # (n_valid*cap, d)
                pooled = F.mean_rows_segmented(gathered, self.neighbor_cap)
                h_rec = pooled @ recon[c]  # (n_valid, d)
                diff = emb(valid) - h_rec
                ep_terms.append((diff * diff).sum())
                n_ep += valid.size
            if ep_terms:
                ep_loss = ep_terms[0]
                for term in ep_terms[1:]:
                    ep_loss = ep_loss + term
                loss = loss + ep_loss * (self.alpha / max(n_ep, 1))
            # Regularizer Omega(Theta).
            reg = None
            for w in recon:
                term = (w * w).sum()
                reg = term if reg is None else reg + term
            self.peak_batch_rows = max(self.peak_batch_rows, batch_rows)
            return loss + reg * self.beta

        batches = edge_batches(graph, rng, self.steps, self.batch_size, self.neg_num)
        train_steps(batches, loss_fn, optimizer)
        self._embeddings = unit_rows(emb.table.numpy())
        return self


class AHEP(HEP):
    """HEP with adaptive (importance-sampled) typed neighborhoods."""

    name = "ahep"
    adaptive_sampling = True

    def __init__(self, neighbor_cap: int = 6, **kwargs: object) -> None:
        kwargs.setdefault("dim", 64)
        super().__init__(neighbor_cap=neighbor_cap, **kwargs)
