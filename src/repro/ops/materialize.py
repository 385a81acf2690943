"""Materialization of intermediate embeddings (paper §3.4, Table 5).

The paper accelerates AGGREGATE/COMBINE by sharing sampled neighbor sets
across a mini-batch and storing the *newest* intermediate vectors
``ĥ^(1..kmax)`` so repeated vertices are not recomputed. Two execution paths
implement the comparison of Table 5:

* **uncached** — each occurrence of a vertex in the sampled expansion tree
  recomputes its embedding (the naive per-vertex GNN recursion, flattened);
* **cached** — hop-k vectors are deduplicated within the batch and reused
  from the :class:`MaterializationCache` across batches ("the stored vector
  ĥ^(k) is updated by ĥ_v^(k)").

Both run the *same* operator plugins through the entry the training encoder
uses — ``comb(h_self, agg(h, child_index))`` — so the measured gap is
purely the eliminated recomputation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError, check_ids
from repro.nn.tensor import DTYPE, Tensor
from repro.sampling.blocks import compact_level
from repro.sampling.neighborhood import _ExpandingSampler


class MaterializationCache:
    """Per-hop store of the newest ``ĥ^(k)`` vector of each vertex.

    A direct-address table: per hop an ``int64`` slot per vertex id (-1 =
    absent) pointing into an append-only contiguous row buffer (grown
    geometrically), so a lookup is one index and a compare, a gather one
    index, and an update assigns slots and rows — nothing is searched,
    sorted or rebuilt.
    """

    def __init__(self, max_hop: int, n_vertices: int) -> None:
        if max_hop < 1:
            raise OperatorError("materialization cache needs max_hop >= 1")
        if n_vertices < 1:
            raise OperatorError(f"materialization cache needs vertices, got {n_vertices}")
        self.max_hop = max_hop
        self.n_vertices = n_vertices
        # Hop k lives at index k - 1: hop 0 is the feature matrix.
        self._slot = np.full((max_hop, n_vertices), -1, dtype=np.int64)
        self._rows: "list[np.ndarray | None]" = [None] * max_hop
        self._used = [0] * max_hop
        self.hits = 0
        self.misses = 0

    def _ids(self, hop: int, vertices: np.ndarray) -> np.ndarray:
        """``vertices`` as int64 ids, after the hop and range checks."""
        if not 1 <= hop <= self.max_hop:
            raise OperatorError(f"hop {hop} outside [1, {self.max_hop}]")
        return check_ids(vertices, self.n_vertices, OperatorError, "row ids")

    def lookup(self, hop: int, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``vertices`` into (cached mask, missing ids) for ``hop``."""
        verts = self._ids(hop, vertices)
        mask = self._slot[hop - 1][verts] >= 0
        hits = int(mask.sum())
        self.hits += hits
        self.misses += verts.size - hits
        return mask, verts[~mask]

    def get_rows(self, hop: int, vertices: np.ndarray) -> np.ndarray:
        """Stacked cached rows (every vertex must be present)."""
        verts = self._ids(hop, vertices)
        slots = self._slot[hop - 1][verts]
        if (slots < 0).any():
            raise OperatorError(
                f"vertex {int(verts[slots < 0][0])} not materialized at hop {hop}"
            )
        if self._rows[hop - 1] is None:
            raise OperatorError(f"nothing materialized at hop {hop}")
        return self._rows[hop - 1][slots]

    def update(self, hop: int, vertices: np.ndarray, values: np.ndarray) -> None:
        """Store/refresh the hop-``hop`` vectors of ``vertices``."""
        verts = self._ids(hop, vertices)
        vals = np.asarray(values)
        buf = self._rows[hop - 1]
        if (
            vals.ndim != 2
            or vals.shape[0] != verts.size
            or (buf is not None and vals.shape[1] != buf.shape[1])
        ):
            width = "d" if buf is None else buf.shape[1]
            raise OperatorError(
                f"hop {hop} update needs ({verts.size}, {width}) values, "
                f"got shape {vals.shape}"
            )
        if verts.size == 0:
            return
        # Last write wins for repeated vertices, matching per-vertex dict
        # assignment order: unique over the reversed array keeps each
        # vertex's *last* occurrence. (numpy promises no order for repeated
        # fancy-assignment targets, so the repeats must go first.)
        uniq, rev_idx = np.unique(verts[::-1], return_index=True)
        new_rows = vals[verts.size - 1 - rev_idx]
        slots = self._slot[hop - 1][uniq]
        fresh = slots < 0
        used = self._used[hop - 1]
        end = used + int(fresh.sum())
        if buf is None or end > buf.shape[0]:
            cap = max(64, 2 * end)
            grown = np.empty((cap, vals.shape[1]), dtype=vals.dtype)
            if used:
                grown[:used] = buf[:used]
            self._rows[hop - 1] = buf = grown
        slots[fresh] = np.arange(used, end)
        self._slot[hop - 1][uniq] = slots
        buf[slots] = new_rows
        self._used[hop - 1] = end

    @property
    def hit_rate(self) -> float:
        """Lookup hit fraction since construction."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MinibatchExecutor:
    """Runs the hop-k AGGREGATE/COMBINE recursion over a sampled context.

    Parameters
    ----------
    features:
        ``(n, f)`` input features (``h^(0) = x_v``).
    sampler:
        A neighborhood sampler (any :class:`_ExpandingSampler`).
    aggregators, combiners:
        One per hop, innermost first: hop-k uses ``aggregators[k-1]`` /
        ``combiners[k-1]``.
    fanouts:
        Neighbor samples per hop (aligned with aggregators).
    """

    def __init__(
        self,
        features: np.ndarray,
        sampler: _ExpandingSampler,
        aggregators: "list[object]",
        combiners: "list[object]",
        fanouts: "list[int]",
    ) -> None:
        if not (len(aggregators) == len(combiners) == len(fanouts)):
            raise OperatorError("need one aggregator/combiner/fanout per hop")
        if any(f < 1 for f in fanouts):
            raise OperatorError(f"fanouts must be positive, got {fanouts}")
        self.features = np.asarray(features, dtype=DTYPE)
        self.sampler = sampler
        self.aggregators = list(aggregators)
        self.combiners = list(combiners)
        self.fanouts = list(fanouts)
        self.kmax = len(fanouts)

    def _seeds(self, batch: np.ndarray) -> np.ndarray:
        """The batch as int64 seed ids, checked before anything is drawn."""
        batch = check_ids(batch, self.features.shape[0], OperatorError, "row ids")
        if batch.size == 0:
            raise OperatorError(f"batch must be non-empty, got shape {batch.shape}")
        return batch

    # ------------------------------------------------------------------ #
    # Uncached: full-multiplicity recomputation
    # ------------------------------------------------------------------ #
    def embed_batch_uncached(
        self, batch: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """h^(kmax) per seed, recomputing every tree occurrence."""
        sample = self.sampler.sample(self._seeds(batch), self.fanouts, rng)
        layers = sample.layers  # multiplicity arrays, layer j size B*prod(f_1..f_j)
        # states[j] holds h^(k) rows for layer j at the current k.
        states = [Tensor(self.features[layer]) for layer in layers]
        for k in range(1, self.kmax + 1):
            agg = self.aggregators[k - 1]
            comb = self.combiners[k - 1]
            new_states = []
            for j in range(len(layers) - k):
                # Tree level j+1 lists level j's children in order: the
                # child table is the identity.
                n, fanout = layers[j].size, self.fanouts[j]
                children = np.arange(n * fanout).reshape(n, fanout)
                new_states.append(comb(states[j], agg(states[j + 1], children)))
            states = new_states
        return states[0].numpy()

    # ------------------------------------------------------------------ #
    # Cached: dedup + materialization
    # ------------------------------------------------------------------ #
    def embed_batch_cached(
        self,
        batch: np.ndarray,
        rng: np.random.Generator,
        cache: MaterializationCache,
    ) -> np.ndarray:
        """h^(kmax) per seed with per-hop dedup and ĥ^(k) reuse.

        Sampled neighbor sets are shared across the mini-batch: each
        distinct vertex gets one neighbor sample per hop level.
        """
        batch = self._seeds(batch)
        if cache.max_hop < self.kmax:
            raise OperatorError(
                f"cache depth {cache.max_hop} < executor kmax {self.kmax}"
            )
        # Top-down pruning pass: at each hop, only cache-missing vertices
        # sample children; their children become the next hop's demand. A
        # warm cache therefore skips both sampling and compute.
        plan = []
        n_vertices = self.features.shape[0]
        demand, _ = compact_level(n_vertices, batch)
        for k in range(self.kmax, 0, -1):
            _, missing = cache.lookup(k, demand)
            if missing.size == 0:
                break  # warm from here down: nothing to draw or compute
            kids = self.sampler.sample_children(
                missing, self.fanouts[self.kmax - k], rng
            )
            demand, (self_index, child_index) = compact_level(
                n_vertices, missing, kids
            )
            plan.append((k, missing, demand, self_index, child_index))

        # Bottom-up compute of exactly the missing vectors, one block hop
        # each: the level's previous-hop rows are gathered once.
        for k, missing, level, self_index, child_index in reversed(plan):
            h = Tensor(self.features[level] if k == 1 else cache.get_rows(k - 1, level))
            agg = self.aggregators[k - 1]
            comb = self.combiners[k - 1]
            h_new = comb(h.gather_rows(self_index), agg(h, child_index))
            cache.update(k, missing, h_new.numpy())
        return cache.get_rows(self.kmax, batch)
