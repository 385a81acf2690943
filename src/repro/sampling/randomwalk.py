"""Random-walk generators: DeepWalk, node2vec and metapath walks.

The skip-gram family (DeepWalk, Node2Vec, Metapath2Vec, GATNE's training
walks, Mixture GNN) all consume vertex sequences; these generators produce
them over any :class:`Graph`/AHG. Walks stop early at sink vertices — the
truncated walk is returned as-is.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError, check_ids
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph
from repro.sampling.kernels import CsrAdjacency
from repro.utils.rng import bounded_integers


def random_walks(
    graph: Graph,
    starts: np.ndarray,
    length: int,
    rng: np.random.Generator,
) -> "list[np.ndarray]":
    """Uniform walks of ``length`` steps per start.

    All walks step in lock-step over a CSR snapshot — one vectorized draw
    per step for the whole frontier of alive walks.
    """
    if length < 1:
        raise SamplingError(f"walk length must be positive, got {length}")
    starts = check_ids(starts, graph.n_vertices, SamplingError, "start ids")
    csr = CsrAdjacency.from_graph(graph)
    m = starts.size
    out = np.empty((m, length + 1), dtype=np.int64)
    out[:, 0] = starts
    current = starts.copy()
    lengths = np.ones(m, dtype=np.int64)
    alive = csr.degrees[current] > 0  # walks not yet stuck at a sink
    for step in range(1, length + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        vs = current[idx]
        slot = bounded_integers(rng, csr.degrees[vs])
        nxt = csr.indices[csr.indptr[vs] + slot]
        out[idx, step] = nxt
        current[idx] = nxt
        lengths[idx] += 1
        alive[idx] = csr.degrees[nxt] > 0
    return [out[i, : lengths[i]] for i in range(m)]


def node2vec_walks(
    graph: Graph,
    starts: np.ndarray,
    length: int,
    rng: np.random.Generator,
    p: float = 1.0,
    q: float = 1.0,
) -> "list[np.ndarray]":
    """Biased walks with node2vec's return (p) and in-out (q) parameters.

    Transition from ``t -> v -> x`` is reweighted by 1/p if ``x == t``, 1 if
    ``x`` neighbors ``t``, and 1/q otherwise.
    """
    if length < 1:
        raise SamplingError(f"walk length must be positive, got {length}")
    if p <= 0 or q <= 0:
        raise SamplingError(f"p and q must be positive, got p={p}, q={q}")
    neighbor_sets = [set(int(u) for u in graph.out_neighbors(v)) for v in range(graph.n_vertices)]
    walks = []
    for start in np.asarray(starts, dtype=np.int64):
        walk = [int(start)]
        prev: int | None = None
        current = int(start)
        for _ in range(length):
            nbrs = graph.out_neighbors(current)
            if nbrs.size == 0:
                break
            if prev is None:
                nxt = int(nbrs[rng.integers(nbrs.size)])
            else:
                bias = np.empty(nbrs.size, dtype=np.float64)
                prev_nbrs = neighbor_sets[prev]
                for i, x in enumerate(nbrs):
                    x = int(x)
                    if x == prev:
                        bias[i] = 1.0 / p
                    elif x in prev_nbrs:
                        bias[i] = 1.0
                    else:
                        bias[i] = 1.0 / q
                nxt = int(nbrs[rng.choice(nbrs.size, p=bias / bias.sum())])
            walk.append(nxt)
            prev, current = current, nxt
        walks.append(np.asarray(walk, dtype=np.int64))
    return walks


def metapath_walks(
    graph: AttributedHeterogeneousGraph,
    starts: np.ndarray,
    metapath: "list[str]",
    length: int,
    rng: np.random.Generator,
) -> "list[np.ndarray]":
    """Metapath2Vec walks constrained to follow a vertex-type pattern.

    ``metapath`` is a cyclic vertex-type sequence, e.g. ``["user", "item"]``;
    each step moves to a uniformly chosen neighbor whose type matches the
    next entry (cycling). Walks stop early when no neighbor matches.
    """
    if length < 1:
        raise SamplingError(f"walk length must be positive, got {length}")
    if len(metapath) < 2:
        raise SamplingError("a metapath needs at least two vertex types")
    type_codes = [graph.vertex_type_code(t) for t in metapath]
    walks = []
    for start in np.asarray(starts, dtype=np.int64):
        start = int(start)
        if int(graph.vertex_types[start]) != type_codes[0]:
            raise SamplingError(
                f"walk start {start} is not of type {metapath[0]!r}"
            )
        walk = [start]
        current = start
        for step in range(length):
            want = type_codes[(step + 1) % len(type_codes)]
            nbrs = graph.out_neighbors(current)
            if nbrs.size == 0:
                break
            matching = nbrs[graph.vertex_types[nbrs] == want]
            if matching.size == 0:
                break
            current = int(matching[rng.integers(matching.size)])
            walk.append(current)
        walks.append(np.asarray(walk, dtype=np.int64))
    return walks


def walk_context_pairs(
    walks: "list[np.ndarray]", window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram (center, context) pairs within ``window`` of each other."""
    if window < 1:
        raise SamplingError(f"window must be positive, got {window}")
    centers: list[int] = []
    contexts: list[int] = []
    for walk in walks:
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(int(center))
                    contexts.append(int(walk[j]))
    return (
        np.asarray(centers, dtype=np.int64),
        np.asarray(contexts, dtype=np.int64),
    )
