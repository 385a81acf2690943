"""Attributed Heterogeneous Graph (paper §2).

An AHG is the tuple ``(V, E, W, T_V, T_E, A_V, A_E)``: a weighted graph plus
vertex/edge type mapping functions and attribute mapping functions. The paper
requires ``|F_V| >= 2`` and/or ``|F_E| >= 2`` for heterogeneity; we model
types as small integer codes with a name table and vertex attributes as
dense float32 feature rows (``x_{v,i}``). No model the paper evaluates reads
edge attributes ``A_E``, so none are stored.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemaError
from repro.graph.graph import Graph


class AttributedHeterogeneousGraph(Graph):
    """A :class:`Graph` enriched with types and attribute feature rows.

    Parameters
    ----------
    vertex_types:
        Integer type code per vertex, indexing ``vertex_type_names``.
    edge_types:
        Integer type code per edge (aligned with ``src`` / ``dst``),
        indexing ``edge_type_names``.
    vertex_features:
        ``(n, f_v)`` float matrix: the attribute vector ``x_v`` per vertex.
        Heterogeneous widths are zero-padded to the common width.
    """

    def __init__(
        self,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        vertex_types: np.ndarray,
        edge_types: np.ndarray,
        vertex_type_names: list[str],
        edge_type_names: list[str],
        weights: np.ndarray | None = None,
        directed: bool = True,
        vertex_features: np.ndarray | None = None,
    ) -> None:
        super().__init__(n_vertices, src, dst, weights=weights, directed=directed)
        vertex_types = np.asarray(vertex_types, dtype=np.int64)
        edge_types = np.asarray(edge_types, dtype=np.int64)
        if vertex_types.shape != (n_vertices,):
            raise SchemaError("vertex_types must have one entry per vertex")
        if edge_types.shape != (self.n_edges,):
            raise SchemaError("edge_types must have one entry per edge")
        if not vertex_type_names:
            raise SchemaError("vertex_type_names must not be empty")
        if not edge_type_names:
            raise SchemaError("edge_type_names must not be empty")
        if vertex_types.size and vertex_types.max() >= len(vertex_type_names):
            raise SchemaError("vertex type code exceeds the name table")
        if edge_types.size and edge_types.max() >= len(edge_type_names):
            raise SchemaError("edge type code exceeds the name table")
        if len(vertex_type_names) < 2 and len(edge_type_names) < 2:
            raise SchemaError(
                "an AHG needs at least two vertex types and/or two edge types "
                "(|F_V| >= 2 and/or |F_E| >= 2)"
            )

        self.vertex_types = vertex_types
        self.edge_types = edge_types
        self.vertex_type_names = list(vertex_type_names)
        self.edge_type_names = list(edge_type_names)

        if vertex_features is not None:
            vertex_features = np.asarray(vertex_features, dtype=np.float32)
            if vertex_features.shape[0] != n_vertices:
                raise SchemaError("vertex_features must have one row per vertex")
        self.vertex_features = vertex_features

    def __repr__(self) -> str:
        return (
            f"AHG(n={self.n_vertices}, m={self.n_edges}, "
            f"vtypes={self.vertex_type_names}, etypes={self.edge_type_names})"
        )

    # ------------------------------------------------------------------ #
    # Type lookups
    # ------------------------------------------------------------------ #
    def vertex_type_code(self, name: str) -> int:
        """Integer code of vertex type ``name``."""
        try:
            return self.vertex_type_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown vertex type {name!r}") from None

    def edge_type_code(self, name: str) -> int:
        """Integer code of edge type ``name``."""
        try:
            return self.edge_type_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown edge type {name!r}") from None

    def vertices_of_type(self, name: str) -> np.ndarray:
        """All vertex ids whose type is ``name``."""
        return np.flatnonzero(self.vertex_types == self.vertex_type_code(name))

    def edge_type_subgraph(self, edge_type: str) -> Graph:
        """A plain :class:`Graph` over only the edges of ``edge_type``.

        This is the extraction step the paper's evaluation uses to run
        homogeneous baselines per edge type and concatenate the embeddings.
        """
        code = self.edge_type_code(edge_type)
        mask = self.edge_types == code
        src, dst, w = self.edge_array()
        return Graph(
            n_vertices=self.n_vertices,
            src=src[mask],
            dst=dst[mask],
            weights=w[mask],
            directed=self.directed,
        )

    def describe(self) -> dict[str, object]:
        """Summary statistics in the shape of the paper's Tables 3/6."""
        vt_counts = {
            name: int(np.sum(self.vertex_types == code))
            for code, name in enumerate(self.vertex_type_names)
        }
        et_counts = {
            name: int(np.sum(self.edge_types == code))
            for code, name in enumerate(self.edge_type_names)
        }
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_vertex_types": len(self.vertex_type_names),
            "n_edge_types": len(self.edge_type_names),
            "vertices_by_type": vt_counts,
            "edges_by_type": et_counts,
            "feature_dim": 0
            if self.vertex_features is None
            else int(self.vertex_features.shape[1]),
        }
