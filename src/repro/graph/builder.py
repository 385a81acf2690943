"""Incremental graph construction with external-id remapping.

:class:`GraphBuilder` is the single ingestion path for both plain graphs and
AHGs: callers add vertices/edges with arbitrary hashable external ids and
string type names, then :meth:`build` freezes everything into dense-id CSR
form. The distributed build pipeline (Figure 7) starts from the frozen
graph: its shards are slices of that CSR, not builder output (see
:func:`repro.storage.cluster.build_distributed`).
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.errors import GraphError, SchemaError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph


class GraphBuilder:
    """Accumulates vertices and edges, then freezes them into a graph.

    Vertices are implicitly created by ``add_edge``; call ``add_vertex`` to
    attach a type and attribute vector. Build a plain :class:`Graph` with
    :meth:`build` or an AHG with :meth:`build_ahg`.
    """

    def __init__(self, directed: bool = True) -> None:
        self.directed = directed
        self._id_map: dict[Hashable, int] = {}
        self._ext_ids: list[Hashable] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        self._weights: list[float] = []
        self._edge_type_names: list[str] = []
        self._edge_type_map: dict[str, int] = {}
        self._edge_types: list[int] = []
        self._vertex_type_names: list[str] = []
        self._vertex_type_map: dict[str, int] = {}
        self._vertex_types: dict[int, int] = {}
        self._vertex_features: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._src)

    @property
    def n_vertices(self) -> int:
        """Vertices seen so far."""
        return len(self._ext_ids)

    def _intern_vertex(self, ext_id: Hashable) -> int:
        vid = self._id_map.get(ext_id)
        if vid is None:
            vid = len(self._ext_ids)
            self._id_map[ext_id] = vid
            self._ext_ids.append(ext_id)
        return vid

    def _intern_vertex_type(self, name: str) -> int:
        code = self._vertex_type_map.get(name)
        if code is None:
            code = len(self._vertex_type_names)
            self._vertex_type_map[name] = code
            self._vertex_type_names.append(name)
        return code

    def _intern_edge_type(self, name: str) -> int:
        code = self._edge_type_map.get(name)
        if code is None:
            code = len(self._edge_type_names)
            self._edge_type_map[name] = code
            self._edge_type_names.append(name)
        return code

    def add_vertex(
        self,
        ext_id: Hashable,
        vtype: str = "default",
        features: np.ndarray | None = None,
    ) -> int:
        """Register a vertex with a type and optional attribute vector.

        Returns the internal dense id. Re-adding an existing vertex updates
        its type/features.
        """
        vid = self._intern_vertex(ext_id)
        self._vertex_types[vid] = self._intern_vertex_type(vtype)
        if features is not None:
            self._vertex_features[vid] = np.asarray(features, dtype=np.float32)
        return vid

    def add_edge(
        self,
        src: Hashable,
        dst: Hashable,
        weight: float = 1.0,
        etype: str = "default",
    ) -> None:
        """Append one edge; endpoints are interned automatically."""
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        self._src.append(self._intern_vertex(src))
        self._dst.append(self._intern_vertex(dst))
        self._weights.append(float(weight))
        self._edge_types.append(self._intern_edge_type(etype))

    def add_edges(
        self,
        edges: "list[tuple[Hashable, Hashable]]",
        weight: float = 1.0,
        etype: str = "default",
    ) -> None:
        """Bulk-append unweighted edges of one type."""
        for u, v in edges:
            self.add_edge(u, v, weight=weight, etype=etype)

    def external_ids(self) -> list[Hashable]:
        """External id of each internal vertex, in internal-id order."""
        return list(self._ext_ids)

    def internal_id(self, ext_id: Hashable) -> int:
        """Internal dense id of ``ext_id`` (raises if unseen)."""
        try:
            return self._id_map[ext_id]
        except KeyError:
            raise GraphError(f"unknown external vertex id {ext_id!r}") from None

    # ------------------------------------------------------------------ #
    # Freezing
    # ------------------------------------------------------------------ #
    def build(self) -> Graph:
        """Freeze into a plain :class:`Graph` (types/attributes dropped)."""
        return Graph(
            n_vertices=self.n_vertices,
            src=np.asarray(self._src, dtype=np.int64),
            dst=np.asarray(self._dst, dtype=np.int64),
            weights=np.asarray(self._weights, dtype=np.float64),
            directed=self.directed,
        )

    def _feature_matrix(self) -> np.ndarray | None:
        if not self._vertex_features:
            return None
        width = max(f.size for f in self._vertex_features.values())
        mat = np.zeros((self.n_vertices, width), dtype=np.float32)
        for vid, feat in self._vertex_features.items():
            mat[vid, : feat.size] = feat
        return mat

    def build_ahg(self) -> AttributedHeterogeneousGraph:
        """Freeze into an :class:`AttributedHeterogeneousGraph`.

        Vertices never explicitly typed get the implicit ``"default"`` type.
        """
        if not self._vertex_type_names and not self._edge_type_names:
            raise SchemaError("no types registered; build() a plain graph instead")
        default_code = self._intern_vertex_type("default") if any(
            vid not in self._vertex_types for vid in range(self.n_vertices)
        ) else 0
        vtypes = np.full(self.n_vertices, default_code, dtype=np.int64)
        for vid, code in self._vertex_types.items():
            vtypes[vid] = code
        return AttributedHeterogeneousGraph(
            n_vertices=self.n_vertices,
            src=np.asarray(self._src, dtype=np.int64),
            dst=np.asarray(self._dst, dtype=np.int64),
            vertex_types=vtypes,
            edge_types=np.asarray(self._edge_types, dtype=np.int64),
            vertex_type_names=self._vertex_type_names,
            edge_type_names=self._edge_type_names,
            weights=np.asarray(self._weights, dtype=np.float64),
            directed=self.directed,
            vertex_features=self._feature_matrix(),
        )
