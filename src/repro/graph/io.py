"""Graph serialization: one ``.npz`` bundle per attributed heterogeneous
graph (structure, vertex / edge types and the vertex feature matrix) — the
format the CLI's ``dataset`` command writes and every other command reads.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import DatasetError
from repro.graph.ahg import AttributedHeterogeneousGraph


def save_ahg(graph: AttributedHeterogeneousGraph, path: str) -> None:
    """Persist a full AHG (structure + types + features) to one ``.npz``."""
    src, dst, w = graph.edge_array()
    payload: dict[str, np.ndarray] = {
        "n_vertices": np.array([graph.n_vertices]),
        "directed": np.array([int(graph.directed)]),
        "src": src,
        "dst": dst,
        "weights": w,
        "vertex_types": graph.vertex_types,
        "edge_types": graph.edge_types,
        "vertex_type_names": np.array(graph.vertex_type_names),
        "edge_type_names": np.array(graph.edge_type_names),
    }
    if graph.vertex_features is not None:
        payload["vertex_features"] = graph.vertex_features
    np.savez_compressed(path, **payload)


def load_ahg(path: str) -> AttributedHeterogeneousGraph:
    """Load an AHG written by :func:`save_ahg`."""
    if not os.path.exists(path):
        raise DatasetError(f"AHG bundle not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        vertex_features = data["vertex_features"] if "vertex_features" in data else None
        return AttributedHeterogeneousGraph(
            n_vertices=int(data["n_vertices"][0]),
            src=data["src"],
            dst=data["dst"],
            vertex_types=data["vertex_types"],
            edge_types=data["edge_types"],
            vertex_type_names=[str(s) for s in data["vertex_type_names"]],
            edge_type_names=[str(s) for s in data["edge_type_names"]],
            weights=data["weights"],
            directed=bool(data["directed"][0]),
            vertex_features=vertex_features,
        )
