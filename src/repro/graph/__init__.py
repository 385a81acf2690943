"""Core graph data model: simple graphs, attributed heterogeneous graphs
(AHGs, paper §2) and dynamic snapshot sequences, with CSR adjacency."""

from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.dynamic import DynamicGraph, EdgeEvent
from repro.graph.graph import Graph

__all__ = [
    "Graph",
    "AttributedHeterogeneousGraph",
    "DynamicGraph",
    "EdgeEvent",
]
