"""Synthetic data substrate.

The paper's evaluation runs on two proprietary Taobao production graphs and
an Amazon metadata graph. This package generates seeded synthetic stand-ins
that preserve the properties the experiments depend on: power-law in/out
degrees (Theorems 1–2), user/item bipartite + item-item topology, four
behaviour edge types, overlapping discrete attributes (for the dedup store),
the 6× small/large size ratio, dynamic snapshots with normal + burst
evolution, and a brand/category knowledge graph for the Bayesian GNN.

Picks are drawn in batch from the stream a per-element ``Generator.choice``
loop uses: ``k`` weighted picks are one ``rng.random(k)`` searched in the
pool's ``choice_cdf``, bounded picks one broadcast ``rng.integers``. Same
seed, same graph, bit for bit (oracle: the loops in ``tests/test_data.py``).
``dynamic_taobao`` and ``train_test_split_edges`` keep their loops: how many
rejection draws they make depends on the data drawn before.
"""

from repro.data.amazon import amazon_graph
from repro.data.datasets import DATASETS, make_dataset
from repro.data.dynamic import dynamic_taobao
from repro.data.knowledge import knowledge_graph
from repro.data.splits import LinkSplit, train_test_split_edges
from repro.data.synthetic import powerlaw_graph, taobao_graph

__all__ = [
    "taobao_graph",
    "powerlaw_graph",
    "amazon_graph",
    "dynamic_taobao",
    "knowledge_graph",
    "LinkSplit",
    "train_test_split_edges",
    "make_dataset",
    "DATASETS",
]
