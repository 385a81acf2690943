"""AliGraph sampling layer (paper §3.3).

Three sampler families — TRAVERSE, NEIGHBORHOOD, NEGATIVE — behind a plugin
interface, plus random-walk generators and the Figure 5 pipeline that
stitches the three families into one training-sample stage. Every entry point
checks its vertex ids and batch sizes before it draws.
"""

from repro.sampling.base import (
    GraphProvider,
    NeighborProvider,
    Sampler,
    SnapshotProvider,
    StoreProvider,
)
from repro.sampling.blocks import KHopBlock, build_block, build_block_from_tables
from repro.sampling.kernels import CsrAdjacency
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.sampling.neighborhood import (
    FullNeighborSampler,
    ImportanceNeighborSampler,
    NeighborhoodSample,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.sampling.pipeline import SamplingPipeline, TrainingBatch
from repro.sampling.randomwalk import metapath_walks, node2vec_walks, random_walks
from repro.sampling.traverse import EdgeTraverseSampler, VertexTraverseSampler

__all__ = [
    "Sampler",
    "NeighborProvider",
    "GraphProvider",
    "SnapshotProvider",
    "StoreProvider",
    "CsrAdjacency",
    "KHopBlock",
    "build_block",
    "build_block_from_tables",
    "VertexTraverseSampler",
    "EdgeTraverseSampler",
    "NeighborhoodSample",
    "UniformNeighborSampler",
    "WeightedNeighborSampler",
    "TopKNeighborSampler",
    "ImportanceNeighborSampler",
    "FullNeighborSampler",
    "DegreeBiasedNegativeSampler",
    "SamplingPipeline",
    "TrainingBatch",
    "random_walks",
    "node2vec_walks",
    "metapath_walks",
]
