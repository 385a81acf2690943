"""AliGraph storage layer (paper §3.2–3.3 infrastructure).

Reproduces the three storage techniques of the paper — graph partition,
separate structure/attribute storage with LRU-fronted deduplicating indices,
and importance-based caching of neighbors — plus the distributed graph-server
simulation with exact local/remote/cache access accounting and the lock-free
request-flow buckets of Figure 6.
"""

from repro.storage.attributes import AttributeIndex, SeparateAttributeStore
from repro.storage.cache import (
    CachePolicy,
    ImportanceCachePolicy,
    LRUCachePolicy,
    NeighborCache,
    RandomCachePolicy,
    make_caches,
    make_pinned_cache,
)
from repro.storage.cluster import DistributedGraphStore, build_distributed
from repro.storage.costmodel import CostModel
from repro.storage.embedding import (
    EmbeddingKVStore,
    EmbeddingMinibatch,
    EmbeddingShard,
)
from repro.storage.importance import (
    CachePlan,
    importance_scores,
    khop_degrees,
    plan_importance_cache,
)
from repro.storage.placement import (
    PlacementConfig,
    PlacementController,
    attach_placement,
)
from repro.storage.replicas import ReplicaRegistry
from repro.storage.server import GraphServer

__all__ = [
    "AttributeIndex",
    "SeparateAttributeStore",
    "NeighborCache",
    "CachePolicy",
    "ImportanceCachePolicy",
    "RandomCachePolicy",
    "LRUCachePolicy",
    "make_caches",
    "make_pinned_cache",
    "CostModel",
    "GraphServer",
    "ReplicaRegistry",
    "DistributedGraphStore",
    "build_distributed",
    "EmbeddingKVStore",
    "EmbeddingMinibatch",
    "EmbeddingShard",
    "CachePlan",
    "importance_scores",
    "khop_degrees",
    "plan_importance_cache",
    "PlacementConfig",
    "PlacementController",
    "attach_placement",
]
