"""Shared utilities: seeded RNG, alias sampling, LRU cache, power-law tools,
cost accounting and plain-text table rendering."""

from repro.utils.alias import AliasTable
from repro.utils.lru import LRUCache
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.tables import format_table
from repro.utils.timer import CostAccumulator

__all__ = [
    "AliasTable",
    "LRUCache",
    "make_rng",
    "spawn_rngs",
    "format_table",
    "CostAccumulator",
]
