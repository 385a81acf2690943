"""Calibratable cost model for the simulated cluster.

The paper's §5.1 numbers were measured on Alibaba's production cluster. We
reproduce their *shape* on one machine by counting storage events exactly
(local reads, neighbor-cache hits, remote RPCs, items shipped, attribute
decodes) and pricing them with this table. Defaults are calibrated to
commodity-datacenter magnitudes — in-memory read ~1µs, intra-DC RPC ~100µs —
which put the modelled results in the same millisecond regime as Tables 4–5
and Figure 9.

Every experiment that uses modelled time also reports the raw counts, so the
calibration is transparent and swappable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.timer import CostAccumulator

#: Canonical event names recorded by the storage layer.
EV_LOCAL_READ = "local_read"  # adjacency row read on the owning server
EV_CACHE_HIT = "cache_hit"  # neighbor served from a NeighborCache
EV_REMOTE_RPC = "remote_rpc"  # one round trip to another server
EV_ITEM_SHIPPED = "item_shipped"  # one vertex id serialized over the wire
EV_ATTR_DECODE = "attr_decode"  # one attribute payload decoded
EV_ATTR_CACHE_HIT = "attr_cache_hit"  # attribute served from the IV cache
EV_CACHE_FILL = "cache_fill"  # demand-filled cache admission (LRU)
EV_EDGE_INGESTED = "edge_ingested"  # one edge processed during build
EV_COORDINATION = "coordination"  # per-build-round coordination barrier
EV_FAILOVER_READ = "failover_read"  # read served from a replica after a
# worker failure (a remote hop to whichever healthy cache holds the entry)
EV_SUSPECT_ROUTE = "suspect_route"  # read routed around a *suspect* (not
# fail-stopped) server to a healthy replica
EV_DEGRADED_READ = "degraded_read"  # unavailable read answered with an
# empty row because the store runs in degraded mode (opt-in)
EV_REPLICA_REFRESH = "replica_refresh"  # fresh adjacency pushed to one
# replica holder after a streaming edge update (re-pin)
EV_EMB_LOCAL_ROW = "emb_row_local"  # embedding row pulled from the local shard
EV_EMB_ROW_UPDATE = "emb_row_update"  # one embedding row updated in place by
# a pushed sparse gradient (server-side optimizer application)
EV_REPLICA_INSTALL = "replica_install"  # adjacency row pinned on a non-owner
# by the placement controller (promotion; priced like a replica refresh)
EV_REPLICA_DROP = "replica_drop"  # pinned replica evicted by the controller
# (demotion; bookkeeping only, no wire traffic)
EV_VERTEX_MIGRATED = "vertex_migrated"  # ownership of one vertex handed from
# one server to another by the incremental repartitioner (commit bookkeeping;
# the data movement itself is priced through the migration RPCs)
EV_MIGRATION_RPC = "migration_rpc"  # one migration-protocol round trip
# (fetch or release). Kept distinct from EV_REMOTE_RPC so benchmarks can
# report read-path traffic and migration traffic separately.


@dataclass(frozen=True)
class CostModel:
    """Per-event costs in microseconds."""

    local_read_us: float = 1.0
    cache_hit_us: float = 0.5
    remote_rpc_us: float = 100.0
    item_shipped_us: float = 0.05
    attr_decode_us: float = 2.0
    attr_cache_hit_us: float = 0.2
    cache_fill_us: float = 1.5
    edge_ingest_us: float = 1.2
    coordination_us: float = 50_000.0
    failover_read_us: float = 120.0
    suspect_route_us: float = 120.0
    degraded_read_us: float = 0.5
    replica_refresh_us: float = 100.0
    emb_row_local_us: float = 0.8
    emb_row_update_us: float = 0.6
    replica_install_us: float = 100.0
    replica_drop_us: float = 0.5
    vertex_migrate_us: float = 5.0
    migration_rpc_us: float = 100.0

    def cost_table(self) -> dict[str, float]:
        """Event-name -> µs mapping consumed by :class:`CostAccumulator`."""
        return {
            EV_LOCAL_READ: self.local_read_us,
            EV_CACHE_HIT: self.cache_hit_us,
            EV_REMOTE_RPC: self.remote_rpc_us,
            EV_ITEM_SHIPPED: self.item_shipped_us,
            EV_ATTR_DECODE: self.attr_decode_us,
            EV_ATTR_CACHE_HIT: self.attr_cache_hit_us,
            EV_CACHE_FILL: self.cache_fill_us,
            EV_EDGE_INGESTED: self.edge_ingest_us,
            EV_COORDINATION: self.coordination_us,
            EV_FAILOVER_READ: self.failover_read_us,
            EV_SUSPECT_ROUTE: self.suspect_route_us,
            EV_DEGRADED_READ: self.degraded_read_us,
            EV_REPLICA_REFRESH: self.replica_refresh_us,
            EV_EMB_LOCAL_ROW: self.emb_row_local_us,
            EV_EMB_ROW_UPDATE: self.emb_row_update_us,
            EV_REPLICA_INSTALL: self.replica_install_us,
            EV_REPLICA_DROP: self.replica_drop_us,
            EV_VERTEX_MIGRATED: self.vertex_migrate_us,
            EV_MIGRATION_RPC: self.migration_rpc_us,
        }

    def replication_gain_us(
        self, remote_reads: float, out_degree: int, refreshes: float = 0.0
    ) -> float:
        """Modelled net µs saved by pinning one vertex on one reader part.

        ``remote_reads`` is the (possibly decay-weighted) number of reads
        the candidate part issued for the vertex over the decision window;
        ``refreshes`` the churn events expected over the same window.
        Positive means the replica pays for its install + upkeep.
        """
        per_read = self.remote_rpc_us - self.cache_hit_us
        upkeep = refreshes * (
            self.replica_refresh_us + out_degree * self.item_shipped_us
        )
        install = self.replica_install_us + out_degree * self.item_shipped_us
        return remote_reads * per_read - upkeep - install

    def migration_cost_us(self, n_items: int) -> float:
        """Wire cost of migrating one vertex: fetch + release round trips."""
        return 2.0 * self.migration_rpc_us + n_items * self.item_shipped_us

    def migration_gain_us(
        self, reads_to_target: float, reads_from_owner: float
    ) -> float:
        """Modelled µs/window saved by moving a vertex to its hottest reader.

        Reads from the target part turn remote → local; reads the current
        owner still issues turn local → remote, so only the differential
        counts.
        """
        per_read = self.remote_rpc_us - self.local_read_us
        return (reads_to_target - reads_from_owner) * per_read

    def accumulator(self) -> CostAccumulator:
        """Fresh accumulator priced with this model."""
        return CostAccumulator(costs=self.cost_table())
