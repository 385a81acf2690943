"""Per-vertex access recorders and miners: the oracle for the columnar ones.

:class:`CounterRecorder` takes one ``record`` call per resolved read and
keeps every count in a ``Counter`` keyed by vertex (or ``(issuer, owner)``,
or ``(vertex, issuer)``); :class:`WindowedCounterRecorder` adds the decayed
window as dicts that drop a key once its weight falls below the floor.
:func:`mine_workload` and :func:`cache_efficacy` are the miners over those
maps. ``repro.obs.workload`` keeps the same state as arrays and takes one
call per read arm; ``tests/test_obs.py`` holds the two equal on random arm
streams.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.workload import _DECAY_EPS, CAPACITIES, REMOTE_ROUTES, ROUTES, fit_zipf


class CounterRecorder:
    """One ``record(vertex, owner, issuer, route)`` per resolved read."""

    def __init__(self) -> None:
        self.vertex_reads: Counter = Counter()
        self.cross_part_reads: Counter = Counter()
        self.vertex_owner: "dict[int, int]" = {}
        self.route_reads: Counter = Counter()
        self.traffic: Counter = Counter()

    def record(self, vertex: int, owner: int, issuer: int, route: str) -> None:
        self.vertex_reads[vertex] += 1
        self.vertex_owner[vertex] = owner
        self.route_reads[route] += 1
        self.traffic[(issuer, owner)] += 1
        if owner != issuer:
            self.cross_part_reads[vertex] += 1

    @property
    def total_reads(self) -> int:
        return sum(self.route_reads.values())


class WindowedCounterRecorder(CounterRecorder):
    """:class:`CounterRecorder` plus decayed ``(vertex, issuer)`` maps."""

    def __init__(self) -> None:
        super().__init__()
        self._win_issuer: Counter = Counter()
        self._win_remote: Counter = Counter()
        self.decayed_issuer_reads: "dict[tuple[int, int], float]" = {}
        self.decayed_remote_reads: "dict[tuple[int, int], float]" = {}

    def record(self, vertex: int, owner: int, issuer: int, route: str) -> None:
        super().record(vertex, owner, issuer, route)
        self._win_issuer[(vertex, issuer)] += 1
        if route in REMOTE_ROUTES:
            self._win_remote[(vertex, issuer)] += 1

    @staticmethod
    def _fold(decayed: dict, window: Counter, decay: float) -> None:
        for key in list(decayed):
            weight = decayed[key] * decay
            if weight < _DECAY_EPS:
                del decayed[key]
            else:
                decayed[key] = weight
        for key, count in window.items():
            decayed[key] = decayed.get(key, 0.0) + float(count)
        window.clear()

    def roll(self, decay: float) -> None:
        self._fold(self.decayed_issuer_reads, self._win_issuer, decay)
        self._fold(self.decayed_remote_reads, self._win_remote, decay)


def mine_workload(recorder: CounterRecorder, top_k: int = 20) -> dict:
    total = recorder.total_reads
    report: dict = {
        "total_reads": total,
        "unique_vertices": len(recorder.vertex_reads),
        "routes": {r: int(recorder.route_reads.get(r, 0)) for r in ROUTES},
    }
    if total == 0:
        report.update(
            {"hot_vertices": [], "parts": [], "traffic_matrix": [], "local_share": 0.0, "zipf": None}
        )
        return report
    hot = sorted(recorder.vertex_reads.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    report["hot_vertices"] = [
        {
            "vertex": int(v),
            "reads": int(c),
            "share": round(c / total, 6),
            "owner": int(recorder.vertex_owner[v]),
            "cross_part": int(recorder.cross_part_reads.get(v, 0)),
        }
        for v, c in hot
    ]
    parts = sorted(
        {p for pair in recorder.traffic for p in pair} | set(recorder.vertex_owner.values())
    )
    index = {p: i for i, p in enumerate(parts)}
    matrix = [[0] * len(parts) for _ in parts]
    for (issuer, owner), c in recorder.traffic.items():
        matrix[index[issuer]][index[owner]] += int(c)
    local = sum(matrix[i][i] for i in range(len(parts)))
    report["parts"] = [int(p) for p in parts]
    report["traffic_matrix"] = matrix
    report["local_share"] = round(local / total, 6)
    report["zipf"] = fit_zipf(list(recorder.vertex_reads.values()))
    return report


def cache_efficacy(recorder: CounterRecorder, cost_model: "object") -> dict:
    remote_us = float(cost_model.remote_rpc_us)
    hit_us = float(cost_model.cache_hit_us)
    cross = sorted(recorder.cross_part_reads.items(), key=lambda kv: (-kv[1], kv[0]))
    cross_total = sum(c for _, c in cross)
    worst_us = cross_total * remote_us
    observed_hits = int(recorder.route_reads.get("cache_hit", 0))
    observed_us = observed_hits * hit_us + (cross_total - observed_hits) * remote_us

    def share(x: float, of: float) -> float:
        return round(x / of, 6) if of else 0.0

    def saved(us: float) -> float:
        return round(1.0 - us / worst_us, 6) if worst_us else 0.0

    rows = []
    for k in CAPACITIES:
        saved_reads = sum(c for _, c in cross[: int(k)])
        oracle_us = saved_reads * hit_us + (cross_total - saved_reads) * remote_us
        rows.append(
            {
                "capacity": int(k),
                "hit_rate": share(saved_reads, cross_total),
                "modelled_us": round(oracle_us, 3),
                "saved_vs_uncached": saved(oracle_us),
            }
        )
    return {
        "cross_part_reads": int(cross_total),
        "unique_cross_part_vertices": len(cross),
        "uncached_us": round(worst_us, 3),
        "observed": {
            "cache_hits": observed_hits,
            "hit_rate": share(observed_hits, cross_total),
            "modelled_us": round(observed_us, 3),
            "saved_vs_uncached": saved(observed_us),
        },
        "oracle": rows,
    }
