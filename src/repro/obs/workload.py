"""Hot-vertex / traffic mining: turn access streams into placement signal.

The paper's §4 caching analysis presumes you *know* which vertices are hot
and which reads cross partitions; ROADMAP's trace-driven adaptive
partitioner needs the same signal. The ledger tells us "how many remote
RPCs", never "for which vertex" — so this module adds the missing per-key
stream and the miners over it:

* :class:`AccessRecorder` — rides the runtime as ``runtime.recorder``
  (``None`` = off); the store feeds it one call per resolved read,
  ``(vertex, owner, issuer, route)``. Counters only — no clock reads, no
  allocation beyond the `Counter` cells. (A served request is its
  :class:`~repro.serving.requests.ServeRecord`; the recorder keeps no copy.)
* :func:`mine_workload` — per-vertex access-frequency table (top-k hot
  list), partition-to-partition traffic matrix, locality share and a
  Zipf-skew fit of the frequency spectrum (:func:`fit_zipf`, reusing
  ``utils.stats``).
* :func:`cache_efficacy` — scores the observed cache against the clairvoyant
  top-``k`` cache under the §4 cost model: what the run actually paid per
  route versus what an oracle holding the ``k`` hottest cross-partition
  vertices would have paid.
* :func:`ledger_event_totals` — event totals from the tracer's ledger
  cross-reference rows (``tracer.ledger_rows``), for joining the two views.

Every report is a plain dict with sorted keys/rows: two same-seed runs
compare equal with ``==``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import ReproError
from repro.utils.stats import chi_square_gof, zipf_probs

#: Route names recorded by the store's dispatch arms, in ledger order.
ROUTES = (
    "local",
    "cache_hit",
    "remote",
    "failover",
    "suspect",
    "degraded",
)


class AccessRecorder:
    """Per-vertex access stream the store's read path feeds.

    ``record`` is called once per resolved read with the vertex, its owning
    partition, the issuing partition and the route the store's read path
    chose (one of :data:`ROUTES`); a batch's reads arrive arm by arm (local,
    cache hits, replica routes, remote), not in batch order. The recorder
    only increments counters, so the stream adds a dict update per read
    when installed and one ``is not None`` check per arm when not.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: vertex -> total reads, regardless of route.
        self.vertex_reads: Counter = Counter()
        #: vertex -> reads where owner != issuer (what a cache could save).
        self.cross_part_reads: Counter = Counter()
        #: vertex -> owning partition (static under a fixed assignment).
        self.vertex_owner: "dict[int, int]" = {}
        #: route name -> reads.
        self.route_reads: Counter = Counter()
        #: (issuer, owner) -> reads; the diagonal is local traffic.
        self.traffic: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
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


#: Routes that actually left the issuing server (a replica or migration
#: could have saved them). ``cache_hit`` is excluded: those reads were
#: already served locally.
REMOTE_ROUTES = frozenset({"remote", "failover", "suspect"})

#: Keys pruned from the decayed maps once their weight drops below this —
#: keeps roll() cost proportional to the *recent* working set, not history.
_DECAY_EPS = 1e-6


class WindowedAccessRecorder(AccessRecorder):
    """Access recorder with exponentially-decayed per-window statistics.

    Cumulative counters can't see a hot set *shift* — a vertex read a
    million times an hour ago outranks everything read this second. The
    placement controller instead consumes this recorder's decayed view, the
    two maps it reads: ``decayed_issuer_reads`` (every route) and
    ``decayed_remote_reads`` (reads that left the issuer), both keyed by
    ``(vertex, issuer)``. Each :meth:`roll` (one decision epoch) multiplies
    every decayed weight by ``decay`` and folds in the window just ended, so
    a key untouched for ``k`` windows carries ``decay**k`` of its old
    weight. The cumulative base-class view is untouched — existing miners
    and reports see exactly the counts a plain :class:`AccessRecorder`
    would have.
    """

    def __init__(self, decay: float = 0.5) -> None:
        if not 0.0 <= decay < 1.0:
            raise ReproError(f"decay must be in [0, 1), got {decay}")
        self.decay = float(decay)
        super().__init__()

    def reset(self) -> None:
        super().reset()
        # Current (un-rolled) window, raw counts.
        self._win_issuer: Counter = Counter()  # (vertex, issuer) all routes
        self._win_remote: Counter = Counter()  # (vertex, issuer) remote only
        # Decayed accumulators, folded on roll().
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

    def roll(self) -> None:
        """Close the current window: decay history, fold the window in."""
        self._fold(self.decayed_issuer_reads, self._win_issuer, self.decay)
        self._fold(self.decayed_remote_reads, self._win_remote, self.decay)


# ---------------------------------------------------------------------- #
# Zipf fit
# ---------------------------------------------------------------------- #
def fit_zipf(counts: "list[int] | np.ndarray") -> dict:
    """Fit a Zipf exponent to a frequency spectrum, plus goodness-of-fit.

    ``counts`` is the per-key frequency table in any order; the fit is over
    the rank-ordered spectrum. The exponent is the least-squares slope in
    log-log space over nonzero ranks (deterministic, dependency-free), and
    the chi-square GOF compares observed counts against the fitted
    ``zipf_probs`` — a *low* p-value with a high exponent still reads as
    "skewed", the p-value only says how exactly Zipfian the tail is.
    """
    spectrum = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    spectrum = spectrum[spectrum > 0]
    n = int(spectrum.size)
    if n == 0:
        raise ReproError("fit_zipf needs at least one nonzero count")
    total = float(spectrum.sum())
    top1 = float(spectrum[0] / total)
    top10 = float(spectrum[: max(1, n // 10)].sum() / total)
    if n == 1:
        return {
            "n_keys": 1,
            "exponent": 0.0,
            "chi2": 0.0,
            "p_value": 1.0,
            "top1_share": top1,
            "top10pct_share": top10,
        }
    ranks = np.log(np.arange(1, n + 1, dtype=np.float64))
    freqs = np.log(spectrum)
    slope = float(np.polyfit(ranks, freqs, 1)[0])
    exponent = max(0.0, -slope)
    stat, p = chi_square_gof(spectrum, zipf_probs(n, exponent))
    return {
        "n_keys": n,
        "exponent": round(exponent, 6),
        "chi2": round(float(stat), 6),
        "p_value": round(float(p), 6),
        "top1_share": round(top1, 6),
        "top10pct_share": round(top10, 6),
    }


# ---------------------------------------------------------------------- #
# Miners
# ---------------------------------------------------------------------- #
def mine_workload(recorder: AccessRecorder, top_k: int = 20) -> dict:
    """Distill the recorder's stream into the placement artifacts.

    Returns a dict with the hot-vertex table (top ``top_k`` by reads, ties
    broken by vertex id), the partition traffic matrix (dense, row=issuer,
    col=owner), per-route totals, the locality share and the Zipf fit of
    the access spectrum. Empty recorders yield an explicitly empty report
    rather than raising, so reports compose into pipelines.
    """
    total = recorder.total_reads
    report: dict = {
        "total_reads": total,
        "unique_vertices": len(recorder.vertex_reads),
        "routes": {r: int(recorder.route_reads.get(r, 0)) for r in ROUTES},
    }
    if total == 0:
        report.update(
            {
                "hot_vertices": [],
                "parts": [],
                "traffic_matrix": [],
                "local_share": 0.0,
                "zipf": None,
            }
        )
        return report

    hot = sorted(
        recorder.vertex_reads.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top_k]
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
        {p for pair in recorder.traffic for p in pair}
        | set(recorder.vertex_owner.values())
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


def cache_efficacy(
    recorder: AccessRecorder,
    cost_model: "object",
    capacities: "tuple[int, ...]" = (16, 64, 256, 1024),
) -> dict:
    """Score the observed cache against the clairvoyant top-``k`` cache.

    Under the §4 cost model, every cross-partition read costs
    ``remote_rpc_us`` unless a cache answers it for ``cache_hit_us``. The
    *observed* row prices the routes the run actually took; each capacity
    row prices an oracle that holds the ``k`` most frequently
    cross-partition-read vertices for the whole run — the upper bound any
    cache policy (and the future adaptive partitioner) is chasing.
    ``cost_model`` is duck-typed: anything with ``remote_rpc_us`` /
    ``cache_hit_us`` attributes works.
    """
    remote_us = float(cost_model.remote_rpc_us)
    hit_us = float(cost_model.cache_hit_us)
    cross = sorted(
        recorder.cross_part_reads.items(), key=lambda kv: (-kv[1], kv[0])
    )
    cross_total = sum(c for _, c in cross)
    worst_us = cross_total * remote_us

    observed_hits = int(recorder.route_reads.get("cache_hit", 0))
    observed_remote = cross_total - observed_hits
    observed_us = observed_hits * hit_us + observed_remote * remote_us

    rows = []
    for k in capacities:
        saved_reads = sum(c for _, c in cross[: int(k)])
        oracle_us = saved_reads * hit_us + (cross_total - saved_reads) * remote_us
        rows.append(
            {
                "capacity": int(k),
                "hit_rate": round(saved_reads / cross_total, 6)
                if cross_total
                else 0.0,
                "modelled_us": round(oracle_us, 3),
                "saved_vs_uncached": round(1.0 - oracle_us / worst_us, 6)
                if worst_us
                else 0.0,
            }
        )
    return {
        "cross_part_reads": int(cross_total),
        "unique_cross_part_vertices": len(cross),
        "uncached_us": round(worst_us, 3),
        "observed": {
            "cache_hits": observed_hits,
            "hit_rate": round(observed_hits / cross_total, 6)
            if cross_total
            else 0.0,
            "modelled_us": round(observed_us, 3),
            "saved_vs_uncached": round(1.0 - observed_us / worst_us, 6)
            if worst_us
            else 0.0,
        },
        "oracle": rows,
    }


def ledger_event_totals(tracer: "object") -> dict:
    """Event totals from ``tracer.ledger_rows``.

    Rows are ``[t_us, trace_id, span_id, event, times]`` (the ledger↔trace
    cross-reference, read off the stored spans); this aggregates them into
    ``{event: total_times}`` for joining against the recorder's view.
    """
    totals: Counter = Counter()
    for _, _, _, event, times in tracer.ledger_rows:
        totals[event] += int(times)
    return {event: int(totals[event]) for event in sorted(totals)}


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def render_workload_report(
    report: dict, efficacy: "dict | None" = None
) -> str:
    """Human-readable rendering of :func:`mine_workload` output."""
    lines = ["=== workload report ==="]
    lines.append(
        f"reads: {report['total_reads']}  "
        f"unique vertices: {report['unique_vertices']}  "
        f"local share: {report.get('local_share', 0.0):.1%}"
    )
    routes = report["routes"]
    lines.append(
        "routes: "
        + "  ".join(f"{r}={routes[r]}" for r in ROUTES if routes.get(r))
    )
    zipf = report.get("zipf")
    if zipf:
        lines.append(
            f"zipf fit: exponent={zipf['exponent']:.3f} "
            f"top1={zipf['top1_share']:.1%} "
            f"top10%={zipf['top10pct_share']:.1%} "
            f"(chi2 p={zipf['p_value']:.3g})"
        )
    if report.get("hot_vertices"):
        lines.append("--- hot vertices ---")
        lines.append(f"{'vertex':>8} {'owner':>5} {'reads':>7} {'share':>7} {'xpart':>7}")
        for row in report["hot_vertices"]:
            lines.append(
                f"{row['vertex']:>8} {row['owner']:>5} {row['reads']:>7} "
                f"{row['share']:>6.2%} {row['cross_part']:>7}"
            )
    if report.get("parts"):
        lines.append("--- traffic matrix (rows=issuer, cols=owner) ---")
        parts = report["parts"]
        lines.append("      " + " ".join(f"{p:>8}" for p in parts))
        for p, row in zip(parts, report["traffic_matrix"]):
            lines.append(f"{p:>5} " + " ".join(f"{c:>8}" for c in row))
    if efficacy:
        lines.append("--- cache efficacy (vs §4 cost model) ---")
        lines.append(
            f"cross-partition reads: {efficacy['cross_part_reads']}  "
            f"uncached cost: {efficacy['uncached_us']:.0f}us"
        )
        obs = efficacy["observed"]
        lines.append(
            f"observed: hit rate {obs['hit_rate']:.1%}, "
            f"cost {obs['modelled_us']:.0f}us "
            f"({obs['saved_vs_uncached']:.1%} saved)"
        )
        for row in efficacy["oracle"]:
            lines.append(
                f"oracle k={row['capacity']:>5}: hit rate {row['hit_rate']:.1%}, "
                f"cost {row['modelled_us']:.0f}us "
                f"({row['saved_vs_uncached']:.1%} saved)"
            )
    return "\n".join(lines)
