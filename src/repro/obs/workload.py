"""Hot-vertex / traffic mining: turn access streams into placement signal.

The paper's §4 caching analysis presumes you *know* which vertices are hot
and which reads cross partitions; ROADMAP's trace-driven adaptive
partitioner needs the same signal. The ledger tells us "how many remote
RPCs", never "for which vertex" — so this module adds the missing per-key
stream and the miners over it:

* :class:`AccessRecorder` — rides the runtime as ``runtime.recorder``
  (``None`` = off); the store feeds it one call per read arm,
  ``(vertices, owners, issuer, route)``. Count arrays sized once — no
  clock reads, no growth with the stream. (A served request is its
  :class:`~repro.serving.requests.ServeRecord`; the recorder keeps no copy.)
* :func:`mine_workload` — per-vertex access-frequency table (top-k hot
  list), partition-to-partition traffic matrix, locality share and a
  Zipf-skew fit of the frequency spectrum (:func:`fit_zipf`, reusing
  ``utils.stats``).
* :func:`cache_efficacy` — scores the observed cache against the clairvoyant
  top-``k`` cache under the §4 cost model: what the run actually paid per
  route versus what an oracle holding the ``k`` hottest cross-partition
  vertices would have paid.

Every report is a plain dict with sorted keys/rows: two same-seed runs
compare equal with ``==``.
"""

from __future__ import annotations

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


#: Routes that actually left the issuing server (a replica or migration
#: could have saved them). ``cache_hit`` is excluded: those reads were
#: already served locally.
REMOTE_ROUTES = frozenset({"remote", "failover", "suspect"})

#: Decayed weights that fall below this on a roll are zeroed, so an entry
#: nothing reads again leaves the placement scans' working set.
_DECAY_EPS = 1e-6


class AccessRecorder:
    """Per-vertex access counts the store's read path feeds, one arm at a time.

    :meth:`record` takes one arm of a resolved read: its ids (distinct
    within the read), their owning partitions, the issuing partition and
    the route the read path chose (one of :data:`ROUTES`). The store makes
    one call per bulk arm (local, cache hits, each remote response) and one
    per vertex on the scalar arms (failover, suspect routing, degraded).
    Every count lives in an array indexed by vertex (and issuer), so the
    recorder holds ``O(n·p)`` memory for ``n`` vertices and ``p`` parts,
    whatever the stream's length.

    Two views, both fed by every call:

    * cumulative — ``vertex_reads``, ``cross_part_reads`` (reads where the
      owner is not the issuer) and ``vertex_owner`` (the last owner seen,
      ``-1`` if never read) by vertex, the ``(issuer, owner)`` ``traffic``
      matrix and ``route_reads`` by route; the miners read these.
    * decayed — ``decayed_issuer_reads`` (every route) and
      ``decayed_remote_reads`` (:data:`REMOTE_ROUTES`) by ``(vertex,
      issuer)``. Reads count in the current window until :meth:`roll`
      closes it, so an entry untouched for ``k`` rolls carries ``decay**k``
      of its old weight. The placement controller reads these: cumulative
      counts cannot see a hot set shift.
    """

    def __init__(self, n_vertices: int, n_parts: int) -> None:
        self.n_parts = int(n_parts)
        self.vertex_reads = np.zeros(n_vertices, dtype=np.int64)
        self.cross_part_reads = np.zeros(n_vertices, dtype=np.int64)
        self.vertex_owner = np.full(n_vertices, -1, dtype=np.int64)
        #: ``(issuer, owner)`` -> reads; the diagonal is local traffic.
        self.traffic = np.zeros((n_parts, n_parts), dtype=np.int64)
        self.route_reads = dict.fromkeys(ROUTES, 0)
        self._window_reads = np.zeros((n_vertices, n_parts), dtype=np.int64)
        self._window_remote = np.zeros((n_vertices, n_parts), dtype=np.int64)
        self.decayed_issuer_reads = np.zeros((n_vertices, n_parts))
        self.decayed_remote_reads = np.zeros((n_vertices, n_parts))

    def record(
        self,
        vertices: "np.ndarray | int",
        owners: "np.ndarray | int",
        issuer: int,
        route: str,
    ) -> None:
        """Count one arm: ``vertices`` (distinct) read by ``issuer`` over
        ``route``, owned by ``owners`` (one per vertex, or one for all)."""
        n = np.size(vertices)
        self.vertex_reads[vertices] += 1
        self.vertex_owner[vertices] = owners
        self.route_reads[route] += n
        self._window_reads[vertices, issuer] += 1
        if route in REMOTE_ROUTES:
            self._window_remote[vertices, issuer] += 1
        if np.ndim(owners):
            self.traffic[issuer] += np.bincount(owners, minlength=self.n_parts)
            self.cross_part_reads[vertices[owners != issuer]] += 1
        else:
            self.traffic[issuer, owners] += n
            if owners != issuer:
                self.cross_part_reads[vertices] += 1

    def roll(self, decay: float) -> None:
        """Close the current window: decay history, then add the window in."""
        for decayed, window in (
            (self.decayed_issuer_reads, self._window_reads),
            (self.decayed_remote_reads, self._window_remote),
        ):
            decayed *= decay
            decayed[decayed < _DECAY_EPS] = 0.0
            decayed += window
            window.fill(0)

    @property
    def total_reads(self) -> int:
        return sum(self.route_reads.values())


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
    read = np.flatnonzero(recorder.vertex_reads)
    report: dict = {
        "total_reads": total,
        "unique_vertices": int(read.size),
        "routes": dict(recorder.route_reads),
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

    counts = recorder.vertex_reads[read]
    # ``read`` ascends, so a stable sort on the counts breaks ties by id.
    hot = read[np.argsort(-counts, kind="stable")[:top_k]]
    report["hot_vertices"] = [
        {
            "vertex": v,
            "reads": c,
            "share": round(c / total, 6),
            "owner": owner,
            "cross_part": cross,
        }
        for v, c, owner, cross in zip(
            hot.tolist(),
            recorder.vertex_reads[hot].tolist(),
            recorder.vertex_owner[hot].tolist(),
            recorder.cross_part_reads[hot].tolist(),
        )
    ]

    # Every part that issued or owned a read: each read counts in the
    # traffic matrix, so its row and column cover every owner seen.
    traffic = recorder.traffic
    parts = np.flatnonzero(traffic.any(axis=0) | traffic.any(axis=1))
    report["parts"] = parts.tolist()
    report["traffic_matrix"] = traffic[np.ix_(parts, parts)].tolist()
    report["local_share"] = round(int(np.trace(traffic)) / total, 6)
    report["zipf"] = fit_zipf(counts)
    return report


#: Oracle cache sizes :func:`cache_efficacy` scores.
CAPACITIES = (16, 64, 256, 1024)


def cache_efficacy(recorder: AccessRecorder, cost_model: "object") -> dict:
    """Score the observed cache against the clairvoyant top-``k`` cache
    (one row per ``k`` in :data:`CAPACITIES`).

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
    cross = recorder.cross_part_reads
    cross = np.sort(cross[cross > 0])[::-1]
    cross_total = int(cross.sum())
    worst_us = cross_total * remote_us

    observed_hits = int(recorder.route_reads["cache_hit"])
    observed_remote = cross_total - observed_hits
    observed_us = observed_hits * hit_us + observed_remote * remote_us

    rows = []
    for k in CAPACITIES:
        saved_reads = int(cross[: int(k)].sum())
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
        "unique_cross_part_vertices": int(cross.size),
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
