"""Server health tracking: suspicion, probing and recovery.

Fail-stop membership (``DistributedGraphStore.fail_worker``) is an
operator-declared fact; *suspicion* is an inference the issuer makes from
traffic. The :class:`HealthTracker` watches every delivery attempt the RPC
runtime makes and marks a server **suspect** after ``suspect_after``
consecutive failures. The store then routes reads of suspect-owned vertices
to cache replicas when one exists (``EV_SUSPECT_ROUTE``), while letting
every ``probe_every``-th such read — and every read with no replica
coverage — through to the suspect server as a probe. ``recover_after``
consecutive successful deliveries flip the server back to healthy.

All transitions are counted in the shared metrics registry
(``health.suspects`` / ``health.recoveries`` / ``health.probes`` /
``health.suspect_routes``) with a ``health.suspect_parts`` gauge, and the
whole state machine is deterministic: same fault seed, same transitions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeConfigError, check_id, check_ids
from repro.runtime.metrics import MetricsRegistry

#: Health states of one server, as seen by the issuer side.
STATE_HEALTHY = "healthy"
STATE_SUSPECT = "suspect"


class HealthTracker:
    """Per-server failure-streak state machine with probing.

    ``record_failure`` / ``record_success`` are fed by the RPC runtime on
    every delivery attempt; ``probe_mask`` is consulted by the store when
    it is about to route a batch of reads *around* suspect servers, and
    marks every ``probe_every``-th such read of each server so the suspect
    keeps receiving a trickle of traffic to recover through.
    """

    def __init__(
        self,
        n_parts: int,
        suspect_after: int = 3,
        recover_after: int = 2,
        probe_every: int = 8,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if n_parts < 1:
            raise RuntimeConfigError(f"need at least one part, got {n_parts}")
        if suspect_after < 1:
            raise RuntimeConfigError(
                f"suspect_after must be >= 1, got {suspect_after}"
            )
        if recover_after < 1:
            raise RuntimeConfigError(
                f"recover_after must be >= 1, got {recover_after}"
            )
        if probe_every < 1:
            raise RuntimeConfigError(f"probe_every must be >= 1, got {probe_every}")
        self.n_parts = n_parts
        self.suspect_after = suspect_after
        self.recover_after = recover_after
        self.probe_every = probe_every
        self.metrics = metrics or MetricsRegistry()
        self._fail_streak = [0] * n_parts
        self._ok_streak = [0] * n_parts
        self._state = [STATE_HEALTHY] * n_parts
        self._routed_around = [0] * n_parts

    @property
    def suspect_parts(self) -> "frozenset[int]":
        """The currently suspected servers."""
        return frozenset(
            p for p, s in enumerate(self._state) if s == STATE_SUSPECT
        )

    def _update_gauge(self) -> None:
        self.metrics.gauge("health.suspect_parts").set(len(self.suspect_parts))

    def record_failure(self, part: int) -> None:
        """One failed delivery attempt to ``part`` (drop or timeout)."""
        part = check_id(part, self.n_parts, RuntimeConfigError, "part")
        self._ok_streak[part] = 0
        self._fail_streak[part] += 1
        if (
            self._state[part] == STATE_HEALTHY
            and self._fail_streak[part] >= self.suspect_after
        ):
            self._state[part] = STATE_SUSPECT
            self._routed_around[part] = 0
            self.metrics.counter("health.suspects").inc()
            self._update_gauge()

    def record_success(self, part: int) -> None:
        """One successful delivery to ``part``."""
        part = check_id(part, self.n_parts, RuntimeConfigError, "part")
        self._fail_streak[part] = 0
        if self._state[part] != STATE_SUSPECT:
            return
        self._ok_streak[part] += 1
        if self._ok_streak[part] >= self.recover_after:
            self._state[part] = STATE_HEALTHY
            self._ok_streak[part] = 0
            self.metrics.counter("health.recoveries").inc()
            self._update_gauge()

    def probe_mask(self, parts: np.ndarray) -> np.ndarray:
        """Which of a batch of reads about to be routed around their part
        (``parts``, in read order) probe it instead: each part counts its
        reads on from its last batch, and every ``probe_every``-th probes.
        The cadence is per part: only the order of one part's reads counts."""
        parts = check_ids(parts, self.n_parts, RuntimeConfigError, "parts")
        counts = np.bincount(parts, minlength=self.n_parts)
        probe = np.zeros(parts.size, dtype=bool)
        for part in counts.nonzero()[0].tolist():
            seen = self._routed_around[part] + np.arange(1, counts[part] + 1)
            probe[parts == part] = seen % self.probe_every == 0
            self._routed_around[part] += int(counts[part])
        n_probes = int(np.count_nonzero(probe))
        if n_probes:
            self.metrics.counter("health.probes").inc(n_probes)
        return probe

    def __repr__(self) -> str:
        suspects = sorted(self.suspect_parts)
        return f"HealthTracker(parts={self.n_parts}, suspects={suspects})"
