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

from repro.errors import RuntimeConfigError
from repro.runtime.metrics import MetricsRegistry

#: Health states of one server, as seen by the issuer side.
STATE_HEALTHY = "healthy"
STATE_SUSPECT = "suspect"


class HealthTracker:
    """Per-server failure-streak state machine with probing.

    ``record_failure`` / ``record_success`` are fed by the RPC runtime on
    every delivery attempt; ``should_probe`` is consulted by the store when
    it is about to route a read *around* a suspect server, and returns True
    on every ``probe_every``-th such read so the suspect keeps receiving a
    trickle of traffic to recover through.
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

    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.n_parts:
            raise RuntimeConfigError(f"unknown part {part} (have {self.n_parts})")

    def is_suspect(self, part: int) -> bool:
        """Whether ``part`` is currently suspected."""
        self._check_part(part)
        return self._state[part] == STATE_SUSPECT

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
        self._check_part(part)
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
        self._check_part(part)
        self._fail_streak[part] = 0
        if self._state[part] != STATE_SUSPECT:
            return
        self._ok_streak[part] += 1
        if self._ok_streak[part] >= self.recover_after:
            self._state[part] = STATE_HEALTHY
            self._ok_streak[part] = 0
            self.metrics.counter("health.recoveries").inc()
            self._update_gauge()

    def should_probe(self, part: int) -> bool:
        """Whether a read about to be routed around ``part`` should instead
        go through to it as a probe (every ``probe_every``-th such read)."""
        self._check_part(part)
        self._routed_around[part] += 1
        if self._routed_around[part] % self.probe_every == 0:
            self.metrics.counter("health.probes").inc()
            return True
        return False

    def __repr__(self) -> str:
        suspects = sorted(self.suspect_parts)
        return f"HealthTracker(parts={self.n_parts}, suspects={suspects})"
