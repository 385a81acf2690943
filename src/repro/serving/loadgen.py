"""Seeded load generators: open- and closed-loop arrival processes.

The two canonical ways of driving a service (and they disagree about what
overload looks like, which is why the serving bench runs both):

* **open loop** — arrivals follow a time-varying Poisson process that does
  not care whether the server keeps up. This is "millions of users" traffic:
  a slow server just grows its queues. Arrival times come from thinning a
  homogeneous Poisson process at the shape's peak rate, so any integrable
  rate shape works with one code path.
* **closed loop** — a fixed population of clients, each issuing its next
  request only after the previous one finished plus an exponential think
  time. Slow service *reduces* offered load, which is how benchmark
  harnesses accidentally hide latency problems.

Traffic shapes are plain ``rate(t_us) -> requests/s`` callables;
:func:`diurnal_rate` builds the paper-motivated shape (sinusoidal
day/night swing plus a flash-burst window), and hot-key skew comes from the
seeded :class:`~repro.utils.stats.ZipfSampler` over the user population.
Every random choice — arrival gaps, thinning accepts, request class, user —
draws from one seeded generator in event order, so a workload replays bit
for bit under the same seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ServingError
from repro.serving.requests import (
    CLASS_CACHED,
    CLASS_FRESH,
    ServeRecord,
    ServeRequest,
)
from repro.utils.rng import make_rng
from repro.utils.stats import ZipfSampler

#: Default per-class deadlines (µs of virtual time past arrival). Cached
#: reads are latency-critical; fresh recomputes buy accuracy with a looser
#: budget. At the simulation's cost scale (remote_rpc=100us) these are
#: "a few cache reads" vs "a couple of hop expansions".
DEFAULT_DEADLINES_US = {CLASS_CACHED: 2_000.0, CLASS_FRESH: 30_000.0}


def constant_rate(rps: float):
    """A flat traffic shape of ``rps`` requests per (virtual) second."""
    if rps <= 0:
        raise ServingError(f"rate must be positive, got {rps}")
    return lambda t_us: rps


#: The diurnal shape's period, and its burst window as fractions of it.
PERIOD_US = 4_000_000.0
BURST_AT = 0.6
BURST_WIDTH = 0.05


def diurnal_rate(base_rps: float, peak_rps: float, burst_multiplier: float = 1.0):
    """The diurnal-burst shape: day/night sinusoid plus a flash burst.

    Rate swings sinusoidally between ``base_rps`` (trough) and ``peak_rps``
    (crest) with period ``PERIOD_US``; within the window starting at
    fraction ``BURST_AT`` of each period and lasting ``BURST_WIDTH`` of it,
    the rate is additionally multiplied by ``burst_multiplier`` (a flash
    sale / celebrity event spike). ``burst_multiplier=1`` disables the
    burst.
    """
    if not 0 < base_rps <= peak_rps:
        raise ServingError(
            f"need 0 < base_rps <= peak_rps, got {base_rps}, {peak_rps}"
        )
    if burst_multiplier < 1.0:
        raise ServingError(
            f"burst multiplier must be >= 1, got {burst_multiplier}"
        )

    def rate(t_us: float) -> float:
        phase = (t_us % PERIOD_US) / PERIOD_US
        mid = (base_rps + peak_rps) / 2.0
        swing = (peak_rps - base_rps) / 2.0
        r = mid + swing * math.sin(2.0 * math.pi * (phase - 0.25))
        if BURST_AT <= phase < BURST_AT + BURST_WIDTH:
            r *= burst_multiplier
        return r

    rate.peak_rps = peak_rps * burst_multiplier
    return rate


class _RequestMinter:
    """Shared request construction: user draw, class mix, deadlines."""

    def __init__(
        self,
        users: np.ndarray,
        fresh_fraction: float,
        deadlines_us: "dict[str, float] | None",
        zipf_exponent: float,
    ) -> None:
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        if users.size == 0:
            raise ServingError("need at least one user to serve")
        if not 0.0 <= fresh_fraction <= 1.0:
            raise ServingError(
                f"fresh_fraction must be in [0, 1], got {fresh_fraction}"
            )
        self.users = users
        self.fresh_fraction = fresh_fraction
        self.deadlines_us = dict(DEFAULT_DEADLINES_US)
        if deadlines_us:
            self.deadlines_us.update(deadlines_us)
        self._zipf = ZipfSampler(users, exponent=zipf_exponent)
        self._next_id = 0

    def mint(
        self,
        arrival_us: float,
        rng: np.random.Generator,
        client_id: "int | None" = None,
    ) -> ServeRequest:
        user = int(self._zipf.sample(1, rng)[0])
        cls = CLASS_FRESH if rng.random() < self.fresh_fraction else CLASS_CACHED
        req = ServeRequest(
            req_id=self._next_id,
            user=user,
            cls=cls,
            arrival_us=arrival_us,
            deadline_us=arrival_us + self.deadlines_us[cls],
            client_id=client_id,
        )
        self._next_id += 1
        return req


class OpenLoopWorkload:
    """Time-varying Poisson arrivals, indifferent to server progress.

    ``rate`` is a ``rate(t_us) -> rps`` callable (see :func:`diurnal_rate`
    / :func:`constant_rate`); its ``peak_rps`` attribute, when present,
    bounds the thinning envelope (otherwise the shape is probed on a
    coarse grid and headroom added).
    """

    def __init__(
        self,
        users: np.ndarray,
        duration_us: float,
        rate,
        fresh_fraction: float = 0.1,
        deadlines_us: "dict[str, float] | None" = None,
        zipf_exponent: float = 1.1,
        seed: int = 0,
    ) -> None:
        if duration_us <= 0:
            raise ServingError(f"duration must be positive, got {duration_us}")
        self.duration_us = float(duration_us)
        self.rate = rate
        self.seed = seed
        self._minter = _RequestMinter(
            users, fresh_fraction, deadlines_us, zipf_exponent
        )

    def _envelope_rps(self) -> float:
        peak = getattr(self.rate, "peak_rps", None)
        if peak is not None:
            return float(peak)
        grid = np.linspace(0.0, self.duration_us, 257)
        return 1.25 * max(self.rate(float(t)) for t in grid)

    def initial_arrivals(self) -> "list[ServeRequest]":
        """The full arrival schedule (open loop: all decided up front)."""
        rng = make_rng(self.seed)
        envelope = self._envelope_rps()
        if envelope <= 0:
            raise ServingError("traffic shape has a non-positive peak rate")
        mean_gap_us = 1e6 / envelope
        requests: "list[ServeRequest]" = []
        t = 0.0
        while True:
            t += float(rng.exponential(mean_gap_us))
            if t >= self.duration_us:
                break
            # Poisson thinning: accept with prob rate(t)/envelope.
            if rng.random() < self.rate(t) / envelope:
                requests.append(self._minter.mint(t, rng))
        return requests

    def on_done(self, record: ServeRecord) -> "list[ServeRequest]":
        """Open-loop traffic never reacts to completions."""
        return []


class ClosedLoopWorkload:
    """A fixed client population with exponential think times.

    Each of ``n_clients`` issues ``requests_per_client`` requests; the next
    request of a client enters the system ``think`` after its previous one
    reached a terminal outcome (served, shed or dropped — a shed request
    still sends its user back to thinking, which is exactly the
    self-throttling that distinguishes closed-loop load).
    """

    def __init__(
        self,
        users: np.ndarray,
        n_clients: int,
        requests_per_client: int,
        think_us: float = 10_000.0,
        fresh_fraction: float = 0.1,
        deadlines_us: "dict[str, float] | None" = None,
        zipf_exponent: float = 1.1,
        seed: int = 0,
    ) -> None:
        if n_clients < 1:
            raise ServingError(f"need >= 1 client, got {n_clients}")
        if requests_per_client < 1:
            raise ServingError(
                f"need >= 1 request per client, got {requests_per_client}"
            )
        if think_us <= 0:
            raise ServingError(f"think time must be positive, got {think_us}")
        self.n_clients = n_clients
        self.requests_per_client = requests_per_client
        self.think_us = float(think_us)
        self.seed = seed
        self._minter = _RequestMinter(
            users, fresh_fraction, deadlines_us, zipf_exponent
        )
        self._rng = make_rng(seed)
        self._remaining = {c: requests_per_client for c in range(n_clients)}
        self._client_of: "dict[int, int]" = {}

    def _issue(self, client: int, at_us: float) -> ServeRequest:
        self._remaining[client] -= 1
        req = self._minter.mint(at_us, self._rng, client_id=client)
        self._client_of[req.req_id] = client
        return req

    def initial_arrivals(self) -> "list[ServeRequest]":
        """Each client's first request, after an initial think draw.

        The stagger prevents the degenerate all-arrive-at-zero start while
        keeping the schedule a pure function of the seed.
        """
        out = []
        for client in range(self.n_clients):
            at = float(self._rng.exponential(self.think_us))
            out.append(self._issue(client, at))
        return out

    def on_done(self, record: ServeRecord) -> "list[ServeRequest]":
        """Wake the issuing client; it thinks, then asks again."""
        client = self._client_of.pop(record.req_id, None)
        if client is None or self._remaining[client] <= 0:
            return []
        at = record.end_us + float(self._rng.exponential(self.think_us))
        return [self._issue(client, at)]
