"""Seeded fault injection and retry policy for the simulated RPC runtime.

A :class:`FaultPlan` declares *what* can go wrong — message drops, response
timeouts, slow servers — and :class:`FaultInjector` rolls those dice from one
seeded generator, so a run with a fixed seed replays bit-for-bit. The
:class:`RetryPolicy` is the issuer-side answer: capped exponential backoff
with a bounded attempt budget, after which the store falls back to a
failover read (or raises a typed :class:`~repro.errors.RetryExhaustedError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuntimeConfigError
from repro.utils.rng import make_rng

#: Delivery outcomes produced by :meth:`FaultInjector.roll`.
OUTCOME_OK = "ok"
OUTCOME_DROP = "drop"  # the request never reaches the server
OUTCOME_TIMEOUT = "timeout"  # the server answers but the response is lost


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the injected failure behaviour.

    ``drop_rate`` and ``timeout_rate`` are per-delivery-attempt
    probabilities; ``slow_parts`` servers serve every request
    ``slow_factor`` times slower (a degraded-but-alive node).
    """

    drop_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_parts: "frozenset[int]" = field(default_factory=frozenset)
    slow_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise RuntimeConfigError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if not 0.0 <= self.timeout_rate <= 1.0:
            raise RuntimeConfigError(
                f"timeout_rate must be in [0, 1], got {self.timeout_rate}"
            )
        if self.drop_rate + self.timeout_rate > 1.0:
            raise RuntimeConfigError(
                "drop_rate + timeout_rate cannot exceed 1 "
                f"(got {self.drop_rate} + {self.timeout_rate})"
            )
        if self.slow_factor < 1.0:
            raise RuntimeConfigError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        # Normalize to a frozenset so the plan is hashable/replayable.
        object.__setattr__(self, "slow_parts", frozenset(self.slow_parts))

class FaultInjector:
    """Rolls delivery outcomes from a seeded stream, per attempt."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed)

    def roll(self) -> str:
        """Outcome of one delivery attempt: ``ok`` / ``drop`` / ``timeout``."""
        if self.plan.drop_rate == 0.0 and self.plan.timeout_rate == 0.0:
            return OUTCOME_OK
        u = float(self._rng.random())
        if u < self.plan.drop_rate:
            return OUTCOME_DROP
        if u < self.plan.drop_rate + self.plan.timeout_rate:
            return OUTCOME_TIMEOUT
        return OUTCOME_OK

    def service_factor(self, part: int) -> float:
        """Service-time multiplier of server ``part`` (1.0 when healthy)."""
        return self.plan.slow_factor if part in self.plan.slow_parts else 1.0

@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a bounded attempt budget."""

    max_attempts: int = 8
    base_backoff_us: float = 100.0
    multiplier: float = 2.0
    cap_us: float = 5_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RuntimeConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_us < 0 or self.cap_us < 0:
            raise RuntimeConfigError("backoff durations must be non-negative")
        if self.multiplier < 1.0:
            raise RuntimeConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise RuntimeConfigError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.cap_us, self.base_backoff_us * self.multiplier ** (attempt - 1)
        )
