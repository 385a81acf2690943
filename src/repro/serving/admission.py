"""SLO-aware admission control: bounded per-class queues + deadline drops.

A serving tier that accepts everything under overload answers nothing on
time; production front ends bound their queues and reject (shed) excess
load *at admission*, where the rejection costs microseconds, instead of
timing out after the work is done. Two mechanisms, both deterministic:

* **shed on overflow** — each request class has its own bounded FIFO; an
  arrival finding its class queue full is rejected immediately. Cached and
  fresh traffic are bounded independently so a burst of expensive fresh
  recomputes cannot starve the cheap cached reads behind it.
* **deadline-aware drop** — a request whose deadline has already passed
  when the server would start it is dropped *without* being served: the
  answer could no longer be useful, so serving it would only add queueing
  delay to every request behind it.

The controller owns queue state and the shed/expire decisions; the engine
owns time and service. Queue depths are mirrored into ``serving.queue_depth
{class=...}`` gauges so saturation shows up in every metrics export.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ServingError
from repro.serving.requests import CLASS_CACHED, REQUEST_CLASSES, ServeRequest


class BoundedQueue:
    """Bounded FIFO of admitted-but-unserved requests for one class."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServingError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.high_water = 0
        self._queue: "deque[ServeRequest]" = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether an arrival would be shed."""
        return len(self._queue) >= self.capacity

    def push(self, req: ServeRequest) -> None:
        """Enqueue ``req`` (caller checks :attr:`full` first — admission
        decisions belong to the controller, not the queue)."""
        if self.full:
            raise ServingError(f"queue of capacity {self.capacity} overflowed")
        self._queue.append(req)
        self.high_water = max(self.high_water, len(self._queue))

    def head(self) -> "ServeRequest | None":
        """The next request to serve, or None when empty."""
        return self._queue[0] if self._queue else None

    def pop(self) -> ServeRequest:
        """Dequeue the head."""
        if not self._queue:
            raise ServingError("pop from an empty queue")
        return self._queue.popleft()


class AdmissionController:
    """Per-class bounded queues with shed and deadline-drop accounting."""

    def __init__(
        self,
        capacities: "dict[str, int]",
        metrics: "object | None" = None,
    ) -> None:
        unknown = set(capacities) - set(REQUEST_CLASSES)
        if unknown:
            raise ServingError(f"unknown request classes {sorted(unknown)}")
        self.queues = {
            cls: BoundedQueue(capacities.get(cls, 64))
            for cls in REQUEST_CLASSES
        }
        # Peek order of next_request: the cached class first, so it wins an
        # exact arrival tie.
        self._peek_order = [self.queues[CLASS_CACHED]] + [
            q for cls, q in self.queues.items() if cls != CLASS_CACHED
        ]
        self.metrics = metrics
        self.shed = {cls: 0 for cls in REQUEST_CLASSES}
        self.expired = {cls: 0 for cls in REQUEST_CLASSES}

    def _gauge(self, cls: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "serving.queue_depth", labels={"class": cls}
            ).set(len(self.queues[cls]))

    def offer(self, req: ServeRequest) -> bool:
        """Admit ``req`` or shed it; returns whether it was admitted."""
        queue = self.queues[req.cls]
        if queue.full:
            self.shed[req.cls] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serving.shed", labels={"class": req.cls}
                ).inc()
            return False
        queue.push(req)
        self._gauge(req.cls)
        return True

    @property
    def depth(self) -> int:
        """Admitted requests currently waiting, across classes."""
        return sum(len(q) for q in self.queues.values())

    def next_request(self) -> "ServeRequest | None":
        """Peek the next request to serve across classes.

        Earliest arrival wins; on an exact tie the cached class goes first
        (it is the cheap, latency-critical tier). Deterministic because
        arrival times and queue contents are.
        """
        best: "ServeRequest | None" = None
        for queue in self._peek_order:
            head = queue.head()
            if head is None:
                continue
            if best is None or head.arrival_us < best.arrival_us:
                best = head
        return best

    def take(self, req: ServeRequest) -> None:
        """Remove ``req`` (previously returned by :meth:`next_request`)."""
        popped = self.queues[req.cls].pop()
        if popped is not req:
            raise ServingError("take() must follow next_request()")
        self._gauge(req.cls)

    def expire(self, req: ServeRequest) -> None:
        """Account a deadline drop decided by the engine at dequeue."""
        self.expired[req.cls] += 1
        if self.metrics is not None:
            self.metrics.counter(
                "serving.deadline_drops", labels={"class": req.cls}
            ).inc()
