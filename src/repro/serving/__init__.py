"""Online inference serving tier (the request-facing front of the platform).

AliGraph's purpose is answering Taobao-scale recommendation queries; this
package closes the loop from stored graph to served answer. It layers a
request-serving front end over the existing substrate — distributed store,
batched sampling kernels, RPC runtime, importance caches — all on the same
virtual clock, so every prior read-path optimization becomes a measurable
end-to-end latency/goodput win:

* :mod:`repro.serving.requests` — request classes (cheap ``cached`` read
  vs expensive ``fresh`` recompute), outcomes and the request-trace record;
* :mod:`repro.serving.admission` — SLO-aware admission control: bounded
  per-class queues, shed-on-overflow, deadline-aware drops;
* :mod:`repro.serving.engine` — :class:`ServingEngine`, the event-driven
  serving loop (embedding-cache reads, on-demand k-hop inference through
  the store, deterministic virtual-clock accounting);
* :mod:`repro.serving.loadgen` — seeded open- and closed-loop load
  generators with diurnal-burst and Zipf hot-key traffic shapes;
* :mod:`repro.serving.slo` — p50/p95/p99, goodput and shed/expired
  accounting per request class, bit-comparable across same-seed runs.

Quickstart::

    from repro.data import make_dataset
    from repro.serving import (
        OpenLoopWorkload, ServingEngine, build_slo_report, diurnal_rate,
    )
    from repro.storage import ImportanceCachePolicy
    from repro.storage.cluster import make_store

    graph = make_dataset("taobao-small-sim", scale=0.2)
    store = make_store(graph, 4, cache_policy=ImportanceCachePolicy(),
                       cache_budget_fraction=0.1)
    engine = ServingEngine(store, seed=7)
    workload = OpenLoopWorkload(
        users=graph.vertices_of_type("user"), duration_us=2_000_000,
        rate=diurnal_rate(200, 800, burst_multiplier=3.0), seed=7,
    )
    print(build_slo_report(engine.run(workload)).to_dict())
"""

from repro.serving.admission import AdmissionController, BoundedQueue
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.loadgen import (
    DEFAULT_DEADLINES_US,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    constant_rate,
    diurnal_rate,
)
from repro.serving.requests import (
    CLASS_CACHED,
    CLASS_FRESH,
    OUTCOME_DEADLINE,
    OUTCOME_LATE,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOMES,
    REQUEST_CLASSES,
    ServeRecord,
    ServeRequest,
)
from repro.serving.slo import SLOClassReport, SLOReport, build_slo_report

__all__ = [
    "AdmissionController",
    "BoundedQueue",
    "ServingConfig",
    "ServingEngine",
    "ClosedLoopWorkload",
    "OpenLoopWorkload",
    "constant_rate",
    "diurnal_rate",
    "DEFAULT_DEADLINES_US",
    "CLASS_CACHED",
    "CLASS_FRESH",
    "REQUEST_CLASSES",
    "OUTCOME_OK",
    "OUTCOME_LATE",
    "OUTCOME_SHED",
    "OUTCOME_DEADLINE",
    "OUTCOMES",
    "ServeRecord",
    "ServeRequest",
    "SLOClassReport",
    "SLOReport",
    "build_slo_report",
]
