"""Serving tier: load generators, admission control, engine determinism,
SLO reports and ``repro bench serving_slo``."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ServingError
from repro.obs import AccessRecorder, TimeSeriesSampler
from repro.runtime import RpcRuntime, Tracer
from repro.serving import (
    CLASS_CACHED,
    CLASS_FRESH,
    DEFAULT_DEADLINES_US,
    AdmissionController,
    BoundedQueue,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ServingConfig,
    ServingEngine,
    build_slo_report,
    constant_rate,
    diurnal_rate,
)
from repro.serving.requests import OUTCOME_OK, OUTCOME_SHED, ServeRequest
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import make_store
from tests.conftest import python_calls


@pytest.fixture
def users(small_taobao) -> np.ndarray:
    return small_taobao.vertices_of_type("user")


def _engine(graph, seed=7, config=None, cached=True, tracer=None):
    store = make_store(
        graph,
        2,
        cache_policy=ImportanceCachePolicy() if cached else None,
        cache_budget_fraction=0.1 if cached else 0.0,
        seed=seed,
    )
    store.attach_runtime(RpcRuntime(store, tracer=tracer))
    return ServingEngine(store, config=config, seed=seed)


def _open(users, seed=7, rps=800.0, duration_us=100_000.0, **kw):
    return OpenLoopWorkload(
        users,
        duration_us=duration_us,
        rate=constant_rate(rps),
        seed=seed,
        **kw,
    )


# --------------------------------------------------------------------- #
# Traffic shapes and load generators
# --------------------------------------------------------------------- #
class TestLoadGenerators:
    def test_diurnal_rate_swings_and_bursts(self):
        rate = diurnal_rate(100.0, 400.0, burst_multiplier=5.0)
        period = 4e6  # the shape's period; the burst spans [0.6, 0.65) of it
        assert rate(0.5 * period) == pytest.approx(400.0)  # crest
        assert rate(0.0) == pytest.approx(100.0)  # trough
        assert rate(0.62 * period) > 400.0  # inside the burst window
        assert rate.peak_rps == pytest.approx(2000.0)

    def test_shape_validation(self):
        with pytest.raises(ServingError):
            constant_rate(0.0)
        with pytest.raises(ServingError):
            diurnal_rate(500.0, 100.0)
        with pytest.raises(ServingError):
            diurnal_rate(1.0, 2.0, burst_multiplier=0.5)

    def test_open_loop_schedule_is_seed_deterministic(self, users):
        a = _open(users, seed=3).initial_arrivals()
        b = _open(users, seed=3).initial_arrivals()
        assert a == b
        c = _open(users, seed=4).initial_arrivals()
        assert a != c

    def test_open_loop_arrivals_in_window_with_class_deadlines(self, users):
        reqs = _open(users, fresh_fraction=0.3).initial_arrivals()
        assert reqs and all(0 < r.arrival_us < 100_000.0 for r in reqs)
        assert {r.cls for r in reqs} == {CLASS_CACHED, CLASS_FRESH}
        for r in reqs:
            assert r.deadline_us == pytest.approx(
                r.arrival_us + DEFAULT_DEADLINES_US[r.cls]
            )
        # Open loop never reacts to completions.
        rec = _engine_record_stub(reqs[0])
        assert _open(users).on_done(rec) == []

    def test_open_loop_thinning_tracks_rate(self, users):
        slow = _open(users, rps=200.0, duration_us=1e6).initial_arrivals()
        fast = _open(users, rps=2000.0, duration_us=1e6).initial_arrivals()
        assert len(fast) > 5 * len(slow)

    def test_zipf_skew_concentrates_users(self, users):
        reqs = _open(
            users, rps=3000.0, duration_us=1e6, zipf_exponent=1.4
        ).initial_arrivals()
        drawn = np.array([r.user for r in reqs])
        hottest = int(users[0])
        assert np.mean(drawn == hottest) > 0.15

    def test_closed_loop_issues_exactly_quota(self, users):
        wl = ClosedLoopWorkload(
            users, n_clients=4, requests_per_client=3, think_us=100.0, seed=1
        )
        first = wl.initial_arrivals()
        assert len(first) == 4
        served = list(first)
        frontier = list(first)
        while frontier:
            req = frontier.pop()
            more = wl.on_done(_engine_record_stub(req, end_us=req.arrival_us))
            served.extend(more)
            frontier.extend(more)
        assert len(served) == 12
        # Follow-ups never precede the completion that caused them.
        assert all(r.arrival_us >= 0 for r in served)

    def test_loadgen_validation(self, users):
        with pytest.raises(ServingError):
            OpenLoopWorkload(users, duration_us=0.0, rate=constant_rate(1.0))
        with pytest.raises(ServingError):
            _open(users, fresh_fraction=1.5)
        with pytest.raises(ServingError):
            _open(np.array([], dtype=np.int64))
        with pytest.raises(ServingError):
            ClosedLoopWorkload(users, n_clients=0, requests_per_client=1)


def _engine_record_stub(req: ServeRequest, end_us: "float | None" = None):
    from repro.serving.requests import ServeRecord

    return ServeRecord(
        req_id=req.req_id,
        user=req.user,
        cls=req.cls,
        outcome=OUTCOME_OK,
        arrival_us=req.arrival_us,
        end_us=req.arrival_us if end_us is None else end_us,
        queue_us=0.0,
        service_us=0.0,
    )


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
def _req(req_id, cls=CLASS_CACHED, arrival=0.0):
    return ServeRequest(
        req_id=req_id,
        user=0,
        cls=cls,
        arrival_us=arrival,
        deadline_us=arrival + 1e6,
    )


class TestAdmission:
    def test_bounded_queue_contract(self):
        q = BoundedQueue(2)
        q.push(_req(0))
        q.push(_req(1))
        assert q.full and q.high_water == 2
        with pytest.raises(ServingError):
            q.push(_req(2))
        assert q.pop().req_id == 0
        with pytest.raises(ServingError):
            BoundedQueue(0)

    def test_offer_sheds_on_overflow(self):
        ctl = AdmissionController({CLASS_CACHED: 1, CLASS_FRESH: 1})
        assert ctl.offer(_req(0))
        assert not ctl.offer(_req(1))
        assert ctl.shed[CLASS_CACHED] == 1
        # The fresh queue is bounded independently.
        assert ctl.offer(_req(2, cls=CLASS_FRESH))
        assert ctl.depth == 2

    def test_next_request_earliest_arrival_cached_ties_first(self):
        ctl = AdmissionController({})
        ctl.offer(_req(0, cls=CLASS_FRESH, arrival=2.0))
        ctl.offer(_req(1, cls=CLASS_FRESH, arrival=5.0))
        ctl.offer(_req(2, cls=CLASS_CACHED, arrival=5.0))
        head = ctl.next_request()
        assert head.req_id == 0  # earliest wins
        ctl.take(head)
        assert ctl.next_request().cls == CLASS_CACHED  # tie -> cached
        with pytest.raises(ServingError):
            ctl.take(_req(9))  # not the head

    def test_unknown_class_rejected(self):
        with pytest.raises(ServingError):
            AdmissionController({"batch": 4})


# --------------------------------------------------------------------- #
# The serving engine
# --------------------------------------------------------------------- #
class TestServingEngine:
    def test_same_seed_trace_bit_identical(self, small_taobao, users):
        traces = [
            _engine(small_taobao, seed=7).run(_open(users, seed=7))
            for _ in range(2)
        ]
        assert traces[0] == traces[1]
        reports = [build_slo_report(t).to_dict() for t in traces]
        assert reports[0] == reports[1]

    def test_different_seed_trace_diverges(self, small_taobao, users):
        a = _engine(small_taobao, seed=7).run(_open(users, seed=7))
        b = _engine(small_taobao, seed=8).run(_open(users, seed=8))
        assert a != b

    def test_zipf_traffic_warms_embed_cache(self, small_taobao, users):
        engine = _engine(small_taobao)
        records = engine.run(
            _open(users, duration_us=200_000.0, zipf_exponent=1.3)
        )
        hits = [r for r in records if r.cache_hit]
        assert hits, "hot users never hit the embedding cache"
        assert all(r.cls == CLASS_CACHED for r in hits)
        # A hit costs exactly the configured table lookup.
        assert all(
            r.service_us == pytest.approx(engine.config.cached_lookup_us)
            for r in hits
        )

    def test_cacheless_baseline_never_hits(self, small_taobao, users):
        config = ServingConfig(embed_cache_capacity=0)
        records = _engine(small_taobao, config=config, cached=False).run(
            _open(users, duration_us=50_000.0)
        )
        assert records and not any(r.cache_hit for r in records)

    def test_saturation_sheds_and_sheds_are_terminal(self, small_taobao, users):
        config = ServingConfig(
            queue_capacities={CLASS_CACHED: 2, CLASS_FRESH: 2},
            embed_cache_capacity=0,
        )
        engine = _engine(small_taobao, config=config, cached=False)
        records = engine.run(
            _open(users, rps=20_000.0, duration_us=100_000.0)
        )
        shed = [r for r in records if r.outcome == OUTCOME_SHED]
        assert shed, "overload never shed despite tiny queues"
        assert all(r.end_us == r.arrival_us for r in shed)
        assert engine.admission.shed[CLASS_CACHED] == sum(
            1 for r in shed if r.cls == CLASS_CACHED
        )

    def test_tight_deadlines_expire_in_queue(self, small_taobao, users):
        deadlines = {CLASS_CACHED: 40.0, CLASS_FRESH: 40.0}
        records = _engine(small_taobao, cached=False).run(
            _open(
                users, rps=8000.0, duration_us=100_000.0,
                deadlines_us=deadlines,
            )
        )
        report = build_slo_report(records)
        assert sum(r.expired for r in report.classes) > 0

    def test_closed_loop_run_serves_full_quota(self, small_taobao, users):
        wl = ClosedLoopWorkload(
            users, n_clients=6, requests_per_client=4, think_us=500.0, seed=2
        )
        records = _engine(small_taobao).run(wl)
        assert len(records) == 24
        assert {r.outcome for r in records} <= {OUTCOME_OK, "late"}

    def test_metrics_and_tracer_integration(self, small_taobao, users):
        # Every instrument rides the runtime: tracer through its
        # constructor, recorder and sampler as plain attributes.
        tracer = Tracer(seed=0)
        engine = _engine(small_taobao, tracer=tracer)
        runtime = engine.runtime
        recorder = runtime.recorder = AccessRecorder(small_taobao.n_vertices, 2)
        sampler = runtime.timeseries = TimeSeriesSampler(
            runtime.metrics, runtime.clock, tick_us=5_000.0
        )
        records = engine.run(_open(users, duration_us=50_000.0))
        assert recorder.total_reads > 0  # the store fed the same recorder
        assert sampler.n_samples > 0
        served = engine.metrics.counter(
            "serving.requests", labels={"class": CLASS_CACHED}
        ).value
        assert served == sum(1 for r in records if r.cls == CLASS_CACHED)
        spans = [sp for sp in tracer.spans if sp.name == "serve.request"]
        assert len(spans) == len(records)
        assert {sp.attrs["outcome"] for sp in spans} <= set(
            ("ok", "late", "shed", "deadline")
        )

    def test_seeded_run_matches_pinned_digests(self, small_taobao, users):
        # "Bit-identical" for the fresh path, pinned: a rewrite of sampling,
        # packing, aggregation or the metric lookups that moves one request
        # record, one SLO number or one bit of a cached embedding fails.
        engine = _engine(small_taobao, seed=7)
        records = engine.run(
            _open(users, seed=7, rps=4000.0, fresh_fraction=0.3)
        )
        slo = json.dumps(build_slo_report(records).to_dict(), sort_keys=True)
        trace = "\n".join(
            f"{r.req_id},{int(r.user)},{r.cls},{r.outcome},{r.arrival_us.hex()},"
            f"{r.end_us.hex()},{r.queue_us.hex()},{r.service_us.hex()},{r.cache_hit}"
            for r in records
        )
        vectors = hashlib.sha256()
        for user, vector in engine.embed_cache._store.items():  # LRU order
            vectors.update(f"{int(user)}:".encode())
            vectors.update(np.ascontiguousarray(vector).tobytes())
        assert (len(records), len(engine.embed_cache)) == (388, 125)
        assert hashlib.sha256(slo.encode()).hexdigest()[:16] == "06d0edba1dea03d6"
        assert hashlib.sha256(trace.encode()).hexdigest()[:16] == "64bd25b2e9ab54f0"
        assert vectors.hexdigest()[:16] == "0620b614d11d1e0b"

    def test_fresh_path_python_call_ceiling(self, small_taobao, users):
        # Gate the per-request toll on a count, not a clock: the Python
        # calls under repro/ for a fixed batch of fresh requests (sample,
        # pack, draw, aggregate, admission, records, metrics). The ceiling
        # is today's count; a per-call cost that creeps back trips it.
        engine = _engine(small_taobao, seed=7)
        workload = _open(
            users, seed=7, rps=1000.0, duration_us=40_000.0, fresh_fraction=1.0
        )
        records = []
        calls = python_calls(lambda: records.extend(engine.run(workload)), under="/repro/")
        assert len(records) == 42
        assert all(r.cls == CLASS_FRESH and r.outcome == OUTCOME_OK for r in records)
        # 8 307 before the RPC runtime dropped its per-server inboxes.
        assert 0 < calls <= 7607

    def test_each_run_returns_only_its_own_records(self, small_taobao, users):
        # The engine keeps no request history: a second run on the same
        # engine answers with exactly the records of its own workload.
        engine = _engine(small_taobao, seed=7)
        n_requests = len(_open(users, duration_us=30_000.0).initial_arrivals())
        first = engine.run(_open(users, duration_us=30_000.0))
        second = engine.run(_open(users, duration_us=30_000.0))
        assert len(first) == len(second) == n_requests > 0
        assert not hasattr(engine, "records")

    def test_config_validation(self, small_taobao):
        with pytest.raises(ServingError):
            ServingConfig(hop_nums=[])
        with pytest.raises(ServingError):
            ServingConfig(cached_lookup_us=-1.0)
        with pytest.raises(ServingError):
            ServingConfig(embed_cache_capacity=-1)
        with pytest.raises(ServingError):
            _engine(small_taobao).__class__(
                _engine(small_taobao).store,
                base_vectors=np.zeros((3, 4)),
            )


# --------------------------------------------------------------------- #
# SLO reports
# --------------------------------------------------------------------- #
class TestSLOReport:
    def test_report_counts_and_percentiles(self, small_taobao, users):
        records = _engine(small_taobao).run(
            _open(users, duration_us=100_000.0)
        )
        report = build_slo_report(records)
        assert sum(r.requests for r in report.classes) == len(records)
        for row in report.classes:
            assert row.requests == row.completed + row.shed + row.expired
            assert row.p50_us <= row.p95_us <= row.p99_us
        cached = report.class_report(CLASS_CACHED)
        assert cached.cache_hits >= 0
        with pytest.raises(KeyError):
            report.class_report("batch")

    def test_goodput_is_ok_per_second(self):
        reqs = [_req(i, arrival=float(i)) for i in range(4)]
        records = [
            _engine_record_stub(r, end_us=r.arrival_us + 10.0) for r in reqs
        ]
        report = build_slo_report(records, duration_us=2_000_000.0)
        assert report.goodput_rps == pytest.approx(2.0)

    def test_empty_trace_report(self):
        report = build_slo_report([])
        assert sum(r.requests for r in report.classes) == 0 and report.goodput_rps == 0.0


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestServeBenchCli:
    def test_open_loop_smoke(self, tmp_path):
        from tests.conftest import bench_payload

        payload = bench_payload("serving_slo", tmp_path)
        rows = {r["label"]: r["measured"] for r in payload["records"]}
        cached = rows["diurnal burst / full stack / cached"]
        assert cached["ok"] > 0 and cached["p99_us"] >= cached["p50_us"]
        assert rows["diurnal burst / full stack / goodput"]["in_deadline_rps"] > 0
