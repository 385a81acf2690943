"""Lock-free request-flow buckets: routing and makespan modelling."""

import pytest

from repro.errors import StorageError
from repro.storage.buckets import (
    LOCK_OVERHEAD_US,
    Request,
    RequestFlowBuckets,
    synthetic_trace,
)
from repro.utils.rng import make_rng


def test_bucket_routing_deterministic():
    buckets = RequestFlowBuckets(n_vertices=100, n_buckets=8)
    assert buckets.bucket_of(5) == buckets.bucket_of(5)
    assert buckets.bucket_of(13) == 13 % 8


def test_bucket_of_bounds():
    buckets = RequestFlowBuckets(10, 2)
    with pytest.raises(StorageError):
        buckets.bucket_of(10)


def test_route_preserves_fifo_order():
    buckets = RequestFlowBuckets(10, 2)
    trace = [Request(0), Request(2), Request(4)]  # all bucket 0
    queues = buckets.route(trace)
    assert queues[0] == trace
    assert queues[1] == []


def test_lock_free_makespan_is_busiest_bucket():
    buckets = RequestFlowBuckets(10, 2)
    trace = [Request(0, service_us=5.0), Request(1, service_us=1.0), Request(2, service_us=5.0)]
    # Bucket 0 gets vertices 0, 2 (10us); bucket 1 gets vertex 1 (1us).
    assert buckets.lock_free_makespan_us(trace) == 10.0


def test_locked_makespan_serializes_updates():
    buckets = RequestFlowBuckets(10, 4)
    trace = [Request(i, kind="update", service_us=2.0) for i in range(8)]
    locked = buckets.locked_makespan_us(trace)
    assert locked == pytest.approx(8 * (2.0 + LOCK_OVERHEAD_US))  # all exclusive


def test_locked_reads_parallelize():
    buckets = RequestFlowBuckets(10, 4)
    trace = [Request(i, kind="read", service_us=2.0) for i in range(8)]
    locked = buckets.locked_makespan_us(trace)
    assert locked == pytest.approx(8 * (2.0 + LOCK_OVERHEAD_US) / 4)


def test_speedup_gt_one_with_updates():
    rng = make_rng(0)
    buckets = RequestFlowBuckets(1000, 8)
    trace = synthetic_trace(1000, 4000, update_fraction=0.3, rng=rng)
    assert buckets.locked_makespan_us(trace) / buckets.lock_free_makespan_us(trace) > 1.5


def test_more_buckets_never_slower():
    rng = make_rng(1)
    trace = synthetic_trace(1000, 4000, update_fraction=0.1, rng=rng)
    few = RequestFlowBuckets(1000, 2).lock_free_makespan_us(trace)
    many = RequestFlowBuckets(1000, 16).lock_free_makespan_us(trace)
    assert many <= few


def test_request_validations():
    with pytest.raises(StorageError):
        Request(0, kind="write")
    with pytest.raises(StorageError):
        Request(0, service_us=0.0)


def test_constructor_validations():
    with pytest.raises(StorageError):
        RequestFlowBuckets(10, 0)
    with pytest.raises(StorageError):
        RequestFlowBuckets(0, 2)


def test_synthetic_trace_mix():
    rng = make_rng(2)
    trace = synthetic_trace(100, 1000, update_fraction=0.25, rng=rng)
    frac = sum(r.kind == "update" for r in trace) / len(trace)
    assert abs(frac - 0.25) < 0.05
    with pytest.raises(StorageError):
        synthetic_trace(100, 10, update_fraction=1.5, rng=rng)
