"""Extension features (paper §7 future work + operational hardening):
subgraph embeddings, early stopping, AutoGNN, worker failure handling
and streaming updates."""

import numpy as np
import pytest

from repro.algorithms.automl import AutoGNN, default_candidates
from repro.errors import ReproError, StorageError, TrainingError
from repro.graph.dynamic import EdgeEvent
from repro.storage import ImportanceCachePolicy, LRUCachePolicy
from repro.storage.cluster import make_store
from repro.storage.costmodel import (
    EV_EDGE_INGESTED,
    EV_FAILOVER_READ,
    EV_ITEM_SHIPPED,
    EV_REPLICA_REFRESH,
)
from repro.tasks.edge_embeddings import subgraph_embedding
from tests.conftest import replica_holders


# --------------------------------------------------------------------- #
# Subgraph embeddings
# --------------------------------------------------------------------- #
@pytest.fixture
def emb():
    return np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])


def test_subgraph_pooling(emb):
    np.testing.assert_allclose(subgraph_embedding(emb, np.array([0, 1])), [2.0, 3.0])
    np.testing.assert_allclose(subgraph_embedding(emb, [2]), [0.0, 1.0])


def test_subgraph_validations(emb):
    with pytest.raises(ReproError):
        subgraph_embedding(emb, np.array([], dtype=np.int64))


# --------------------------------------------------------------------- #
# AutoGNN
# --------------------------------------------------------------------- #
def test_autognn_selects_and_fits(small_amazon):
    auto = AutoGNN(
        candidates=default_candidates()[:2],
        validation_fraction=0.2,
        seed=0,
    )
    auto.fit(small_amazon)
    assert auto.best_candidate in ("deepwalk", "sage-mean-f4")
    assert auto.embeddings().shape[0] == small_amazon.n_vertices
    assert all(r.score > 50.0 for r in auto.results if r.fitted)


def test_autognn_skips_broken_candidates(small_amazon):
    from repro.algorithms.metapath2vec import Metapath2Vec

    auto = AutoGNN(
        candidates=[
            # Metapath2Vec with an unknown start type fails with
            # TrainingError — AutoGNN must survive it.
            ("broken", lambda: Metapath2Vec(metapath=["user", "item"])),
            ("deepwalk", default_candidates()[0][1]),
        ],
        seed=0,
    )
    auto.fit(small_amazon)
    assert auto.best_candidate == "deepwalk"


def test_autognn_validations(small_amazon):
    with pytest.raises(TrainingError):
        AutoGNN(metric="accuracy")
    with pytest.raises(TrainingError):
        AutoGNN(candidates=[]).fit(small_amazon)
    with pytest.raises(TrainingError):
        AutoGNN().best_candidate


# --------------------------------------------------------------------- #
# Worker failure handling
# --------------------------------------------------------------------- #
def test_failed_owner_without_replica_raises(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 0
    owner = store.owner(v)
    store.fail_worker(owner)
    other = (owner + 1) % 4
    with pytest.raises(StorageError):
        store.neighbors(v, from_part=other)


def test_failed_owner_served_from_cache_replica(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.5, seed=0,
    )
    from repro.storage.importance import importance_scores

    hot = int(np.argsort(importance_scores(small_powerlaw, 2))[::-1][0])
    owner = store.owner(hot)
    store.fail_worker(owner)
    issuer = (owner + 1) % 4
    # The issuer's own cache may serve it; if so, drop that copy to force
    # the failover path through a third server.
    store.servers[issuer].neighbor_cache.invalidate_many([hot])
    got = store.neighbors(hot, from_part=issuer)
    np.testing.assert_array_equal(
        np.sort(got), np.sort(small_powerlaw.out_neighbors(hot))
    )
    assert store.ledger.count(EV_FAILOVER_READ) == 1


def test_failed_issuer_rejected(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    store.fail_worker(0)
    with pytest.raises(StorageError):
        store.neighbors(0, from_part=0)


def test_restore_worker(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    v = 0
    owner = store.owner(v)
    store.fail_worker(owner)
    assert owner in store.failed_workers
    store.restore_worker(owner)
    assert owner not in store.failed_workers
    got = store.neighbors(v, from_part=(owner + 1) % 2)
    np.testing.assert_array_equal(
        np.sort(got), np.sort(small_powerlaw.out_neighbors(v))
    )


def test_fail_unknown_worker(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    with pytest.raises(StorageError):
        store.fail_worker(7)


# --------------------------------------------------------------------- #
# Streaming updates
# --------------------------------------------------------------------- #
def test_apply_edge_addition_visible(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    u = 0
    before = small_powerlaw.out_neighbors(u)
    new_dst = int((before.max() + 1) % small_powerlaw.n_vertices)
    while new_dst in set(int(x) for x in before):
        new_dst = (new_dst + 1) % small_powerlaw.n_vertices
    applied = store.apply_edge_events([EdgeEvent(timestamp=0, src=u, dst=new_dst)])
    assert applied == 1
    got = store.neighbors(u, from_part=store.owner(u))
    assert new_dst in set(int(x) for x in got)


def test_apply_edge_removal(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    u = int(np.argmax(small_powerlaw.out_degrees()))
    victim = int(small_powerlaw.out_neighbors(u)[0])
    applied = store.apply_edge_events(
        [EdgeEvent(timestamp=0, src=u, dst=victim, kind="remove")]
    )
    assert applied == 1
    got = store.neighbors(u, from_part=store.owner(u))
    # One copy removed (parallel arcs may retain others).
    assert list(got).count(victim) == list(
        small_powerlaw.out_neighbors(u)
    ).count(victim) - 1


def test_remove_absent_edge_not_counted(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    u = 0
    absent = int(small_powerlaw.out_neighbors(u).max() + 1) % small_powerlaw.n_vertices
    while small_powerlaw.has_edge(u, absent):
        absent = (absent + 1) % small_powerlaw.n_vertices
    applied = store.apply_edge_events(
        [EdgeEvent(timestamp=0, src=u, dst=absent, kind="remove")]
    )
    assert applied == 0


@pytest.mark.parametrize("policy", [ImportanceCachePolicy, LRUCachePolicy])
def test_remove_absent_edge_keeps_cached_copies(small_powerlaw, policy):
    # A remove that matches no arc changes nothing, so it must not drop a
    # demand-filled copy nor re-ship the unchanged row to pinned holders.
    store = make_store(
        small_powerlaw, 2, cache_policy=policy(), cache_budget_fraction=0.5, seed=0
    )
    from repro.storage.importance import importance_scores

    u = int(np.argsort(importance_scores(small_powerlaw, 2))[::-1][0])  # pinned
    reader = (store.owner(u) + 1) % 2
    row = store.neighbors(u, from_part=reader)  # LRU: fills the reader's cache
    cache = store.servers[reader].neighbor_cache
    held = cache.peek(u)
    assert held is not None
    np.testing.assert_array_equal(held, row)
    absent = next(v for v in range(small_powerlaw.n_vertices) if v not in set(row.tolist()))
    store.reset_ledger()
    applied = store.apply_edge_events(
        [EdgeEvent(timestamp=0, src=u, dst=absent, kind="remove")]
    )
    assert applied == 0
    assert store.ledger.count(EV_EDGE_INGESTED) == 1  # the shard did process it
    assert store.ledger.count(EV_REPLICA_REFRESH) == 0
    assert store.ledger.count(EV_ITEM_SHIPPED) == 0
    assert np.shares_memory(cache.peek(u), held)  # the same copy, not a refill
    assert replica_holders(store.replicas, u) != ()


def test_update_invalidates_caches(small_powerlaw):
    store = make_store(
        small_powerlaw, 2,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.5, seed=0,
    )
    from repro.storage.importance import importance_scores

    hot = int(np.argsort(importance_scores(small_powerlaw, 2))[::-1][0])
    other = (store.owner(hot) + 1) % 2
    before = store.neighbors(hot, from_part=other)  # served from cache
    new_dst = 0
    while small_powerlaw.has_edge(hot, new_dst) or new_dst == hot:
        new_dst += 1
    store.apply_edge_events([EdgeEvent(timestamp=0, src=hot, dst=new_dst)])
    after = store.neighbors(hot, from_part=other)
    assert new_dst in set(int(x) for x in after)
    assert after.size == before.size + 1


def test_update_to_failed_owner_rejected(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    u = 0
    store.fail_worker(store.owner(u))
    with pytest.raises(StorageError):
        store.apply_edge_events([EdgeEvent(timestamp=0, src=u, dst=1)])


def test_lru_delete():
    from repro.utils.lru import LRUCache

    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.delete("a")
    assert not cache.delete("a")
    assert "a" not in cache
