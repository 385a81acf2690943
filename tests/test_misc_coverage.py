"""Coverage for remaining public behaviours: framework gradient flow,
dynamic-weight sampler integration, server internals, report edge cases."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.cluster import make_store


def test_framework_parameters_actually_train(small_amazon):
    """Every encoder parameter must receive gradient and move."""
    from repro.algorithms.base import node_features
    from repro.algorithms.framework import GNNFramework

    model = GNNFramework(dim=12, kmax=1, fanout=4, epochs=1, max_steps_per_epoch=3, seed=0)
    model.fit(small_amazon)
    encoder = model._encoder
    params = encoder.parameters()
    assert len(params) >= 3
    # Check gradients flow to every parameter in one manual step.
    rng = np.random.default_rng(0)
    from repro.nn.tensor import Tensor

    feats = node_features(small_amazon, rng, 12)
    block = model._all_vertex_block(small_amazon, model._make_sampler(small_amazon), rng)
    h = encoder(Tensor(feats), block)
    (h * h).sum().backward()
    grads = [p.grad for p in params]
    assert all(g is not None for g in grads)
    assert all(np.isfinite(g).all() for g in grads)
    assert any(np.abs(g).max() > 0 for g in grads)


def test_weighted_sampler_framework_integration(small_amazon):
    """The 'weighted' sampler plugin trains end to end."""
    from repro.algorithms.framework import GNNFramework

    model = GNNFramework(
        dim=12, kmax=1, fanout=4, sampler="weighted",
        epochs=1, max_steps_per_epoch=3, seed=0,
    )
    emb = model.fit(small_amazon).embeddings()
    assert np.isfinite(emb).all()


def test_server_edge_mutation_guards(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    v = 0
    owner = store.owner(v)
    foreign = store.servers[(owner + 1) % 2]
    for ops in ([("add", 1)], [("remove", 1)], []):
        with pytest.raises(StorageError):
            foreign.edit_rows({v: ops})
    # A batch that changes nothing installs nothing: the row is still read
    # out of the shard's slice, not out of a fresh override array.
    arena = store.servers[owner]._rows
    row = arena.row(v)
    absent = next(u for u in range(small_powerlaw.n_vertices) if u not in row.tolist())
    assert store.servers[owner].edit_rows({v: [("remove", absent)]}).get(v, []) == []
    assert np.shares_memory(arena.row(v), row)


def test_server_n_local_edges(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    total = sum(s.n_local_edges for s in store.servers)
    assert total == small_powerlaw.n_edges
    assert "GraphServer" in repr(store.servers[0])


def test_neighbor_cache_pin_capacity():
    from repro.errors import StorageError
    from repro.storage.cache import NeighborCache
    from tests.conftest import pin_row

    cache = NeighborCache(1)
    pin_row(cache, 0, [1, 2])
    with pytest.raises(StorageError):
        pin_row(cache, 1, [3])
    cache.invalidate_many([0])
    pin_row(cache, 1, [3])  # capacity freed by invalidation
    assert cache.peek(1).tolist() == [3]


def test_report_rejects_empty_lift_path():
    from repro.bench import ExperimentReport

    report = ExperimentReport("empty", "no rows")
    out = report.render()
    assert "[empty]" in out  # renders header even with no rows


def test_dynamics_features_standardized():
    from repro.algorithms.evolving_gnn import _dynamics_features
    from repro.data import dynamic_taobao

    dyn = dynamic_taobao(n_vertices=120, n_timestamps=3, seed=1)
    feats = _dynamics_features(dyn)
    assert len(feats) == 3
    stacked = np.concatenate(feats, axis=0)
    np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-6)


def test_gatne_alpha_zero_removes_specific(small_amazon):
    from repro.algorithms import GATNE

    base_only = GATNE(dim=12, alpha=0.0, beta=0.0, epochs=1, walks_per_vertex=2, seed=3)
    full = GATNE(dim=12, alpha=1.0, beta=0.0, epochs=1, walks_per_vertex=2, seed=3)
    e1 = base_only.fit(small_amazon).embeddings()
    e2 = full.fit(small_amazon).embeddings()
    assert not np.allclose(e1, e2)
