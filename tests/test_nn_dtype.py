"""The tape's one compute dtype, and the typed row ids every gather checks.

``repro.nn.tensor.DTYPE`` is the dtype of everything on the tape. A single
float64 operand would silently upcast every op after it (numpy and scipy
promote float32 × float64 to float64), so the guard here audits real
training steps: every tensor a backward pass walks and every gradient a
closure hands back must be ``DTYPE``, while the embeddings a model hands
out stay float64 unit rows.
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.algorithms import DeepWalk, GraphSAGE
from repro.errors import OperatorError
from repro.nn import DTYPE, functional as F
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor, selection_matrix
from repro.ops.base import AGGREGATOR_REGISTRY
from repro.ops.materialize import MaterializationCache
from repro.storage.embedding import EmbeddingShard
from tests.gradcheck import float64_dtype


def test_dtype_is_float32():
    assert DTYPE is np.float32
    assert Tensor([1, 2]).data.dtype == DTYPE
    assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == DTYPE


def test_float64_tape_fixture_pins_every_binding(float64_tape):
    from repro.nn import layers, optim

    assert Tensor([1.0]).data.dtype == np.float64
    assert layers.DTYPE is optim.DTYPE is np.float64


def test_float64_dtype_restores_a_module_bound_inside():
    probe = types.ModuleType("repro._dtype_probe")
    try:
        with float64_dtype():
            # What a module first imported here binds.
            probe.DTYPE = tensor_module.DTYPE
            assert probe.DTYPE is np.float64
            sys.modules[probe.__name__] = probe
        assert probe.DTYPE is DTYPE
    finally:
        sys.modules.pop(probe.__name__, None)


@pytest.fixture
def audited(monkeypatch):
    """Wrap ``Tensor.backward`` so each call first walks its tape, checking
    every node's data and wrapping every closure to check the gradients it
    returns. Returns the running counts (a vacuous audit must fail)."""
    seen = {"backwards": 0, "nodes": 0, "grads": 0}
    real = Tensor.backward

    def checked(closure):
        def run(g):
            out = list(closure(g))
            for parent, pgrad in out:
                if pgrad is not None:
                    assert pgrad.dtype == DTYPE, (parent, pgrad.dtype)
                    seen["grads"] += 1
            return out

        return run

    def backward(self, grad=None):
        seen["backwards"] += 1
        stack, visited = [self], set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            assert node.data.dtype == DTYPE, (node, node.data.dtype)
            seen["nodes"] += 1
            if node._backward is not None:
                node._backward = checked(node._backward)
            stack.extend(node._parents)
        real(self, grad)

    monkeypatch.setattr(Tensor, "backward", backward)
    return seen


def _assert_unit_float64(emb: np.ndarray, n: int) -> None:
    assert emb.dtype == np.float64 and emb.shape[0] == n
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("aggregator", sorted(AGGREGATOR_REGISTRY))
def test_graphsage_block_step_stays_in_dtype(aggregator, small_taobao, audited):
    model = GraphSAGE(
        dim=8, kmax=2, fanout=3, aggregator=aggregator, epochs=1, batch_size=64,
        max_steps_per_epoch=1, minibatch_blocks=True, seed=3,
    ).fit(small_taobao)
    assert audited["backwards"] == 1 and audited["nodes"] > 10 and audited["grads"] > 10
    params = model._encoder.parameters()
    assert params and all(p.data.dtype == DTYPE for p in params)
    assert all(p.grad is not None and p.grad.dtype == DTYPE for p in params)
    _assert_unit_float64(model.embeddings(), small_taobao.n_vertices)


def test_kv_deepwalk_step_stays_in_dtype(tiny_graph, audited, monkeypatch):
    applied = []
    real_apply = EmbeddingShard.apply

    def apply(shard, local_ids, grad_rows):
        real_apply(shard, local_ids, grad_rows)
        moments = shard._opt._m + shard._opt._v
        applied.append({shard.param.data.dtype, grad_rows.dtype, *(a.dtype for a in moments)})

    monkeypatch.setattr(EmbeddingShard, "apply", apply)
    model = DeepWalk(
        dim=4, walks_per_vertex=1, walk_length=4, window=1, epochs=1, seed=2,
        backend="kv", kv_workers=2,
    ).fit(tiny_graph)
    assert audited["backwards"] == 1 and audited["grads"] > 0
    assert applied and all(dtypes == {np.dtype(DTYPE)} for dtypes in applied)
    _assert_unit_float64(model.embeddings(), tiny_graph.n_vertices)


def test_models_trained_on_the_tape_hand_out_float64():
    from repro.algorithms import BayesianGNN
    from repro.algorithms.autoencoders import DAE, BetaVAE
    from repro.data import knowledge_graph

    rng = np.random.default_rng(0)
    interactions = (rng.random((20, 15)) > 0.7).astype(float)
    for cls in (DAE, BetaVAE):
        model = cls(dim=4, hidden=8, epochs=1).fit(interactions)
        assert model.user_embeddings().dtype == model.item_embeddings().dtype == np.float64
    kg, _, _ = knowledge_graph(30, n_brands=5, n_categories=3, seed=1)
    model = BayesianGNN(dim=4, steps=3).fit_correction(
        rng.normal(size=(30, 4)), kg, np.arange(30)
    )
    assert model.embeddings().dtype == np.float64


# ---------------------------------------------------------------------- #
# Typed row ids: a float or bool id is an error, not a truncated row
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "ids",
    [[0.7, 2.9], np.array([0.0, 1.0]), [True, False], np.array([1, 0], dtype=bool)],
    ids=["floats", "integral_floats", "bools", "bool_array"],
)
def test_row_ids_must_be_integers(ids):
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with pytest.raises(OperatorError, match="integers"):
        x.gather_rows(ids)
    with pytest.raises(OperatorError, match="integers"):
        selection_matrix(np.asarray(ids).reshape(1, -1), 4)
    with pytest.raises(OperatorError, match="integers"):
        F.gather_sum_rows(x, np.asarray(ids).reshape(1, -1))
    with pytest.raises(OperatorError, match="integers"):
        MaterializationCache(1, 4).lookup(1, ids)
    assert x.grad is None and x.sparse_grad is None


def test_integer_row_ids_of_any_width_are_accepted():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = x.gather_rows(np.array([3, 0, 3], dtype=np.uint8))
    out.backward(np.ones((3, 3), dtype=DTYPE))
    np.testing.assert_array_equal(x.grad[:, 0], [1, 0, 0, 2])
    assert x.gather_rows([]).shape == (0, 3)
    assert selection_matrix(np.array([[1, 2]], dtype=np.int32), 4).shape == (1, 4)
