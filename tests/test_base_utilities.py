"""Direct tests of shared utilities used only indirectly elsewhere."""

import numpy as np
import pytest

from repro.algorithms.base import (
    DenseTables,
    edge_batches,
    pair_batches,
    train_skipgram,
    train_steps,
    unit_rows,
)
from repro.errors import OperatorError, TrainingError
from repro.nn.init import embedding_init, he_uniform, xavier_uniform
from repro.runtime import StageProfiler
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.sampling.traverse import EdgeTraverseSampler
from repro.utils.rng import make_rng


def test_unit_rows_normalizes_and_keeps_zeros():
    rows = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = unit_rows(rows)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_allclose(out[1], [0.0, 0.0])


SKIPGRAM_TABLES = (("center", 8, (0,)), ("context", 8, (1, 2)))


def test_train_skipgram_reduces_loss(tiny_graph):
    rng = make_rng(0)
    tables = DenseTables(tiny_graph, rng, 0.05, SKIPGRAM_TABLES)
    src, dst, _ = tiny_graph.edge_array()
    pairs = (np.tile(src, 40), np.tile(dst, 40))
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    first = train_skipgram(pairs, tables, sampler, rng, epochs=1, batch_size=64)
    final = train_skipgram(pairs, tables, sampler, rng, epochs=3, batch_size=64)
    assert final < first


def test_train_skipgram_validates_pairs(tiny_graph):
    rng = make_rng(0)
    tables = DenseTables(tiny_graph, rng, 0.025, SKIPGRAM_TABLES)
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    with pytest.raises(TrainingError):
        train_skipgram((np.array([0]), np.array([0, 1])), tables, sampler, rng)
    with pytest.raises(TrainingError):
        train_skipgram(
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
            tables, sampler, rng,
        )


# --------------------------------------------------------------------- #
# The step driver and its two batch sources
# --------------------------------------------------------------------- #
class _RecordingStep:
    """An optimizer and a loss that only write down the order of calls."""

    def __init__(self):
        self.log = []

    def zero_grad(self):
        self.log.append("zero_grad")

    def step(self):
        self.log.append("step")

    def backward(self):
        self.log.append("backward")

    def item(self):
        return float(self.log.count("step"))


def _rng_drawing_source(rng, n_batches, states):
    """A source sharing ``rng`` with the loss: one draw per batch, the state
    right after it written to ``states``."""
    for _ in range(n_batches):
        draw = rng.integers(1 << 30)
        states.append(rng.bit_generator.state)
        yield (draw,)


def test_train_steps_order_and_lazy_source():
    rng = make_rng(3)
    rec = _RecordingStep()
    after_draw, seen_in_loss = [], []

    def loss_fn(draw):
        rec.log.append("loss_fn")
        seen_in_loss.append(rng.bit_generator.state)
        rng.integers(1 << 30)  # the loss consumes the shared stream too
        return rec

    losses = train_steps(_rng_drawing_source(rng, 4, after_draw), loss_fn, rec)
    assert rec.log == ["zero_grad", "loss_fn", "backward", "step"] * 4
    assert losses == [1.0, 2.0, 3.0, 4.0]  # one loss per step
    # Batch k is drawn after step k-1's loss ran, never up front: the state
    # the loss sees is the one its own batch's draw left behind.
    assert seen_in_loss == after_draw
    eager = make_rng(3)
    eager_states = []
    list(_rng_drawing_source(eager, 4, eager_states))
    assert eager_states[1:] != after_draw[1:]


def test_train_steps_empty_source_never_touches_the_optimizer():
    rec = _RecordingStep()
    assert train_steps(iter(()), lambda: rec, rec) == []
    assert rec.log == []


def test_train_steps_takes_steps_batches_and_leaves_the_rest_undrawn():
    rng = make_rng(0)
    rec = _RecordingStep()
    states = []
    source = _rng_drawing_source(rng, 5, states)
    profiler = StageProfiler()
    losses = train_steps(source, lambda draw: rec, rec, steps=2, profiler=profiler)
    assert len(losses) == 2 and len(states) == 2
    assert len(profiler.step_us()) == 2
    # Each step span holds its pull, backward and optimizer stage spans.
    spans = profiler.tracer.spans
    for step in (sp for sp in spans if sp.name == "train.step"):
        assert [sp.name for sp in spans if sp.parent_id == step.span_id] == [
            "train.sample", "train.backward", "train.optimizer"
        ]
    totals = profiler.stage_totals()
    assert all(totals[stage] > 0.0 for stage in ("sample", "backward", "optimizer"))
    assert totals["materialize"] == totals["aggregate"] == totals["combine"] == 0.0
    assert len(train_steps(source, lambda draw: rec, rec)) == 3  # the rest


def test_pair_batches_are_the_shuffled_sliced_epoch(tiny_graph):
    """The epoch loop ``train_skipgram`` used to carry: permutation, slices
    of ``batch_size`` (ragged last one), negatives per slice."""
    src, dst, _ = tiny_graph.edge_array()
    centers, contexts = np.tile(src, 3), np.tile(dst, 3)  # 21 pairs
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    rng, oracle = make_rng(11), make_rng(11)
    got = list(pair_batches((centers, contexts), sampler, rng, batch_size=8, neg_num=3))
    perm = oracle.permutation(centers.size)
    want = []
    for lo in range(0, centers.size, 8):
        idx = perm[lo : lo + 8]
        negs = sampler.sample(centers[idx], 3, oracle).reshape(-1)
        want.append((centers[idx], contexts[idx], negs))
    assert [b[0].size for b in got] == [8, 8, 5]
    assert all(np.array_equal(g, w) for gb, wb in zip(got, want) for g, w in zip(gb, wb))
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_edge_batches_weighted_are_lines_traverse_loop(tiny_graph):
    """``weighted=True`` is LINE's loop: edges by weight, negatives around src."""
    rng, oracle = make_rng(5), make_rng(5)
    got = list(edge_batches(tiny_graph, rng, 4, batch_size=6, neg_num=2, weighted=True))
    edges = EdgeTraverseSampler(tiny_graph, weighted=True)
    negs = DegreeBiasedNegativeSampler(tiny_graph)
    assert len(got) == 4
    for src, dst, neg_ids in got:
        want_src, want_dst = edges.sample(6, oracle)
        assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)
        assert np.array_equal(neg_ids, negs.sample(want_src, 2, oracle).reshape(-1))
    assert rng.bit_generator.state == oracle.bit_generator.state
    uniform = next(edge_batches(tiny_graph, make_rng(5), 1, batch_size=6, neg_num=2))
    assert not np.array_equal(uniform[0], got[0][0])


@pytest.mark.parametrize(
    "init", [xavier_uniform, he_uniform], ids=["xavier", "he"]
)
def test_inits_bounded_and_seeded(init):
    rng = make_rng(5)
    w = init((64, 32), rng)
    assert w.shape == (64, 32)
    assert np.abs(w).max() <= 1.0
    w2 = init((64, 32), make_rng(5))
    np.testing.assert_array_equal(w, w2)


def test_embedding_init_scale():
    rng = make_rng(0)
    w = embedding_init((100, 20), rng)
    assert np.abs(w).max() <= 0.5 / 20 + 1e-12
    w2 = embedding_init((100, 20), rng, scale=0.1)
    assert np.abs(w2).max() <= 0.1


def test_register_plugins_require_names():
    from repro.ops.base import register_aggregator, register_combiner

    class Nameless:
        name = ""

    with pytest.raises(OperatorError):
        register_aggregator(Nameless)
    with pytest.raises(OperatorError):
        register_combiner(Nameless)


def test_partition_registry_rejects_abstract():
    from repro.errors import PartitionError
    from repro.storage.partition.base import Partitioner, register_partitioner

    class Unnamed(Partitioner):
        name = "abstract"

    with pytest.raises(PartitionError):
        register_partitioner(Unnamed)


def test_custom_partitioner_plugin(small_powerlaw):
    """Users can register their own strategies, as the paper promises."""
    import numpy as np

    from repro.storage.partition.base import (
        PartitionAssignment,
        Partitioner,
        get_partitioner,
        register_partitioner,
    )

    @register_partitioner
    class EvenOdd(Partitioner):
        name = "even_odd_test"

        def partition(self, graph, n_parts):
            self._validate(graph, n_parts)
            parts = np.arange(graph.n_vertices, dtype=np.int64) % n_parts
            return PartitionAssignment(graph, n_parts, parts)

    p = get_partitioner("even_odd_test")
    assignment = p.partition(small_powerlaw, 2)
    assert assignment.balance() < 1.01
