"""CostAccumulator, table formatting, RNG helpers."""

import pytest

from repro.errors import StorageError
from repro.utils.rng import make_rng
from repro.utils.tables import format_table
from repro.utils.timer import CostAccumulator


def test_cost_accumulator_pricing():
    acc = CostAccumulator(costs={"rpc": 100.0, "read": 1.0})
    acc.record("rpc", 3)
    acc.record("read", 10)
    acc.record("unpriced", 5)
    assert acc.modelled_micros() == pytest.approx(310.0)
    assert acc.modelled_millis() == pytest.approx(0.31)
    assert acc.count("unpriced") == 5


def test_cost_accumulator_merge_reset():
    a = CostAccumulator(costs={"x": 1.0})
    a.record("x", 4)
    assert a.count("x") == 4
    a.reset()
    assert a.count("x") == 0


def test_cost_accumulator_rejects_negative():
    with pytest.raises(StorageError):
        CostAccumulator().record("x", -1)


def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
    lines = out.split("\n")
    assert len(lines) == 4
    assert "name" in lines[0] and "value" in lines[0]
    assert "long-name" in lines[2] or "long-name" in lines[3]


def test_format_table_title():
    out = format_table(["x"], [[1]], title="T")
    assert out.startswith("T\n")


def test_format_table_rejects_ragged():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_make_rng_passthrough():
    rng = make_rng(0)
    assert make_rng(rng) is rng


def test_make_rng_seeded_deterministic():
    assert make_rng(42).integers(1000) == make_rng(42).integers(1000)
