"""Neighbor rows in columnar form: the block a read answers with, and the
append-only row arena a shard and a demand-filled cache keep their rows in.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.graph.graph import take_rows


class RowBlock(NamedTuple):
    """Neighbor rows of distinct vertices as one ragged block: row ``i``,
    ``indices[offsets[i]:offsets[i + 1]]``, is the out-neighbors of
    ``ids[i]`` (all int64). What a shard read, a neighbors RPC, a cache
    lookup and a store read answer with."""

    ids: np.ndarray
    offsets: np.ndarray
    indices: np.ndarray


def pack_rows(rows: "list[np.ndarray]") -> tuple[np.ndarray, np.ndarray]:
    """Int64 ``rows`` as one CSR ``(offsets, values)``: one concatenate."""
    offsets = np.fromiter(accumulate(map(len, rows), initial=0), np.int64, len(rows) + 1)
    values = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return offsets, values


def concat_blocks(blocks: "list[RowBlock]") -> RowBlock:
    """``blocks`` laid end to end as one block."""
    if not blocks:
        return RowBlock(np.zeros(0, dtype=np.int64), *pack_rows([]))
    ids, offsets, indices = zip(*blocks)
    degrees = np.concatenate(list(map(np.diff, offsets)))
    bounds = np.zeros(degrees.size + 1, dtype=np.int64)
    degrees.cumsum(out=bounds[1:])
    return RowBlock(np.concatenate(ids), bounds, np.concatenate(indices))


class RowArena:
    """Rows of vertex ids in one int64 array, found through a vertex-indexed
    span table: vertex ``v``'s row is ``cells[start[v]:stop[v]]``.

    A cell is written once. :meth:`put` appends its rows past every cell
    written so far and re-points their spans; when the array is full, the
    live rows move into a fresh one with room to spare. A view handed out
    therefore keeps its contents whatever is written later, and a dropped
    row's cells are reclaimed at the next move. The table is padded at both
    ends and grows to the largest id put, and lookups clip, so no id outside
    it, negative ones included, finds a row. ``block`` seeds the arena
    without a copy.
    """

    def __init__(self, n: int = 0, block: "RowBlock | None" = None) -> None:
        self._start = np.full(n + 2, -1, dtype=np.int64)
        self._stop = np.zeros(n + 2, dtype=np.int64)
        self._cells = np.zeros(0, dtype=np.int64)
        self._used = 0
        if block is not None:  # its indices become the cells as they are
            ids, offsets, self._cells = block
            self._start[ids + 1], self._stop[ids + 1] = offsets[:-1], offsets[1:]
            self._used = self._cells.size

    def has(self, vertex: int) -> bool:
        """Whether ``vertex`` has a row here."""
        return 0 <= vertex < self._start.size - 2 and self._start.item(vertex + 1) >= 0

    def held(self, ids: np.ndarray) -> np.ndarray:
        """Whether each of ``ids`` has a row here, as one boolean mask."""
        return self._start.take(ids + 1, mode="clip") >= 0

    def ids(self) -> np.ndarray:
        """The ids with a row, ascending."""
        return (self._start >= 0).nonzero()[0] - 1

    def row(self, vertex: int) -> np.ndarray:
        """``vertex``'s row, as a view (the caller checks :meth:`has`)."""
        return self._cells[self._start.item(vertex + 1) : self._stop.item(vertex + 1)]

    def take(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``ids``, packed as one fresh CSR ``(offsets, values)``.

        Raises ``KeyError`` naming the first of ``ids`` without a row.
        """
        slots = ids + 1
        starts = self._start.take(slots, mode="clip")
        if ids.size and starts.min() < 0:
            raise KeyError(int(ids[starts < 0][0]))
        return take_rows(starts, self._stop[slots], self._cells)

    def put(
        self,
        ids: np.ndarray,
        offsets: np.ndarray,
        values: np.ndarray,
        live: "Callable[[], Iterable[int]] | None" = None,
    ) -> None:
        """Write the rows of the CSR ``(offsets, values)`` as those of the
        distinct ``ids``, replacing any they had.

        When the array is full, the rows of the ids ``live()`` names (by
        default every row with a span) move into a fresh array with room
        to spare, and every other row is forgotten.
        """
        if ids.size and ids.max() + 3 > self._start.size:
            grow = max(self._start.size, int(ids.max()) + 3 - self._start.size)
            self._start = np.concatenate((self._start, np.full(grow, -1, dtype=np.int64)))
            self._stop = np.concatenate((self._stop, np.zeros(grow, dtype=np.int64)))
        start, stop = self._start, self._stop
        slots = ids + 1
        if self._used + values.size > self._cells.size:
            start[slots] = -1  # their old rows need no move
            kept = (self.ids() if live is None else np.fromiter(live(), np.int64)) + 1
            kept = kept[start[kept] >= 0]
            bounds, cells = take_rows(start[kept], stop[kept], self._cells)
            # Room for the live rows to double and for a few more batches.
            self._cells = np.empty(2 * cells.size + 4 * values.size, dtype=np.int64)
            self._cells[: cells.size] = cells
            start.fill(-1)
            start[kept], stop[kept] = bounds[:-1], bounds[1:]
            self._used = cells.size
        base = self._used
        self._used = base + values.size
        self._cells[base : self._used] = values
        start[slots] = offsets[:-1] + base
        stop[slots] = offsets[1:] + base

    def drop(self, ids: "np.ndarray | list[int]") -> None:
        """Forget the rows of ``ids`` (ones without a row are skipped)."""
        self._start.put(np.asarray(ids, dtype=np.int64) + 1, -1, mode="clip")
