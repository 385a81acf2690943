"""Separate storage of structure and attributes (paper §3.2).

The paper's storage layer keeps the adjacency table free of attribute
payloads: each vertex/edge row stores only an integer handle into a
deduplicating attribute index (``IV`` for vertices, ``IE`` for edges). The
two stated reasons are (1) attributes are 1–3 orders of magnitude larger than
an 8-byte id, and (2) attribute values overlap heavily across vertices
("many vertices share the tag 'man'"). An LRU cache fronts the index to
absorb the extra indirection.

:class:`AttributeIndex` is the deduplicating store; :class:`SeparateAttributeStore`
puts the vertex index ``IV`` behind an LRU cache and accounts the space saved
versus inline storage: ``O(n·N_D·N_L)`` inline vs ``O(n·N_D + N_A·N_L)``
separated. No graph here carries edge attributes, so there is no ``IE``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.utils.lru import LRUCache

#: Bytes to store one id/handle in the adjacency table (paper: "at most 8").
HANDLE_BYTES = 8


class AttributeIndex:
    """Deduplicating index of attribute payloads.

    ``intern`` maps a payload (any byte string / encoded feature row) to a
    stable integer handle, storing each distinct payload once. ``lookup``
    returns the payload for a handle. Eviction never happens — the index is
    the ground-truth store; caching is layered on top.
    """

    def __init__(self) -> None:
        self._payloads: list[bytes] = []
        self._handle_of: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._payloads)

    def intern(self, payload: bytes) -> int:
        """Return the handle for ``payload``, storing it if new."""
        if not isinstance(payload, bytes):
            raise StorageError("attribute payloads must be bytes")
        handle = self._handle_of.get(payload)
        if handle is None:
            handle = len(self._payloads)
            self._handle_of[payload] = handle
            self._payloads.append(payload)
        return handle

    def intern_vector(self, vector: np.ndarray) -> int:
        """Intern a float feature row (canonical float32 byte encoding)."""
        return self.intern(np.ascontiguousarray(vector, dtype=np.float32).tobytes())

    def lookup(self, handle: int) -> bytes:
        """Payload bytes for ``handle``."""
        if not 0 <= handle < len(self._payloads):
            raise StorageError(f"unknown attribute handle {handle}")
        return self._payloads[handle]

    def lookup_vector(self, handle: int) -> np.ndarray:
        """Decode a handle interned by :meth:`intern_vector`."""
        return np.frombuffer(self.lookup(handle), dtype=np.float32)

    def stored_bytes(self) -> int:
        """Total bytes of distinct payloads held (N_A · N_L)."""
        return sum(len(p) for p in self._payloads)


class SeparateAttributeStore:
    """The vertex attribute index behind an LRU cache (IV).

    Parameters
    ----------
    vertex_cache_capacity:
        Entries the LRU cache may hold (0 disables caching).
    """

    def __init__(self, vertex_cache_capacity: int = 1024) -> None:
        self.iv = AttributeIndex()
        self.iv_cache = LRUCache(vertex_cache_capacity)
        self._vertex_handle: dict[int, int] = {}
        self._inline_bytes = 0  # what inline storage would have cost

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def put_vertex_attr(self, vertex: int, vector: np.ndarray) -> int:
        """Intern vertex ``vertex``'s attribute row; returns its handle."""
        handle = self.iv.intern_vector(np.asarray(vector))
        self._vertex_handle[vertex] = handle
        self._inline_bytes += np.asarray(vector, dtype=np.float32).nbytes
        return handle

    # ------------------------------------------------------------------ #
    # Reads (through the LRU cache)
    # ------------------------------------------------------------------ #
    def get_vertex_attr(self, vertex: int) -> np.ndarray:
        """Attribute row of ``vertex``, served from the IV cache if hot."""
        if vertex not in self._vertex_handle:
            raise StorageError(f"vertex {vertex} has no stored attributes")
        cached = self.iv_cache.get(vertex)
        if cached is not None:
            return cached
        value = self.iv.lookup_vector(self._vertex_handle[vertex])
        self.iv_cache.put(vertex, value)
        return value

    def has_vertex_attr(self, vertex: int) -> bool:
        """Whether ``vertex`` has stored attributes."""
        return vertex in self._vertex_handle

    def remove_vertex_attr(self, vertex: int) -> "np.ndarray | None":
        """Drop ``vertex``'s attribute mapping; returns the row or None.

        Used when ownership of a vertex migrates away: the handle mapping
        and any cached decode leave with it. The interned payload stays in
        the dedup index (other vertices may share it), but the inline-cost
        counter is rolled back so space accounting tracks live rows only.
        """
        handle = self._vertex_handle.pop(vertex, None)
        if handle is None:
            return None
        self.iv_cache.delete(vertex)
        value = self.iv.lookup_vector(handle)
        self._inline_bytes -= value.nbytes
        return value

    # ------------------------------------------------------------------ #
    # Space accounting (the §3.2 cost comparison)
    # ------------------------------------------------------------------ #
    def separated_bytes(self) -> int:
        """Bytes used by separate storage: handles + deduped payloads."""
        return len(self._vertex_handle) * HANDLE_BYTES + self.iv.stored_bytes()

    def inline_bytes(self) -> int:
        """Bytes inline storage would use (every row repeats its payload)."""
        return self._inline_bytes

    def space_saving_ratio(self) -> float:
        """inline / separated — how many times smaller the separated layout is."""
        sep = self.separated_bytes()
        return self._inline_bytes / sep if sep else 0.0
