"""Partitioned, versioned embedding KV store served over the RPC runtime.

AliGraph trains its embedding tables through a parameter-server tier: rows
are hash-partitioned across the graph servers, workers **pull** the rows a
minibatch touches and **push** back row-sparse gradients, and the server
applies the optimizer update in place. This module reproduces that tier on
the simulated cluster:

* :class:`EmbeddingShard` — one server's slice of a table (``owner = id %
  n_parts``, ``local = id // n_parts``) plus its optimizer state. Updates
  are applied by the *same* :class:`~repro.nn.optim.Adam` row-sparse step
  an in-process ``accumulates_sparse`` table takes, so a KV training run's
  touched rows are bit-identical to the single-process reference.
* :class:`EmbeddingKVStore` — the client face. ``pull``/``push`` ride the
  :class:`~repro.runtime.rpc.RpcRuntime` as registered service kinds
  (``emb.pull/<name>``, ``emb.push/<name>``): the same request planner,
  fault injection, retries, virtual-clock accounting and metrics as graph
  reads.
  Reads follow the store's ``_resolve_read`` conventions — dedup up front,
  local rows answered directly, remote rows coalesced into one request per
  owning server, ledger events recorded client-side in deterministic order.
* **Columnar pulls** — one owner mask splits a pull's distinct ids: the
  issuer's own rows are one gather from its shard, and each remote server
  answers a ``(k, dim)`` row array aligned with its request's ids, which
  scatters back by position. The client keeps no cache, so every read is
  exact.
* **Versions** — every row carries a version bumped on each applied
  update: the audit that a retried push applied exactly once.
* **Failure semantics** — embedding rows have no replicas: a pull or push
  that exhausts the retry budget raises
  :class:`~repro.errors.RetryExhaustedError`. Transient drops and timeouts
  are retried by the runtime; the simulation only *serves* a request on its
  final successful delivery, so a retried push applies exactly once.

:meth:`EmbeddingKVStore.minibatch` is the training-loop helper: it pulls
the deduplicated union of a step's id arrays once, exposes differentiable
:meth:`EmbeddingMinibatch.lookup` views over the pulled block, and
:meth:`EmbeddingMinibatch.push` ships the coalesced row gradients back.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RetryExhaustedError, StorageError, check_id, check_ids
from repro.nn.optim import Adam
from repro.nn.tensor import DTYPE, SparseGrad, Tensor
from repro.storage.costmodel import (
    EV_EMB_LOCAL_ROW,
    EV_EMB_ROW_UPDATE,
    EV_ITEM_SHIPPED,
    EV_REMOTE_RPC,
)


class EmbeddingShard:
    """One server's rows of a partitioned table, with optimizer state.

    The shard owns every row whose global id hashes to its partition
    (``id % n_parts == part``) at local index ``id // n_parts``. Pushes are
    applied by the shard's own :class:`~repro.nn.optim.Adam`, which steps
    the pushed rows (:meth:`~repro.nn.optim.Adam.step_rows`) — gradients
    never leave the server as dense tables, and untouched rows are never
    written.
    """

    def __init__(self, part: int, rows: np.ndarray, lr: float) -> None:
        self.part = part
        self.param = Tensor(rows, requires_grad=True, name=f"shard{part}")
        #: Per-row update counter: bumped once per applied push touching
        #: the row, so a push applied twice shows.
        self.versions = np.zeros(rows.shape[0], dtype=np.int64)
        self.applied_pushes = 0
        self._opt = Adam([self.param], lr=lr)

    def apply(self, local_ids: np.ndarray, grad_rows: np.ndarray) -> None:
        """Apply one coalesced gradient batch through the row-sparse step.

        ``local_ids`` must be unique (the client coalesces before
        shipping); the optimizer state advances exactly as the in-process
        sparse path would for the same rows and gradients.
        """
        self._opt.step_rows(0, local_ids, grad_rows)
        self.versions[local_ids] += 1
        self.applied_pushes += 1


class EmbeddingMinibatch:
    """One training step's pulled row block, with autograd lookups.

    Constructed by :meth:`EmbeddingKVStore.minibatch`; ``lookup`` maps
    global id arrays to differentiable tensors over the pulled block, and
    ``push`` ships the accumulated row-sparse gradient back to the shards.
    """

    def __init__(
        self,
        kv: "EmbeddingKVStore",
        ids: np.ndarray,
        rows: np.ndarray,
        from_part: int,
    ) -> None:
        self._kv = kv
        #: Sorted unique global ids backing :attr:`tensor`'s rows.
        self.ids = ids
        self.tensor = Tensor(rows, requires_grad=True, name="minibatch")
        self.tensor.accumulates_sparse = True
        self._from_part = from_part

    def lookup(self, ids: np.ndarray) -> Tensor:
        """Differentiable rows for ``ids`` (must be within the minibatch)."""
        ids = self._kv._validate(ids, self._from_part)
        idx = np.searchsorted(self.ids, ids)
        idx = np.minimum(idx, self.ids.size - 1) if self.ids.size else idx
        if self.ids.size == 0 or not np.array_equal(self.ids[idx], ids):
            raise StorageError("lookup id outside the pulled minibatch")
        return self.tensor.gather_rows(idx)

    def push(self) -> int:
        """Ship the accumulated gradient to the shards; rows pushed.

        A no-op (returning 0) when backward never reached this minibatch.
        Clears the local gradient so a minibatch can be pushed only once
        per backward.
        """
        sg = self.tensor.sparse_grad
        if sg is None or not len(sg):
            return 0
        local_ids, grad_rows = sg.coalesce()
        self.tensor.zero_grad()
        self._kv._push_unique(self.ids[local_ids], grad_rows, self._from_part)
        return int(local_ids.size)


class EmbeddingKVStore:
    """Hash-partitioned, versioned embedding table over the RPC runtime.

    One instance is one named table; its pull/push verbs register on the
    graph store's runtime as service kinds ``emb.pull/<name>`` and
    ``emb.push/<name>`` (create the KV *after* attaching a custom runtime).
    ``init`` is the initial ``(n_rows, dim)`` table, which fixes the shape
    (rows are held in :data:`~repro.nn.tensor.DTYPE`, as in-process tables);
    shards step their rows with :class:`~repro.nn.optim.Adam` at ``lr``.
    """

    def __init__(
        self,
        store: "object",
        init: np.ndarray,
        name: str = "emb",
        lr: float = 1e-2,
    ) -> None:
        init = np.asarray(init, dtype=DTYPE)
        if init.ndim != 2 or min(init.shape) < 1:
            raise StorageError(
                f"embedding table needs a 2-D init with n_rows, dim >= 1, "
                f"got shape {init.shape}"
            )
        self.store = store
        self.n_rows, self.dim = init.shape
        self.name = name
        self.runtime = store._ensure_runtime()
        self.n_parts = store.n_workers
        self.kind_pull = f"emb.pull/{name}"
        self.kind_push = f"emb.push/{name}"
        self.runtime.register_service(self.kind_pull, self._serve_pull)
        self.runtime.register_service(self.kind_push, self._serve_push)

        self.shards = [
            EmbeddingShard(p, init[p :: self.n_parts].copy(), lr)
            for p in range(self.n_parts)
        ]

    # ------------------------------------------------------------------ #
    # Server side (runtime service handlers)
    # ------------------------------------------------------------------ #
    def _serve_pull(self, req: "object") -> "tuple[np.ndarray, dict, int]":
        """Serve a pull on the destination shard: a ``(k, dim)`` row array
        aligned with ``req.vertices``."""
        rows = self.shards[req.dst_part].param.data[req.vertices // self.n_parts]
        return rows, {}, int(rows.size)

    def _serve_push(self, req: "object") -> "tuple[dict, dict, int]":
        """Apply a pushed gradient batch on the destination shard.

        The simulation serves a request only on its final successful
        delivery (drops/timeouts reschedule without serving), so retried
        pushes apply exactly once.
        """
        shard = self.shards[req.dst_part]
        ids = req.vertices
        grad_rows = np.asarray(req.body, dtype=DTYPE)
        if grad_rows.shape != (ids.size, self.dim):
            raise StorageError(
                f"push body shape {grad_rows.shape} != ({ids.size}, {self.dim})"
            )
        shard.apply(ids // self.n_parts, grad_rows)
        return {}, {}, int(grad_rows.size)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def _validate(self, ids: "np.ndarray | list[int]", from_part: int) -> np.ndarray:
        """``ids`` as int64, once they are known to be a 1-D batch of this
        table's rows and ``from_part`` one of its shards: the one check a
        pull, push or lookup makes before anything is recorded or sent."""
        check_id(from_part, self.n_parts, StorageError, "issuing worker")
        return check_ids(ids, self.n_rows, StorageError, "embedding rows")

    def pull(self, ids: "np.ndarray | list[int]", from_part: int = 0) -> np.ndarray:
        """Rows for ``ids`` (duplicates allowed), aligned with the input.

        The distinct ids are pulled once, in first-seen order, and map back
        to the input through the inverse index.
        """
        arr = self._validate(ids, from_part)
        uniq, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
        order = first.argsort()  # first-seen order; its argsort inverts it
        return self._pull_unique(uniq[order], from_part)[order.argsort()[inverse]]

    def _pull_unique(self, uniq: np.ndarray, from_part: int) -> np.ndarray:
        """Rows for the distinct ids ``uniq``, aligned with it.

        One owner mask splits the ids: the issuer's own rows are one gather
        from its shard, and the remote ones coalesce into one request per
        owning server, whose row array scatters back by position. Ledger
        events mirror the graph read path: ``emb_row_local`` per local row,
        one ``remote_rpc`` per request plus ``item_shipped`` per scalar.
        """
        rows = np.empty((uniq.size, self.dim), dtype=DTYPE)
        if not uniq.size:
            return rows
        ledger = self.store.ledger
        with self.runtime.tracer.span(
            "emb.pull", table=self.name, issuer=from_part
        ) as span:
            owners = uniq % self.n_parts
            local = owners == from_part
            n_local = int(np.count_nonzero(local))
            span.annotate(rows=int(uniq.size), local=n_local, remote=int(uniq.size) - n_local)
            self.runtime.metrics.counter(
                "emb.pull.rows", labels={"table": self.name}
            ).inc(int(uniq.size))
            if n_local:
                ledger.record(EV_EMB_LOCAL_ROW, times=n_local)
                rows[local] = self.shards[from_part].param.data[uniq[local] // self.n_parts]
            if n_local == uniq.size:
                return rows
            remote = (~local).nonzero()[0]
            remote_owners = owners[remote]
            requests = self.runtime.plan(
                self.kind_pull, from_part, uniq[remote], remote_owners
            )
            for req, resp in zip(requests, self.runtime.execute(requests)):
                if not resp.ok:
                    raise RetryExhaustedError(
                        f"pull of table {self.name!r} row {req.vertices[0]}: "
                        f"{resp.error}, and embedding rows have no replicas",
                        resp.attempts,
                    )
                ledger.record(EV_REMOTE_RPC)
                ledger.record(EV_ITEM_SHIPPED, times=int(resp.payload.size))
                rows[remote[remote_owners == req.dst_part]] = resp.payload
        return rows

    def push(
        self,
        ids: "np.ndarray | list[int]",
        grad_rows: np.ndarray,
        from_part: int = 0,
    ) -> None:
        """Apply row gradients (coalescing duplicate ids by summation).

        Locally-owned rows update in place; remote rows ship as one
        request per owning server with the gradient block as the request
        body.
        """
        arr = self._validate(ids, from_part)
        grad_rows = np.asarray(grad_rows, dtype=DTYPE)
        if grad_rows.shape != (arr.size, self.dim):
            raise StorageError(
                f"grad shape {grad_rows.shape} != ({arr.size}, {self.dim})"
            )
        if arr.size == 0:
            return
        sg = SparseGrad((self.n_rows, self.dim))
        sg.append(arr, grad_rows)
        self._push_unique(*sg.coalesce(), from_part)

    def _push_unique(self, uniq: np.ndarray, summed: np.ndarray, from_part: int) -> None:
        """Apply the gradient rows ``summed`` of the distinct ids ``uniq``.

        The mirror of :meth:`_pull_unique`: the issuer's own rows step in
        place and the remote ones ship as one request per owning server,
        the gradient block as the request body.
        """
        store = self.store
        with self.runtime.tracer.span(
            "emb.push", table=self.name, issuer=from_part
        ) as span:
            owners = uniq % self.n_parts
            local = owners == from_part
            n_local = int(local.sum())
            span.annotate(rows=int(uniq.size), local=n_local)
            if n_local:
                self.shards[from_part].apply(
                    uniq[local] // self.n_parts, summed[local]
                )
                store.ledger.record(EV_EMB_ROW_UPDATE, times=n_local)
            if n_local < uniq.size:
                remote = ~local
                requests = self.runtime.plan(
                    self.kind_push,
                    from_part,
                    uniq[remote],
                    owners[remote],
                    rows=summed[remote],
                )
                for req, resp in zip(requests, self.runtime.execute(requests)):
                    if not resp.ok:
                        raise RetryExhaustedError(
                            f"push to table {self.name!r} row "
                            f"{req.vertices[0]}: {resp.error}, and embedding "
                            "updates cannot be dropped silently",
                            resp.attempts,
                        )
                    store.ledger.record(EV_REMOTE_RPC)
                    shipped = len(req.vertices) * self.dim
                    store.ledger.record(EV_ITEM_SHIPPED, times=shipped)
                    store.ledger.record(
                        EV_EMB_ROW_UPDATE, times=len(req.vertices)
                    )
            self.runtime.metrics.counter(
                "emb.push.rows", labels={"table": self.name}
            ).inc(int(uniq.size))

    def minibatch(
        self, *id_arrays: "np.ndarray | list[int]", from_part: int = 0
    ) -> EmbeddingMinibatch:
        """Pull the deduplicated union of ``id_arrays`` once.

        The returned :class:`EmbeddingMinibatch` serves every lookup of the
        step from the single pulled block — the per-step RPC count is one
        coalesced pull per remote shard, regardless of how many id arrays
        (centers, contexts, negatives) the loss touches.
        """
        parts = [self._validate(a, from_part) for a in id_arrays]
        ids = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        return EmbeddingMinibatch(self, ids, self._pull_unique(ids, from_part), from_part)

    # ------------------------------------------------------------------ #
    # Inspection (tests, evaluation, checkpointing)
    # ------------------------------------------------------------------ #
    def materialize(self) -> np.ndarray:
        """The full ``(n_rows, dim)`` table, gathered from every shard."""
        out = np.empty((self.n_rows, self.dim), dtype=DTYPE)
        for p, shard in enumerate(self.shards):
            out[p :: self.n_parts] = shard.param.data
        return out
