"""Same seed → same fit, across interpreters: the scope of the guarantee.

A fit is a pure function of its seed and its BLAS thread count. It does not
depend on ``PYTHONHASHSEED`` (no ordering anywhere follows a ``set`` or a
``dict`` of strings into the arithmetic), so the digests below must agree
across hash seeds 0, 1 and ``random`` at one thread count. They are *not*
promised across thread counts: OpenBLAS splits a product's reduction by
thread, and a float32 tape shows that in the last bits of the loss (DESIGN
§6). Each fit runs in a fresh interpreter, since the hash seed is fixed at
start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Fits a GraphSAGE in both block modes and prints one digest per mode: the
#: embeddings' bytes, the loss history and the block accounting. The products
#: are large enough that two BLAS threads split them (at this size the
#: embedding digests differ between one and two threads).
PROGRAM = """
import hashlib, json
from repro.algorithms import GraphSAGE
from repro.data import make_dataset

graph = make_dataset("taobao-small-sim", scale=1.0, seed=5)
digests = {}
for blocks in (True, False):
    model = GraphSAGE(dim=64, epochs=1, batch_size=512, max_steps_per_epoch=6,
                      minibatch_blocks=blocks, seed=9).fit(graph)
    h = hashlib.sha256(model.embeddings().tobytes())
    h.update(repr((model.loss_history, model.block_stats)).encode())
    digests["minibatch" if blocks else "full_graph"] = h.hexdigest()
print(json.dumps(digests))
"""


def _digests(threads: int, hash_seed: str) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONHASHSEED=hash_seed,
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.slow
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_digest_is_independent_of_the_hash_seed(threads):
    runs = {seed: _digests(threads, seed) for seed in ("0", "1", "random")}
    assert runs["0"] == runs["1"] == runs["random"], runs
