"""Node classification: a softmax head over frozen vertex embeddings,
scored by micro and macro F1."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.nn.layers import Dense
from repro.nn.loss import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.tasks.metrics import macro_f1, micro_f1
from repro.utils.rng import make_rng


#: The probe's schedule: the train share of a random split, then epochs of
#: full-batch Adam at one learning rate.
TRAIN_FRACTION = 0.7
EPOCHS = 150
LR = 0.05


def evaluate_node_classification(
    embeddings: np.ndarray,
    labels: np.ndarray,
    seed: int = 0,
) -> tuple[float, float]:
    """Node classification from embeddings: (micro, macro) F1 in %.

    The canonical downstream probe of the application layer: a softmax
    head over frozen vertex embeddings on a random train/test split.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (embeddings.shape[0],):
        raise ReproError("one label per embedding row required")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ReproError("need at least two label classes")
    rng = make_rng(seed)
    perm = rng.permutation(labels.size)
    # Two classes mean two labels at least, so both sides are non-empty.
    cut = max(1, int(TRAIN_FRACTION * labels.size))
    train_idx, test_idx = perm[:cut], perm[cut:]
    head = Dense(embeddings.shape[1], int(classes.max()) + 1, rng)
    opt = Adam(head.parameters(), lr=LR)
    xt = Tensor(embeddings[train_idx])
    for _ in range(EPOCHS):
        opt.zero_grad()
        loss = cross_entropy(head(xt), labels[train_idx])
        loss.backward()
        opt.step()
    pred = head(Tensor(embeddings[test_idx])).numpy().argmax(axis=1)
    return (
        100.0 * micro_f1(pred, labels[test_idx]),
        100.0 * macro_f1(pred, labels[test_idx]),
    )
