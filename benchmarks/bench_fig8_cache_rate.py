"""Figure 8 — percentage of cached vertices vs importance threshold.

Paper: with 1-hop neighbors of all vertices cached, sweep the threshold for
caching 2-hop neighborhoods from 0.05 to 0.45. The cached fraction drops
drastically below ~0.2 and stabilizes after (a consequence of Theorem 2's
power-law importance), making tau ≈ 0.2 the sweet spot at ~20% extra
vertices cached.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset
from repro.storage.importance import importance_scores

THRESHOLDS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
#: Approximate cached-vertex percentages read off Figure 8.
PAPER_PERCENT = {0.05: 45, 0.10: 35, 0.15: 28, 0.20: 22, 0.25: 19,
                 0.30: 17, 0.35: 15, 0.40: 14, 0.45: 13}


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", seed=0)
    scores = importance_scores(graph, 2)
    report = ExperimentReport(
        "fig8", "Cached-vertex percentage vs Imp^(2) threshold"
    )
    for tau in THRESHOLDS:
        measured = 100.0 * float(np.mean(scores >= tau))
        report.add(
            f"tau={tau:.2f}",
            {"cached_pct": round(measured, 1)},
            paper={"cached_pct": PAPER_PERCENT[tau]},
        )
    report.note(
        "shape contract: steep decline below tau=0.2, flatter after "
        "(power-law importance, Theorem 2)"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    pct = [r.measured["cached_pct"] for r in report.records]
    # Monotone non-increasing.
    assert all(a >= b for a, b in zip(pct, pct[1:]))
    # Drastic early decline vs flatter tail: the drop across [0.05, 0.2]
    # exceeds the drop across [0.2, 0.45].
    i_020 = THRESHOLDS.index(0.20)
    early_drop = pct[0] - pct[i_020]
    late_drop = pct[i_020] - pct[-1]
    assert early_drop > late_drop
    # The tau=0.2 operating point caches a minority of the graph.
    assert pct[i_020] < 50.0


EXPERIMENTS = (
    Experiment(
        "fig8",
        _run,
        _check,
        (r":cached_pct$",),
    ),
)
