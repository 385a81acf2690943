"""Table 12 — Bayesian GNN correction over GraphSAGE (hit recall).

Paper: correcting GraphSAGE embeddings with knowledge-graph priors lifts
recommendation hit recall by 1–3% at brand and category granularity, for
both click and buy behaviours, at HR@{10,30,50}.

Setup: GraphSAGE embeds the behaviour graph; the KG links items to brands
and categories (aligned with the generator's interest groups); the Bayesian
GNN learns the posterior correction (Eq. 7's second-order generative model)
and the corrected embeddings are evaluated on the same recommendation
split at group granularity.

**Not reproduced.** One (GraphSAGE, Bayesian) seed pair decides the sign of
a lift this small, so the table is the mean over ``SEEDS`` and the lift is
reported per seed with its spread. At most seeds the correction *costs* a
few hundredths of a point of recall on average; ``check`` asserts only
that it never costs a full point. The 50/50 blend, ``steps`` and the seeds are not tuned towards
the paper's sign — a fix to ``BayesianGNN`` is its own change.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import BayesianGNN, GraphSAGE
from repro.bench import Experiment, ExperimentReport
from repro.graph import AttributedHeterogeneousGraph
from repro.data import knowledge_graph, make_dataset, train_test_split_edges
from repro.tasks import evaluate_recommendation

KS = [10, 30, 50]
#: Seed of both the GraphSAGE base and the Bayesian correction, per run.
SEEDS = (0, 1, 2, 3, 4)
#: How much hit recall (a fraction: 0.01 = one point of HR) the correction
#: may cost on average before ``check`` fails; measured worst seed -0.0034.
MAX_MEAN_LOSS = 0.01
#: Paper values (%), Brand and Category granularity, Click and Buy.
PAPER = {
    ("Brand", "click", "GraphSAGE"): {10: 15.97, 30: 16.65, 50: 17.26},
    ("Brand", "click", "+Bayesian"): {10: 16.14, 30: 17.12, 50: 17.90},
    ("Brand", "buy", "GraphSAGE"): {10: 24.87, 30: 25.70, 50: 26.39},
    ("Brand", "buy", "+Bayesian"): {10: 25.10, 30: 26.57, 50: 27.33},
    ("Category", "click", "GraphSAGE"): {10: 27.46, 30: 28.43, 50: 29.58},
    ("Category", "click", "+Bayesian"): {10: 27.49, 30: 29.99, 50: 32.88},
    ("Category", "buy", "GraphSAGE"): {10: 27.85, 30: 28.50, 50: 26.26},
    ("Category", "buy", "+Bayesian"): {10: 27.91, 30: 29.45, 50: 31.47},
}


def _interaction_split(graph, behaviours, seed=0):
    n_users = int(np.sum(graph.vertex_types == graph.vertex_type_code("user")))
    split = train_test_split_edges(graph, 0.25, seed=seed)
    behaviour_codes = {graph.edge_type_code(b) for b in behaviours}
    train_items: dict[int, set[int]] = {}
    test_items: dict[int, set[int]] = {}
    src, dst, _ = split.train_graph.edge_array()
    for u, v in zip(src, dst):
        u, v = int(u), int(v)
        if u < n_users <= v:
            train_items.setdefault(u, set()).add(v - n_users)
    for (u, v), etype in zip(split.test_pos, split.test_types):
        u, v = int(u), int(v)
        if u < n_users <= v and int(etype) in behaviour_codes:
            test_items.setdefault(u, set()).add(v - n_users)
    test_items = {u: s for u, s in test_items.items() if u in train_items}
    return split.train_graph, train_items, test_items, n_users


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", scale=0.35, seed=0)
    n_users = int(np.sum(graph.vertex_types == 0))
    n_items = graph.n_vertices - n_users
    # KG aligned with the generator's interest groups (item feature block).
    tag_dims = 20
    item_category = graph.vertex_features[n_users:, :tag_dims].argmax(axis=1)
    kg, brand_of, category_of = knowledge_graph(
        n_items, n_brands=150, n_categories=tag_dims,
        category_of=item_category, seed=1,
    )

    #: (granularity, behaviour, method) -> one [hr@k for k in KS] row per seed
    recalls: dict[tuple, list[list[float]]] = {}
    for behaviour in ("click", "buy"):
        train_graph, train_items, test_items, _ = _interaction_split(
            graph, [behaviour]
        )
        # The base GraphSAGE runs structure-only. Our synthetic features
        # embed the ground-truth interest groups directly (real Taobao
        # attributes do not), which would make the KG prior redundant; the
        # paper's information structure — task signal from behaviour,
        # category/brand knowledge only in the KG — is restored by
        # stripping features from the base model's input.
        structural = AttributedHeterogeneousGraph(
            n_vertices=train_graph.n_vertices,
            src=train_graph.edge_array()[0],
            dst=train_graph.edge_array()[1],
            vertex_types=train_graph.vertex_types,
            edge_types=train_graph.edge_types,
            vertex_type_names=train_graph.vertex_type_names,
            edge_type_names=train_graph.edge_type_names,
            weights=train_graph.edge_array()[2],
            directed=train_graph.directed,
            vertex_features=None,
        )
        for seed in SEEDS:
            sage = GraphSAGE(dim=64, epochs=4, max_steps_per_epoch=20, seed=seed)
            sage.fit(structural)
            emb = sage.embeddings()
            user_emb = emb[:n_users]
            item_emb = emb[n_users:]

            bayes = BayesianGNN(dim=32, steps=300, seed=seed)
            bayes.fit_correction(item_emb, kg, entity_ids=np.arange(n_items))
            # Corrected task embedding f(h+mu) lives in the task space; blend
            # it with the original (the KG prior refines, not replaces).
            corrected_items = 0.5 * item_emb + 0.5 * bayes.embeddings()
            for gran, groups in (("Brand", brand_of), ("Category", category_of)):
                for label, items in (
                    ("GraphSAGE", item_emb),
                    ("+Bayesian", corrected_items),
                ):
                    hr = evaluate_recommendation(
                        user_emb, items, train_items, test_items, KS,
                        item_group=groups,
                    )
                    recalls.setdefault((gran, behaviour, label), []).append(
                        [hr[k] for k in KS]
                    )

    report = ExperimentReport(
        "t12",
        f"Bayesian correction on hit recall (%), mean of {len(SEEDS)} seeds",
    )
    for key, rows in recalls.items():
        mean = np.mean(rows, axis=0)
        report.add(
            "/".join(key),
            {f"hr@{k}": round(100 * float(m), 2) for k, m in zip(KS, mean)},
            paper={f"hr@{k}": PAPER[key][k] for k in KS},
        )
    # Per seed: the lift averaged over the 12 (granularity, behaviour, k) cells.
    cell_lifts = np.array(
        [
            np.subtract(recalls[(gran, behaviour, "+Bayesian")],
                        recalls[(gran, behaviour, "GraphSAGE")])
            for gran in ("Brand", "Category")
            for behaviour in ("click", "buy")
        ]
    )  # [cell, seed, k]
    lifts = cell_lifts.mean(axis=(0, 2))
    for seed, lift in zip(SEEDS, lifts):
        report.add(f"mean lift, seed {seed}", {"mean_lift": round(float(lift), 4)})
    report.add(
        "mean lift over seeds",
        {
            "mean_lift": round(float(lifts.mean()), 4),
            "std": round(float(lifts.std()), 4),
            "min": round(float(lifts.min()), 4),
            "max": round(float(lifts.max()), 4),
            "cells_lifted_of_12": int(np.sum(cell_lifts.mean(axis=1) > 0)),
        },
    )
    report.note(
        "corrected item embeddings blend the task view 50/50 with the "
        "KG-informed f(h+mu) projection; hr@k rows are percentages, "
        "mean_lift is the same recall as a fraction (+Bayesian minus "
        "GraphSAGE, averaged over the 12 cells)"
    )
    report.note(
        f"paper's +1-3% lift NOT reproduced: the mean lift is negative at "
        f"{int(np.sum(lifts < 0))} of {len(SEEDS)} seeds, {lifts.mean():+.4f} on average"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    rows = {r.label: r.measured for r in report.records}
    # All these seeds support: the correction does not cost a point of recall.
    for seed in SEEDS:
        lift = rows[f"mean lift, seed {seed}"]["mean_lift"]
        assert lift > -MAX_MEAN_LOSS, f"seed {seed}: mean lift {lift:.4f}"
    # The base model carries real signal at brand granularity (chance ~7%).
    assert rows["Brand/click/GraphSAGE"]["hr@10"] > 15.0


EXPERIMENTS = (Experiment("t12", _run, _check),)
