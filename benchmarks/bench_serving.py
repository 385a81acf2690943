"""Online serving SLOs: latency tails, goodput and admission under load.

The serving-tier claims, each measured on the virtual clock so every number
is exactly reproducible:

* **Tails and goodput per request class.** Two traffic shapes drive the
  engine — the *diurnal burst* (day/night sinusoid plus a flash-sale
  spike) and the *Zipf hot-key* (flat high rate, heavily skewed users) —
  and each reports p50/p95/p99 latency, goodput and shed/expired counts
  for the ``cached`` and ``fresh`` request classes.
* **The read-path stack pays off end to end.** The full stack (importance
  neighbor cache + per-user embedding cache + batched sampling kernels) is
  raced against a cacheless baseline (no neighbor cache, every request a
  full recompute) under identical arrivals; the acceptance bar is a lower
  cached-class p99 and higher goodput for the stack.
* **Admission control sheds at saturation.** Under the hot-key shape the
  cacheless baseline saturates: bounded queues shed on overflow and expire
  requests at dequeue instead of serving useless answers.
* **Determinism.** A same-seed rerun of the diurnal shape reproduces the
  full SLO report dict bit for bit.

Ad-hoc traffic shapes drive a :class:`ServingEngine` with their own
:class:`OpenLoopWorkload` / :class:`ClosedLoopWorkload` (README, "Serving
tier").
"""

from __future__ import annotations

from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset
from repro.serving import (
    CLASS_CACHED,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ServingConfig,
    ServingEngine,
    build_slo_report,
    constant_rate,
    diurnal_rate,
)
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import make_store

N_WORKERS = 4
SEED = 7
SCALE = 0.2
DURATION_US = 2_000_000.0
SMOKE_DURATION_US = 250_000.0
FRESH_FRACTION = 0.1


def _engine(graph, cached: bool) -> ServingEngine:
    """The full stack or the cacheless baseline over a fresh store."""
    store = make_store(
        graph,
        N_WORKERS,
        cache_policy=ImportanceCachePolicy() if cached else None,
        cache_budget_fraction=0.1 if cached else 0.0,
        seed=SEED,
    )
    config = ServingConfig(embed_cache_capacity=512 if cached else 0)
    return ServingEngine(store, config=config, seed=SEED)


def _diurnal(users, duration_us: float) -> OpenLoopWorkload:
    return OpenLoopWorkload(
        users,
        duration_us=duration_us,
        rate=diurnal_rate(400.0, 1600.0, burst_multiplier=3.0),
        fresh_fraction=FRESH_FRACTION,
        zipf_exponent=1.1,
        seed=SEED,
    )


def _hotkey(users, duration_us: float) -> OpenLoopWorkload:
    return OpenLoopWorkload(
        users,
        duration_us=duration_us,
        rate=constant_rate(4000.0),
        fresh_fraction=FRESH_FRACTION,
        zipf_exponent=1.4,
        seed=SEED,
    )


def _closed(users) -> ClosedLoopWorkload:
    return ClosedLoopWorkload(
        users,
        n_clients=32,
        requests_per_client=20,
        think_us=2_000.0,
        fresh_fraction=FRESH_FRACTION,
        zipf_exponent=1.1,
        seed=SEED,
    )


def _measure(graph, workload, cached: bool) -> dict:
    """Run ``workload`` on a fresh engine; returns the SLO report dict."""
    engine = _engine(graph, cached)
    records = engine.run(workload)
    return build_slo_report(records).to_dict()


def _row(slo: dict, cls: str) -> dict:
    for row in slo["classes"]:
        if row["class"] == cls:
            return row
    return {}


def _report_cells(report: ExperimentReport, label: str, slo: dict) -> None:
    for row in slo["classes"]:
        report.add(
            f"{label} / {row['class']}",
            {
                "requests": row["requests"],
                "ok": row["ok"],
                "shed": row["shed"],
                "expired": row["expired"],
                "p50_us": round(row["p50_us"], 1),
                "p95_us": round(row["p95_us"], 1),
                "p99_us": round(row["p99_us"], 1),
            },
        )
    report.add(
        f"{label} / goodput", {"in_deadline_rps": round(slo["goodput_rps"], 1)}
    )


def _run(smoke: bool) -> ExperimentReport:
    duration_us = SMOKE_DURATION_US if smoke else DURATION_US
    graph = make_dataset("taobao-small-sim", scale=SCALE, seed=0)
    users = graph.vertices_of_type("user")
    report = ExperimentReport(
        "serving_slo",
        "Online serving tier: SLO latency tails, goodput and admission "
        f"control ({duration_us / 1e6:g}s simulated per open-loop shape, "
        f"{N_WORKERS} workers)",
    )

    diurnal_full = _measure(graph, _diurnal(users, duration_us), cached=True)
    diurnal_base = _measure(graph, _diurnal(users, duration_us), cached=False)
    hotkey_full = _measure(graph, _hotkey(users, duration_us), cached=True)
    hotkey_base = _measure(graph, _hotkey(users, duration_us), cached=False)
    closed_full = _measure(graph, _closed(users), cached=True)

    _report_cells(report, "diurnal burst / full stack", diurnal_full)
    _report_cells(report, "diurnal burst / cacheless", diurnal_base)
    _report_cells(report, "zipf hot-key / full stack", hotkey_full)
    _report_cells(report, "zipf hot-key / cacheless", hotkey_base)
    _report_cells(report, "closed loop / full stack", closed_full)

    # The p99 acceptance comparison, cached class under both shapes.
    cells = {
        "diurnal": (diurnal_full, diurnal_base),
        "hotkey": (hotkey_full, hotkey_base),
    }
    p99_wins = {}
    for shape, (full, base) in cells.items():
        full_p99 = _row(full, CLASS_CACHED).get("p99_us", 0.0)
        base_p99 = _row(base, CLASS_CACHED).get("p99_us", 0.0)
        p99_wins[shape] = {
            "full_us": full_p99,
            "cacheless_us": base_p99,
            "win": base_p99 > full_p99 > 0,
        }
        report.add(
            f"cached-class p99, {shape}",
            {
                "full_stack_us": round(full_p99, 1),
                "cacheless_us": round(base_p99, 1),
                "improvement": (
                    f"{base_p99 / full_p99:.1f}x" if full_p99 else "n/a"
                ),
            },
        )

    # Saturation: the cacheless baseline must shed / expire under hot keys.
    base_losses = sum(
        row["shed"] + row["expired"] for row in hotkey_base["classes"]
    )
    report.add(
        "admission control at saturation (cacheless, hot-key)",
        {
            "shed_plus_expired": base_losses,
            "goodput_rps": round(hotkey_base["goodput_rps"], 1),
            "full_stack_goodput_rps": round(hotkey_full["goodput_rps"], 1),
        },
    )

    # Determinism: a same-seed rerun reproduces the whole report dict.
    diurnal_rerun = _measure(graph, _diurnal(users, duration_us), cached=True)
    identical = diurnal_rerun == diurnal_full
    report.add(
        "determinism (same-seed rerun, diurnal / full stack)",
        {"identical_slo_report": identical},
    )

    report.note(
        "all latencies are virtual-clock microseconds: RPC wire time, "
        "cache reads and modelled per-row compute land on one clock, so "
        "every cell of this table is bit-reproducible under its seed"
    )
    report.meta = {
        "p99_wins": p99_wins,
        "identical": identical,
        "cacheless_losses": base_losses,
        "goodput_win": (
            hotkey_full["goodput_rps"] > hotkey_base["goodput_rps"]
        ),
    }
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    assert report.meta["identical"], "same-seed SLO reports diverged"
    if smoke:
        return  # 0.25 s of traffic does not reach saturation
    for shape, win in report.meta["p99_wins"].items():
        assert win["win"], (
            f"full stack did not beat cacheless on cached-class p99 under "
            f"{shape}: {win}"
        )
    assert report.meta["cacheless_losses"] > 0, (
        "cacheless baseline never saturated: admission control untested"
    )
    assert report.meta["goodput_win"], (
        "full stack goodput did not beat the cacheless baseline"
    )


EXPERIMENTS = (
    Experiment(
        "serving_slo",
        _run,
        _check,
        # Every cell is virtual-clock microseconds or a seeded count.
        (
            r":p(50|95|99)_us$",
            r":(requests|ok|shed|expired|shed_plus_expired)$",
            r":(in_deadline|goodput|full_stack_goodput)_rps$",
            r":(cacheless|full_stack)_us$",
        ),
    ),
)
