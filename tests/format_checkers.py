"""Format validators for the observability exporters.

Four checkers, each returning a list of human-readable problems (empty
list means the payload is valid):

* :func:`check_prometheus_text` — Prometheus text exposition format 0.0.4
  (the subset :func:`repro.runtime.export.prometheus_text` emits: HELP/TYPE
  headers, counters, gauges and summaries). Label values are parsed with
  the spec's quoting rules: ``\\``, ``"`` and line feed must appear as
  ``\\\\``, ``\\"`` and ``\\n`` — unescaped occurrences make the sample
  line unparseable and are rejected;
* :func:`check_chrome_trace` — Chrome trace-event JSON object format (the
  subset Perfetto needs to load a trace: ``traceEvents`` with complete
  ``"X"``, instant ``"i"`` and counter ``"C"`` events);
* :func:`check_experiment_payload` — the result contract of
  ``ExperimentReport.to_payload`` in ``repro.bench.harness``
  (``{experiment_id, title, records: [{label, measured, paper}]}``) that
  ``repro bench-compare`` and the committed baselines share;
* :func:`check_trajectory` — a committed ``BENCH_<pr>.json`` perf record:
  every ``BENCHMARK.json`` workload and end-to-end metric present, every run
  labelled, parent/change runs paired by seed, and each ``summary``
  recomputed from ``runs``.

Also runnable as a script (used by CI)::

    python tests/format_checkers.py report.json out/trace.json out/metrics.prom
    python tests/format_checkers.py --results benchmarks/results/*.json
    python tests/format_checkers.py --trajectory BENCH_*.json

Without ``--results``, a ``.json`` file carrying an ``experiment_id`` is
checked as an experiment payload, any other ``.json`` as a Chrome trace
and everything else as Prometheus text; with it, every file is checked as
an experiment payload (``--trajectory``: as a perf record). Exits non-zero
and prints the problems when any file fails.
"""

from __future__ import annotations

import json
import pathlib
import re
import statistics

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
#: One label pair with a spec-escaped quoted value: any run of characters
#: that are not raw ``"``, ``\`` or newline, or one of the three legal
#: escapes ``\\``, ``\"``, ``\n``.
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"')
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def _parse_sample_line(line: str) -> "tuple[str, list, str] | None":
    """Split a sample line into ``(name, label_pairs, value)``.

    Returns None when the line does not parse — including any label value
    containing an unescaped backslash, double-quote or newline, which the
    escape-aware pair regex refuses to match.
    """
    m = _SAMPLE_NAME.match(line)
    if m is None:
        return None
    name = m.group(0)
    rest = line[m.end():]
    pairs: "list[tuple[str, str]]" = []
    if rest.startswith("{"):
        i = 1
        if rest[i : i + 1] == "}":
            i += 1
        else:
            while True:
                pm = _LABEL_PAIR.match(rest, i)
                if pm is None:
                    return None
                pairs.append((pm.group(1), pm.group(2)))
                i = pm.end()
                nxt = rest[i : i + 1]
                i += 1
                if nxt == ",":
                    continue
                if nxt == "}":
                    break
                return None
        rest = rest[i:]
    if not rest.startswith(" "):
        return None
    value = rest[1:]
    if not value or " " in value:
        return None
    return name, pairs, value


def check_prometheus_text(text: str) -> "list[str]":
    """Validate Prometheus text exposition; returns a list of problems."""
    problems: list[str] = []
    if not text:
        return ["payload is empty"]
    if not text.endswith("\n"):
        problems.append("payload must end with a newline")
    typed: dict[str, str] = {}
    seen_samples: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_NAME.match(parts[2]):
                problems.append(f"line {lineno}: malformed HELP line: {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _METRIC_NAME.match(parts[2]):
                problems.append(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            if parts[3] not in _TYPES:
                problems.append(
                    f"line {lineno}: unknown metric type {parts[3]!r}"
                )
                continue
            if parts[2] in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        parsed = _parse_sample_line(line)
        if parsed is None:
            problems.append(
                f"line {lineno}: unparseable sample line (malformed labels "
                f"or unescaped label value?): {line!r}"
            )
            continue
        name, pairs, value = parsed
        base = _summary_base(name, typed)
        if base not in typed:
            problems.append(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        for lname, _lvalue in pairs:
            if not _LABEL_NAME.match(lname):
                problems.append(f"line {lineno}: bad label name {lname!r}")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r}")
        key = f"{name}{{{','.join(f'{k}={v}' for k, v in pairs)}}}"
        if key in seen_samples:
            problems.append(f"line {lineno}: duplicate sample {key}")
        seen_samples.add(key)
    if not typed:
        problems.append("no # TYPE lines found")
    return problems


def _summary_base(name: str, typed: "dict[str, str]") -> str:
    """Resolve ``foo_sum`` / ``foo_count`` back to the declared family."""
    for suffix in ("_sum", "_count", "_bucket"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and typed.get(base) in ("summary", "histogram"):
            return base
    return name


_REQUIRED_EVENT_KEYS = {"name", "ph", "ts", "pid", "tid"}


def check_chrome_trace(payload: "dict | str") -> "list[str]":
    """Validate a Chrome trace-event JSON object; returns problems."""
    problems: list[str] = []
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["top level must be a JSON object (object trace format)"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = _REQUIRED_EVENT_KEYS - set(ev)
        if missing:
            problems.append(f"event {i}: missing keys {sorted(missing)}")
            continue
        ph = ev["ph"]
        if ph not in ("X", "i", "B", "E", "M", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            problems.append(f"event {i}: bad ts {ev['ts']!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: complete event needs dur >= 0")
        if ph == "i" and ev.get("s") not in ("t", "p", "g", None):
            problems.append(f"event {i}: bad instant scope {ev.get('s')!r}")
    return problems


def check_experiment_payload(payload: "dict | str") -> "list[str]":
    """Validate a benchmark result bundle against the shared contract.

    The contract (``ExperimentReport.to_payload`` in
    ``repro.bench.harness``, read by ``repro bench-compare`` and printed
    by the CLI ``--json`` emitters): a JSON object with
    string ``experiment_id`` and ``title`` plus a ``records`` list whose
    entries each carry a string ``label``, a ``measured`` value (number or
    flat dict of scalars) and a ``paper`` value of the same shape.
    """
    problems: list[str] = []
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    for key in ("experiment_id", "title"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            problems.append(f"{key} must be a non-empty string")
    records = payload.get("records")
    if not isinstance(records, list):
        return problems + ["records must be a list"]
    if not records:
        problems.append("records is empty")

    def _measured_ok(value: object) -> bool:
        # Scalars include bools: determinism flags are committed results.
        if isinstance(value, (bool, int, float, str)):
            return True
        if isinstance(value, dict):
            return all(
                isinstance(k, str) and isinstance(v, (bool, int, float, str))
                for k, v in value.items()
            )
        return False

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            problems.append(f"record {i}: not an object")
            continue
        if not isinstance(rec.get("label"), str) or not rec.get("label"):
            problems.append(f"record {i}: label must be a non-empty string")
        for key in ("measured", "paper"):
            if key not in rec:
                problems.append(f"record {i}: missing {key}")
            elif not _measured_ok(rec[key]):
                problems.append(
                    f"record {i}: {key} must be a scalar or a flat "
                    f"dict of scalars, got {type(rec[key]).__name__}"
                )
    return problems


def check_trajectory(payload: "dict | str") -> "list[str]":
    """Validate one ``BENCH_<pr>.json`` point of the perf trajectory.

    The workloads and end-to-end metrics are the ones ``BENCHMARK.json``
    declares. Per workload every ``runs`` entry carries ``seed``, ``side``
    (``parent`` / ``change``), ``ran_first``, ``correct`` and the metrics;
    a seed's two runs are a pair, exactly one of which ran first. The
    ``summary`` of each metric — per side ``median`` / ``q1`` / ``q3``
    (``statistics.quantiles(n=4)``) / ``n``, ``change_lower_pairs``,
    ``change_higher_pairs``, ``pairs`` and ``median_change_over_parent`` —
    is recomputed from ``runs`` and must equal what the file states.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(payload, dict) or not isinstance(payload.get("workloads"), dict):
        return ["top level must be a JSON object with a workloads object"]
    declared = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    metrics = [m["name"] for m in declared["end_to_end"]]
    problems: list[str] = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(payload["workloads"]) != sorted(names):
        problems.append(f"workloads are {sorted(payload['workloads'])}, expected {sorted(names)}")
    for name, entry in payload["workloads"].items():
        problems += [f"{name}: {p}" for p in _check_workload_entry(entry, metrics)]
    return problems


def _check_workload_entry(entry: dict, metrics: "list[str]") -> "list[str]":
    runs, summary = entry.get("runs"), entry.get("summary")
    if not isinstance(runs, list) or not isinstance(summary, dict):
        return ["needs a runs list and a summary object"]
    by_seed: dict = {}
    for i, run in enumerate(runs):
        missing = [k for k in ("seed", "side", "ran_first", "correct", *metrics) if k not in run]
        if missing or run["side"] not in ("parent", "change"):
            return [f"run {i} lacks {missing} or has a bad side"]
        if by_seed.setdefault(run["seed"], {}).setdefault(run["side"], run) is not run:
            return [f"seed {run['seed']} has two {run['side']} runs"]
    if any(sum(run["side"] == side for run in runs) < 2 for side in ("parent", "change")):
        return ["quartiles need at least two runs a side"]
    problems = []
    pairs = [p for p in by_seed.values() if len(p) == 2]
    if any(p["parent"]["ran_first"] == p["change"]["ran_first"] for p in pairs):
        problems.append("a pair needs exactly one side with ran_first")
    for metric in metrics:
        want = _summarize(runs, pairs, metric)
        got = summary.get(metric, {})
        diff = sorted(k for k in want if got.get(k) != want[k])
        if diff:
            problems.append(f"summary[{metric}] disagrees with its runs on {diff}")
    return problems


def _summarize(runs: "list[dict]", pairs: "list[dict]", metric: str) -> dict:
    """One metric's summary block, from the runs alone."""
    out: dict = {}
    for side in ("parent", "change"):
        values = [run[metric] for run in runs if run["side"] == side]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    out["change_lower_pairs"] = sum(p["change"][metric] < p["parent"][metric] for p in pairs)
    out["change_higher_pairs"] = sum(p["change"][metric] > p["parent"][metric] for p in pairs)
    out["pairs"] = len(pairs)
    out["median_change_over_parent"] = out["change"]["median"] / out["parent"]["median"]
    return out


def _check_file(
    path: str, as_results: bool = False, as_trajectory: bool = False
) -> "list[str]":
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if as_results:
        return check_experiment_payload(text)
    if as_trajectory:
        return check_trajectory(text)
    if path.endswith(".json"):
        try:
            is_payload = "experiment_id" in json.loads(text)
        except (json.JSONDecodeError, TypeError):
            is_payload = False
        return (check_experiment_payload if is_payload else check_chrome_trace)(text)
    return check_prometheus_text(text)


if __name__ == "__main__":
    import sys

    flags = {"--results", "--trajectory"} & set(sys.argv[1:])
    targets = [t for t in sys.argv[1:] if t not in flags]
    failed = False
    for target in targets:
        errors = _check_file(
            target,
            as_results="--results" in flags,
            as_trajectory="--trajectory" in flags,
        )
        if errors:
            failed = True
            print(f"{target}: INVALID")
            for err in errors:
                print(f"  - {err}")
        else:
            print(f"{target}: ok")
    sys.exit(1 if failed else 0)
