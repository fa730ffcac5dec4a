"""Query layer: A/B run comparison, trend series, regression detection.

The regression detector implements the relative-threshold /
median-baseline policy the CI gate uses: the latest point is compared
against the **median of the last K prior points** (robust to one noisy
run), and flagged when it moved more than ``threshold`` (a fraction)
in the *bad* direction for that metric.  Directions default per metric
— throughput up is good, wall time / collisions / retries up is bad —
and can be overridden.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Any

from repro.errors import ExperimentError
from repro.obs.store import RunStore
from repro.sim.trace import explain_entry, explain_missing

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_BASELINE_K",
    "metric_direction",
    "TrendPoint",
    "trend_points",
    "detect_regression",
    "compare_runs",
    "explain_from_store",
    "perf_overview",
]

#: Relative move (fraction of the baseline) that counts as a regression.
DEFAULT_THRESHOLD = 0.2

#: Baseline = median of the last K points before the latest.
DEFAULT_BASELINE_K = 3

#: Metrics where *larger* is better; everything else regresses upward.
_HIGHER_IS_BETTER = frozenset({"slots_per_sec", "deliveries", "combined_slots_per_sec"})


def metric_direction(metric: str) -> str:
    """``"up"`` when larger values are better, else ``"down"``."""
    return "up" if metric in _HIGHER_IS_BETTER else "down"


@dataclass
class TrendPoint:
    """One point of a trend series."""

    label: str  # short run fingerprint or bench git sha
    value: float
    run_id: int | None = None
    created: float | None = None


def trend_points(
    store: RunStore, metric: str, *, source: str = "runs"
) -> list[TrendPoint]:
    """The trend-ordered series of one metric.

    ``source="runs"`` reads ingested telemetry runs; ``source="bench"``
    reads the bench trajectory (metric ``combined_slots_per_sec`` or a
    per-topology ``<name>.slots_per_sec``).  A metric that no point of a
    non-empty source carries is an :class:`ExperimentError`.
    """
    if source == "runs":
        rows = store.metric_trend(metric)
        if not rows and store.runs():
            raise ExperimentError(f"no ingested run carries metric {metric!r}")
        return [
            TrendPoint(
                label=str(row["fingerprint"])[:8],
                value=float(row["value"]),
                run_id=row["id"],
                created=row["created"],
            )
            for row in rows
            if row["value"] is not None
        ]
    if source == "bench":
        points = []
        rows = store.bench_points()
        for row in rows:
            if metric in ("combined_slots_per_sec", "slots_per_sec"):
                value = row["combined_slots_per_sec"]
            else:
                payload = json.loads(row["payload"])
                name, _, sub = metric.partition(".")
                entry = payload.get("topologies", {}).get(name)
                value = entry.get(sub or "slots_per_sec") if entry else None
            if value is None:
                continue
            points.append(
                TrendPoint(
                    label=(row["git_sha"] or f"b{row['id']}")[:8],
                    value=float(value),
                    run_id=row["id"],
                    created=row["recorded"],
                )
            )
        if rows and not points:
            raise ExperimentError(f"no bench point carries metric {metric!r}")
        return points
    raise ExperimentError(f"unknown trend source {source!r} (use 'runs' or 'bench')")


def detect_regression(
    values: list[float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    baseline_k: int = DEFAULT_BASELINE_K,
    direction: str | None = None,
    metric: str = "slots_per_sec",
) -> dict[str, Any]:
    """Judge the latest point of a series against its recent baseline.

    Returns a verdict dict with ``regressed`` (bool), ``baseline``
    (median of the last ``baseline_k`` points before the latest),
    ``latest``, ``change`` (signed fraction vs baseline) and ``floor``
    /``ceiling`` (the tripwire value).  Series shorter than 2 points
    never regress (there is nothing to compare against).
    """
    if threshold <= 0:
        raise ExperimentError("threshold must be positive")
    if baseline_k < 1:
        raise ExperimentError("baseline_k must be >= 1")
    if direction is None:
        direction = metric_direction(metric)
    if direction not in ("up", "down"):
        raise ExperimentError(f"direction must be 'up' or 'down', not {direction!r}")
    verdict: dict[str, Any] = {
        "metric": metric,
        "direction": direction,
        "threshold": threshold,
        "baseline_k": baseline_k,
        "points": len(values),
        "regressed": False,
        "baseline": None,
        "latest": values[-1] if values else None,
        "change": None,
    }
    if len(values) < 2:
        return verdict
    window = values[:-1][-baseline_k:]
    baseline = statistics.median(window)
    latest = values[-1]
    verdict["baseline"] = baseline
    if baseline == 0:
        verdict["change"] = 0.0 if latest == 0 else float("inf")
        verdict["regressed"] = direction == "down" and latest > 0
        return verdict
    change = (latest - baseline) / abs(baseline)
    verdict["change"] = change
    if direction == "up":
        verdict["floor"] = baseline * (1.0 - threshold)
        verdict["regressed"] = latest < verdict["floor"]
    else:
        verdict["ceiling"] = baseline * (1.0 + threshold)
        verdict["regressed"] = latest > verdict["ceiling"]
    return verdict


def compare_runs(
    store: RunStore, a: str | int, b: str | int
) -> dict[str, Any]:
    """A/B diff of two runs' aggregate metrics.

    Returns the two run rows plus one diff row per metric present in
    either run: ``{"metric", "a", "b", "delta", "pct"}`` (``pct`` is
    relative to A, ``None`` when A is 0 or the metric is one-sided).
    """
    run_a = store.resolve_run(a)
    run_b = store.resolve_run(b)
    metrics_a = store.metrics_for(run_a["id"])
    metrics_b = store.metrics_for(run_b["id"])
    rows = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        va = metrics_a.get(name)
        vb = metrics_b.get(name)
        delta = (vb - va) if (va is not None and vb is not None) else None
        pct = (delta / abs(va) * 100.0) if (delta is not None and va) else None
        rows.append({"metric": name, "a": va, "b": vb, "delta": delta, "pct": pct})
    return {"a": run_a, "b": run_b, "diff": rows}


def perf_overview(store: RunStore, run: str | int = "latest") -> dict[str, Any]:
    """The performance plane of one run, grouped for display.

    Collects the ``perf.*`` aggregates ingest derives from sampling
    profiler records (``perf.span.<label>.*``) into span rows; raises
    when the run carries no perf metrics at all (the campaign ran
    without ``--perf``).
    """
    run_row = store.resolve_run(run)
    metrics = store.metrics_for(run_row["id"])
    perf = {name: value for name, value in metrics.items() if name.startswith("perf.")}
    if not perf:
        raise ExperimentError(
            f"run {run_row['id']} has no perf metrics; re-run with --perf "
            "and re-ingest"
        )
    spans: dict[str, dict[str, float]] = {}
    for name, value in perf.items():
        if name.startswith("perf.span."):
            label, _, field = name[len("perf.span."):].rpartition(".")
            if label:
                spans.setdefault(label, {})[field] = value
    span_rows = [
        {"label": label, **fields}
        for label, fields in sorted(
            spans.items(), key=lambda kv: (-kv[1].get("secs", 0.0), kv[0])
        )
    ]
    return {
        "run": run_row,
        "samples": perf.get("perf.samples"),
        "sample_wall_s": perf.get("perf.sample_wall_s"),
        "spans": span_rows,
        "metrics": perf,
    }


def explain_from_store(
    store: RunStore,
    run: str | int,
    node: str,
    slot: int,
    engine_run: str | None = None,
) -> dict[str, Any]:
    """Answer "why didn't ``node`` receive in ``slot``?" from the store.

    Uses the same causal sentences as the live
    :class:`~repro.sim.trace.ProvenanceRecorder`.  A campaign log
    holds many engine runs, so one (node, slot) may have several
    entries — pass ``engine_run`` (the run tag, e.g. ``r3``) to pick
    one; otherwise the first is explained and the rest are counted.
    A miss reports the node's nearest recorded slots instead.
    """
    run_row = store.resolve_run(run)
    run_id = run_row["id"]
    if store.provenance_count(run_id) == 0:
        raise ExperimentError(
            f"run {run_id} has no provenance rows; re-run with provenance "
            f"recording on (--provenance / REPRO_PROVENANCE=1) and re-ingest"
        )
    entries = store.provenance_at(run_id, str(node), int(slot), engine_run)
    if entries:
        entry = entries[0]
        transmitters = tuple(json.loads(entry["tx"] or "[]"))
        answer = explain_entry(
            entry["node"], entry["slot"], entry["outcome"], transmitters,
            entry["detail"],
        )
        if entry.get("engine_run"):
            answer += f" [engine run {entry['engine_run']}]"
        return {
            "run": run_row,
            "found": True,
            "entry": entry,
            "others": len(entries) - 1,
            "answer": answer,
        }
    history = store.provenance_for_node(run_id, str(node))
    nearby = sorted(history, key=lambda e: abs(e["slot"] - int(slot)))[:3]
    return {
        "run": run_row,
        "found": False,
        "entry": None,
        "others": 0,
        "answer": explain_missing(node, slot),
        "nearby": nearby,
    }
