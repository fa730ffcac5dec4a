"""Aggregate a telemetry event log into tables or JSON.

``python -m repro telemetry <log>`` renders the output of
:func:`summarize`; tests and the CI smoke job use :func:`validate_log`
to hold emitted logs to the schema contract.

The summarizer is deliberately tolerant: unknown kinds and extra
fields are ignored, so logs from newer emitters still summarize (the
schema is open — see :mod:`repro.telemetry.schema`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.analysis.tables import Table
from repro.errors import ExperimentError
from repro.fabric.store import LeaseReplay
from repro.monitor.tail import TailReader
from repro.telemetry.schema import validate_line, validate_record

__all__ = [
    "read_records",
    "validate_log",
    "summarize",
    "summary_tables",
    "render_summary",
    "summary_json",
]


def read_records(
    path: str | os.PathLike[str], *, strict: bool = False
) -> list[dict[str, Any]]:
    """Every schema-valid record of an event log.

    A schema filter over :class:`repro.monitor.tail.TailReader`, the
    torn-tail-tolerant reader: a final line with no terminating newline
    is a record the writer is still mid-flush on and is left out, in
    strict mode too.  With ``strict=True`` any other bad line (not
    JSON, or a schema violation) raises :class:`ExperimentError` naming
    its line number; otherwise invalid lines are skipped (a torn line
    from a killed campaign is normal).
    """
    log = Path(path)
    if not log.exists():
        raise ExperimentError(f"no telemetry log at {log}")
    records: list[dict[str, Any]] = []
    for number, value in TailReader(log).poll_numbered():
        if isinstance(value, json.JSONDecodeError):
            if strict:
                raise ExperimentError(f"{log}: line {number}: {value}") from value
            continue
        errors = validate_record(value)
        if errors and strict:
            raise ExperimentError(f"{log}: line {number}: {'; '.join(errors)}")
        if not errors:
            records.append(value)
    return records


def validate_log(path: str | os.PathLike[str]) -> list[str]:
    """Every schema violation in the log, prefixed with line numbers.

    The whole file is checked: a line that is not valid UTF-8 (or not
    valid JSON) is reported with its line number and validation moves
    on to the next line, instead of aborting at the first bad byte.  A
    final line with no terminating newline is a record the writer is
    still mid-flush on (a live campaign being validated while it runs)
    and is skipped, not reported — the monitor's tail reader buffers
    exactly such lines until the newline lands.
    """
    log = Path(path)
    if not log.exists():
        raise ExperimentError(f"no telemetry log at {log}")
    errors: list[str] = []
    with log.open("rb") as stream:
        for number, raw in enumerate(stream, start=1):
            if not raw.endswith(b"\n") and raw.strip():
                break  # partially-written final line: writer mid-flush
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                errors.append(f"line {number}: not valid UTF-8 ({exc})")
                continue
            for error in validate_line(line):
                errors.append(f"line {number}: {error}")
    return errors


# -- aggregation ----------------------------------------------------------


def _stats(values: list[float]) -> dict[str, float]:
    return {
        "count": len(values),
        "min": min(values),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def summarize(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Roll an event stream up into one machine-readable summary."""
    from repro.sim.metrics import RunMetrics

    manifests = [r for r in records if r["kind"] == "manifest"]
    run_ends = [r for r in records if r["kind"] == "run_end"]
    total = RunMetrics.merge_all(
        RunMetrics(
            slots=r["slots"],
            transmissions=r["transmissions"],
            collisions=r["collisions"],
            deliveries=r["deliveries"],
            jam_transmissions=r.get("jam_transmissions", 0),
        )
        for r in run_ends
    )
    wall = sum(r["wall_s"] for r in run_ends)
    runs = {
        "count": len(run_ends),
        "slots": total.slots,
        "transmissions": total.transmissions,
        "collisions": total.collisions,
        "deliveries": total.deliveries,
        "jam_transmissions": total.jam_transmissions,
        "wall_s": wall,
        "slots_per_sec": (total.slots / wall) if wall > 0 else 0.0,
    }

    # Phase markers, grouped by protocol layer and phase index.  The
    # slot of each marker is the phase's *last* slot; ``start_slot``
    # (when the emitter provides it) gives slots-per-phase directly.
    phases: dict[str, dict[int, dict[str, Any]]] = {}
    for record in records:
        if record["kind"] != "phase":
            continue
        proto = str(record["proto"])
        index = int(record["index"])
        bucket = phases.setdefault(proto, {}).setdefault(
            index, {"count": 0, "slots": [], "lengths": []}
        )
        bucket["count"] += 1
        bucket["slots"].append(record["slot"])
        if "start_slot" in record:
            bucket["lengths"].append(record["slot"] - record["start_slot"] + 1)
    phase_summary: dict[str, list[dict[str, Any]]] = {}
    for proto, buckets in sorted(phases.items()):
        rows = []
        for index in sorted(buckets):
            bucket = buckets[index]
            row: dict[str, Any] = {"index": index, "count": bucket["count"]}
            row.update(
                {f"slot_{k}": v for k, v in _stats(bucket["slots"]).items() if k != "count"}
            )
            if bucket["lengths"]:
                row["mean_length"] = sum(bucket["lengths"]) / len(bucket["lengths"])
            rows.append(row)
        phase_summary[proto] = rows

    chunks = [r for r in records if r["kind"] == "chunk"]
    chunk_summary: dict[str, Any] = {"count": len(chunks)}
    if chunks:
        chunk_summary.update(
            {
                "items": sum(c["size"] for c in chunks),
                "wall_s": _stats([c["wall_s"] for c in chunks]),
                "retries": sum(c.get("retries", 0) for c in chunks),
                "timeouts": sum(c.get("timeouts", 0) for c in chunks),
                "workers": len({c["pid"] for c in chunks if "pid" in c}),
            }
        )
        queue_waits = [c["queue_s"] for c in chunks if "queue_s" in c]
        if queue_waits:
            chunk_summary["queue_s"] = _stats(queue_waits)

    counters: dict[str, dict[str, float]] = {}
    for record in records:
        if record["kind"] != "counter":
            continue
        entry = counters.setdefault(str(record["name"]), {"events": 0, "total": 0})
        entry["events"] += 1
        entry["total"] += record["value"]
    gauges: dict[str, dict[str, float]] = {}
    for record in records:
        if record["kind"] != "gauge":
            continue
        name = str(record["name"])
        value = record["value"]
        entry = gauges.setdefault(
            name, {"events": 0, "last": value, "min": value, "max": value}
        )
        entry["events"] += 1
        entry["last"] = value
        entry["min"] = min(entry["min"], value)
        entry["max"] = max(entry["max"], value)

    spans: dict[str, dict[str, float]] = {}
    for record in records:
        if record["kind"] != "span":
            continue
        entry = spans.setdefault(str(record["name"]), {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += record["dur_s"]

    campaign_ends = [r for r in records if r["kind"] == "campaign_end"]
    progress = [r for r in records if r["kind"] == "progress"]

    # Fleet rollup: the fabric's lease audit trail (replayed), worker
    # lifecycle, alert and chaos volumes.
    lease = LeaseReplay()
    fleet_workers: set[str] = set()
    for record in records:
        lease.feed(record)
        if record["kind"] == "worker":
            fleet_workers.add(str(record["worker"]))
    fabric_ends = [r for r in records if r["kind"] == "fabric_end"]
    fleet = {
        "lease_events": dict(sorted(lease.events.items())),
        "workers": sorted(fleet_workers | set(lease.workers)),
        # Every grant, as the autopsy and the monitor's lanes count it.
        "claims": lease.events.get("claim", 0) + lease.takeovers,
        "takeovers": lease.takeovers,
        "fence_rejects": lease.fence_rejects,
        "fabric_runs": len(fabric_ends),
        "fabric_wall_s": sum(r["wall_s"] for r in fabric_ends),
        "fabric_chunks": sum(r["chunks"] for r in fabric_ends),
        "alerts": sum(1 for r in records if r["kind"] == "alert"),
        "chaos_trials": sum(1 for r in records if r["kind"] == "chaos_trial"),
    }

    # Performance plane (repro.perf): sampled folded-stack captures and
    # span-attributed cost, merged across the log (worker captures ship
    # back as extra perf_profile/perf_span records and sum here).
    perf_profiles = [r for r in records if r["kind"] == "perf_profile"]
    perf_stacks: dict[str, int] = {}
    for record in perf_profiles:
        stacks = record.get("stacks")
        if not isinstance(stacks, dict):
            continue
        for stack, count in stacks.items():
            if isinstance(count, (int, float)) and count > 0:
                perf_stacks[str(stack)] = perf_stacks.get(str(stack), 0) + int(count)
    perf_spans: dict[str, dict[str, float]] = {}
    for record in records:
        if record["kind"] != "perf_span":
            continue
        entry = perf_spans.setdefault(
            str(record["label"]),
            {"count": 0, "secs": 0.0, "samples": 0, "mem_peak_kb": 0.0,
             "mem_net_kb": 0.0},
        )
        entry["count"] += record.get("count", 1)
        entry["secs"] += record["secs"]
        entry["samples"] += record["samples"]
        entry["mem_peak_kb"] = max(entry["mem_peak_kb"], record.get("mem_peak_kb", 0.0))
        entry["mem_net_kb"] += record.get("mem_net_kb", 0.0)
    perf = {
        "profiles": len(perf_profiles),
        "samples": sum(r["samples"] for r in perf_profiles),
        "sample_wall_s": sum(r["dur_s"] for r in perf_profiles),
        "hz": perf_profiles[-1]["hz"] if perf_profiles else None,
        "stacks": dict(sorted(perf_stacks.items())),
        "spans": dict(sorted(perf_spans.items())),
    }

    return {
        "records": len(records),
        "manifests": manifests,
        "runs": runs,
        "phases": phase_summary,
        "chunks": chunk_summary,
        "faults": sum(1 for r in records if r["kind"] == "fault"),
        "counters": counters,
        "gauges": gauges,
        "spans": spans,
        "campaigns": {
            "count": len(campaign_ends),
            "wall_s": sum(c["wall_s"] for c in campaign_ends),
            "retries": sum(c.get("retries", 0) for c in campaign_ends),
            "timeouts": sum(c.get("timeouts", 0) for c in campaign_ends),
        },
        "fleet": fleet,
        "perf": perf,
        "last_progress": progress[-1] if progress else None,
    }


# -- rendering ------------------------------------------------------------


def summary_tables(summary: dict[str, Any]) -> list[Table]:
    """Render a :func:`summarize` result as fixed-width tables."""
    tables: list[Table] = []

    overview = Table(
        "Telemetry log overview",
        ["records", "manifests", "runs", "phase_protos", "chunks", "faults"],
    )
    overview.add_row(
        summary["records"],
        len(summary["manifests"]),
        summary["runs"]["count"],
        len(summary["phases"]),
        summary["chunks"]["count"],
        summary["faults"],
    )
    tables.append(overview)

    if summary["manifests"]:
        manifest_table = Table(
            "Run manifest(s)",
            ["command", "seed", "git_sha", "host", "package_version", "config_fingerprint"],
        )
        for manifest in summary["manifests"]:
            manifest_table.add_row(
                manifest.get("command", "-"),
                manifest.get("seed", "-"),
                (manifest.get("git_sha") or "-")[:12],
                manifest.get("host", "-"),
                manifest.get("package_version", "-"),
                manifest.get("config_fingerprint", "-"),
            )
        tables.append(manifest_table)

    runs = summary["runs"]
    if runs["count"]:
        run_table = Table(
            "Engine runs (merged RunMetrics)",
            ["runs", "slots", "transmissions", "collisions", "deliveries",
             "wall_s", "slots_per_sec"],
        )
        run_table.add_row(
            runs["count"], runs["slots"], runs["transmissions"], runs["collisions"],
            runs["deliveries"], runs["wall_s"], runs["slots_per_sec"],
        )
        tables.append(run_table)

    for proto, rows in summary["phases"].items():
        phase_table = Table(
            f"Phase markers — {proto} (slot of phase completion per index)",
            ["index", "count", "slot_min", "slot_mean", "slot_max", "mean_length"],
        )
        for row in rows:
            phase_table.add_row(
                row["index"], row["count"], row["slot_min"], row["slot_mean"],
                row["slot_max"], row.get("mean_length", "-"),
            )
        tables.append(phase_table)

    chunks = summary["chunks"]
    if chunks["count"]:
        chunk_table = Table(
            "Parallel chunks (per-chunk worker telemetry)",
            ["chunks", "items", "workers", "wall_mean_s", "wall_max_s",
             "queue_mean_s", "retries", "timeouts"],
        )
        chunk_table.add_row(
            chunks["count"],
            chunks.get("items", 0),
            chunks.get("workers", 0),
            chunks["wall_s"]["mean"],
            chunks["wall_s"]["max"],
            chunks.get("queue_s", {}).get("mean", "-"),
            chunks.get("retries", 0),
            chunks.get("timeouts", 0),
        )
        tables.append(chunk_table)

    if summary["counters"] or summary["gauges"]:
        metric_table = Table(
            "Counters and gauges", ["metric", "kind", "events", "total_or_last"]
        )
        for name, entry in sorted(summary["counters"].items()):
            metric_table.add_row(name, "counter", entry["events"], entry["total"])
        for name, entry in sorted(summary["gauges"].items()):
            metric_table.add_row(name, "gauge", entry["events"], entry["last"])
        tables.append(metric_table)

    if summary["spans"]:
        span_table = Table("Spans", ["name", "count", "total_s"])
        for name, entry in sorted(summary["spans"].items()):
            span_table.add_row(name, entry["count"], entry["total_s"])
        tables.append(span_table)

    fleet = summary.get("fleet") or {}
    if fleet.get("lease_events") or fleet.get("fabric_runs"):
        fleet_table = Table(
            "Fleet (fabric lease audit)",
            ["workers", "claims", "commits", "takeovers", "fence_rejects",
             "fabric_runs", "alerts", "chaos_trials"],
        )
        lease_events = fleet.get("lease_events", {})
        fleet_table.add_row(
            len(fleet.get("workers", [])),
            fleet.get("claims", 0),
            lease_events.get("commit", 0),
            fleet.get("takeovers", 0),
            fleet.get("fence_rejects", 0),
            fleet.get("fabric_runs", 0),
            fleet.get("alerts", 0),
            fleet.get("chaos_trials", 0),
        )
        tables.append(fleet_table)

    perf = summary.get("perf") or {}
    if perf.get("profiles"):
        perf_table = Table(
            "Perf (sampling profiler)",
            ["profiles", "samples", "hz", "sample_wall_s", "distinct_stacks"],
        )
        perf_table.add_row(
            perf.get("profiles", 0),
            perf.get("samples", 0),
            perf.get("hz") or "-",
            perf.get("sample_wall_s", 0.0),
            len(perf.get("stacks", {})),
        )
        tables.append(perf_table)
        spans = perf.get("spans", {})
        if spans:
            perf_span_table = Table(
                "Perf spans (sampled time + traced memory per label)",
                ["label", "count", "secs", "samples", "mem_peak_kb"],
            )
            ranked = sorted(spans.items(), key=lambda kv: (-kv[1]["secs"], kv[0]))
            for label, entry in ranked:
                perf_span_table.add_row(
                    label, entry["count"], entry["secs"], entry["samples"],
                    entry["mem_peak_kb"],
                )
            tables.append(perf_span_table)

    return tables


def render_summary(summary: dict[str, Any]) -> str:
    return "\n\n".join(table.render() for table in summary_tables(summary))


def summary_json(summary: dict[str, Any]) -> str:
    return json.dumps(summary, indent=2, sort_keys=True, default=repr)
