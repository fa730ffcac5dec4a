"""Load telemetry logs and bench records into the run store.

Two source shapes are understood, auto-detected per file:

* **Telemetry JSON-lines logs** written by ``--telemetry`` (plus their
  ``<log>.manifest.json`` sidecar when present).  The log is folded
  once by :class:`repro.telemetry.summary.LogSummary`; the aggregates, the ``slot_batch`` /
  ``progress`` time series, the phase tables, and any ``prov``
  (causal provenance) events land in the store under one run row.
* **Bench records** — ``BENCH_engine.json`` (one measurement object)
  or the append-only ``bench_history.jsonl`` trajectory the bench
  harness maintains (one measurement per line).

Ingest is idempotent end to end: a run is keyed on a fingerprint of
its manifest, a bench point on a digest of its payload, so pointing
``obs ingest`` at the same files twice changes nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ExperimentError
from repro.obs.store import RunStore
from repro.telemetry.summary import LogSummary, read_records

__all__ = [
    "IngestResult",
    "fingerprint_of",
    "ingest_log",
    "ingest_bench_file",
    "ingest_path",
]


@dataclass
class IngestResult:
    """What one ``obs ingest`` call did."""

    path: str
    kind: str  # "log" | "bench"
    run_id: int | None = None
    replaced: bool = False
    records: int = 0
    provenance_rows: int = 0
    bench_points: int = 0
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.kind == "bench":
            return (
                f"{self.path}: bench file, {self.bench_points} new point(s)"
            )
        action = "re-ingested (replaced)" if self.replaced else "ingested"
        prov = f", {self.provenance_rows} provenance rows" if self.provenance_rows else ""
        return (
            f"{self.path}: {action} as run {self.run_id} "
            f"({self.records} records{prov})"
        )


def fingerprint_of(manifest: dict[str, Any] | None, path: Path) -> str:
    """The idempotency key of one log: a digest of its manifest.

    A manifest pins the campaign (seed, config fingerprint, creation
    time, host, pid), so the same log always maps to the same run row.
    Logs without a manifest fall back to a digest of the file content.
    """
    if manifest:
        canonical = json.dumps(manifest, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _sidecar_manifest(path: Path) -> dict[str, Any] | None:
    sidecar = path.with_name(path.name + ".manifest.json")
    if not sidecar.exists():
        return None
    try:
        loaded = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


def _normalize_node(node: Any) -> str:
    """Stable text key for a node label (JSON round-trips tuples as lists)."""
    if isinstance(node, list):
        node = tuple(node)
    return str(node)


def _aggregate_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """The scalar per-run aggregates the trend/compare layers work on."""
    runs = summary["runs"]
    metrics: dict[str, float] = {
        "engine_runs": runs["count"],
        "slots": runs["slots"],
        "transmissions": runs["transmissions"],
        "collisions": runs["collisions"],
        "deliveries": runs["deliveries"],
        "jam_transmissions": runs["jam_transmissions"],
        "wall_s": runs["wall_s"],
        "slots_per_sec": runs["slots_per_sec"],
        "faults": summary["faults"],
    }
    chunks = summary["chunks"]
    metrics["chunks"] = chunks["count"]
    if chunks["count"]:
        metrics["chunk_retries"] = chunks.get("retries", 0)
        metrics["chunk_timeouts"] = chunks.get("timeouts", 0)
    campaigns = summary["campaigns"]
    metrics["campaigns"] = campaigns["count"]
    if campaigns["count"]:
        metrics["campaign_wall_s"] = campaigns["wall_s"]
        metrics["campaign_retries"] = campaigns["retries"]
        metrics["campaign_timeouts"] = campaigns["timeouts"]
    # Fleet aggregates: fabric lease audit, worker fleet size,
    # alert/chaos volume.
    fleet = summary.get("fleet") or {}
    if fleet.get("alerts"):
        metrics["alerts"] = fleet["alerts"]
    if fleet.get("chaos_trials"):
        metrics["chaos_trials"] = fleet["chaos_trials"]
    if fleet.get("fabric_runs"):
        metrics["fabric.runs"] = fleet["fabric_runs"]
        metrics["fabric.wall_s"] = fleet["fabric_wall_s"]
        metrics["fabric.chunks"] = fleet["fabric_chunks"]
    if fleet.get("lease_events"):
        metrics["fabric.workers"] = len(fleet.get("workers", []))
        metrics["fabric.takeovers"] = fleet.get("takeovers", 0)
        metrics["fabric.fence_rejects"] = fleet.get("fence_rejects", 0)
        for event, count in fleet["lease_events"].items():
            metrics[f"fabric.lease.{event}"] = count
    # Performance plane (repro.perf): sampled volume and per-span
    # attributed cost.
    perf = summary.get("perf") or {}
    if perf.get("profiles"):
        metrics["perf.samples"] = perf["samples"]
        metrics["perf.sample_wall_s"] = perf["sample_wall_s"]
    for label, entry in perf.get("spans", {}).items():
        key = _metric_key(label)
        metrics[f"perf.span.{key}.secs"] = entry["secs"]
        metrics[f"perf.span.{key}.samples"] = entry["samples"]
        if entry.get("mem_peak_kb"):
            metrics[f"perf.span.{key}.mem_peak_kb"] = entry["mem_peak_kb"]
    return metrics


def _metric_key(text: str) -> str:
    """A metric-name-safe key: spaces and odd punctuation collapsed."""
    cleaned = [
        ch if (ch.isalnum() or ch in "._:()<>-") else "_" for ch in text.strip()
    ]
    return "".join(cleaned) or "_"


def ingest_log(store: RunStore, path: str | os.PathLike[str]) -> IngestResult:
    """Ingest one telemetry JSON-lines log as a run row (idempotent)."""
    log = Path(path)
    records = read_records(log)  # tolerant: skips torn/invalid lines
    folded = LogSummary.of(records)
    manifest = _sidecar_manifest(log)
    if manifest is None:
        manifest = folded.manifests[0] if folded.manifests else None
    fingerprint = fingerprint_of(manifest, log)

    summary = folded.to_dict()
    metrics = _aggregate_metrics(summary)

    # Per-run node totals come from run_begin records (the engine stamps
    # each run's topology size); they turn raw collision counts into the
    # per-node rate the paper's Lemma 2 accounting cares about.
    nodes_total = folded.nodes_total
    if nodes_total:
        metrics["nodes_total"] = nodes_total
        metrics["collisions_per_node"] = metrics["collisions"] / nodes_total

    manifest = manifest or {}
    config = manifest.get("config")
    info = {
        "command": manifest.get("command"),
        "seed": manifest.get("seed"),
        "created": manifest.get("created"),
        "git_sha": manifest.get("git_sha"),
        "host": manifest.get("host"),
        "package_version": manifest.get("package_version"),
        "config_fingerprint": manifest.get("config_fingerprint"),
        "config_json": (
            json.dumps(config, sort_keys=True, default=repr)
            if isinstance(config, dict) else None
        ),
        "source_path": str(log),
        "records": len(records),
        "ingested_at": time.time(),
    }
    run_id, replaced = store.upsert_run(fingerprint, info)
    store.add_metrics(run_id, metrics)

    batches = [r for r in records if r.get("kind") == "slot_batch"]
    if batches:
        store.add_series(
            run_id, "slots_per_sec",
            [(r["slot"], r["slots_per_sec"]) for r in batches],
        )
    progress = [r for r in records if r.get("kind") == "progress"]
    if progress:
        store.add_series(
            run_id, "progress", [(r["elapsed_s"], r["done"]) for r in progress]
        )

    phase_rows = [
        {
            "proto": proto,
            "idx": row["index"],
            "count": row["count"],
            "slot_mean": row.get("slot_mean"),
            "mean_length": row.get("mean_length"),
        }
        for proto, rows in summary["phases"].items()
        for row in rows
    ]
    if phase_rows:
        store.add_phases(run_id, phase_rows)

    prov_rows = [
        {
            # Campaign logs hold many engine runs; keep each run's tag
            # (r1, r2, ... — chunk-prefixed for pool workers) so explain
            # can tell same-(node, slot) entries apart.
            "engine_run": r.get("run"),
            "slot": int(r["slot"]),
            "node": _normalize_node(r["node"]),
            "outcome": str(r["outcome"]),
            "tx": [_normalize_node(t) for t in r.get("tx", [])],
            "detail": r.get("detail"),
        }
        for r in records
        if r.get("kind") == "prov"
    ]
    if prov_rows:
        store.add_provenance(run_id, prov_rows)

    return IngestResult(
        path=str(log),
        kind="log",
        run_id=run_id,
        replaced=replaced,
        records=len(records),
        provenance_rows=len(prov_rows),
    )


# -- bench records --------------------------------------------------------

_BENCH_SCHEMA_PREFIX = "repro-bench-engine/"


def _bench_fingerprint(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _is_bench_payload(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and str(value.get("schema", "")).startswith(_BENCH_SCHEMA_PREFIX)
    )


def ingest_bench_file(store: RunStore, path: str | os.PathLike[str]) -> IngestResult:
    """Ingest ``BENCH_engine.json`` or a ``bench_history.jsonl`` trajectory."""
    source = Path(path)
    if not source.exists():
        raise ExperimentError(f"no bench file at {source}")
    text = source.read_text(encoding="utf-8")
    payloads: list[dict[str, Any]] = []
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if _is_bench_payload(whole):
        payloads.append(whole)
    elif whole is None:
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExperimentError(f"{source}: line {number}: {exc}") from exc
            if _is_bench_payload(record):
                payloads.append(record)
    if not payloads:
        raise ExperimentError(
            f"{source}: not a bench record (expected schema "
            f"'{_BENCH_SCHEMA_PREFIX}...' as an object or JSON lines)"
        )
    new = sum(
        1 for payload in payloads
        if store.add_bench_point(_bench_fingerprint(payload), payload)
    )
    return IngestResult(path=str(source), kind="bench", bench_points=new)


def ingest_path(store: RunStore, path: str | os.PathLike[str]) -> IngestResult:
    """Ingest one file, auto-detecting bench records vs telemetry logs."""
    source = Path(path)
    if not source.exists():
        raise ExperimentError(f"no such file: {source}")
    head = ""
    try:
        with source.open("r", encoding="utf-8", errors="replace") as stream:
            head = stream.readline()
    except OSError as exc:
        raise ExperimentError(f"cannot read {source}: {exc}") from exc
    if _BENCH_SCHEMA_PREFIX in head or (
        head.strip().startswith("{") and _BENCH_SCHEMA_PREFIX in source.read_text(
            encoding="utf-8", errors="replace"
        )[:4096]
    ):
        try:
            return ingest_bench_file(store, source)
        except ExperimentError:
            pass  # looked bench-shaped but wasn't; fall through to log ingest
    return ingest_log(store, source)
