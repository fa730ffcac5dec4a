"""Aggregate a telemetry event log into tables or JSON.

:class:`LogSummary` is the one fold of the stream: ``python -m repro
telemetry <log>`` renders :func:`summarize` (the fold of a whole log),
``obs ingest`` stores it, and the live monitor's board and conformance
checkers read the same fold record by record.  Tests and CI use
:func:`validate_log` to hold emitted logs to the schema contract.

The summarizer is deliberately tolerant: unknown kinds and extra
fields are ignored, so logs from newer emitters still summarize (the
schema is open — see :mod:`repro.telemetry.schema`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.tables import Table
from repro.errors import ExperimentError
from repro.fabric.store import LeaseReplay
from repro.telemetry.schema import PHASE_ROW_FIELDS, is_number, validate_line, validate_record

__all__ = [
    "LogSummary",
    "number",
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
    # Imported here: repro.monitor's board imports this module.
    from repro.monitor.tail import TailReader

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

#: Record kinds that describe a fabric campaign.
FLEET_KINDS = frozenset({"lease", "worker", "fabric_begin", "fabric_end"})

#: Kinds a log holds few of: kept whole and rolled up by ``to_dict``.
_KEPT = ("chunk", "campaign_end", "fabric_end", "perf_profile", "perf_span")

#: ``run_end`` fields summed into the run totals.
_RUN_TOTALS = ("slots", "transmissions", "collisions", "deliveries",
               "jam_transmissions", "wall_s")


def number(record: dict[str, Any], name: str, default: Any = None) -> Any:
    """``record[name]`` if it is a number (not a bool), else ``default``."""
    value = record.get(name)
    return value if is_number(value) else default


def _stats(values: list[float]) -> dict[str, float]:
    return {
        "count": len(values),
        "min": min(values),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


class LogSummary:
    """A telemetry stream folded one record at a time.

    The one fold of the stream: :func:`summarize` feeds it a whole log,
    and the live monitor feeds it each record as it arrives; its board
    reads the run and fleet counters, its conformance checkers the
    run-begin index (:meth:`begin_for`).  ``lease`` and ``worker``
    records go to a :class:`~repro.fabric.store.LeaseReplay`.  The
    counters skip a field of the wrong type instead of trusting it,
    because the live monitor tails torn and foreign streams
    (``telemetry --validate`` is the schema check).  Records of the
    kinds a log holds few of are kept and rolled up by :meth:`to_dict`.
    """

    def __init__(self) -> None:
        self.records = 0
        #: Records seen, by kind.
        self.kinds: dict[Any, int] = {}
        self.manifests: list[dict[str, Any]] = []
        #: The latest manifest's command.
        self.command: str | None = None
        #: ``run_begin`` records by ``(chunk, run)``: pool workers ship
        #: their records back chunk-tagged, so ``run`` alone repeats.
        self.begins: dict[tuple[Any, Any], dict[str, Any]] = {}
        self.nodes_total: Any = 0
        #: ``run_end`` totals of :data:`_RUN_TOTALS`.
        self.runs: dict[str, Any] = dict.fromkeys(_RUN_TOTALS, 0)
        #: Runs whose ``informed`` reached their ``run_begin``'s ``nodes``.
        self.runs_succeeded = 0
        self.last_progress: dict[str, Any] | None = None
        self.progress_done: int | None = None
        self.progress_total: int | None = None
        #: Phase markers by proto and index: [count, slot_min, slot_max,
        #: slot_sum, length_count, length_sum], folded from ``phase``
        #: records and from ``run_end``'s ``phases`` rows alike.
        self.phases: dict[str, dict[int, list[Any]]] = {}
        self.kept: dict[str, list[dict[str, Any]]] = {kind: [] for kind in _KEPT}
        self.lease = LeaseReplay()
        #: The latest ``fabric_begin``'s chunk count.
        self.chunks_total: int | None = None

    @classmethod
    def of(cls, records: Iterable[dict[str, Any]]) -> "LogSummary":
        summary = cls()
        for record in records:
            summary.feed(record)
        return summary

    def count(self, kind: str) -> int:
        """How many records of ``kind`` the stream held."""
        return self.kinds.get(kind, 0)

    @property
    def fleet(self) -> bool:
        """Whether the stream describes a fabric campaign."""
        return any(self.kinds.get(kind) for kind in FLEET_KINDS)

    def begin_for(self, record: dict[str, Any]) -> dict[str, Any] | None:
        """The ``run_begin`` of the run ``record`` belongs to."""
        return self.begins.get((record.get("chunk"), record.get("run")))

    def feed(self, record: dict[str, Any]) -> None:
        self.records += 1
        kind = record.get("kind")
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind in self.kept:
            self.kept[kind].append(record)
        elif kind == "phase":
            self._phase(record)
        elif kind == "run_end":
            self._run_end(record)
        elif kind == "run_begin":
            self.begins[(record.get("chunk"), record.get("run"))] = record
            self.nodes_total += number(record, "nodes", 0)
        elif kind in ("lease", "worker"):
            self.lease.feed(record)
        elif kind == "progress":
            self.last_progress = record
            done, total = number(record, "done"), number(record, "total")
            if done is not None:
                self.progress_done = int(done)
            if total is not None:
                self.progress_total = int(total)
        elif kind == "manifest":
            self.manifests.append(record)
            if isinstance(record.get("command"), str):
                self.command = record["command"]
        elif kind == "fabric_begin" and isinstance(number(record, "chunks"), int):
            self.chunks_total = record["chunks"]

    def _run_end(self, record: dict[str, Any]) -> None:
        rows = record.get("phases")
        if isinstance(rows, list):
            for row in rows:
                if (isinstance(row, list) and len(row) == len(PHASE_ROW_FIELDS)
                        and all(map(is_number, row[1:])) and row[2] > 0):
                    self._fold_phases(*row)
        for name in _RUN_TOTALS:
            self.runs[name] += number(record, name, 0)
        begin = self.begin_for(record)
        nodes = None if begin is None else number(begin, "nodes")
        informed = number(record, "informed")
        if nodes is not None and informed is not None and informed >= nodes:
            self.runs_succeeded += 1

    def _phase(self, record: dict[str, Any]) -> None:
        # One marker, as a row of count 1.  Its slot is the phase's
        # *last* slot; ``start_slot`` (when the emitter provides it)
        # gives slots-per-phase directly.
        index, slot = number(record, "index"), number(record, "slot")
        if index is None or slot is None:
            return
        start = number(record, "start_slot")
        self._fold_phases(record.get("proto"), index, 1, slot, slot, slot,
                          *((0, 0) if start is None else (1, slot - start + 1)))

    def _fold_phases(self, proto: Any, index: Any, count: Any, low: Any, high: Any,
                     total: Any, lengths: Any, length_sum: Any) -> None:
        # Grouped by protocol layer and phase index.
        buckets = self.phases.setdefault(str(proto), {})
        bucket = buckets.get(int(index))
        if bucket is None:
            buckets[int(index)] = [count, low, high, total, lengths, length_sum]
            return
        bucket[0] += count
        bucket[1] = min(bucket[1], low)
        bucket[2] = max(bucket[2], high)
        bucket[3] += total
        bucket[4] += lengths
        bucket[5] += length_sum

    def to_dict(self) -> dict[str, Any]:
        """The machine-readable summary (what :func:`summarize` returns)."""
        kept = self.kept
        runs = self.runs
        wall = runs["wall_s"]
        phase_summary: dict[str, list[dict[str, Any]]] = {}
        for proto, buckets in sorted(self.phases.items()):
            rows = []
            for index in sorted(buckets):
                count, low, high, total, lengths, length_sum = buckets[index]
                row: dict[str, Any] = {"index": index, "count": count, "slot_min": low,
                                       "slot_mean": total / count, "slot_max": high}
                if lengths:
                    row["mean_length"] = length_sum / lengths
                rows.append(row)
            phase_summary[proto] = rows

        chunks = kept["chunk"]
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

        # Fleet rollup: the fabric's lease audit trail and worker lives
        # (replayed), alert and chaos volumes.
        lease = self.lease
        fabric_ends = kept["fabric_end"]
        fleet = {
            "lease_events": dict(sorted(lease.events.items())),
            "workers": sorted(lease.workers),
            # Every grant, as the replay's worker ledgers count it.
            "claims": lease.events.get("claim", 0) + lease.takeovers,
            "takeovers": lease.takeovers,
            "fence_rejects": lease.fence_rejects,
            "fabric_runs": len(fabric_ends),
            "fabric_wall_s": sum(r["wall_s"] for r in fabric_ends),
            "fabric_chunks": sum(r["chunks"] for r in fabric_ends),
            "alerts": self.count("alert"),
            "chaos_trials": self.count("chaos_trial"),
        }

        # Performance plane (repro.perf): sampled folded-stack captures and
        # span-attributed cost, merged across the log (worker captures ship
        # back as extra perf_profile/perf_span records and sum here).
        perf_profiles = kept["perf_profile"]
        perf_stacks: dict[str, int] = {}
        for record in perf_profiles:
            stacks = record.get("stacks")
            if not isinstance(stacks, dict):
                continue
            for stack, count in stacks.items():
                if isinstance(count, (int, float)) and count > 0:
                    perf_stacks[str(stack)] = perf_stacks.get(str(stack), 0) + int(count)
        perf_spans: dict[str, dict[str, float]] = {}
        for record in kept["perf_span"]:
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

        campaign_ends = kept["campaign_end"]
        return {
            "records": self.records,
            "manifests": self.manifests,
            "runs": {
                "count": self.count("run_end"),
                **runs,
                "slots_per_sec": (runs["slots"] / wall) if wall > 0 else 0.0,
            },
            "phases": phase_summary,
            "chunks": chunk_summary,
            "faults": self.count("fault"),
            "campaigns": {
                "count": len(campaign_ends),
                "wall_s": sum(c["wall_s"] for c in campaign_ends),
                "retries": sum(c.get("retries", 0) for c in campaign_ends),
                "timeouts": sum(c.get("timeouts", 0) for c in campaign_ends),
            },
            "fleet": fleet,
            "perf": perf,
            "last_progress": self.last_progress,
        }


def summarize(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Roll an event stream up into one machine-readable summary."""
    return LogSummary.of(records).to_dict()


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
