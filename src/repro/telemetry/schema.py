"""The telemetry event schema, and validation against it.

One JSON object per line; every record carries ``kind`` (one of
:data:`KINDS`) and ``ts`` (seconds since the epoch).  Records inside a
run scope additionally carry ``run``.  The per-kind required fields
below are the *contract* the summarizer, the tests, and the CI smoke
job validate emitted logs against; emitters may add extra fields
freely (the schema is open — only missing fields are errors).

Decay's phase markers come in two forms: a run's markers folded into
the ``phases`` rows of its ``run_end`` (:data:`PHASE_ROW_FIELDS`), and
one ``phase`` record per marker, for markers emitted with no run open
and in logs written before the fold.

Kinds no emitter writes any more are not in :data:`KINDS`: a log that
holds them (``counter``, ``gauge`` and ``span`` records, or the
``profile`` records of older perf captures) fails validation on those
lines, and the tolerant readers skip them.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = [
    "PHASE_ROW_FIELDS",
    "SCHEMA",
    "SCHEMA_VERSION",
    "KINDS",
    "is_number",
    "validate_record",
    "validate_line",
    "validate_log_lines",
]

SCHEMA = "repro-telemetry/1"
SCHEMA_VERSION = 1

#: Columns of one row of ``run_end``'s ``phases``, a list of arrays:
#: the markers of one ``(proto, index)`` in the run, as a count, the
#: min, max and sum of their slots, and the count and sum of their
#: lengths (``slot - start_slot + 1``, for markers that carry
#: ``start_slot``).  Every column but ``proto`` is a number.
PHASE_ROW_FIELDS = ("proto", "index", "count", "slot_min", "slot_max",
                    "slot_sum", "length_count", "length_sum")

#: kind -> fields that must be present (beyond ``kind`` and ``ts``).
KINDS: dict[str, frozenset[str]] = {
    # identity of the whole campaign/log
    "manifest": frozenset(
        {"schema", "version", "created", "host", "python", "package_version"}
    ),
    # engine layer
    "run_begin": frozenset({"run", "nodes", "edges", "seed"}),
    "run_end": frozenset(
        {"run", "slots", "wall_s", "transmissions", "collisions", "deliveries"}
    ),
    "slot_batch": frozenset({"run", "slot", "slots", "dur_s", "slots_per_sec"}),
    "fault": frozenset({"slot"}),
    # protocol layer
    "phase": frozenset({"proto", "node", "index", "slot"}),
    # causal slot provenance (opt-in; see repro.sim.trace)
    "prov": frozenset({"slot", "node", "outcome"}),
    # parallel-pool layer
    "campaign_begin": frozenset({"items", "chunks", "chunksize", "jobs"}),
    "campaign_end": frozenset({"wall_s", "chunks"}),
    "chunk": frozenset({"index", "size", "wall_s"}),
    "progress": frozenset({"done", "total", "elapsed_s"}),
    # chaos layer: one record per adversarial trial (arm, verdict)
    "chaos_trial": frozenset({"arm", "seed", "success"}),
    # fabric layer (repro.fabric): multi-process campaign lifecycle
    "fabric_begin": frozenset({"spec", "workers", "chunks"}),
    "fabric_end": frozenset({"chunks", "wall_s"}),
    # worker lifecycle transition (start/exit/fault) in the fabric
    "worker": frozenset({"worker", "event"}),
    # lease-store event (claim/takeover/commit/fence_reject)
    "lease": frozenset({"event", "index"}),
    # conformance monitor (repro.monitor): a theorem-bound SLO fired
    "alert": frozenset({"rule", "severity", "message"}),
    # sampling profiler (repro.perf): folded-stack capture + per-span cost
    "perf_profile": frozenset({"samples", "hz", "dur_s", "stacks"}),
    "perf_span": frozenset({"label", "samples", "secs"}),
}

#: Fields that, when present, must be numbers.
_NUMERIC = frozenset(
    {
        "ts",
        "slot",
        "slots",
        "dur_s",
        "wall_s",
        "queue_s",
        "slots_per_sec",
        "index",
        "size",
        "done",
        "total",
        "elapsed_s",
        "eta_s",
        "nodes",
        "edges",
        "transmissions",
        "collisions",
        "deliveries",
        "items",
        "chunks",
        "chunksize",
        "jobs",
        "retries",
        "timeouts",
        "last_reception_slot",
        "violations",
        "informed",
        "epsilon",
        "fence",
        "workers",
        "takeovers",
        "fence_rejects",
        "samples",
        "hz",
        "secs",
        "mem_peak_kb",
        "mem_net_kb",
        "stacks_dropped",
    }
)


def validate_record(record: Any) -> list[str]:
    """Schema errors of one decoded record (empty list = valid)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected an object"]
    errors: list[str] = []
    kind = record.get("kind")
    if kind is None:
        errors.append("missing field 'kind'")
    elif kind not in KINDS:
        errors.append(f"unknown kind {kind!r}")
    if "ts" not in record:
        errors.append("missing field 'ts'")
    if kind in KINDS:
        missing = KINDS[kind] - record.keys()
        if missing:
            errors.append(f"{kind}: missing field(s) {sorted(missing)}")
    for field in _NUMERIC & record.keys():
        value = record[field]
        if not is_number(value):
            errors.append(f"field {field!r} must be a number, got {value!r}")
    if "phases" in record and kind == "run_end":
        errors.extend(_phase_row_errors(record["phases"]))
    return errors


def is_number(value: Any) -> bool:
    """Whether ``value`` is an int or float (a bool is not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _phase_row_errors(rows: Any) -> list[str]:
    if not isinstance(rows, list):
        return [f"field 'phases' must be a list, got {rows!r}"]
    return [
        f"phases[{number}] must be [{', '.join(PHASE_ROW_FIELDS)}] with numbers "
        f"after proto, got {row!r}"
        for number, row in enumerate(rows)
        if not (isinstance(row, list) and len(row) == len(PHASE_ROW_FIELDS)
                and all(map(is_number, row[1:])))
    ]


def validate_line(line: str) -> list[str]:
    """Schema errors of one raw JSON line."""
    stripped = line.strip()
    if not stripped:
        return []
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    return validate_record(record)


def validate_log_lines(lines: Iterable[str]) -> list[str]:
    """Validate a whole event log; errors are prefixed with line numbers."""
    errors: list[str] = []
    for number, line in enumerate(lines, start=1):
        for error in validate_line(line):
            errors.append(f"line {number}: {error}")
    return errors
