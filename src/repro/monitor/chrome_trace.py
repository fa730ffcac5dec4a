"""Export a telemetry log as Chrome trace events (Perfetto-loadable).

The output follows the Trace Event Format's *JSON object* flavour —
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — which both
``chrome://tracing`` and https://ui.perfetto.dev open directly:

* ``run_begin``/``run_end`` pairs and ``chunk`` records become
  complete slices (``ph: "X"`` with microsecond ``ts``/``dur``); a
  run's slice carries its folded Decay phase markers (``run_end``'s
  ``phases`` rows) in ``args``,
* ``phase``, ``fault``, ``chaos_trial``, ``alert``, ``lease`` and
  ``worker`` records become instants (``ph: "i"``) with their payload
  in ``args`` — so fence rejections, takeovers, and worker kills are
  visible instants on the lane of the worker they happened to (a
  ``phase`` record is a marker written outside a run, or one from a
  log written before markers were folded per run),
* ``progress`` records (campaign items done) and ``slot_batch``
  records (the engine's ``slots_per_sec``) become counter tracks
  (``ph: "C"``),
* chunk-tagged worker records are placed on their own thread lane, so
  a parallel campaign renders as one swimlane per chunk under a single
  process, with ``M`` metadata events naming the lanes,
* records stamped with a fabric ``worker`` id land in a **per-worker
  process lane** (their own ``pid``), so a fabric campaign merged from
  its lease store's events and N per-worker telemetry logs (see
  :func:`repro.monitor.live.fleet_records`) renders as one process per
  worker plus the coordinating process.

Timestamps are rebased so that traces start at t=0 with the earliest
event, a slice that began before the first record included; all values
are microseconds, as the format requires.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.telemetry.schema import PHASE_ROW_FIELDS
from repro.telemetry.summary import number

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
]

_PID = 1  # the coordinating process; fabric workers get pids 2, 3, ...
_MAIN_TID = 0

_INSTANT_KINDS = {"phase", "fault", "chaos_trial", "alert", "campaign_begin",
                  "campaign_end", "manifest", "lease", "worker",
                  "fabric_begin", "fabric_end"}
#: Counter kinds -> (track name, field read as the track's value).
_COUNTER_KINDS = {"progress": ("progress", "done"),
                  "slot_batch": ("slots_per_sec", "slots_per_sec")}


def _ts_of(record: dict[str, Any]) -> float | None:
    ts = number(record, "ts")
    return None if ts is None else float(ts)


def _tid_of(record: dict[str, Any]) -> int:
    chunk = record.get("chunk")
    if isinstance(chunk, int) and not isinstance(chunk, bool) and chunk >= 0:
        return chunk + 1  # lane 0 is the coordinating process
    return _MAIN_TID


def _micros(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def _args_of(record: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value
        for key, value in record.items()
        if key not in ("kind", "ts") and isinstance(value, (str, int, float, bool))
    }


def chrome_trace_events(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Translate telemetry records into Trace Event Format events."""
    timestamps = [ts for r in records if (ts := _ts_of(r)) is not None]
    base = min(timestamps) if timestamps else 0.0
    events: list[dict[str, Any]] = []
    lanes: set[tuple[int, int]] = set()
    # Fabric worker id -> process lane, allocated in order of first
    # appearance (deterministic for a ts-sorted merged stream).
    worker_pids: dict[str, int] = {}
    # run_begin records indexed so run_end can close the slice; keyed the
    # same way the telemetry summary keys run_begin records: (chunk, run).
    open_runs: dict[tuple[Any, Any], dict[str, Any]] = {}

    def rel(ts: float) -> int:
        return _micros(ts - base)

    def pid_of(record: dict[str, Any]) -> int:
        worker = record.get("worker")
        if not isinstance(worker, str) or not worker:
            return _PID
        pid = worker_pids.get(worker)
        if pid is None:
            pid = _PID + 1 + len(worker_pids)
            worker_pids[worker] = pid
        return pid

    for record in records:
        ts = _ts_of(record)
        if ts is None:
            continue
        kind = record.get("kind")
        pid = pid_of(record)
        tid = _tid_of(record)
        lanes.add((pid, tid))
        if kind == "run_begin":
            open_runs[(record.get("chunk"), record.get("run"))] = record
        elif kind == "run_end":
            begin = open_runs.pop((record.get("chunk"), record.get("run")), None)
            begin_ts = _ts_of(begin) if begin is not None else None
            wall = number(record, "wall_s")
            if begin_ts is None and wall is not None:
                begin_ts = ts - wall
            if begin_ts is None:
                begin_ts = ts
            args = _args_of(record)
            if isinstance(record.get("phases"), list):
                args["phases"] = [
                    dict(zip(PHASE_ROW_FIELDS, row)) for row in record["phases"]
                    if isinstance(row, list)
                ]
            if begin is not None:
                args.update({
                    k: v for k, v in _args_of(begin).items() if k not in args
                })
            events.append({
                "name": f"run {record.get('run', '?')}",
                "cat": "run",
                "ph": "X",
                "ts": rel(begin_ts),
                "dur": max(1, rel(ts) - rel(begin_ts)),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        elif kind == "chunk":
            wall = number(record, "wall_s")
            if wall is None:
                continue
            # Chunk reports are shipped when the chunk finishes.
            events.append({
                "name": f"chunk {record.get('index', record.get('chunk', '?'))}",
                "cat": "chunk",
                "ph": "X",
                "ts": rel(ts - wall),
                "dur": max(1, _micros(wall)),
                "pid": pid,
                "tid": tid,
                "args": _args_of(record),
            })
        elif kind in _COUNTER_KINDS:
            name, field = _COUNTER_KINDS[kind]
            value = number(record, field)
            if value is None:
                continue
            events.append({
                "name": name,
                "cat": kind,
                "ph": "C",
                "ts": rel(ts),
                "pid": pid,
                "tid": tid,
                "args": {name: value},
            })
        elif kind in _INSTANT_KINDS:
            name = str(kind)
            if kind == "phase":
                name = f"{record.get('proto', 'phase')}[{record.get('index', '?')}]"
            elif kind == "alert":
                name = f"alert:{record.get('rule', '?')}"
            elif kind == "chaos_trial":
                name = f"chaos:{record.get('arm', '?')}"
            elif kind == "lease":
                name = f"lease:{record.get('event', '?')}"
            elif kind == "worker":
                name = f"worker:{record.get('event', '?')}"
            events.append({
                "name": name,
                "cat": str(kind),
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": rel(ts),
                "pid": pid,
                "tid": tid,
                "args": _args_of(record),
            })
    # Close any runs the log never finished (killed campaign): render the
    # begin as an instant so the work is still visible in the trace.
    for begin in open_runs.values():
        begin_ts = _ts_of(begin)
        if begin_ts is None:
            continue
        events.append({
            "name": f"run {begin.get('run', '?')} (unfinished)",
            "cat": "run",
            "ph": "i",
            "s": "t",
            "ts": rel(begin_ts),
            "pid": pid_of(begin),
            "tid": _tid_of(begin),
            "args": _args_of(begin),
        })

    # Slices start before the record that reports them (a chunk's record
    # is emitted when it ends), so the trace starts at the earliest
    # slice start, not at the earliest record.
    earliest = min((event["ts"] for event in events), default=0)
    if earliest < 0:
        for event in events:
            event["ts"] -= earliest

    metadata: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": _PID,
        "tid": _MAIN_TID,
        "args": {"name": "repro campaign"},
    }]
    for worker, pid in sorted(worker_pids.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": _MAIN_TID,
            "args": {"name": f"worker {worker}"},
        })
    for pid, tid in sorted(lanes):
        label = "main" if tid == _MAIN_TID else f"chunk {tid - 1}"
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        })
    return metadata + events


def chrome_trace(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The full JSON-object-format trace for a record stream."""
    return {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    records: list[dict[str, Any]], path: str | os.PathLike[str]
) -> dict[str, Any]:
    """Write ``trace.json`` for ``records``; returns the trace object."""
    trace = chrome_trace(records)
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return trace


def validate_chrome_trace(trace: Any) -> list[str]:
    """Structural checks a Trace-Event consumer relies on (CI gate)."""
    errors: list[str] = []
    if not isinstance(trace, dict):
        return ["trace must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "C", "M", "B", "E"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an int")
        if ph != "M":
            ts = event.get("ts")
            if isinstance(ts, bool) or not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if isinstance(dur, bool) or not isinstance(dur, (int, float)) or dur <= 0:
                errors.append(f"{where}: complete event needs positive dur")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors
