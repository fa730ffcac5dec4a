"""Chrome trace-event export: structure, lanes, and the CI validator."""

import json

from repro.graphs import generators
from repro.monitor.chrome_trace import (
    chrome_trace,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.protocols import run_decay_broadcast
from repro.telemetry import Telemetry, activate


def real_records():
    recorder = Telemetry.buffered(slot_batch=4)
    recorder.write_manifest(command="experiment", seed=0, config={"n": 8})
    with recorder, activate(recorder):
        run_decay_broadcast(generators.line(8), 0, seed=1, epsilon=0.1)
        recorder.emit("progress", done=1, total=1, elapsed_s=0.0)
    return recorder.drain()


class TestExport:
    def test_real_log_round_trips_and_validates(self, tmp_path):
        trace = write_chrome_trace(real_records(), tmp_path / "trace.json")
        assert validate_chrome_trace(trace) == []
        reloaded = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
        assert reloaded["displayTimeUnit"] == "ms"
        assert reloaded["traceEvents"] == trace["traceEvents"]

    def test_contains_run_slice_with_phase_fold_and_counters(self):
        records = real_records()
        events = chrome_trace_events(records)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        runs = [e for e in events if e.get("cat") == "run"]
        assert len(runs) == 1 and runs[0]["ph"] == "X" and runs[0]["dur"] >= 1
        # Decay's phase markers are folded into the run, not instants.
        assert not any(e.get("cat") == "phase" for e in events)
        rows = runs[0]["args"]["phases"]
        assert rows and {row["proto"] for row in rows} == {"decay-broadcast"}
        assert sum(row["count"] for row in rows) >= 8  # every node's phase 0 at least
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"progress", "slots_per_sec"}
        # The engine's rate track is drawn from its slot_batch records.
        batches = [r for r in records if r["kind"] == "slot_batch"]
        rates = [e for e in counters if e["name"] == "slots_per_sec"]
        assert len(rates) == len(batches) > 0
        assert all(e["cat"] == "slot_batch" for e in rates)

    def test_timestamps_rebased_to_zero(self):
        events = [e for e in chrome_trace_events(real_records()) if "ts" in e]
        assert min(e["ts"] for e in events) == 0

    def test_slice_that_began_before_the_first_record_starts_the_trace(self):
        # A chunk's record is emitted when the chunk ends: rebasing on the
        # earliest record used to give this 2-second chunk ts -2000000.
        records = [
            {"kind": "chunk", "ts": 100.0, "index": 0, "size": 1, "wall_s": 2.0},
            {"kind": "phase", "ts": 100.5, "proto": "decay", "index": 0},
        ]
        trace = chrome_trace(records)
        assert validate_chrome_trace(trace) == []
        events = {e["cat"]: e for e in trace["traceEvents"] if e["ph"] != "M"}
        assert events["chunk"]["ts"] == 0 and events["chunk"]["dur"] == 2_000_000
        assert events["phase"]["ts"] == 2_500_000

    def test_chunk_records_get_their_own_lane(self):
        records = [
            {"kind": "run_begin", "ts": 10.0, "run": "r1", "chunk": 2},
            {"kind": "run_end", "ts": 10.5, "run": "r1", "chunk": 2,
             "wall_s": 0.5},
            {"kind": "chunk", "ts": 10.6, "index": 2, "chunk": 2,
             "size": 4, "wall_s": 0.6, "pid": 123},
        ]
        events = chrome_trace_events(records)
        lanes = {e["tid"] for e in events if e["ph"] != "M"}
        assert lanes == {3}  # chunk 2 -> tid 3
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "chunk 2" in names

    def test_unfinished_run_rendered_as_instant(self):
        records = [{"kind": "run_begin", "ts": 1.0, "run": "r1", "nodes": 8}]
        events = chrome_trace_events(records)
        unfinished = [e for e in events if "unfinished" in e.get("name", "")]
        assert len(unfinished) == 1 and unfinished[0]["ph"] == "i"

    def test_alert_records_become_instants(self):
        records = [
            {"kind": "alert", "ts": 2.0, "rule": "theorem1-decay",
             "severity": "critical", "message": "boom"},
        ]
        [alert] = [e for e in chrome_trace_events(records) if e["ph"] == "i"]
        assert alert["name"] == "alert:theorem1-decay"
        assert alert["args"]["severity"] == "critical"


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["trace must be a JSON object"]

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]

    def test_rejects_bad_event_shapes(self):
        trace = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0},
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": -5, "dur": 0},
            {"ph": "i", "pid": 1, "tid": 0, "ts": 1},
        ]}
        errors = validate_chrome_trace(trace)
        assert any("unsupported ph" in e for e in errors)
        assert any("non-negative" in e for e in errors)
        assert any("positive dur" in e for e in errors)
        assert any("missing name" in e for e in errors)

    def test_accepts_generated_trace(self):
        assert validate_chrome_trace(chrome_trace(real_records())) == []
