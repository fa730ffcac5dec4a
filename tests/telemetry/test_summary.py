"""Tests for the event-log summarizer behind ``python -m repro telemetry``."""

import json

import pytest

from repro.errors import ExperimentError
from repro.fabric.store import LeaseReplay
from repro.telemetry.summary import (
    read_records,
    render_summary,
    summarize,
    summary_json,
    summary_tables,
    validate_log,
)


def _write_log(path, records, *, torn_tail=False):
    with path.open("w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record) + "\n")
        if torn_tail:
            stream.write('{"kind": "progress", "ts"')


SAMPLE = [
    {"kind": "manifest", "schema": "repro-telemetry/1", "version": 1, "created": 1.0,
     "host": "h", "python": "3", "package_version": "1.0.0", "ts": 1.0,
     "command": "gap", "seed": 5, "config_fingerprint": "abcd"},
    {"kind": "run_begin", "ts": 1.0, "run": "r1", "nodes": 4, "edges": 3, "seed": 5},
    {"kind": "phase", "ts": 1.0, "run": "r1", "proto": "decay-broadcast",
     "node": 0, "index": 0, "slot": 7, "start_slot": 0},
    {"kind": "phase", "ts": 1.0, "run": "r1", "proto": "decay-broadcast",
     "node": 1, "index": 0, "slot": 9, "start_slot": 2},
    {"kind": "phase", "ts": 1.0, "run": "r1", "proto": "bfs-layer",
     "node": 1, "index": 1, "slot": 9},
    {"kind": "run_end", "ts": 1.0, "run": "r1", "slots": 10, "wall_s": 0.5,
     "transmissions": 6, "collisions": 2, "deliveries": 3},
    {"kind": "run_end", "ts": 1.0, "run": "r2", "slots": 30, "wall_s": 0.5,
     "transmissions": 4, "collisions": 1, "deliveries": 2},
    {"kind": "chunk", "ts": 1.0, "index": 0, "size": 5, "wall_s": 0.2,
     "queue_s": 0.1, "pid": 11, "retries": 1, "timeouts": 0},
    {"kind": "chunk", "ts": 1.0, "index": 1, "size": 5, "wall_s": 0.4,
     "queue_s": 0.3, "pid": 12, "retries": 0, "timeouts": 2},
    {"kind": "fault", "ts": 1.0, "slot": 3, "edges_cut": 2},
    {"kind": "campaign_end", "ts": 1.0, "wall_s": 1.5, "chunks": 2,
     "retries": 1, "timeouts": 2},
    {"kind": "progress", "ts": 1.0, "done": 2, "total": 2, "elapsed_s": 1.5},
]


class TestReadRecords:
    def test_reads_all_valid_records(self, tmp_path):
        log = tmp_path / "log.jsonl"
        _write_log(log, SAMPLE)
        assert len(read_records(log)) == len(SAMPLE)

    def test_torn_tail_skipped_by_default(self, tmp_path):
        log = tmp_path / "log.jsonl"
        _write_log(log, SAMPLE, torn_tail=True)
        assert len(read_records(log)) == len(SAMPLE)

    def test_strict_treats_torn_tail_as_incomplete(self, tmp_path):
        # A final line with no newline is a record the writer is still
        # mid-flush on (every writer emits "<json>\n"): strict mode
        # skips it as incomplete rather than erroring, so a live log
        # can be read while the campaign is running.
        log = tmp_path / "log.jsonl"
        _write_log(log, SAMPLE, torn_tail=True)
        assert len(read_records(log, strict=True)) == len(SAMPLE)

    def test_strict_still_raises_on_interior_corruption(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('not json\n{"kind": "progress", "ts": 1.0, "done": 1, '
                       '"total": 1, "elapsed_s": 0.1}\n', encoding="utf-8")
        with pytest.raises(ExperimentError):
            read_records(log, strict=True)

    def test_legacy_metric_kinds_are_skipped_and_flagged(self, tmp_path):
        # Older logs hold counter/gauge/span records; no emitter writes
        # them now.
        log = tmp_path / "log.jsonl"
        legacy = [
            {"kind": "gauge", "ts": 1.0, "name": "slots_per_sec", "value": 50.0},
            {"kind": "counter", "ts": 1.0, "name": "ticks", "value": 2},
            {"kind": "span", "ts": 1.0, "name": "setup", "dur_s": 0.25},
        ]
        _write_log(log, SAMPLE + legacy)
        assert read_records(log) == SAMPLE
        errors = validate_log(log)
        assert [error.split(": ", 1)[1] for error in errors] == [
            "unknown kind 'gauge'", "unknown kind 'counter'", "unknown kind 'span'"]
        summary = summarize(read_records(log))
        assert not {"counters", "gauges", "spans"} & summary.keys()

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            read_records(tmp_path / "nope.jsonl")
        with pytest.raises(ExperimentError):
            validate_log(tmp_path / "nope.jsonl")

    def test_validate_log_flags_bad_lines(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"kind": "mystery", "ts": 1.0}\n')
        errors = validate_log(log)
        assert errors and "line 1" in errors[0]


class TestSummarize:
    def test_runs_merge_via_runmetrics(self):
        summary = summarize(SAMPLE)
        runs = summary["runs"]
        assert runs["count"] == 2
        assert runs["slots"] == 40
        assert runs["transmissions"] == 10
        assert runs["collisions"] == 3
        assert runs["slots_per_sec"] == pytest.approx(40.0)

    def test_phases_grouped_by_proto_and_index(self):
        summary = summarize(SAMPLE)
        rows = summary["phases"]["decay-broadcast"]
        assert rows[0]["index"] == 0
        assert rows[0]["count"] == 2
        assert rows[0]["slot_min"] == 7
        assert rows[0]["slot_max"] == 9
        assert rows[0]["mean_length"] == pytest.approx(8.0)
        assert summary["phases"]["bfs-layer"][0]["count"] == 1

    def test_folded_rows_merge_with_marker_records(self):
        # The same markers as SAMPLE's, folded into run_end rows, plus
        # one more run's row: both forms land in one accumulator.
        rows = [["decay-broadcast", 0, 2, 7, 9, 16, 2, 16], ["bfs-layer", 1, 1, 9, 9, 9, 0, 0]]
        folded = [{**r, "phases": rows} if r["kind"] == "run_end" and r["run"] == "r1"
                  else r for r in SAMPLE if r["kind"] != "phase"]
        assert summarize(folded)["phases"] == summarize(SAMPLE)["phases"]
        # Rows of another run merge in; malformed and empty rows are skipped.
        extra = {"kind": "run_end", "ts": 1.0, "run": "r3", "slots": 1, "wall_s": 0.0,
                 "transmissions": 0, "collisions": 0, "deliveries": 0, "phases": [
                     ["decay-broadcast", 0, 2, 3, 13, 16, 1, 4],
                     ["decay-broadcast", 1, 0, 3, 3, 0, 0, 0],
                     ["decay-broadcast", 2, "2", 3, 3, 6, 0, 0],
                     ["decay-broadcast", 3, 1, 3],
                 ]}
        rows = summarize(SAMPLE + [extra])["phases"]["decay-broadcast"]
        assert rows == [{"index": 0, "count": 4, "slot_min": 3, "slot_mean": 8.0,
                         "slot_max": 13, "mean_length": 20 / 3}]

    def test_chunks_aggregated(self):
        summary = summarize(SAMPLE)
        chunks = summary["chunks"]
        assert chunks["count"] == 2
        assert chunks["items"] == 10
        assert chunks["workers"] == 2
        assert chunks["retries"] == 1
        assert chunks["timeouts"] == 2
        assert chunks["queue_s"]["max"] == pytest.approx(0.3)

    def test_metrics_and_campaigns(self):
        summary = summarize(SAMPLE)
        assert summary["campaigns"]["count"] == 1
        assert summary["campaigns"]["timeouts"] == 2
        assert summary["last_progress"]["done"] == 2
        assert summary["faults"] == 1

    def test_empty_stream(self):
        summary = summarize([])
        assert summary["records"] == 0
        assert summary["runs"]["count"] == 0
        assert summary["last_progress"] is None


class TestRendering:
    def test_render_contains_all_sections(self):
        text = render_summary(summarize(SAMPLE))
        assert "Telemetry log overview" in text
        assert "Run manifest(s)" in text
        assert "Engine runs (merged RunMetrics)" in text
        assert "decay-broadcast" in text
        assert "Parallel chunks" in text

    def test_render_empty_log(self):
        assert "Telemetry log overview" in render_summary(summarize([]))

    def test_summary_json_round_trips(self):
        payload = json.loads(summary_json(summarize(SAMPLE)))
        assert payload["runs"]["slots"] == 40


FLEET_SAMPLE = [
    {"kind": "fabric_begin", "ts": 0.0, "spec": "slow-squares", "workers": 2,
     "chunks": 2},
    {"kind": "worker", "ts": 0.1, "event": "worker_start", "worker": "w0"},
    {"kind": "lease", "ts": 0.2, "event": "claim", "worker": "w0",
     "index": 0, "fence": 1},
    {"kind": "lease", "ts": 0.3, "event": "claim", "worker": "w1",
     "index": 1, "fence": 1},
    {"kind": "lease", "ts": 0.4, "event": "takeover", "worker": "w0",
     "index": 1, "fence": 2},
    {"kind": "lease", "ts": 0.5, "event": "fence_reject", "worker": "w1",
     "index": 1, "fence": 1},
    {"kind": "lease", "ts": 0.6, "event": "commit", "worker": "w0",
     "index": 0, "fence": 1},
    {"kind": "lease", "ts": 0.7, "event": "commit", "worker": "w0",
     "index": 1, "fence": 2},
    {"kind": "alert", "ts": 0.8, "source": "monitor", "seq": 1,
     "rule": "slot-bound", "severity": "error", "message": "late"},
    {"kind": "metrics", "ts": 0.9, "snapshot": {
        "commit_total": {"kind": "counter", "series": [
            {"labels": {"worker": "w0"}, "value": 2.0}]}}},
    {"kind": "fabric_end", "ts": 1.0, "chunks": 2, "wall_s": 1.0},
]


class TestFleetRollup:
    def test_summarize_counts_fleet_kinds(self):
        fleet = summarize(FLEET_SAMPLE)["fleet"]
        assert fleet["lease_events"] == {
            "claim": 2, "commit": 2, "fence_reject": 1, "takeover": 1,
        }
        assert fleet["workers"] == ["w0", "w1"]
        assert fleet["claims"] == 3  # two claims and a takeover
        assert fleet["takeovers"] == 1
        assert fleet["fence_rejects"] == 1
        assert fleet["fabric_runs"] == 1
        assert fleet["fabric_chunks"] == 2
        assert fleet["alerts"] == 1
        # A registry snapshot from an older log is ignored.
        assert "metrics_totals" not in fleet

    def test_logs_without_fleet_records_stay_silent(self):
        fleet = summarize(SAMPLE)["fleet"]
        assert fleet["lease_events"] == {}
        assert fleet["fabric_runs"] == 0
        text = render_summary(summarize(SAMPLE))
        assert "Fleet" not in text

    def test_render_contains_fleet_tables(self):
        text = render_summary(summarize(FLEET_SAMPLE))
        assert "Fleet (fabric lease audit)" in text
        assert "Fleet metrics" not in text
        assert "fence_rejects" in text

    def test_fleet_claims_count_takeovers_like_the_worker_ledgers(self):
        fleet = summarize(FLEET_SAMPLE)["fleet"]
        ledgers = LeaseReplay()
        for record in FLEET_SAMPLE:
            ledgers.feed(record)
        assert fleet["claims"] == sum(w.claims for w in ledgers.workers.values()) == 3
        [table] = [t for t in summary_tables(summarize(FLEET_SAMPLE))
                   if t.title.startswith("Fleet")]
        assert table.rows[0][table.columns.index("claims")] == 3
