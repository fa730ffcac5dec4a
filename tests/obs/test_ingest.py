"""Ingestion: telemetry logs, manifest sidecars, bench files."""

import json

import pytest

from repro.errors import ExperimentError
from repro.obs import RunStore, fingerprint_of, ingest_bench_file, ingest_log, ingest_path


def _write_log(path, records):
    with path.open("w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record) + "\n")
    return path


def _log_records(*, with_prov=False, slots=100, wall=0.5):
    records = [
        {"kind": "manifest", "ts": 1.0, "schema": "repro-telemetry/1",
         "version": 1, "python": "3.11", "command": "gap", "seed": 7,
         "created": 50.0, "git_sha": "cafe", "host": "box",
         "package_version": "0.1", "config_fingerprint": "deadbeef",
         "config": {"n": 4}},
        {"kind": "run_begin", "ts": 1.1, "run": "r1", "nodes": 4,
         "edges": 3, "seed": 7},
        {"kind": "phase", "ts": 1.2, "proto": "decay", "node": 0, "index": 0,
         "slot": 9, "start_slot": 0},
        {"kind": "run_end", "ts": 1.5, "run": "r1", "slots": slots,
         "transmissions": 40, "collisions": 8, "deliveries": 3,
         "wall_s": wall},
    ]
    if with_prov:
        records.insert(3, {"kind": "prov", "ts": 1.3, "run": "r1", "slot": 2,
                           "node": 1, "outcome": "collision", "tx": [0, 2]})
    return records


class TestLogIngest:
    def test_aggregates_and_series(self, tmp_path):
        log = _write_log(tmp_path / "run.jsonl", _log_records(with_prov=True))
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            assert result.kind == "log"
            assert not result.replaced
            assert result.provenance_rows == 1
            metrics = store.metrics_for(result.run_id)
            assert metrics["slots"] == 100
            assert metrics["collisions"] == 8
            assert metrics["nodes_total"] == 4
            assert metrics["collisions_per_node"] == pytest.approx(2.0)
            assert metrics["slots_per_sec"] == pytest.approx(200.0)
            phases = store.phases_for(result.run_id)
            assert phases[0]["proto"] == "decay"

    def test_reingest_is_idempotent(self, tmp_path):
        log = _write_log(tmp_path / "run.jsonl", _log_records())
        with RunStore(tmp_path / "runs.db") as store:
            first = ingest_log(store, log)
            second = ingest_log(store, log)
            assert second.replaced
            assert second.run_id == first.run_id
            assert len(store.runs()) == 1

    def test_sidecar_manifest_preferred(self, tmp_path):
        records = _log_records()[1:]  # no inline manifest
        log = _write_log(tmp_path / "run.jsonl", records)
        sidecar = tmp_path / "run.jsonl.manifest.json"
        sidecar.write_text(json.dumps(
            {"command": "sidecar-cmd", "seed": 9, "created": 60.0}
        ), encoding="utf-8")
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            run = store.resolve_run(result.run_id)
            assert run["command"] == "sidecar-cmd"
            assert run["seed"] == 9

    def test_provenance_engine_run_tag_kept(self, tmp_path):
        log = _write_log(tmp_path / "run.jsonl", _log_records(with_prov=True))
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            entries = store.provenance_at(result.run_id, "1", 2)
            assert entries[0]["engine_run"] == "r1"
            assert json.loads(entries[0]["tx"]) == ["0", "2"]

    def test_fingerprint_stable_without_manifest(self, tmp_path):
        log = _write_log(tmp_path / "run.jsonl", _log_records()[1:])
        assert fingerprint_of(None, log) == fingerprint_of(None, log)


class TestBenchIngest:
    def _payload(self, value, recorded=1.0):
        return {"schema": "repro-bench-engine/1", "recorded": recorded,
                "git_sha": "abc", "scale": "quick",
                "combined_slots_per_sec": value,
                "topologies": {"grid-16x16": {"slots_per_sec": value}}}

    def test_single_object(self, tmp_path):
        bench = tmp_path / "BENCH_engine.json"
        bench.write_text(json.dumps(self._payload(100.0)), encoding="utf-8")
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_bench_file(store, bench)
            assert result.kind == "bench"
            assert result.bench_points == 1
            # idempotent
            assert ingest_bench_file(store, bench).bench_points == 0

    def test_history_jsonl(self, tmp_path):
        history = tmp_path / "bench_history.jsonl"
        with history.open("w", encoding="utf-8") as stream:
            for i in range(3):
                stream.write(json.dumps(self._payload(100.0 + i, recorded=float(i))) + "\n")
        with RunStore(tmp_path / "runs.db") as store:
            assert ingest_bench_file(store, history).bench_points == 3
            assert len(store.bench_points()) == 3

    def test_not_a_bench_file(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"schema": "other/1"}', encoding="utf-8")
        with RunStore(tmp_path / "runs.db") as store:
            with pytest.raises(ExperimentError, match="not a bench record"):
                ingest_bench_file(store, bogus)


class TestAutoDetect:
    def test_ingest_path_detects_bench_vs_log(self, tmp_path):
        bench = tmp_path / "BENCH_engine.json"
        bench.write_text(json.dumps(
            {"schema": "repro-bench-engine/1", "combined_slots_per_sec": 5.0}
        ), encoding="utf-8")
        log = _write_log(tmp_path / "run.jsonl", _log_records())
        with RunStore(tmp_path / "runs.db") as store:
            assert ingest_path(store, bench).kind == "bench"
            assert ingest_path(store, log).kind == "log"

    def test_missing_file(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            with pytest.raises(ExperimentError, match="no such file"):
                ingest_path(store, tmp_path / "absent.jsonl")


class TestFleetIngest:
    """Satellite: PR 5/7 record kinds land as per-run fabric aggregates."""

    def _fleet_records(self):
        return [
            {"kind": "fabric_begin", "ts": 0.0, "spec": "slow-squares",
             "workers": 2, "chunks": 2},
            {"kind": "lease", "ts": 0.2, "event": "claim", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "lease", "ts": 0.3, "event": "takeover", "worker": "w0",
             "index": 1, "fence": 2},
            {"kind": "lease", "ts": 0.4, "event": "fence_reject",
             "worker": "w1", "index": 1, "fence": 1},
            {"kind": "lease", "ts": 0.5, "event": "commit", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "alert", "ts": 0.6, "source": "monitor", "seq": 1,
             "rule": "slot-bound", "severity": "error", "message": "late"},
            {"kind": "chaos_trial", "ts": 0.7, "arm": "jam", "seed": 3,
             "success": True},
            {"kind": "metrics", "ts": 0.8, "snapshot": {
                "commit_total": {"kind": "counter", "series": [
                    {"labels": {"worker": "w0"}, "value": 1.0}]},
                "heartbeat_lag_seconds": {"kind": "histogram", "series": [
                    {"labels": {"worker": "w0"}, "count": 3, "sum": 0.01,
                     "buckets": [[0.1, 3], ["+Inf", 3]]}]}}},
            {"kind": "fabric_end", "ts": 1.0, "chunks": 2, "wall_s": 1.0},
        ]

    def test_fabric_aggregates_land_as_metrics(self, tmp_path):
        log = _write_log(tmp_path / "fleet.jsonl", self._fleet_records())
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            metrics = store.metrics_for(result.run_id)
        assert metrics["fabric.runs"] == 1.0
        assert metrics["fabric.chunks"] == 2.0
        assert metrics["fabric.workers"] == 2.0
        assert metrics["fabric.takeovers"] == 1.0
        assert metrics["fabric.fence_rejects"] == 1.0
        assert metrics["fabric.lease.claim"] == 1.0
        assert metrics["fabric.lease.commit"] == 1.0
        assert metrics["alerts"] == 1.0
        assert metrics["chaos_trials"] == 1.0
        # A registry snapshot from an older log lands nothing.
        assert not any(name.startswith("fleet.") for name in metrics)

    def test_plain_logs_grow_no_fabric_metrics(self, tmp_path):
        log = _write_log(tmp_path / "plain.jsonl", _log_records())
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            metrics = store.metrics_for(result.run_id)
        assert not any(name.startswith(("fabric.", "fleet."))
                       for name in metrics)


class TestPerfIngest:
    def _perf_records(self):
        return _log_records() + [
            {"kind": "perf_profile", "ts": 1.6, "samples": 40, "hz": 97,
             "dur_s": 0.5, "stacks": {"engine.run;engine.py:run": 30,
                                      "main": 10},
             "stacks_dropped": 0},
            {"kind": "perf_span", "ts": 1.6, "label": "engine.run",
             "count": 2, "secs": 0.31, "samples": 30,
             "mem_peak_kb": 128.5, "mem_net_kb": 1.25},
            {"kind": "perf_span", "ts": 1.6, "label": "resolve.kernel",
             "count": 8, "secs": 0.11, "samples": 9,
             "mem_peak_kb": 0.0, "mem_net_kb": 0.0},
            {"kind": "profile", "ts": 1.7, "sort": "cumulative", "top": [
                {"func": "/deep/path/engine.py:100(run)", "calls": 2,
                 "tottime_s": 0.2, "cumtime_s": 0.4},
                {"func": "resolve.py:10(_resolve)", "calls": 200,
                 "tottime_s": 0.15, "cumtime_s": 0.15},
            ]},
        ]

    def test_perf_metrics_derived(self, tmp_path):
        log = _write_log(tmp_path / "run.jsonl", self._perf_records())
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            metrics = store.metrics_for(result.run_id)
        assert metrics["perf.samples"] == 40
        assert metrics["perf.sample_wall_s"] == pytest.approx(0.5)
        assert metrics["perf.span.engine.run.secs"] == pytest.approx(0.31)
        assert metrics["perf.span.engine.run.samples"] == 30
        assert metrics["perf.span.engine.run.mem_peak_kb"] == pytest.approx(128.5)
        # A zero memory peak stays out of the metric namespace.
        assert "perf.span.resolve.kernel.mem_peak_kb" not in metrics
        assert metrics["perf.span.resolve.kernel.secs"] == pytest.approx(0.11)

    def test_legacy_profile_records_are_skipped(self, tmp_path):
        # Older logs may carry cProfile ``profile`` records; the kind is
        # no longer in the schema, so the tolerant reader skips them and
        # the rest of the log ingests as usual.
        log = _write_log(tmp_path / "run.jsonl", self._perf_records())
        with RunStore(tmp_path / "runs.db") as store:
            result = ingest_log(store, log)
            metrics = store.metrics_for(result.run_id)
        assert not any(name.startswith("perf.hotspot") for name in metrics)
        assert metrics["perf.samples"] == 40

    def test_perf_overview_query(self, tmp_path):
        from repro.obs import perf_overview

        log = _write_log(tmp_path / "run.jsonl", self._perf_records())
        with RunStore(tmp_path / "runs.db") as store:
            ingest_log(store, log)
            overview = perf_overview(store)
        assert overview["samples"] == 40
        assert overview["spans"][0]["label"] == "engine.run"  # heaviest first

    def test_perf_overview_raises_without_perf(self, tmp_path):
        from repro.obs import perf_overview

        log = _write_log(tmp_path / "run.jsonl", _log_records())
        with RunStore(tmp_path / "runs.db") as store:
            ingest_log(store, log)
            with pytest.raises(ExperimentError, match="no perf metrics"):
                perf_overview(store)
