"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_broadcast_defaults(self):
        args = build_parser().parse_args(["broadcast"])
        assert args.topology == "gnp"
        assert args.n == 64
        assert args.seed == 0


class TestBroadcastCommand:
    def test_runs_and_reports(self, capsys):
        code = main(["broadcast", "--topology", "grid", "-n", "16", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "broadcast complete at slot" in out

    def test_timeline_rendering(self, capsys):
        code = main(
            ["broadcast", "--topology", "line", "-n", "6", "--timeline", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "|" in out and "T" in out

    def test_cn_topology(self, capsys):
        code = main(["broadcast", "--topology", "cn", "-n", "16", "--seed", "2"])
        assert code == 0


class TestBfsCommand:
    def test_prints_distances(self, capsys):
        code = main(["bfs", "--topology", "line", "-n", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "node 4: distance 4" in out


class TestGapCommand:
    def test_prints_table_and_fits(self, capsys):
        code = main(["gap", "--quick", "--reps", "4", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Corollary 13" in out
        assert "round_robin_vs_n" in out


class TestExperimentCommand:
    def test_e1(self, capsys):
        code = main(["experiment", "e1", "--quick", "--reps", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1" in out

    def test_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_e10(self, capsys):
        code = main(["experiment", "e10", "--quick", "--reps", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 slots" in out or "C_n" in out


class TestChaosCommand:
    def test_quick_campaign_passes(self, capsys):
        code = main(["chaos", "--quick", "--seed", "99"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Chaos campaign" in out
        assert "campaign PASSED" in out

    def test_json_output(self, capsys):
        import json

        code = main(["chaos", "--quick", "--seed", "99", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["config"]["n"] == 16

    def test_journal_and_resume(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        code = main(["chaos", "--quick", "--seed", "99", "--journal", str(journal)])
        assert code == 0
        assert journal.exists()
        first = capsys.readouterr().out
        code = main(
            ["chaos", "--quick", "--seed", "99", "--journal", str(journal), "--resume"]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        assert resumed.splitlines()[:8] == first.splitlines()[:8]

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--quick", "--resume"])


class TestGameCommand:
    def test_foils_sweep(self, capsys):
        code = main(["game", "--strategy", "sweep", "-n", "20", "--show-set"])
        out = capsys.readouterr().out
        assert code == 0
        assert "survived 10 moves" in out
        assert "S = [" in out

    def test_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["game", "--strategy", "psychic"])

    def test_protocol_strategies(self, capsys):
        for strat in ("protocol-rr", "protocol-split"):
            code = main(["game", "--strategy", strat, "-n", "16"])
            assert code == 0


class TestObservabilityFlags:
    def test_gap_telemetry_writes_valid_log_and_manifest(self, capsys, tmp_path):
        log = tmp_path / "gap.jsonl"
        code = main(
            ["gap", "--quick", "--reps", "2", "--seed", "5", "--telemetry", str(log)]
        )
        assert code == 0
        from repro.telemetry.summary import read_records, validate_log

        assert validate_log(log) == []
        records = read_records(log)
        kinds = {r["kind"] for r in records}
        assert {"manifest", "run_begin", "run_end", "phase"} <= kinds
        protos = {r["proto"] for r in records if r["kind"] == "phase"}
        assert "decay-broadcast" in protos
        manifest = json.loads((tmp_path / "gap.jsonl.manifest.json").read_text())
        assert manifest["command"] == "gap"
        assert manifest["seed"] == 5
        assert manifest["config"]["reps"] == 2
        assert "config_fingerprint" in manifest

    def test_telemetry_recorder_is_cleared_after_run(self, tmp_path):
        from repro.telemetry.core import get_active

        main(["gap", "--quick", "--reps", "1", "--telemetry", str(tmp_path / "t.jsonl")])
        assert get_active() is None

    def test_telemetry_summary_command(self, capsys, tmp_path):
        log = tmp_path / "gap.jsonl"
        main(["gap", "--quick", "--reps", "2", "--telemetry", str(log)])
        capsys.readouterr()
        code = main(["telemetry", str(log)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Telemetry log overview" in out
        assert "decay-broadcast" in out

    def test_telemetry_summary_json(self, capsys, tmp_path):
        log = tmp_path / "gap.jsonl"
        main(["gap", "--quick", "--reps", "1", "--telemetry", str(log)])
        capsys.readouterr()
        code = main(["telemetry", str(log), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["runs"]["count"] > 0

    def test_telemetry_validate_ok_and_invalid(self, capsys, tmp_path):
        log = tmp_path / "gap.jsonl"
        main(["gap", "--quick", "--reps", "1", "--telemetry", str(log)])
        capsys.readouterr()
        assert main(["telemetry", str(log), "--validate"]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery", "ts": 1.0}\n')
        assert main(["telemetry", str(bad), "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_perf_prints_span_and_frame_tables(self, capsys):
        code = main(["gap", "--quick", "--reps", "1", "--perf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Span costs (sampled time + traced memory)" in out
        assert "engine.run" in out
        assert "Hottest frames" in out

    def test_chaos_telemetry_with_pool(self, capsys, tmp_path):
        log = tmp_path / "chaos.jsonl"
        code = main(
            ["chaos", "--quick", "--seed", "7", "--jobs", "2", "--telemetry", str(log)]
        )
        assert code == 0
        from repro.telemetry.summary import read_records, validate_log

        assert validate_log(log) == []
        records = read_records(log)
        chunk_records = [r for r in records if r["kind"] == "chunk"]
        assert chunk_records
        assert all("queue_s" in r for r in chunk_records)
        # Worker-side engine runs were shipped back chunk-tagged.
        assert any(r["kind"] == "run_end" and "chunk" in r for r in records)

    def test_log_level_flag(self, capsys):
        import logging

        code = main(["--log-level", "INFO", "chaos", "--quick", "--seed", "99"])
        assert code == 0
        logging.getLogger().setLevel(logging.WARNING)  # undo basicConfig level

    def test_log_level_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "LOUD", "chaos", "--quick"])


class TestObsCommands:
    """End-to-end obs pipeline: run -> auto-ingest -> query/report/explain."""

    @pytest.fixture()
    def ingested(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        for seed in (5, 6):
            code = main([
                "gap", "--quick", "--reps", "2", "--seed", str(seed),
                "--telemetry", str(tmp_path / f"g{seed}.jsonl"),
                "--provenance", "--obs-db", str(db),
            ])
            assert code == 0
        out = capsys.readouterr().out
        assert "[obs]" in out
        return db, tmp_path

    def test_auto_ingest_and_reingest_idempotent(self, capsys, ingested):
        db, tmp_path = ingested
        code = main(["obs", "ingest", str(db), str(tmp_path / "g5.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "re-ingested (replaced)" in out

    def test_report_tables_and_html(self, capsys, ingested):
        db, tmp_path = ingested
        assert main(["obs", "report", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Run" in out and "slots_per_sec" in out
        html = tmp_path / "run.html"
        assert main(["obs", "report", str(db), "--html", str(html)]) == 0
        assert "<html" in html.read_text(encoding="utf-8")

    def test_compare_prev_latest(self, capsys, ingested):
        db, _ = ingested
        assert main(["obs", "compare", str(db), "prev", "latest"]) == 0
        out = capsys.readouterr().out
        assert "slots" in out and "vs" in out

    def test_trend_check_passes_without_regression(self, capsys, ingested):
        db, _ = ingested
        # Pin the latest run's wall-clock throughput to the baseline's:
        # two back-to-back runs differ by timing noise alone, which can
        # exceed the 20% bound on a loaded host.
        from repro.obs import RunStore

        with RunStore(db) as store:
            latest = store.runs()[-1]
            baseline = store.metrics_for(store.runs()[0]["id"])["slots_per_sec"]
            store.add_metrics(latest["id"], {"slots_per_sec": baseline})
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-> OK" in out

    def test_trend_check_fails_on_injected_regression(self, capsys, ingested):
        db, _ = ingested
        # Inject a latest run whose throughput fell >= 20% below baseline.
        from repro.obs import RunStore

        with RunStore(db) as store:
            latest = store.runs()[-1]
            baseline = store.metrics_for(store.runs()[0]["id"])["slots_per_sec"]
            store.add_metrics(latest["id"], {"slots_per_sec": baseline * 0.5})
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out

    def test_trend_html(self, capsys, ingested):
        db, tmp_path = ingested
        html = tmp_path / "trend.html"
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--html", str(html)])
        assert code == 0
        assert "<svg" in html.read_text(encoding="utf-8")

    def test_explain_hit_and_miss(self, capsys, ingested):
        db, _ = ingested
        from repro.obs import RunStore

        with RunStore(db) as store:
            run_id = store.runs()[-1]["id"]
            entry = store.conn.execute(
                "SELECT node, slot FROM provenance WHERE run_id = ?"
                " AND outcome = 'delivered' LIMIT 1", (run_id,)
            ).fetchone()
        assert entry is not None
        code = main(["obs", "explain", str(db), "--node", str(entry["node"]),
                     "--slot", str(entry["slot"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "RECEIVED" in out
        code = main(["obs", "explain", str(db), "--node", str(entry["node"]),
                     "--slot", "99999"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no provenance entry" in out

    def test_obs_db_requires_telemetry(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --telemetry"):
            main(["gap", "--quick", "--reps", "1",
                  "--obs-db", str(tmp_path / "runs.db")])

    def test_ingest_missing_file_fails(self, capsys, tmp_path):
        code = main(["obs", "ingest", str(tmp_path / "runs.db"),
                     str(tmp_path / "absent.jsonl")])
        out = capsys.readouterr().out
        assert code == 1
        assert "INGEST FAILED" in out

    def test_empty_store_errors_cleanly(self, tmp_path):
        db = tmp_path / "empty.db"
        with pytest.raises(SystemExit, match="empty"):
            main(["obs", "report", str(db)])

    def test_bench_trend_from_committed_history(self, capsys, tmp_path):
        import pathlib

        history = pathlib.Path("benchmarks/results/bench_history.jsonl")
        if not history.exists():
            pytest.skip("no committed bench history")
        db = tmp_path / "bench.db"
        assert main(["obs", "ingest", str(db), str(history)]) == 0
        capsys.readouterr()
        code = main(["obs", "trend", str(db), "--source", "bench",
                     "--metric", "combined_slots_per_sec"])
        out = capsys.readouterr().out
        assert code == 0
        assert "combined_slots_per_sec" in out


class TestGateExitCodeContract:
    """The documented CI-gate contract: 0 = checked and clean,
    1 = regression verdict, 2 = bad invocation.  A typo in a gate must
    never read as a pass (0) or as a regression (1)."""

    def test_trend_check_bad_threshold_exits_2(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check", "--threshold", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "obs trend" in err

    def test_trend_bad_baseline_exits_2(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check", "--baseline-k", "0"])
        assert code == 2

    def test_perf_check_bad_threshold_exits_2(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        code = main(["obs", "trend", str(db), "--metric", "perf.samples",
                     "--check", "--threshold", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "obs trend" in err

    def test_fleet_metrics_without_snapshots_exits_2(self, capsys, tmp_path):
        log = tmp_path / "plain.jsonl"
        log.write_text('{"kind": "event", "ts": 1.0, "name": "x"}\n',
                       encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "metrics", str(log)])
        assert excinfo.value.code == 2

    def test_fleet_metrics_json_round_trips(self, capsys, tmp_path):
        import json as json_mod

        from repro.fleet.metrics import MetricsRegistry
        from repro.telemetry import Telemetry

        log = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        registry.counter("commit_total", worker="w0").inc(4)
        with Telemetry.to_path(log) as tel:
            registry.emit(tel)
        assert main(["fleet", "metrics", str(log), "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["commit_total"]["series"][0]["value"] == 4.0


class TestTelemetryValidateRobustness:
    def test_reports_all_bad_lines_with_numbers(self, capsys, tmp_path):
        log = tmp_path / "mixed.jsonl"
        with log.open("wb") as stream:
            stream.write(b'{"kind": "gauge", "ts": 1.0, "name": "x", "value": 1}\n')
            stream.write(b"not json\n")
            stream.write(b'{"kind": "bogus", "ts": 2.0}\n')
            stream.write(b"\xff\xfe broken\n")
            stream.write(b'{"kind": "gauge", "ts": 3.0, "name": "y", "value": 2}\n')
        code = main(["telemetry", str(log), "--validate"])
        out = capsys.readouterr().out
        assert code == 1
        assert "line 2" in out and "line 3" in out and "line 4" in out
        assert "not valid UTF-8" in out
        assert "INVALID (3 errors)" in out


class TestFabricCommand:
    def test_run_journal_resumes_under_resilient_map(self, tmp_path, capsys):
        import signal

        from repro.fabric.specs import resolve_spec
        from repro.parallel import resilient_map

        journal = tmp_path / "fabric-journal.jsonl"
        previous = signal.getsignal(signal.SIGTERM)
        try:
            code = main(["fabric", "run", "--spec", "squares", "--param", "n=24",
                         "--workers", "2", "--lease-ttl", "1.0",
                         "--store", str(tmp_path / "fabric-run.db"),
                         "--journal", str(journal)])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert code == 0
        assert "resumable by resilient_map" in capsys.readouterr().out
        spec = resolve_spec("squares", {"n": 24})
        resumed = resilient_map(spec.fn, spec.items, jobs=1, journal=journal,
                                resume=True)
        assert resumed == [x * x for x in range(24)]


class TestFleetCommands:
    """The fleet/autopsy front ends over a scripted lease store."""

    FINGERPRINT = "fade" * 16

    def _scripted(self, tmp_path):
        import json as _json

        from repro.fabric.store import LeaseStore

        store = LeaseStore(tmp_path / "fab.db")
        campaign_id = store.create_campaign(
            self.FINGERPRINT, spec="slow-squares", params={}, items=2,
            chunksize=1,
        )
        store.log_worker_event(campaign_id, "w0", "worker_start")
        for index in range(2):
            lease = store.claim(campaign_id, "w0", ttl=30.0)
            store.commit(lease, "w0", payload=_json.dumps([index]))
        store.close()
        return tmp_path / "fab.db"

    def _telemetry_log(self, tmp_path):
        import json as _json

        from repro.fleet.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("commit_total", worker="w0").inc(2)
        log = tmp_path / "telemetry.jsonl"
        log.write_text(
            _json.dumps({"kind": "lease", "ts": 1.0, "event": "commit",
                         "index": 0, "worker": "w0"}) + "\n"
            + _json.dumps({"kind": "metrics", "ts": 2.0,
                           "snapshot": registry.snapshot()}) + "\n",
            encoding="utf-8",
        )
        return log

    def test_fabric_autopsy_passes_and_writes_html(self, tmp_path, capsys):
        db = self._scripted(tmp_path)
        html = tmp_path / "autopsy.html"
        code = main(["fabric", "autopsy", "--store", str(db),
                     "--html", str(html)])
        out = capsys.readouterr().out
        assert code == 0
        assert "autopsy PASSED" in out
        assert "chunk attribution" in out
        assert html.exists()

    def test_fabric_autopsy_json_and_campaign_prefix(self, tmp_path, capsys):
        db = self._scripted(tmp_path)
        code = main(["fabric", "autopsy", "--store", str(db),
                     "--campaign", self.FINGERPRINT[:6], "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["attribution"] == {"0": ["w0", 1], "1": ["w0", 1]}

    def test_fleet_metrics_merges_snapshots(self, tmp_path, capsys):
        log = self._telemetry_log(tmp_path)
        prom = tmp_path / "merged.prom"
        code = main(["fleet", "metrics", str(log), "--prom", str(prom)])
        assert code == 0
        text = prom.read_text(encoding="utf-8")
        assert 'repro_commit_total{worker="w0"} 2' in text

    def test_fleet_metrics_without_snapshots_errors(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text('{"kind": "event", "ts": 1.0, "name": "x"}\n',
                       encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["fleet", "metrics", str(log)])

    def test_fleet_trace_writes_validated_chrome_trace(self, tmp_path, capsys):
        log = self._telemetry_log(tmp_path)
        out_path = tmp_path / "trace.json"
        code = main(["fleet", "trace", str(log), "--out", str(out_path)])
        assert code == 0
        trace = json.loads(out_path.read_text(encoding="utf-8"))
        from repro.monitor.chrome_trace import validate_chrome_trace

        assert validate_chrome_trace(trace) == []

    def test_monitor_reports_store_activity(self, tmp_path, capsys):
        db = self._scripted(tmp_path)
        code = main(["monitor", str(db), "--plain", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        fleet = payload["board"]["fleet"]
        assert fleet["chunks_committed"] == 2
        assert fleet["workers"]["w0"]["commits"] == 2

    def test_obs_explain_fabric_after_autopsy_landing(self, tmp_path, capsys):
        db = self._scripted(tmp_path)
        obs_db = tmp_path / "obs.db"
        code = main(["fabric", "autopsy", "--store", str(db),
                     "--obs-db", str(obs_db)])
        capsys.readouterr()
        assert code == 0
        code = main(["obs", "explain", str(obs_db), "--run", "latest",
                     "--fabric"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fabric.chunks_committed" in out
        assert "Fabric aggregates" in out
