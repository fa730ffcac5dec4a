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
        code = main(["chaos", "--quick", "--seed", "99", "--journal", str(journal),
                     "--jobs", "2"])
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

    def test_chaos_takes_no_backend(self):
        # Faulted runs have one simulator, the reference engine.
        with pytest.raises(SystemExit):
            main(["chaos", "--quick", "--backend", "reference"])


def test_numpy_backend_reproduces_reference_gap_output(capsys):
    """``gap`` prints the same bytes under both backends."""
    pytest.importorskip("numpy")

    def output(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    gap = ["gap", "--quick", "--reps", "2", "--seed", "5", "--backend"]
    assert output(*gap, "reference") == output(*gap, "numpy")


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
        assert {"manifest", "run_begin", "run_end"} <= kinds
        # Decay's phase markers are folded into their run's run_end.
        assert "phase" not in kinds
        protos = {row[0] for r in records if r["kind"] == "run_end"
                  for row in r.get("phases", ())}
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
        kinds = {r["kind"] for r in records}
        assert {"manifest", "campaign_begin", "campaign_end"} <= kinds
        capsys.readouterr()
        assert main(["telemetry", str(log)]) == 0
        assert "Parallel chunks" in capsys.readouterr().out

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
        from repro.obs import RunStore

        db = tmp_path / "empty.db"
        RunStore(db).close()
        with pytest.raises(SystemExit, match="the run store is empty"):
            main(["obs", "report", str(db)])

    @pytest.mark.parametrize("argv", [
        ["report"], ["compare", "latest", "prev"],
        ["explain", "--node", "0", "--slot", "0"],
    ])
    def test_read_only_commands_refuse_a_missing_store(self, tmp_path, argv):
        db = tmp_path / "nope.db"
        with pytest.raises(SystemExit) as info:
            main(["obs", argv[0], str(db), *argv[1:]])
        assert info.value.code == f"obs {argv[0]}: no run store at {db}"
        assert not db.exists()

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

    @staticmethod
    def _empty_store(tmp_path):
        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        RunStore(db).close()
        return db

    def test_trend_check_missing_store_exits_2(self, capsys, tmp_path):
        db = tmp_path / "typo.db"
        code = main(["obs", "trend", str(db), "--metric", "slots", "--check"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"obs trend: no run store at {db}\n"
        assert captured.out == ""
        assert not db.exists()

    def test_trend_check_bad_threshold_exits_2(self, capsys, tmp_path):
        db = self._empty_store(tmp_path)
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check", "--threshold", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "obs trend" in err

    def test_trend_bad_baseline_exits_2(self, capsys, tmp_path):
        db = self._empty_store(tmp_path)
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check", "--baseline-k", "0"])
        assert code == 2

    def test_perf_check_bad_threshold_exits_2(self, capsys, tmp_path):
        db = self._empty_store(tmp_path)
        code = main(["obs", "trend", str(db), "--metric", "perf.samples",
                     "--check", "--threshold", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "obs trend" in err


class TestErrorExit:
    """``main`` turns an ExperimentError (bad input or configuration)
    into one ``<command as typed>: <error>`` exit, for every command."""

    def _exit_line(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code

    @pytest.mark.parametrize("extra", [[], ["--validate"]])
    def test_telemetry_missing_log(self, tmp_path, extra):
        log = tmp_path / "missing.jsonl"
        assert self._exit_line(["telemetry", str(log), *extra]) == (
            f"telemetry: no telemetry log at {log}")

    def test_perf_flame_and_diff_missing_input(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        folded = tmp_path / "p.folded"
        folded.write_text("main;hot 9\n", encoding="utf-8")
        expected = f"no folded stacks or telemetry log at {missing}"
        assert self._exit_line(["perf", "flame", str(missing), "--out",
                                str(tmp_path / "x.html")]) == f"perf flame: {expected}"
        assert self._exit_line(["perf", "diff", str(folded), str(missing)]) == (
            f"perf diff: {expected}")

    def test_config_error(self, tmp_path, capsys):
        assert self._exit_line(["gap", "--quick", "--jobs", "-1"]) == (
            "gap: jobs must be >= 0, got -1")
        # perf record runs the command through main and reports its line.
        code = main(["perf", "record", "--out", str(tmp_path / "p"),
                     "gap", "--quick", "--jobs", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "gap: jobs must be >= 0, got -1\n"

    def test_messages_of_the_commands_that_had_their_own(self, tmp_path):
        log = tmp_path / "nope.jsonl"
        assert self._exit_line(["monitor", str(log)]) == (
            f"monitor: no telemetry log at {log}")
        assert self._exit_line(["obs", "export", str(log), "--chrome-trace",
                                str(tmp_path / "t.json")]) == (
            f"obs export: no telemetry log at {log}")
        assert self._exit_line(["fabric", "run", "--spec", "nosuch",
                                "--store", str(tmp_path / "f.db")]) == (
            "fabric run: unknown fabric spec 'nosuch'; choose from chaos, "
            "slow-squares, squares")
        store = tmp_path / "nope.db"
        assert self._exit_line(["fabric", "autopsy", "--store", str(store)]) == (
            f"fabric autopsy: no lease store at {store}")

    def test_one_line_not_a_traceback(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        missing = tmp_path / "missing.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "perf", "flame", str(missing),
             "--out", str(tmp_path / "x.html")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            f"perf flame: no folded stacks or telemetry log at {missing}\n")

    def test_reader_that_goes_away_is_not_a_traceback(self):
        # ``repro gap --quick | head -1`` with the reader gone before the
        # table is written: a quiet exit with EXIT_BROKEN_PIPE.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.cli import EXIT_BROKEN_PIPE

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gap", "--quick", "--seed", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        try:
            _out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert "Traceback" not in err.decode()
        assert "BrokenPipeError" not in err.decode()
        assert proc.returncode == EXIT_BROKEN_PIPE == 141



class TestTelemetryValidateRobustness:
    def test_reports_all_bad_lines_with_numbers(self, capsys, tmp_path):
        log = tmp_path / "mixed.jsonl"
        with log.open("wb") as stream:
            stream.write(b'{"kind": "fault", "ts": 1.0, "slot": 1}\n')
            stream.write(b"not json\n")
            stream.write(b'{"kind": "bogus", "ts": 2.0}\n')
            stream.write(b"\xff\xfe broken\n")
            stream.write(b'{"kind": "fault", "ts": 3.0, "slot": 2}\n')
        code = main(["telemetry", str(log), "--validate"])
        out = capsys.readouterr().out
        assert code == 1
        assert "line 2" in out and "line 3" in out and "line 4" in out
        assert "not valid UTF-8" in out
        assert "INVALID (3 errors)" in out


class TestFabricCommand:
    def test_run_journal_resumes_under_resilient_map(self, tmp_path, capsys):
        from repro.fabric.specs import resolve_spec
        from repro.parallel import resilient_map

        journal = tmp_path / "fabric-journal.jsonl"
        code = main(["fabric", "run", "--spec", "squares", "--param", "n=24",
                     "--workers", "2", "--lease-ttl", "1.0",
                     "--store", str(tmp_path / "fabric-run.db"),
                     "--journal", str(journal)])
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

    #: A coordinator log written before the metrics registry was removed:
    #: the store's two claims and commits, then a ``metrics`` snapshot.
    LEGACY_LOG = (
        '{"kind": "fabric_begin", "ts": 1.0, "spec": "slow-squares", '
        '"workers": 1, "chunks": 2}\n'
        '{"kind": "lease", "ts": 1.1, "event": "claim", "worker": "w0", '
        '"index": 0, "fence": 1}\n'
        '{"kind": "lease", "ts": 1.2, "event": "commit", "worker": "w0", '
        '"index": 0, "fence": 1}\n'
        '{"kind": "lease", "ts": 1.3, "event": "claim", "worker": "w0", '
        '"index": 1, "fence": 1}\n'
        '{"kind": "lease", "ts": 1.4, "event": "commit", "worker": "w0", '
        '"index": 1, "fence": 1}\n'
        '{"kind": "metrics", "ts": 1.5, "snapshot": {"repro_commit_total": '
        '{"type": "counter", "help": "", "series": [{"labels": '
        '{"worker": "w0"}, "value": 2.0}]}}}\n'
        '{"kind": "fabric_end", "ts": 1.6, "chunks": 2, "wall_s": 0.6}\n'
    )

    def _telemetry_log(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        log.write_text(self.LEGACY_LOG, encoding="utf-8")
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

    def test_legacy_metrics_records_still_read(self, tmp_path, capsys):
        """``metrics`` records from older logs are skipped by every
        reader and named by the validator."""
        db = self._scripted(tmp_path)
        log = self._telemetry_log(tmp_path)
        assert main(["telemetry", str(log), "--validate"]) == 1
        out = capsys.readouterr().out
        assert "line 6: unknown kind 'metrics'" in out
        assert "INVALID (1 errors)" in out

        assert main(["telemetry", str(log), "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)["fleet"]
        assert fleet["lease_events"] == {"claim": 2, "commit": 2}
        assert "metrics_totals" not in fleet

        assert main(["monitor", str(log), "--json", "--no-write-alerts"]) == 0
        board = json.loads(capsys.readouterr().out)["board"]
        assert board["fleet"]["chunks_committed"] == 2

        obs_db = tmp_path / "obs.db"
        assert main(["obs", "ingest", str(obs_db), str(log)]) == 0
        capsys.readouterr()
        from repro.obs import RunStore

        with RunStore(obs_db) as store:
            metrics = store.metrics_for(store.resolve_run("latest")["id"])
        assert metrics["fabric.lease.commit"] == 2.0
        assert not any(name.startswith("fleet.") for name in metrics)

        assert main(["fabric", "autopsy", "--store", str(db),
                     "--telemetry-log", str(log), "--json"]) == 0
        check = json.loads(capsys.readouterr().out)["telemetry_check"]
        assert check["problems"] == []
        assert check["lease_records"] == check["store_events"] == 4

    def test_fleet_trace_writes_validated_chrome_trace(self, tmp_path, capsys):
        """The fleet's merged trace, now written by ``monitor STORE
        --chrome-trace``: store events plus the worker log next to it."""
        import time

        db = self._scripted(tmp_path)
        (tmp_path / "fab.db.w0.telemetry.jsonl").write_text(
            json.dumps({"kind": "chunk", "ts": time.time() + 1.0, "index": 0,
                        "size": 1, "wall_s": 0.5}) + "\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "trace.json"
        code = main(["monitor", str(db), "--chrome-trace", str(out_path)])
        assert code == 0
        trace = json.loads(out_path.read_text(encoding="utf-8"))
        from repro.monitor.chrome_trace import validate_chrome_trace

        assert validate_chrome_trace(trace) == []
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"lease:claim", "lease:commit", "chunk 0"} <= names

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
