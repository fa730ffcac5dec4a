"""The monitor over a fabric campaign: store-row translation, the
board's worker lanes, the merged follow, and a lease store as input."""

import hashlib
import json
import time

import pytest

from repro.cli import main
from repro.fabric.store import LeaseStore, store_event_record
from repro.monitor import StatusBoard, follow_fleet, monitor_log


class TestStoreEventRecord:
    def test_lease_transition_becomes_lease_record(self):
        record = store_event_record(
            {
                "id": 7,
                "ts": 12.5,
                "worker": "w1",
                "kind": "takeover",
                "idx": 3,
                "fence": 2,
                "detail": "expired lease of w0",
            }
        )
        assert record == {
            "kind": "lease",
            "event": "takeover",
            "ts": 12.5,
            "store_id": 7,
            "worker": "w1",
            "index": 3,
            "fence": 2,
            "detail": "expired lease of w0",
        }

    def test_lifecycle_event_becomes_worker_record(self):
        record = store_event_record(
            {"id": 1, "ts": 1.0, "worker": "w0", "kind": "worker_start",
             "idx": None, "fence": None, "detail": None}
        )
        assert record["kind"] == "worker"
        assert record["event"] == "worker_start"
        assert record["worker"] == "w0"
        assert "index" not in record

    def test_schema_validates_translated_records(self):
        from repro.telemetry.schema import validate_record

        lease = store_event_record(
            {"id": 1, "ts": 1.0, "worker": "w0", "kind": "commit",
             "idx": 0, "fence": 1, "detail": None}
        )
        worker = store_event_record(
            {"id": 2, "ts": 2.0, "worker": "w0", "kind": "fault",
             "idx": 0, "fence": 1, "detail": "kill"}
        )
        assert validate_record(lease) == []
        assert validate_record(worker) == []


def _feed(board, records):
    for record in records:
        board.update(record)


class TestFleetLanes:
    def test_lanes_track_worker_health(self):
        board = StatusBoard()
        _feed(board, [
            {"kind": "fabric_begin", "ts": 0.0, "chunks": 2, "workers": 2},
            {"kind": "worker", "ts": 0.1, "event": "worker_start", "worker": "w0"},
            {"kind": "lease", "ts": 0.2, "event": "claim", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "lease", "ts": 0.3, "event": "claim", "worker": "w1",
             "index": 1, "fence": 1},
            {"kind": "worker", "ts": 0.4, "event": "fault", "worker": "w1",
             "detail": "kill"},
            {"kind": "lease", "ts": 0.5, "event": "commit", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "lease", "ts": 0.6, "event": "takeover", "worker": "w0",
             "index": 1, "fence": 2},
            {"kind": "lease", "ts": 0.7, "event": "fence_reject", "worker": "w1",
             "index": 1, "fence": 1},
            {"kind": "lease", "ts": 0.8, "event": "commit", "worker": "w0",
             "index": 1, "fence": 2},
            {"kind": "worker", "ts": 0.9, "event": "worker_exit", "worker": "w0",
             "detail": "done, committed=2"},
            {"kind": "fabric_end", "ts": 1.0, "chunks": 2},
        ])
        fleet = board.snapshot()["fleet"]
        assert fleet["chunks_total"] == 2
        assert fleet["chunks_committed"] == 2
        assert fleet["takeovers"] == 1
        assert fleet["fence_rejects"] == 1
        assert fleet["fabric_done"] is True
        w0, w1 = fleet["workers"]["w0"], fleet["workers"]["w1"]
        assert w0["state"] == "exited"
        assert w0["claims"] == 2  # the plain claim + the takeover grant
        assert w0["commits"] == 2
        assert w0["takeovers"] == 1
        assert w0["exit_detail"] == "done, committed=2"
        assert w1["state"] == "killed"
        assert w1["fence_rejects"] == 1
        assert w1["last_fault"] == "kill"

    def test_superseded_worker_stops_holding_the_chunk(self):
        """A takeover moves the chunk to the new holder's lane."""
        board = StatusBoard()
        _feed(board, [
            {"kind": "lease", "ts": 0.1, "event": "claim", "worker": "w1",
             "index": 1, "fence": 1},
            {"kind": "worker", "ts": 0.2, "event": "fault", "worker": "w1",
             "detail": "kill"},
            {"kind": "lease", "ts": 0.3, "event": "takeover", "worker": "w0",
             "index": 1, "fence": 2},
            {"kind": "lease", "ts": 0.4, "event": "commit", "worker": "w0",
             "index": 1, "fence": 2},
        ])
        assert board.lanes["w1"].holding is None
        assert board.lanes["w0"].holding is None
        assert board.snapshot()["fleet"]["workers"]["w1"]["holding"] is None
        assert not any("chunk 1" in line for line in board.fleet_lines())

    def test_unknown_lease_event_is_counted_not_folded(self):
        board = StatusBoard()
        board.update({"kind": "lease", "ts": 0.1, "event": "bogus",
                      "worker": "w0", "index": 0})
        fleet = board.snapshot()["fleet"]
        assert fleet["workers"]["w0"]["claims"] == 0
        assert fleet["workers"]["w0"]["state"] == "live"
        assert board.lease.events == {"bogus": 1}

    def test_committed_chunks_dedupe_by_index(self):
        board = StatusBoard()
        _feed(board, [
            {"kind": "lease", "ts": 0.1, "event": "commit", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "lease", "ts": 0.2, "event": "commit", "worker": "w0",
             "index": 0, "fence": 1},
        ])
        assert board.snapshot()["fleet"]["chunks_committed"] == 1

    def test_lines_and_status_line_carry_fleet_state(self):
        board = StatusBoard()
        _feed(board, [
            {"kind": "fabric_begin", "ts": 0.0, "chunks": 4, "workers": 1},
            {"kind": "lease", "ts": 0.1, "event": "claim", "worker": "w0",
             "index": 0, "fence": 1},
            {"kind": "lease", "ts": 0.2, "event": "fence_reject", "worker": "w0",
             "index": 0, "fence": 1},
        ])
        body = "\n".join(board.lines())
        assert "fleet: chunks 0/4" in body
        assert "REJECTS 1" in body
        status = board.status_line()
        assert "workers 1/1" in status
        assert "rejects 1" in status

    def test_plain_status_board_records_flow_through(self):
        # The merged stream also carries ordinary run/slot records; the
        # base board behaviour must be untouched by the fleet overlay.
        board = StatusBoard()
        board.update({"kind": "fabric_begin", "ts": 0.0, "chunks": 1})
        board.update({"kind": "run_end", "ts": 1.0, "slots": 10,
                      "transmissions": 4, "collisions": 1, "delivered": True})
        assert board.snapshot()["fleet"]["workers"] == {}


class TestFollowFleet:
    def _scripted_store(self, tmp_path):
        store = LeaseStore(tmp_path / "fab.db")
        campaign_id = store.create_campaign(
            "cafe" * 16, spec="slow-squares", params={}, items=2, chunksize=1
        )
        store.log_worker_event(campaign_id, "w0", "worker_start")
        for index in range(2):
            lease = store.claim(campaign_id, "w0", ttl=30.0)
            assert lease is not None and lease.index == index
            assert store.commit(lease, "w0", payload=json.dumps([index]))
        store.log_worker_event(campaign_id, "w0", "worker_exit",
                               detail="done, committed=2")
        return store

    def test_merges_store_events_and_worker_logs(self, tmp_path):
        store = self._scripted_store(tmp_path)
        store.close()
        log = tmp_path / "w0.telemetry.jsonl"
        log.write_text(
            json.dumps({"kind": "run_end", "ts": 0.0, "slots": 5,
                        "transmissions": 1, "collisions": 0,
                        "delivered": True}) + "\n",
            encoding="utf-8",
        )
        records = list(
            follow_fleet(tmp_path / "fab.db", "cafe" * 16, logs={"w0": log},
                         poll_interval=0.01, idle_timeout=1.0)
        )
        kinds = sorted({r["kind"] for r in records})
        assert kinds == ["lease", "run_end", "worker"]
        # The done check fired: the campaign is fully committed, so the
        # follow ended without waiting out the idle timeout.
        lease_events = [r["event"] for r in records if r["kind"] == "lease"]
        assert lease_events.count("claim") == 2
        assert lease_events.count("commit") == 2

    def test_board_over_followed_stream(self, tmp_path):
        store = self._scripted_store(tmp_path)
        store.close()
        board = StatusBoard()
        for record in follow_fleet(tmp_path / "fab.db", "cafe" * 16,
                                   poll_interval=0.01, idle_timeout=1.0):
            board.update(record)
        fleet = board.snapshot()["fleet"]
        assert fleet["chunks_committed"] == 2
        assert fleet["workers"]["w0"]["state"] == "exited"

    def test_missing_store_times_out_idle(self, tmp_path):
        records = list(
            follow_fleet(tmp_path / "nope.db", "cafe" * 16,
                         poll_interval=0.01, idle_timeout=0.05)
        )
        assert records == []


    def test_campaign_log_has_no_fleet_block(self):
        board = StatusBoard()
        _feed(board, [
            {"kind": "manifest", "ts": 0.0, "command": "gap"},
            {"kind": "run_begin", "ts": 0.1, "run": "r0", "nodes": 4},
            {"kind": "run_end", "ts": 0.2, "run": "r0", "slots": 6,
             "transmissions": 3, "collisions": 0, "informed": 4},
        ])
        assert "fleet" not in board.snapshot()
        assert board.fleet_lines() == []
        assert not any("fleet" in line for line in board.lines())
        assert "workers" not in board.status_line()


def _drill_store(path, chunks=8):
    """A finished campaign with one takeover and one fenced-out commit:
    w0 claims chunk 0 and stalls, w1 takes it over and commits the lot,
    then w0's late commit is rejected."""
    store = LeaseStore(path)
    campaign_id = store.create_campaign(
        "beef" * 16, spec="slow-squares", params={}, items=chunks, chunksize=1
    )
    for worker in ("w0", "w1"):
        store.log_worker_event(campaign_id, worker, "worker_start")
    stale = store.claim(campaign_id, "w0", ttl=0.0, now=100.0)
    for _ in range(chunks):
        lease = store.claim(campaign_id, "w1", ttl=30.0, now=101.0)
        assert store.commit(lease, "w1", payload=json.dumps([lease.index]))
    assert not store.commit(stale, "w0", payload="[]")
    for worker, count in (("w0", 0), ("w1", chunks)):
        store.log_worker_event(campaign_id, worker, "worker_exit",
                               detail=f"done, committed={count}")
    store.close()
    return path


class TestStoreInput:
    def test_board_from_store_alone_shows_size_and_completion(self, tmp_path):
        db = _drill_store(tmp_path / "fab.db")
        report = monitor_log(db)
        fleet = report.board["fleet"]
        assert fleet["chunks_total"] == 8
        assert fleet["chunks_committed"] == 8
        assert fleet["fabric_done"] is True
        assert report.fleet_lines[0].startswith("fleet: chunks 8/8")
        assert report.fleet_lines[0].endswith("[done]")

    def test_store_takeover_fails_gate_and_leaves_store_untouched(
        self, tmp_path, capsys
    ):
        db = _drill_store(tmp_path / "fab.db")
        before = hashlib.sha256(db.read_bytes()).hexdigest()
        assert main(["monitor", str(db), "--gate"]) == 1
        out = capsys.readouterr().out
        assert "fleet-takeover" in out
        assert "gate: FAILED" in out
        assert hashlib.sha256(db.read_bytes()).hexdigest() == before

    def test_store_json_counts_fencing_arc(self, tmp_path, capsys):
        db = _drill_store(tmp_path / "fab.db")
        assert main(["monitor", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [a["rule"] for a in payload["alerts"]] == ["fleet-takeover"]
        fleet = payload["board"]["fleet"]
        assert fleet["takeovers"] == 1 and fleet["fence_rejects"] == 1
        assert fleet["workers"]["w0"]["fence_rejects"] == 1
        assert fleet["workers"]["w1"]["commits"] == 8

    def test_store_worker_logs_found_next_to_it(self, tmp_path):
        db = _drill_store(tmp_path / "fab.db", chunks=2)
        (tmp_path / "fab.db.w1.telemetry.jsonl").write_text(
            json.dumps({"kind": "run_end", "ts": 101.5, "slots": 7,
                        "transmissions": 2, "collisions": 0}) + "\n",
            encoding="utf-8",
        )
        report = monitor_log(db)
        assert report.board["slots"] == 7

    def test_chrome_trace_on_store_merges_worker_lanes(self, tmp_path, capsys):
        from repro.monitor.chrome_trace import validate_chrome_trace

        db = _drill_store(tmp_path / "fab.db", chunks=1)
        (tmp_path / "fab.db.w1.telemetry.jsonl").write_text(
            json.dumps({"kind": "chunk", "ts": time.time() + 1.0, "index": 0,
                        "size": 1, "wall_s": 0.25}) + "\n",
            encoding="utf-8",
        )
        before = hashlib.sha256(db.read_bytes()).hexdigest()
        out = tmp_path / "t.json"
        assert main(["monitor", str(db), "--chrome-trace", str(out)]) == 0
        assert hashlib.sha256(db.read_bytes()).hexdigest() == before
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        lanes = {e["args"]["name"]: e["pid"] for e in events
                 if e["name"] == "process_name"}
        assert set(lanes) == {"repro campaign", "worker w0", "worker w1"}
        takeover = [e for e in events if e["name"] == "lease:takeover"]
        assert [e["pid"] for e in takeover] == [lanes["worker w1"]]
        chunk = [e for e in events if e["name"] == "chunk 0"]
        assert [e["pid"] for e in chunk] == [lanes["worker w1"]]


class TestGateOverNothing:
    def test_empty_log_gate_exits_2(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf-8")
        assert main(["monitor", str(log), "--gate"]) == 2
        captured = capsys.readouterr()
        assert "checked nothing" in captured.err
        assert "gate: PASSED" not in captured.out

    def test_store_without_campaign_is_an_error(self, tmp_path):
        LeaseStore(tmp_path / "fresh.db").close()
        with pytest.raises(SystemExit, match="holds no campaign"):
            main(["monitor", str(tmp_path / "fresh.db"), "--gate"])
