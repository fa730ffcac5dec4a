"""Tests for the telemetry recorder and the ambient registry."""

import io
import json
import os

import pytest

from repro.telemetry import core
from repro.telemetry.core import (
    Telemetry,
    activate,
    config_fingerprint,
    event,
    get_active,
    git_sha,
    phase,
    set_active,
)
from repro.telemetry.schema import validate_record


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    """Each test starts (and ends) with telemetry disabled."""
    previous = set_active(None)
    yield
    set_active(previous)


class TestBufferedRecorder:
    def test_emit_and_drain(self):
        rec = Telemetry.buffered()
        rec.emit("event", name="x", value=1)
        records = rec.drain()
        assert len(records) == 1
        assert records[0]["kind"] == "event"
        assert "ts" in records[0]
        assert rec.drain() == []

    def test_run_scope_tags_records(self):
        rec = Telemetry.buffered()
        run_id = rec.begin_run(nodes=4, edges=3, seed=0)
        rec.emit("event", name="ticks")
        rec.end_run(slots=1, wall_s=0.0, transmissions=0, collisions=0, deliveries=0)
        rec.emit("event", name="after")
        begin, tick, end, after = rec.drain()
        assert run_id == "r1"
        assert begin["run"] == tick["run"] == end["run"] == "r1"
        assert "run" not in after
        assert rec.begin_run(nodes=1, edges=0, seed=0) == "r2"

    def test_write_record_merges_preformed(self):
        rec = Telemetry.buffered()
        rec.write_record({"kind": "event", "ts": 1.0, "name": "n", "value": 2})
        assert rec.drain()[0]["value"] == 2

    def test_fork_guard_drops_foreign_pid(self):
        rec = Telemetry.buffered()
        rec._pid = os.getpid() + 1  # simulate a forked child's inherited recorder
        rec.emit("event", name="x", value=1)
        rec.write_record({"kind": "event", "ts": 0.0, "name": "x", "value": 1})
        assert rec.drain() == []

    def test_closed_recorder_is_silent(self):
        rec = Telemetry.buffered()
        rec.close()
        rec.emit("event", name="x", value=1)
        assert rec.drain() == []

    def test_slot_batch_validated(self):
        with pytest.raises(ValueError):
            Telemetry.buffered(slot_batch=0)


class TestFileRecorder:
    def test_streams_json_lines(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with Telemetry.to_path(log) as rec:
            rec.emit("event", name="a", value=1)
            rec.emit("fault", slot=2)
        lines = log.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["event", "fault"]

    def test_flushes_as_it_goes(self, tmp_path):
        log = tmp_path / "events.jsonl"
        rec = Telemetry.to_path(log)
        rec.emit("event", name="a", value=1)
        # Readable before close: a killed campaign leaves a usable log.
        assert json.loads(log.read_text().splitlines()[0])["name"] == "a"
        rec.close()

    def test_lines_appended_by_another_writer_survive(self, tmp_path):
        # `monitor LOG --follow` appends its alerts to a log a campaign
        # is still writing: the recorder's next record must land after
        # the alert, not on top of it.
        from repro.monitor.conformance import Alert
        from repro.monitor.live import _AlertWriter

        log = tmp_path / "events.jsonl"
        append_alert = _AlertWriter(log)
        with Telemetry.to_path(log) as rec:
            rec.emit("progress", done=1, total=2, elapsed_s=0.1)
            append_alert(Alert(rule="theorem1-decay", severity="critical",
                               message="jammed"))
            rec.emit("progress", done=2, total=2, elapsed_s=0.2)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["progress", "alert", "progress"]
        assert records[1]["message"] == "jammed"
        assert all(not validate_record(r) for r in records)

    def test_unserializable_values_fall_back_to_repr(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with Telemetry.to_path(log) as rec:
            rec.emit("event", name="x", value=1, payload=object())
        record = json.loads(log.read_text())
        assert record["payload"].startswith("<object object")

    def test_lines_are_json_dumps_with_repr_fallback(self, monkeypatch):
        records = [
            {"kind": "phase", "payload": object(), "value": float("nan")},
            {"kind": "event", "name": "zürich → 東京", "nested": (1, ("a", [2.5, None]))},
            {"kind": "event", "inf": float("-inf"), "set": {3}},
            {"kind": "event", "by": {7: "int", True: "bool", None: 0, 2.5: "float"}},
            {"kind": "event", "deep": {"a": {"b": {3: [{"c": {}}]}}}, "empty": []},
        ]
        stream = io.StringIO()
        rec = Telemetry(stream)
        for record in records:
            rec.write_record(record)
        assert stream.getvalue() == "".join(
            json.dumps(record, default=repr) + "\n" for record in records
        )

        # The phase fast helper writes what Telemetry.phase writes.
        monkeypatch.setattr(core.time, "time", lambda: 12.5)
        stream = io.StringIO()
        rec = Telemetry(stream)
        with activate(rec):
            phase("decay", node=(1, 2), index=3, slot=4, informed=True)
        rec.phase("decay", node=(1, 2), index=3, slot=4, informed=True)
        helper_line, method_line = stream.getvalue().splitlines(keepends=True)
        assert helper_line == method_line == json.dumps({
            "kind": "phase", "ts": 12.5, "proto": "decay", "node": (1, 2),
            "index": 3, "slot": 4, "informed": True,
        }) + "\n"

        # A circular record raises as json.dumps does, and writes nothing.
        stream = io.StringIO()
        rec = Telemetry(stream)
        circular = {"kind": "event"}
        circular["self"] = circular
        with pytest.raises(ValueError, match="Circular reference"):
            rec.write_record(circular)
        # An encode that fails inside nested dicts leaves no trace: the
        # same objects encode again once the bad key is gone.
        record = {"kind": "event", "outer": {"inner": {(1, 2): "tuple key"}}}
        with pytest.raises(TypeError):
            rec.write_record(record)
        del record["outer"]["inner"][(1, 2)]
        del circular["self"]
        for good in (record, circular, *records):
            rec.write_record(good)
        assert stream.getvalue() == "".join(
            json.dumps(good, default=repr) + "\n" for good in (record, circular, *records)
        )

    def test_manifest_record_and_sidecar(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with Telemetry.to_path(log) as rec:
            manifest = rec.write_manifest(
                command="gap", seed=7, config={"reps": 2, "quick": True}
            )
        assert manifest["command"] == "gap"
        assert manifest["seed"] == 7
        assert manifest["config_fingerprint"] == config_fingerprint(
            {"reps": 2, "quick": True}
        )
        assert manifest["package_version"]
        record = json.loads(log.read_text().splitlines()[0])
        assert record["kind"] == "manifest"
        assert not validate_record(record)
        sidecar = tmp_path / "events.jsonl.manifest.json"
        assert json.loads(sidecar.read_text())["seed"] == 7


class TestConcurrentShipBack:
    """Fabric event forwarding, resilient_map callbacks and heartbeat
    threads all write through one recorder from different threads."""

    def _hammer(self, tel, threads=4, per_thread=200):
        import threading

        def ship(worker):
            for n in range(per_thread):
                tel.write_record(
                    {"kind": "event", "ts": float(n), "name": "chunk",
                     "worker": worker, "n": n}
                )

        pool = [
            threading.Thread(target=ship, args=(f"w{i}",))
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        return threads * per_thread

    def test_streamed_log_lines_never_tear(self, tmp_path):
        log = tmp_path / "log.jsonl"
        tel = Telemetry.to_path(log)
        with tel:
            expected = self._hammer(tel)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == expected
        decoded = [json.loads(line) for line in lines]  # every line whole
        # No record lost, none duplicated, per-worker order preserved.
        for worker in ("w0", "w1", "w2", "w3"):
            ours = [r["n"] for r in decoded if r["worker"] == worker]
            assert ours == list(range(200))

    def test_run_seq_tags_are_unique_across_threads(self):
        import threading

        with Telemetry.buffered() as tel:
            ids: list[str] = []
            lock = threading.Lock()

            def open_many():
                mine = [tel.open_run(nodes=1) for _ in range(100)]
                with lock:
                    ids.extend(mine)

            pool = [threading.Thread(target=open_many) for _ in range(4)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        assert len(ids) == 400
        assert len(set(ids)) == 400  # no thread ever minted a duplicate


class TestAmbientRegistry:
    def test_helpers_are_noops_when_disabled(self):
        # Must not raise, must not require a recorder.
        phase("decay", node=0, index=0, slot=0)
        event("fault", slot=3)
        assert get_active() is None

    def test_activate_installs_and_restores(self):
        outer = Telemetry.buffered()
        inner = Telemetry.buffered()
        with activate(outer):
            assert get_active() is outer
            with activate(inner):
                event("event", name="x")
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is None
        assert inner.drain()[0]["name"] == "x"
        assert outer.drain() == []

    def test_activate_restores_on_error(self):
        rec = Telemetry.buffered()
        with pytest.raises(RuntimeError):
            with activate(rec):
                raise RuntimeError("boom")
        assert get_active() is None

    def test_helpers_route_to_active(self):
        rec = Telemetry.buffered()
        with activate(rec):
            phase("decay-broadcast", node=3, index=1, slot=9, start_slot=8)
            event("fault", slot=9)
        records = rec.drain()
        assert [r["kind"] for r in records] == ["phase", "fault"]
        assert all(not validate_record(r) for r in records)

    def test_markers_fold_per_open_run(self):
        rec = Telemetry.buffered()
        with activate(rec):
            rec.begin_run(nodes=2, edges=1, seed=0)
            phase("decay", node=0, index=0, slot=9, start_slot=8)
            rec.phase("decay", node=1, index=0, slot=5, start_slot=2)
            phase("layer", node=1, index=2, slot=7)
            phase("decay", node=1, index=0, slot=11)
            rec.end_run(slots=12, wall_s=0.0, transmissions=0, collisions=0,
                        deliveries=0)
            # No run open: each marker is its own record again.
            phase("decay", node=0, index=1, slot=3)
        begin, end, marker = rec.drain()
        # Columns: proto, index, count, slot min/max/sum, length count/sum.
        assert end["phases"] == [["decay", 0, 3, 5, 11, 25, 2, 6],
                                 ["layer", 2, 1, 7, 7, 7, 0, 0]]
        assert not validate_record(end)
        assert marker["kind"] == "phase" and "run" not in marker

    def test_discarded_run_drops_its_fold(self):
        rec = Telemetry.buffered()
        rec.begin_run(nodes=1, edges=0, seed=0)
        rec.phase("decay", node=0, index=0, slot=9)
        rec.discard_run()
        assert rec.current_run is None
        rec.begin_run(nodes=1, edges=0, seed=0)
        rec.end_run(slots=1, wall_s=0.0, transmissions=0, collisions=0, deliveries=0)
        assert [r.get("phases") for r in rec.drain()] == [None, None, None]

    def test_disabled_gate_is_one_global_load(self):
        # The documented no-op contract: the helper reads the module
        # global once and returns; no recorder machinery is touched.
        assert core._ACTIVE is None
        event("event", name="never-recorded", value=10**6)


class TestManifestIngredients:
    def test_fingerprint_is_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_fingerprint_handles_non_json_values(self):
        digest = config_fingerprint({"path": object()})
        assert len(digest) == 16

    def test_git_sha_in_this_checkout(self):
        sha = git_sha()
        assert sha is not None
        assert len(sha) == 40
        assert all(c in "0123456789abcdef" for c in sha)

    def test_git_sha_outside_a_checkout(self, tmp_path):
        assert git_sha(tmp_path / "nowhere") is None
