"""Torn-tail-tolerant log reading: TailReader and the batch readers."""

import json
import threading
import time

import pytest

from repro.errors import ExperimentError
from repro.monitor import tail
from repro.monitor.tail import TailReader, follow_records, read_log_records
from repro.telemetry.summary import read_records, validate_log


def write_lines(path, records, *, torn_tail=None):
    with path.open("w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record) + "\n")
        if torn_tail is not None:
            stream.write(torn_tail)  # no newline: writer caught mid-flush
    return path


class TestTailReader:
    def test_reads_complete_lines(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl", [{"kind": "event", "ts": 1.0}])
        reader = TailReader(log)
        assert reader.poll() == [{"kind": "event", "ts": 1.0}]
        assert reader.poll() == []  # nothing new

    def test_torn_tail_is_pending_not_error(self, tmp_path):
        log = write_lines(
            tmp_path / "log.jsonl",
            [{"kind": "event", "ts": 1.0}],
            torn_tail='{"kind": "run_end", "ts": 2.0, "slo',
        )
        reader = TailReader(log)
        assert len(reader.poll()) == 1
        assert reader.pending
        assert reader.invalid == 0
        # The writer finishes the record: the buffered half joins up.
        with log.open("a", encoding="utf-8") as stream:
            stream.write('ts": 5}\n')
        [completed] = reader.poll()
        assert completed == {"kind": "run_end", "ts": 2.0, "slots": 5}
        assert not reader.pending

    def test_corrupt_complete_line_counts_invalid(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"kind": "event"}\nnot json at all\n', encoding="utf-8")
        reader = TailReader(log)
        assert len(reader.poll()) == 1
        assert reader.invalid == 1

    def test_truncated_and_rewritten_file_restarts(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl",
                          [{"kind": "event", "n": i} for i in range(5)])
        reader = TailReader(log)
        assert len(reader.poll()) == 5
        write_lines(log, [{"kind": "event", "n": 99}])  # rerun over same path
        [record] = reader.poll()
        assert record["n"] == 99

    def test_missing_file_is_just_empty(self, tmp_path):
        reader = TailReader(tmp_path / "nope.jsonl")
        assert reader.poll() == []


class TestFollow:
    def test_follow_yields_appended_records(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl", [{"kind": "event", "n": 0}])

        def append_later():
            time.sleep(0.05)
            with log.open("a", encoding="utf-8") as stream:
                stream.write(json.dumps({"kind": "event", "n": 1}) + "\n")

        writer = threading.Thread(target=append_later)
        writer.start()
        got = list(follow_records(log, poll_interval=0.01, idle_timeout=0.5))
        writer.join()
        assert [r["n"] for r in got] == [0, 1]

    def test_stop_predicate_drains_then_exits(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl", [{"kind": "event", "n": 0}])
        got = list(
            follow_records(log, poll_interval=0.01, stop=lambda: True)
        )
        assert [r["n"] for r in got] == [0]


class TestOneShot:
    def test_read_log_records_skips_torn_tail(self, tmp_path):
        log = write_lines(
            tmp_path / "log.jsonl",
            [{"kind": "event", "n": 0}],
            torn_tail='{"kind": "event", "n"',
        )
        assert [r["n"] for r in read_log_records(log)] == [0]

    def test_read_log_records_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            read_log_records(tmp_path / "nope.jsonl")

    def test_iter_log_records_reads_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        # A 10-byte chunk splits every line: each is decoded once whole.
        monkeypatch.setattr(tail, "CHUNK_BYTES", 10)
        log = write_lines(
            tmp_path / "log.jsonl",
            [{"kind": "event", "n": n} for n in range(5)],
            torn_tail='{"kind": "event", "n"',
        )
        seen = []
        for record in tail.iter_log_records(log):
            seen.append(record["n"])
            # Appended during the pass (a monitor's own alert): not read.
            with log.open("a", encoding="utf-8") as stream:
                stream.write('{"kind": "alert"}\n')
        assert seen == [0, 1, 2, 3, 4]


class TestBatchReadersTolerateTruncation:
    """Satellite: truncate a real log mid-record; nothing may error."""

    def _truncated_log(self, tmp_path):
        from repro.graphs import generators
        from repro.protocols import run_decay_broadcast
        from repro.telemetry import Telemetry, activate

        log = tmp_path / "log.jsonl"
        recorder = Telemetry.to_path(log)
        recorder.write_manifest(command="experiment", seed=0, config={"n": 8})
        with recorder, activate(recorder):
            run_decay_broadcast(generators.line(8), 0, seed=1, epsilon=0.1)
        # Chop the file mid-way through its final record, simulating a
        # reader racing the writer's flush (or a killed campaign).
        data = log.read_bytes().rstrip(b"\n")
        log.write_bytes(data[: len(data) - 7])
        return log

    def test_read_records_drops_only_the_torn_record(self, tmp_path):
        log = self._truncated_log(tmp_path)
        lenient = read_records(log)
        strict = read_records(log, strict=True)  # must not raise
        assert lenient == strict
        assert lenient, "the complete prefix must still decode"

    def test_validate_log_reports_clean(self, tmp_path):
        log = self._truncated_log(tmp_path)
        assert validate_log(log) == []

    def test_tail_reader_buffers_the_same_tail(self, tmp_path):
        log = self._truncated_log(tmp_path)
        reader = TailReader(log)
        records = reader.poll()
        assert records == read_records(log)
        assert reader.pending
        assert reader.invalid == 0


class TestRotation:
    """Satellite regression: a rotated log must be re-opened, not
    silently stalled on a stale offset."""

    def test_rename_away_and_recreate_resets_to_top(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl",
                          [{"kind": "event", "n": i} for i in range(3)])
        reader = TailReader(log)
        assert len(reader.poll()) == 3
        # Rotate: the writer renames the log aside and starts a fresh
        # file at the same path.  The new file is *longer* than the old
        # offset, so a size-only check would misread from mid-record.
        log.rename(tmp_path / "log.jsonl.1")
        write_lines(log, [{"kind": "event", "n": 100 + i} for i in range(5)])
        records = reader.poll()
        assert [r["n"] for r in records] == [100, 101, 102, 103, 104]
        assert reader.rotations == 1

    def test_poll_during_rotation_gap_is_empty_then_recovers(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl", [{"kind": "event", "n": 0}])
        reader = TailReader(log)
        assert len(reader.poll()) == 1
        log.rename(tmp_path / "log.jsonl.1")  # mid-rotation: path missing
        assert reader.poll() == []
        write_lines(log, [{"kind": "event", "n": 1}])
        [record] = reader.poll()
        assert record["n"] == 1

    def test_pending_tail_is_dropped_on_rotation(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl",
                          [{"kind": "event", "n": 0}],
                          torn_tail='{"kind": "event", "n"')
        reader = TailReader(log)
        reader.poll()
        assert reader.pending
        log.rename(tmp_path / "log.jsonl.1")
        write_lines(log, [{"kind": "event", "n": 7}])
        [record] = reader.poll()
        # The old torn half must not be glued onto the new file's bytes.
        assert record["n"] == 7
        assert not reader.pending
        assert reader.invalid == 0

    def test_follow_records_survives_rotation(self, tmp_path):
        log = write_lines(tmp_path / "log.jsonl", [{"kind": "event", "n": 0}])

        def rotate_later():
            time.sleep(0.05)
            log.rename(tmp_path / "log.jsonl.1")
            write_lines(log, [{"kind": "event", "n": 1}])

        writer = threading.Thread(target=rotate_later)
        writer.start()
        got = list(follow_records(log, poll_interval=0.01, idle_timeout=0.5))
        writer.join()
        assert [r["n"] for r in got] == [0, 1]
