"""Campaign telemetry from :func:`repro.parallel.resilient_map`.

The invariants: telemetry never changes results or journal contents;
serial and pool paths both emit schema-valid campaign/chunk/progress
records; pool workers' own events are shipped back and merged into the
parent's stream tagged with their chunk index.
"""

import json

import pytest

from repro.parallel import resilient_map
from repro.telemetry.core import Telemetry, activate, event, set_active
from repro.telemetry.schema import validate_record


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    previous = set_active(None)
    yield
    set_active(previous)


def _square(x):
    return x * x


def _square_counting(x):
    # Emits through the ambient recorder: in a pool worker this is the
    # buffered per-chunk recorder installed by _run_chunk_timed.
    event("work", item=x)
    return x * x


ITEMS = list(range(12))
EXPECTED = [x * x for x in ITEMS]


class TestSerialCampaign:
    def test_events_and_results(self):
        rec = Telemetry.buffered()
        with activate(rec):
            out = resilient_map(_square, ITEMS, jobs=1, chunksize=4)
        assert out == EXPECTED
        records = rec.drain()
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "campaign_begin"
        assert kinds[-1] == "campaign_end"
        assert kinds.count("chunk") == 3
        assert all(not validate_record(r) for r in records)
        begin = records[0]
        assert begin["items"] == 12 and begin["chunks"] == 3 and begin["jobs"] == 1
        end = records[-1]
        assert end["retries"] == 0 and end["timeouts"] == 0

    def test_heartbeat_every_chunk_at_zero_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS_SECS", "0")
        rec = Telemetry.buffered()
        with activate(rec):
            resilient_map(_square, ITEMS, jobs=1, chunksize=4)
        progress = [r for r in rec.drain() if r["kind"] == "progress"]
        assert len(progress) == 3
        assert [p["done"] for p in progress] == [1, 2, 3]
        assert progress[-1]["done"] == progress[-1]["total"] == 3
        assert all(not validate_record(p) for p in progress)

    def test_final_chunk_always_heartbeats(self):
        rec = Telemetry.buffered()
        with activate(rec):
            resilient_map(_square, ITEMS, jobs=1, chunksize=4)
        progress = [r for r in rec.drain() if r["kind"] == "progress"]
        assert progress and progress[-1]["done"] == 3

    def test_no_recorder_no_events(self):
        assert resilient_map(_square, ITEMS, jobs=1, chunksize=4) == EXPECTED


class TestPoolCampaign:
    def test_chunk_records_carry_worker_details(self):
        rec = Telemetry.buffered()
        with activate(rec):
            out = resilient_map(_square, ITEMS, jobs=2, chunksize=4)
        assert out == EXPECTED
        records = rec.drain()
        chunks = [r for r in records if r["kind"] == "chunk"]
        assert len(chunks) == 3
        assert sorted(c["index"] for c in chunks) == [0, 1, 2]
        for chunk in chunks:
            assert not validate_record(chunk)
            assert chunk["mode"] == "pool"
            assert chunk["queue_s"] >= 0.0
            assert chunk["wall_s"] >= 0.0
            assert chunk["pid"] > 0
            assert chunk["retries"] == 0 and chunk["timeouts"] == 0

    def test_worker_events_shipped_back_and_tagged(self):
        rec = Telemetry.buffered()
        with activate(rec):
            out = resilient_map(_square_counting, ITEMS, jobs=2, chunksize=4)
        assert out == EXPECTED
        records = rec.drain()
        work = [r for r in records if r["kind"] == "work"]
        assert len(work) == 12  # one per item, emitted inside workers
        assert {w["chunk"] for w in work} == {0, 1, 2}
        assert sorted(w["item"] for w in work) == ITEMS

    def test_results_identical_with_and_without_telemetry(self):
        plain = resilient_map(_square, ITEMS, jobs=2, chunksize=4)
        rec = Telemetry.buffered()
        with activate(rec):
            instrumented = resilient_map(_square, ITEMS, jobs=2, chunksize=4)
        assert plain == instrumented == EXPECTED

    def test_journal_contents_unchanged_by_telemetry(self, tmp_path):
        plain_journal = tmp_path / "plain.jsonl"
        instrumented_journal = tmp_path / "instrumented.jsonl"
        resilient_map(_square, ITEMS, jobs=2, chunksize=4, journal=plain_journal)
        rec = Telemetry.buffered()
        with activate(rec):
            resilient_map(
                _square, ITEMS, jobs=2, chunksize=4, journal=instrumented_journal
            )
        def chunk_lines(path):
            return [
                line
                for line in path.read_text().splitlines()
                if json.loads(line).get("kind") == "chunk"
            ]
        assert chunk_lines(plain_journal) == chunk_lines(instrumented_journal)

    def test_resumed_campaign_reports_restored_chunks(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        resilient_map(_square, ITEMS, jobs=1, chunksize=4, journal=journal)
        rec = Telemetry.buffered()
        with activate(rec):
            out = resilient_map(
                _square, ITEMS, jobs=1, chunksize=4, journal=journal, resume=True
            )
        assert out == EXPECTED
        begin = [r for r in rec.drain() if r["kind"] == "campaign_begin"][0]
        assert begin["resumed_chunks"] == 3
