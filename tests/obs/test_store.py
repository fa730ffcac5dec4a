"""Run-store schema, idempotent upsert, and query behavior."""

import sqlite3

import pytest

from repro.errors import ExperimentError
from repro.obs import SCHEMA_VERSION, RunStore


def _info(**overrides):
    info = {
        "command": "gap",
        "seed": 1,
        "created": 100.0,
        "git_sha": "abc",
        "host": "h",
        "package_version": "0",
        "config_fingerprint": "cfg",
        "config_json": "{}",
        "source_path": "x.jsonl",
        "records": 10,
        "ingested_at": 200.0,
    }
    info.update(overrides)
    return info


class TestSchema:
    def test_fresh_store_stamped_with_version(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            (row,) = store.conn.execute("PRAGMA user_version").fetchall()
            assert row["user_version"] == SCHEMA_VERSION

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "runs.db"
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="newer"):
            RunStore(path)

    def test_reopen_existing_store(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            store.upsert_run("f1", _info())
        with RunStore(path) as store:
            assert len(store.runs()) == 1


class TestUpsert:
    def test_insert_then_replace_keeps_id(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            run_id, replaced = store.upsert_run("f1", _info())
            assert not replaced
            store.add_metrics(run_id, {"slots": 5.0})
            store.add_series(run_id, "s", [(0, 1.0)])
            store.add_phases(run_id, [{"proto": "decay", "idx": 0, "count": 1}])
            store.add_provenance(
                run_id,
                [{"slot": 0, "node": "1", "outcome": "silence", "tx": []}],
            )
            run_id2, replaced2 = store.upsert_run("f1", _info(records=20))
            assert replaced2
            assert run_id2 == run_id  # id is stable across re-ingest
            # re-ingest dropped all prior child rows
            assert store.metrics_for(run_id) == {}
            assert store.series_for(run_id, "s") == []
            assert store.phases_for(run_id) == []
            assert store.provenance_count(run_id) == 0
            assert store.runs()[0]["records"] == 20

    def test_distinct_fingerprints_distinct_rows(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            a, _ = store.upsert_run("f1", _info(created=1.0))
            b, _ = store.upsert_run("f2", _info(created=2.0))
            assert a != b
            assert len(store.runs()) == 2


class TestResolve:
    def test_latest_prev_id_and_prefix(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            a, _ = store.upsert_run("aaaa1111", _info(created=1.0))
            b, _ = store.upsert_run("bbbb2222", _info(created=2.0))
            assert store.resolve_run("latest")["id"] == b
            assert store.resolve_run("prev")["id"] == a
            assert store.resolve_run(str(a))["id"] == a
            assert store.resolve_run("bbbb")["id"] == b

    def test_empty_store_errors(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            with pytest.raises(ExperimentError, match="empty"):
                store.resolve_run("latest")

    def test_prev_requires_two(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            store.upsert_run("f1", _info())
            with pytest.raises(ExperimentError, match="previous"):
                store.resolve_run("prev")

    def test_unknown_and_ambiguous_prefixes(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            store.upsert_run("aaaa1111", _info(created=1.0))
            store.upsert_run("aaaa2222", _info(created=2.0))
            with pytest.raises(ExperimentError, match="no run"):
                store.resolve_run("zzzz")
            with pytest.raises(ExperimentError, match="ambiguous"):
                store.resolve_run("aaaa")


class TestProvenanceQueries:
    def test_lookup_by_engine_run(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            run_id, _ = store.upsert_run("f1", _info())
            store.add_provenance(
                run_id,
                [
                    {"engine_run": "r1", "slot": 3, "node": "v",
                     "outcome": "collision", "tx": ["a", "b"]},
                    {"engine_run": "r2", "slot": 3, "node": "v",
                     "outcome": "delivered", "tx": ["a"]},
                ],
            )
            both = store.provenance_at(run_id, "v", 3)
            assert len(both) == 2
            only_r2 = store.provenance_at(run_id, "v", 3, "r2")
            assert len(only_r2) == 1
            assert only_r2[0]["outcome"] == "delivered"
            assert store.provenance_count(run_id) == 2
            assert [e["slot"] for e in store.provenance_for_node(run_id, "v")] == [3, 3]


class TestBench:
    def test_bench_points_idempotent_and_ordered(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            p1 = {"schema": "repro-bench-engine/1", "recorded": 2.0,
                  "combined_slots_per_sec": 100.0}
            p2 = {"schema": "repro-bench-engine/1", "recorded": 1.0,
                  "combined_slots_per_sec": 90.0}
            assert store.add_bench_point("b1", p1)
            assert store.add_bench_point("b2", p2)
            assert not store.add_bench_point("b1", p1)  # duplicate ignored
            points = store.bench_points()
            assert [p["combined_slots_per_sec"] for p in points] == [90.0, 100.0]


class TestTrendOrdering:
    def test_metric_trend_orders_by_created(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            # Inserted out of chronological order on purpose.
            b, _ = store.upsert_run("f2", _info(created=2.0))
            a, _ = store.upsert_run("f1", _info(created=1.0))
            store.add_metrics(a, {"slots_per_sec": 10.0})
            store.add_metrics(b, {"slots_per_sec": 20.0})
            trend = store.metric_trend("slots_per_sec")
            assert [row["value"] for row in trend] == [10.0, 20.0]


class TestConcurrentIngest:
    """Satellite: the run store serves simultaneous writers — WAL mode,
    a busy timeout, and an idempotent write-locked upsert."""

    def test_wal_mode_and_busy_timeout(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            (mode,) = store.conn.execute("PRAGMA journal_mode").fetchone().values()
            assert mode == "wal"
            (timeout,) = store.conn.execute("PRAGMA busy_timeout").fetchone().values()
            assert timeout >= 1000

    def test_two_simultaneous_writers_upsert_one_row(self, tmp_path):
        import threading

        path = tmp_path / "runs.db"
        barrier = threading.Barrier(2)
        outcomes = {}

        def ingest(name):
            with RunStore(path) as store:
                barrier.wait()  # maximize the race on the existence check
                for _ in range(5):
                    outcomes[name] = store.upsert_run("same-fp", _info())

        threads = [
            threading.Thread(target=ingest, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        with RunStore(path) as store:
            rows = store.conn.execute(
                "SELECT id FROM runs WHERE fingerprint = 'same-fp'"
            ).fetchall()
            assert len(rows) == 1  # exactly one run row survived the race
        # Both writers finished (no "database is locked" escape).
        assert set(outcomes) == {"t0", "t1"}

    def test_opens_while_another_connection_holds_the_write_lock(self, tmp_path):
        """Switching a fresh file to WAL needs the write lock, which
        SQLite refuses at once, without its busy handler, while another
        connection holds it: the store must wait for it instead."""
        import threading
        import time

        path = tmp_path / "runs.db"
        holder = sqlite3.connect(str(path), check_same_thread=False)
        holder.execute("CREATE TABLE other (x)")
        holder.commit()
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("INSERT INTO other VALUES (1)")
        release = threading.Timer(0.3, holder.commit)
        release.start()
        try:
            start = time.monotonic()
            with RunStore(path) as store:
                (mode,) = store.conn.execute("PRAGMA journal_mode").fetchone().values()
            waited = time.monotonic() - start
        finally:
            release.join(timeout=5)
            holder.close()
        assert not release.is_alive()
        assert mode == "wal"
        assert waited >= 0.25

    def test_concurrent_writers_across_processes(self, tmp_path):
        import subprocess
        import sys

        path = tmp_path / "runs.db"
        script = (
            "import sys\n"
            "from repro.obs import RunStore\n"
            "info = {'command': 'gap', 'seed': 1, 'created': 100.0,\n"
            "        'git_sha': 'abc', 'host': 'h', 'package_version': '0',\n"
            "        'config_fingerprint': 'cfg', 'config_json': '{}',\n"
            "        'source_path': 'x.jsonl', 'records': 10,\n"
            "        'ingested_at': 200.0}\n"
            "with RunStore(sys.argv[1]) as store:\n"
            "    for _ in range(20):\n"
            "        store.upsert_run('same-fp', info)\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(path)])
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0

        with RunStore(path) as store:
            rows = store.conn.execute(
                "SELECT id FROM runs WHERE fingerprint = 'same-fp'"
            ).fetchall()
        assert len(rows) == 1
