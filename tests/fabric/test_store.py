"""Tests for the lease store (:mod:`repro.fabric.store`): grants,
takeovers, heartbeats, and above all the fencing-token commit rule."""

import sqlite3
import threading
import time

import pytest

from repro.errors import ExperimentError
from repro.fabric.store import LeaseReplay, LeaseStore


def _campaign(store, *, items=12, chunksize=3, fingerprint="f" * 64):
    return store.create_campaign(
        fingerprint, spec="squares", params={"n": items}, items=items,
        chunksize=chunksize,
    )


class TestCampaignRegistration:
    def test_create_seeds_chunk_rows(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=10, chunksize=3)
            assert store.counts(cid) == {"pending": 4}
            assert not store.all_done(cid)

    def test_create_is_idempotent_resume(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store)
            lease = store.claim(cid, "w0", ttl=60)
            store.commit(lease, "w0", "payload0")
            assert _campaign(store) == cid
            # The done chunk survived the re-registration.
            assert store.counts(cid)["done"] == 1

    def test_geometry_mismatch_refuses_resume(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            _campaign(store, items=12, chunksize=3)
            with pytest.raises(ExperimentError, match="different geometry"):
                _campaign(store, items=12, chunksize=4)

    def test_wal_mode_and_busy_timeout(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            (mode,) = store.conn.execute("PRAGMA journal_mode").fetchone().values()
            assert mode == "wal"
            (timeout,) = store.conn.execute("PRAGMA busy_timeout").fetchone().values()
            assert timeout >= 1000


class TestLeases:
    def test_claim_grants_lowest_chunk_with_fence_1(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store)
            lease = store.claim(cid, "w0", ttl=60)
            assert (lease.index, lease.fence) == (0, 1)
            assert store.claim(cid, "w1", ttl=60).index == 1

    def test_live_leases_are_not_reclaimable(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)  # one chunk
            assert store.claim(cid, "w0", ttl=60) is not None
            assert store.claim(cid, "w1", ttl=60) is None

    def test_expired_lease_is_taken_over_with_bumped_fence(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            stale = store.claim(cid, "w0", ttl=60, now=1000.0)
            fresh = store.claim(cid, "w1", ttl=60, now=2000.0)  # ttl expired
            assert fresh.index == stale.index
            assert fresh.fence == stale.fence + 1
            kinds = [e["kind"] for e in store.events(cid)]
            assert kinds == ["claim", "takeover"]

    def test_heartbeat_extends_live_lease(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            lease = store.claim(cid, "w0", ttl=10, now=1000.0)
            assert store.heartbeat(lease, "w0", ttl=10, now=1005.0)
            # Still held at what would have been past the original expiry.
            assert store.claim(cid, "w1", ttl=10, now=1012.0) is None

    def test_heartbeat_returns_false_after_takeover(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            stale = store.claim(cid, "w0", ttl=10, now=1000.0)
            store.claim(cid, "w1", ttl=10, now=2000.0)
            assert not store.heartbeat(stale, "w0", ttl=10, now=2001.0)


class TestFencing:
    def test_commit_under_current_fence_lands(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            lease = store.claim(cid, "w0", ttl=60)
            assert store.commit(lease, "w0", "payload")
            assert store.all_done(cid)
            assert store.completed_payloads(cid) == {0: "payload"}

    def test_superseded_fence_commit_is_rejected(self, tmp_path):
        """The acceptance criterion: no chunk is ever committed under
        an expired fencing token."""
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            stale = store.claim(cid, "w0", ttl=10, now=1000.0)
            fresh = store.claim(cid, "w1", ttl=10, now=2000.0)
            assert not store.commit(stale, "w0", "STALE DATA")
            assert store.commit(fresh, "w1", "good data")
            assert store.completed_payloads(cid) == {0: "good data"}
            kinds = [e["kind"] for e in store.events(cid)]
            assert kinds == ["claim", "takeover", "fence_reject", "commit"]
            reject = store.events(cid)[2]
            assert reject["worker"] == "w0"
            assert "stale fence" in reject["detail"]

    def test_stale_commit_after_good_commit_is_rejected(self, tmp_path):
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            stale = store.claim(cid, "w0", ttl=10, now=1000.0)
            fresh = store.claim(cid, "w1", ttl=10, now=2000.0)
            assert store.commit(fresh, "w1", "good data")
            assert not store.commit(stale, "w0", "STALE DATA")
            assert store.completed_payloads(cid) == {0: "good data"}

    def test_expired_but_never_superseded_commit_lands(self, tmp_path):
        # Deterministic results make this safe, and it avoids wasting
        # the work: the fence is still current, only the clock moved.
        with LeaseStore(tmp_path / "l.db") as store:
            cid = _campaign(store, items=3, chunksize=3)
            lease = store.claim(cid, "w0", ttl=10, now=1000.0)
            assert store.commit(lease, "w0", "late but unique", now=5000.0)


class TestConcurrency:
    def test_parallel_claims_never_double_grant(self, tmp_path):
        """Many threads, each with its own connection, racing claim():
        every grant must be a distinct (chunk, fence) pair."""
        path = tmp_path / "l.db"
        with LeaseStore(path) as store:
            cid = _campaign(store, items=40, chunksize=2)  # 20 chunks
        grants = []
        lock = threading.Lock()

        def claimer(worker_id):
            with LeaseStore(path) as mine:
                while True:
                    lease = mine.claim(cid, worker_id, ttl=300)
                    if lease is None:
                        return
                    with lock:
                        grants.append((lease.index, lease.fence))

        threads = [
            threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(index for index, _ in grants) == list(range(20))
        assert len(set(grants)) == 20

    def test_opens_while_another_connection_holds_the_write_lock(self, tmp_path):
        """Switching a fresh file to WAL needs the write lock, which
        SQLite refuses at once, without its busy handler, while another
        connection holds it: the store must wait for it instead."""
        path = tmp_path / "l.db"
        holder = sqlite3.connect(str(path), check_same_thread=False)
        holder.execute("CREATE TABLE other (x)")
        holder.commit()
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("INSERT INTO other VALUES (1)")
        release = threading.Timer(0.3, holder.commit)
        release.start()
        try:
            start = time.monotonic()
            with LeaseStore(path) as store:
                (mode,) = store.conn.execute("PRAGMA journal_mode").fetchone().values()
            waited = time.monotonic() - start
        finally:
            release.join(timeout=5)
            holder.close()
        assert not release.is_alive()
        assert mode == "wal"
        assert waited >= 0.25


def _event(kind, worker, idx, fence):
    return {"kind": kind, "worker": worker, "idx": idx, "fence": fence,
            "ts": 1.0, "detail": None}


#: One honest two-chunk run: w1's lease on chunk 1 expires, w0 takes it
#: over, and w1's late commit is fenced out.
CLEAN = [
    _event("claim", "w0", 0, 1),
    _event("claim", "w1", 1, 1),
    _event("commit", "w0", 0, 1),
    _event("takeover", "w0", 1, 2),
    _event("fence_reject", "w1", 1, 1),
    _event("commit", "w0", 1, 2),
]


class TestLeaseReplay:
    """The one fencing replay, on synthetic event lists.  ``verify``'s
    audit reads the same violations through it."""

    def _verify_audit(self, events, chunks=2):
        from repro.fabric.coordinator import FabricResult
        from repro.fabric.verify import _audit_fencing

        return _audit_fencing(FabricResult(
            results=[], fingerprint="f" * 64, chunks=chunks, chunksize=1,
            workers=["w0", "w1"], wall_s=0.0, takeovers=0, fence_rejects=0,
            worker_exits={}, events=events,
        ))

    def test_clean_run_has_no_violations(self):
        replay = LeaseReplay.of_events(CLEAN)
        assert replay.violations == []
        assert replay.uncommitted(2) == []
        assert (replay.takeovers, replay.fence_rejects) == (1, 1)
        assert replay.chunks[1].holder == "w0"
        assert replay.chunks[1].commit["fence"] == 2
        w0, w1 = replay.workers["w0"], replay.workers["w1"]
        assert (w0.claims, w0.takeovers, w0.commits) == (2, 1, 2)
        assert (w1.claims, w1.fence_rejects, w1.holding) == (1, 1, None)
        assert self._verify_audit(CLEAN) == []

    @pytest.mark.parametrize("events, fragment", [
        (CLEAN[:4] + [_event("commit", "w1", 1, 1)],
         "a stale (expired/superseded) token landed data"),
        (CLEAN + [_event("commit", "w0", 1, 2)], "committed twice"),
        (CLEAN[:1] + [_event("claim", "w1", 1, 3)] + CLEAN[2:3]
         + [_event("commit", "w1", 1, 3)], "grant fence jumped 0 -> 3"),
        (CLEAN[:4] + [_event("fence_reject", "w0", 1, 2)]
         + [_event("commit", "w0", 1, 2)], "the store refused legitimate data"),
    ], ids=["stale-fence-commit", "double-commit", "fence-jump",
            "rejected-legitimate-commit"])
    def test_each_fencing_violation_is_caught(self, events, fragment):
        violations = LeaseReplay.of_events(events).violations
        assert any(fragment in v for v in violations), violations
        assert self._verify_audit(events) == violations

    def test_regrant_after_commit_is_a_violation(self):
        events = CLEAN + [_event("claim", "w1", 0, 2)]
        violations = LeaseReplay.of_events(events).violations
        assert violations == [
            "chunk 0: re-granted (fence 2) after it was already committed "
            "at fence 1"
        ]

    def test_uncommitted_chunks_are_reported_and_fail_verify(self):
        events = CLEAN[:3]
        replay = LeaseReplay.of_events(events)
        assert replay.violations == []
        assert replay.uncommitted(3) == [1, 2]
        assert self._verify_audit(events, chunks=3) == [
            "chunk 1: never committed",
            "chunk 2: never committed",
        ]

    def test_takeover_moves_the_holder(self):
        replay = LeaseReplay.of_events(CLEAN[:4])
        assert replay.workers["w1"].holding is None
        assert replay.workers["w0"].holding == 1
        assert replay.chunks[1].holder == "w0"

    def test_worker_records_fold_life_not_leases(self):
        replay = LeaseReplay()
        replay.feed({"kind": "worker", "event": "fault", "worker": "w0",
                     "index": 0, "detail": "kill"})
        replay.feed({"kind": "worker", "event": "worker_exit", "worker": "w1",
                     "detail": "done, committed=0"})
        replay.feed({"kind": "run_end", "ts": 0.0})
        assert replay.events == {} and replay.chunks == {}
        w0, w1 = replay.workers["w0"], replay.workers["w1"]
        assert (w0.claims, w0.faults, w0.last_fault, w0.state) == (0, 1, "kill", "killed")
        assert (w1.state, w1.exit_detail) == ("exited", "done, committed=0")
        assert sorted(replay.workers) == ["w0", "w1"]
