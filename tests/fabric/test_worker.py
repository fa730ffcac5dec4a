"""In-process tests of the worker loop (:mod:`repro.fabric.worker`).

Subprocess orchestration is covered by the e2e suite; here the loop
runs in threads against a shared store file, which exercises claim/
heartbeat/commit and the fault hooks without process overhead.
"""

import threading

from repro.campaign import campaign_fingerprint, decode_chunk
from repro.fabric.faultplan import FaultPlan
from repro.fabric.specs import resolve_spec
from repro.fabric.store import LeaseStore
from repro.fabric.worker import WorkerConfig, run_worker


def _register(store_path, *, n=12, chunksize=3):
    spec = resolve_spec("squares", {"n": n})
    fingerprint = campaign_fingerprint(spec.fn, spec.items)
    with LeaseStore(store_path) as store:
        cid = store.create_campaign(
            fingerprint, spec="squares", params={"n": n}, items=n,
            chunksize=chunksize,
        )
    return fingerprint, cid


def _results(store_path, cid):
    with LeaseStore(store_path) as store:
        payloads = store.completed_payloads(cid)
    flat = []
    for index in sorted(payloads):
        flat.extend(decode_chunk(payloads[index]))
    return flat


def test_solo_worker_completes_campaign(tmp_path):
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=12, chunksize=3)
    code = run_worker(WorkerConfig(
        store=path, campaign=fingerprint, worker_id="w0",
        poll_interval=0.01, install_signal_handler=False,
    ))
    assert code == 0
    assert _results(path, cid) == [x * x for x in range(12)]
    with LeaseStore(path) as store:
        kinds = [e["kind"] for e in store.events(cid)]
    assert kinds.count("commit") == 4
    assert "worker_start" in kinds and "worker_exit" in kinds


def test_missing_campaign_exits_nonzero(tmp_path):
    code = run_worker(WorkerConfig(
        store=tmp_path / "l.db", campaign="0" * 64, worker_id="w0",
        campaign_wait=0.1, poll_interval=0.01, install_signal_handler=False,
    ))
    assert code == 2


def test_stall_without_takeover_still_commits(tmp_path):
    # A stall shorter than the lease TTL is harmless: the heartbeat
    # pause never lets the lease lapse far enough for anyone to act on.
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=6, chunksize=3)
    code = run_worker(WorkerConfig(
        store=path, campaign=fingerprint, worker_id="w0",
        lease_ttl=30.0, poll_interval=0.01, install_signal_handler=False,
        fault_plan=FaultPlan.parse("stall@w0#0=0.2"),
    ))
    assert code == 0
    assert _results(path, cid) == [x * x for x in range(6)]
    with LeaseStore(path) as store:
        kinds = [e["kind"] for e in store.events(cid)]
    assert "fault" in kinds
    assert "fence_reject" not in kinds


def test_stale_commit_is_fenced_out_by_peer(tmp_path):
    """The fencing drill, in-process: a worker computes chunk 0, stops
    heartbeating, and only commits once a peer has superseded it.  The
    store must reject the stale commit; the peer's result must win."""
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=6, chunksize=3)

    def stale_worker():
        run_worker(WorkerConfig(
            store=path, campaign=fingerprint, worker_id="stale",
            lease_ttl=0.4, poll_interval=0.02, stale_timeout=20.0,
            install_signal_handler=False,
            fault_plan=FaultPlan.parse("stale@stale#0"),
        ))

    def healthy_worker():
        run_worker(WorkerConfig(
            store=path, campaign=fingerprint, worker_id="healthy",
            lease_ttl=0.4, poll_interval=0.02,
            install_signal_handler=False,
        ))

    import time

    threads = [
        threading.Thread(target=stale_worker),
        threading.Thread(target=healthy_worker),
    ]
    threads[0].start()
    # Only release the healthy peer once the stale worker holds its
    # lease and has stopped heartbeating (the "waiting to be
    # superseded" fault event) — otherwise a fast peer could finish the
    # whole campaign before the drill is even armed.
    deadline = time.monotonic() + 20
    with LeaseStore(path) as store:
        while time.monotonic() < deadline:
            if any(
                e["kind"] == "fault" and "superseded" in (e["detail"] or "")
                for e in store.events(cid)
            ):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("stale worker never armed its fault")
    threads[1].start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    assert _results(path, cid) == [x * x for x in range(6)]
    with LeaseStore(path) as store:
        events = store.events(cid)
        chunk0 = store.chunk_state(cid, 0)
    kinds = [e["kind"] for e in events]
    assert kinds.count("fence_reject") >= 1
    assert kinds.count("takeover") >= 1
    # Chunk 0 was committed by the healthy worker under the bumped fence.
    assert chunk0["committed_by"] == "healthy"
    assert chunk0["committed_fence"] == chunk0["fence"] >= 2
