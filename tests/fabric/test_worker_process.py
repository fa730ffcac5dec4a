"""The worker as a process: forked by the coordinator, or started on
its own as ``python -m repro fabric worker``.

A forked worker must start from what an exec'd one starts with: its
own stdout/stderr log, telemetry log and manifest, and none of the
coordinator's records, handlers or frames.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.cli import main
from repro.fabric import worker as worker_module
from repro.fabric.coordinator import FabricConfig, _fork_worker, run_fabric
from repro.fabric.store import LeaseStore
from repro.fabric.worker import WorkerConfig, worker_args
from tests.fabric.test_worker import _register, _results


def _records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _wait_for_event(store_path, cid, kind, timeout=20.0):
    deadline = time.monotonic() + timeout
    with LeaseStore(store_path) as store:
        while time.monotonic() < deadline:
            events = [e for e in store.events(cid) if e["kind"] == kind]
            if events:
                return events
            time.sleep(0.01)
    raise AssertionError(f"no {kind} event within {timeout}s")


def test_drained_idle_worker_exits_at_once(tmp_path):
    """SIGTERM cuts an idle worker's backoff wait short: a worker whose
    peer holds the only open lease leaves within 0.3 s, drained."""
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=3, chunksize=3)
    with LeaseStore(path) as store:
        assert store.claim(cid, "peer", ttl=60.0) is not None
    config = WorkerConfig(
        store=path, campaign=fingerprint, worker_id="idle", poll_interval=2.0
    )
    proc = _fork_worker(worker_args(config), dict(os.environ), tmp_path / "idle.log")
    try:
        _wait_for_event(path, cid, "worker_start")
        time.sleep(0.2)  # past its first claim attempt, into the wait
        sent = time.monotonic()
        proc.terminate()
        assert proc.wait(timeout=5.0) == 0
        assert time.monotonic() - sent < 0.3
    finally:
        proc.kill()
        proc.wait()
    (exit_event,) = _wait_for_event(path, cid, "worker_exit")
    assert exit_event["detail"].startswith("drained, ")


def _sigterm_inside_the_drain_wait():
    """A ``sys.settrace`` hook: on the worker loop's first wait on its
    drain, raise SIGTERM from inside that wait, at its second line (a
    ``threading.Event`` holds its lock there) or, if it has one line,
    as it returns."""
    lines = 0

    def inside(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        if lines == 2 or event == "return":
            lines = -1  # sent: trace no further
            os.kill(os.getpid(), signal.SIGTERM)
            return None
        return inside

    def hook(frame, event, arg):
        if lines < 0 or event != "call" or frame.f_code.co_name != "wait":
            return None
        if frame.f_back is None or frame.f_back.f_code.co_name != "_work":
            return None
        return inside

    return hook


def test_sigterm_inside_the_drain_wait_drains_the_worker(tmp_path):
    """The SIGTERM handler runs on the main thread between any two
    bytecodes, here inside the idle worker's own wait on the drain; it
    must still drain the worker, not block on a lock its thread holds."""
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=3, chunksize=3)
    with LeaseStore(path) as store:
        assert store.claim(cid, "peer", ttl=60.0) is not None
    config = WorkerConfig(
        store=path, campaign=fingerprint, worker_id="idle", poll_interval=0.05
    )
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            sys.settrace(_sigterm_inside_the_drain_wait())
            code = worker_module.run_worker(config)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        reaped, status = os.waitpid(pid, os.WNOHANG)
        if reaped:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise AssertionError("the worker hung in its SIGTERM handler")
    assert os.waitstatus_to_exitcode(status) == 0
    (exit_event,) = _wait_for_event(path, cid, "worker_exit")
    assert exit_event["detail"].startswith("drained, ")


def test_cli_worker_process_runs_a_registered_campaign(tmp_path):
    """``python -m repro fabric worker`` stays a working entry point of
    its own, in a fresh interpreter."""
    path = tmp_path / "l.db"
    fingerprint, cid = _register(path, n=12, chunksize=3)
    log = tmp_path / "w.telemetry.jsonl"
    config = WorkerConfig(
        store=path, campaign=fingerprint, worker_id="solo", poll_interval=0.01,
        telemetry=log,
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *worker_args(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _results(path, cid) == [x * x for x in range(12)]
    manifest = _records(log)[0]
    assert manifest["kind"] == "manifest"
    assert manifest["command"] == "fabric worker"


def test_forked_workers_start_clean(tmp_path):
    """A forked worker's telemetry is its own: its manifest records the
    ``fabric worker`` command line, and the coordinator's log holds
    none of the workers' records."""
    store = tmp_path / "fab.db"
    coordinator_log = tmp_path / "coord.jsonl"
    code = main([
        "fabric", "run", "--spec", "chaos", "--param", "n=16", "--param", "reps=4",
        "--param", "master_seed=3", "--workers", "2", "--store", str(store),
        "--telemetry", str(coordinator_log), "--worker-telemetry",
    ])
    assert code == 0
    records = _records(coordinator_log)
    kinds = {record["kind"] for record in records}
    assert not kinds & {"phase", "chaos_trial"}, kinds
    (begin,) = [record for record in records if record["kind"] == "fabric_begin"]
    for worker_id in ("w0", "w1"):
        worker_log = tmp_path / f"fab.db.{worker_id}.telemetry.jsonl"
        manifest = _records(worker_log)[0]
        assert manifest["command"] == "fabric worker"
        assert manifest["pid"] != os.getpid()
        assert manifest["argv"][1:] == worker_args(WorkerConfig(
            store=store, campaign=begin["fingerprint"], worker_id=worker_id,
            lease_ttl=2.0, telemetry=worker_log,
        ))


def test_failing_forked_worker_logs_its_traceback(tmp_path, capfd, monkeypatch):
    """A worker whose command raises exits non-zero, its traceback on
    its own log; its peer finishes the campaign."""
    real_run_worker = worker_module.run_worker

    def run_worker(config):
        if config.worker_id == "w1":
            raise RuntimeError("worker w1 failed on purpose")
        return real_run_worker(config)

    monkeypatch.setattr(worker_module, "run_worker", run_worker)
    result = run_fabric(FabricConfig(
        spec="squares", params={"n": 12}, store=tmp_path / "f.db", workers=2,
        install_signal_handler=False, timeout=120.0,
    ))
    assert result.results == [x * x for x in range(12)]
    assert result.worker_exits == {"w0": 0, "w1": 1}
    worker_log = (tmp_path / "f.db.w1.log").read_text()
    assert "Traceback" in worker_log
    assert "RuntimeError: worker w1 failed on purpose" in worker_log
    captured = capfd.readouterr()
    assert "failed on purpose" not in captured.out + captured.err


def test_sigkilled_forked_worker_reads_minus_nine(tmp_path):
    config = WorkerConfig(
        store=tmp_path / "none.db", campaign="0" * 64, worker_id="w0",
        campaign_wait=30.0,
    )
    proc = _fork_worker(worker_args(config), dict(os.environ), tmp_path / "w0.log")
    proc.kill()
    assert proc.wait(timeout=10.0) == -signal.SIGKILL
    assert proc.poll() == -signal.SIGKILL


def test_in_process_worker_puts_the_sigterm_handler_back(tmp_path, monkeypatch):
    """`fabric worker` run in-process leaves the caller's SIGTERM handler
    as it found it, here on the early return for a missing campaign."""
    import functools

    monkeypatch.setattr(worker_module, "WorkerConfig", functools.partial(
        worker_module.WorkerConfig, campaign_wait=0.05))
    before = signal.getsignal(signal.SIGTERM)
    code = main(["fabric", "worker", "--store", str(tmp_path / "s.db"),
                 "--campaign", "abc", "--worker-id", "w0",
                 "--poll-interval", "0.01"])
    assert code == 2
    assert signal.getsignal(signal.SIGTERM) == before
