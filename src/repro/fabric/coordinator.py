"""The fabric coordinator: register the campaign, run the workers,
splice the survivors' commits.

``run_fabric`` is what ``python -m repro fabric run`` executes: it pins
the campaign (spec + params → fingerprint + chunk geometry) in the
lease store, forks N worker processes, then supervises — draining the
store's event log into telemetry as it goes — until every chunk is
committed.  Each forked worker runs the ``python -m repro fabric
worker`` command line in-process (:func:`repro.cli.main`), from the
state a fresh interpreter would give it (see :func:`_worker_child`),
so it skips the interpreter start and the imports the coordinator has
already paid for; before the first fork the coordinator also builds
what every worker's start-up would rebuild (:func:`_warm_fork`).  Each
worker holds the write end of an exit pipe, so the coordinator sleeps
in ``select`` until a worker exits (on any path, SIGKILL included),
SIGTERM drains it, or ``poll_interval`` passes for the next round of
event forwarding.  Dead workers are simply reaped: their leases
expire and the survivors take the chunks over.  If *every* worker dies
with chunks still open (a fault plan can arrange that), the coordinator
degrades to running the worker loop in-process, so the campaign still
completes.

The splice is byte-identical to a serial run by construction: chunk
payloads are ``base64(pickle(results))`` of deterministic functions of
the chunk items, reassembled in index order.  With ``journal=`` the
coordinator also writes a :class:`repro.campaign.CampaignJournal` from
the committed payloads — the same bytes ``resilient_map`` would have
journaled, so pool and fabric checkpoints are interchangeable.

SIGTERM drains gracefully: workers get SIGTERM (finish the chunk in
flight, then exit), and the coordinator raises instead of returning a
partial splice.
"""

from __future__ import annotations

import contextlib
import logging
import os
import select
import signal
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NoReturn

import repro
from repro.campaign import CampaignJournal, decode_chunk, plan_campaign, splice
from repro.errors import ExperimentError
from repro.fabric.faultplan import FaultPlan
from repro.fabric.specs import FabricSpec, resolve_spec
from repro.fabric.store import LeaseReplay, LeaseStore, store_event_record
from repro.fabric.worker import (
    Drain,
    WorkerConfig,
    drain_on_sigterm,
    run_worker,
    worker_args,
)
from repro.perf import core as perf_core
from repro.telemetry import get_active, set_active
from repro.telemetry.core import host_facts

__all__ = ["FabricConfig", "FabricResult", "run_fabric"]

logger = logging.getLogger("repro.fabric.coordinator")


@dataclass
class FabricConfig:
    """One fabric campaign: what to run, with how many workers, and
    which harness faults to inject while it runs.  Each worker's
    stdout/stderr goes to ``<store>.<worker>.log``."""

    spec: str
    params: dict[str, Any] = field(default_factory=dict)
    store: str | os.PathLike[str] = "fabric.db"
    workers: int = 3
    chunksize: int | None = None
    lease_ttl: float = 5.0
    poll_interval: float = 0.1
    stale_timeout: float = 30.0
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    journal: str | os.PathLike[str] | None = None
    #: Overall campaign deadline (seconds); exceeded ⇒ terminate + raise.
    timeout: float = 300.0
    install_signal_handler: bool = True
    #: Give each worker its own telemetry log
    #: (``<store>.<worker>.telemetry.jsonl``): the worker lanes of the
    #: merged Chrome trace.
    worker_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {self.workers}")


@dataclass
class FabricResult:
    """What a completed fabric campaign produced, and how it got there."""

    results: list[Any]
    fingerprint: str
    chunks: int
    chunksize: int
    workers: list[str]
    wall_s: float
    takeovers: int
    fence_rejects: int
    worker_exits: dict[str, int | None]
    events: list[dict[str, Any]]
    journal: Path | None = None
    worker_logs: dict[str, Path] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"fabric campaign {self.fingerprint[:12]}: {self.chunks} chunks "
            f"spliced from {len(self.workers)} worker(s) in {self.wall_s:.1f}s "
            f"(takeovers={self.takeovers}, fence_rejects={self.fence_rejects})"
        )


def _worker_ids(count: int) -> list[str]:
    return [f"w{index}" for index in range(count)]


class _ForkedWorker:
    """A forked worker process, with the part of ``subprocess.Popen``'s
    interface the supervision loop uses.  ``returncode`` is ``-N`` for a
    worker killed by signal N.

    ``exit_fd`` is the read end of the worker's exit pipe: it turns
    readable (end of file) when the worker exits, and is closed (and
    set to ``None``) once the worker is reaped or the pipe has closed.
    """

    def __init__(self, pid: int, exit_fd: int) -> None:
        self.pid = pid
        self.exit_fd: int | None = exit_fd
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self._reaped(status)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Reap the worker; raise ``TimeoutError`` after ``timeout`` s."""
        if timeout is None:
            if self.returncode is None:
                _, status = os.waitpid(self.pid, 0)
                self._reaped(status)
            return self.returncode
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"worker pid {self.pid} still running")
            if self.exit_fd is not None:
                if select.select([self.exit_fd], [], [], remaining)[0]:
                    # The worker is exiting; it becomes reapable a moment
                    # after its pipe closes, so poll the rest of the way.
                    self._close_exit_fd()
                continue
            delay = min(delay * 2, remaining, 0.05)
            time.sleep(delay)
        return self.returncode

    def _reaped(self, status: int) -> None:
        self.returncode = os.waitstatus_to_exitcode(status)
        self._close_exit_fd()

    def _close_exit_fd(self) -> None:
        if self.exit_fd is not None:
            os.close(self.exit_fd)
            self.exit_fd = None

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        if self.returncode is None:  # a reaped pid may belong to another process
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass


def _warm_fork() -> None:
    """Build, once per coordinator process and before it forks, what
    every worker's start-up would otherwise rebuild: the CLI parser and
    the manifest's host facts (both cached)."""
    from repro.cli import build_parser

    build_parser()
    host_facts()


def _fork_worker(args: list[str], env: dict[str, str], log_path: Path) -> _ForkedWorker:
    """Fork a worker running ``python -m repro <args>`` in-process, its
    stdout and stderr on ``log_path``.  The caller must hold no SQLite
    connection: none may cross a fork."""
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    exit_fd, exit_write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    # SIGTERM stays blocked until the child has put back the default
    # handler: the coordinator's own would set the coordinator's drain,
    # whose pipe the child shares.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        pid = os.fork()
        if pid == 0:
            _worker_child(args, env, log_fd, mask)  # holds exit_write_fd until it exits
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(log_fd)
        os.close(exit_write_fd)
    return _ForkedWorker(pid, exit_fd)


def _worker_child(
    args: list[str], env: dict[str, str], log_fd: int, mask: Iterable[int]
) -> NoReturn:
    """The forked worker: start from what an exec'd ``python -m repro``
    starts with (signal mask ``mask``), run the command, and exit
    without ever returning into the caller's frames."""
    code = 1
    try:
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.close(log_fd)
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
        os.environ.clear()
        os.environ.update(env)
        # The run manifest records sys.argv.
        sys.argv = [str(Path(repro.__file__).with_name("__main__.py")), *args]
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        root = logging.getLogger()
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.setLevel(logging.WARNING)
        # The coordinator's recorder and perf session came across the
        # fork but are not this process's; their sampler thread did not.
        set_active(None)
        perf_core.set_active(None)
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        from repro.cli import main

        code = main(args)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _await_exit(procs: Iterable[_ForkedWorker], drain: Drain, timeout: float) -> None:
    """Sleep until a worker exits, ``drain`` is set, or ``timeout``
    seconds pass; reap the workers that exited."""
    watched = {proc.exit_fd: proc for proc in procs if proc.exit_fd is not None}
    ready = select.select([drain.fileno(), *watched], [], [], timeout)[0]
    for fd in ready:
        if fd in watched:
            with contextlib.suppress(TimeoutError):
                watched[fd].wait(timeout)


def _forward_events(
    store: LeaseStore,
    campaign_id: int,
    events: list[dict[str, Any]],
    replay: LeaseReplay,
) -> None:
    """Drain new store events into ``events`` (ordered by id) and
    ``replay``, and mirror them into active telemetry."""
    after_id = int(events[-1]["id"]) if events else 0
    fresh = store.events(campaign_id, after_id=after_id)
    events.extend(fresh)
    recorder = get_active()
    for event in fresh:
        # One shared translation (the monitor's store input uses the
        # same one), so the live view and the forwarded log never drift.
        record = store_event_record(event)
        replay.feed(record)
        if recorder is not None:
            fields = dict(record)
            kind = fields.pop("kind")
            fields["store_ts"] = fields.pop("ts")
            recorder.emit(kind, **fields)


def run_fabric(config: FabricConfig) -> FabricResult:
    """Run one campaign across forked worker processes; return the splice."""
    started = time.perf_counter()
    spec: FabricSpec = resolve_spec(config.spec, config.params)
    plan = plan_campaign(
        spec.fn, spec.items, jobs=max(1, config.workers), chunksize=config.chunksize
    )
    fingerprint = plan.fingerprint
    num_chunks = len(plan.chunks)
    worker_ids = _worker_ids(config.workers)

    planned = config.fault_plan.faulted_workers()
    unknown = planned - set(worker_ids)
    if unknown:
        raise ExperimentError(
            f"fault plan targets unknown worker(s) {sorted(unknown)}; "
            f"this fabric runs {worker_ids or ['<in-process only>']}"
        )

    store_path = Path(config.store)
    # Closed before the workers fork and reopened after: no SQLite
    # connection may cross a fork.
    with LeaseStore(store_path) as store:
        campaign_id = store.create_campaign(
            fingerprint,
            spec=config.spec,
            params=config.params,
            items=len(spec.items),
            chunksize=plan.chunksize,
        )

    recorder = get_active()
    # The drain handler lives as long as this call: the caller's SIGTERM
    # handler is put back on return and on raise.
    with drain_on_sigterm(config.install_signal_handler) as drain:
        if recorder is not None:
            recorder.emit(
                "fabric_begin",
                spec=config.spec,
                workers=config.workers,
                chunks=num_chunks,
                chunksize=plan.chunksize,
                fingerprint=fingerprint,
                fault_plan=config.fault_plan.spec() or None,
            )

        procs: dict[str, _ForkedWorker] = {}
        exits: dict[str, int | None] = {}
        worker_logs: dict[str, Path] = {}
        env = dict(os.environ)
        # Performance plane: a session activated programmatically (not
        # via the CLI's REPRO_PERF env save/restore) still reaches the
        # workers — each samples itself and ships perf records via its
        # telemetry log.
        perf_session = perf_core.get_active()
        if perf_session is not None:
            perf_session.to_env(env)
        store = None
        try:
            if worker_ids:
                _warm_fork()
            for worker_id in worker_ids:
                worker_config = WorkerConfig(
                    store=store_path,
                    campaign=fingerprint,
                    worker_id=worker_id,
                    lease_ttl=config.lease_ttl,
                    poll_interval=config.poll_interval,
                    fault_plan=config.fault_plan,
                    stale_timeout=config.stale_timeout,
                )
                if config.worker_telemetry:
                    worker_config.telemetry = store_path.with_name(
                        f"{store_path.name}.{worker_id}.telemetry.jsonl"
                    )
                    worker_logs[worker_id] = Path(worker_config.telemetry)
                procs[worker_id] = _fork_worker(
                    worker_args(worker_config),
                    env,
                    store_path.with_name(f"{store_path.name}.{worker_id}.log"),
                )
            store = LeaseStore(store_path)
            events: list[dict[str, Any]] = []
            replay = LeaseReplay()
            deadline = time.monotonic() + config.timeout
            fallback_ran = False
            while True:
                _forward_events(store, campaign_id, events, replay)
                if store.all_done(campaign_id):
                    break
                if drain.is_set():
                    for proc in procs.values():
                        if proc.poll() is None:
                            proc.terminate()
                    raise ExperimentError(
                        "fabric drained (SIGTERM) before the campaign completed; "
                        f"chunk states: {store.counts(campaign_id)}"
                    )
                if time.monotonic() > deadline:
                    raise ExperimentError(
                        f"fabric campaign exceeded its {config.timeout:g}s "
                        f"deadline; chunk states: {store.counts(campaign_id)}"
                    )
                for worker_id, proc in procs.items():
                    code = proc.poll()
                    if code is not None and worker_id not in exits:
                        exits[worker_id] = code
                        logger.info("fabric worker %s exited with %d", worker_id, code)
                live = [w for w, p in procs.items() if p.poll() is None]
                if not live and not store.all_done(campaign_id):
                    # Every worker is gone with work still open.  The
                    # campaign must still finish: run the worker loop
                    # right here (no faults — the plan addressed the
                    # dead ones).
                    logger.warning(
                        "all %d fabric worker(s) exited with chunks open; "
                        "finishing in-process",
                        len(procs) or 0,
                    )
                    fallback_ran = True
                    run_worker(
                        WorkerConfig(
                            store=store_path,
                            campaign=fingerprint,
                            worker_id="coordinator",
                            lease_ttl=config.lease_ttl,
                            poll_interval=config.poll_interval,
                            install_signal_handler=False,
                        )
                    )
                    continue
                _await_exit(procs.values(), drain, config.poll_interval)

            # Campaign complete: drain the stragglers (they also notice
            # all_done on their own) and collect exit codes.  Only a
            # worker the replay shows live, inside its claim loop, gets
            # SIGTERM: one that has not logged worker_start sees all_done
            # at its first poll, one that has logged worker_exit is
            # already on its way out, and a killed one is gone.
            _forward_events(store, campaign_id, events, replay)
            for worker_id, proc in procs.items():
                ledger = replay.workers.get(worker_id)
                if ledger is not None and ledger.state == "live" and proc.poll() is None:
                    proc.terminate()
            for worker_id, proc in procs.items():
                try:
                    exits[worker_id] = proc.wait(timeout=10.0)
                except TimeoutError:
                    proc.kill()
                    exits[worker_id] = proc.wait()
            _forward_events(store, campaign_id, events, replay)

            payloads = store.completed_payloads(campaign_id)
            chunk_results = {
                index: decode_chunk(payload) for index, payload in payloads.items()
            }
            results = splice(
                num_chunks, chunk_results, where=f"fabric campaign {fingerprint[:12]}"
            )

            journal_path: Path | None = None
            if config.journal is not None:
                # Replay the commits through the campaign journal so the
                # file is byte-identical to a resilient_map checkpoint.
                journal = CampaignJournal(config.journal)
                journal.start(
                    fingerprint, len(spec.items), plan.chunksize, resume=False
                )
                for index in range(num_chunks):
                    journal.record_chunk(index, chunk_results[index])
                journal_path = journal.path

            wall_s = time.perf_counter() - started
            if recorder is not None:
                recorder.emit(
                    "fabric_end",
                    chunks=num_chunks,
                    wall_s=wall_s,
                    takeovers=replay.takeovers,
                    fence_rejects=replay.fence_rejects,
                    fallback=fallback_ran,
                )
            return FabricResult(
                results=results,
                fingerprint=fingerprint,
                chunks=num_chunks,
                chunksize=plan.chunksize,
                workers=worker_ids + (["coordinator"] if fallback_ran else []),
                wall_s=wall_s,
                takeovers=replay.takeovers,
                fence_rejects=replay.fence_rejects,
                worker_exits=exits,
                events=events,
                journal=journal_path,
                worker_logs=worker_logs,
            )
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if store is not None:
                store.close()
