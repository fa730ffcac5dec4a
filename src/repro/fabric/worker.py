"""The fabric worker loop: claim → heartbeat → compute → fenced commit.

One worker is one OS process running the ``fabric worker`` command:
forked by the coordinator (``fabric run``), or started on its own as
``python -m repro fabric worker``.  It rebuilds the campaign's ``(fn,
items)`` from the spec registry, then loops: claim a chunk lease from
the shared store, heartbeat from a background thread while computing,
and commit the encoded results under the lease's fencing token.
Everything that can kill it — ``kill -9``, stalls past the lease,
store partitions — is survivable by construction: the lease expires, a
peer takes the chunk over, and the fencing token guarantees the
resurrected worker's late commit is rejected rather than spliced.

Graceful drain: SIGTERM sets a flag; the worker finishes (and
commits) the chunk in flight, then exits 0 without claiming another.
Its waits (idle backoff, the stale-commit poll) wait on that flag, so
a drained idle worker leaves at once.  The flag is a :class:`Drain`
self-pipe, which a signal handler can set at any bytecode.

Fault-plan hooks (:mod:`repro.fabric.faultplan`) fire at deterministic
points — addressed by the worker's *claim ordinal*, not wall time — so
chaos runs are replayable:

* ``kill``      — SIGKILL self right after claiming (lease dies with us);
* ``stall``     — sleep mid-chunk with heartbeats suppressed;
* ``stale``     — compute, then *wait to be superseded* before
  attempting the commit: the canonical fencing-token test;
* ``partition`` — a window in which no store traffic happens
  (heartbeats suppressed, commit deferred past the window).
"""

from __future__ import annotations

import contextlib
import logging
import os
import select
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.campaign import backoff_delay, encode_chunk, plan_campaign, run_chunk
from repro.errors import ExperimentError
from repro.fabric.faultplan import FaultAction, FaultPlan
from repro.fabric.specs import resolve_spec
from repro.fabric.store import Lease, LeaseStore
from repro.fabric.tracectx import TraceContext, traced
from repro.perf import core as perf_core
from repro.rng import derive_seed
from repro.telemetry import get_active

__all__ = ["Drain", "WorkerConfig", "drain_on_sigterm", "run_worker"]

logger = logging.getLogger("repro.fabric.worker")

#: Idle re-poll backoff when peers hold every open lease: seconds before
#: the first re-poll (doubling, seeded jitter), and the ceiling.
_IDLE_BACKOFF_BASE = 0.05
_IDLE_BACKOFF_CAP = 1.0


@dataclass
class WorkerConfig:
    """Everything one worker process needs (all CLI-expressible)."""

    store: str | os.PathLike[str]
    campaign: str  # campaign fingerprint in the lease store
    worker_id: str
    #: Heartbeats extend the lease every ``lease_ttl / 3`` seconds.
    lease_ttl: float = 5.0
    poll_interval: float = 0.1
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    stale_timeout: float = 30.0
    campaign_wait: float = 10.0
    install_signal_handler: bool = True
    #: Per-worker telemetry log (the coordinator points each worker at
    #: ``<store>.<worker>.telemetry.jsonl`` when fleet mode is on).
    telemetry: str | os.PathLike[str] | None = None

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ExperimentError(f"lease_ttl must be positive, got {self.lease_ttl}")


class _Heartbeat(threading.Thread):
    """Extends one lease periodically from its own store connection.

    ``suppress_until`` simulates a worker that stopped talking to the
    store (stall / partition faults): heartbeats are skipped until the
    deadline passes, letting the lease expire while the worker is, in
    fact, alive — exactly the condition fencing tokens exist for.
    """

    def __init__(
        self,
        store_path: Path,
        lease: Lease,
        worker_id: str,
        *,
        interval: float,
        ttl: float,
    ) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}-c{lease.index}")
        self._store_path = store_path
        self._lease = lease
        self._worker_id = worker_id
        self._interval = interval
        self._ttl = ttl
        self._halt = threading.Event()
        self.suppress_until = 0.0
        self.lost = False  # fence went stale under us

    def run(self) -> None:
        try:
            store = LeaseStore(self._store_path)
        except Exception:  # pragma: no cover - store vanished mid-run
            return
        try:
            while not self._halt.wait(self._interval):
                if time.time() < self.suppress_until:
                    continue
                try:
                    alive = store.heartbeat(
                        self._lease, self._worker_id, ttl=self._ttl
                    )
                except Exception:  # transient lock/partition trouble
                    continue
                if not alive:
                    self.lost = True
                    return
        finally:
            store.close()

    def stop(self) -> None:
        self._halt.set()


def _fault(actions: list[FaultAction], kind: str) -> FaultAction | None:
    for action in actions:
        if action.kind == kind:
            return action
    return None


class Drain:
    """The SIGTERM drain flag, safe to set from a signal handler.

    A Python signal handler runs on the main thread between bytecodes,
    also while that thread is inside ``threading.Event.wait`` holding
    the Event's non-reentrant lock, so ``Event.set`` from the handler
    can block forever.  Here :meth:`set` only writes one byte to a pipe,
    and :meth:`is_set` and :meth:`wait` select on its read end, which
    :meth:`fileno` hands to a caller's own ``select``.  The byte is
    never read: once set, the flag stays set.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._write, False)

    def fileno(self) -> int:
        return self._read

    def set(self) -> None:
        try:
            os.write(self._write, b"\0")
        except BlockingIOError:  # pipe full: set many times over
            pass

    def wait(self, timeout: float | None = None) -> bool:
        """Block until set or ``timeout`` seconds pass; True iff set."""
        return bool(select.select([self._read], [], [], timeout)[0])

    def is_set(self) -> bool:
        return self.wait(0)

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


@contextlib.contextmanager
def drain_on_sigterm(install: bool) -> Iterator[Drain]:
    """A :class:`Drain` that SIGTERM sets while the block runs (if
    ``install`` and on the main thread).  The caller's SIGTERM handler
    is put back on exit, and the drain's pipe closed."""
    drain = Drain()
    previous: Any = None
    if install:
        try:
            previous = signal.signal(
                signal.SIGTERM, lambda *_: drain.set()
            ) or signal.SIG_DFL
        except ValueError:  # not the main thread (in-process embedding)
            pass
    try:
        yield drain
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        drain.close()


def run_worker(config: WorkerConfig) -> int:
    """Run one worker until the campaign is done (or drained).  Returns
    a process exit code (0 = clean)."""
    with drain_on_sigterm(config.install_signal_handler) as drain:
        return _work(config, drain)


def _work(config: WorkerConfig, drain: Drain) -> int:
    """The body of :func:`run_worker`; ``drain`` is set on SIGTERM."""
    store = LeaseStore(config.store)
    deadline = time.monotonic() + config.campaign_wait
    campaign = store.campaign(config.campaign)
    while campaign is None and time.monotonic() < deadline:
        time.sleep(config.poll_interval)
        campaign = store.campaign(config.campaign)
    if campaign is None:
        logger.error(
            "worker %s: no campaign %s in %s",
            config.worker_id,
            config.campaign[:12],
            config.store,
        )
        store.close()
        return 2

    campaign_id = int(campaign["id"])
    spec = resolve_spec(campaign["spec"], campaign["params"])
    chunks = plan_campaign(
        spec.fn, spec.items, chunksize=int(campaign["chunksize"])
    ).chunks
    if len(chunks) != int(campaign["chunks"]):
        store.close()
        raise ExperimentError(
            f"worker {config.worker_id}: spec resolves to {len(chunks)} chunks "
            f"but the store registered {campaign['chunks']} — spec and store "
            "disagree about the campaign"
        )
    my_plan = config.fault_plan.for_worker(config.worker_id)
    jitter_stream = derive_seed(0, "fabric-idle", config.worker_id) % (2**31)

    # Adopt the coordinator's trace (propagated through the
    # environment).  Performance plane: the coordinator propagates
    # REPRO_PERF=<hz> when sampling is on, so the worker profiles itself
    # for its whole lifetime and writes the perf records, tagged with its
    # id, to its own telemetry log on exit.  Both are a strict no-op when
    # this worker runs without either.
    recorder = get_active()
    with traced(
        recorder, TraceContext.from_env(f"worker:{config.worker_id}")
    ), perf_core.self_profiled(
        f"fabric.worker:{config.worker_id}",
        recorder,
        tag=f"worker:{config.worker_id}",
        worker=config.worker_id,
    ):
        store.log_worker_event(
            campaign_id, config.worker_id, "worker_start", detail=f"pid={os.getpid()}"
        )
        if recorder is not None:
            recorder.emit(
                "worker",
                worker=config.worker_id,
                event="worker_start",
                pid=os.getpid(),
                campaign=config.campaign[:16],
            )
        ordinal = 0  # chunks claimed by THIS worker (fault-plan address)
        committed = 0
        idle_attempts = 0
        exit_reason = "done"
        try:
            while True:
                if drain.is_set():
                    exit_reason = "drained"
                    break
                if store.all_done(campaign_id):
                    break
                lease = store.claim(
                    campaign_id, config.worker_id, ttl=config.lease_ttl
                )
                if lease is None:
                    # Nothing claimable: peers hold live leases.  Back off
                    # with seeded jitter and re-poll (they may yet die).
                    idle_attempts += 1
                    delay = min(
                        _IDLE_BACKOFF_CAP,
                        backoff_delay(
                            _IDLE_BACKOFF_BASE, idle_attempts, chunk_index=jitter_stream
                        ),
                    )
                    drain.wait(max(config.poll_interval, delay))
                    continue
                idle_attempts = 0
                actions = my_plan.at(config.worker_id, ordinal)
                ordinal += 1
                if _fault(actions, "kill") is not None:
                    store.log_worker_event(
                        campaign_id,
                        config.worker_id,
                        "fault",
                        idx=lease.index,
                        fence=lease.fence,
                        detail="kill",
                    )
                    os.kill(os.getpid(), signal.SIGKILL)  # never returns

                heartbeat = _Heartbeat(
                    Path(config.store),
                    lease,
                    config.worker_id,
                    interval=config.lease_ttl / 3.0,
                    ttl=config.lease_ttl,
                )
                heartbeat.start()
                try:
                    partition = _fault(actions, "partition")
                    if partition is not None:
                        heartbeat.suppress_until = time.time() + partition.duration
                        store.log_worker_event(
                            campaign_id,
                            config.worker_id,
                            "fault",
                            idx=lease.index,
                            fence=lease.fence,
                            detail=f"partition {partition.duration:g}s",
                        )
                    stall = _fault(actions, "stall")
                    if stall is not None:
                        store.log_worker_event(
                            campaign_id,
                            config.worker_id,
                            "fault",
                            idx=lease.index,
                            fence=lease.fence,
                            detail=f"stall {stall.duration:g}s",
                        )
                        heartbeat.suppress_until = time.time() + stall.duration
                        time.sleep(stall.duration)

                    chunk_started = time.perf_counter()
                    with perf_core.perf_span("fabric.chunk"):
                        results = run_chunk(spec.fn, chunks[lease.index])
                    payload = encode_chunk(results)
                    chunk_wall = time.perf_counter() - chunk_started

                    stale = _fault(actions, "stale")
                    if stale is not None:
                        # The canonical fencing drill: stop heartbeating,
                        # wait until someone supersedes our lease, and only
                        # then attempt the commit.  The store MUST reject it.
                        heartbeat.stop()
                        store.log_worker_event(
                            campaign_id,
                            config.worker_id,
                            "fault",
                            idx=lease.index,
                            fence=lease.fence,
                            detail="stale-commit: waiting to be superseded",
                        )
                        stale_deadline = time.monotonic() + config.stale_timeout
                        while time.monotonic() < stale_deadline and not drain.is_set():
                            current = store.chunk_state(campaign_id, lease.index)
                            if int(current["fence"]) > lease.fence:
                                break
                            drain.wait(config.poll_interval)
                    if partition is not None:
                        # No store traffic until the partition heals.
                        remaining = heartbeat.suppress_until - time.time()
                        if remaining > 0:
                            time.sleep(remaining)

                    accepted = store.commit(lease, config.worker_id, payload)
                    if accepted:
                        committed += 1
                    else:
                        logger.warning(
                            "worker %s: commit of chunk %d rejected (stale fence %d)",
                            config.worker_id,
                            lease.index,
                            lease.fence,
                        )
                    if recorder is not None:
                        recorder.emit(
                            "chunk",
                            index=lease.index,
                            size=len(chunks[lease.index]),
                            wall_s=chunk_wall,
                            worker=config.worker_id,
                            fence=lease.fence,
                            accepted=accepted,
                            bytes=len(payload),
                        )
                finally:
                    heartbeat.stop()
                    heartbeat.join(timeout=2.0)
        finally:
            store.log_worker_event(
                campaign_id,
                config.worker_id,
                "worker_exit",
                detail=f"{exit_reason}, committed={committed}",
            )
            if recorder is not None:
                recorder.emit(
                    "worker",
                    worker=config.worker_id,
                    event="worker_exit",
                    detail=f"{exit_reason}, committed={committed}",
                )
            store.close()
    return 0


def worker_args(config: WorkerConfig) -> list[str]:
    """The ``python -m repro`` arguments (``fabric worker ...``) that
    run this config's worker."""
    args = [
        "fabric",
        "worker",
        "--store",
        str(config.store),
        "--campaign",
        config.campaign,
        "--worker-id",
        config.worker_id,
        "--lease-ttl",
        str(config.lease_ttl),
        "--poll-interval",
        str(config.poll_interval),
        "--stale-timeout",
        str(config.stale_timeout),
    ]
    if config.telemetry is not None:
        args += ["--telemetry", str(config.telemetry)]
    plan = config.fault_plan.for_worker(config.worker_id)
    if plan:
        args += ["--fault-plan-json", plan.to_json()]
    return args
