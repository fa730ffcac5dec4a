"""The fabric coordinator: register the campaign, run the workers,
splice the survivors' commits.

``run_fabric`` is what ``python -m repro fabric run`` executes: it pins
the campaign (spec + params → fingerprint + chunk geometry) in the
lease store, launches N worker subprocesses (``python -m repro fabric
worker``), then supervises — draining the store's event log into
telemetry as it goes — until every chunk is committed.  Dead workers
are simply reaped: their leases expire and the survivors take the
chunks over.  If *every* worker dies with chunks still open (a fault
plan can arrange that), the coordinator degrades to running the worker
loop in-process, so the campaign still completes.

The splice is byte-identical to a serial run by construction: chunk
payloads are ``base64(pickle(results))`` of deterministic functions of
the chunk items, reassembled in index order.  With ``journal=`` the
coordinator also writes a :class:`repro.parallel.CampaignJournal` from
the committed payloads — the same bytes ``resilient_map`` would have
journaled, so pool and fabric checkpoints are interchangeable.

SIGTERM drains gracefully: workers get SIGTERM (finish the chunk in
flight, then exit), and the coordinator raises instead of returning a
partial splice.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
from repro.errors import ExperimentError
from repro.fabric.faultplan import FaultPlan
from repro.fabric.specs import FabricSpec, resolve_spec
from repro.fabric.splice import (
    campaign_fingerprint,
    decode_chunk,
    default_chunksize,
    make_chunks,
    splice,
)
from repro.fabric.store import LEASE_EVENT_KINDS, LeaseStore, store_event_record
from repro.fabric.worker import WorkerConfig, run_worker, worker_argv
from repro.fleet.metrics import MetricsRegistry, get_registry, set_registry
from repro.fleet.metrics import counter as metric_count
from repro.fleet.metrics import gauge as metric_gauge
from repro.fleet.tracectx import TraceContext
from repro.perf import core as perf_core
from repro.telemetry import get_active

__all__ = ["FabricConfig", "FabricResult", "run_fabric"]

logger = logging.getLogger("repro.fabric.coordinator")


@dataclass
class FabricConfig:
    """One fabric campaign: what to run, with how many workers, and
    which harness faults to inject while it runs."""

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
    #: Capture each worker's stderr/stdout to ``<store>.<worker>.log``.
    capture_logs: bool = True
    install_signal_handler: bool = True
    #: Give each worker its own telemetry log
    #: (``<store>.<worker>.telemetry.jsonl``), stamped with the
    #: campaign's trace context — the fleet-mode input for the merged
    #: Chrome trace and the autopsy cross-check.
    worker_telemetry: bool = False
    #: Write the coordinator registry's Prometheus text exposition here
    #: after the campaign.
    prom: str | os.PathLike[str] | None = None

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
    trace_id: str | None = None
    worker_logs: dict[str, Path] = field(default_factory=dict)
    prom: Path | None = None

    def summary(self) -> str:
        return (
            f"fabric campaign {self.fingerprint[:12]}: {self.chunks} chunks "
            f"spliced from {len(self.workers)} worker(s) in {self.wall_s:.1f}s "
            f"(takeovers={self.takeovers}, fence_rejects={self.fence_rejects})"
        )


def _worker_ids(count: int) -> list[str]:
    return [f"w{index}" for index in range(count)]


def _child_env() -> dict[str, str]:
    """Worker subprocess env with this checkout importable."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


def _forward_events(
    store: LeaseStore, campaign_id: int, after_id: int
) -> tuple[int, list[dict[str, Any]]]:
    """Drain new store events; mirror them into active telemetry and
    count lease transitions in the ambient metrics registry."""
    fresh = store.events(campaign_id, after_id=after_id)
    recorder = get_active()
    for event in fresh:
        after_id = max(after_id, int(event["id"]))
        if event["kind"] in LEASE_EVENT_KINDS:
            metric_count(f"{event['kind']}_total", worker=str(event["worker"] or ""))
        if recorder is None:
            continue
        # One shared translation (the monitor's store input uses the
        # same one), so the live view and the forwarded log never drift.
        record = store_event_record(event)
        kind = record.pop("kind")
        record["store_ts"] = record.pop("ts")
        recorder.emit(kind, **record)
    return after_id, fresh


def run_fabric(config: FabricConfig) -> FabricResult:
    """Run one campaign across worker subprocesses; return the splice."""
    started = time.perf_counter()
    spec: FabricSpec = resolve_spec(config.spec, config.params)
    fingerprint = campaign_fingerprint(spec.fn, spec.items)
    chunksize = config.chunksize or default_chunksize(
        len(spec.items), max(1, config.workers)
    )
    num_chunks = len(make_chunks(spec.items, chunksize))
    worker_ids = _worker_ids(config.workers)

    planned = config.fault_plan.faulted_workers()
    unknown = planned - set(worker_ids)
    if unknown:
        raise ExperimentError(
            f"fault plan targets unknown worker(s) {sorted(unknown)}; "
            f"this fabric runs {worker_ids or ['<in-process only>']}"
        )

    store_path = Path(config.store)
    store = LeaseStore(store_path)
    campaign_id = store.create_campaign(
        fingerprint,
        spec=config.spec,
        params=config.params,
        items=len(spec.items),
        chunksize=chunksize,
    )

    # Fleet wiring: one campaign = one trace, rooted at the coordinator
    # and propagated to every worker through the environment; counters
    # for the store's audit events accumulate in an ambient registry.
    # All of it is inert when telemetry is off.
    recorder = get_active()
    trace = TraceContext.root(fingerprint)
    trace_installed = False
    previous_trace: Any = None
    own_registry: MetricsRegistry | None = None
    if recorder is not None:
        if recorder.trace is None:
            previous_trace = recorder.set_trace(trace)
            trace_installed = True
        if get_registry() is None:
            own_registry = MetricsRegistry()
            set_registry(own_registry)
    if recorder is not None:
        recorder.emit(
            "fabric_begin",
            spec=config.spec,
            workers=config.workers,
            chunks=num_chunks,
            chunksize=chunksize,
            fingerprint=fingerprint,
            fault_plan=config.fault_plan.spec() or None,
        )

    drain = threading.Event()
    if config.install_signal_handler:
        try:
            signal.signal(signal.SIGTERM, lambda *_: drain.set())
        except ValueError:  # not the main thread
            pass

    procs: dict[str, subprocess.Popen] = {}
    log_handles: list[Any] = []
    exits: dict[str, int | None] = {}
    worker_logs: dict[str, Path] = {}
    env = _child_env()
    trace.to_env(env)
    # Performance plane: a session activated programmatically (not via
    # the CLI's REPRO_PERF env save/restore) still reaches the workers —
    # each samples itself and ships perf records via its telemetry log.
    perf_session = perf_core.get_active()
    if perf_session is not None:
        perf_session.to_env(env)
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
        if config.capture_logs:
            handle = store_path.with_name(
                f"{store_path.name}.{worker_id}.log"
            ).open("w", encoding="utf-8")
            log_handles.append(handle)
        else:
            handle = subprocess.DEVNULL
        procs[worker_id] = subprocess.Popen(
            worker_argv(worker_config),
            env=env,
            stdout=handle,
            stderr=subprocess.STDOUT,
        )

    after_id = 0
    events: list[dict[str, Any]] = []
    deadline = time.monotonic() + config.timeout
    fallback_ran = False
    try:
        while True:
            after_id, fresh = _forward_events(store, campaign_id, after_id)
            events.extend(fresh)
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
            metric_gauge("workers_live", float(len(live)))
            metric_gauge(
                "chunks_committed",
                float(sum(1 for e in events if e["kind"] == "commit")),
            )
            if not live and not store.all_done(campaign_id):
                # Every subprocess is gone with work still open.  The
                # campaign must still finish: run the worker loop right
                # here (no faults — the plan addressed the dead ones).
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
            time.sleep(config.poll_interval)

        # Campaign complete: drain the stragglers (they also notice
        # all_done on their own) and collect exit codes.  Only a worker
        # inside its claim loop gets SIGTERM: one that has not logged
        # worker_start sees all_done at its first poll, and one that has
        # logged worker_exit may already be in interpreter shutdown,
        # where SIGTERM kills it (exit -15) instead of draining it.
        after_id, fresh = _forward_events(store, campaign_id, after_id)
        events.extend(fresh)
        in_loop = {e["worker"] for e in events if e["kind"] == "worker_start"}
        in_loop -= {e["worker"] for e in events if e["kind"] == "worker_exit"}
        for worker_id, proc in procs.items():
            if worker_id in in_loop and proc.poll() is None:
                proc.terminate()
        for worker_id, proc in procs.items():
            try:
                exits[worker_id] = proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                exits[worker_id] = proc.wait()
        after_id, fresh = _forward_events(store, campaign_id, after_id)
        events.extend(fresh)

        payloads = store.completed_payloads(campaign_id)
        chunk_results = {
            index: decode_chunk(payload) for index, payload in payloads.items()
        }
        results = splice(
            num_chunks, chunk_results, where=f"fabric campaign {fingerprint[:12]}"
        )

        journal_path: Path | None = None
        if config.journal is not None:
            # Replay the commits through the pool's journal writer so
            # the file is byte-identical to a resilient_map checkpoint.
            from repro.parallel import CampaignJournal

            journal = CampaignJournal(config.journal)
            journal.start(fingerprint, len(spec.items), chunksize, resume=False)
            for index in range(num_chunks):
                journal.record_chunk(index, chunk_results[index])
            journal_path = journal.path

        takeovers = sum(1 for e in events if e["kind"] == "takeover")
        fence_rejects = sum(1 for e in events if e["kind"] == "fence_reject")
        wall_s = time.perf_counter() - started
        if recorder is not None:
            recorder.emit(
                "fabric_end",
                chunks=num_chunks,
                wall_s=wall_s,
                takeovers=takeovers,
                fence_rejects=fence_rejects,
                fallback=fallback_ran,
            )
        prom_path: Path | None = None
        registry = get_registry()
        if registry is not None:
            metric_gauge("chunks_committed", float(num_chunks))
            registry.emit(recorder)
            if config.prom is not None:
                registry.write_prometheus(config.prom)
                prom_path = Path(config.prom)
        return FabricResult(
            results=results,
            fingerprint=fingerprint,
            chunks=num_chunks,
            chunksize=chunksize,
            workers=worker_ids + (["coordinator"] if fallback_ran else []),
            wall_s=wall_s,
            takeovers=takeovers,
            fence_rejects=fence_rejects,
            worker_exits=exits,
            events=events,
            journal=journal_path,
            trace_id=trace.trace_id,
            worker_logs=worker_logs,
            prom=prom_path,
        )
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
        for handle in log_handles:
            handle.close()
        if own_registry is not None:
            set_registry(None)
        if trace_installed and recorder is not None:
            recorder.set_trace(previous_trace)
        store.close()
