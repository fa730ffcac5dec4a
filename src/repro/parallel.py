"""Process-pool execution layer for Monte-Carlo repetition.

Every quantitative claim in this reproduction is re-derived by seeded
repetition, and :mod:`repro.rng` derives each repetition's seed from
the experiment's master seed and a tag path — *not* from any shared
mutable stream.  Repetitions are therefore order-independent by
construction, which makes them embarrassingly parallel: executing
``run_once(seed)`` for each seed in a process pool yields element-for-
element the same results as a serial loop (a property the test suite
enforces for the flagship experiments).

:func:`resilient_map` is the one front end.  It plans, journals and
splices through :mod:`repro.campaign` — the same plan, journal and
splice the multi-worker :mod:`repro.fabric` uses, so the two
transports' checkpoints are interchangeable.

Knobs
-----
* ``jobs`` (``ExperimentConfig(jobs=N)``, ``--jobs``) — worker count:
  ``1`` runs the chunks in-process, with no pool and no pickling;
  ``N > 1`` uses a pool of N processes; ``0`` uses every CPU;
* ``REPRO_JOBS`` environment variable — the default when ``jobs`` is
  unset (itself defaulting to 1);
* ``chunksize`` — items per chunk; by default a few chunks per worker,
  so per-task IPC overhead amortises across many cheap repetitions.
  Anything below 1 is rejected;
* ``task_timeout`` (``--task-timeout``) — seconds per item before a
  pooled chunk counts as hung;
* ``journal``/``resume`` — the checkpoint file, and whether to continue
  it;
* ``batch_fn`` — runs a whole chunk in one call (the vectorized
  backend's hook).

The callable, the first item and ``batch_fn`` must be picklable to
cross the process boundary; when one is not (e.g. an experiment passes
a local closure), execution falls back to the in-process path —
results are identical either way, only wall-clock time differs — and a
``RuntimeWarning`` plus a log record name the object that failed.

Resilience
----------
On top of the serial-equivalence guarantee the pool adds:

* **retry with exponential backoff** when a worker process dies
  (``BrokenProcessPool``): the pool is rebuilt and the affected chunks
  are resubmitted — exact, because chunk inputs are re-derived seeds,
  not consumed stream state.  Once :data:`MAX_RETRIES` retries have
  failed too, the blamed chunk is executed in-process, so one poisoned
  worker cannot sink a campaign (a chunk that keeps timing out aborts
  the campaign instead).  The first retry waits about
  :data:`BACKOFF_BASE` seconds, with seeded jitter;
* **per-task timeouts** (``task_timeout`` seconds): a chunk that takes
  longer than ``task_timeout × len(chunk)`` is treated as hung, its
  workers are terminated, and it is retried like a crash;
* **chunk-level checkpoint/resume** via
  :class:`~repro.campaign.CampaignJournal`: each completed chunk is
  appended to a journal file, and ``resume=True`` restarts a killed
  campaign from the last completed chunk — final results are
  byte-identical to an uninterrupted run because the journal stores the
  actual chunk results and fixes the chunk geometry.

Observability
-------------
When a telemetry recorder is ambient (:mod:`repro.telemetry`),
:func:`resilient_map` reports the campaign as structured events:
``campaign_begin``/``campaign_end``, one ``chunk`` record per
completed chunk (wall time, pool queue wait, retry/timeout counts,
worker PID), and periodic ``progress`` heartbeats with an ETA.  Pool
workers run their chunks under an in-memory recorder and ship the
buffered events (engine runs, protocol phase markers, ...) back with
the results; the parent merges them into the stream tagged with the
chunk index.  The same heartbeat also goes to the ``repro.parallel``
logger at INFO level (``python -m repro ... --log-level INFO``), so
long campaigns are never silent.  ``REPRO_PROGRESS_SECS`` tunes the
heartbeat interval (default 5 s).  Telemetry never changes results:
journals store exactly the chunk results, with or without it.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
import warnings
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.campaign import (
    CampaignJournal,
    backoff_delay,
    plan_campaign,
    run_chunk,
    splice,
)
from repro.errors import ExperimentError
from repro.telemetry.core import Telemetry, activate, get_active

__all__ = ["BACKOFF_BASE", "MAX_RETRIES", "resilient_map", "resolve_jobs"]

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.parallel")

#: Pool retries per chunk before it runs in-process instead.
MAX_RETRIES = 3
#: Seconds before the first retry; doubles per further attempt.
BACKOFF_BASE = 0.25

#: Environment override for the progress-heartbeat interval (seconds).
_PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_SECS"
_PROGRESS_INTERVAL_DEFAULT = 5.0


def _progress_interval() -> float:
    raw = os.environ.get(_PROGRESS_INTERVAL_ENV, "").strip()
    if not raw:
        return _PROGRESS_INTERVAL_DEFAULT
    try:
        return max(0.0, float(raw))
    except ValueError:
        logger.warning(
            "%s must be a number, got %r; using %.1fs",
            _PROGRESS_INTERVAL_ENV,
            raw,
            _PROGRESS_INTERVAL_DEFAULT,
        )
        return _PROGRESS_INTERVAL_DEFAULT


class _ProgressReporter:
    """Campaign progress heartbeat: log records + telemetry events.

    One ``note()`` per completed chunk; a heartbeat fires when the
    configured interval has elapsed (and always on the final chunk).
    The ETA extrapolates from chunks completed *this session*, so a
    resumed campaign does not inherit the dead session's pace.
    """

    def __init__(
        self,
        total_chunks: int,
        total_items: int,
        telemetry: Telemetry | None,
        *,
        chunks_done: int = 0,
        items_done: int = 0,
    ) -> None:
        self.total_chunks = total_chunks
        self.total_items = total_items
        self.telemetry = telemetry
        self.done = self._initial_done = chunks_done
        self.items_done = items_done
        self.interval = _progress_interval()
        self._start = self._last = time.perf_counter()

    def note(self, items: int) -> None:
        self.done += 1
        self.items_done += items
        now = time.perf_counter()
        if self.done < self.total_chunks and now - self._last < self.interval:
            return
        self._last = now
        elapsed = now - self._start
        fresh = self.done - self._initial_done
        remaining = self.total_chunks - self.done
        eta = (elapsed / fresh) * remaining if fresh > 0 else 0.0
        logger.info(
            "campaign progress: %d/%d chunks (%d/%d items), elapsed %.1fs, eta %.1fs",
            self.done,
            self.total_chunks,
            self.items_done,
            self.total_items,
            elapsed,
            eta,
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "progress",
                done=self.done,
                total=self.total_chunks,
                items_done=self.items_done,
                items_total=self.total_items,
                elapsed_s=elapsed,
                eta_s=eta,
            )


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a ``jobs`` setting to a concrete worker count.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (itself
    defaulting to 1 — serial); ``0`` means "all CPUs"; negative values
    are rejected.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ExperimentError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _qualname(obj: Any) -> str:
    return getattr(obj, "__qualname__", repr(obj))


def _unpicklable(
    fn: Callable[..., Any], item: Any, batch_fn: Callable[..., Any] | None
) -> str | None:
    """Name whatever keeps the pool from shipping this campaign."""
    candidates = [(fn, _qualname(fn)), (item, "the first item")]
    if batch_fn is not None:
        candidates.append((batch_fn, _qualname(batch_fn)))
    for obj, name in candidates:
        try:
            pickle.dumps(obj)
        except Exception:
            return name
    return None


def _warn_serial_fallback(name: str) -> None:
    """Announce (warning + log) that a requested pool was skipped."""
    message = (
        f"parallel execution requested but {name} is not picklable — e.g. "
        "a local closure or lambda; running serially instead.  Results are "
        "identical, but the requested speed-up is lost.  Move it to module "
        "level to enable the pool."
    )
    warnings.warn(message, RuntimeWarning, stacklevel=4)
    logger.warning(message)


def _apply_args(task: tuple[Callable[..., Any], Sequence[Any]]) -> Any:
    """``fn(*args)`` for one ``(fn, args)`` task (what ``sweep`` maps)."""
    fn, args = task
    return fn(*args)


def _run_chunk_timed(
    fn: Callable[[T], R],
    chunk: list[T],
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> dict[str, Any]:
    """Worker-side chunk runner that also captures telemetry.

    Activates a fresh in-memory recorder so everything the chunk's
    repetitions emit (engine run spans, protocol phase markers, ...)
    is buffered and shipped back to the parent with the results; the
    parent merges the events into its stream.  The results list is
    exactly what :func:`~repro.campaign.run_chunk` would have produced.
    When the parent samples (``REPRO_PERF``, see :mod:`repro.perf`),
    the chunk's ``pool.chunk`` profile rides the same ship-back.
    """
    from repro.perf import core as perf_core

    recorder = Telemetry.buffered()
    with perf_core.self_profiled("pool.chunk", recorder):
        start = time.perf_counter()
        with activate(recorder):
            results = run_chunk(fn, chunk, batch_fn)
    return {
        "results": results,
        "wall_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "events": recorder.drain(),
    }


def _terminate_workers(executor: Any) -> None:
    """Hard-stop an executor whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block forever on a hung task, so the
    pool is abandoned without waiting and its worker processes are
    terminated best-effort (via the executor's process table).
    """
    # Snapshot the process table first: shutdown() clears it.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform-specific races
            pass


def resilient_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
    task_timeout: float | None = None,
    journal: str | os.PathLike[str] | CampaignJournal | None = None,
    resume: bool = False,
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> list[R]:
    """``[fn(item) for item in items]``, chunked, journaled and pooled.

    Equivalent in value to the list comprehension, with worker death
    retried (exponential backoff, in-process fallback after
    :data:`MAX_RETRIES`), hung chunks timed out after ``task_timeout``
    seconds per task, and completed chunks checkpointed to ``journal``
    (see the module docs).  Exceptions raised by ``fn`` itself are
    deterministic and propagate immediately — only infrastructure
    failures are retried.

    ``batch_fn``, when given, runs a whole chunk in one call instead of
    ``fn`` item by item — the hook the vectorized backend uses to
    advance a chunk's trials simultaneously.  It must return exactly
    one result per item, in order, and must agree with ``fn`` on every
    item (the backend parity suite enforces this for the engine
    backends): journals are fingerprinted by ``fn`` alone, so a
    campaign journaled under one backend can resume under the other.
    """
    items = list(items)
    if task_timeout is not None and task_timeout <= 0:
        raise ExperimentError(f"task_timeout must be positive, got {task_timeout}")
    jobs = min(resolve_jobs(jobs), len(items)) if items else 1
    plan = plan_campaign(fn, items, jobs=jobs, chunksize=chunksize)

    journal_obj: CampaignJournal | None = None
    completed: dict[int, list[Any]] = {}
    if journal is not None:
        journal_obj = (
            journal if isinstance(journal, CampaignJournal) else CampaignJournal(journal)
        )
        completed = journal_obj.start(
            plan.fingerprint, len(items), plan.chunksize, resume=resume
        )
        if journal_obj.chunksize != plan.chunksize:  # resumed geometry wins
            plan = plan_campaign(fn, plan.items, chunksize=journal_obj.chunksize)

    chunks = plan.chunks
    results: dict[int, list[Any]] = {
        index: chunk_results
        for index, chunk_results in completed.items()
        if 0 <= index < len(chunks)
    }
    remaining = [index for index in range(len(chunks)) if index not in results]

    telemetry = get_active()
    if telemetry is not None:
        telemetry.emit(
            "campaign_begin",
            items=len(items),
            chunks=len(chunks),
            chunksize=plan.chunksize,
            jobs=jobs,
            resumed_chunks=len(results),
        )
    campaign_t0 = time.perf_counter()
    progress = _ProgressReporter(
        len(chunks),
        len(items),
        telemetry,
        chunks_done=len(results),
        items_done=sum(len(chunks[index]) for index in results),
    )
    totals = {"retries": 0, "timeouts": 0}

    def complete(
        index: int,
        chunk_results: list[Any],
        *,
        mode: str,
        wall_s: float,
        pid: int,
        queue_s: float | None = None,
        retries: int = 0,
        timeouts: int = 0,
    ) -> None:
        """Store, journal, report and count one finished chunk."""
        results[index] = chunk_results
        if journal_obj is not None:
            journal_obj.record_chunk(index, chunk_results)
        totals["retries"] += retries
        totals["timeouts"] += timeouts
        if telemetry is not None:
            timing = {"wall_s": wall_s}
            if queue_s is not None:
                timing["queue_s"] = queue_s
            telemetry.emit(
                "chunk",
                index=index,
                size=len(chunks[index]),
                **timing,
                pid=pid,
                retries=retries,
                timeouts=timeouts,
                mode=mode,
            )
        progress.note(len(chunks[index]))

    if remaining:
        blocker = _unpicklable(fn, items[0], batch_fn) if jobs > 1 else None
        if blocker is not None:
            _warn_serial_fallback(blocker)
        if jobs > 1 and blocker is None:
            _pool_run(
                fn,
                chunks,
                remaining,
                complete,
                jobs=jobs,
                task_timeout=task_timeout,
                telemetry=telemetry,
                batch_fn=batch_fn,
            )
        else:
            for index in remaining:
                chunk_t0 = time.perf_counter()
                chunk_results = run_chunk(fn, chunks[index], batch_fn)
                complete(
                    index,
                    chunk_results,
                    mode="serial",
                    wall_s=time.perf_counter() - chunk_t0,
                    pid=os.getpid(),
                )

    if telemetry is not None:
        telemetry.emit(
            "campaign_end",
            chunks=len(chunks),
            items=len(items),
            wall_s=time.perf_counter() - campaign_t0,
            retries=totals["retries"],
            timeouts=totals["timeouts"],
        )
    return splice(
        len(chunks), results, where=f"journal {journal!r}" if journal else "campaign"
    )


def _pool_run(
    fn: Callable[[T], R],
    chunks: list[list[T]],
    remaining: list[int],
    complete: Callable[..., None],
    *,
    jobs: int,
    task_timeout: float | None,
    telemetry: Telemetry | None,
    batch_fn: Callable[[list[T]], list[R]] | None,
) -> None:
    """Drive the pending chunks through a pool, surviving worker failures.

    Each finished chunk goes to ``complete``.  With a live
    ``telemetry`` recorder, chunks run via :func:`_run_chunk_timed`: each
    ships back its worker-side events, merged into the parent's stream
    tagged with the chunk index, plus wall time, from which queue wait
    is derived.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    runner = _run_chunk_timed if telemetry is not None else run_chunk
    attempts = {index: 0 for index in remaining}
    timeouts = {index: 0 for index in remaining}
    submit_ts: dict[int, float] = {}
    executor: Any = None
    futures: dict[int, Any] = {}

    def submit_all(indices: list[int]) -> None:
        nonlocal executor
        executor = ProcessPoolExecutor(max_workers=jobs)
        futures.clear()
        for index in indices:
            futures[index] = executor.submit(runner, fn, chunks[index], batch_fn)
            submit_ts[index] = time.perf_counter()

    submit_all(remaining)
    position = 0
    try:
        while position < len(remaining):
            index = remaining[position]
            allowance = (
                None if task_timeout is None else task_timeout * len(chunks[index])
            )
            try:
                payload = futures[index].result(timeout=allowance)
            except (BrokenProcessPool, FutureTimeout) as exc:
                # Infrastructure failure: the worker died or the chunk
                # hung.  Blame the chunk at the head of the line; later
                # chunks are resubmitted as collateral without burning
                # their own retry budget.
                attempts[index] += 1
                if isinstance(exc, FutureTimeout):
                    timeouts[index] += 1
                _terminate_workers(executor)
                if attempts[index] <= MAX_RETRIES:
                    delay = backoff_delay(
                        BACKOFF_BASE, attempts[index], chunk_index=index
                    )
                    logger.warning(
                        "%s on chunk %d; retry %d/%d after %.2fs backoff",
                        type(exc).__name__,
                        index,
                        attempts[index],
                        MAX_RETRIES,
                        delay,
                    )
                    time.sleep(delay)
                    submit_all(remaining[position:])
                    continue
                if isinstance(exc, FutureTimeout):
                    raise ExperimentError(
                        f"chunk {index} ({len(chunks[index])} tasks) timed "
                        f"out after {attempts[index]} attempts of "
                        f"{allowance:.1f}s each; aborting the campaign"
                    ) from exc
                logger.warning(
                    "chunk %d killed its worker %d times; running it "
                    "in-process (exact: inputs are re-derived seeds)",
                    index,
                    attempts[index],
                )
                # Under the parent's ambient recorder: its events stream
                # directly, so there is nothing to ship back or time.
                chunk_results = run_chunk(fn, chunks[index], batch_fn)
                complete(
                    index,
                    chunk_results,
                    mode="fallback",
                    wall_s=0.0,
                    queue_s=0.0,
                    pid=os.getpid(),
                    retries=attempts[index],
                    timeouts=timeouts[index],
                )
                submit_all(remaining[position + 1 :])
            else:
                chunk_results, wall_s, queue_s, pid = payload, 0.0, 0.0, 0
                if telemetry is not None:
                    for event in payload["events"]:
                        event["chunk"] = index
                        telemetry.write_record(event)
                    chunk_results = payload["results"]
                    wall_s, pid = payload["wall_s"], payload["pid"]
                    waited = time.perf_counter() - submit_ts[index]
                    queue_s = max(0.0, waited - wall_s)
                complete(
                    index,
                    chunk_results,
                    mode="pool",
                    wall_s=wall_s,
                    queue_s=queue_s,
                    pid=pid,
                    retries=attempts[index],
                    timeouts=timeouts[index],
                )
            position += 1
    except KeyboardInterrupt:
        # Re-raise promptly, but never leave orphaned children behind:
        # shutdown(wait=False) alone would abandon live (possibly hung)
        # worker processes.  The journal already holds every completed
        # chunk, so ^C + --resume loses at most the chunks in flight.
        logger.warning("interrupted; terminating pool workers before re-raising")
        _terminate_workers(executor)
        raise
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
