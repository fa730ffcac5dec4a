"""Wire the tail reader, conformance checkers, and status board together.

:func:`monitor_log` reads a JSON-lines telemetry log, or follows it
while it is written, and streams it through the checkers.  ``python -m repro monitor``
runs it, and so does the ``--monitor`` campaign flag, on the closed
log once the command has finished.  Given a fabric lease store instead
(detected by the SQLite file magic), it follows the store's newest
campaign plus its ``<store>.<worker>.telemetry.jsonl`` worker logs
through :func:`follow_fleet`, and the board grows worker lanes.
:func:`fleet_records` merges the same sources into one stream for the
Chrome trace.

Fired alerts are appended to a monitored log as schema-valid ``alert``
records (tagged ``source="monitor"`` with a monotone ``seq``), so they
survive for ``obs ingest``/``telemetry`` and a later monitor pass can
read the same log without double-counting its own output.  A lease
store is only ever read.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ExperimentError
from repro.monitor.board import BoardRenderer, StatusBoard
from repro.monitor.conformance import (
    Alert,
    ConformanceMonitor,
    MonitorConfig,
    default_checkers,
)
from repro.monitor.tail import TailReader, follow_records, iter_log_records
from repro.telemetry.summary import number

__all__ = [
    "MonitorReport",
    "LiveMonitor",
    "monitor_log",
    "fleet_records",
    "follow_fleet",
    "is_sqlite_file",
]

#: The first 16 bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass
class MonitorReport:
    """What a monitoring pass saw — the CLI's exit code comes from here."""

    records: int = 0
    alerts: list[Alert] = field(default_factory=list)
    board: dict[str, Any] = field(default_factory=dict)
    log: str | None = None
    #: The board's fleet block as text (empty without fabric records).
    fleet_lines: list[str] = field(default_factory=list)

    @property
    def gate_failed(self) -> bool:
        return bool(self.alerts)

    def to_json(self) -> dict[str, Any]:
        return {
            "log": self.log,
            "records": self.records,
            "alerts": [alert.record_fields() for alert in self.alerts],
            "gate_failed": self.gate_failed,
            "board": self.board,
        }


class LiveMonitor:
    """One conformance-monitoring pass over a record stream."""

    def __init__(
        self,
        config: MonitorConfig,
        *,
        renderer_factory: Callable[[StatusBoard], BoardRenderer] | None = None,
        emit_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.config = config
        self.board = StatusBoard()
        self.renderer = renderer_factory(self.board) if renderer_factory else None
        self._emit_alert = emit_alert
        # Epsilon pinned on the CLI wins; otherwise the stream's own
        # manifest may retune the checkers before the first run lands.
        self._config_pinned = config.epsilon is not None
        self.monitor = ConformanceMonitor(
            default_checkers(config), summary=self.board.summary, on_alert=self._on_alert
        )

    def _on_alert(self, alert: Alert) -> None:
        self.board.note_alert(alert)
        if self._emit_alert is not None:
            self._emit_alert(alert)

    def ingest(self, record: dict[str, Any]) -> None:
        if (
            record.get("kind") == "manifest"
            and not self._config_pinned
            and self.monitor.records_seen == 0
        ):
            self._config_pinned = True
            config = MonitorConfig.from_manifest(
                record,
                alpha=self.config.alpha,
                min_runs=self.config.min_runs,
                diameter=self.config.diameter,
                max_degree=self.config.max_degree,
                deterministic_floor=self.config.deterministic_floor or None,
            )
            if config.epsilon is not None:
                self.config = config
                self.monitor = ConformanceMonitor(
                    default_checkers(config, manifest=record),
                    summary=self.board.summary,
                    on_alert=self._on_alert,
                )
        self.monitor.feed(record)
        if self.renderer is not None:
            self.renderer.refresh()

    def finish(self) -> MonitorReport:
        self.monitor.finish()
        if self.renderer is not None:
            self.renderer.close()
        return MonitorReport(
            records=self.monitor.records_seen,
            alerts=list(self.monitor.alerts),
            board=self.board.snapshot(),
            fleet_lines=self.board.fleet_lines(),
        )


class _AlertWriter:
    """Append fired alerts to the monitored log as ``alert`` records."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.seq = 0

    def __call__(self, alert: Alert) -> None:
        self.seq += 1
        record: dict[str, Any] = {
            "kind": "alert",
            "ts": time.time(),
            "source": "monitor",
            "seq": self.seq,
        }
        record.update(alert.record_fields())
        try:
            with self.path.open("a", encoding="utf-8") as stream:
                stream.write(json.dumps(record, default=repr) + "\n")
                stream.flush()
        except OSError:
            pass  # a read-only log loses persistence, not monitoring


def monitor_log(
    path: str | os.PathLike[str],
    *,
    config: MonitorConfig | None = None,
    follow: bool = False,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
    renderer_factory: Callable[[StatusBoard], BoardRenderer] | None = None,
    write_alerts: bool = True,
) -> MonitorReport:
    """Run a conformance pass over a telemetry log or lease store on disk.

    A lease store is read once, or with ``follow`` tailed until every
    chunk is committed (see :func:`_ingest_store`); alerts are never
    written into it.  A ``KeyboardInterrupt`` while following ends the
    pass cleanly: the checkers finish and the report covers everything
    seen so far.
    """
    log = Path(path)
    store = is_sqlite_file(log)
    emit = _AlertWriter(log) if write_alerts and not store else None
    live = LiveMonitor(
        config or MonitorConfig(), renderer_factory=renderer_factory, emit_alert=emit
    )
    try:
        if store:
            _ingest_store(
                live, log, follow=follow, poll_interval=poll_interval,
                idle_timeout=idle_timeout, stop=stop,
            )
        else:
            records: Iterable[dict[str, Any]]
            if follow:
                records = follow_records(
                    log, poll_interval=poll_interval,
                    idle_timeout=idle_timeout, stop=stop,
                )
            else:
                records = iter_log_records(log)
            for record in records:
                live.ingest(record)
    except KeyboardInterrupt:
        pass
    report = live.finish()
    report.log = str(log)
    return report


def is_sqlite_file(path: str | os.PathLike[str]) -> bool:
    """True when ``path`` is a SQLite database (a fabric lease store)."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


def _ingest_store(
    live: LiveMonitor,
    store_path: Path,
    *,
    follow: bool,
    poll_interval: float,
    idle_timeout: float | None,
    stop: Callable[[], bool] | None,
) -> None:
    """Feed a lease store's newest campaign, plus the worker logs next to
    it, through ``live``; pin the campaign's size and completion on the
    board from the store itself."""
    from repro.fabric.store import LeaseStore

    with LeaseStore(store_path) as lease_store:
        campaign = lease_store.newest_campaign()
        if campaign is None:
            raise ExperimentError(f"lease store {store_path} holds no campaign")
        campaign_id = int(campaign["id"])
        total = sum(lease_store.counts(campaign_id).values())
        live.board.note_campaign(total, lease_store.all_done(campaign_id))
        try:
            for record in follow_fleet(
                store_path,
                campaign["fingerprint"],
                logs=_worker_logs(store_path),
                poll_interval=poll_interval,
                idle_timeout=idle_timeout,
                stop=stop if follow else lambda: True,
            ):
                live.ingest(record)
        finally:
            live.board.note_campaign(total, lease_store.all_done(campaign_id))


def _worker_logs(store_path: Path) -> dict[str, Path]:
    """The ``<store>.<worker>.telemetry.jsonl`` logs next to a lease
    store, by worker id."""
    prefix, suffix = f"{store_path.name}.", ".telemetry.jsonl"
    return {
        path.name[len(prefix):-len(suffix)]: path
        for path in sorted(store_path.parent.glob(f"{prefix}*{suffix}"))
    }


def fleet_records(
    store: str | os.PathLike[str], campaign: str | None = None
) -> list[dict[str, Any]]:
    """One fabric campaign (``campaign``, else the store's newest) as one
    ts-ordered record stream, read once through :func:`follow_fleet`:
    the input of its Chrome trace."""
    store_path = Path(store)
    return list(
        follow_fleet(
            store_path, campaign, logs=_worker_logs(store_path), stop=lambda: True
        )
    )


def follow_fleet(
    store: str | os.PathLike[str],
    campaign: str | None,
    *,
    logs: Mapping[str, str | os.PathLike[str]] | None = None,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield one merged, ts-ordered record stream for a fabric campaign
    (by fingerprint; ``None`` follows the store's newest).

    Tails the lease store's audit log (translated through
    :func:`repro.fabric.store.store_event_record`) and every telemetry
    log in ``logs`` (worker id -> path) concurrently.  A log's records
    that carry no ``worker`` field are stamped with its worker id, so
    the Chrome trace puts them on that worker's lane.  A log's own
    ``worker`` records are skipped: each repeats a store row (the
    worker's start or exit).  Each poll cycle's
    harvest is sorted by ``ts`` before yielding, so the board and the
    conformance checkers see per-cycle causal order without waiting for
    the campaign to end.

    Ends when ``stop()`` turns true; when the store reports every chunk
    committed (after one final drain); or when no process has produced
    anything for ``idle_timeout`` seconds.
    """
    from repro.fabric.store import LeaseStore, store_event_record

    store_path = Path(store)
    readers = [(worker, TailReader(path)) for worker, path in (logs or {}).items()]
    lease_store: Any = None
    campaign_id: int | None = None
    after_id = 0
    last_data = time.monotonic()

    def harvest() -> list[dict[str, Any]]:
        nonlocal lease_store, campaign_id, after_id
        batch: list[dict[str, Any]] = []
        if lease_store is None and store_path.exists():
            lease_store = LeaseStore(store_path)
        if lease_store is not None and campaign_id is None:
            row = (
                lease_store.campaign(campaign)
                if campaign is not None
                else lease_store.newest_campaign()
            )
            campaign_id = int(row["id"]) if row is not None else None
        if campaign_id is not None:
            for event in lease_store.events(campaign_id, after_id=after_id):
                after_id = max(after_id, int(event["id"]))
                batch.append(store_event_record(event))
        for worker, reader in readers:
            for record in reader.poll():
                if record.get("kind") == "worker":
                    continue
                record.setdefault("worker", worker)
                batch.append(record)
        batch.sort(key=lambda r: number(r, "ts", 0.0))
        return batch

    try:
        while True:
            batch = harvest()
            if batch:
                last_data = time.monotonic()
                yield from batch
            if stop is not None and stop():
                yield from harvest()  # drain what raced the stop signal
                return
            if campaign_id is not None and lease_store.all_done(campaign_id):
                yield from harvest()
                return
            if not batch:
                if (
                    idle_timeout is not None
                    and time.monotonic() - last_data >= idle_timeout
                ):
                    return
                time.sleep(poll_interval)
    finally:
        if lease_store is not None:
            lease_store.close()

