"""The shared SQLite lease store behind the campaign fabric.

One database file coordinates any number of worker processes (on one
host or a shared filesystem): it pins the campaign identity and chunk
geometry, hands out chunk **leases**, receives **heartbeats**, and
accepts committed chunk payloads — all under WAL mode with a busy
timeout, so concurrent workers queue on the write lock instead of
failing.

Crash safety rests on two rules, both enforced *inside* single
``BEGIN IMMEDIATE`` transactions so no interleaving can violate them:

* **Lease takeover** — a chunk may be (re)claimed iff it is pending or
  its lease has expired.  Every grant increments the chunk's
  **fencing token**, a per-chunk monotonic counter.
* **Fenced commit** — a commit is accepted iff the committing fence is
  the chunk's *current* fence.  A worker that stalled past its lease
  and was superseded holds a stale fence; its late commit matches zero
  rows and is recorded as a ``fence_reject`` event instead of data.
  (A lease that expired but was never taken over keeps its fence, so
  its commit still lands — the result is deterministic either way.)

Every grant, commit, rejection, and worker lifecycle transition is
appended to an ``events`` table, which the coordinator drains into
telemetry (``lease``/``worker`` records, translated by
:func:`store_event_record`).  :class:`LeaseReplay` is the one reader of
that audit trail, lease and worker records alike: the verification
harness, the autopsy, the coordinator (its counts and which workers to
drain), the monitor's worker lanes and the telemetry summary all read
it through the replay.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ExperimentError

__all__ = [
    "LEASE_SCHEMA_VERSION",
    "LEASE_EVENT_KINDS",
    "ChunkLedger",
    "Lease",
    "LeaseReplay",
    "LeaseStore",
    "DEFAULT_BUSY_TIMEOUT_MS",
    "WorkerLedger",
    "open_wal_store",
    "store_event_record",
]

#: Bumped whenever the table layout changes incompatibly.
LEASE_SCHEMA_VERSION = 1

#: Default wait (ms) for a competing worker's transaction to finish.
DEFAULT_BUSY_TIMEOUT_MS = 10_000

_TABLES = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL UNIQUE,
    spec TEXT,
    params TEXT,
    items INTEGER NOT NULL,
    chunksize INTEGER NOT NULL,
    chunks INTEGER NOT NULL,
    created REAL
);
CREATE TABLE IF NOT EXISTS chunks (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    idx INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    fence INTEGER NOT NULL DEFAULT 0,
    owner TEXT,
    lease_expires REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    payload TEXT,
    committed_by TEXT,
    committed_fence INTEGER,
    completed REAL,
    PRIMARY KEY (campaign_id, idx)
);
CREATE INDEX IF NOT EXISTS chunks_claimable
    ON chunks(campaign_id, state, lease_expires);
CREATE TABLE IF NOT EXISTS events (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL,
    ts REAL NOT NULL,
    worker TEXT,
    kind TEXT NOT NULL,
    idx INTEGER,
    fence INTEGER,
    detail TEXT
);
CREATE INDEX IF NOT EXISTS events_campaign ON events(campaign_id, id);
"""

#: ``events.kind`` values that describe a lease transition; every other
#: kind (``worker_start``, ``worker_exit``, ``fault``) is worker life.
LEASE_EVENT_KINDS = frozenset({"claim", "takeover", "commit", "fence_reject"})


def store_event_record(event: Mapping[str, Any]) -> dict[str, Any]:
    """One ``events`` row as a schema-valid telemetry record.

    Lease transitions become ``lease`` records (``event`` + required
    ``index``); everything else becomes a ``worker`` record.  The
    store's own timestamp and row id ride along (``ts``, ``store_id``)
    so merged streams sort and dedupe on the store's ordering, not the
    reader's.  The coordinator's event forwarding and the monitor's
    store input share this one translation.
    """
    kind = str(event.get("kind", ""))
    record: dict[str, Any] = {"ts": float(event.get("ts") or 0.0)}
    if event.get("id") is not None:
        record["store_id"] = int(event["id"])
    for key in ("worker", "fence", "detail"):
        if event.get(key) is not None:
            record[key] = event[key]
    if kind in LEASE_EVENT_KINDS:
        record["kind"] = "lease"
        record["event"] = kind
        record["index"] = int(event["idx"]) if event.get("idx") is not None else -1
    else:
        record["kind"] = "worker"
        record["event"] = kind
        record.setdefault("worker", str(event.get("worker") or "?"))
        if event.get("idx") is not None:
            record["index"] = int(event["idx"])
    return record


@dataclass
class ChunkLedger:
    """What the audit trail says happened to one chunk.  ``grants``,
    ``commit`` and ``rejects`` hold the ``lease`` records as fed."""

    index: int
    grants: list[Mapping[str, Any]] = field(default_factory=list)
    #: Fence of the latest grant (0 before the first).
    fence: int = 0
    #: Worker of the latest grant: the chunk's current lease holder.
    holder: str | None = None
    commit: Mapping[str, Any] | None = None
    rejects: list[Mapping[str, Any]] = field(default_factory=list)


@dataclass
class WorkerLedger:
    """One worker's history: its leases (``claims`` counts every grant,
    takeovers included) and its life from ``worker`` records."""

    claims: int = 0
    takeovers: int = 0
    commits: int = 0
    fence_rejects: int = 0
    #: The chunk this worker holds a live grant on, if any.
    holding: int | None = None
    #: ``unknown`` -> ``live`` (started, or seen leasing) -> ``exited``,
    #: or ``killed`` by a ``kill`` fault.
    state: str = "unknown"
    faults: int = 0
    last_fault: str | None = None
    exit_detail: str | None = None


class LeaseReplay:
    """Fold ``lease`` and ``worker`` records (the :func:`store_event_record`
    shape), one at a time, into per-chunk and per-worker ledgers, and
    check the fencing contract as they arrive.

    Every record naming a worker opens its :class:`WorkerLedger`; a
    ``worker`` record (``worker_start``, ``worker_exit``, ``fault``)
    moves its life, a ``lease`` record its leases.

    The fence model: every claim/takeover bumps its chunk's fence by
    exactly one, and a commit is legitimate iff it carries the fence of
    the chunk's *latest* grant.  Each break of that model is appended to
    :attr:`violations`: a fence jump, a re-grant after commit, a commit
    under a stale fence, a second commit, and a rejected commit under
    the current fence.  Records of any other kind are ignored, so a
    merged telemetry stream can be fed whole; fields of the wrong type
    are skipped, not trusted, because the live monitor feeds it torn and
    foreign streams.
    """

    def __init__(self) -> None:
        self.chunks: dict[int, ChunkLedger] = {}
        self.workers: dict[str, WorkerLedger] = {}
        #: ``lease`` records seen, by ``event``.
        self.events: dict[str, int] = {}
        self.violations: list[str] = []

    @classmethod
    def of_events(cls, events: Iterable[Mapping[str, Any]]) -> "LeaseReplay":
        """Replay raw ``events`` rows (as :meth:`LeaseStore.events` returns
        them)."""
        replay = cls()
        for event in events:
            replay.feed(store_event_record(event))
        return replay

    @property
    def takeovers(self) -> int:
        return self.events.get("takeover", 0)

    @property
    def fence_rejects(self) -> int:
        return self.events.get("fence_reject", 0)

    def committed(self) -> int:
        """How many chunks have a commit."""
        return sum(1 for chunk in self.chunks.values() if chunk.commit is not None)

    def uncommitted(self, total: int) -> list[int]:
        """Indices below ``total`` that no commit has landed on."""
        done = {index for index, chunk in self.chunks.items() if chunk.commit}
        return [index for index in range(total) if index not in done]

    def feed(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "worker":
            self._feed_life(record)
            return
        if kind != "lease":
            return
        event = str(record.get("event"))
        self.events[event] = self.events.get(event, 0) + 1
        name = record.get("worker")
        named = isinstance(name, str) and bool(name)
        # An anonymous record counts in the totals only.
        worker = self.workers.setdefault(name, WorkerLedger()) if named else WorkerLedger()
        if worker.state == "unknown":
            worker.state = "live"
        if event not in LEASE_EVENT_KINDS:
            return
        index = record.get("index")
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            index = None
        grant = event in ("claim", "takeover")
        worker.claims += grant
        worker.takeovers += event == "takeover"
        worker.commits += event == "commit"
        worker.fence_rejects += event == "fence_reject"
        if not grant and worker.holding == index:
            worker.holding = None
        if index is None:
            return
        chunk = self.chunks.setdefault(index, ChunkLedger(index))
        fence = int(record.get("fence") or 0)
        if grant:
            if fence != chunk.fence + 1:
                self.violations.append(
                    f"chunk {index}: grant fence jumped {chunk.fence} -> {fence} "
                    "(fences must be monotonic by exactly 1)"
                )
            if chunk.commit is not None:
                self.violations.append(
                    f"chunk {index}: re-granted (fence {fence}) after it was "
                    f"already committed at fence {chunk.commit.get('fence')}"
                )
            previous = self.workers.get(chunk.holder)
            if previous is not None and previous.holding == index:
                previous.holding = None
            chunk.grants.append(record)
            chunk.fence = fence
            chunk.holder = name if named else None
            worker.holding = index
        elif event == "commit":
            if not chunk.grants or fence != chunk.fence:
                self.violations.append(
                    f"chunk {index}: committed under fence {fence} but the "
                    f"current fence was {chunk.fence} — a stale "
                    "(expired/superseded) token landed data"
                )
            if chunk.commit is not None:
                self.violations.append(
                    f"chunk {index}: committed twice (fences "
                    f"{chunk.commit.get('fence')} and {fence})"
                )
            chunk.commit = record
        else:
            if chunk.grants and fence == chunk.fence and chunk.commit is None:
                self.violations.append(
                    f"chunk {index}: commit under the current fence {fence} "
                    "was rejected — the store refused legitimate data"
                )
            chunk.rejects.append(record)

    def _feed_life(self, record: Mapping[str, Any]) -> None:
        name = record.get("worker")
        if not isinstance(name, str) or not name:
            return
        worker = self.workers.setdefault(name, WorkerLedger())
        event = record.get("event")
        detail = record.get("detail")
        detail = detail if isinstance(detail, str) else None
        if event == "worker_start":
            worker.state = "live"
        elif event == "worker_exit":
            worker.state = "exited"
            worker.exit_detail = detail
        elif event == "fault":
            worker.faults += 1
            worker.last_fault = "fault" if detail is None else detail
            if detail is not None and detail.startswith("kill"):
                worker.state = "killed"


@dataclass(frozen=True)
class Lease:
    """One granted chunk lease: *this fence* owns *this chunk* until
    *expires* (or until a heartbeat extends it)."""

    campaign_id: int
    index: int
    fence: int
    expires: float


def _row_to_dict(cursor: sqlite3.Cursor, row: tuple) -> dict[str, Any]:
    return {desc[0]: value for desc, value in zip(cursor.description, row)}


def open_wal_store(
    path: str | os.PathLike[str], busy_timeout_ms: int
) -> sqlite3.Connection:
    """Connect to ``path`` (creating its directory) in WAL mode, with
    dict rows, foreign keys and a busy timeout.

    Switching to WAL takes the write lock, which SQLite refuses at once,
    without its busy handler, while another connection holds it: the
    switch is retried until the busy timeout runs out.  A filesystem
    that refuses WAL keeps the prior journal mode, which still works.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    conn.row_factory = _row_to_dict
    conn.execute("PRAGMA foreign_keys = ON")
    conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
    deadline = time.monotonic() + busy_timeout_ms / 1000
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return conn
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                conn.close()
                raise
            time.sleep(0.01)


class LeaseStore:
    """Open (creating if needed) the lease store at ``path``.

    Each process (and each thread — sqlite connections are not shared
    across threads) opens its own :class:`LeaseStore` on the same
    path; SQLite's locking does the rest.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
    ) -> None:
        self.path = Path(path)
        self.conn = open_wal_store(self.path, busy_timeout_ms)
        self.conn.execute("PRAGMA synchronous = NORMAL")
        self._init_schema()

    def _init_schema(self) -> None:
        (row,) = self.conn.execute("PRAGMA user_version").fetchall()
        version = row["user_version"]
        if version > LEASE_SCHEMA_VERSION:
            raise ExperimentError(
                f"{self.path} uses lease-store schema v{version}, newer than "
                f"this build's v{LEASE_SCHEMA_VERSION}; upgrade the package"
            )
        self.conn.executescript(_TABLES)
        if version < LEASE_SCHEMA_VERSION:
            self.conn.execute(f"PRAGMA user_version = {LEASE_SCHEMA_VERSION}")
        self.conn.commit()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with contextlib.suppress(sqlite3.Error):
            self.conn.close()

    def __enter__(self) -> "LeaseStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @contextlib.contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One immediate (write-locked) transaction; commits or rolls back."""
        if not self.conn.in_transaction:
            self.conn.execute("BEGIN IMMEDIATE")
        try:
            yield self.conn
        except BaseException:
            self.conn.rollback()
            raise
        self.conn.commit()

    # -- campaigns ------------------------------------------------------

    def create_campaign(
        self,
        fingerprint: str,
        *,
        spec: str,
        params: dict[str, Any] | None,
        items: int,
        chunksize: int,
    ) -> int:
        """Register a campaign (idempotent) and seed its chunk rows.

        Re-registering the same fingerprint is a *resume*: the existing
        chunk states (done chunks, live leases) are kept, so a crashed
        coordinator restarts where the fabric left off.  A fingerprint
        collision with different geometry is a caller bug and raises.
        """
        if items < 0 or chunksize < 1:
            raise ExperimentError(
                f"invalid campaign geometry: items={items} chunksize={chunksize}"
            )
        num_chunks = -(-items // chunksize) if items else 0
        with self._txn() as conn:
            existing = conn.execute(
                "SELECT * FROM campaigns WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if existing is not None:
                if existing["items"] != items or existing["chunksize"] != chunksize:
                    raise ExperimentError(
                        f"campaign {fingerprint[:12]} already registered with "
                        f"different geometry (items {existing['items']} vs "
                        f"{items}, chunksize {existing['chunksize']} vs "
                        f"{chunksize}); refusing to resume"
                    )
                return int(existing["id"])
            cursor = conn.execute(
                "INSERT INTO campaigns"
                " (fingerprint, spec, params, items, chunksize, chunks, created)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    spec,
                    json.dumps(params or {}, sort_keys=True, default=repr),
                    items,
                    chunksize,
                    num_chunks,
                    time.time(),
                ),
            )
            campaign_id = int(cursor.lastrowid)
            conn.executemany(
                "INSERT INTO chunks (campaign_id, idx) VALUES (?, ?)",
                [(campaign_id, index) for index in range(num_chunks)],
            )
        return campaign_id

    def campaign(self, fingerprint: str) -> dict[str, Any] | None:
        row = self.conn.execute(
            "SELECT * FROM campaigns WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is not None and row["params"]:
            row["params"] = json.loads(row["params"])
        return row

    def newest_campaign(self) -> dict[str, Any] | None:
        """The most recently registered campaign, or ``None``."""
        row = self.conn.execute(
            "SELECT id FROM campaigns ORDER BY id DESC LIMIT 1"
        ).fetchone()
        return self.campaign_by_id(int(row["id"])) if row is not None else None

    def campaign_by_id(self, campaign_id: int) -> dict[str, Any] | None:
        row = self.conn.execute(
            "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is not None and row["params"]:
            row["params"] = json.loads(row["params"])
        return row

    # -- leases ---------------------------------------------------------

    def claim(
        self, campaign_id: int, worker: str, *, ttl: float, now: float | None = None
    ) -> Lease | None:
        """Atomically claim the lowest claimable chunk, if any.

        Claimable: ``pending``, or ``leased`` with an expired lease
        (that grant is a **takeover** — the previous owner stopped
        heartbeating).  Every grant increments the chunk's fencing
        token.  Returns ``None`` when nothing is claimable right now
        (all done, or all leased and alive).
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            row = conn.execute(
                "SELECT idx, state, fence, owner FROM chunks"
                " WHERE campaign_id = ? AND (state = 'pending' OR"
                "   (state = 'leased' AND lease_expires < ?))"
                " ORDER BY idx LIMIT 1",
                (campaign_id, now),
            ).fetchone()
            if row is None:
                return None
            fence = int(row["fence"]) + 1
            expires = now + ttl
            conn.execute(
                "UPDATE chunks SET state = 'leased', fence = ?, owner = ?,"
                " lease_expires = ?, attempts = attempts + 1"
                " WHERE campaign_id = ? AND idx = ?",
                (fence, worker, expires, campaign_id, row["idx"]),
            )
            takeover = row["state"] == "leased"
            self._log(
                conn,
                campaign_id,
                worker,
                "takeover" if takeover else "claim",
                idx=row["idx"],
                fence=fence,
                detail=(f"expired lease of {row['owner']}" if takeover else None),
            )
            return Lease(campaign_id, int(row["idx"]), fence, expires)

    def heartbeat(
        self, lease: Lease, worker: str, *, ttl: float, now: float | None = None
    ) -> bool:
        """Extend a live lease; returns False when the fence is stale
        (the chunk was taken over or already committed) — the caller
        should stop wasting cycles on it."""
        now = time.time() if now is None else now
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE chunks SET lease_expires = ?"
                " WHERE campaign_id = ? AND idx = ? AND fence = ?"
                "   AND state = 'leased'",
                (now + ttl, lease.campaign_id, lease.index, lease.fence),
            )
            return cursor.rowcount == 1

    def commit(
        self,
        lease: Lease,
        worker: str,
        payload: str,
        *,
        now: float | None = None,
    ) -> bool:
        """Commit a completed chunk **iff** the lease's fence is current.

        This is the fencing guarantee: a worker that was presumed dead
        and superseded holds an old fence, so its late commit updates
        zero rows and is logged as ``fence_reject`` — the campaign's
        data can never be written under an expired fencing token.
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE chunks SET state = 'done', payload = ?,"
                " committed_by = ?, committed_fence = ?, completed = ?,"
                " owner = NULL, lease_expires = NULL"
                " WHERE campaign_id = ? AND idx = ? AND fence = ?"
                "   AND state = 'leased'",
                (
                    payload,
                    worker,
                    lease.fence,
                    now,
                    lease.campaign_id,
                    lease.index,
                    lease.fence,
                ),
            )
            accepted = cursor.rowcount == 1
            self._log(
                conn,
                lease.campaign_id,
                worker,
                "commit" if accepted else "fence_reject",
                idx=lease.index,
                fence=lease.fence,
                detail=None if accepted else "stale fence: lease was superseded",
            )
            return accepted

    # -- queries --------------------------------------------------------

    def chunk_state(self, campaign_id: int, index: int) -> dict[str, Any]:
        row = self.conn.execute(
            "SELECT * FROM chunks WHERE campaign_id = ? AND idx = ?",
            (campaign_id, index),
        ).fetchone()
        if row is None:
            raise ExperimentError(
                f"campaign {campaign_id} has no chunk {index}"
            )
        return row

    def counts(self, campaign_id: int) -> dict[str, int]:
        """Chunk-state histogram, e.g. ``{'pending': 2, 'done': 10}``."""
        rows = self.conn.execute(
            "SELECT state, COUNT(*) AS n FROM chunks WHERE campaign_id = ?"
            " GROUP BY state",
            (campaign_id,),
        ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    def all_done(self, campaign_id: int) -> bool:
        row = self.conn.execute(
            "SELECT COUNT(*) AS n FROM chunks"
            " WHERE campaign_id = ? AND state != 'done'",
            (campaign_id,),
        ).fetchone()
        return int(row["n"]) == 0

    def completed_payloads(self, campaign_id: int) -> dict[int, str]:
        rows = self.conn.execute(
            "SELECT idx, payload FROM chunks"
            " WHERE campaign_id = ? AND state = 'done' ORDER BY idx",
            (campaign_id,),
        ).fetchall()
        return {int(row["idx"]): row["payload"] for row in rows}

    # -- event log ------------------------------------------------------

    def _log(
        self,
        conn: sqlite3.Connection,
        campaign_id: int,
        worker: str | None,
        kind: str,
        *,
        idx: int | None = None,
        fence: int | None = None,
        detail: str | None = None,
    ) -> None:
        conn.execute(
            "INSERT INTO events (campaign_id, ts, worker, kind, idx, fence, detail)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (campaign_id, time.time(), worker, kind, idx, fence, detail),
        )

    def log_worker_event(
        self,
        campaign_id: int,
        worker: str,
        kind: str,
        *,
        idx: int | None = None,
        fence: int | None = None,
        detail: str | None = None,
    ) -> None:
        """Record a worker lifecycle/fault event (own transaction)."""
        with self._txn() as conn:
            self._log(
                conn, campaign_id, worker, kind, idx=idx, fence=fence, detail=detail
            )

    def events(
        self, campaign_id: int, *, after_id: int = 0
    ) -> list[dict[str, Any]]:
        """All events (optionally only those newer than ``after_id``)."""
        return self.conn.execute(
            "SELECT * FROM events WHERE campaign_id = ? AND id > ? ORDER BY id",
            (campaign_id, after_id),
        ).fetchall()
