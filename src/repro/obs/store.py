"""The SQLite run store behind ``python -m repro obs``.

One database file holds the cross-run history: ingested telemetry logs
(as run rows plus their aggregate metrics, time series, phase tables
and provenance entries) and bench trajectory points from
``BENCH_*.json``.  Everything is stdlib ``sqlite3`` — no external
dependencies, one self-contained file that can be committed, shipped
or uploaded as a CI artifact.

Schema versioning uses ``PRAGMA user_version``: a fresh database is
stamped with :data:`SCHEMA_VERSION`; opening a database written by a
*newer* schema fails loudly instead of corrupting it.

Ingest is idempotent: runs are keyed on a fingerprint of their
manifest (see :func:`repro.obs.ingest.fingerprint_of`), so re-ingesting
the same log replaces its rows instead of duplicating them, and bench
points are keyed on a digest of their payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ExperimentError
from repro.fabric.store import open_wal_store

__all__ = ["SCHEMA_VERSION", "RunStore"]

#: Bumped whenever the table layout changes incompatibly.
SCHEMA_VERSION = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL UNIQUE,
    command TEXT,
    seed INTEGER,
    created REAL,
    git_sha TEXT,
    host TEXT,
    package_version TEXT,
    config_fingerprint TEXT,
    config_json TEXT,
    source_path TEXT,
    records INTEGER,
    ingested_at REAL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    value REAL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS series (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    seq INTEGER NOT NULL,
    x REAL,
    y REAL
);
CREATE INDEX IF NOT EXISTS series_run_name ON series(run_id, name, seq);
CREATE TABLE IF NOT EXISTS phases (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    proto TEXT NOT NULL,
    idx INTEGER NOT NULL,
    count INTEGER,
    slot_mean REAL,
    mean_length REAL
);
CREATE TABLE IF NOT EXISTS provenance (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    engine_run TEXT,
    slot INTEGER NOT NULL,
    node TEXT NOT NULL,
    outcome TEXT NOT NULL,
    tx TEXT,
    detail TEXT
);
CREATE INDEX IF NOT EXISTS provenance_lookup ON provenance(run_id, node, slot);
CREATE TABLE IF NOT EXISTS bench (
    id INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL UNIQUE,
    recorded REAL,
    git_sha TEXT,
    scale TEXT,
    combined_slots_per_sec REAL,
    payload TEXT
);
"""


#: Default wait (ms) for a competing writer's transaction to finish.
DEFAULT_BUSY_TIMEOUT_MS = 5000


class RunStore:
    """Open (creating if needed) the run store at ``path``.

    The store is opened in WAL journal mode with a busy timeout so
    several processes can ingest concurrently (e.g. parallel CI legs or
    fabric workers sharing one database): WAL lets readers proceed
    under a writer, and the busy timeout makes competing writers queue
    instead of failing with ``database is locked``.  Ingest stays
    idempotent under that concurrency — ``upsert_run`` runs in one
    immediate transaction keyed on the manifest fingerprint.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
    ) -> None:
        self.path = Path(path)
        self.conn = open_wal_store(self.path, busy_timeout_ms)
        self._init_schema()

    def _init_schema(self) -> None:
        (row,) = self.conn.execute("PRAGMA user_version").fetchall()
        version = row["user_version"]
        if version > SCHEMA_VERSION:
            raise ExperimentError(
                f"{self.path} uses run-store schema v{version}, newer than this "
                f"build's v{SCHEMA_VERSION}; upgrade the package or use a new file"
            )
        self.conn.executescript(_TABLES)
        if version < SCHEMA_VERSION:
            self.conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self.conn.commit()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- run ingestion (used by repro.obs.ingest) -----------------------

    def upsert_run(self, fingerprint: str, info: dict[str, Any]) -> tuple[int, bool]:
        """Insert a run row, replacing any prior row with this fingerprint.

        Returns ``(run_id, replaced)``.  Child rows (metrics, series,
        phases, provenance) of a replaced run are dropped, so a
        re-ingested log lands exactly once however many times it is
        ingested.

        The check-then-write runs under an immediate (write-locked)
        transaction: two processes ingesting the same log concurrently
        serialize on the lock instead of racing the existence check —
        the loser sees the winner's row and takes the replace path, so
        exactly one run row survives either way.
        """
        columns = (
            "command", "seed", "created", "git_sha", "host", "package_version",
            "config_fingerprint", "config_json", "source_path", "records",
            "ingested_at",
        )
        values = [info.get(column) for column in columns]
        if not self.conn.in_transaction:
            self.conn.execute("BEGIN IMMEDIATE")
        existing = self.conn.execute(
            "SELECT id FROM runs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if existing is not None:
            # Same log again: keep the run id stable, drop the old child
            # rows, refresh the row (the log may have grown since).
            run_id = int(existing["id"])
            for table in ("metrics", "series", "phases", "provenance"):
                self.conn.execute(f"DELETE FROM {table} WHERE run_id = ?", (run_id,))
            assignments = ", ".join(f"{column} = ?" for column in columns)
            self.conn.execute(
                f"UPDATE runs SET {assignments} WHERE id = ?", (*values, run_id)
            )
            self.conn.commit()
            return run_id, True
        cursor = self.conn.execute(
            "INSERT INTO runs (fingerprint, "
            + ", ".join(columns)
            + ") VALUES (" + ", ".join("?" * (len(columns) + 1)) + ")",
            (fingerprint, *values),
        )
        self.conn.commit()
        return int(cursor.lastrowid), False

    def add_metrics(self, run_id: int, metrics: dict[str, float]) -> None:
        self.conn.executemany(
            "INSERT OR REPLACE INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
            [(run_id, name, value) for name, value in metrics.items()],
        )
        self.conn.commit()

    def add_series(
        self, run_id: int, name: str, points: Iterable[tuple[float, float]]
    ) -> None:
        self.conn.executemany(
            "INSERT INTO series (run_id, name, seq, x, y) VALUES (?, ?, ?, ?, ?)",
            [(run_id, name, seq, x, y) for seq, (x, y) in enumerate(points)],
        )
        self.conn.commit()

    def add_phases(self, run_id: int, rows: Iterable[dict[str, Any]]) -> None:
        self.conn.executemany(
            "INSERT INTO phases (run_id, proto, idx, count, slot_mean, mean_length)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            [
                (run_id, r["proto"], r["idx"], r.get("count"),
                 r.get("slot_mean"), r.get("mean_length"))
                for r in rows
            ],
        )
        self.conn.commit()

    def add_provenance(self, run_id: int, rows: Iterable[dict[str, Any]]) -> None:
        self.conn.executemany(
            "INSERT INTO provenance"
            " (run_id, engine_run, slot, node, outcome, tx, detail)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (run_id, r.get("engine_run"), r["slot"], r["node"], r["outcome"],
                 json.dumps(r.get("tx", []), default=repr), r.get("detail"))
                for r in rows
            ],
        )
        self.conn.commit()

    # -- run queries ----------------------------------------------------

    def runs(self) -> list[dict[str, Any]]:
        """All runs, trend-ordered (manifest creation time, then id)."""
        return self.conn.execute(
            "SELECT * FROM runs ORDER BY created IS NULL, created, id"
        ).fetchall()

    def resolve_run(self, selector: str | int) -> dict[str, Any]:
        """A run row from ``latest``/``prev``, a numeric id, or a
        fingerprint prefix."""
        runs = self.runs()
        if not runs:
            raise ExperimentError(f"{self.path}: the run store is empty; ingest first")
        text = str(selector)
        if text == "latest":
            return runs[-1]
        if text == "prev":
            if len(runs) < 2:
                raise ExperimentError(f"{self.path}: no previous run (only 1 ingested)")
            return runs[-2]
        if text.isdigit():
            for run in runs:
                if run["id"] == int(text):
                    return run
            raise ExperimentError(f"{self.path}: no run with id {text}")
        matches = [r for r in runs if str(r["fingerprint"]).startswith(text)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ExperimentError(f"{self.path}: no run fingerprint starts with {text!r}")
        raise ExperimentError(
            f"{self.path}: fingerprint prefix {text!r} is ambiguous "
            f"({len(matches)} matches)"
        )

    def metrics_for(self, run_id: int) -> dict[str, float]:
        rows = self.conn.execute(
            "SELECT name, value FROM metrics WHERE run_id = ? ORDER BY name", (run_id,)
        ).fetchall()
        return {r["name"]: r["value"] for r in rows}

    def series_for(self, run_id: int, name: str) -> list[tuple[float, float]]:
        rows = self.conn.execute(
            "SELECT x, y FROM series WHERE run_id = ? AND name = ? ORDER BY seq",
            (run_id, name),
        ).fetchall()
        return [(r["x"], r["y"]) for r in rows]

    def phases_for(self, run_id: int) -> list[dict[str, Any]]:
        return self.conn.execute(
            "SELECT proto, idx, count, slot_mean, mean_length FROM phases"
            " WHERE run_id = ? ORDER BY proto, idx",
            (run_id,),
        ).fetchall()

    def provenance_at(
        self, run_id: int, node: str, slot: int, engine_run: str | None = None
    ) -> list[dict[str, Any]]:
        """All (node, slot) entries — one per engine run within the log."""
        query = (
            "SELECT engine_run, slot, node, outcome, tx, detail FROM provenance"
            " WHERE run_id = ? AND node = ? AND slot = ?"
        )
        params: tuple[Any, ...] = (run_id, node, slot)
        if engine_run is not None:
            query += " AND engine_run = ?"
            params += (engine_run,)
        return self.conn.execute(query + " ORDER BY engine_run", params).fetchall()

    def provenance_for_node(self, run_id: int, node: str) -> list[dict[str, Any]]:
        return self.conn.execute(
            "SELECT engine_run, slot, node, outcome, tx, detail FROM provenance"
            " WHERE run_id = ? AND node = ? ORDER BY slot",
            (run_id, node),
        ).fetchall()

    def provenance_count(self, run_id: int) -> int:
        row = self.conn.execute(
            "SELECT COUNT(*) AS n FROM provenance WHERE run_id = ?", (run_id,)
        ).fetchone()
        return int(row["n"])

    def metric_trend(self, name: str) -> list[dict[str, Any]]:
        """``(run, value)`` pairs of one metric over trend-ordered runs."""
        return self.conn.execute(
            "SELECT runs.*, metrics.value AS value FROM runs"
            " JOIN metrics ON metrics.run_id = runs.id AND metrics.name = ?"
            " ORDER BY runs.created IS NULL, runs.created, runs.id",
            (name,),
        ).fetchall()

    # -- bench trajectory ----------------------------------------------

    def add_bench_point(self, fingerprint: str, payload: dict[str, Any]) -> bool:
        """Insert one bench point; returns False if already present."""
        cursor = self.conn.execute(
            "INSERT OR IGNORE INTO bench"
            " (fingerprint, recorded, git_sha, scale, combined_slots_per_sec, payload)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                payload.get("recorded"),
                payload.get("git_sha"),
                payload.get("scale"),
                payload.get("combined_slots_per_sec"),
                json.dumps(payload, sort_keys=True, default=repr),
            ),
        )
        self.conn.commit()
        return cursor.rowcount > 0

    def bench_points(self) -> list[dict[str, Any]]:
        """All bench points, trend-ordered (recording time, then id)."""
        return self.conn.execute(
            "SELECT * FROM bench ORDER BY recorded IS NULL, recorded, id"
        ).fetchall()
