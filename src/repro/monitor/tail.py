"""Tail-follow reading of JSON-lines telemetry logs.

Telemetry writers emit one ``<json>\\n`` line per record and flush as
they go, so an out-of-process monitor can watch a campaign by polling
the file for new bytes.  The subtlety is the *torn tail*: a reader can
race the writer mid-flush and see half a record with no newline yet.
:class:`TailReader` therefore decodes only newline-terminated lines and
buffers the remainder until its newline arrives — a partially-written
final line is *pending*, never an error.

Two front ends:

* :func:`iter_log_records` — one pass over everything complete in the
  file right now, a chunk at a time (the non-``--follow`` monitor
  path); :func:`read_log_records` is its list.
* :func:`follow_records` — a generator that keeps polling and yields
  records as the writer appends them (the ``--follow`` path), with an
  optional idle timeout and stop predicate so CI runs terminate.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ExperimentError

__all__ = ["TailReader", "iter_log_records", "read_log_records", "follow_records"]

#: Bytes :func:`iter_log_records` reads per poll: a pass over a large
#: log holds one chunk's records at a time, not the whole file's.
CHUNK_BYTES = 1 << 20


class TailReader:
    """Incremental, torn-write-tolerant JSON-lines reader.

    Each :meth:`poll` reads whatever bytes the writer has appended
    since the last call, splits off the complete (newline-terminated)
    lines and decodes them; an unterminated tail stays buffered until a
    later poll completes it.  Lines that are complete but undecodable
    (corrupt bytes, truncated by a crash *and* followed by more data)
    are counted in :attr:`invalid` and skipped.  This is the one
    tolerant JSON-lines reader: telemetry summaries, flamegraph inputs
    and fabric journals are all read through it.

    The reader also survives the file being replaced underneath it:
    an in-place truncation (size shrank) or a rotation (same path, new
    inode) resets the cursor to the top of the new file instead of
    stalling at a stale offset; rotations are counted in
    :attr:`rotations`.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.offset = 0
        self.lineno = 0
        self.invalid = 0
        self.rotations = 0
        self._inode: int | None = None
        self._buffer = b""

    @property
    def pending(self) -> bool:
        """True while a partially-written line is buffered."""
        return bool(self._buffer)

    def _reset(self) -> None:
        self.offset = 0
        self.lineno = 0
        self._buffer = b""

    def poll_numbered(self, max_bytes: int = -1) -> list[tuple[int, Any]]:
        """Every line completed since the last poll, as ``(lineno, value)``.

        At most ``max_bytes`` new bytes are read (all of them when
        negative); a line they end inside stays buffered.

        ``value`` is the decoded JSON (of any type), or the
        :class:`json.JSONDecodeError` when the line is not JSON; blank
        lines are skipped.  :meth:`poll` is the record-only view; the
        strict schema reader in :mod:`repro.telemetry.summary` uses the
        line numbers to name the bad line.
        """
        try:
            stat = self.path.stat()
        except OSError:
            # Not created yet (monitor started first), or mid-rotation:
            # the old file was renamed away and the new one isn't there
            # yet.  Keep the remembered inode — the replacement file
            # gets a different one, which is exactly how the next poll
            # detects the rotation even if the new file happens to be
            # the same size as the old offset.
            return []
        size = stat.st_size
        if self._inode is not None and stat.st_ino != self._inode:
            # The path now names a different file: the log was rotated
            # (renamed away and recreated).  Without this check the
            # reader would keep comparing the *new* file's size against
            # the *old* offset and silently stall forever.
            self.rotations += 1
            self._reset()
        self._inode = stat.st_ino
        if size < self.offset:
            # The file shrank in place: the writer truncated and
            # restarted (a rerun over the same path).  Start over.
            self._reset()
        if size == self.offset:
            return []
        with self.path.open("rb") as stream:
            stream.seek(self.offset)
            chunk = stream.read(max_bytes)
        self.offset += len(chunk)
        data = self._buffer + chunk
        lines = data.split(b"\n")
        self._buffer = lines.pop()  # b"" when data ended on a newline
        values: list[tuple[int, Any]] = []
        for raw in lines:
            self.lineno += 1
            if not raw.strip():
                continue
            # errors="replace": undecodable bytes (a torn binary tail, a
            # disk hiccup) become U+FFFD and fail JSON decoding for this
            # line only, so one bad region never aborts the whole read.
            try:
                value = json.loads(raw.decode("utf-8", errors="replace"))
            except json.JSONDecodeError as exc:
                value = exc
            values.append((self.lineno, value))
        return values

    def poll(self, max_bytes: int = -1) -> list[dict[str, Any]]:
        """Decode every record completed since the last poll."""
        records: list[dict[str, Any]] = []
        for _lineno, value in self.poll_numbered(max_bytes):
            if isinstance(value, dict):
                records.append(value)
            else:
                self.invalid += 1
        return records


def iter_log_records(path: str | os.PathLike[str]) -> Iterator[dict[str, Any]]:
    """Every record complete in the log when the pass starts, read
    :data:`CHUNK_BYTES` at a time (torn tail ignored).  Lines appended
    during the pass, such as the alerts a monitor pass writes to the
    log it reads, are not read."""
    log = Path(path)
    if not log.exists():
        raise ExperimentError(f"no telemetry log at {log}")
    reader = TailReader(log)
    end = log.stat().st_size
    while reader.offset < end:
        offset = reader.offset
        yield from reader.poll(min(CHUNK_BYTES, end - offset))
        if reader.offset == offset:  # the file went away or shrank
            return


def read_log_records(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Everything complete in the log right now (torn tail ignored)."""
    return list(iter_log_records(path))


def follow_records(
    path: str | os.PathLike[str],
    *,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield records live as the writer appends them.

    Ends when ``stop()`` turns true, or when no new bytes have arrived
    for ``idle_timeout`` seconds (``None``: follow until interrupted).
    The file may not exist yet when following starts; the idle clock
    covers the wait for its creation too.
    """
    reader = TailReader(path)
    last_data = time.monotonic()
    while True:
        records = reader.poll()
        if records:
            last_data = time.monotonic()
            yield from records
        if stop is not None and stop():
            yield from reader.poll()  # drain what raced the stop signal
            return
        if not records:
            if (
                idle_timeout is not None
                and time.monotonic() - last_data >= idle_timeout
            ):
                return
            time.sleep(poll_interval)
