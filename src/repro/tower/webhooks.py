"""Alert webhooks: POST monitor alerts out, with retries and a dead letter.

When the monitor fires an ``alert`` record (a theorem SLO tripped, a
fence rejected a stale commit), the tower POSTs it as JSON to every
configured URL.  Delivery is at-least-once with bounded retries: each
attempt backs off with the repo's seeded-jitter
:func:`repro.parallel.backoff_delay` (the hub sequence number seeds
the jitter, so retry schedules are deterministic per alert), and an
alert that exhausts its attempts lands in an on-disk JSONL
*dead-letter journal* instead of vanishing.  ``drain_dead_letters``
replays the journal — entries that now deliver are removed, the rest
stay — so a receiver outage is recovered with one call (or a ``POST
/webhooks/drain`` to a running tower).

The client side is the same hand-rolled HTTP/1.1 the server speaks:
``asyncio.open_connection`` + a fixed-length POST.  ``http://`` only —
the tower fronts a trusted lab network.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ExperimentError
from repro.monitor.tail import read_log_records
from repro.parallel import backoff_delay

__all__ = ["WebhookDispatcher", "DEFAULT_ATTEMPTS", "DEFAULT_BASE_DELAY"]

#: Delivery attempts per alert per URL before dead-lettering.
DEFAULT_ATTEMPTS = 3

#: Base seconds for the seeded-jitter exponential backoff between attempts.
DEFAULT_BASE_DELAY = 0.1

#: Per-attempt network timeout, seconds.
DEFAULT_TIMEOUT = 5.0


def _check_url(url: str) -> None:
    split = urlsplit(url)
    if split.scheme != "http" or not split.hostname:
        raise ExperimentError(
            f"webhook URL {url!r} is not plain http:// with a host; the "
            f"tower's hand-rolled client speaks http only"
        )


class WebhookDispatcher:
    """Deliver ``alert`` records to webhook URLs; journal what fails."""

    def __init__(
        self,
        urls: list[str],
        *,
        dead_letter: str | Path | None = None,
        attempts: int = DEFAULT_ATTEMPTS,
        base_delay: float = DEFAULT_BASE_DELAY,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        for url in urls:
            _check_url(url)
        self.urls = list(urls)
        self.dead_letter = Path(dead_letter) if dead_letter else None
        self.attempts = max(1, attempts)
        self.base_delay = base_delay
        self.timeout = timeout
        self.delivered = 0
        self.failed = 0
        self.queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None

    # -- feeding --------------------------------------------------------

    def submit(self, seq: int, record: dict[str, Any]) -> None:
        """Queue one alert for delivery (hub tap; never blocks)."""
        if self.urls:
            self.queue.put_nowait((seq, record))

    # -- the worker task ------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, *, flush_timeout: float = 10.0) -> None:
        """Drain queued alerts (bounded), then stop the worker."""
        if self._task is None:
            return
        try:
            await asyncio.wait_for(self.queue.join(), flush_timeout)
        except asyncio.TimeoutError:
            pass  # receivers are down; their alerts are dead-lettered/retried
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        while True:
            seq, record = await self.queue.get()
            try:
                for url in self.urls:
                    await self._deliver(url, seq, record)
            finally:
                self.queue.task_done()

    # -- delivery -------------------------------------------------------

    async def _deliver(self, url: str, seq: int, record: dict[str, Any]) -> bool:
        body = json.dumps(record, sort_keys=True, default=repr).encode("utf-8")
        error = "no attempt"
        for attempt in range(self.attempts):
            try:
                status = await self._post(url, body)
            except (OSError, asyncio.TimeoutError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                if 200 <= status < 300:
                    self.delivered += 1
                    return True
                error = f"HTTP {status}"
            if attempt + 1 < self.attempts:
                await asyncio.sleep(
                    backoff_delay(self.base_delay, attempt, chunk_index=seq)
                )
        self.failed += 1
        self._journal(url, seq, record, error)
        return False

    async def _post(self, url: str, body: bytes) -> int:
        """One hand-rolled ``POST url`` with ``body``; returns the status."""
        split = urlsplit(url)
        host = split.hostname or "localhost"
        port = split.port or 80
        path = split.path or "/"
        if split.query:
            path += "?" + split.query
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {split.netloc}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")

        async def _exchange() -> int:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(head + body)
                await writer.drain()
                status_line = await reader.readline()
                parts = status_line.decode("latin-1", "replace").split()
                if len(parts) < 2 or not parts[1].isdigit():
                    raise OSError(f"malformed webhook response {status_line!r}")
                return int(parts[1])
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

        return await asyncio.wait_for(_exchange(), self.timeout)

    # -- dead letter ----------------------------------------------------

    def _journal(self, url: str, seq: int, record: dict[str, Any], error: str) -> None:
        if self.dead_letter is None:
            return
        entry = {
            "url": url,
            "seq": seq,
            "record": record,
            "error": error,
            "attempts": self.attempts,
        }
        self.dead_letter.parent.mkdir(parents=True, exist_ok=True)
        with self.dead_letter.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(entry, sort_keys=True, default=repr) + "\n")

    async def drain_dead_letters(self) -> dict[str, int]:
        """Replay the journal; keep only what still fails to deliver.

        One fresh attempt per entry (the entry already burned its
        retries once).  The journal is rewritten atomically, so a crash
        mid-drain can duplicate a delivery but never lose an alert —
        the same at-least-once stance as the fabric's lease store.
        """
        if self.dead_letter is None or not self.dead_letter.exists():
            return {"redelivered": 0, "remaining": 0}
        entries = read_log_records(self.dead_letter)
        remaining: list[dict[str, Any]] = []
        redelivered = 0
        for entry in entries:
            url = entry.get("url")
            record = entry.get("record")
            if not isinstance(url, str) or not isinstance(record, dict):
                continue
            body = json.dumps(record, sort_keys=True, default=repr).encode("utf-8")
            try:
                status = await self._post(url, body)
                ok = 200 <= status < 300
            except (OSError, asyncio.TimeoutError):
                ok = False
            if ok:
                redelivered += 1
                self.delivered += 1
            else:
                remaining.append(entry)
        tmp = self.dead_letter.with_suffix(self.dead_letter.suffix + ".tmp")
        tmp.write_text(
            "".join(
                json.dumps(e, sort_keys=True, default=repr) + "\n"
                for e in remaining
            ),
            encoding="utf-8",
        )
        tmp.replace(self.dead_letter)
        return {"redelivered": redelivered, "remaining": len(remaining)}
