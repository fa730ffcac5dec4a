"""What a campaign is: its plan, its journal and its splice.

A *campaign* is a seeded item list run through one callable.  Every
executor in this package — the in-process loop and process pool of
:mod:`repro.parallel`, and the lease-store workers of
:mod:`repro.fabric` — runs campaigns the same way:

1. :func:`plan_campaign` pins the campaign's identity (a fingerprint of
   the callable and its items), validates the chunk length and cuts the
   items into contiguous chunks;
2. each chunk is computed by :func:`run_chunk`, wherever it runs;
3. completed chunks are encoded by :func:`encode_chunk`, checkpointed
   by :class:`CampaignJournal` (or committed to a lease store), and
   reassembled in index order by :func:`splice`.

Chunk inputs are re-derived seeds, not consumed stream state, so a
campaign journaled by the pool, resumed by the fabric and finished by a
third party still splices to exactly the bytes a serial loop produces.

On-disk contract
----------------
Journals and lease stores written by one version of this code must
resume under the next, so these are frozen:

* the fingerprint: ``sha256(module ␟ qualname ␟ pickle(list(items)))``
  (``␟`` is the byte ``0x1f``).  It names the callable by module and
  qualified name, so a callable that campaigns run under must keep
  both;
* the chunk payload: ``base64(pickle(list(results)))``;
* the journal lines: one ``header`` record (``version``,
  ``fingerprint``, ``items``, ``chunksize``), then one ``chunk`` record
  (``index``, ``payload``) per completed chunk, each ``json.dumps``'d
  with default separators and key order.

Bump :attr:`CampaignJournal.VERSION` whenever any of these changes, so
an old journal is refused instead of spliced wrongly.  Execution
settings — worker counts, backends, batch functions, timeouts — never
enter the contract.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from repro.errors import ExperimentError
from repro.rng import spawn

__all__ = [
    "CampaignJournal",
    "CampaignPlan",
    "backoff_delay",
    "campaign_fingerprint",
    "decode_chunk",
    "default_chunksize",
    "encode_chunk",
    "make_chunks",
    "plan_campaign",
    "run_chunk",
    "splice",
]

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.campaign")

#: Chunks handed to each worker; >1 smooths out uneven task durations.
CHUNKS_PER_WORKER = 4


def campaign_fingerprint(fn: Callable[..., Any], items: Sequence[Any]) -> str:
    """A stable digest of *which campaign this is*.

    Built from the callable's qualified name and the item list, so
    resuming with a different experiment or different seeds fails
    loudly instead of splicing unrelated results together.  Execution
    knobs — worker counts, backends, batch functions — deliberately do
    not enter the digest: a campaign journaled under one backend can
    resume under another (the parity suite makes that sound).
    """
    hasher = hashlib.sha256()
    hasher.update(getattr(fn, "__module__", "?").encode())
    hasher.update(b"\x1f")
    hasher.update(getattr(fn, "__qualname__", repr(fn)).encode())
    hasher.update(b"\x1f")
    try:
        hasher.update(pickle.dumps(list(items)))
    except Exception:
        hasher.update(repr(list(items)).encode())
    return hasher.hexdigest()


def default_chunksize(
    num_items: int, jobs: int, *, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> int:
    """Contiguous chunk length for dispatching ``num_items`` tasks."""
    return max(1, -(-num_items // (max(1, jobs) * chunks_per_worker)))


def make_chunks(items: Sequence[T], chunksize: int) -> list[list[T]]:
    """Cut ``items`` into the contiguous chunks a campaign dispatches."""
    if chunksize < 1:
        raise ExperimentError(f"chunksize must be >= 1, got {chunksize}")
    items = list(items)
    return [items[i : i + chunksize] for i in range(0, len(items), chunksize)]


class CampaignPlan:
    """One campaign's identity and chunk geometry."""

    def __init__(self, fn: Callable[..., Any], items: list[Any], chunksize: int):
        self.fn = fn
        self.items = items
        self.chunksize = chunksize
        self.chunks = make_chunks(items, chunksize)

    @cached_property
    def fingerprint(self) -> str:
        # Lazy: it pickles every item, and only journals and lease
        # stores need it.
        return campaign_fingerprint(self.fn, self.items)


def plan_campaign(
    fn: Callable[..., Any],
    items: Sequence[T],
    *,
    jobs: int = 1,
    chunksize: int | None = None,
) -> CampaignPlan:
    """Plan ``fn`` over ``items`` for ``jobs`` workers.

    ``chunksize=None`` picks :func:`default_chunksize`; any explicit
    value below 1 raises :class:`ExperimentError` on every transport.
    """
    items = list(items)
    if chunksize is None:
        chunksize = default_chunksize(len(items), jobs)
    return CampaignPlan(fn, items, chunksize)


def run_chunk(
    fn: Callable[[T], R],
    chunk: list[T],
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> list[R]:
    """Compute one chunk: ``fn`` per item, or ``batch_fn`` on the whole
    chunk at once (which must return exactly one result per item)."""
    if batch_fn is None:
        return [fn(item) for item in chunk]
    results = list(batch_fn(chunk))
    if len(results) != len(chunk):
        raise ExperimentError(
            f"batch_fn returned {len(results)} results for a chunk of "
            f"{len(chunk)} items; it must return exactly one per item"
        )
    return results


def encode_chunk(results: Sequence[Any]) -> str:
    """Encode one chunk's results as the journal/lease-store payload."""
    return base64.b64encode(pickle.dumps(list(results))).decode("ascii")


def decode_chunk(payload: str) -> list[Any]:
    """Inverse of :func:`encode_chunk`."""
    return pickle.loads(base64.b64decode(payload))


def splice(
    num_chunks: int, results: dict[int, list[Any]], *, where: str = "campaign"
) -> list[Any]:
    """Reassemble completed chunks into the flat, in-order result list.

    Raises :class:`ExperimentError` when any chunk is missing — a
    splice must never silently drop or reorder results.
    """
    missing = [index for index in range(num_chunks) if index not in results]
    if missing:
        raise ExperimentError(
            f"{where}: cannot splice — chunk(s) {missing[:8]} of {num_chunks} "
            "never completed"
        )
    return [value for index in range(num_chunks) for value in results[index]]


def backoff_delay(base: float, attempt: int, *, chunk_index: int = 0) -> float:
    """Exponential backoff with *seeded*, deterministic jitter.

    ``base * 2**(attempt-1)`` scaled by a factor in ``[0.5, 1.5)``
    drawn from a stream derived from ``(chunk_index, attempt)`` — the
    same chunk retried the same number of times always sleeps the same
    amount, so resilience behaviour is replayable, while distinct
    chunks/attempts decorrelate (no thundering-herd resubmission when
    many campaigns share a host).
    """
    if attempt < 1:
        return 0.0
    jitter = 0.5 + spawn(chunk_index, "retry-backoff", attempt).random()
    return base * (2 ** (attempt - 1)) * jitter


class CampaignJournal:
    """Chunk-level checkpoint file for a campaign.

    The journal is a JSON-lines file: a header record pinning the
    campaign identity (a fingerprint of the callable and its items),
    the chunk geometry, and then one record per completed chunk with
    its pickled results.  Appends are flushed per chunk, so a killed
    campaign loses at most the chunk in flight; a truncated trailing
    line (torn write — a crash mid-:meth:`record_chunk`) is truncated
    away on load, like :class:`repro.monitor.tail.TailReader` does, so
    subsequent appends never concatenate onto the torn prefix.
    Corruption *before* the final line is a real error and raises.

    Resuming re-runs only the missing chunks and fixes ``chunksize``
    from the header, so the final result list is byte-identical to an
    uninterrupted run even if the worker count changed in between.
    """

    VERSION = 1

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._chunksize: int | None = None

    def start(
        self,
        fingerprint: str,
        num_items: int,
        chunksize: int,
        *,
        resume: bool,
    ) -> dict[int, list[Any]]:
        """Open the journal; return the chunks already completed.

        With ``resume=False`` any existing file is replaced by a fresh
        header.  With ``resume=True`` the existing journal is loaded,
        its identity is checked against ``fingerprint``/``num_items``
        (mismatch raises :class:`ExperimentError`), the recorded chunk
        geometry is adopted, and completed chunk results are returned.
        """
        if resume and self.path.exists():
            header, completed = self._load()
            if header["fingerprint"] != fingerprint or header["items"] != num_items:
                raise ExperimentError(
                    f"journal {self.path} belongs to a different campaign "
                    "(fingerprint/items mismatch); refusing to resume"
                )
            self._chunksize = int(header["chunksize"])
            return completed
        self._chunksize = chunksize
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": self.VERSION,
            "fingerprint": fingerprint,
            "items": num_items,
            "chunksize": chunksize,
        }
        self.path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        return {}

    @property
    def chunksize(self) -> int:
        if self._chunksize is None:
            raise ExperimentError("journal not started")
        return self._chunksize

    def record_chunk(self, index: int, results: list[Any]) -> None:
        """Append one completed chunk (flushed immediately)."""
        record = {"kind": "chunk", "index": index, "payload": encode_chunk(results)}
        with self.path.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
            os.fsync(stream.fileno())

    def _load(self) -> tuple[dict[str, Any], dict[int, list[Any]]]:
        """Parse the journal, truncating a torn final line in place.

        A crash mid-:meth:`record_chunk` leaves an unterminated (or
        otherwise undecodable) final line.  That line is *expected*
        debris, not corruption: it is logged, the file is truncated to
        the last good record, and the campaign resumes — so later
        appends start on a clean line instead of concatenating onto the
        torn prefix.  Undecodable lines with complete records *after*
        them cannot be explained by a torn write and raise.
        """
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when the file ends on a newline
        good_bytes = 0
        header: dict[str, Any] | None = None
        completed: dict[int, list[Any]] = {}
        parsed: list[dict[str, Any]] = []
        torn_at: int | None = None
        for line_number, raw in enumerate(lines, start=1):
            try:
                record = json.loads(raw)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                if record.get("kind") == "chunk":
                    # Decode eagerly: a torn payload is torn debris too.
                    record["_results"] = decode_chunk(record["payload"])
            except Exception:
                torn_at = line_number
                break
            parsed.append(record)
            good_bytes += len(raw) + 1
        if torn_at is not None and torn_at < len(lines):
            raise ExperimentError(
                f"journal {self.path} is corrupt at line {torn_at} with "
                "complete records after it; this is not a torn tail — "
                "refusing to guess (restart without --resume)"
            )
        if torn_at is not None or tail:
            logger.warning(
                "journal %s: truncating torn final line (crash mid-append); "
                "resuming from the last complete chunk",
                self.path,
            )
            with self.path.open("r+b") as stream:
                stream.truncate(good_bytes)
        for record in parsed:
            if record.get("kind") == "header":
                if record.get("version") != self.VERSION:
                    raise ExperimentError(
                        f"journal {self.path} has unsupported version "
                        f"{record.get('version')!r}"
                    )
                header = record
            elif record.get("kind") == "chunk":
                completed[int(record["index"])] = record["_results"]
        if header is None:
            raise ExperimentError(f"journal {self.path} has no header record")
        return header, completed
