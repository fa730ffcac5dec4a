"""The telemetry recorder and the ambient active-recorder registry.

Design constraints (see the module docs in ``repro/telemetry/__init__.py``):

* **Strict no-op when disabled.**  Instrumented code never constructs
  records, formats strings, or takes locks unless a recorder is
  active.  The gate is one module-global load plus a ``None`` check
  (:func:`get_active` / the fast helpers below), so the PR-1 hot-path
  numbers survive with telemetry off.
* **Streamed, append-only.**  Every record is one JSON line, written
  once under a plain lock and flushed as it is written, so a crashed
  (even SIGKILLed) campaign leaves a readable log and ``tail -f`` works
  while a campaign runs.  The log is opened for append after it is
  truncated, so each line lands at the end of the file even when
  another writer (``monitor LOG --follow`` adding its alerts) appends
  to it meanwhile.  Each line is exactly ``json.dumps(record,
  default=repr)``; a recorder builds the C encoder behind that call
  once (:func:`_line_encoder`) instead of once per record.
* **Phase markers folded per run.**  While a run is open
  (:meth:`~Telemetry.begin_run` to :meth:`~Telemetry.end_run`), a
  Decay phase marker adds to an integer accumulator keyed by
  ``(proto, index)``, and ``end_run`` writes the fold once, as the
  ``phases`` rows of ``run_end`` (one array per ``(proto, index)``,
  columns :data:`repro.telemetry.schema.PHASE_ROW_FIELDS`).  A marker
  with no run open is written as its own ``phase`` record.  A run that
  raises is closed by :meth:`~Telemetry.discard_run`: no ``run_end``,
  and its pending fold is dropped.
* **Fork-safe.**  A recorder remembers the PID that created it and
  silently drops records emitted from forked children — worker
  processes instead buffer into their own in-memory recorder and ship
  records back to the parent (see :mod:`repro.parallel`), which merges
  them into the stream with :meth:`Telemetry.write_record`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, TextIO

from repro._version import __version__
from repro.telemetry.schema import SCHEMA, SCHEMA_VERSION

__all__ = [
    "Telemetry",
    "get_active",
    "set_active",
    "activate",
    "phase",
    "event",
    "config_fingerprint",
    "git_sha",
]

#: Default slot interval between engine ``slot_batch`` records.
DEFAULT_SLOT_BATCH = 256

#: The ambient recorder; ``None`` means telemetry is disabled and every
#: fast helper below is a no-op.
_ACTIVE: "Telemetry | None" = None


class Telemetry:
    """An event recorder writing JSON-lines records.

    Construct with :meth:`to_path` (file-backed, streaming) or
    :meth:`buffered` (in-memory, used by pool workers whose records are
    shipped back to the parent).  All emission methods are cheap and
    never raise on serialisation trouble: values that are not JSON
    types are encoded via ``repr``.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        path: str | os.PathLike[str] | None = None,
        slot_batch: int = DEFAULT_SLOT_BATCH,
    ) -> None:
        if slot_batch < 1:
            raise ValueError("slot_batch must be >= 1")
        self._stream = stream
        self._owns_stream = False
        self._path = Path(path) if path is not None else None
        self._records: list[dict[str, Any]] | None = None if stream else []
        self.slot_batch = slot_batch
        self._pid = os.getpid()
        self._run_seq = 0
        self._current_run: str | None = None
        # The open run's phase fold, (proto, index) -> [count, slot_min,
        # slot_max, slot_sum, length_count, length_sum]; None while no
        # engine-managed run is open.
        self._phases: dict[tuple[Any, Any], list[Any]] | None = None
        self._closed = False
        # Serializes writes: worker ship-back can merge records from
        # multiple threads (resilient_map callbacks, fabric event
        # forwarding), and interleaved JSON lines would tear the log.
        self._write_lock = threading.Lock()
        self._encode = _line_encoder()

    # -- constructors ---------------------------------------------------

    @classmethod
    def to_path(
        cls, path: str | os.PathLike[str], *, slot_batch: int = DEFAULT_SLOT_BATCH
    ) -> "Telemetry":
        """A recorder streaming to ``path`` (parents created, truncated).

        The file is truncated, then opened for append: every record
        lands at the end of the file in one write, so lines another
        process appends meanwhile (``monitor LOG --follow`` writing its
        alerts) are neither overwritten nor torn.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND
        stream = open(os.open(target, flags, 0o666), "a", encoding="utf-8")
        recorder = cls(stream, path=target, slot_batch=slot_batch)
        recorder._owns_stream = True
        return recorder

    @classmethod
    def buffered(cls, *, slot_batch: int = DEFAULT_SLOT_BATCH) -> "Telemetry":
        """An in-memory recorder; read its records back with :meth:`drain`."""
        return cls(None, slot_batch=slot_batch)

    # -- properties -----------------------------------------------------

    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def current_run(self) -> str | None:
        """The run id events are being attributed to (engine-managed)."""
        return self._current_run

    # -- low-level emission ---------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one record of ``kind`` with the given fields.

        Records emitted while a run is open (between :meth:`begin_run`
        and :meth:`end_run`) are tagged with the run id automatically.
        """
        if self._closed or os.getpid() != self._pid:
            return
        record: dict[str, Any] = {"kind": kind, "ts": time.time()}
        if self._current_run is not None and "run" not in fields:
            record["run"] = self._current_run
        record.update(fields)
        self._write(record)

    def write_record(self, record: dict[str, Any]) -> None:
        """Merge a pre-formed record (e.g. shipped from a pool worker)."""
        if self._closed or os.getpid() != self._pid:
            return
        self._write(record)

    def _write(self, record: dict[str, Any]) -> None:
        with self._write_lock:
            if self._records is not None:
                self._records.append(record)
            else:
                assert self._stream is not None
                self._stream.write(self._encode(record) + "\n")
                self._stream.flush()

    # -- manifest -------------------------------------------------------

    def write_manifest(
        self,
        *,
        command: str | None = None,
        seed: int | None = None,
        config: dict[str, Any] | None = None,
        **extra: Any,
    ) -> dict[str, Any]:
        """Emit the run manifest (and a ``<log>.manifest.json`` sidecar).

        The manifest pins everything needed to reproduce the campaign:
        seed, a fingerprint of the configuration, the git commit, host
        and interpreter, and the package version.
        """
        manifest: dict[str, Any] = {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "created": time.time(),
            **host_facts(),
            "package_version": __version__,
            "git_sha": git_sha(),
            "pid": self._pid,
            "argv": list(sys.argv),
        }
        if command is not None:
            manifest["command"] = command
        if seed is not None:
            manifest["seed"] = seed
        if config is not None:
            manifest["config"] = config
            manifest["config_fingerprint"] = config_fingerprint(config)
        manifest.update(extra)
        self.emit("manifest", **manifest)
        if self._path is not None:
            sidecar = self._path.with_name(self._path.name + ".manifest.json")
            with contextlib.suppress(OSError):
                sidecar.write_text(
                    json.dumps(manifest, indent=2, sort_keys=True, default=repr) + "\n",
                    encoding="utf-8",
                )
        return manifest

    # -- runs -----------------------------------------------------------

    def begin_run(self, **fields: Any) -> str:
        """Open a run scope; subsequent records carry its id."""
        with self._write_lock:
            self._run_seq += 1
            run_id = f"r{self._run_seq}"
        self._current_run = run_id
        self._phases = {}
        self.emit("run_begin", run=run_id, **fields)
        return run_id

    def end_run(self, **fields: Any) -> None:
        """Close the current run scope; its phase fold, if any marker
        was folded, rides on ``run_end`` as ``phases``."""
        run_id = self._current_run or f"r{self._run_seq}"
        try:
            if self._phases:
                fields["phases"] = [
                    [proto, index, *acc] for (proto, index), acc in self._phases.items()
                ]
            self.emit("run_end", run=run_id, **fields)
        finally:
            self.discard_run()

    def discard_run(self) -> None:
        """Close the current run scope without a ``run_end`` (the run
        raised): later records carry no run id, and the markers folded
        so far are dropped, as the run adds nothing to the totals."""
        self._current_run = None
        self._phases = None

    def open_run(self, **fields: Any) -> str:
        """Allocate a run id and emit its ``run_begin`` without making
        it *the* current run.

        The batched backend interleaves many runs inside one slot loop,
        so no single run can own the ambient scope; events for such runs
        carry an explicit ``run=`` field instead.  Interleaves safely
        with engine-managed :meth:`begin_run`/:meth:`end_run` scopes.
        """
        # Seq allocation shares the write lock: concurrent open_run
        # calls (fabric event forwarding vs an in-process engine) must
        # never mint the same run id.
        with self._write_lock:
            self._run_seq += 1
            run_id = f"r{self._run_seq}"
        self.emit("run_begin", run=run_id, **fields)
        return run_id

    def close_run(self, run_id: str, **fields: Any) -> None:
        """Emit ``run_end`` for a run opened with :meth:`open_run`."""
        self.emit("run_end", run=run_id, **fields)

    # -- phase markers --------------------------------------------------

    def phase(self, proto: str, *, node: Any, index: int, slot: int, **fields: Any) -> None:
        """A protocol phase marker (Decay call, Broadcast phase, BFS layer).

        Folded into the open run (see
        :data:`repro.telemetry.schema.PHASE_ROW_FIELDS`), or written as
        a ``phase`` record when no run is open.
        """
        fold = self._phases
        if fold is None:
            self.emit("phase", proto=proto, node=node, index=index, slot=slot, **fields)
            return
        acc = fold.get((proto, index))
        if acc is None:
            fold[(proto, index)] = acc = [0, slot, slot, 0, 0, 0]
        acc[0] += 1
        if slot < acc[1]:
            acc[1] = slot
        if slot > acc[2]:
            acc[2] = slot
        acc[3] += slot
        start = fields.get("start_slot")
        if start is not None:
            acc[4] += 1
            acc[5] += slot - start + 1

    # -- lifecycle ------------------------------------------------------

    def drain(self) -> list[dict[str, Any]]:
        """Return and clear the buffered records (buffered recorders only)."""
        if self._records is None:
            return []
        records, self._records = self._records, []
        return records

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_stream and self._stream is not None:
            with contextlib.suppress(OSError):
                self._stream.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- ambient registry ----------------------------------------------------


def get_active() -> Telemetry | None:
    """The ambient recorder, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def set_active(recorder: Telemetry | None) -> Telemetry | None:
    """Install (or clear, with ``None``) the ambient recorder; returns
    the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


@contextlib.contextmanager
def activate(recorder: Telemetry) -> Iterator[Telemetry]:
    """Make ``recorder`` ambient for the duration of the block."""
    previous = set_active(recorder)
    try:
        yield recorder
    finally:
        set_active(previous)


# -- fast helpers (one global load + None check when disabled) ------------


def phase(proto: str, *, node: Any, index: int, slot: int, **fields: Any) -> None:
    recorder = _ACTIVE
    if recorder is not None:
        recorder.phase(proto, node=node, index=index, slot=slot, **fields)


def event(kind: str, **fields: Any) -> None:
    recorder = _ACTIVE
    if recorder is not None:
        recorder.emit(kind, **fields)


# -- encoding -------------------------------------------------------------


def _line_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, default=repr)`` with its C encoder built once.

    ``json.dumps`` builds a fresh encoder on every call when given
    ``default=``; this builds it once, with the arguments
    ``JSONEncoder(default=repr)`` passes, so the text is the same.  The
    caller serializes calls (the encoder's circular-reference markers
    are shared).  A failed encode leaves stale markers behind, so they
    are cleared before the error propagates.
    """
    spec = json.JSONEncoder(default=repr)
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:  # no C accelerator in this interpreter
        return spec.encode
    markers: dict[int, Any] = {}
    encode = make_encoder(
        markers, spec.default, json.encoder.encode_basestring_ascii, spec.indent,
        spec.key_separator, spec.item_separator, spec.sort_keys, spec.skipkeys,
        spec.allow_nan,
    )

    def line(value: Any) -> str:
        try:
            return "".join(encode(value, 0))
        except BaseException:
            markers.clear()
            raise

    return line


# -- manifest ingredients -------------------------------------------------


@functools.cache
def host_facts() -> Mapping[str, str]:
    """The manifest's host, platform and interpreter.  They hold for the
    life of the process and of its forks, so they are computed once
    (``platform.platform()`` alone costs milliseconds); read-only, as
    every caller shares them."""
    return types.MappingProxyType({
        "host": platform.node() or "unknown",
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    })


def config_fingerprint(config: dict[str, Any]) -> str:
    """A short stable digest of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_sha(repo_root: str | os.PathLike[str] | None = None) -> str | None:
    """The checked-out commit, read from ``.git`` without subprocesses.

    Best-effort: returns ``None`` outside a git checkout (e.g. an
    installed wheel) rather than raising.
    """
    try:
        start = Path(repo_root) if repo_root is not None else Path(__file__).resolve()
        for candidate in [start, *start.parents]:
            git_dir = candidate / ".git"
            if not git_dir.exists():
                continue
            if git_dir.is_file():  # worktree: "gitdir: <path>"
                pointer = git_dir.read_text(encoding="utf-8").strip()
                if not pointer.startswith("gitdir:"):
                    return None
                git_dir = (candidate / pointer.split(":", 1)[1].strip()).resolve()
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.split(":", 1)[1].strip()
            ref_file = git_dir / ref
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip() or None
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
            return None
    except OSError:
        return None
    return None
