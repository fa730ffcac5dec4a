"""The telemetry recorder and the ambient active-recorder registry.

Design constraints (see the module docs in ``repro/telemetry/__init__.py``):

* **Strict no-op when disabled.**  Instrumented code never constructs
  records, formats strings, or takes locks unless a recorder is
  active.  The gate is one module-global load plus a ``None`` check
  (:func:`get_active` / the fast helpers below), so the PR-1 hot-path
  numbers survive with telemetry off.
* **Streamed, append-only.**  Every record is one JSON line, flushed
  as it is written, so a crashed (even SIGKILLed) campaign leaves a
  readable log and ``tail -f`` works while a campaign runs.  Each line
  is exactly ``json.dumps(record, default=repr)``; a recorder builds
  the C encoder behind that call once (:func:`_line_encoder`) instead
  of once per record.
* **Fork-safe.**  A recorder remembers the PID that created it and
  silently drops records emitted from forked children — worker
  processes instead buffer into their own in-memory recorder and ship
  records back to the parent (see :mod:`repro.parallel`), which merges
  them into the stream with :meth:`Telemetry.write_record`.
* **Subscriber bus.**  In-process consumers (the live conformance
  monitor, the status board — see :mod:`repro.monitor`) can
  :meth:`~Telemetry.subscribe` a callback and observe every record as
  it is written, including worker records merged via
  :meth:`~Telemetry.write_record`.  With no subscriber attached the
  cost is one falsy-tuple check per record, and with telemetry
  disabled nothing changes at all — the strict no-op guarantee above
  is untouched (the bench harness guards this:
  ``benchmarks/bench_engine.py --bus-check``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import platform
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, TextIO

from repro._version import __version__
from repro.perf import core as _perf_core
from repro.telemetry.schema import SCHEMA, SCHEMA_VERSION

__all__ = [
    "Telemetry",
    "get_active",
    "set_active",
    "activate",
    "phase",
    "counter",
    "gauge",
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
    """A hierarchical event/metric recorder writing JSON-lines records.

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
        self._closed = False
        # Subscriber bus: an immutable tuple so dispatch never races a
        # subscribe/unsubscribe, and the no-subscriber fast path is one
        # falsy check.  Depth-guarded so a subscriber that emits records
        # of its own (the monitor writing `alert` events) cannot recurse
        # unboundedly.
        self._subscribers: tuple[Callable[[dict[str, Any]], None], ...] = ()
        self._dispatch_depth = 0
        # Distributed trace context (repro.fabric.tracectx): when set,
        # every record is stamped with trace/span/parent identity.
        # None = no stamping, no cost.
        self._trace: Any = None
        # Serializes writes + subscriber dispatch: worker ship-back can
        # merge records from multiple threads (resilient_map callbacks,
        # fabric event forwarding), and interleaved JSON lines would
        # tear the log.  Reentrant because a subscriber may emit back
        # into this recorder (the monitor writing `alert` records).
        self._write_lock = threading.RLock()
        self._encode = _line_encoder()

    # -- constructors ---------------------------------------------------

    @classmethod
    def to_path(
        cls, path: str | os.PathLike[str], *, slot_batch: int = DEFAULT_SLOT_BATCH
    ) -> "Telemetry":
        """A recorder streaming to ``path`` (parents created, truncated)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        stream = target.open("w", encoding="utf-8")
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

    @property
    def trace(self) -> Any:
        """The installed trace context, or ``None`` (no stamping)."""
        return self._trace

    def set_trace(self, context: Any) -> Any:
        """Install (or clear, with ``None``) a distributed trace context.

        While installed, every record written — emitted locally or
        merged via :meth:`write_record` — is stamped with the context's
        ``trace``/``span``/``parent`` identity (see
        :class:`repro.fabric.tracectx.TraceContext`; pre-stamped worker
        records keep their own span fields).  Returns the previous
        context.
        """
        previous = self._trace
        self._trace = context
        return previous

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
        if self._trace is not None:
            self._trace.stamp(record)
        with self._write_lock:
            if self._records is not None:
                self._records.append(record)
            else:
                assert self._stream is not None
                self._stream.write(self._encode(record) + "\n")
                self._stream.flush()
            if self._subscribers:
                self._dispatch(record)

    # -- subscriber bus -------------------------------------------------

    def subscribe(
        self, callback: Callable[[dict[str, Any]], None]
    ) -> Callable[[], None]:
        """Observe every record written to this recorder.

        ``callback(record)`` runs synchronously after each record is
        written (streamed or buffered), including pre-formed worker
        records merged via :meth:`write_record`.  Exceptions raised by
        a subscriber are logged and swallowed — a broken consumer must
        never corrupt the recording.  Returns an unsubscribe callable.
        """
        self._subscribers = (*self._subscribers, callback)
        return lambda: self.unsubscribe(callback)

    def unsubscribe(self, callback: Callable[[dict[str, Any]], None]) -> None:
        """Detach a subscriber (no-op when it is not attached)."""
        self._subscribers = tuple(
            existing for existing in self._subscribers if existing is not callback
        )

    def _dispatch(self, record: dict[str, Any]) -> None:
        if self._dispatch_depth >= 4:  # runaway subscriber-emission guard
            return
        self._dispatch_depth += 1
        try:
            for callback in self._subscribers:
                try:
                    callback(record)
                except Exception:  # noqa: BLE001 - isolate consumers
                    logging.getLogger("repro.telemetry").exception(
                        "telemetry subscriber %r failed; record dropped "
                        "for that subscriber only",
                        callback,
                    )
        finally:
            self._dispatch_depth -= 1

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
        self.emit("run_begin", run=run_id, **fields)
        return run_id

    def end_run(self, **fields: Any) -> None:
        """Close the current run scope."""
        run_id = self._current_run or f"r{self._run_seq}"
        self.emit("run_end", run=run_id, **fields)
        self._current_run = None

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

    # -- metrics --------------------------------------------------------

    def counter(self, name: str, value: int | float = 1, **fields: Any) -> None:
        self.emit("counter", name=name, value=value, **fields)

    def gauge(self, name: str, value: int | float, **fields: Any) -> None:
        self.emit("gauge", name=name, value=value, **fields)

    def phase(self, proto: str, *, node: Any, index: int, slot: int, **fields: Any) -> None:
        """A protocol phase marker (Decay call, Broadcast phase, BFS layer)."""
        self.emit("phase", proto=proto, node=node, index=index, slot=slot, **fields)

    @contextlib.contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Time a block; emits one ``span`` record with its duration.

        When a perf session is active (:mod:`repro.perf`), the block is
        also pushed as a perf span, so sampled wall time and traced
        memory are attributed to ``name`` — telemetry spans double as
        perf attribution points.  With perf off this is one global load
        plus a ``None`` check.
        """
        perf_session = _perf_core.get_active()
        if perf_session is not None:
            perf_session.span_push(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            if perf_session is not None:
                perf_session.span_pop()
            self.emit("span", name=name, dur_s=time.perf_counter() - start, **fields)

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
        # Telemetry.phase inlined: most records of a Decay campaign are these.
        recorder.emit("phase", proto=proto, node=node, index=index, slot=slot, **fields)


def counter(name: str, value: int | float = 1, **fields: Any) -> None:
    recorder = _ACTIVE
    if recorder is not None:
        recorder.counter(name, value, **fields)


def gauge(name: str, value: int | float, **fields: Any) -> None:
    recorder = _ACTIVE
    if recorder is not None:
        recorder.gauge(name, value, **fields)


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
