""":class:`PerfSession` and the ambient active-session registry.

The registry mirrors :mod:`repro.telemetry.core` exactly: one module
global, ``None`` meaning "perf disabled", and every fast helper gated
on a single load-plus-``None``-check.  Instrumented code in the engine
hot path snapshots :func:`get_active` once per run and branches on a
local, so with perf off the per-slot cost is one pointer comparison —
the same zero-cost discipline ``bench_engine.py --check`` enforces for
telemetry.

A session owns:

* a :class:`~repro.perf.sampler.Sampler` (wall-clock folded stacks);
* optional :mod:`tracemalloc` accounting, folded into span peaks at
  every span boundary (``reset_peak`` windows, parent peaks updated
  before each reset so nesting never loses a maximum);
* per-label **span statistics** — entry count, wall seconds, samples
  attributed by the sampler, and peak/net traced memory — keyed by the
  labels pushed with :func:`perf_span` / :meth:`PerfSession.span_push`.

``Telemetry.span`` forwards its block into :func:`span_push` /
:func:`span_pop` (see :mod:`repro.telemetry.core`), so existing
telemetry spans become perf attribution points for free; the engine,
the vectorized kernels, the pool, and the fabric add their own labels
directly.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import tracemalloc
from typing import Any, Iterator, Mapping, MutableMapping

from repro.perf.sampler import _SPANS, Sampler

__all__ = [
    "DEFAULT_HZ",
    "ENV_VAR",
    "PerfSession",
    "SpanStat",
    "activate",
    "get_active",
    "hz_from_env",
    "perf_span",
    "self_profiled",
    "set_active",
    "span_push",
    "span_pop",
]

#: Default sampling rate.  Prime, so the sampler does not beat against
#: 100 Hz timers or the engine's power-of-two slot batches.
DEFAULT_HZ = 97

#: Environment gate: set to the sampling hz to ask subprocesses (pool
#: workers, fabric workers) to profile themselves.  Empty/``0`` = off.
ENV_VAR = "REPRO_PERF"


def hz_from_env(env: Mapping[str, str] | None = None) -> float | None:
    """The hz requested by :data:`ENV_VAR`, or ``None`` when unset/off."""
    raw = (env if env is not None else os.environ).get(ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        hz = float(raw)
    except ValueError:
        return float(DEFAULT_HZ)
    return hz if hz > 0 else None


class SpanStat:
    """Accumulated cost of one span label."""

    __slots__ = ("count", "secs", "samples", "mem_peak_kb", "mem_net_kb")

    def __init__(self) -> None:
        self.count = 0
        self.secs = 0.0
        self.samples = 0
        self.mem_peak_kb = 0.0
        self.mem_net_kb = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "secs": round(self.secs, 6),
            "samples": self.samples,
            "mem_peak_kb": round(self.mem_peak_kb, 3),
            "mem_net_kb": round(self.mem_net_kb, 3),
        }


class PerfSession:
    """One profiling session: sampler + tracemalloc + span accounting.

    ``start()``/``stop()`` are idempotent.  The session is safe to run
    alongside telemetry activation/deactivation in other threads — the
    two registries are independent and the sampler never touches the
    recorder.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        memory: bool = True,
        tag: str | None = None,
    ) -> None:
        self.hz = float(hz)
        self.tag = tag
        self.sampler = Sampler(self.hz, on_label=self._label_hit)
        self._memory = memory
        self._owns_tracemalloc = False
        self._stats: dict[str, SpanStat] = {}
        self._stats_lock = threading.Lock()
        # tid -> open frames [label, t0, mem0_bytes, peak_bytes_seen]
        self._frames: dict[int, list[list[Any]]] = {}
        self._started = False
        self._stopped = False

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    def start(self) -> "PerfSession":
        if self._started:
            return self
        self._started = True
        if self._memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self.sampler.start()
        return self

    def stop(self) -> "PerfSession":
        if not self._started or self._stopped:
            return self
        self._stopped = True
        self.sampler.stop()
        # Close any spans left open (e.g. a KeyboardInterrupt mid-run)
        # so their time is not silently lost.
        for tid in list(self._frames):
            while self._frames.get(tid):
                self.span_pop(tid=tid)
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False
        return self

    def __enter__(self) -> "PerfSession":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- span attribution ---------------------------------------------------

    def _label_hit(self, label: str) -> None:
        self._stat(label).samples += 1

    def _stat(self, label: str) -> SpanStat:
        stat = self._stats.get(label)
        if stat is None:
            with self._stats_lock:
                stat = self._stats.setdefault(label, SpanStat())
        return stat

    def _mem_mark(self, frames: list[list[Any]]) -> int | None:
        """Fold the current tracemalloc peak into every open frame and
        reset the peak window; returns current traced bytes."""
        if not self._memory or not tracemalloc.is_tracing():
            return None
        current, peak = tracemalloc.get_traced_memory()
        for frame in frames:
            if peak > frame[3]:
                frame[3] = peak
        if hasattr(tracemalloc, "reset_peak"):
            tracemalloc.reset_peak()
        return current

    def span_push(self, label: str) -> None:
        """Attribute subsequent samples/allocations on this thread to
        ``label`` until the matching :meth:`span_pop`."""
        tid = threading.get_ident()
        _SPANS[tid] = _SPANS.get(tid, ()) + (label,)
        frames = self._frames.setdefault(tid, [])
        mem0 = self._mem_mark(frames)
        frames.append([label, time.perf_counter(), mem0, 0])

    def span_pop(self, *, tid: int | None = None) -> None:
        """Close the innermost span on this (or the given) thread."""
        if tid is None:
            tid = threading.get_ident()
        frames = self._frames.get(tid)
        if not frames:
            return
        current = self._mem_mark(frames)
        label, t0, mem0, peak = frames.pop()
        stack = _SPANS.get(tid)
        if stack:
            _SPANS[tid] = stack[:-1]
            if not _SPANS[tid]:
                _SPANS.pop(tid, None)
        stat = self._stat(label)
        stat.count += 1
        stat.secs += time.perf_counter() - t0
        if current is not None and mem0 is not None:
            peak_kb = max(0.0, (peak - mem0) / 1024.0)
            if peak_kb > stat.mem_peak_kb:
                stat.mem_peak_kb = peak_kb
            stat.mem_net_kb += (current - mem0) / 1024.0

    # -- results --------------------------------------------------------------

    @property
    def counts(self) -> dict[str, int]:
        return self.sampler.counts

    def folded_text(self) -> str:
        return self.sampler.folded_text()

    def span_table(self) -> list[dict[str, Any]]:
        """Per-label statistics, heaviest (by seconds) first."""
        rows = [
            {"label": label, **stat.as_dict()}
            for label, stat in self._stats.items()
        ]
        rows.sort(key=lambda row: (-row["secs"], row["label"]))
        return rows

    def summary(self) -> dict[str, Any]:
        return {
            "samples": self.sampler.samples,
            "hz": self.hz,
            "wall_s": round(self.sampler.wall_s, 6),
            "stacks": len(self.sampler.counts),
            "spans": self.span_table(),
        }

    def emit(self, recorder: Any, *, top_stacks: int = 200, **extra: Any) -> None:
        """Write ``perf_profile`` + ``perf_span`` records to a telemetry
        recorder (duck-typed: anything with ``emit(kind, **fields)``).

        The profile record carries the ``top_stacks`` heaviest folded
        stacks (deterministic order) so logs stay bounded; the dropped
        remainder is reported in ``stacks_dropped``.
        """
        ranked = sorted(self.sampler.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = dict(ranked[:top_stacks])
        fields: dict[str, Any] = {
            "samples": self.sampler.samples,
            "hz": self.hz,
            "dur_s": round(self.sampler.wall_s, 6),
            "stacks": kept,
            "stacks_dropped": max(0, len(ranked) - len(kept)),
        }
        if self.tag:
            fields["tag"] = self.tag
        fields.update(extra)
        recorder.emit("perf_profile", **fields)
        for row in self.span_table():
            span_fields = dict(row)
            if self.tag:
                span_fields.setdefault("tag", self.tag)
            span_fields.update(extra)
            recorder.emit("perf_span", **span_fields)

    def to_env(self, env: MutableMapping[str, str]) -> MutableMapping[str, str]:
        """Stamp the subprocess gate so workers profile themselves."""
        env[ENV_VAR] = f"{self.hz:g}"
        return env


# -- ambient registry -------------------------------------------------------

#: The ambient session; ``None`` means perf is disabled and every fast
#: helper below is a no-op (one global load + None check).
_ACTIVE: PerfSession | None = None


def get_active() -> PerfSession | None:
    """The ambient session, or ``None`` when perf is disabled."""
    return _ACTIVE


def set_active(session: PerfSession | None) -> PerfSession | None:
    """Install (or clear, with ``None``) the ambient session; returns
    the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    return previous


@contextlib.contextmanager
def activate(session: PerfSession) -> Iterator[PerfSession]:
    """Make ``session`` ambient (and running) for the block."""
    previous = set_active(session)
    session.start()
    try:
        yield session
    finally:
        session.stop()
        set_active(previous)


# -- fast helpers (one global load + None check when disabled) ---------------


def span_push(label: str) -> None:
    session = _ACTIVE
    if session is not None:
        session.span_push(label)


def span_pop() -> None:
    session = _ACTIVE
    if session is not None:
        session.span_pop()


@contextlib.contextmanager
def perf_span(label: str) -> Iterator[None]:
    """Attribute the block's samples/allocations to ``label``.

    Strict no-op when no session is active — hot paths that cannot
    afford even the context-manager allocation should instead snapshot
    :func:`get_active` once and call ``span_push``/``span_pop`` behind
    a local ``None`` check (see ``repro/sim/vectorized.py``).
    """
    session = _ACTIVE
    if session is None:
        yield
        return
    session.span_push(label)
    try:
        yield
    finally:
        session.span_pop()


@contextlib.contextmanager
def self_profiled(
    label: str, recorder: Any, *, tag: str | None = None, **extra: Any
) -> Iterator[None]:
    """Attribute the block to ``label`` in whichever session profiles
    this process.

    Under an ambient session this is :func:`perf_span`.  Without one,
    when :data:`ENV_VAR` asks this process to profile itself (a pool or
    fabric worker whose parent samples), the block runs under a fresh
    session labelled ``label``, which writes its ``perf_profile``/
    ``perf_span`` records (plus ``extra`` fields) to ``recorder`` when
    the block ends.  Otherwise a no-op.
    """
    hz = hz_from_env() if _ACTIVE is None else None
    if hz is None:
        with perf_span(label):
            yield
        return
    session = PerfSession(hz, memory=True, tag=tag)
    previous = set_active(session)
    session.start()
    session.span_push(label)
    try:
        yield
    finally:
        session.span_pop()
        session.stop()
        set_active(previous)
        if recorder is not None:
            session.emit(recorder, **extra)
