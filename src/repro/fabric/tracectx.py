"""Distributed trace context for fabric campaigns.

One fabric campaign is one **trace**; each participant (coordinator,
worker process, chunk lease) is one **span** inside it.  The context
crosses the coordinator → worker process boundary through two
environment variables, and every telemetry record written while a
context is installed on a recorder carries ``trace``/``span`` (and
``parent`` where applicable) fields — which is what lets the Chrome
trace exporter merge N per-worker logs into one causally-connected
trace, and the autopsy attribute any record to the process and lease
that produced it.

Ids are **derived, not drawn**: the trace id is a digest of the
campaign fingerprint, and span ids are digests of ``(trace id, span
name)``.  Determinism here is load-bearing — a resumed campaign lands
in the *same* trace as its first attempt, replayed drills produce
byte-stable autopsies, and no RNG stream is consumed (seed purity).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = ["TraceContext", "ENV_TRACE_ID", "ENV_TRACE_PARENT", "traced"]

#: Environment variables carrying the context into worker subprocesses.
ENV_TRACE_ID = "REPRO_TRACE_ID"
ENV_TRACE_PARENT = "REPRO_TRACE_PARENT"


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """One span's identity within a campaign-level trace."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    #: Human-readable span name ("coordinator", "worker w0", ...).
    name: str = ""

    # -- construction ---------------------------------------------------

    @classmethod
    def root(cls, campaign: str, *, name: str = "coordinator") -> "TraceContext":
        """The campaign's root span, derived from its fingerprint."""
        trace_id = _digest("trace", campaign)
        return cls(trace_id, _digest(trace_id, name), None, name)

    def child(self, name: str) -> "TraceContext":
        """A child span of this one (worker under coordinator, chunk
        lease under worker)."""
        return TraceContext(
            self.trace_id, _digest(self.trace_id, name), self.span_id, name
        )

    # -- process-boundary propagation -----------------------------------

    def to_env(self, env: dict[str, str] | None = None) -> dict[str, str]:
        """Write the propagation variables into ``env`` (or a new dict)."""
        target = env if env is not None else {}
        target[ENV_TRACE_ID] = self.trace_id
        target[ENV_TRACE_PARENT] = self.span_id
        return target

    @classmethod
    def from_env(
        cls, name: str, env: Mapping[str, str] | None = None
    ) -> "TraceContext | None":
        """Rebuild the child context a worker process should run under.

        Returns ``None`` when no trace is being propagated (the worker
        was launched stand-alone) — trace stamping then stays off, the
        same strict no-op discipline the telemetry recorder follows.
        """
        source = env if env is not None else os.environ
        trace_id = source.get(ENV_TRACE_ID)
        if not trace_id:
            return None
        parent = source.get(ENV_TRACE_PARENT) or None
        return cls(trace_id, _digest(trace_id, name), parent, name)

    # -- record stamping -------------------------------------------------

    def stamp(self, record: dict) -> None:
        """Tag one telemetry record with this span's identity.

        Pre-stamped records (a worker's records shipped back to the
        coordinator) keep their own span fields — only ``trace`` is
        normalized, so a merged stream stays attributable per process.
        """
        record.setdefault("trace", self.trace_id)
        record.setdefault("span", self.span_id)
        if self.parent_id is not None:
            record.setdefault("parent", self.parent_id)


@contextlib.contextmanager
def traced(recorder: Any, trace: TraceContext | None) -> Iterator[None]:
    """Stamp ``recorder``'s records with ``trace`` for the block, unless
    it already carries a context; a no-op without a recorder or trace."""
    adopt = recorder is not None and trace is not None and recorder.trace is None
    previous = recorder.set_trace(trace) if adopt else None
    try:
        yield
    finally:
        if adopt:
            recorder.set_trace(previous)
