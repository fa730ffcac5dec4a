"""Fleet-wide observability for the distributed campaign fabric.

PRs 3–5 built a single-process observability stack: a telemetry
recorder, theorem-bound SLO monitoring, and a cross-run store.  The
fabric (PR 7) runs campaigns across worker *subprocesses*, and this
package lifts the stack to that fleet:

* :mod:`~repro.fleet.tracectx` — **distributed trace context**: one
  campaign-level trace id with span parentage (coordinator → worker →
  chunk lease), propagated to worker processes through the environment
  and stamped on every telemetry record each process writes, so N
  per-worker logs merge into *one* causally-connected trace;
* :mod:`~repro.fleet.metrics` — a stdlib-only **metrics registry**
  (counters / gauges / histograms with labels) with Prometheus-text
  exposition and JSONL snapshots riding the telemetry stream.  Like
  the telemetry recorder it is strictly zero-cost when no registry is
  active — one module-global load plus a ``None`` check;
* :mod:`~repro.fleet.autopsy` — **campaign autopsy**: reconstruct the
  full lease/fence/takeover timeline of a finished (or crashed) fabric
  campaign from the store's audit events, cross-check it against the
  journal splice (every committed chunk attributable to exactly one
  fenced holder), and render it as text, JSON, obs-store rows, or an
  HTML timeline dashboard.

Front ends: ``python -m repro fleet trace|metrics`` and
``python -m repro fabric autopsy``.  The live view of a fabric campaign
is ``python -m repro monitor <store>``: the monitor's status board shows
per-worker health lanes whenever its input is a lease store.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "TraceContext",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_from_snapshot",
    "snapshot_totals",
    "get_registry",
    "set_registry",
    "activate_metrics",
    "AutopsyReport",
    "autopsy",
    "land_autopsy",
    "render_autopsy_html",
]

# Lazy exports (PEP 562), mirroring repro.fabric: autopsy imports
# fabric modules which must stay import-light for worker subprocesses.
_EXPORTS = {
    "TraceContext": "repro.fleet.tracectx",
    "Counter": "repro.fleet.metrics",
    "Gauge": "repro.fleet.metrics",
    "Histogram": "repro.fleet.metrics",
    "MetricsRegistry": "repro.fleet.metrics",
    "registry_from_snapshot": "repro.fleet.metrics",
    "snapshot_totals": "repro.fleet.metrics",
    "get_registry": "repro.fleet.metrics",
    "set_registry": "repro.fleet.metrics",
    "activate_metrics": "repro.fleet.metrics",
    "AutopsyReport": "repro.fleet.autopsy",
    "autopsy": "repro.fleet.autopsy",
    "land_autopsy": "repro.fleet.autopsy",
    "render_autopsy_html": "repro.fleet.autopsy",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
