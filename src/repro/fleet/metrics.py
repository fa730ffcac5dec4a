"""A stdlib-only metrics registry with Prometheus-text exposition.

Counters, gauges, and histograms — optionally labelled — that the
fabric's coordinator and workers update while a campaign runs:
heartbeat lag (measured with ``time.monotonic()``), leases held and
lost, fence rejections, splice bytes, per-worker throughput, queue
depth.  Two export paths:

* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` plus samples), written to
  a ``.prom`` file after a campaign so CI can assert on counters;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.emit` — a
  JSON-able snapshot riding the telemetry stream as a ``metrics``
  record, so snapshots are tailable live and land in the obs store
  with everything else.

Both renderings are deterministically ordered (sorted by metric name,
then label set), so identical registries produce identical bytes.

Like the telemetry recorder, the *ambient* registry is strictly
zero-cost when disabled: :func:`get_registry` is one module-global
load plus a ``None`` check, and the fast helpers below no-op without
allocating.  Registries themselves are thread-safe (one lock per
registry) — heartbeat threads and the worker main loop share one.
"""

from __future__ import annotations

import contextlib
import re
import threading
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "sanitize_metric_name",
    "sanitize_label_name",
    "registry_from_snapshot",
    "snapshot_totals",
    "get_registry",
    "set_registry",
    "activate_metrics",
    "fleet_scope",
    "counter",
    "gauge",
    "observe",
]

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: The ambient registry; ``None`` means fleet metrics are disabled and
#: every fast helper below is a no-op.
_ACTIVE: "MetricsRegistry | None" = None


#: Prometheus metric names: ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
_METRIC_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: Prometheus label names: ``[a-zA-Z_][a-zA-Z0-9_]*`` (no colons).
_LABEL_NAME_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_LABEL_NAME_BAD = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """``name`` made valid for the Prometheus exposition format.

    Characters outside ``[a-zA-Z0-9_:]`` become ``_`` and a leading
    digit gets a ``_`` prefix, so ``engine.slots/sec`` registers as
    ``engine_slots_sec`` instead of tearing the scrape.  Valid names
    (the common case) pass through untouched without allocating.
    """
    name = str(name)
    if _METRIC_NAME_OK.match(name):
        return name
    cleaned = _METRIC_NAME_BAD.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def sanitize_label_name(name: str) -> str:
    """``name`` made valid as a Prometheus label name (no colons)."""
    name = str(name)
    if _LABEL_NAME_OK.match(name):
        return name
    cleaned = _LABEL_NAME_BAD.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(
        sorted((sanitize_label_name(k), str(v)) for k, v in labels.items())
    )


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping: backslash, double
    quote, and newline must be escaped or the exposition line tears."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount}) refused")
        self.value += amount

    def sample(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def sample(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, +Inf last."""
        running = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Standard Prometheus-style estimation: find the first bucket
        whose cumulative count covers rank ``q * count`` and
        interpolate linearly inside it.  Returns ``None`` on an empty
        histogram; a single observation answers every quantile with
        (an estimate bounded by) its own bucket.  Observations landing
        in the +Inf bucket clamp to the highest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        previous_bound = 0.0
        previous_cum = 0
        for bound, cum in self.cumulative():
            if cum >= rank and cum > 0:
                if bound == float("inf"):
                    return self.bounds[-1] if self.bounds else self.total
                width = bound - previous_bound
                in_bucket = cum - previous_cum
                if in_bucket <= 0 or width <= 0:
                    return bound
                return previous_bound + width * (rank - previous_cum) / in_bucket
            previous_bound, previous_cum = bound, cum
        return self.bounds[-1] if self.bounds else None


class MetricsRegistry:
    """Get-or-create metric instruments, keyed ``(name, labels)``."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        # name -> (kind, help, {label_key -> instrument})
        self._metrics: dict[str, tuple[str, str, dict[tuple, Any]]] = {}

    def _instrument(
        self, name: str, kind: str, help_text: str, labels: dict[str, str], factory
    ) -> Any:
        name = sanitize_metric_name(name)
        key = _label_key(labels)
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None:
                entry = (kind, help_text, {})
                self._metrics[name] = entry
            elif entry[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {entry[0]}, "
                    f"not a {kind}"
                )
            series = entry[2]
            instrument = series.get(key)
            if instrument is None:
                instrument = factory()
                series[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._instrument(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._instrument(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._instrument(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    # -- export ---------------------------------------------------------

    def prometheus_text(self) -> str:
        """The Prometheus text exposition of every registered metric.

        Deterministic: metrics sort by name, series by label set, so
        the same registry state always renders identical bytes.
        """
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                kind, help_text, series = self._metrics[name]
                full = f"{self.namespace}_{name}" if self.namespace else name
                if help_text:
                    lines.append(f"# HELP {full} {help_text}")
                lines.append(f"# TYPE {full} {kind}")
                for key in sorted(series):
                    instrument = series[key]
                    if kind == "histogram":
                        for bound, cumulative in instrument.cumulative():
                            le = "+Inf" if bound == float("inf") else f"{bound:g}"
                            bucket_key = key + (("le", le),)
                            lines.append(
                                f"{full}_bucket{_label_text(bucket_key)} "
                                f"{cumulative}"
                            )
                        lines.append(
                            f"{full}_sum{_label_text(key)} {instrument.total:g}"
                        )
                        lines.append(
                            f"{full}_count{_label_text(key)} {instrument.count}"
                        )
                    else:
                        lines.append(
                            f"{full}{_label_text(key)} {instrument.sample():g}"
                        )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able snapshot of every series (telemetry payload)."""
        out: dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._metrics):
                kind, _help, series = self._metrics[name]
                rows = []
                for key in sorted(series):
                    instrument = series[key]
                    row: dict[str, Any] = {"labels": dict(key)}
                    if kind == "histogram":
                        row["count"] = instrument.count
                        row["sum"] = instrument.total
                        row["buckets"] = [
                            ["+Inf" if b == float("inf") else b, c]
                            for b, c in instrument.cumulative()
                        ]
                    else:
                        row["value"] = instrument.sample()
                    rows.append(row)
                out[name] = {"kind": kind, "series": rows}
        return out

    def totals(self) -> dict[str, float]:
        """Label-summed scalar per metric (histograms report counts) —
        the reconciliation view the autopsy and CI assertions use."""
        out: dict[str, float] = {}
        with self._lock:
            for name, (kind, _help, series) in self._metrics.items():
                if kind == "histogram":
                    out[name] = float(sum(i.count for i in series.values()))
                else:
                    out[name] = float(sum(i.sample() for i in series.values()))
        return out

    def emit(self, recorder: Any = None, **fields: Any) -> None:
        """Write one ``metrics`` snapshot record to a telemetry recorder
        (the ambient one when none is given); no-op when telemetry is
        off."""
        if recorder is None:
            from repro.telemetry import get_active

            recorder = get_active()
        if recorder is not None:
            recorder.emit("metrics", snapshot=self.snapshot(), **fields)

    def write_prometheus(self, path: Any) -> str:
        """Write the text exposition to ``path``; returns the text."""
        from pathlib import Path

        text = self.prometheus_text()
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        return text


def registry_from_snapshot(
    snapshot: dict[str, Any],
    *,
    namespace: str = "repro",
    into: "MetricsRegistry | None" = None,
) -> "MetricsRegistry":
    """Rebuild a registry from a :meth:`MetricsRegistry.snapshot` payload.

    The inverse of :meth:`snapshot`, up to help text (not carried by
    snapshots): ``registry_from_snapshot(r.snapshot()).prometheus_text()``
    equals ``r.prometheus_text()`` for help-less registries.  With
    ``into=`` the series are folded into an existing registry (later
    snapshots overwrite same-name/same-label series), which is how
    ``fleet metrics`` merges per-process snapshot records.
    """
    registry = into if into is not None else MetricsRegistry(namespace)
    for name, entry in snapshot.items():
        if not isinstance(entry, dict):
            continue
        kind = entry.get("kind")
        for row in entry.get("series", []):
            if not isinstance(row, dict):
                continue
            labels = {
                str(k): str(v) for k, v in (row.get("labels") or {}).items()
            }
            if kind == "counter":
                registry.counter(name, **labels).value = float(
                    row.get("value", 0.0)
                )
            elif kind == "gauge":
                registry.gauge(name, **labels).set(float(row.get("value", 0.0)))
            elif kind == "histogram":
                pairs = row.get("buckets") or []
                bounds = tuple(
                    float(b) for b, _ in pairs if b != "+Inf"
                )
                # An explicit empty bucket list (just +Inf) must round-trip
                # as-is; only a snapshot with *no* bucket data at all falls
                # back to the defaults.
                hist = registry.histogram(
                    name, buckets=bounds if pairs else DEFAULT_BUCKETS, **labels
                )
                hist.total = float(row.get("sum", 0.0))
                hist.count = int(row.get("count", 0))
                previous = 0
                counts = []
                for _bound, cumulative in pairs:
                    counts.append(int(cumulative) - previous)
                    previous = int(cumulative)
                if len(counts) == len(hist.counts):
                    hist.counts = counts
    return registry


def snapshot_totals(snapshot: dict[str, Any]) -> dict[str, float]:
    """Label-summed scalars of a :meth:`MetricsRegistry.snapshot` payload
    (the inverse-direction helper for readers of ``metrics`` records)."""
    totals: dict[str, float] = {}
    for name, entry in snapshot.items():
        if not isinstance(entry, dict):
            continue
        total = 0.0
        for row in entry.get("series", []):
            if not isinstance(row, dict):
                continue
            value = row.get("value", row.get("count", 0))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
        totals[name] = total
    return totals


# -- ambient registry -----------------------------------------------------


def get_registry() -> MetricsRegistry | None:
    """The ambient registry, or ``None`` when fleet metrics are off."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or clear) the ambient registry; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def activate_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` ambient for the duration of the block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@contextlib.contextmanager
def fleet_scope(recorder: Any, trace: Any) -> Iterator[MetricsRegistry | None]:
    """Wire one fabric process (coordinator or worker) into the fleet.

    With a telemetry ``recorder``: adopt ``trace`` (a
    :class:`~repro.fleet.tracectx.TraceContext`, or ``None``) unless the
    recorder already carries one, and make a fresh registry ambient
    unless one already is; both are put back when the block ends.
    Yields the registry this scope installed, or ``None``.  A strict
    no-op without a recorder.
    """
    if recorder is None:
        yield None
        return
    adopt = recorder.trace is None and trace is not None
    previous_trace = recorder.set_trace(trace) if adopt else None
    own = MetricsRegistry() if _ACTIVE is None else None
    if own is not None:
        set_registry(own)
    try:
        yield own
    finally:
        if own is not None:
            set_registry(None)
        if adopt:
            recorder.set_trace(previous_trace)


# -- fast helpers (one global load + None check when disabled) ------------


def counter(name: str, amount: float = 1.0, **labels: str) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name, **labels).inc(amount)


def gauge(name: str, value: float, **labels: str) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: str) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name, **labels).observe(value)
