"""Live conformance monitoring: the paper's bounds as streaming SLOs.

``repro.monitor`` watches a campaign's telemetry — in-process through
the recorder's subscriber bus, or out-of-process by tail-following the
JSON-lines log — and holds what it sees to the theory:

* :mod:`repro.monitor.conformance` — streaming checkers for the
  Theorem 1 Decay success guarantee, the Theorem 4 completion budget,
  the Ω(n) lower-bound floor, delivery accounting, and the chaos
  harness's property-3 invariants; violations become structured
  ``alert`` events in the telemetry schema.
* :mod:`repro.monitor.tail` — torn-write-tolerant JSON-lines tailing.
* :mod:`repro.monitor.board` — the live TTY status board, with
  per-worker health lanes for fabric campaigns.
* :mod:`repro.monitor.chrome_trace` — Chrome trace-event export
  (open the result in ``chrome://tracing`` or Perfetto).
* :mod:`repro.monitor.live` — the orchestration layer behind
  ``python -m repro monitor`` (a telemetry log, or a fabric lease store
  followed with its worker logs) and the ``--monitor`` campaign flag.
"""

from repro.monitor.board import BoardRenderer, StatusBoard
from repro.monitor.chrome_trace import (
    chrome_trace,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.monitor.conformance import (
    Alert,
    AccountingChecker,
    BroadcastBudgetChecker,
    ChaosInvariantChecker,
    ConformanceChecker,
    ConformanceMonitor,
    DecaySuccessChecker,
    FleetLeaseChecker,
    MonitorConfig,
    OmegaFloorChecker,
    default_checkers,
)
from repro.monitor.live import (
    LiveMonitor,
    MonitorReport,
    attach_monitor,
    follow_fleet,
    monitor_log,
)
from repro.monitor.tail import TailReader, follow_records, read_log_records

__all__ = [
    "Alert",
    "AccountingChecker",
    "BoardRenderer",
    "BroadcastBudgetChecker",
    "ChaosInvariantChecker",
    "ConformanceChecker",
    "ConformanceMonitor",
    "DecaySuccessChecker",
    "FleetLeaseChecker",
    "LiveMonitor",
    "MonitorConfig",
    "MonitorReport",
    "OmegaFloorChecker",
    "StatusBoard",
    "TailReader",
    "attach_monitor",
    "chrome_trace",
    "chrome_trace_events",
    "default_checkers",
    "follow_fleet",
    "follow_records",
    "monitor_log",
    "read_log_records",
    "validate_chrome_trace",
    "write_chrome_trace",
]
