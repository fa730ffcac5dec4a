"""repro.telemetry — structured run events and timing.

The paper's claims are *time* claims (Theorem 1's O(log n) conflict
resolution, Theorem 4's O((D + log n/ε)·log n) broadcast), so the
measurement substrate matters as much as the protocols.  This package
is an event recorder that four layers feed:

* the **engine** emits ``run_begin``/``run_end`` records, periodic
  ``slot_batch`` throughput records (slots per second over each batch
  of slots), and ``fault`` activation events;
* the **protocols** emit phase markers — the Decay call index of
  Broadcast (Theorem 1/4 granularity) and the BFS layer — so
  time-per-phase histograms can be checked against
  :mod:`repro.core.bounds`.  The recorder folds an engine run's
  markers per ``(proto, index)`` into integer counts, sums and
  extremes and writes them once, as the ``phases`` rows of the run's
  ``run_end``; a marker with no run open is its own ``phase``
  record;
* the **parallel pool** emits per-chunk worker records (wall time,
  queue wait, retries, timeouts), merges events buffered inside
  workers back into the parent stream, and heartbeats campaign
  progress;
* the **CLI** writes the run manifest (seed, config fingerprint, git
  SHA, host, package version) and exposes ``--telemetry PATH`` and
  ``python -m repro telemetry <log>``.

Profiling is :mod:`repro.perf`'s job: ``--perf`` lands its sampled
``perf_profile``/``perf_span`` records in this same stream.

Telemetry is **off by default and a strict no-op when off**: the only
cost instrumented code pays is a module-global load plus a ``None``
check (enforced by the engine throughput bench guard).  Enable it by
activating a recorder::

    from repro.telemetry import Telemetry, activate
    from repro.protocols import run_decay_broadcast

    with Telemetry.to_path("events.jsonl") as recorder, activate(recorder):
        recorder.write_manifest(seed=7, config={"n": 64})
        run_decay_broadcast(graph, source=0, seed=7)

Every record is one JSON line, written once, to the log file or the
in-memory buffer, and flushed as written; the log is summarized with
``python -m repro telemetry events.jsonl`` and validated against
:mod:`repro.telemetry.schema`.
"""

from repro.telemetry.core import (
    Telemetry,
    activate,
    config_fingerprint,
    event,
    get_active,
    git_sha,
    phase,
    set_active,
)
from repro.telemetry.schema import SCHEMA, SCHEMA_VERSION, validate_record

__all__ = [
    "Telemetry",
    "activate",
    "set_active",
    "get_active",
    "phase",
    "event",
    "config_fingerprint",
    "git_sha",
    "SCHEMA",
    "SCHEMA_VERSION",
    "validate_record",
]
