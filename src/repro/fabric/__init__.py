"""Crash-safe distributed campaign fabric.

``repro.parallel`` runs a campaign on one process pool; this package
runs the same campaigns — same plan, journal and splice, from
:mod:`repro.campaign` — on a *multi-worker fabric*: independent worker
processes claim chunk **leases** from a shared SQLite store,
**heartbeat** while computing, and splice their results back
**byte-identically** into the campaign-journal format.
Correctness under crashes rests on three mechanisms:

* **Lease expiry + takeover** — a worker that stops heartbeating
  (killed, stalled, partitioned from the store) loses its lease after
  ``lease_ttl`` seconds and any live worker re-claims the chunk;
* **Monotonic fencing tokens** — every grant bumps the chunk's fence,
  and a commit is accepted only under the *current* fence, so an
  expired-then-resurrected worker can never land a superseded result;
* **Deterministic chunking** — chunk inputs are re-derived seeds, not
  consumed stream state, so whichever worker computes a chunk produces
  the same bytes and the final splice equals the serial reference run.

The package is exercised the same way the simulated network is: a
seed-driven :mod:`~repro.fabric.faultplan` kills ``-9``/stalls/
partitions real worker processes and forces stale-commit attempts,
and :mod:`~repro.fabric.verify` asserts that *any* fault plan yields
results byte-identical to the serial run with zero fencing violations.

Observability: each worker can write its own telemetry log, and
``fabric run --chrome-trace`` merges those logs with the store's events
into one trace with a lane per worker; :mod:`~repro.fabric.autopsy`
reconstructs a campaign from the store's audit log; ``monitor <store>``
is its live view.

Front ends: ``python -m repro fabric run|worker|chaos|autopsy``.
"""
