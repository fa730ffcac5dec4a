"""Synchronous radio-network simulator (the paper's model, Definition 1).

Time proceeds in numbered slots.  In each slot every processor acts as a
transmitter, a receiver, or is inactive.  A receiver hears a message in
slot ``t`` iff **exactly one** of its neighbours transmits in slot ``t``;
otherwise it hears nothing, and — in the default no-collision-detection
medium — cannot distinguish silence from collision.

Entry point: :class:`~repro.sim.engine.Engine` (the canonical
reference backend).  A vectorized NumPy backend for batched campaigns
lives in :mod:`repro.sim.vectorized`; select between them with
:mod:`repro.sim.backends` (:func:`resolve_backend`).  The vectorized
module itself is *not* imported here — it requires NumPy, which is an
optional extra.
"""

from repro.sim.backends import (
    BACKENDS,
    BackendUnavailable,
    available_backends,
    numpy_available,
    resolve_backend,
)
from repro.sim.engine import Engine, RunResult
from repro.sim.faults import (
    CrashFault,
    EdgeFault,
    FaultSchedule,
    JamFault,
    LinkLossFault,
)
from repro.sim.medium import (
    COLLISION,
    JAMMING,
    SILENCE,
    CollisionDetectingMedium,
    Medium,
    RadioMedium,
)
from repro.sim.metrics import RunMetrics
from repro.sim.node import (
    IDLE,
    RECEIVE,
    Context,
    Idle,
    Intent,
    NodeProgram,
    Receive,
    Transmit,
)
from repro.sim.trace import ProvenanceRecorder, SlotProvenance, SlotRecord, Trace

__all__ = [
    "Engine",
    "RunResult",
    "BACKENDS",
    "BackendUnavailable",
    "available_backends",
    "numpy_available",
    "resolve_backend",
    "Context",
    "NodeProgram",
    "Intent",
    "Transmit",
    "Receive",
    "Idle",
    "RECEIVE",
    "IDLE",
    "Medium",
    "RadioMedium",
    "CollisionDetectingMedium",
    "SILENCE",
    "COLLISION",
    "JAMMING",
    "RunMetrics",
    "Trace",
    "SlotRecord",
    "ProvenanceRecorder",
    "SlotProvenance",
    "FaultSchedule",
    "EdgeFault",
    "CrashFault",
    "JamFault",
    "LinkLossFault",
]
