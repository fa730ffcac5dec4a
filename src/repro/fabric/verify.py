"""Chaos-style verification: a faulted fabric run must equal serial.

``verify_fabric`` runs the campaign twice:

1. **Serial reference** — a plain in-process loop over the spec's
   items, pickled with the same payload encoding the fabric uses;
2. **Fabric under faults** — :func:`repro.fabric.coordinator.run_fabric`
   with the given fault plan applied to real worker processes.

and then audits three things:

* **Byte identity** — ``pickle(fabric results) == pickle(serial
  results)``.  Not "equal", *identical bytes*: the splice contract.
* **Fencing soundness** — replaying the store's event log, every chunk
  was committed exactly once, under the fence that was current at
  commit time; every stale attempt shows up as ``fence_reject``, never
  as data.  (This is the "no chunk ever committed under an expired
  fencing token" acceptance criterion, checked from the audit trail
  rather than trusted from the implementation.)
* **Fault visibility** — the plan actually bit: plans with kills or
  stalls produced at least one lease takeover, and plans with stale
  actions produced at least one fence rejection.

Used by the test suite and by ``python -m repro fabric chaos``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.fabric.coordinator import FabricConfig, FabricResult, run_fabric
from repro.fabric.specs import resolve_spec
from repro.fabric.store import LeaseReplay

__all__ = ["FabricVerifyReport", "verify_fabric"]


@dataclass
class FabricVerifyReport:
    """The verdict of one fabric-vs-serial verification run."""

    config: FabricConfig
    result: FabricResult
    byte_identical: bool
    fencing_errors: list[str] = field(default_factory=list)
    visibility_errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.byte_identical
            and not self.fencing_errors
            and not self.visibility_errors
        )

    def render(self) -> str:
        lines = [self.result.summary()]
        lines.append(
            "splice vs serial reference: "
            + ("byte-identical" if self.byte_identical else "MISMATCH")
        )
        for error in self.fencing_errors:
            lines.append(f"fencing violation: {error}")
        for error in self.visibility_errors:
            lines.append(f"fault not visible: {error}")
        plan = self.config.fault_plan
        lines.append(
            f"fault plan: {plan.spec() or '<none>'} "
            f"({len(plan.actions)} action(s) over "
            f"{len(plan.faulted_workers())} worker(s))"
        )
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _audit_fencing(result: FabricResult) -> list[str]:
    """Every fencing-contract violation in the event log (see
    :class:`~repro.fabric.store.LeaseReplay`), plus every chunk the
    finished campaign never committed."""
    replay = LeaseReplay.of_events(result.events)
    return replay.violations + [
        f"chunk {index}: never committed"
        for index in replay.uncommitted(result.chunks)
    ]


def _audit_visibility(config: FabricConfig, result: FabricResult) -> list[str]:
    """Check that the fault plan demonstrably happened."""
    errors: list[str] = []
    plan = config.fault_plan
    fired = {event["worker"] for event in result.events if event["kind"] == "fault"}
    missing = plan.faulted_workers() - fired
    if missing:
        errors.append(
            f"worker(s) {sorted(missing)} were scheduled for faults that "
            "never fired (did they claim enough chunks? lower max_ordinal)"
        )
    if plan.count("kill") + plan.count("stall") > 0 and result.takeovers == 0:
        errors.append(
            "plan kills/stalls workers but no lease takeover was recorded"
        )
    if plan.count("stale") > 0 and result.fence_rejects < plan.count("stale"):
        errors.append(
            f"plan schedules {plan.count('stale')} stale-commit attempt(s) "
            f"but only {result.fence_rejects} fence rejection(s) were recorded"
        )
    return errors


def verify_fabric(config: FabricConfig) -> FabricVerifyReport:
    """Run serial reference + faulted fabric; audit and compare."""
    spec = resolve_spec(config.spec, config.params)
    reference = [spec.fn(item) for item in spec.items]

    result = run_fabric(config)

    byte_identical = pickle.dumps(result.results) == pickle.dumps(reference)
    return FabricVerifyReport(
        config=config,
        result=result,
        byte_identical=byte_identical,
        fencing_errors=_audit_fencing(result),
        visibility_errors=_audit_visibility(config, result),
    )
