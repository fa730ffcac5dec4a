"""Streaming conformance checkers: the paper's bounds as runtime SLOs.

Each checker consumes the telemetry event stream record by record and
fires structured :class:`Alert`\\ s when a run drifts outside the
analytic envelope the paper proves:

* :class:`DecaySuccessChecker` — **Theorem 1 / Lemma 2**: each seeded
  broadcast run succeeds (every node informed) with probability at
  least ``1 − 2ε`` (Theorem 4's guarantee, built phase by phase from
  Theorem 1's Decay success probability).  The checker keeps a running
  Bernoulli tally over ``run_end`` records and fires only when the
  observed success count is *statistically incompatible* with the
  target: ``P[Binomial(T, 1−2ε) ≤ S]`` — bounded with the same
  Hoeffding tail the proof of Lemma 3 uses
  (:func:`repro.analysis.theory.hoeffding_lower_tail`) — must drop
  below ``alpha`` before the alert fires.  By construction the false-
  positive probability of each evaluation on a nominal campaign is at
  most ``alpha``.
* :class:`BroadcastBudgetChecker` — **Theorem 4**: completion must land
  within the ``2⌈log Δ⌉·T(ε)`` slot budget
  (:func:`repro.core.bounds.theorem4_slot_bound`).  A run *conforms*
  when it both succeeds and its ``last_reception_slot`` is inside the
  budget; the conforming fraction is held to ``1 − 2ε`` with the same
  Hoeffding gate.  ``D`` and ``Δ`` default to their sound worst case
  (``n − 1``) when the topology is not known to the monitor; pass
  ``diameter``/``max_degree`` to tighten the budget.
* :class:`OmegaFloorChecker` — **the Ω(n) hitting-game floor**: armed
  for deterministic protocols, where completing a broadcast in fewer
  than ``⌈n/2⌉`` slots would *beat* the paper's lower bound — which can
  only mean the simulation's accounting is broken.  A tripwire for the
  lower-bound machinery, not a performance SLO.
* :class:`AccountingChecker` — engine safety: every informed
  non-initiator was informed *by a delivery*, so
  ``informed − initiators ≤ deliveries`` in every run, however
  hostile the fault schedule.
* :class:`ChaosInvariantChecker` — **property 3** (the connectivity
  proviso), judged live from ``chaos_trial`` records: any safety
  violation fires immediately; the proviso arm's success rate is held
  to ``1 − ε − mc_slack``; a control-arm success (broadcast surviving
  a severed spanning-tree cut) fires because it means the proviso was
  not load-bearing — i.e. the fault injection itself regressed.

:class:`ConformanceMonitor` owns a set of checkers, feeds them the
stream, collects fired alerts, and hands each one to an ``on_alert``
callback (the live monitor emits them back into the telemetry stream
as validated ``alert`` records).  Decay/budget checkers disarm
automatically when the stream turns out to be a chaos campaign — its
control arm fails broadcasts *by design*, and the chaos checker judges
those with arm awareness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.analysis.theory import chernoff_binomial_upper_tail, hoeffding_lower_tail
from repro.core.bounds import theorem4_slot_bound

__all__ = [
    "Alert",
    "MonitorConfig",
    "RunIndex",
    "ConformanceChecker",
    "DecaySuccessChecker",
    "BroadcastBudgetChecker",
    "OmegaFloorChecker",
    "AccountingChecker",
    "ChaosInvariantChecker",
    "FleetLeaseChecker",
    "ConformanceMonitor",
    "default_checkers",
]

SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

#: Default per-run failure budget when neither the CLI nor the log's
#: manifest pins epsilon (matches the chaos default).
DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class Alert:
    """One fired SLO, ready to be emitted as an ``alert`` record."""

    rule: str
    severity: str
    message: str
    theorem: str | None = None
    value: float | None = None
    threshold: float | None = None
    run: str | None = None

    def record_fields(self) -> dict[str, Any]:
        """The fields of the schema's ``alert`` kind (None dropped)."""
        fields: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("theorem", "value", "threshold", "run"):
            value = getattr(self, key)
            if value is not None:
                fields[key] = value
        return fields

    def describe(self) -> str:
        theorem = f" [theorem {self.theorem}]" if self.theorem else ""
        return f"{self.severity.upper()} {self.rule}{theorem}: {self.message}"


@dataclass(frozen=True)
class MonitorConfig:
    """Shared checker knobs (CLI flags > manifest config > defaults)."""

    epsilon: float | None = None
    alpha: float = 1e-4
    min_runs: int = 8
    diameter: int | None = None
    max_degree: int | None = None
    deterministic_floor: bool = False

    @property
    def eps(self) -> float:
        return self.epsilon if self.epsilon is not None else DEFAULT_EPSILON

    @classmethod
    def from_manifest(
        cls, manifest: dict[str, Any] | None, **overrides: Any
    ) -> "MonitorConfig":
        """Resolve epsilon from a run manifest's config when not overridden."""
        if overrides.get("epsilon") is None and manifest:
            config = manifest.get("config")
            if isinstance(config, dict):
                epsilon = config.get("epsilon")
                if isinstance(epsilon, (int, float)) and not isinstance(epsilon, bool):
                    overrides["epsilon"] = float(epsilon)
        return cls(**{k: v for k, v in overrides.items() if v is not None})


class RunIndex:
    """``run_begin`` context, keyed so campaign logs resolve correctly.

    Pool workers ship their records back chunk-tagged, so the engine-run
    tag ``r1`` repeats across chunks; ``(chunk, run)`` is unique.
    """

    def __init__(self) -> None:
        self._begins: dict[tuple[Any, Any], dict[str, Any]] = {}

    @staticmethod
    def key(record: dict[str, Any]) -> tuple[Any, Any]:
        return (record.get("chunk"), record.get("run"))

    def note(self, record: dict[str, Any]) -> None:
        if record.get("kind") == "run_begin":
            self._begins[self.key(record)] = record

    def begin_for(self, record: dict[str, Any]) -> dict[str, Any] | None:
        return self._begins.get(self.key(record))


def _num(record: dict[str, Any], field_name: str) -> float | None:
    value = record.get(field_name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


class ConformanceChecker:
    """Base checker: feed records, yield alerts; finish() at stream end."""

    rule: str = "conformance"
    theorem: str | None = None
    #: Checkers judging plain broadcast runs are disarmed when the
    #: stream turns out to be a chaos campaign (its control arm fails
    #: broadcasts by design).
    chaos_incompatible: bool = False

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config or MonitorConfig()

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        raise NotImplementedError

    def finish(self) -> list[Alert]:
        return []


class _BernoulliSLO(ConformanceChecker):
    """Shared machinery: a latched Hoeffding gate over a success tally."""

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__(config)
        self.trials = 0
        self.successes = 0
        self.fired = False

    @property
    def target(self) -> float:
        """The guaranteed per-trial success probability being enforced."""
        return max(0.0, 1.0 - 2.0 * self.config.eps)

    def observe(self, success: bool, run: str | None) -> list[Alert]:
        self.trials += 1
        if success:
            self.successes += 1
        if self.fired or self.trials < self.config.min_runs:
            return []
        target = self.target
        tail = hoeffding_lower_tail(self.trials, target, self.successes)
        if tail >= self.config.alpha:
            return []
        self.fired = True
        rate = self.successes / self.trials
        return [
            Alert(
                rule=self.rule,
                severity=SEVERITY_CRITICAL,
                message=self._message(rate, target, tail),
                theorem=self.theorem,
                value=rate,
                threshold=target,
                run=run,
            )
        ]

    def _message(self, rate: float, target: float, tail: float) -> str:
        raise NotImplementedError


class DecaySuccessChecker(_BernoulliSLO):
    """Theorem 1 / Lemma 2: per-run broadcast success stays ≥ 1 − 2ε."""

    rule = "theorem1-decay"
    theorem = "1"
    chaos_incompatible = True

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "run_end":
            return []
        begin = runs.begin_for(record)
        if begin is None:
            return []
        nodes = _num(begin, "nodes")
        informed = _num(record, "informed")
        if nodes is None or informed is None:
            return []
        return self.observe(informed >= nodes, record.get("run"))

    def _message(self, rate: float, target: float, tail: float) -> str:
        return (
            f"Decay broadcast success rate {rate:.0%} over {self.trials} runs "
            f"is statistically below the Theorem 1/Lemma 2 floor {target:.0%} "
            f"(Hoeffding tail {tail:.2e} < alpha {self.config.alpha:.0e})"
        )


class BroadcastBudgetChecker(_BernoulliSLO):
    """Theorem 4: completion lands within 2⌈log Δ⌉·T(ε) slots, w.p. ≥ 1−2ε."""

    rule = "theorem4-budget"
    theorem = "4"
    chaos_incompatible = True

    def budget_for(self, nodes: int) -> int:
        diameter = self.config.diameter
        max_degree = self.config.max_degree
        if diameter is None:
            diameter = max(1, nodes - 1)  # sound worst case
        if max_degree is None:
            max_degree = max(1, nodes - 1)
        return theorem4_slot_bound(nodes, diameter, max_degree, self.config.eps)

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "run_end":
            return []
        begin = runs.begin_for(record)
        if begin is None:
            return []
        nodes = _num(begin, "nodes")
        informed = _num(record, "informed")
        if nodes is None or informed is None:
            return []
        success = informed >= nodes
        completion = _num(record, "last_reception_slot")
        if success and completion is not None:
            conform = completion <= self.budget_for(int(nodes))
        else:
            # No completion slot recorded (pre-bus log): only success can
            # be judged; the decay checker covers that axis anyway.
            conform = success
        return self.observe(conform, record.get("run"))

    def _message(self, rate: float, target: float, tail: float) -> str:
        return (
            f"only {rate:.0%} of {self.trials} runs completed inside the "
            f"Theorem 4 slot budget 2⌈log Δ⌉·T(ε); the theorem guarantees "
            f"{target:.0%} (Hoeffding tail {tail:.2e} < alpha "
            f"{self.config.alpha:.0e})"
        )


class OmegaFloorChecker(ConformanceChecker):
    """Ω(n) hitting-game floor: deterministic runs cannot finish too fast.

    Only meaningful when the monitored runs are deterministic protocols
    (the lower-bound family); arm it with
    ``MonitorConfig(deterministic_floor=True)`` / ``--assume-deterministic``.
    """

    rule = "omega-n-floor"
    theorem = "lower-bound"
    _MAX_ALERTS = 5

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__(config)
        self.fired_count = 0

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "run_end" or self.fired_count >= self._MAX_ALERTS:
            return []
        begin = runs.begin_for(record)
        if begin is None:
            return []
        nodes = _num(begin, "nodes")
        informed = _num(record, "informed")
        completion = _num(record, "last_reception_slot")
        if nodes is None or informed is None or completion is None:
            return []
        if informed < nodes or nodes < 4:
            return []
        floor = math.ceil(nodes / 2)
        if completion >= floor:
            return []
        self.fired_count += 1
        return [
            Alert(
                rule=self.rule,
                severity=SEVERITY_CRITICAL,
                message=(
                    f"deterministic broadcast over n={int(nodes)} completed at "
                    f"slot {int(completion)}, beating the Ω(n) hitting-game "
                    f"floor ⌈n/2⌉={floor} — the lower-bound accounting is "
                    f"broken"
                ),
                theorem=self.theorem,
                value=completion,
                threshold=float(floor),
                run=record.get("run"),
            )
        ]


class AccountingChecker(ConformanceChecker):
    """Engine safety: informed − initiators ≤ deliveries, in every run."""

    rule = "delivery-accounting"
    theorem = "safety"
    _MAX_ALERTS = 5

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__(config)
        self.fired_count = 0

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "run_end" or self.fired_count >= self._MAX_ALERTS:
            return []
        begin = runs.begin_for(record)
        if begin is None:
            return []
        informed = _num(record, "informed")
        deliveries = _num(record, "deliveries")
        initiators = _num(begin, "initiators")
        if informed is None or deliveries is None or initiators is None:
            return []
        newly_informed = informed - initiators
        if newly_informed <= deliveries:
            return []
        self.fired_count += 1
        return [
            Alert(
                rule=self.rule,
                severity=SEVERITY_CRITICAL,
                message=(
                    f"run {record.get('run')!r} reports {int(newly_informed)} "
                    f"newly-informed nodes but only {int(deliveries)} "
                    f"deliveries — a node was informed without a recorded "
                    f"reception (engine accounting broken)"
                ),
                theorem=self.theorem,
                value=newly_informed,
                threshold=deliveries,
                run=record.get("run"),
            )
        ]


class ChaosInvariantChecker(ConformanceChecker):
    """Property 3 invariants, judged live from ``chaos_trial`` records."""

    rule = "chaos"
    theorem = "property-3"
    _MAX_SAFETY_ALERTS = 5

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__(config)
        self.safety_alerts = 0
        self.proviso_trials = 0
        self.proviso_successes = 0
        self.liveness_fired = False
        self.control_trials = 0
        self.control_successes = 0
        self.control_fired = False

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "chaos_trial":
            return []
        alerts: list[Alert] = []
        violations = _num(record, "violations") or 0
        if violations > 0 and self.safety_alerts < self._MAX_SAFETY_ALERTS:
            self.safety_alerts += 1
            alerts.append(
                Alert(
                    rule="chaos-safety",
                    severity=SEVERITY_CRITICAL,
                    message=(
                        f"chaos trial seed={record.get('seed')} "
                        f"arm={record.get('arm')} recorded "
                        f"{int(violations)} safety violation(s) — adversity "
                        f"must never corrupt the broadcast"
                    ),
                    theorem=self.theorem,
                    value=violations,
                    threshold=0.0,
                    run=record.get("run"),
                )
            )
        arm = record.get("arm")
        success = bool(record.get("success"))
        if arm == "proviso":
            alerts.extend(self._feed_proviso(record, success))
        elif arm == "control":
            alerts.extend(self._feed_control(record, success))
        return alerts

    def _feed_proviso(self, record: dict[str, Any], success: bool) -> list[Alert]:
        self.proviso_trials += 1
        if success:
            self.proviso_successes += 1
        if self.liveness_fired or self.proviso_trials < self.config.min_runs:
            return []
        epsilon = _num(record, "epsilon")
        slack = _num(record, "mc_slack")
        threshold = max(
            0.0,
            1.0
            - (epsilon if epsilon is not None else self.config.eps)
            - (slack if slack is not None else 0.1),
        )
        tail = hoeffding_lower_tail(
            self.proviso_trials, threshold, self.proviso_successes
        )
        if tail >= self.config.alpha:
            return []
        self.liveness_fired = True
        rate = self.proviso_successes / self.proviso_trials
        return [
            Alert(
                rule="chaos-liveness",
                severity=SEVERITY_CRITICAL,
                message=(
                    f"proviso-arm success rate {rate:.0%} over "
                    f"{self.proviso_trials} trials is statistically below the "
                    f"property-3 liveness floor {threshold:.0%} "
                    f"(Hoeffding tail {tail:.2e} < alpha "
                    f"{self.config.alpha:.0e})"
                ),
                theorem=self.theorem,
                value=rate,
                threshold=threshold,
                run=record.get("run"),
            )
        ]

    def _feed_control(self, record: dict[str, Any], success: bool) -> list[Alert]:
        self.control_trials += 1
        if success:
            self.control_successes += 1
        if self.control_fired or not self.control_successes:
            return []
        allowed = _num(record, "control_success_max") or 0.0
        if allowed <= 0.0:
            fire = True  # a single success already violates the ceiling
            tail = 0.0
        else:
            tail = chernoff_binomial_upper_tail(
                self.control_trials, allowed, self.control_successes
            )
            fire = tail < self.config.alpha
        if not fire:
            return []
        self.control_fired = True
        rate = self.control_successes / self.control_trials
        return [
            Alert(
                rule="chaos-control",
                severity=SEVERITY_CRITICAL,
                message=(
                    f"control-arm broadcast succeeded in "
                    f"{self.control_successes}/{self.control_trials} trials "
                    f"despite a severed spanning-tree cut (ceiling "
                    f"{allowed:.0%}) — the proviso was not load-bearing, so "
                    f"the fault injection itself has regressed"
                ),
                theorem=self.theorem,
                value=rate,
                threshold=allowed,
                run=record.get("run"),
            )
        ]


class FleetLeaseChecker(ConformanceChecker):
    """Fleet lane: every lease takeover surfaces as a warning alert.

    A takeover is the fabric working as designed — a chunk whose owner
    stopped heartbeating got rescued — but it always means a worker
    died, stalled past its lease TTL, or lost its machine, so whoever
    watches the campaign (``python -m repro monitor <store>``, or
    ``--monitor`` on the coordinator) wants it flagged live, not
    discovered in a post-mortem autopsy.  Fires once per takeover
    event, not latched: three dead workers are three alerts.
    """

    rule = "fleet-takeover"

    def __init__(self, config: MonitorConfig | None = None) -> None:
        super().__init__(config)
        self.takeovers = 0

    def feed(self, record: dict[str, Any], runs: RunIndex) -> list[Alert]:
        if record.get("kind") != "lease" or record.get("event") != "takeover":
            return []
        self.takeovers += 1
        index = record.get("index")
        worker = record.get("worker") or "?"
        detail = record.get("detail") or "expired lease"
        return [
            Alert(
                rule=self.rule,
                severity=SEVERITY_WARNING,
                message=(
                    f"lease takeover #{self.takeovers}: chunk "
                    f"{index} reclaimed by {worker} ({detail})"
                ),
                value=float(index) if isinstance(index, (int, float)) else None,
            )
        ]


class ConformanceMonitor:
    """Feed a telemetry stream through a set of checkers."""

    def __init__(
        self,
        checkers: Iterable[ConformanceChecker],
        *,
        on_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.checkers = list(checkers)
        self.runs = RunIndex()
        self.alerts: list[Alert] = []
        self.records_seen = 0
        self._on_alert = on_alert
        self._chaos_mode = False

    def feed(self, record: dict[str, Any]) -> list[Alert]:
        """Process one record; returns (and publishes) any fired alerts."""
        kind = record.get("kind")
        if kind == "alert":
            return []  # never re-check alerts (ours or a prior monitor's)
        self.records_seen += 1
        self.runs.note(record)
        if kind == "chaos_trial" and not self._chaos_mode:
            self._chaos_mode = True
            self.checkers = [
                checker
                for checker in self.checkers
                if not checker.chaos_incompatible
            ]
        fired: list[Alert] = []
        for checker in self.checkers:
            fired.extend(checker.feed(record, self.runs))
        self._publish(fired)
        return fired

    def finish(self) -> list[Alert]:
        """Stream is over: run the checkers' end-of-log evaluations."""
        fired: list[Alert] = []
        for checker in self.checkers:
            fired.extend(checker.finish())
        self._publish(fired)
        return fired

    def _publish(self, fired: list[Alert]) -> None:
        self.alerts.extend(fired)
        if self._on_alert is not None:
            for alert in fired:
                self._on_alert(alert)


def default_checkers(
    config: MonitorConfig, *, manifest: dict[str, Any] | None = None
) -> list[ConformanceChecker]:
    """The standard checker set for a log (manifest decides the family).

    Chaos campaigns get the arm-aware invariant checker; everything
    else gets the Theorem 1 / Theorem 4 SLOs.  The accounting safety
    checker always rides along; streams that *turn out* to be chaos
    campaigns disarm the chaos-incompatible checkers dynamically (see
    :meth:`ConformanceMonitor.feed`), so the manifest is a hint, not a
    requirement.
    """
    command = (manifest or {}).get("command")
    checkers: list[ConformanceChecker] = []
    if command != "chaos":
        checkers.append(DecaySuccessChecker(config))
        checkers.append(BroadcastBudgetChecker(config))
        if config.deterministic_floor:
            checkers.append(OmegaFloorChecker(config))
    checkers.append(ChaosInvariantChecker(config))
    checkers.append(AccountingChecker(config))
    checkers.append(FleetLeaseChecker(config))
    return checkers
