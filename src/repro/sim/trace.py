"""The slot log of a recorded run, and its two views.

Definition 1 settles a slot per receiver: the transmitters it can hear,
the signals that survive the faults, and what it observes.  A run that
records a trace or provenance (``record_trace``, ``record_provenance``
or ``REPRO_PROVENANCE=1``) logs exactly that, one
:class:`SlotProvenance` entry per resolved receiver plus one per crash,
in one :class:`SlotLog`; a run that records neither allocates no log.
:class:`Trace` reads the log as one :class:`SlotRecord` per slot (who
transmitted, who listened, what each heard), and
:class:`ProvenanceRecorder` reads each entry as the answer to "why did
this node (not) receive in this slot?": ``delivered`` (one signal,
carrying a message), ``collision`` (two or more signals: nothing heard,
or noise on a collision-detecting medium), ``silence`` (no audible
transmitter) or ``fault-suppressed`` (a lone jammer, link loss erasing
every signal, or the node crashing).  With provenance on and telemetry
active, each entry is emitted as a ``prov`` event as it is logged, so
``python -m repro obs explain`` can answer from the run store, with the
same sentence (:func:`explain_entry`), long after the run ended.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Hashable, Iterator

from repro.sim.medium import JAMMING

__all__ = [
    "DELIVERED", "COLLISION", "SILENCE", "FAULT_SUPPRESSED", "OUTCOMES",
    "SlotProvenance", "SlotLog", "SlotRecord", "Trace", "ProvenanceRecorder",
    "explain_entry", "explain_missing",
]

Node = Hashable

DELIVERED = "delivered"
COLLISION = "collision"
SILENCE = "silence"
FAULT_SUPPRESSED = "fault-suppressed"

#: Every outcome a provenance entry may carry.
OUTCOMES = frozenset({DELIVERED, COLLISION, SILENCE, FAULT_SUPPRESSED})


@dataclass(slots=True, eq=False)
class SlotProvenance:
    """One (node, slot) entry of the log.

    ``audible`` are the transmitters (jammers included) the node could
    hear, ``signals`` those that survived link loss, ``observation``
    what it was told (``None`` for a crash) and ``detail`` the fault
    that suppressed a reception: ``"jamming"``, ``"link-loss"``,
    ``"crashed"`` or ``None``.  Entries share the engine's lists; do
    not mutate them.
    """

    node: Node
    slot: int
    audible: list[Node]
    signals: list[Node]
    observation: Any
    detail: str | None = None

    @property
    def outcome(self) -> str:
        if self.detail is not None:
            return FAULT_SUPPRESSED
        count = len(self.signals)
        return DELIVERED if count == 1 else COLLISION if count else SILENCE

    @property
    def transmitters(self) -> tuple[Node, ...]:
        """The surviving signals, or, when link loss erased them all,
        the audible transmitters."""
        return tuple(self.signals or self.audible)


class SlotLog:
    """The one per-receiver record of a run that records a trace or
    provenance.

    ``entries`` are in slot order and, within a slot, a crash slot's
    crashes first, then the receivers in program order.  ``slots`` holds
    ``(slot, transmitters, first, last)`` per resolved slot: the slot's
    receivers are ``entries[first:last]``.  Given a telemetry recorder,
    each entry is emitted as a ``prov`` event as it is logged.
    """

    def __init__(self, telemetry: Any | None = None) -> None:
        self.entries: list[SlotProvenance] = []
        self.slots: list[tuple[int, dict[Node, Any], int, int]] = []
        self._first = 0  # where the open slot's receivers begin
        self._telemetry = telemetry

    def receive(
        self, slot: int, node: Node, audible: list[Node], signals: list[Node],
        observation: Any, delivered: bool,
    ) -> None:
        """Log one resolved receiver; ``delivered`` says whether its
        lone signal carried a message (it was not a jammer's)."""
        detail = None
        if not delivered and len(signals) < 2 and audible:
            detail = "jamming" if signals else "link-loss"
        self._log(SlotProvenance(node, slot, audible, signals, observation, detail))

    def crash(self, slot: int, node: Node) -> None:
        """Log that ``node`` went down at ``slot``."""
        self._log(SlotProvenance(node, slot, [], [], None, "crashed"))
        self._first = len(self.entries)

    def end_slot(self, slot: int, transmitters: dict[Node, Any]) -> None:
        """Close ``slot``: its receivers are those logged since the last
        close or crash."""
        last = len(self.entries)
        self.slots.append((slot, transmitters, self._first, last))
        self._first = last

    def _log(self, entry: SlotProvenance) -> None:
        self.entries.append(entry)
        if self._telemetry is not None:
            detail = {"detail": entry.detail} if entry.detail else {}
            self._telemetry.emit("prov", slot=entry.slot, node=entry.node, outcome=entry.outcome,
                                 tx=list(entry.transmitters), **detail)


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one time-slot.

    Attributes
    ----------
    slot:
        The slot number.
    transmitters:
        Map from transmitting node to the message it sent.
    receivers:
        The set of nodes that acted as receivers.
    heard:
        Map from receiving node to what it observed
        (a message, ``SILENCE``, or ``COLLISION``).
    deliveries:
        Map from receiving node to ``(sender, message)`` for the
        receivers that actually got a message this slot.
    conflict_counts:
        Map from receiving node to the number of signals that reached
        it this slot (0, 1, or more).
    """

    slot: int
    transmitters: dict[Node, Any]
    receivers: frozenset[Node]
    heard: dict[Node, Any]
    deliveries: dict[Node, tuple[Node, Any]]
    conflict_counts: dict[Node, int]

    @property
    def collided_receivers(self) -> frozenset[Node]:
        """Receivers reached by ≥ 2 signals this slot."""
        return frozenset(
            node for node, count in self.conflict_counts.items() if count >= 2
        )


class Trace:
    """The slot records of a run: a view over its :class:`SlotLog`.

    Each slot's :class:`SlotRecord` is derived from the log on first
    read, so reading a trace mid-run sees every slot closed so far.
    """

    def __init__(self, log: SlotLog | None = None) -> None:
        self._log = log if log is not None else SlotLog()
        self._records: list[SlotRecord] = []

    @property
    def records(self) -> list[SlotRecord]:
        records = self._records
        slots, entries = self._log.slots, self._log.entries
        for index in range(len(records), len(slots)):
            slot, transmitters, first, last = slots[index]
            receivers = entries[first:last]
            heard = {entry.node: entry.observation for entry in receivers}
            records.append(SlotRecord(
                slot=slot,
                transmitters=transmitters,
                receivers=frozenset(heard),
                heard=heard,
                deliveries={
                    entry.node: (entry.signals[0], entry.observation)
                    for entry in receivers if entry.outcome == DELIVERED
                },
                conflict_counts={entry.node: len(entry.signals) for entry in receivers},
            ))
        return records

    def __len__(self) -> int:
        return len(self._log.slots)

    def __iter__(self) -> Iterator[SlotRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> SlotRecord:
        return self.records[index]

    # -- convenience queries -------------------------------------------

    def total_transmissions(self) -> int:
        """Total number of (node, slot) transmit events.  Jam noise is
        not a transmission (``RunMetrics`` meters it apart)."""
        return sum(
            message is not JAMMING
            for rec in self.records
            for message in rec.transmitters.values()
        )

    def total_collisions(self) -> int:
        """Total number of (receiver, slot) conflict events."""
        return sum(len(rec.collided_receivers) for rec in self.records)

    def transmissions_by(self, node: Node) -> int:
        return sum(
            1 for rec in self.records
            if node in rec.transmitters and rec.transmitters[node] is not JAMMING
        )

    def first_delivery_slot(self, node: Node) -> int | None:
        """First slot at which ``node`` was delivered a message, or None."""
        return next((rec.slot for rec in self.records if node in rec.deliveries), None)

    def deliveries_to(self, node: Node) -> list[tuple[int, Node, Any]]:
        """All ``(slot, sender, message)`` deliveries to ``node``."""
        return [(rec.slot, *rec.deliveries[node]) for rec in self.records
                if node in rec.deliveries]


class ProvenanceRecorder:
    """The provenance of a run: its :class:`SlotLog`'s entries, one per
    listening node per slot plus one per crash, looked up by node and
    slot."""

    def __init__(self, log: SlotLog) -> None:
        self._entries = log.entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SlotProvenance]:
        return iter(self._entries)

    def get(self, node: Node, slot: int) -> SlotProvenance | None:
        entries = self._entries
        index = bisect_left(entries, slot, key=attrgetter("slot"))
        while index < len(entries) and entries[index].slot == slot:
            if entries[index].node == node:
                return entries[index]
            index += 1
        return None

    def for_node(self, node: Node) -> list[SlotProvenance]:
        """All entries of one node, slot-ordered."""
        return [entry for entry in self._entries if entry.node == node]

    def explain(self, node: Node, slot: int) -> str:
        """A one-line human answer to "why this outcome at this slot?"."""
        entry = self.get(node, slot)
        if entry is None:
            return explain_missing(node, slot)
        return explain_entry(entry.node, entry.slot, entry.outcome,
                             entry.transmitters, entry.detail)


def explain_entry(
    node: Any, slot: int, outcome: str, transmitters: tuple | list, detail: str | None = None
) -> str:
    """Render one provenance entry as a causal sentence.

    Shared by :class:`ProvenanceRecorder` and the obs store's
    ``explain`` query, so both paths give the same answer.
    """
    tx = ", ".join(str(t) for t in transmitters)
    if outcome == DELIVERED:
        return (
            f"node {node} RECEIVED in slot {slot}: {tx or 'a neighbour'} "
            f"was the only audible transmitter"
        )
    if outcome == COLLISION:
        count = len(transmitters)
        who = f" ({tx})" if tx else ""
        return (
            f"node {node} heard nothing in slot {slot}: COLLISION — "
            f"{count} audible neighbours transmitted simultaneously{who}"
        )
    if outcome == SILENCE:
        return (
            f"node {node} heard nothing in slot {slot}: SILENCE — "
            f"no audible neighbour transmitted"
        )
    if outcome == FAULT_SUPPRESSED:
        cause = detail or "an injected fault"
        who = f" (transmitters: {tx})" if tx else ""
        return (
            f"node {node} heard nothing in slot {slot}: FAULT — "
            f"reception suppressed by {cause}{who}"
        )
    return f"node {node} at slot {slot}: {outcome}" + (f" ({detail})" if detail else "")


def explain_missing(node: Any, slot: int) -> str:
    """The answer when no entry exists for (node, slot)."""
    return (
        f"no provenance entry for node {node} at slot {slot}: the node was "
        f"not listening that slot (idle, transmitting, done, or crashed), "
        f"the slot was never executed, or provenance recording was off"
    )
