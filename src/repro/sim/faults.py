"""Dynamic-topology and fault schedules.

The paper's property 3 claims the Broadcast protocol is *"adaptive to
changes in topology ... edges may be added or deleted at any time,
provided that the network of unchanged edges remains connected"* —
i.e. resilience to fail/stop edge faults.  This module provides the
machinery the E9 experiment and the :mod:`repro.chaos` harness use to
exercise (and deliberately over-stress) that claim:

* :class:`EdgeFault` — add or remove one edge at a given slot;
* :class:`CrashFault` — silence one node from a given slot (the node
  neither transmits nor receives while down), either permanently or,
  with ``until``, transiently (crash–recover);
* :class:`JamFault` — an adversarial jammer: the node transmits
  undecodable noise in every slot of a window, colliding with any
  legitimate transmission its neighbours could otherwise hear;
* :class:`LinkLossFault` — probabilistic lossy links: while active,
  each *directed* reception across a matching link is independently
  erased with probability ``p`` (the coin is a pure function of the
  engine seed, slot and endpoints, so runs stay replayable);
* :class:`FaultSchedule` — an ordered collection applied by the engine
  at slot boundaries (before intents are gathered for that slot).

A schedule is data, not behaviour, so experiments can generate, log and
replay fault patterns deterministically.  Schedules are validated
against the topology at engine construction
(:meth:`FaultSchedule.validate_for_graph`): a fault naming a node the
graph does not contain is a configuration error, not a silent no-op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Literal

from repro.errors import SimulationError
from repro.graphs.graph import Graph

__all__ = [
    "EdgeFault",
    "CrashFault",
    "JamFault",
    "LinkLossFault",
    "FaultSchedule",
    "random_edge_kill_schedule",
]

Node = Hashable


@dataclass(frozen=True)
class EdgeFault:
    """Add or remove the edge ``(u, v)`` at the start of slot ``slot``."""

    slot: int
    u: Node
    v: Node
    kind: Literal["remove", "add"] = "remove"

    def apply(self, g: Graph) -> None:
        if self.kind == "remove":
            if g.has_edge(self.u, self.v):
                g.remove_edge(self.u, self.v)
        elif self.kind == "add":
            g.add_edge(self.u, self.v)
        else:  # pragma: no cover - guarded by Literal, defensive only
            raise SimulationError(f"unknown edge fault kind {self.kind!r}")


@dataclass(frozen=True)
class CrashFault:
    """Node ``node`` fail-stops at the start of slot ``slot``.

    With ``until=None`` (the default) the crash is permanent.  With an
    integer ``until`` the fault is transient: the node is down for the
    slots ``[slot, until)`` and resumes its program — state intact, as
    if no time had passed for it — at the start of slot ``until``.
    Crashes of one node compose as a union: the node is down at every
    slot some crash of it covers.
    """

    slot: int
    node: Node
    until: int | None = None

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise SimulationError(f"crash slot must be >= 0, got {self.slot}")
        if self.until is not None and self.until <= self.slot:
            raise SimulationError(
                f"crash recovery slot must follow the crash: "
                f"slot={self.slot}, until={self.until}"
            )


@dataclass(frozen=True)
class JamFault:
    """Node ``node`` jams — transmits noise — in slots ``[start, end)``.

    While jamming, the node's own program is suspended (it neither acts
    nor observes) and an undecodable signal is injected on its behalf
    every slot.  Receivers that hear *only* the jammer observe silence
    (or a collision, under a collision-detecting medium); receivers
    that hear the jammer plus a legitimate transmitter observe a
    collision.  Jam transmissions are accounted separately from
    protocol transmissions (``RunMetrics.jam_transmissions``).
    """

    node: Node
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SimulationError(f"jam window must start at slot >= 0, got {self.start}")
        if self.end <= self.start:
            raise SimulationError(
                f"jam window must be non-empty: start={self.start}, end={self.end}"
            )

    def active_at(self, slot: int) -> bool:
        return self.start <= slot < self.end


@dataclass(frozen=True)
class LinkLossFault:
    """Independently erase each directed reception with probability ``p``.

    While active (slots ``[start, end)``; ``end=None`` means for the
    rest of the run), every directed reception ``transmitter →
    receiver`` across a matching link is erased with probability ``p``,
    independently per (slot, transmitter, receiver).  An erased signal
    simply does not arrive: it neither delivers nor contributes to a
    collision at that receiver.

    ``edges`` restricts the fault to specific links, matched as
    unordered pairs (``None`` = every link).  The erasure coin is
    derived from the engine seed, the slot and the directed pair, so
    identical seeds replay identical loss patterns regardless of
    iteration order or process boundaries.
    """

    p: float
    start: int = 0
    end: int | None = None
    edges: frozenset[frozenset[Node]] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise SimulationError(f"loss probability must be in [0, 1], got {self.p}")
        if self.end is not None and self.end <= self.start:
            raise SimulationError(
                f"loss window must be non-empty: start={self.start}, end={self.end}"
            )
        if self.edges is not None:
            normalised = frozenset(frozenset(pair) for pair in self.edges)
            for pair in normalised:
                if len(pair) != 2:
                    raise SimulationError(
                        f"loss fault edges must be pairs of distinct nodes, got {sorted(map(repr, pair))}"
                    )
            object.__setattr__(self, "edges", normalised)

    def active_at(self, slot: int) -> bool:
        return self.start <= slot and (self.end is None or slot < self.end)

    def covers(self, u: Node, v: Node) -> bool:
        return self.edges is None or frozenset((u, v)) in self.edges


@dataclass
class FaultSchedule:
    """All faults for one run, queryable by slot."""

    edge_faults: list[EdgeFault] = field(default_factory=list)
    crash_faults: list[CrashFault] = field(default_factory=list)
    jam_faults: list[JamFault] = field(default_factory=list)
    link_loss_faults: list[LinkLossFault] = field(default_factory=list)

    def edge_faults_at(self, slot: int) -> list[EdgeFault]:
        return [f for f in self.edge_faults if f.slot == slot]

    def by_slot(self) -> dict[int, list[EdgeFault]]:
        """Index the edge faults by slot (one scan instead of one per slot).

        Relative order of same-slot faults is preserved, so replaying
        the index is equivalent to calling :meth:`edge_faults_at` slot
        by slot.  The index is a snapshot: faults added afterwards are
        not reflected.  Crashes and window faults (jam, link loss) are
        read directly.
        """
        edge_index: dict[int, list[EdgeFault]] = {}
        for fault in self.edge_faults:
            edge_index.setdefault(fault.slot, []).append(fault)
        return edge_index

    def is_empty(self) -> bool:
        return not (
            self.edge_faults
            or self.crash_faults
            or self.jam_faults
            or self.link_loss_faults
        )

    @property
    def last_slot(self) -> int:
        """Last slot at which this schedule changes anything.

        Open-ended loss windows (``end=None``) contribute their start
        slot — they are active forever after it.
        """
        slots = [f.slot for f in self.edge_faults]
        for crash in self.crash_faults:
            slots.append(crash.slot if crash.until is None else crash.until - 1)
        slots.extend(f.end - 1 for f in self.jam_faults)
        slots.extend(
            f.start if f.end is None else f.end - 1 for f in self.link_loss_faults
        )
        return max(slots) if slots else -1

    def counts(self) -> dict[str, int]:
        """Machine-readable fault census (used by campaign journals)."""
        return {
            "edge": len(self.edge_faults),
            "crash": len(self.crash_faults),
            "jam": len(self.jam_faults),
            "link_loss": len(self.link_loss_faults),
        }

    def validate_for_graph(self, g: Graph) -> None:
        """Raise :class:`SimulationError` if any fault targets a node absent
        from ``g``.

        Called by the engine at construction so a mistyped node label
        fails loudly up front instead of silently no-opping mid-run.
        """
        nodes = set(g.nodes)

        def require(node: Node, fault: object) -> None:
            if node not in nodes:
                raise SimulationError(
                    f"fault {fault!r} targets node {node!r}, which is not in the graph"
                )

        for edge_fault in self.edge_faults:
            require(edge_fault.u, edge_fault)
            require(edge_fault.v, edge_fault)
        for crash in self.crash_faults:
            require(crash.node, crash)
        for jam in self.jam_faults:
            require(jam.node, jam)
        for loss in self.link_loss_faults:
            if loss.edges is not None:
                for pair in loss.edges:
                    for node in pair:
                        require(node, loss)


def random_edge_kill_schedule(
    g: Graph,
    keep: Graph,
    kill_fraction: float,
    max_slot: int,
    rng: random.Random,
) -> FaultSchedule:
    """Build a schedule that removes random edges of ``g`` not present in ``keep``.

    ``keep`` is a connected spanning subgraph whose edges are never
    killed — this realises the paper's proviso that "the network of
    unchanged edges remains connected".  Each killable edge is removed
    with probability ``kill_fraction`` at a uniformly random slot in
    ``[0, max_slot)``; ``max_slot`` must therefore be at least 1.
    """
    if not 0.0 <= kill_fraction <= 1.0:
        raise SimulationError("kill_fraction must be in [0, 1]")
    if max_slot < 1:
        raise SimulationError(
            f"max_slot must be >= 1 (faults are scheduled in [0, max_slot)), got {max_slot}"
        )
    protected = {frozenset(edge) for edge in keep.edges}
    faults = []
    for u, v in g.edges:
        if frozenset((u, v)) in protected:
            continue
        if rng.random() < kill_fraction:
            faults.append(EdgeFault(slot=rng.randrange(max_slot), u=u, v=v))
    return FaultSchedule(edge_faults=faults)
