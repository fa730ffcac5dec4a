"""The "trivial protocol using the schedule".

The paper observes its randomized protocol decomposes into (a) a
distributed algorithm that *finds* a broadcast schedule and (b) a
trivial protocol that *uses* one.  :class:`ScheduledProgram` is part
(b): each node is handed the (centrally computed) schedule and simply
transmits in the slots assigned to it.  Combined with the constructions
in :mod:`repro.core.schedule` this realises the [CW87]-style
centralized alternative discussed in Related Work, and is the ablation
comparator for "what if topology were known?".
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["ScheduledProgram", "make_scheduled_programs"]

Node = Hashable


class ScheduledProgram(NodeProgram):
    """Follow a precomputed broadcast schedule.

    ``my_slots`` is the sorted list of slots in which this node
    transmits.  The program listens in all other slots until the
    schedule ends, then stops.  If the schedule is valid (see
    :func:`repro.core.schedule.verify_schedule`) the node is always
    informed before its first transmission slot.
    """

    def __init__(
        self,
        my_slots: Sequence[int],
        schedule_length: int,
        *,
        initial_message: Any = None,
    ) -> None:
        if any(slot < 0 or slot >= schedule_length for slot in my_slots):
            raise ProtocolError("transmission slots must lie within the schedule")
        self.my_slots = frozenset(my_slots)
        self.schedule_length = schedule_length
        self.message: Any = initial_message

    def act(self, ctx: Context) -> Intent:
        if ctx.slot >= self.schedule_length:
            return IDLE
        if ctx.slot in self.my_slots:
            if self.message is None:
                raise ProtocolError(
                    f"invalid schedule: node {ctx.node!r} must transmit at slot "
                    f"{ctx.slot} but was never informed"
                )
            return Transmit(self.message)
        return RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if self.message is None:
            self.message = heard

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.schedule_length

    def result(self) -> dict[str, Any]:
        return {"informed": self.message is not None}


def make_scheduled_programs(
    graph: Graph,
    source: Node,
    schedule: Sequence[frozenset],
    *,
    message: Any = "m",
) -> dict[Node, ScheduledProgram]:
    """Distribute a centralized schedule to per-node programs."""
    length = len(schedule)
    slots_of: dict[Node, list[int]] = {node: [] for node in graph.nodes}
    for slot, transmitters in enumerate(schedule):
        for node in transmitters:
            if node not in slots_of:
                raise ProtocolError(f"schedule names unknown node {node!r}")
            slots_of[node].append(slot)
    return {
        node: ScheduledProgram(
            slots_of[node],
            length,
            initial_message=message if node == source else None,
        )
        for node in graph.nodes
    }
