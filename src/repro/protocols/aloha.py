"""p-persistent (slotted-ALOHA-style) broadcast baseline.

Randomized comparator referenced by the paper's Related Work ([A70],
[T81]): once informed, a node transmits the message in every slot
independently with probability ``p`` and listens otherwise, forever (or
for a bounded number of slots).

Against Decay this exhibits the classic failure mode the Decay design
fixes: a single fixed ``p`` cannot be right for every neighbourhood
size — ``p ≈ 1/d`` is needed for a ``d``-dense neighbourhood, but ``d``
varies across the network and over time.  Decay's geometric sweep of
effective transmission rates covers all ``d`` with one parameter-free
procedure; the E8/ablation bench quantifies the difference.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["AlohaBroadcastProgram", "make_aloha_programs"]

Node = Hashable


class AlohaBroadcastProgram(NodeProgram):
    """Transmit with probability ``p`` each slot once informed.

    ``active_slots`` bounds how many slots the node keeps transmitting
    after being informed (``None``: unbounded — the harness's stop
    condition or slot cap ends the run).
    """

    def __init__(
        self,
        p: float,
        *,
        initial_message: Any = None,
        active_slots: int | None = None,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise ProtocolError("transmission probability must be in (0, 1]")
        self.p = p
        self.active_slots = active_slots
        self.message: Any = initial_message
        self._informed_slot: int | None = 0 if initial_message is not None else None
        self._done = False

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        if self.message is None:
            return RECEIVE
        if (
            self.active_slots is not None
            and self._informed_slot is not None
            and ctx.slot - self._informed_slot >= self.active_slots
        ):
            self._done = True
            return IDLE
        if ctx.rng.random() < self.p:
            return Transmit(self.message)
        return RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if self.message is None:
            self.message = heard
            self._informed_slot = ctx.slot

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def result(self) -> dict[str, Any]:
        return {"informed": self.message is not None, "informed_at": self._informed_slot}


def make_aloha_programs(
    graph: Graph,
    source: Node,
    p: float,
    *,
    message: Any = "m",
    active_slots: int | None = None,
) -> dict[Node, AlohaBroadcastProgram]:
    """One ALOHA program per node of ``graph``."""
    return {
        node: AlohaBroadcastProgram(
            p,
            initial_message=message if node == source else None,
            active_slots=active_slots,
        )
        for node in graph.nodes
    }
