"""Deterministic round-robin (TDMA) broadcast.

The folklore deterministic upper bound: give every processor its own
time-slot in a repeating frame of ``frame_size`` slots.  A processor
with integer ID ``i`` transmits the message — once informed — in every
slot ``t`` with ``t ≡ i (mod frame_size)``.  Since IDs are unique
within the frame, at most one processor transmits per slot anywhere in
the network, so no collision ever occurs, and the informed set grows by
at least one full BFS layer per frame: broadcast completes within
``D`` frames, i.e. ``O(n · D)`` slots when ``frame_size = n``.

On the paper's class ``C_n`` (diameter 3) this takes Θ(n) slots —
round-robin is the natural "reasonable deterministic protocol" whose
linear cost Theorem 12 shows is unavoidable.

Requires integer node IDs in ``[0, frame_size)``; the frame size plays
the role of the globally-known ``n`` ("*n is known to all processors*",
as in the paper's lower-bound statement).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["RoundRobinProgram", "make_round_robin_programs"]

Node = Hashable


class RoundRobinProgram(NodeProgram):
    """Transmit in my slot of each frame once informed; else listen.

    Parameters
    ----------
    slot_index:
        This node's residue in the frame (its integer ID).
    frame_size:
        Slots per frame (≥ number of nodes for collision freedom).
    max_frames:
        Stop transmitting after this many frames from first informing
        (``None``: keep going until the harness stops the run).
    """

    def __init__(
        self,
        slot_index: int,
        frame_size: int,
        *,
        initial_message: Any = None,
        max_frames: int | None = None,
    ) -> None:
        if not 0 <= slot_index < frame_size:
            raise ProtocolError(
                f"slot_index {slot_index} outside frame of size {frame_size}"
            )
        self.slot_index = slot_index
        self.frame_size = frame_size
        self.max_frames = max_frames
        self.message: Any = initial_message
        self._informed_slot: int | None = -1 if initial_message is not None else None
        self._done = False

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        if self.message is None:
            return RECEIVE
        if self.max_frames is not None and self._informed_slot is not None:
            frames_elapsed = (ctx.slot - max(0, self._informed_slot)) // self.frame_size
            if frames_elapsed >= self.max_frames:
                self._done = True
                return IDLE
        if ctx.slot % self.frame_size == self.slot_index:
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

    def wake(self, ctx: Context) -> int | None:
        """Uninformed: when a message arrives; informed: my next turn, or
        the slot ``max_frames`` runs out if that comes first."""
        if self._done:
            return ctx.slot + 1
        if self.message is None:
            return None
        turn = ctx.slot + 1 + (self.slot_index - ctx.slot - 1) % self.frame_size
        if self.max_frames is not None and self._informed_slot is not None:
            return min(turn, max(0, self._informed_slot) + self.max_frames * self.frame_size)
        return turn

    def result(self) -> dict[str, Any]:
        return {"informed": self.message is not None, "informed_at": self._informed_slot}


def make_round_robin_programs(
    graph: Graph,
    source: Node,
    *,
    frame_size: int | None = None,
    message: Any = "m",
    max_frames: int | None = None,
) -> dict[Node, RoundRobinProgram]:
    """One round-robin program per node; nodes must be ints ``0..n-1``.

    ``frame_size`` defaults to ``n``; pass a larger value to model a
    loose upper bound on the ID space.
    """
    nodes = graph.nodes
    if not all(isinstance(node, int) for node in nodes):
        raise ProtocolError("round robin requires integer node IDs")
    size = frame_size if frame_size is not None else max(nodes) + 1
    return {
        node: RoundRobinProgram(
            node,
            size,
            initial_message=message if node == source else None,
            max_frames=max_frames,
        )
        for node in nodes
    }
