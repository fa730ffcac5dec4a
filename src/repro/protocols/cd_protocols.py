"""Collision-detection protocols.

Two pieces, both tied to the paper's discussion of collision detection:

1. :class:`FourSlotCnProgram` — Section 4's remark: *"one can broadcast
   in C_n using 4 time-slots"* when collisions are detectable.  The
   protocol:

   * slot 0 — the source transmits the message; all of the second
     layer receives it.
   * slot 1 — every second-layer node adjacent to the sink (each knows
     this from its initial input: its neighbour set contains the sink's
     ID) transmits the message.  If ``|S| = 1`` the sink receives and
     broadcast is complete in 2 slots.
   * slot 2 — otherwise the sink *detected the collision*; it polls its
     smallest neighbour by ID (the sink's initial input includes its
     neighbours' IDs).  The sink is the lone transmitter, so all of
     ``S`` hears the poll.
   * slot 3 — the polled node alone retransmits the message; the sink
     receives it.

   Note the sink transmits after detecting a collision but before
   receiving a *message*; with collision detection the natural model
   lets a detected collision activate a node, so runs use
   ``enforce_no_spontaneous=False``.  This is exactly why the ``C_n``
   lower bound evaporates under collision detection.

2. :class:`TreeSplittingProgram` — the classic Capetanakis/Hayes/
   Tsybakov-Mikhailov tree-splitting algorithm ([C79, H78, TM79] in the
   paper's Related Work): collision resolution on a single-hop channel
   *with* CD, resolving **all** contenders' messages.  We implement it
   honestly on the half-duplex engine by pairing every contention slot
   with a feedback slot in which a base station (which heard the
   contention outcome) broadcasts SUCCESS/COLLISION/SILENCE; every
   contender replays the same interval-stack automaton off that common
   feedback.  Runs on a star with the base station at the centre.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = [
    "FourSlotCnProgram",
    "make_four_slot_cn_programs",
    "TreeSplittingProgram",
    "make_tree_splitting_programs",
]

Node = Hashable


# ---------------------------------------------------------------------------
# Section 4: 4-slot broadcast on C_n with collision detection
# ---------------------------------------------------------------------------


class FourSlotCnProgram(NodeProgram):
    """Role-based program for the 4-slot ``C_n`` broadcast (see module docs).

    ``role`` is ``"source"``, ``"layer"`` (second layer), or ``"sink"``.
    Second-layer nodes derive S-membership from their initial input
    (their neighbour set contains the sink ID iff they are in ``S``).
    """

    def __init__(self, role: str, sink_id: Node, *, message: Any = "m") -> None:
        if role not in {"source", "layer", "sink"}:
            raise ProtocolError(f"unknown role {role!r}")
        self.role = role
        self.sink_id = sink_id
        self.message: Any = message if role == "source" else None
        self._saw_collision = False
        self._polled: Node | None = None

    def act(self, ctx: Context) -> Intent:
        slot = ctx.slot
        if self.role == "source":
            return Transmit(self.message) if slot == 0 else IDLE
        if self.role == "layer":
            if slot == 0:
                return RECEIVE
            in_s = self.sink_id in ctx.neighbor_ids
            if slot == 1:
                if in_s and self.message is not None:
                    return Transmit(self.message)
                return RECEIVE
            if slot == 2:
                return RECEIVE if in_s else IDLE
            if slot == 3:
                if self._polled == ctx.node and self.message is not None:
                    return Transmit(self.message)
                return IDLE
            return IDLE
        # sink
        if slot in (0, 1):
            return RECEIVE
        if slot == 2 and self._saw_collision and self.message is None:
            return Transmit(("poll", min(ctx.neighbor_ids)))
        if slot == 3 and self.message is None:
            return RECEIVE
        return IDLE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is COLLISION:
            self._saw_collision = True
            return
        if heard is SILENCE:
            return
        if isinstance(heard, tuple) and heard and heard[0] == "poll":
            self._polled = heard[1]
            return
        if self.message is None:
            self.message = heard

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= 4

    def result(self) -> dict[str, Any]:
        return {"informed": self.message is not None, "role": self.role}


def make_four_slot_cn_programs(
    graph: Graph,
    n: int,
    *,
    message: Any = "m",
) -> dict[Node, FourSlotCnProgram]:
    """Programs for a graph produced by :func:`repro.graphs.generators.c_n`."""
    sink = n + 1
    programs: dict[Node, FourSlotCnProgram] = {}
    for node in graph.nodes:
        if node == 0:
            role = "source"
        elif node == sink:
            role = "sink"
        else:
            role = "layer"
        programs[node] = FourSlotCnProgram(role, sink, message=message)
    return programs


# ---------------------------------------------------------------------------
# Related work: tree splitting with CD on a single-hop channel
# ---------------------------------------------------------------------------


class TreeSplittingProgram(NodeProgram):
    """Interval-stack tree splitting with explicit base-station feedback.

    Time alternates: even slots are *contention* slots, odd slots are
    *feedback* slots.  Every participant (base and contenders) mirrors
    the same stack of ID intervals ``[lo, hi)``; in a contention slot
    the members of the top interval holding unresolved messages
    transmit; in the following feedback slot the base broadcasts what
    it heard, and everyone updates the stack identically:

    * SUCCESS  → pop (one message resolved);
    * SILENCE  → pop (interval empty);
    * COLLISION→ pop and push the two halves.

    Terminates when the stack empties; by induction every contender's
    message is delivered to the base exactly once.
    """

    def __init__(
        self,
        *,
        is_base: bool,
        id_space: tuple[int, int],
        has_message: bool = False,
        message: Any = None,
    ) -> None:
        lo, hi = id_space
        if lo >= hi:
            raise ProtocolError("id_space must be a non-empty interval [lo, hi)")
        self.is_base = is_base
        self.has_message = has_message and not is_base
        self.message = message
        self._stack: list[tuple[int, int]] = [(lo, hi)]
        self._resolved = False
        self._i_transmitted = False
        self._pending_feedback: Any = None
        self.received_messages: list[Any] = []

    def act(self, ctx: Context) -> Intent:
        if not self._stack:
            return IDLE
        contention_slot = ctx.slot % 2 == 0
        if self.is_base:
            if contention_slot:
                return RECEIVE
            feedback = self._classify(self._pending_feedback)
            self._apply_feedback(feedback)
            return Transmit(("fb", feedback))
        if contention_slot:
            lo, hi = self._stack[-1]
            mine = self.has_message and not self._resolved and lo <= ctx.node < hi
            self._i_transmitted = mine
            if mine:
                return Transmit(("msg", ctx.node, self.message))
            return RECEIVE
        return RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        contention_slot = ctx.slot % 2 == 0
        if self.is_base:
            if contention_slot:
                self._pending_feedback = heard
                if isinstance(heard, tuple) and heard and heard[0] == "msg":
                    self.received_messages.append(heard[2])
            return
        if contention_slot:
            return  # contenders ignore each other; only feedback matters
        if isinstance(heard, tuple) and heard and heard[0] == "fb":
            feedback = heard[1]
            if feedback == "success" and self._i_transmitted:
                self._resolved = True
            self._apply_feedback(feedback)

    def is_done(self, ctx: Context) -> bool:
        return not self._stack

    def result(self) -> dict[str, Any]:
        if self.is_base:
            return {"role": "base", "resolved": list(self.received_messages)}
        return {"role": "contender", "resolved": self._resolved}

    # -- shared stack automaton ----------------------------------------

    @staticmethod
    def _classify(observation: Any) -> str:
        if observation is COLLISION:
            return "collision"
        if observation is SILENCE or observation is None:
            return "silence"
        return "success"

    def _apply_feedback(self, feedback: str) -> None:
        if not self._stack:
            return
        lo, hi = self._stack.pop()
        if feedback == "collision":
            mid = (lo + hi) // 2
            # Split; a singleton interval cannot collide, so mid strictly
            # separates when hi - lo >= 2 (guaranteed by the collision).
            self._stack.append((mid, hi))
            self._stack.append((lo, mid))


def make_tree_splitting_programs(
    graph: Graph,
    base: Node,
    contenders: dict[Node, Any],
) -> dict[Node, TreeSplittingProgram]:
    """Programs for tree splitting on a star/clique centred at ``base``.

    ``contenders`` maps contender node → its message.  All non-base
    nodes must have integer IDs; the shared interval covers them all.
    """
    others = [node for node in graph.nodes if node != base]
    if not all(isinstance(node, int) for node in others):
        raise ProtocolError("tree splitting requires integer contender IDs")
    if not others:
        raise ProtocolError("need at least one non-base node")
    lo, hi = min(others), max(others) + 1
    programs: dict[Node, TreeSplittingProgram] = {}
    for node in graph.nodes:
        if node == base:
            programs[node] = TreeSplittingProgram(is_base=True, id_space=(lo, hi))
        else:
            programs[node] = TreeSplittingProgram(
                is_base=False,
                id_space=(lo, hi),
                has_message=node in contenders,
                message=contenders.get(node),
            )
    return programs
