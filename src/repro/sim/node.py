"""The node-program abstraction.

A :class:`NodeProgram` is the per-processor state machine of the paper's
Definition 1.  The engine drives each program through the same two-beat
cycle every time-slot:

1. :meth:`NodeProgram.act` — the program announces its *intent* for the
   slot: :class:`Transmit` (with a message), :class:`Receive`, or
   :class:`Idle`.
2. The medium resolves all intents simultaneously; then, for programs
   that chose ``Receive``, the engine calls
   :meth:`NodeProgram.on_observe` with what was heard.

Programs see the world only through their :class:`Context`: their ID,
their neighbours' IDs (the paper's "initial input"), the global slot
counter (the model is synchronous, so a common clock is part of the
model), and a private random stream.  They have **no** access to the
topology, to other programs' state, or to collision information unless
the medium provides it.

Rule 5 of Definition 1 — no spontaneous transmissions — is enforced by
the engine when ``enforce_no_spontaneous=True``: a program that
transmits before having received any message (and is not a designated
initiator) raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = [
    "Transmit",
    "Receive",
    "Idle",
    "RECEIVE",
    "IDLE",
    "Intent",
    "Context",
    "NodeProgram",
]

Node = Hashable


@dataclass(frozen=True)
class Transmit:
    """Intent: act as a transmitter this slot, sending ``message``."""

    message: Any


@dataclass(frozen=True)
class Receive:
    """Intent: act as a receiver this slot."""


@dataclass(frozen=True)
class Idle:
    """Intent: stay inactive this slot (neither transmit nor receive)."""


Intent = Transmit | Receive | Idle

#: Shared intents.  Intents are immutable, so every program may return
#: these instead of allocating a fresh ``Receive()``/``Idle()`` per slot.
RECEIVE = Receive()
IDLE = Idle()


@dataclass
class Context:
    """Everything a node program may legally observe.

    Attributes
    ----------
    node:
        This processor's ID.
    neighbor_ids:
        IDs of this processor's neighbours at *start of run* — the
        paper's initial input.  Randomized (ID-oblivious) protocols
        must not read it; deterministic protocols may.
    rng:
        This processor's private coin-flip stream.
    slot:
        The current global time-slot number (updated by the engine).
    """

    node: Node
    neighbor_ids: frozenset[Node]
    rng: random.Random
    slot: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


class NodeProgram:
    """Base class for per-processor protocol logic.

    Subclasses override :meth:`act` (mandatory) and usually
    :meth:`on_observe`.  The engine constructs one instance per node.
    """

    def on_start(self, ctx: Context) -> None:
        """Called once before slot 0.  Default: nothing."""

    def act(self, ctx: Context) -> Intent:
        """Return this node's intent for the current slot."""
        raise NotImplementedError

    def on_observe(self, ctx: Context, heard: Any) -> None:
        """Called after a ``Receive`` slot with what was heard.

        In the no-collision-detection medium ``heard`` is either a
        delivered message or :data:`~repro.sim.medium.SILENCE` — the
        latter covering *both* "nobody transmitted" and "a collision
        occurred", indistinguishably.  In the collision-detection
        medium ``heard`` may also be :data:`~repro.sim.medium.COLLISION`.
        """

    def is_done(self, ctx: Context) -> bool:
        """True once this node will never act again (lets runs end early)."""
        return False

    # -- reporting ------------------------------------------------------

    def result(self) -> Any:
        """Protocol-specific output (e.g. a BFS distance label)."""
        return None
