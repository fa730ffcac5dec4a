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

A program that knows when its choice can next change may override
:meth:`NodeProgram.wake`; the engine's wake schedule then skips the
slots it sleeps through (see :mod:`repro.sim.engine`).

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
        This processor's private coin-flip stream.  The engine's
        contexts create it on first read (same stream, same draws).
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

    def wake(self, ctx: Context) -> int | None:
        """The next slot at which this program must act even if it hears
        nothing; ``None``: only when it is delivered a message.

        The engine's wake schedule asks this after ``act`` returned
        ``Receive`` or ``Idle``, and after ``on_observe`` delivered a
        message; it never asks after a ``Transmit``.  Unless the answer
        is the next slot, the program then *sleeps* until the slot it
        names: it keeps the intent of its last ``act``, so a sleeping
        receiver is still delivered every message (and asked again), but
        it is not called with ``SILENCE`` — not even in the slot it fell
        asleep in — nor polled with ``is_done``, and its ``ctx.slot``
        keeps the slot it last ran in.  A slot not after ``ctx.slot``
        means the next one.

        An override promises that, were it called in the slots it
        sleeps through, ``act`` would return the same intent, ``is_done``
        would stay False and ``on_observe(SILENCE)`` would change
        nothing; so a program that has just become done returns the
        next slot.  The default, the next slot, keeps the program
        awake.  Observed engine runs (trace, provenance or a medium other
        than ``RadioMedium``) and the spec ignore this method.
        """
        return ctx.slot + 1

    # -- reporting ------------------------------------------------------

    def result(self) -> Any:
        """Protocol-specific output (e.g. a BFS distance label)."""
        return None
