"""Radio medium semantics.

The medium answers one question per receiver per slot: *what does this
node hear, given the set of its neighbours that transmitted?*  The rule
of the paper's model (Definition 1, rule 3):

* exactly one transmitting neighbour → the message is delivered;
* zero or more than one → nothing is delivered.

Two media are provided:

* :class:`RadioMedium` — **no collision detection** (the paper's
  model): zero and many transmitters are both reported as
  :data:`SILENCE`, indistinguishably.
* :class:`CollisionDetectingMedium` — the Section 4 variant: a
  collision is reported as the distinct token :data:`COLLISION`, so a
  receiver can tell silence from conflict.

Sentinels rather than ``None`` are used so that protocols may legally
broadcast ``None`` as a message payload.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

__all__ = [
    "SILENCE",
    "COLLISION",
    "JAMMING",
    "Medium",
    "RadioMedium",
    "CollisionDetectingMedium",
]

Node = Hashable


class _Sentinel:
    """A named singleton observation token."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"

    def __reduce__(self):  # keep identity across pickling
        return (_sentinel_lookup, (self._name,))


SILENCE = _Sentinel("SILENCE")
COLLISION = _Sentinel("COLLISION")
#: The undecodable payload a :class:`~repro.sim.faults.JamFault` injects.
#: Never delivered to a program: a lone jammer reads as SILENCE (or
#: COLLISION under collision detection); it appears only in traces.
JAMMING = _Sentinel("JAMMING")


def _sentinel_lookup(name: str) -> _Sentinel:
    return {"SILENCE": SILENCE, "COLLISION": COLLISION, "JAMMING": JAMMING}[name]


class Medium:
    """Resolution policy mapping transmitting neighbours to an observation.

    The engine and :mod:`repro.sim.spec` apply Definition 1's rule
    themselves and read only :attr:`detects_collisions`: a medium is
    told apart by that flag, and :meth:`resolve` states its rule for one
    receiver.
    """

    __slots__ = ()

    #: whether receivers can distinguish collision from silence
    detects_collisions: bool = False

    def resolve(
        self,
        receiver: Node,
        transmitting_neighbors: list[Node],
        messages: Mapping[Node, Any],
    ) -> Any:
        """Return what ``receiver`` hears this slot.

        Parameters
        ----------
        receiver:
            The listening node.
        transmitting_neighbors:
            Its neighbours that chose ``Transmit`` this slot.
        messages:
            Map from transmitting node to the message it sent.
        """
        raise NotImplementedError


class RadioMedium(Medium):
    """The paper's medium: no collision detection.

    The engine inlines this exact class's resolution rule in its hot
    loop (deliver iff exactly one audible transmitter, else
    :data:`SILENCE`); a run on any other medium is *observed* and
    resolves each receiver from its audible list instead.
    """

    __slots__ = ()

    detects_collisions = False

    def resolve(
        self,
        receiver: Node,
        transmitting_neighbors: list[Node],
        messages: Mapping[Node, Any],
    ) -> Any:
        if len(transmitting_neighbors) == 1:
            return messages[transmitting_neighbors[0]]
        return SILENCE


class CollisionDetectingMedium(Medium):
    """Section-4 variant: collisions are observable as :data:`COLLISION`."""

    __slots__ = ()

    detects_collisions = True

    def resolve(
        self,
        receiver: Node,
        transmitting_neighbors: list[Node],
        messages: Mapping[Node, Any],
    ) -> Any:
        if len(transmitting_neighbors) == 1:
            return messages[transmitting_neighbors[0]]
        if len(transmitting_neighbors) > 1:
            return COLLISION
        return SILENCE
