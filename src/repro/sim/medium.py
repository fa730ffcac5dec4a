"""Radio medium semantics.

The medium decides what a receiver hears, given the set of its
neighbours that transmitted.  The rule of the paper's model
(Definition 1, rule 3):

* exactly one transmitting neighbour → the message is delivered;
* zero or more than one → nothing is delivered.

Two media are provided:

* :class:`RadioMedium` — **no collision detection** (the paper's
  model): zero and many transmitters are both reported as
  :data:`SILENCE`, indistinguishably.
* :class:`CollisionDetectingMedium` — the Section 4 variant: a
  collision is reported as the distinct token :data:`COLLISION`, so a
  receiver can tell silence from conflict.

A medium carries only its :attr:`Medium.detects_collisions` flag; the
engine and :func:`repro.sim.spec.resolve_slot` apply the rule.

Sentinels rather than ``None`` are used so that protocols may legally
broadcast ``None`` as a message payload.
"""

from __future__ import annotations

__all__ = [
    "SILENCE",
    "COLLISION",
    "JAMMING",
    "Medium",
    "RadioMedium",
    "CollisionDetectingMedium",
]


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
    """A medium is told apart by :attr:`detects_collisions` alone.

    The engine and :func:`repro.sim.spec.resolve_slot` apply Definition
    1's rule 3 themselves and read only this flag: a receiver with one
    audible transmitter gets its message; zero or several give
    :data:`SILENCE`, or :data:`COLLISION` for several when the flag is
    set.  :func:`~repro.sim.spec.resolve_slot` is the reference.
    """

    __slots__ = ()

    #: whether receivers can distinguish collision from silence
    detects_collisions: bool = False


class RadioMedium(Medium):
    """The paper's medium: no collision detection.

    The engine inlines this exact class's resolution rule in its hot
    loop (deliver iff exactly one audible transmitter, else
    :data:`SILENCE`); a run on any other medium is *observed* and
    resolves each receiver from its audible list instead.
    """

    __slots__ = ()

    detects_collisions = False


class CollisionDetectingMedium(Medium):
    """Section-4 variant: collisions are observable as :data:`COLLISION`."""

    __slots__ = ()

    detects_collisions = True
