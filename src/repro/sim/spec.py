"""Definition 1 and the fault model as an executable spec.

:func:`resolve_slot` applies the model's rules to one slot with no
caches and no fast paths, and :func:`run` drives programs slot by slot
with it, under a :class:`~repro.sim.faults.FaultSchedule`.  The spec has
no traces or telemetry; on the inputs it accepts,
:class:`~repro.sim.engine.Engine` must produce the same observations,
the same :class:`~repro.sim.metrics.RunMetrics` and the same final
graph, whether it sleeps its programs on their ``wake`` schedule or, in
an observed run (trace, provenance or a collision-detecting medium),
calls every live program in every slot.

The fault rules, each read off :mod:`repro.sim.faults`:

* an edge fault adds or removes its edge at the start of its slot, in
  schedule order, before any program of that slot acts;
* a node is down at slot ``s`` iff some crash of it covers ``s`` (from
  its slot, until its ``until`` or for ever).  A down node is neither
  polled nor asked to act, and hears nothing.  A node down at ``s - 1``
  and up at ``s`` recovers at ``s``: its program, unless already done,
  is polled once and, if not done, acts in that slot;
* a node jams at ``s`` while a jam window covers ``s`` and it is up.  A
  jammer is polled but does not act or hear.  Its noise is energy at
  every hearer that never delivers: heard alone it is ``SILENCE``, or
  ``COLLISION`` on a collision-detecting medium.  It is metered as
  ``jam_transmissions``, not as a transmission;
* while a loss window covers ``s``, each directed reception ``u → r``
  on a link it covers is erased when the coin
  ``rng.derive_seed(seed, "link-loss", index, s, u, r) / 2**64``, with
  ``index`` the fault's place in the schedule's loss list, is below
  ``p``.  An erased signal neither delivers nor collides;
* a run ends before slot ``s`` when every program is done, down for
  good, or done before it went down: no undone program is up at
  ``s - 1``, and no undone program down at ``s - 1`` will come back up.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

from repro import rng as rng_mod
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.faults import CrashFault, FaultSchedule, LinkLossFault
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.metrics import RunMetrics
from repro.sim.node import Context, Idle, NodeProgram, Receive, Transmit

__all__ = ["resolve_slot", "run"]

Node = Hashable


def _erased(
    losses: Sequence[LinkLossFault], seed: int, slot: int, sender: Node, receiver: Node
) -> bool:
    """Whether link loss erases ``sender``'s signal at ``receiver``."""
    for index, fault in enumerate(losses):
        if slot < fault.start or (fault.end is not None and slot >= fault.end):
            continue
        if fault.edges is not None and frozenset((sender, receiver)) not in fault.edges:
            continue
        coin = rng_mod.derive_seed(seed, "link-loss", index, slot, sender, receiver)
        if coin / 2**64 < fault.p:
            return True
    return False


def resolve_slot(
    graph: Graph,
    intents: Mapping[Node, Any],
    *,
    informed: set[Node] | frozenset[Node],
    slot: int = 0,
    enforce_no_spontaneous: bool = True,
    detects_collisions: bool = False,
    jammers: set[Node] | frozenset[Node] = frozenset(),
    losses: Sequence[LinkLossFault] = (),
    seed: int = 0,
) -> dict[Node, tuple[Any, list[Node]]]:
    """What each receiver observes this slot, and whom it could hear.

    ``intents`` holds the intent of every processor that acts this slot
    (rule 2); ``informed`` holds the initiators and every node delivered
    a message before this slot (rule 5).  ``jammers`` send noise this
    slot, and ``losses`` are the run's loss faults, coins drawn from
    ``seed``.  Returns, per receiver, its observation and the signals
    that reach it (rule 3).
    """
    for node, intent in intents.items():
        if not isinstance(intent, (Transmit, Receive, Idle)):
            raise ProtocolError(
                f"node {node!r} returned {intent!r}; expected Transmit/Receive/Idle"
            )
        if isinstance(intent, Transmit) and enforce_no_spontaneous and node not in informed:
            raise ProtocolError(
                f"node {node!r} transmitted spontaneously at slot {slot} "
                "(Definition 1, rule 5; pass enforce_no_spontaneous=False to allow)"
            )
    outcome: dict[Node, tuple[Any, list[Node]]] = {}
    for node, intent in intents.items():
        if not isinstance(intent, Receive):
            continue
        heard = [
            u for u in graph.audible(node)
            if (u in jammers or isinstance(intents.get(u), Transmit))
            and not _erased(losses, seed, slot, u, node)
        ]
        if len(heard) == 1 and heard[0] not in jammers:
            outcome[node] = (intents[heard[0]].message, heard)
        elif heard and detects_collisions:
            outcome[node] = (COLLISION, heard)
        else:
            outcome[node] = (SILENCE, heard)
    return outcome


def _down(crashes: Sequence[CrashFault], node: Node, slot: int) -> bool:
    """Whether some crash of ``node`` covers ``slot``."""
    return any(
        crash.node == node
        and crash.slot <= slot
        and (crash.until is None or slot < crash.until)
        for crash in crashes
    )


def _comes_back(crashes: Sequence[CrashFault], node: Node, slot: int) -> bool:
    """Whether ``node`` is up at some slot from ``slot`` on: an outage
    can only end at some crash's ``until``."""
    return any(
        crash.node == node
        and crash.until is not None
        and crash.until >= slot
        and not _down(crashes, node, crash.until)
        for crash in crashes
    )


def run(
    graph: Graph,
    programs: Mapping[Node, NodeProgram],
    max_slots: int,
    *,
    seed: int = 0,
    initiators: set[Node] | frozenset[Node] = frozenset(),
    enforce_no_spontaneous: bool = True,
    detects_collisions: bool = False,
    faults: FaultSchedule | None = None,
) -> tuple[RunMetrics, list[dict[Node, Any]], Graph]:
    """Run ``programs`` until all are done or ``max_slots`` pass (rules 1, 4, 6).

    Programs act and are told what they heard in the order of
    ``programs``.  Returns the metrics, per slot each receiver's
    observation, and the graph as the edge faults left it.
    """
    faults = faults if faults is not None else FaultSchedule()
    crashes = faults.crash_faults
    graph = graph.copy()
    contexts = {
        node: Context(node, graph.neighbors(node), rng_mod.spawn_for_node(seed, node))
        for node in graph.nodes
    }
    for node, program in programs.items():
        program.on_start(contexts[node])
    metrics = RunMetrics()
    informed = set(initiators)
    done: set[Node] = set()
    observed: list[dict[Node, Any]] = []

    def poll(node: Node, slot: int) -> None:
        contexts[node].slot = slot
        if programs[node].is_done(contexts[node]):
            done.add(node)

    for slot in range(max_slots):
        for node in programs:
            if node not in done and not _down(crashes, node, slot - 1):
                poll(node, slot)
        live = [
            node for node in programs
            if node not in done and not _down(crashes, node, slot - 1)
        ]
        returning = [
            node for node in programs
            if node not in done
            and _down(crashes, node, slot - 1)
            and _comes_back(crashes, node, slot)
        ]
        if not live and not returning:
            break
        for fault in faults.edge_faults:
            if fault.slot == slot:
                if fault.kind == "add":
                    graph.add_edge(fault.u, fault.v)
                elif graph.has_edge(fault.u, fault.v):
                    graph.remove_edge(fault.u, fault.v)
        for node in programs:
            if (node not in done and _down(crashes, node, slot - 1)
                    and not _down(crashes, node, slot)):
                poll(node, slot)
        jammers = {
            jam.node for jam in faults.jam_faults
            if jam.start <= slot < jam.end and not _down(crashes, jam.node, slot)
        }
        intents = {
            node: programs[node].act(contexts[node])
            for node in programs
            if node not in done and node not in jammers and not _down(crashes, node, slot)
        }
        outcome = resolve_slot(
            graph,
            intents,
            informed=informed,
            slot=slot,
            enforce_no_spontaneous=enforce_no_spontaneous,
            detects_collisions=detects_collisions,
            jammers=jammers,
            losses=faults.link_loss_faults,
            seed=seed,
        )
        for node, intent in intents.items():
            if isinstance(intent, Transmit):
                metrics.note_transmission(node)
        metrics.jam_transmissions += len(jammers)
        for node, (observation, heard) in outcome.items():
            if len(heard) == 1 and heard[0] not in jammers:
                metrics.note_delivery(node, slot)
                informed.add(node)
            elif len(heard) > 1:
                metrics.note_collision(node)
        for node, (observation, _heard) in outcome.items():
            programs[node].on_observe(contexts[node], observation)
        observed.append({node: observation for node, (observation, _) in outcome.items()})
        metrics.slots = slot + 1
    return metrics, observed, graph
