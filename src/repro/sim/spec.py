"""Definition 1 as an executable spec: one slot, straight from the rules.

:func:`resolve_slot` applies the model's rules to one slot with no
caches and no fast paths, and :func:`run` drives programs slot by slot
with it.  The spec has no faults, traces or telemetry; on the inputs it
accepts, :class:`~repro.sim.engine.Engine` must produce the same
observations and the same :class:`~repro.sim.metrics.RunMetrics`, in
either of its slot loops.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

from repro import rng as rng_mod
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.metrics import RunMetrics
from repro.sim.node import Context, Idle, NodeProgram, Receive, Transmit

__all__ = ["resolve_slot", "run"]

Node = Hashable


def resolve_slot(
    graph: Graph,
    intents: Mapping[Node, Any],
    *,
    informed: set[Node] | frozenset[Node],
    slot: int = 0,
    enforce_no_spontaneous: bool = True,
    detects_collisions: bool = False,
) -> dict[Node, tuple[Any, list[Node]]]:
    """What each receiver observes this slot, and whom it could hear.

    ``intents`` holds the intent of every processor that acts this slot
    (rule 2); ``informed`` holds the initiators and every node delivered
    a message before this slot (rule 5).  Returns, per receiver, its
    observation and its transmitting neighbours (rule 3).
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
        heard = [u for u in graph.audible(node) if isinstance(intents.get(u), Transmit)]
        if len(heard) == 1:
            outcome[node] = (intents[heard[0]].message, heard)
        elif len(heard) > 1 and detects_collisions:
            outcome[node] = (COLLISION, heard)
        else:
            outcome[node] = (SILENCE, heard)
    return outcome


def run(
    graph: Graph,
    programs: Mapping[Node, NodeProgram],
    max_slots: int,
    *,
    seed: int = 0,
    initiators: set[Node] | frozenset[Node] = frozenset(),
    enforce_no_spontaneous: bool = True,
    detects_collisions: bool = False,
) -> tuple[RunMetrics, list[dict[Node, Any]]]:
    """Run ``programs`` until all are done or ``max_slots`` pass (rules 1, 4, 6).

    Returns the metrics and, per slot, each receiver's observation.
    """
    contexts = {
        node: Context(node, graph.neighbors(node), rng_mod.spawn_for_node(seed, node))
        for node in graph.nodes
    }
    for node, program in programs.items():
        program.on_start(contexts[node])
    metrics = RunMetrics()
    informed = set(initiators)
    observed: list[dict[Node, Any]] = []
    for slot in range(max_slots):
        for ctx in contexts.values():
            ctx.slot = slot
        live = [node for node in graph.nodes if not programs[node].is_done(contexts[node])]
        if not live:
            break
        intents = {node: programs[node].act(contexts[node]) for node in live}
        outcome = resolve_slot(
            graph,
            intents,
            informed=informed,
            slot=slot,
            enforce_no_spontaneous=enforce_no_spontaneous,
            detects_collisions=detects_collisions,
        )
        for node, intent in intents.items():
            if isinstance(intent, Transmit):
                metrics.note_transmission(node)
        for node, (observation, heard) in outcome.items():
            if len(heard) == 1:
                metrics.note_delivery(node, slot)
                informed.add(node)
            elif len(heard) > 1:
                metrics.note_collision(node)
        for node, (observation, _heard) in outcome.items():
            programs[node].on_observe(contexts[node], observation)
        observed.append({node: observation for node, (observation, _) in outcome.items()})
        metrics.slots = slot + 1
    return metrics, observed
