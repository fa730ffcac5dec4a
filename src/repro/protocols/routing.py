"""Point-to-point routing via Decay (the second [BII89] application).

The paper closes Section 2.3 noting that "*Decay plays a central role
in the efficient protocols for the broadcast and point-to-point routing
of messages in multi-hop radio networks presented in [BII89]*".  This
module implements that routing pattern on our substrate:

1. **Route discovery** — run the Decay-BFS of Section 2.3 *from the
   destination*, so every node learns its hop distance *to* the target
   (:func:`run_routing` does this with
   :func:`repro.protocols.decay_bfs.run_bfs` and hands each node its
   label).
2. **Forwarding** — the message travels as a shrinking wavefront: it
   carries a hop counter ``h`` (initially the source's label); in each
   forwarding phase, exactly the current wavefront (nodes with label
   ``h`` holding the message) runs one superphase of Decay transmitting
   ``(msg, h - 1)``; only nodes with label ``h − 1`` adopt it.  After
   ``h`` superphases the destination holds the message.

Unlike broadcast, nodes off the shortest-path "beam" never adopt or
relay — the transmission cost is confined to the beam (measured by the
tests), which is the point of routing versus flooding.

Time: ``dist(s, t)`` forwarding superphases of
``2⌈log Δ⌉·⌈log(N/ε)⌉`` slots each, after the one-off BFS; failure
probability ≤ ε per phase by the usual Theorem-1 argument (each
wavefront node repeats Decay ``⌈log(N/ε)⌉`` times per superphase).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.bounds import decay_phase_length, m_epsilon
from repro.core.decay import DecayProcess
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.properties import max_degree as true_max_degree
from repro.protocols.base import ordered_nodes
from repro.sim.engine import Engine, RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["RoutingProgram", "run_routing"]

Node = Hashable


class RoutingProgram(NodeProgram):
    """Wavefront forwarding along precomputed distance-to-target labels.

    Parameters
    ----------
    label:
        This node's hop distance to the destination (from the BFS), or
        ``None`` if the discovery failed to label it (it then only
        listens).
    k, decays_per_superphase:
        The Decay geometry, as in :mod:`repro.protocols.decay_bfs`.
    payload:
        Non-None exactly at the source, which starts holding the
        message.
    """

    def __init__(
        self,
        label: int | None,
        k: int,
        decays_per_superphase: int,
        *,
        payload: Any = None,
        p_continue: float = 0.5,
    ) -> None:
        if k < 1 or decays_per_superphase < 1:
            raise ProtocolError("k and decays_per_superphase must be >= 1")
        self.label = label
        self.k = k
        self.decays = decays_per_superphase
        self.superphase_len = k * decays_per_superphase
        self.p_continue = p_continue
        self.payload: Any = payload
        self.received_at_slot: int | None = 0 if payload is not None else None
        self._forward_superphase: int | None = 0 if payload is not None else None
        self._decay: DecayProcess | None = None
        self._decays_done = 0
        self._done = False

    def act(self, ctx: Context) -> Intent:
        if self._done or self.label is None:
            return RECEIVE if not self._done else IDLE
        if self.label == 0:
            # The destination never forwards; it is done on reception.
            return RECEIVE
        if self.payload is None:
            return RECEIVE
        superphase = ctx.slot // self.superphase_len
        if superphase < self._forward_superphase:
            return RECEIVE
        if superphase > self._forward_superphase:
            self._done = True  # our forwarding window has passed
            return IDLE
        if self._decay is None:
            self._decay = DecayProcess(
                self.k,
                ("route", self.label - 1, self.payload),
                ctx.rng,
                p_continue=self.p_continue,
            )
        transmit = self._decay.wants_transmit()
        if ctx.slot % self.k == self.k - 1:
            self._decay = None
            self._decays_done += 1
            if self._decays_done >= self.decays:
                self._done = True
        return (
            Transmit(("route", self.label - 1, self.payload))
            if transmit
            else RECEIVE
        )

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if not (isinstance(heard, tuple) and len(heard) == 3 and heard[0] == "route"):
            return
        _tag, hop, payload = heard
        if self.payload is None and self.label is not None and hop == self.label:
            self.payload = payload
            self.received_at_slot = ctx.slot
            self._forward_superphase = ctx.slot // self.superphase_len + 1

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def result(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "got_message": self.payload is not None,
            "received_at_slot": self.received_at_slot,
        }


def run_routing(
    graph: Graph,
    source: Node,
    target: Node,
    *,
    payload: Any = "packet",
    seed: int = 0,
    epsilon: float = 0.1,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
) -> dict[str, Any]:
    """Route ``payload`` from ``source`` to ``target``.

    Runs the discovery BFS (from ``target``) and then the forwarding
    wave.  Returns a summary dict: delivery flag, slot counts for both
    phases, the beam size (nodes that ever held the message), and the
    per-phase run results for inspection.
    """
    if source == target:
        raise ProtocolError("source and target must differ")
    from repro.protocols.decay_bfs import run_bfs
    from repro.rng import derive_seed

    bfs_result = run_bfs(
        graph,
        target,
        seed=derive_seed(seed, "route-discovery"),
        epsilon=epsilon,
        upper_bound_n=upper_bound_n,
        max_degree_bound=max_degree_bound,
    )
    labels = bfs_result.node_results()
    n = graph.num_nodes()
    big_n = upper_bound_n if upper_bound_n is not None else n
    delta = (
        max_degree_bound
        if max_degree_bound is not None
        else max(1, true_max_degree(graph))
    )
    k = decay_phase_length(delta)
    decays = m_epsilon(big_n, epsilon)
    programs = {
        node: RoutingProgram(
            labels.get(node),
            k,
            decays,
            payload=payload if node == source else None,
        )
        for node in graph.nodes
    }
    engine = Engine(
        graph,
        programs,
        seed=derive_seed(seed, "route-forwarding"),
        initiators=frozenset({source}),
    )
    source_label = labels.get(source)
    max_slots = (
        (source_label + 1) * k * decays if source_label is not None else k * decays
    )

    def delivered(eng: Engine) -> bool:
        return programs[target].payload is not None

    forward_result: RunResult = engine.run(max_slots, stop_when=delivered)
    beam = [
        node
        for node, prog in programs.items()
        if prog.payload is not None
    ]
    return {
        "delivered": programs[target].payload is not None,
        "payload_at_target": programs[target].payload,
        "discovery_slots": bfs_result.slots,
        "forwarding_slots": forward_result.slots,
        "hop_distance": source_label,
        "beam": ordered_nodes(beam),
        "beam_size": len(beam),
        "labels": labels,
    }
