"""Randomized Breadth-First Search via Decay (paper Section 2.3).

Goal: *given a root r, mark all nodes v by dist(r, v)*.

The plain Broadcast_scheme's reception times have too much variance to
read distances off them, so the paper slows broadcast down to progress
"layer by layer": time is divided into **superphases** of
``k·L`` slots, where ``k = 2⌈log Δ⌉`` is the Decay duration and
``L = ⌈log(N/ε)⌉``.  A node that first receives the message during
superphase ``i`` sets ``Distance := i + 1``, waits for the start of
superphase ``i + 1``, then executes ``L`` consecutive Decay calls
(filling that one superphase) and stops.  The root does the same in
superphase 0.

Correctness sketch (the paper's Lemma-2 argument): all nodes of layer
``j`` that labelled correctly transmit throughout superphase ``j``;
a layer-``j+1`` node therefore sees ``L`` independent Decay phases,
each delivering with probability ≥ 1/2 (Theorem 1(ii)), so it fails to
receive within superphase ``j`` with probability ≤ 2^(−L) ≤ ε/N; a
union bound gives all labels correct with probability ≥ 1 − ε, in
``2·D·⌈log Δ⌉·⌈log(N/ε)⌉`` slots.

*Note on the PODC pseudocode*: the preliminary version's loop reads
"do ⌈log(N/ε)⌉ times { Wait until (Time mod k⌈log(N/ε)⌉) = 0;
Decay(k, m) }", which — taken literally — runs a single Decay per
superphase and cannot achieve the stated ε-dependence (one Decay fails
with probability up to 1/2).  We implement the reading consistent with
the paper's own analysis and stated time bound: *all* ``L`` Decays are
packed into the one superphase following reception.  This is also the
formulation of the journal version.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.bounds import decay_phase_length, m_epsilon
from repro.core.decay import DecayProcess
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.engine import RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit
from repro.protocols.base import run_broadcast
from repro.telemetry.core import phase as _phase_marker

__all__ = ["DecayBFSProgram", "make_bfs_programs", "run_bfs"]

Node = Hashable


class DecayBFSProgram(NodeProgram):
    """Per-node state machine for the Decay-based BFS.

    Parameters
    ----------
    k:
        Decay duration in slots (``2⌈log Δ⌉``).
    decays_per_superphase:
        The paper's ``L = ⌈log(N/ε)⌉``.
    is_root:
        The root knows the message from the start, labels itself 0,
        and transmits throughout superphase 0.
    """

    def __init__(
        self,
        k: int,
        decays_per_superphase: int,
        *,
        is_root: bool = False,
        message: Any = "bfs",
        p_continue: float = 0.5,
    ) -> None:
        if k < 1 or decays_per_superphase < 1:
            raise ProtocolError("k and decays_per_superphase must be >= 1")
        self.k = k
        self.decays = decays_per_superphase
        self.superphase_len = k * decays_per_superphase
        self.p_continue = p_continue
        self.distance: int | None = 0 if is_root else None
        self.message: Any = message if is_root else None
        self._transmit_superphase: int | None = 0 if is_root else None
        self._decay: DecayProcess | None = None
        self._decays_done = 0
        self._done = False

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        if self.message is None:
            return RECEIVE
        current_superphase = ctx.slot // self.superphase_len
        if current_superphase < self._transmit_superphase:
            return RECEIVE  # wait for our superphase to begin
        if self._decay is None:
            self._decay = DecayProcess(
                self.k, self.message, ctx.rng, p_continue=self.p_continue
            )
        transmit = self._decay.wants_transmit()
        # Decay boundaries within the superphase are fixed: the d-th
        # Decay occupies slots [d*k, (d+1)*k) of the superphase.
        slot_in_superphase = ctx.slot % self.superphase_len
        if slot_in_superphase % self.k == self.k - 1:
            self._decay = None
            self._decays_done += 1
            # Telemetry only (labels never feed back into behaviour).
            _phase_marker(
                "decay-bfs",
                node=ctx.node,
                index=self._decays_done - 1,
                slot=ctx.slot,
                start_slot=ctx.slot - self.k + 1,
                layer=self.distance,
                k=self.k,
            )
            if self._decays_done >= self.decays:
                self._done = True
        return Transmit(self.message) if transmit else RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if self.message is None:
            self.message = heard
            self.distance = ctx.slot // self.superphase_len + 1
            self._transmit_superphase = ctx.slot // self.superphase_len + 1
            # BFS layer marker: this node just labelled itself.
            _phase_marker(
                "bfs-layer",
                node=ctx.node,
                index=self.distance,
                slot=ctx.slot,
                superphase_len=self.superphase_len,
            )

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def result(self) -> int | None:
        """The computed distance label (``None`` if never informed)."""
        return self.distance


def make_bfs_programs(
    graph: Graph,
    root: Node,
    *,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
    epsilon: float = 0.1,
    message: Any = "bfs",
    p_continue: float = 0.5,
) -> tuple[dict[Node, DecayBFSProgram], dict[str, int]]:
    """Build one BFS program per node; returns programs and parameters."""
    from repro.graphs.properties import max_degree as true_max_degree

    n = graph.num_nodes()
    big_n = upper_bound_n if upper_bound_n is not None else n
    if big_n < n:
        raise ProtocolError(f"upper bound N={big_n} is below the true n={n}")
    delta = max_degree_bound if max_degree_bound is not None else max(1, true_max_degree(graph))
    k = decay_phase_length(delta)
    decays = m_epsilon(big_n, epsilon)
    programs = {
        node: DecayBFSProgram(
            k,
            decays,
            is_root=(node == root),
            message=message,
            p_continue=p_continue,
        )
        for node in graph.nodes
    }
    return programs, {"k": k, "decays_per_superphase": decays, "superphase_len": k * decays}


def run_bfs(
    graph: Graph,
    root: Node,
    *,
    seed: int = 0,
    epsilon: float = 0.1,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
    max_slots: int | None = None,
    record_trace: bool = False,
) -> RunResult:
    """Run the Decay-BFS from ``root``; labels are in ``node_results()``."""
    programs, params = make_bfs_programs(
        graph,
        root,
        upper_bound_n=upper_bound_n,
        max_degree_bound=max_degree_bound,
        epsilon=epsilon,
    )
    if max_slots is None:
        # At most n superphases can ever carry activity.
        max_slots = max(1, graph.num_nodes() * params["superphase_len"])

    def quiescent(engine) -> bool:
        return all(
            prog._done or prog.message is None for prog in engine.programs.values()
        )

    return run_broadcast(
        graph,
        programs,
        initiators={root},
        max_slots=max_slots,
        seed=seed,
        stop="terminated",
        record_trace=record_trace,
        extra_stop=quiescent,
    )
