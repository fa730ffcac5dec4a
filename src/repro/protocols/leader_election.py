"""Decay-based leader election (the [BGI89] application, Section 2.3).

The paper sketches (and [BGI89] develops) an *emulation*: any protocol
for a single-hop radio network **with** collision detection can run on
an arbitrary multi-hop network **without** collision detection by
replacing each single-hop slot with one execution of Broadcast_scheme —
"someone transmitted" becomes "a broadcast delivered something to me",
"silence" becomes "nothing arrived all epoch".  Willard's single-hop
leader election [W86] then yields multi-hop leader election.

We implement the deterministic-bit-probing instance of that emulation
(binary search over the ID space), which elects the **maximum ID**:

* Time is divided into ``id_bits`` *epochs*, one per ID bit, most
  significant first.  Each epoch lasts ``epoch_len`` slots and hosts
  one complete multi-initiator Broadcast_scheme.
* In epoch ``b``, the *initiators* are the still-standing candidates
  whose ID has bit ``b`` set.  They broadcast the epoch-tagged token
  ``("bit", b)``; every node that receives it relays it with the usual
  Decay phases (this is exactly Broadcast_scheme with several
  initiators and identical messages — the Remark after Theorem 4).
* At the epoch's end every node inspects whether the token arrived:
  if yes, bit ``b`` of the winner is 1 and candidates without it drop
  out; if no, the bit is 0 (and, with probability ≤ ε per epoch, a
  broadcast failure mis-records a bit — the usual randomized guarantee).

After all epochs every node holds the full winner ID, and exactly the
node owning it says "I am the leader".  Leader election inherently
requires spontaneous wake-up, so runs use
``enforce_no_spontaneous=False``.

Time: ``id_bits × epoch_len`` slots, with ``epoch_len`` a Theorem-4
bound — i.e. ``O(log N · (D + log(n/ε)) · log Δ)``.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.bounds import (
    decay_phase_length,
    log2_ceil,
    num_phases,
    theorem4_slot_bound,
)
from repro.core.decay import DecayProcess
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.properties import max_degree as true_max_degree
from repro.sim.engine import Engine, RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["LeaderElectionProgram", "run_leader_election"]

Node = Hashable


class LeaderElectionProgram(NodeProgram):
    """Per-node state machine of the bit-probing leader election."""

    def __init__(
        self,
        my_id: int,
        id_bits: int,
        k: int,
        phases: int,
        epoch_len: int,
        *,
        p_continue: float = 0.5,
    ) -> None:
        if my_id < 0 or my_id >= (1 << id_bits):
            raise ProtocolError(f"ID {my_id} does not fit in {id_bits} bits")
        if epoch_len < k * phases:
            raise ProtocolError("epoch_len must accommodate at least `phases` Decays")
        self.my_id = my_id
        self.id_bits = id_bits
        self.k = k
        self.phases = phases
        self.epoch_len = epoch_len
        self.p_continue = p_continue
        self.candidate = True
        self.winner_bits: list[int] = []
        self._epoch = 0
        self._heard_token = False
        self._initiating = False
        self._relaying = False
        self._phases_done = 0
        self._decay: DecayProcess | None = None
        self._done = False

    # -- epoch bookkeeping ----------------------------------------------

    def _bit_probed(self) -> int:
        """The bit index probed in the current epoch (MSB first)."""
        return self.id_bits - 1 - self._epoch

    def _begin_epoch(self) -> None:
        bit = self._bit_probed()
        self._heard_token = False
        self._relaying = False
        self._phases_done = 0
        self._decay = None
        self._initiating = self.candidate and bool(self.my_id >> bit & 1)
        if self._initiating:
            self._relaying = True  # initiators hold the token from the start

    def _end_epoch(self) -> None:
        token_present = self._heard_token or self._initiating
        bit_value = 1 if token_present else 0
        self.winner_bits.append(bit_value)
        bit = self._bit_probed()
        my_bit = self.my_id >> bit & 1
        if self.candidate and my_bit != bit_value:
            self.candidate = False
        self._epoch += 1
        if self._epoch >= self.id_bits:
            self._done = True
        else:
            self._begin_epoch()

    # -- NodeProgram interface -------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._begin_epoch()

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        slot_in_epoch = ctx.slot % self.epoch_len
        intent = self._epoch_intent(ctx, slot_in_epoch)
        if slot_in_epoch == self.epoch_len - 1:
            self._end_epoch()
        return intent

    def _epoch_intent(self, ctx: Context, slot_in_epoch: int) -> Intent:
        if not self._relaying or self._phases_done >= self.phases:
            return RECEIVE
        if self._decay is None:
            if slot_in_epoch % self.k != 0:
                return RECEIVE  # align Decay starts within the epoch
            self._decay = DecayProcess(
                self.k,
                ("bit", self._bit_probed()),
                ctx.rng,
                p_continue=self.p_continue,
            )
        transmit = self._decay.wants_transmit()
        if slot_in_epoch % self.k == self.k - 1:
            self._decay = None
            self._phases_done += 1
        return Transmit(("bit", self._bit_probed())) if transmit else RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if isinstance(heard, tuple) and heard and heard[0] == "bit":
            if heard[1] == self._bit_probed():
                self._heard_token = True
                if not self._relaying:
                    self._relaying = True  # join the epoch's broadcast

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def result(self) -> dict[str, Any]:
        winner = 0
        for bit_value in self.winner_bits:
            winner = winner << 1 | bit_value
        return {
            "winner_id": winner if self._done else None,
            "is_leader": self._done and winner == self.my_id,
        }


def run_leader_election(
    graph: Graph,
    *,
    seed: int = 0,
    epsilon: float = 0.1,
    diameter_bound: int | None = None,
    id_bits: int | None = None,
    max_degree_bound: int | None = None,
) -> RunResult:
    """Elect the maximum integer node ID of ``graph``.

    ``diameter_bound`` defaults to the graph's true diameter (a real
    deployment would use a known bound; complexity is linear in it).
    """
    nodes = graph.nodes
    if not all(isinstance(node, int) and node >= 0 for node in nodes):
        raise ProtocolError("leader election requires non-negative integer IDs")
    from repro.graphs.properties import diameter as true_diameter

    n = graph.num_nodes()
    d_bound = diameter_bound if diameter_bound is not None else true_diameter(graph)
    delta = max_degree_bound if max_degree_bound is not None else max(1, true_max_degree(graph))
    bits = id_bits if id_bits is not None else max(1, log2_ceil(max(nodes) + 1))
    k = decay_phase_length(delta)
    # Per-epoch failure budget: epsilon / id_bits so the whole election
    # succeeds with probability >= 1 - epsilon (union bound over epochs).
    per_epoch_eps = epsilon / bits
    phases = num_phases(n, per_epoch_eps)
    slot_bound = theorem4_slot_bound(n, d_bound, delta, per_epoch_eps)
    # Round the epoch up to whole Decay phases and give every node room
    # to finish its own `phases` Decays after being informed late.
    epoch_len = -(-max(slot_bound, k * phases * 2) // k) * k
    programs = {
        node: LeaderElectionProgram(node, bits, k, phases, epoch_len)
        for node in nodes
    }
    engine = Engine(
        graph,
        programs,
        seed=seed,
        initiators=frozenset(nodes),  # spontaneous wake-up is inherent to LE
        enforce_no_spontaneous=False,
    )
    return engine.run(bits * epoch_len)
