"""The epoch-based emulation of a single-hop CD channel.

One emulated channel round = ``id_bits + 2`` *sub-epochs*, each hosting
one multi-initiator Broadcast_scheme over the (arbitrary, no-CD)
network:

1. **data** — the round's transmitters initiate broadcasts of their
   (station-tagged) messages; every node relays the first one it
   receives and ends the sub-epoch *holding* at most one message.
2. **arbitration** (× ``id_bits``) — the transmitting stations bit-probe
   their station IDs, most significant bit first, exactly as in
   Willard-style election: in the sub-epoch for bit ``b``, still-standing
   transmitters with bit ``b`` set initiate the identical token; every
   node relays; "heard the token" decodes bit 1.  After all bits,
   **every node** knows the maximum transmitter ID (or that there was
   none).
3. **conflict** — every transmitter whose ID lost the arbitration knows
   the round had ≥ 2 transmitters; the losers initiate the identical
   conflict token, which reaches everyone w.h.p.

Feedback assembly at each node: conflict token seen → **collision**;
else data held (and consistent with the arbitration winner) →
**message**; else nothing happened anywhere → **silence** (this case is
deterministic: zero transmitters means zero transmissions in every
sub-epoch).  Each sub-epoch succeeds with probability ≥ 1 − ε′ by
Theorem 4 (multi-initiator Remark), so a union bound over sub-epochs
gives the per-round guarantee; failures show up as wrong feedback with
probability ≤ ε per round, which is the [BGI89] contract.

Overhead per emulated round: ``(id_bits + 2) · O((D + log n/ε)·log Δ)``
slots — the polylogarithmic emulation factor.
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
from repro.graphs.properties import diameter as true_diameter
from repro.graphs.properties import max_degree as true_max_degree
from repro.sim.engine import Engine, RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit
from repro.emulation.singlehop import ChannelFeedback, SingleHopProtocol

__all__ = ["EmulatedChannelProgram", "run_emulated"]

Node = Hashable


class _EpochBroadcaster:
    """One sub-epoch's worth of Broadcast_scheme relaying for one node."""

    def __init__(self, k: int, phases: int, p_continue: float) -> None:
        self.k = k
        self.phases = phases
        self.p_continue = p_continue
        self.message: Any = None
        self._decay: DecayProcess | None = None
        self._phases_done = 0

    def begin(self, message: Any = None) -> None:
        """Start a sub-epoch; ``message`` non-None makes us an initiator."""
        self.message = message
        self._decay = None
        self._phases_done = 0

    def note_received(self, message: Any) -> None:
        """Join the relay once the sub-epoch's token arrives."""
        if self.message is None:
            self.message = message

    def intent(self, slot_in_subepoch: int, rng) -> Intent:
        if self.message is None or self._phases_done >= self.phases:
            return RECEIVE
        if self._decay is None:
            if slot_in_subepoch % self.k != 0:
                return RECEIVE
            self._decay = DecayProcess(
                self.k, self.message, rng, p_continue=self.p_continue
            )
        transmit = self._decay.wants_transmit()
        if slot_in_subepoch % self.k == self.k - 1:
            self._decay = None
            self._phases_done += 1
        return Transmit(self.message) if transmit else RECEIVE


class EmulatedChannelProgram(NodeProgram):
    """Runs one station's :class:`SingleHopProtocol` over the emulation."""

    def __init__(
        self,
        protocol: SingleHopProtocol,
        *,
        k: int,
        phases: int,
        subepoch_len: int,
        id_bits: int,
        max_rounds: int,
        p_continue: float = 0.5,
    ) -> None:
        if subepoch_len < k * phases:
            raise ProtocolError("subepoch_len must fit `phases` aligned Decays")
        self.protocol = protocol
        self.k = k
        self.phases = phases
        self.subepoch_len = subepoch_len
        self.id_bits = id_bits
        self.max_rounds = max_rounds
        self.subepochs_per_round = id_bits + 2  # data, arb x bits, conflict
        self.round_len = self.subepochs_per_round * subepoch_len
        self._caster = _EpochBroadcaster(k, phases, p_continue)
        self._round = 0
        self._done = False
        # Per-round state:
        self._held: tuple[int, Any] | None = None  # (station, payload)
        self._i_transmitted = False
        self._arb_prefix: list[int] = []
        self._arb_candidate = False
        self._conflict = False
        self._begin_round()

    # -- round / sub-epoch transitions ---------------------------------

    def _begin_round(self) -> None:
        if self._round >= self.max_rounds or self.protocol.is_done(self._round):
            self._done = True
            return
        payload = self.protocol.round_message(self._round)
        self._i_transmitted = payload is not None
        self._held = (
            (self._station_id(), payload) if self._i_transmitted else None
        )
        self._arb_prefix = []
        self._arb_candidate = self._i_transmitted
        self._conflict = False
        self._caster.begin(
            ("data", self._round, self._station_id(), payload)
            if self._i_transmitted
            else None
        )

    def _station_id(self) -> int:
        station = self.protocol.station
        if not isinstance(station, int) or station < 0:
            raise ProtocolError("emulation requires non-negative integer station IDs")
        return station

    def _begin_subepoch(self, index: int) -> None:
        if 1 <= index <= self.id_bits:
            bit = self.id_bits - index  # MSB first
            initiate = self._arb_candidate and bool(self._station_id() >> bit & 1)
            self._caster.begin(("arb", self._round, bit) if initiate else None)
        elif index == self.id_bits + 1:
            winner = self._arb_winner()
            lost = (
                self._i_transmitted
                and winner is not None
                and winner != self._station_id()
            )
            self._caster.begin(("conflict", self._round) if lost else None)

    def _end_subepoch(self, index: int) -> None:
        if 1 <= index <= self.id_bits:
            bit = self.id_bits - index
            token_present = self._caster.message is not None
            self._arb_prefix.append(1 if token_present else 0)
            if self._arb_candidate and token_present:
                if not (self._station_id() >> bit & 1):
                    self._arb_candidate = False
        elif index == self.id_bits + 1:
            if self._caster.message is not None:
                self._conflict = True
            self._finish_round()

    def _arb_winner(self) -> int | None:
        """The arbitration-decoded max transmitter ID (None if silence)."""
        if not any(self._arb_prefix) and self._held is None:
            return None
        value = 0
        for bit_value in self._arb_prefix:
            value = value << 1 | bit_value
        if not any(self._arb_prefix):
            # No arbitration token at all: at most one transmitter; its
            # identity is whatever data we hold.
            return self._held[0] if self._held else None
        return value

    def _finish_round(self) -> None:
        feedback = self._assemble_feedback()
        self.protocol.on_feedback(self._round, feedback)
        self._round += 1
        self._begin_round()

    def _assemble_feedback(self) -> ChannelFeedback:
        if self._conflict:
            return ChannelFeedback("collision")
        if self._held is not None:
            winner = self._arb_winner()
            if winner is not None and winner != self._held[0]:
                # Inconsistent evidence: a broadcast failed somewhere.
                return ChannelFeedback("collision")
            return ChannelFeedback("message", self._held[1])
        if any(self._arb_prefix):
            # Arbitration heard but no data: the data broadcast failed
            # to reach us; report collision (the conservative error).
            return ChannelFeedback("collision")
        return ChannelFeedback("silence")

    # -- NodeProgram interface -------------------------------------------

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        slot_in_round = ctx.slot % self.round_len
        subepoch = slot_in_round // self.subepoch_len
        slot_in_subepoch = slot_in_round % self.subepoch_len
        if slot_in_subepoch == 0 and subepoch > 0:
            self._end_subepoch(subepoch - 1)
            if self._done:
                return IDLE
            self._begin_subepoch(subepoch)
        intent = self._caster.intent(slot_in_subepoch, ctx.rng)
        if slot_in_round == self.round_len - 1:
            self._end_subepoch(self.subepochs_per_round - 1)
        return intent

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if not (isinstance(heard, tuple) and len(heard) >= 2):
            return
        tag, round_index = heard[0], heard[1]
        if round_index != self._round:
            return  # stale token from a concluded sub-epoch's stragglers
        if tag == "data":
            _tag, _round, station, payload = heard
            if self._held is None:
                self._held = (station, payload)
            self._caster.note_received(heard)
        elif tag in ("arb", "conflict"):
            self._caster.note_received(heard)

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def result(self) -> Any:
        return self.protocol.result()


def run_emulated(
    graph: Graph,
    protocols: dict[Node, SingleHopProtocol],
    max_rounds: int,
    *,
    seed: int = 0,
    epsilon: float = 0.1,
    diameter_bound: int | None = None,
    max_degree_bound: int | None = None,
    id_bits: int | None = None,
) -> RunResult:
    """Run single-hop protocols over ``graph`` via the emulation.

    ``protocols`` must cover every node (every node is both a station
    and a relay).  Returns the engine result; per-station outputs are
    in ``result.node_results()``.
    """
    if set(protocols) != set(graph.nodes):
        raise ProtocolError("protocols must cover exactly the graph's nodes")
    nodes = graph.nodes
    if not all(isinstance(node, int) and node >= 0 for node in nodes):
        raise ProtocolError("emulation requires non-negative integer node IDs")
    n = graph.num_nodes()
    d = diameter_bound if diameter_bound is not None else true_diameter(graph)
    delta = (
        max_degree_bound
        if max_degree_bound is not None
        else max(1, true_max_degree(graph))
    )
    bits = id_bits if id_bits is not None else max(1, log2_ceil(max(nodes) + 1))
    # Budget each sub-epoch's failure at epsilon / (sub-epochs per round).
    per_sub_eps = epsilon / (bits + 2)
    k = decay_phase_length(delta)
    phases = num_phases(n, per_sub_eps)
    slot_bound = theorem4_slot_bound(n, d, delta, per_sub_eps)
    subepoch_len = -(-max(slot_bound, 2 * k * phases) // k) * k
    programs = {
        node: EmulatedChannelProgram(
            protocols[node],
            k=k,
            phases=phases,
            subepoch_len=subepoch_len,
            id_bits=bits,
            max_rounds=max_rounds,
        )
        for node in nodes
    }
    engine = Engine(
        graph,
        programs,
        seed=seed,
        initiators=frozenset(nodes),  # single-hop stations act spontaneously
        enforce_no_spontaneous=False,
    )
    round_len = (bits + 2) * subepoch_len
    return engine.run(max_rounds * round_len)
