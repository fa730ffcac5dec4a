"""Multi-message broadcast built on Decay (the [BII89] follow-on).

The paper's protocol handles a single message; Bar-Yehuda, Israeli and
Itai [BII89] showed the Decay machinery extends to broadcasting many
messages efficiently.  This module implements that extension in two
modes so the ablation bench (E-extensions) can compare them:

* ``mode="sequential"`` — message ``i`` gets its own private window of
  ``window_phases`` Decay phases; the network broadcasts the messages
  one after another.  Total time ``Θ(j · (D + log(n/ε)) · log Δ)`` for
  ``j`` messages: the diameter cost is paid ``j`` times.
* ``mode="pipelined"`` — the source injects message ``i`` after a gap
  of ``gap_phases`` phases; every node maintains a FIFO of received-
  but-not-yet-relayed messages and relays each for ``relay_phases``
  Decay phases, one message at a time.  Messages travel in a wave
  train; the diameter is paid once, so total time is roughly
  ``Θ((D + j·log(n/ε)) · log Δ)`` — the [BII89] shape.  Different
  messages do contend with each other for slots (that is the point:
  Decay absorbs the contention).

Per-message reception is tracked inside the programs (the engine's
``first_reception`` only records the first delivery of *anything*).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Sequence

from repro.core.bounds import decay_phase_length, num_phases
from repro.core.decay import DecayProcess
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.properties import max_degree as true_max_degree
from repro.sim.engine import Engine, RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["MultiBroadcastProgram", "run_multi_broadcast"]

Node = Hashable


class MultiBroadcastProgram(NodeProgram):
    """Relay a stream of messages with per-message Decay schedules.

    Messages on the air are tuples ``("multi", index, payload)``.  The
    source is constructed with the full payload list and an injection
    schedule (phase at which each message enters its queue); other
    nodes enqueue each *new* message index on first reception.
    """

    def __init__(
        self,
        k: int,
        relay_phases: int,
        *,
        injections: Sequence[tuple[int, int, Any]] = (),
        p_continue: float = 0.5,
    ) -> None:
        if k < 1 or relay_phases < 1:
            raise ProtocolError("k and relay_phases must be >= 1")
        self.k = k
        self.relay_phases = relay_phases
        self.p_continue = p_continue
        # (phase, index, payload), sorted by phase: source-side injections.
        self._injections = deque(sorted(injections))
        self.received_at: dict[int, int] = {}  # message index -> first slot
        self.payloads: dict[int, Any] = {}
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self._current: int | None = None
        self._phases_left = 0
        self._decay: DecayProcess | None = None

    def act(self, ctx: Context) -> Intent:
        phase = ctx.slot // self.k
        boundary = ctx.slot % self.k == 0
        if boundary:
            self._inject_due(phase, ctx.slot)
            self._advance_queue()
            if self._current is not None:
                self._decay = DecayProcess(
                    self.k,
                    ("multi", self._current, self.payloads[self._current]),
                    ctx.rng,
                    p_continue=self.p_continue,
                )
        if self._decay is not None and self._decay.wants_transmit():
            intent: Intent = Transmit(
                ("multi", self._current, self.payloads[self._current])
            )
        else:
            intent = RECEIVE
        if ctx.slot % self.k == self.k - 1:
            self._decay = None
            if self._current is not None:
                self._phases_left -= 1
                if self._phases_left <= 0:
                    self._current = None
        return intent

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if not (isinstance(heard, tuple) and len(heard) == 3 and heard[0] == "multi"):
            return
        _tag, index, payload = heard
        if index not in self.received_at:
            self.received_at[index] = ctx.slot
            self.payloads[index] = payload
            if index not in self._queued:
                self._queue.append(index)
                self._queued.add(index)

    def is_done(self, ctx: Context) -> bool:
        # A node never knows locally whether more messages are coming,
        # so it keeps listening; the harness's stop condition ends runs.
        return False

    def result(self) -> dict[str, Any]:
        return {"received_at": dict(self.received_at)}

    # -- internals --------------------------------------------------------

    def _inject_due(self, phase: int, slot: int) -> None:
        while self._injections and self._injections[0][0] <= phase:
            _phase, index, payload = self._injections.popleft()
            self.payloads[index] = payload
            self.received_at.setdefault(index, slot)
            if index not in self._queued:
                self._queue.append(index)
                self._queued.add(index)

    def _advance_queue(self) -> None:
        if self._current is None and self._queue:
            self._current = self._queue.popleft()
            self._phases_left = self.relay_phases


def run_multi_broadcast(
    graph: Graph,
    source: Node,
    payloads: Sequence[Any],
    *,
    mode: str = "pipelined",
    seed: int = 0,
    epsilon: float = 0.1,
    gap_phases: int | None = None,
    max_degree_bound: int | None = None,
    max_slots: int | None = None,
) -> RunResult:
    """Broadcast ``payloads`` from ``source``; see module docs for modes."""
    if mode not in {"sequential", "pipelined"}:
        raise ProtocolError(f"unknown mode {mode!r}")
    if not payloads:
        raise ProtocolError("need at least one payload")
    from repro.core.bounds import t_epsilon
    from repro.graphs.properties import diameter as true_diameter

    n = graph.num_nodes()
    d = true_diameter(graph)
    delta = max_degree_bound if max_degree_bound is not None else max(1, true_max_degree(graph))
    k = decay_phase_length(delta)
    relay_phases = num_phases(n, epsilon)
    if mode == "sequential":
        # One full single-message broadcast (Lemma 3's phase bound, plus
        # the relays' own tail) completes before the next message starts.
        gap = t_epsilon(n, d, epsilon) + relay_phases
    else:
        gap = gap_phases if gap_phases is not None else relay_phases
    injections = [(i * gap, i, payload) for i, payload in enumerate(payloads)]
    programs = {
        node: MultiBroadcastProgram(
            k,
            relay_phases,
            injections=injections if node == source else (),
        )
        for node in graph.nodes
    }
    if max_slots is None:
        from repro.core.bounds import t_epsilon as _t_eps

        tail = _t_eps(n, d, epsilon) + relay_phases
        max_slots = k * (len(payloads) * (gap + tail) + tail) * 4

    def all_received(engine: Engine) -> bool:
        want = len(payloads)
        return all(
            len(prog.received_at) >= want for prog in engine.programs.values()
        )

    engine = Engine(
        graph,
        programs,
        seed=seed,
        initiators=frozenset({source}),
    )
    return engine.run(max_slots, stop_when=all_received)
