"""The paper's randomized Broadcast protocol (Section 2.2).

Pseudocode, executed by every processor::

    procedure Broadcast;
        k := 2⌈log Δ⌉;
        t := ⌈2·log(N/ε)⌉;
        Wait until receiving a message, say m;
        do t times
            Wait until (Time mod k) = 0;
            Decay(k, m);
        od

The *Broadcast_scheme* augments this with an initiation assumption: at
Time 0 one (or more — see the Remark after Theorem 4) processor already
holds the message.  We realise initiation by constructing the source's
program with ``initial_message=...``; since slot 0 is a phase boundary,
the source's first Decay transmission *is* the paper's "source
transmits an initial message at time-slot 0".

Key properties preserved from the paper:

* **ID-obliviousness** — the program never reads ``ctx.node`` or
  ``ctx.neighbor_ids``; only the common clock, its private coins, and
  its own observations drive it.  (A test asserts behavioural
  invariance under ID relabelling.)
* **Phase alignment** — every Decay starts at a slot ≡ 0 (mod k), so
  all transmitters of a phase start together, as Theorem 1 requires.
  ``align_phases=False`` gives the free-running ablation variant.
* **Constant local work per slot** — one coin flip and counter
  arithmetic.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

from repro.core.bounds import decay_phase_length, num_phases
from repro.core.decay import DecayProcess
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.sim.engine import RunResult
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit
from repro.protocols.base import run_broadcast
from repro.telemetry.core import phase as _phase_marker

__all__ = ["DecayBroadcastProgram", "make_broadcast_programs", "run_decay_broadcast"]

Node = Hashable


class DecayBroadcastProgram(NodeProgram):
    """Per-node state machine for ``procedure Broadcast``.

    Parameters
    ----------
    k:
        Slots per Decay call (``2⌈log Δ⌉``).
    phases:
        Number of Decay calls once informed (the paper's ``t``).
    initial_message:
        If not ``None``, this node starts informed (it is the source,
        or one of several simultaneous initiators).
    p_continue:
        Decay coin bias (paper: 0.5; E8 ablation knob).
    align_phases:
        If True (paper), wait for ``Time mod k == 0`` before each
        Decay; if False, start Decay calls back-to-back immediately
        upon being informed (ablation).
    """

    def __init__(
        self,
        k: int,
        phases: int,
        *,
        initial_message: Any = None,
        p_continue: float = 0.5,
        align_phases: bool = True,
    ) -> None:
        if k < 1:
            raise ProtocolError("k must be >= 1")
        if phases < 1:
            raise ProtocolError("phases must be >= 1")
        self.k = k
        self.phases = phases
        self.p_continue = p_continue
        self.align_phases = align_phases
        self.message: Any = initial_message
        self.informed_at_slot: int | None = -1 if initial_message is not None else None
        self._phases_done = 0
        self._decay: DecayProcess | None = None
        self._decay_started_at = 0
        self._done = False

    # -- NodeProgram interface ------------------------------------------

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        if self.message is None:
            return RECEIVE  # Wait until receiving a message
        if self._decay is None:
            if self.align_phases and ctx.slot % self.k != 0:
                return RECEIVE  # Wait until (Time mod k) = 0
            self._decay = DecayProcess(
                self.k, self.message, ctx.rng, p_continue=self.p_continue
            )
            self._decay_started_at = ctx.slot
        if self._decay.wants_transmit():
            intent: Intent = Transmit(self.message)
        else:
            intent = RECEIVE
        if self._phase_elapsed(ctx.slot):
            self._finish_phase(ctx)
        return intent

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if self.message is None:
            self.message = heard
            self.informed_at_slot = ctx.slot

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def wake(self, ctx: Context) -> int | None:
        """Uninformed: when a message arrives; waiting for a phase
        boundary: the next multiple of ``k``; mid-phase with the coin
        still going: the next slot; mid-phase once the coin stopped:
        the phase's last slot, where it must finish the phase (until
        then it draws nothing and only listens); done: the next slot."""
        if self.message is None:
            return None
        decay = self._decay
        if decay is None:
            if self.align_phases and not self._done:
                return ctx.slot + self.k - ctx.slot % self.k
        elif not decay.active:
            return self._decay_started_at + self.k - 1
        return ctx.slot + 1

    def result(self) -> Any:
        return {
            "informed": self.message is not None,
            "informed_at_slot": self.informed_at_slot,
            "phases_executed": self._phases_done,
            "message": self.message,
        }

    # -- internals --------------------------------------------------------

    def _phase_elapsed(self, slot: int) -> bool:
        """True when the current slot is the last of the running phase."""
        return slot - self._decay_started_at >= self.k - 1

    def _finish_phase(self, ctx: Context) -> None:
        # Telemetry only: the phase marker reads ctx.node for labelling
        # but never feeds back into behaviour, so ID-obliviousness of
        # the *protocol* is intact (the relabelling test still holds).
        _phase_marker(
            "decay-broadcast",
            node=ctx.node,
            index=self._phases_done,
            slot=ctx.slot,
            start_slot=self._decay_started_at,
            k=self.k,
            phases=self.phases,
        )
        self._decay = None
        self._phases_done += 1
        if self._phases_done >= self.phases:
            self._done = True


def make_broadcast_programs(
    graph: Graph,
    initiators: Mapping[Node, Any] | set[Node] | frozenset[Node],
    *,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
    epsilon: float = 0.1,
    message: Any = "m",
    p_continue: float = 0.5,
    align_phases: bool = True,
    phase_multiplier: float = 2.0,
) -> tuple[dict[Node, DecayBroadcastProgram], dict[str, int]]:
    """Build one :class:`DecayBroadcastProgram` per node of ``graph``.

    ``initiators`` is either a set of nodes (all get ``message``) or a
    mapping node → initial message (the arbitrary-messages Remark).
    ``upper_bound_n`` is the paper's ``N`` (defaults to the true ``n``)
    and ``max_degree_bound`` its ``Δ`` (defaults to the true maximum
    degree).  Returns the programs plus the derived parameters
    ``{"k": ..., "phases": ...}`` for bound computations.
    """
    from repro.graphs.properties import max_degree as true_max_degree

    n = graph.num_nodes()
    big_n = upper_bound_n if upper_bound_n is not None else n
    if big_n < n:
        raise ProtocolError(f"upper bound N={big_n} is below the true n={n}")
    delta = max_degree_bound if max_degree_bound is not None else max(1, true_max_degree(graph))
    k = decay_phase_length(delta)
    phases = num_phases(big_n, epsilon, multiplier=phase_multiplier)
    if isinstance(initiators, (set, frozenset)):
        init_map: dict[Node, Any] = {node: message for node in initiators}
    else:
        init_map = dict(initiators)
    programs = {
        node: DecayBroadcastProgram(
            k,
            phases,
            initial_message=init_map.get(node),
            p_continue=p_continue,
            align_phases=align_phases,
        )
        for node in graph.nodes
    }
    return programs, {"k": k, "phases": phases}


def run_decay_broadcast(
    graph: Graph,
    source: Node,
    *,
    seed: int = 0,
    epsilon: float = 0.1,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
    max_slots: int | None = None,
    message: Any = "m",
    p_continue: float = 0.5,
    align_phases: bool = True,
    phase_multiplier: float = 2.0,
    stop: str = "informed",
    record_trace: bool = False,
    record_provenance: bool = False,
    faults=None,
) -> RunResult:
    """One-call runner for the paper's Broadcast_scheme from ``source``.

    ``max_slots`` defaults to a generous multiple of the Theorem 4
    bound so that failed runs terminate; completion is read off the
    returned :class:`~repro.sim.engine.RunResult`.
    """
    programs, params = make_broadcast_programs(
        graph,
        {source: message},
        upper_bound_n=upper_bound_n,
        max_degree_bound=max_degree_bound,
        epsilon=epsilon,
        p_continue=p_continue,
        align_phases=align_phases,
        phase_multiplier=phase_multiplier,
    )
    if max_slots is None:
        # Hard cap; in practice runs end at quiescence (below) long before.
        max_slots = max(1, graph.num_nodes() * params["phases"] * params["k"])

    def quiescent(engine) -> bool:
        # Once every informed node has exhausted its phases, no further
        # transmission can ever occur: the run's outcome is decided.
        return all(
            prog._done or prog.message is None
            for prog in engine.programs.values()
        )

    return run_broadcast(
        graph,
        programs,
        initiators={source},
        max_slots=max_slots,
        seed=seed,
        stop=stop,  # type: ignore[arg-type]
        record_trace=record_trace,
        record_provenance=record_provenance,
        faults=faults,
        extra_stop=quiescent,
    )
