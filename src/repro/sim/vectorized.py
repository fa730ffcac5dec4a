"""Vectorized NumPy backend: batched Monte-Carlo broadcast runs.

Where the reference :class:`~repro.sim.engine.Engine` advances one run
one node at a time, this backend advances **many trials of the same
topology simultaneously**, one array operation per slot:

* per-node protocol state (informed flags, Decay counters, ALOHA
  bounds) lives in ``(trials, nodes)`` arrays;
* the slot is resolved with a single matmul — transmit-intent matrix
  ``X`` against the dense audibility matrix from
  :func:`repro.graphs.matrix.adjacency_matrix` gives every receiver's
  audible-transmitter count, and ``delivered`` is the exactly-one mask;
* coin flips come from :class:`~repro.sim.mtstreams.MTStreams`, a bank
  of CPython-compatible Mersenne Twister streams seeded exactly like
  the reference engine's per-node ``random.Random`` instances.

**Parity contract.**  For the protocols implemented here (p-persistent
ALOHA and the paper's Decay Broadcast_scheme), the same trial seeds
produce bit-identical :class:`~repro.sim.metrics.RunMetrics` and node
outcomes as running each seed through the reference engine.  The
parity suite (``tests/sim/test_vectorized_parity``) enforces this, and
holds both batches to :mod:`repro.sim.spec`, the definition of correct,
on random small graphs and seeds.

The backend runs fault-free trials only.  Fault schedules run on the
reference engine, whose fault semantics :mod:`repro.sim.spec` checks;
a second, batched copy bought no wall time on any campaign.

Two deliberate non-goals: traces and causal provenance are not
recorded (``RunResult.trace``/``provenance`` stay ``None`` — use the
reference backend to debug a single run), and Decay's phase markers
are not folded into the trials' ``run_end`` records, so the batched
logs have no phase tables.  Per-trial ``run_begin``/``run_end``
telemetry *is* emitted, with the same run totals as the reference
engine, so the live conformance monitor judges batched campaigns
identically.

This module imports NumPy at module load; gate imports through
:mod:`repro.sim.backends`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.core.bounds import decay_phase_length, num_phases
from repro.core.decay import decay_step
from repro.errors import ProtocolError, SimulationError
from repro.graphs.graph import Graph
from repro.graphs.matrix import adjacency_matrix
from repro.perf import core as _perf_core
from repro.sim.metrics import RunMetrics
from repro.sim.mtstreams import MTStreams
from repro.telemetry.core import get_active

__all__ = [
    "VectorRunResult",
    "AlohaBatch",
    "DecayBroadcastBatch",
    "run_aloha_batch",
    "run_decay_broadcast_batch",
]

Node = Hashable

#: Default stream budget per sub-batch of the convenience runners.  The
#: MT bank holds ~5 KB per stream (state plus one block of doubles) and,
#: during a gather refill, a copy of the refilled streams' state.  One
#: 32k-stream batch (16x16 grid x 128 seeds) peaked at 143 MB RSS for
#: Decay and 203 MB for 400-slot ALOHA, from a 33 MB baseline process.
_STREAM_BUDGET = 32768


def default_batch_size(num_nodes: int) -> int:
    """Trials per sub-batch keeping the stream bank memory bounded."""
    return max(1, _STREAM_BUDGET // max(1, num_nodes))


@dataclass
class VectorRunResult:
    """One trial's outcome, shaped like :class:`~repro.sim.engine.RunResult`.

    Carries the same result surface experiments read — ``slots``,
    ``metrics``, ``node_results()``, ``broadcast_completion_slot`` —
    minus the per-slot ``trace``/``provenance`` recorders (always
    ``None`` here) and the live ``programs`` map (node outcomes are
    pre-extracted into :attr:`outputs`).
    """

    slots: int
    metrics: RunMetrics
    graph: Graph
    outputs: dict[Node, Any] = field(default_factory=dict)
    trace: None = None
    provenance: None = None

    def node_results(self) -> dict[Node, Any]:
        return self.outputs

    def broadcast_completion_slot(self, *, source: Node | None = None) -> int | None:
        skip = frozenset() if source is None else frozenset({source})
        return self.metrics.completion_slot(self.graph.nodes, skip=skip)

    def broadcast_succeeded(self, *, source: Node | None = None) -> bool:
        return self.broadcast_completion_slot(source=source) is not None


class _VectorBatch:
    """Shared slot loop: resolution, metrics, telemetry.

    Subclasses supply the protocol transition (:meth:`_intents`), the
    optional protocol stop condition (:meth:`_quiescent`) and the
    per-node outcome extraction (:meth:`_outputs`).  The loop replays
    the reference engine's per-slot order exactly: stop checks (on the
    previous slot's state), then intents, then resolution.
    """

    protocol = "?"

    def __init__(
        self,
        graph: Graph,
        seeds: Sequence[int],
        *,
        source: Node,
        message: Any,
        max_slots: int,
        stop_informed: bool,
    ) -> None:
        if max_slots < 0:
            raise SimulationError("max_slots must be non-negative")
        if source not in graph:
            raise SimulationError(f"source {source!r} is not in the graph")
        self._g = graph.copy()
        self._seeds = [int(seed) for seed in seeds]
        self._message = message
        self._max_slots = max_slots
        self._stop_informed = stop_informed

        nodes = self._g.nodes
        self._nodes = nodes
        n = len(nodes)
        trials = len(self._seeds)
        self._n = n
        self._trials = trials
        self._source_idx = nodes.index(source)
        self._source = source

        # Per-(trial, node) coin streams, seeded exactly like the
        # reference engine's Context rngs (rng.spawn_for_node).
        self._streams = MTStreams(
            [
                node_seed
                for seed in self._seeds
                for node_seed in rng_mod.derive_node_seeds(seed, nodes)
            ]
        )

        shape = (trials, n)
        self._live = np.ones(trials, dtype=bool)
        self._slots_out = np.zeros(trials, dtype=np.int64)
        self._done = np.zeros(shape, dtype=bool)
        self._informed = np.zeros(shape, dtype=bool)
        self._informed[:, self._source_idx] = True
        self._informed_at = np.zeros(shape, dtype=np.int64)
        self._first_rec = np.full(shape, -1, dtype=np.int64)
        self._init_row = np.zeros(n, dtype=bool)
        self._init_row[self._source_idx] = True

        # Metric accumulators (converted to RunMetrics at the end).
        self._tx = np.zeros(trials, dtype=np.int64)
        self._col = np.zeros(trials, dtype=np.int64)
        self._deliv = np.zeros(trials, dtype=np.int64)
        self._tx_pn = np.zeros(shape, dtype=np.int64)
        self._col_pn = np.zeros(shape, dtype=np.int64)

        self._tel = None
        self._perf = None
        self._run_ids: list[str] = []
        self._t0 = 0.0
        self._ran = False

    # -- protocol hooks -------------------------------------------------

    def _intents(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _quiescent(self) -> np.ndarray | None:
        """Per-trial protocol stop mask (``None``: no extra condition)."""
        return None

    def _outputs(self, trial: int) -> dict[Node, Any]:
        raise NotImplementedError

    # -- the batch loop -------------------------------------------------

    def run(self) -> list[VectorRunResult]:
        """Advance every trial to completion; one result per seed."""
        if self._ran:
            raise SimulationError("a batch can only run once")
        self._ran = True
        self._tel = get_active()
        # Perf attribution: snapshot once, branch on a local per slot —
        # with no session active the loop pays one None check per slot
        # against array ops that each cost orders of magnitude more.
        self._perf = perf = _perf_core.get_active()
        if perf is not None:
            perf.span_push(f"vector.run:{self.protocol}")
        self._t0 = time.perf_counter()
        if self._tel is not None:
            edges = self._g.num_edges()
            for seed in self._seeds:
                self._run_ids.append(
                    self._tel.open_run(
                        nodes=self._n,
                        edges=edges,
                        seed=seed,
                        slot=0,
                        max_slots=self._max_slots,
                        initiators=1,
                        faults={},
                        backend="numpy",
                    )
                )
        live = self._live
        slot = 0
        while slot < self._max_slots and live.any():
            stop = self._stop_mask()
            if stop is not None:
                self._retire(live & stop, slot)
                if not live.any():
                    break
            self._retire(live & self._done.all(axis=1), slot)
            if not live.any():
                break
            if perf is not None:
                perf.span_push("vector.intents")
            transmit, receiver = self._intents(slot)
            if perf is not None:
                perf.span_pop()
                perf.span_push("resolve.kernel")
            self._resolve(slot, transmit, receiver)
            if perf is not None:
                perf.span_pop()
            slot += 1
        self._retire(live.copy(), slot)
        if perf is not None:
            perf.span_pop()  # vector.run
        return [self._result(trial) for trial in range(self._trials)]

    # -- stop conditions ------------------------------------------------

    def _stop_mask(self) -> np.ndarray | None:
        informed = None
        if self._stop_informed:
            reached = (self._first_rec >= 0) | self._init_row
            informed = reached.sum(axis=1) >= self._n
        extra = self._quiescent()
        if informed is None:
            return extra
        if extra is None:
            return informed
        return informed | extra

    def _eligible(self) -> np.ndarray:
        """Nodes whose program acts this slot (per live trial)."""
        return ~self._done & self._live[:, None]

    # -- slot resolution ------------------------------------------------

    def _resolve(self, slot: int, transmit: np.ndarray, receiver: np.ndarray) -> None:
        self._tx += transmit.sum(axis=1)
        self._tx_pn += transmit
        counts = transmit.astype(np.float32) @ adjacency_matrix(self._g).hears
        delivered = receiver & (counts == 1.0)
        collided = receiver & (counts >= 2.0)
        self._deliv += delivered.sum(axis=1)
        self._col += collided.sum(axis=1)
        self._col_pn += collided
        newly_received = delivered & (self._first_rec < 0)
        self._first_rec[newly_received] = slot
        newly_informed = delivered & ~self._informed
        if newly_informed.any():
            self._informed |= delivered
            self._informed_at[newly_informed] = slot

    # -- retirement and results -----------------------------------------

    def _retire(self, mask: np.ndarray, slot: int) -> None:
        trials = np.flatnonzero(mask)
        if not trials.size:
            return
        self._live[trials] = False
        self._slots_out[trials] = slot
        if self._tel is not None:
            wall = time.perf_counter() - self._t0
            for trial in trials:
                self._close_run(int(trial), slot, wall)

    def _close_run(self, trial: int, slot: int, wall: float) -> None:
        first = self._first_rec[trial]
        extra: dict[str, Any] = {}
        if (first >= 0).any():
            extra["last_reception_slot"] = int(first.max())
        informed = int(((first >= 0) | self._init_row).sum())
        self._tel.close_run(
            self._run_ids[trial],
            slots=slot,
            slots_run=slot,
            wall_s=wall,
            slots_per_sec=round(slot / wall, 1) if wall > 0 else 0.0,
            transmissions=int(self._tx[trial]),
            collisions=int(self._col[trial]),
            deliveries=int(self._deliv[trial]),
            jam_transmissions=0,
            informed=informed,
            **extra,
        )

    def _result(self, trial: int) -> VectorRunResult:
        nodes = self._nodes
        first = self._first_rec[trial]
        metrics = RunMetrics(
            slots=int(self._slots_out[trial]),
            transmissions=int(self._tx[trial]),
            collisions=int(self._col[trial]),
            deliveries=int(self._deliv[trial]),
            first_reception={
                nodes[j]: int(first[j]) for j in np.flatnonzero(first >= 0)
            },
            transmissions_per_node={
                nodes[j]: int(self._tx_pn[trial, j])
                for j in np.flatnonzero(self._tx_pn[trial])
            },
            collisions_per_node={
                nodes[j]: int(self._col_pn[trial, j])
                for j in np.flatnonzero(self._col_pn[trial])
            },
        )
        return VectorRunResult(
            slots=int(self._slots_out[trial]),
            metrics=metrics,
            graph=self._g,
            outputs=self._outputs(trial),
        )


class AlohaBatch(_VectorBatch):
    """Batched p-persistent ALOHA broadcast (the bench workload)."""

    protocol = "aloha"

    def __init__(
        self,
        graph: Graph,
        seeds: Sequence[int],
        *,
        source: Node,
        p: float,
        slots: int,
        message: Any = "m",
        active_slots: int | None = None,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise ProtocolError("transmission probability must be in (0, 1]")
        super().__init__(
            graph,
            seeds,
            source=source,
            message=message,
            max_slots=slots,
            stop_informed=False,
        )
        self._p = p
        self._active_slots = active_slots
        # The initiator's program starts informed at slot 0.
        self._informed_at[:, self._source_idx] = 0

    def _intents(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        eligible = self._eligible()
        contending = eligible & self._informed
        transmit = np.zeros_like(eligible)
        past_bound = None
        if self._active_slots is not None:
            past_bound = contending & (
                slot - self._informed_at >= self._active_slots
            )
            if past_bound.any():
                self._done |= past_bound  # the program idles out
                contending &= ~past_bound
        draw_idx = np.flatnonzero(contending.ravel())
        if draw_idx.size:
            perf = self._perf
            if perf is not None:
                perf.span_push("rng.bank")
            coins = self._streams.draw(draw_idx)
            if perf is not None:
                perf.span_pop()
            transmit.reshape(-1)[draw_idx[coins < self._p]] = True
        receiver = eligible & ~transmit
        if past_bound is not None:
            receiver &= ~past_bound
        return transmit, receiver

    def _outputs(self, trial: int) -> dict[Node, Any]:
        outputs = {}
        for j, node in enumerate(self._nodes):
            if j == self._source_idx:
                informed_at: int | None = 0
            elif self._informed[trial, j]:
                informed_at = int(self._informed_at[trial, j])
            else:
                informed_at = None
            outputs[node] = {
                "informed": bool(self._informed[trial, j]),
                "informed_at": informed_at,
            }
        return outputs


class DecayBroadcastBatch(_VectorBatch):
    """Batched Broadcast_scheme (paper Section 2.2) from one source.

    Parameters mirror
    :func:`repro.protocols.decay_broadcast.run_decay_broadcast`; the
    stop policy is the same: ``informed`` halts a trial once every node
    holds the message, and either policy also halts at quiescence
    (every informed node out of phases — the outcome is decided).
    """

    protocol = "decay"

    def __init__(
        self,
        graph: Graph,
        seeds: Sequence[int],
        *,
        source: Node,
        epsilon: float = 0.1,
        upper_bound_n: int | None = None,
        max_degree_bound: int | None = None,
        max_slots: int | None = None,
        message: Any = "m",
        p_continue: float = 0.5,
        align_phases: bool = True,
        phase_multiplier: float = 2.0,
        stop: str = "informed",
    ) -> None:
        from repro.graphs.properties import max_degree as true_max_degree

        if stop not in ("informed", "terminated"):
            raise SimulationError(f"unknown stop policy {stop!r}")
        n = graph.num_nodes()
        big_n = upper_bound_n if upper_bound_n is not None else n
        if big_n < n:
            raise ProtocolError(f"upper bound N={big_n} is below the true n={n}")
        delta = (
            max_degree_bound
            if max_degree_bound is not None
            else max(1, true_max_degree(graph))
        )
        k = decay_phase_length(delta)
        phases = num_phases(big_n, epsilon, multiplier=phase_multiplier)
        if max_slots is None:
            max_slots = max(1, n * phases * k)
        super().__init__(
            graph,
            seeds,
            source=source,
            message=message,
            max_slots=max_slots,
            stop_informed=(stop == "informed"),
        )
        self._k = k
        self._phases = phases
        self._p_continue = p_continue
        self._align = align_phases
        self.params = {"k": k, "phases": phases}
        shape = (self._trials, self._n)
        self._in_decay = np.zeros(shape, dtype=bool)
        self._d_active = np.zeros(shape, dtype=bool)
        self._d_sent = np.zeros(shape, dtype=np.int64)
        self._d_started = np.zeros(shape, dtype=np.int64)
        self._phases_done = np.zeros(shape, dtype=np.int64)
        # The initiator is informed "before time 0" (paper: -1 marker).
        self._informed_at[:, self._source_idx] = -1

    def _intents(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        eligible = self._eligible()
        if not self._align or slot % self._k == 0:
            starting = eligible & self._informed & ~self._in_decay
            if starting.any():
                # A fresh DecayProcess per phase: reset, don't carry over.
                self._in_decay |= starting
                self._d_active[starting] = True
                self._d_sent[starting] = 0
                self._d_started[starting] = slot
        acting = eligible & self._in_decay
        transmit = np.zeros_like(eligible)
        acting_idx = np.flatnonzero(acting.ravel())
        if acting_idx.size:
            flat_active = self._d_active.reshape(-1)
            flat_sent = self._d_sent.reshape(-1)
            sub_active = flat_active[acting_idx]
            sub_sent = flat_sent[acting_idx]
            perf = self._perf

            def draw(mask: np.ndarray) -> np.ndarray:
                if perf is not None:
                    perf.span_push("rng.bank")
                coins = self._streams.draw(acting_idx[mask])
                if perf is not None:
                    perf.span_pop()
                return coins

            if perf is not None:
                perf.span_push("decay.phase")
            sub_transmit = decay_step(
                sub_active,
                sub_sent,
                self._k,
                draw,
                p_continue=self._p_continue,
            )
            if perf is not None:
                perf.span_pop()
            flat_active[acting_idx] = sub_active
            flat_sent[acting_idx] = sub_sent
            transmit.reshape(-1)[acting_idx[sub_transmit]] = True
            ended = acting & (slot - self._d_started >= self._k - 1)
            if ended.any():
                self._in_decay &= ~ended
                self._phases_done += ended
                self._done |= self._phases_done >= self._phases
        receiver = eligible & ~transmit
        return transmit, receiver

    def _quiescent(self) -> np.ndarray:
        # Once every informed node has exhausted its phases, no further
        # transmission can ever occur (matches run_decay_broadcast).
        return ~(self._informed & ~self._done).any(axis=1)

    def _outputs(self, trial: int) -> dict[Node, Any]:
        outputs = {}
        for j, node in enumerate(self._nodes):
            informed = bool(self._informed[trial, j])
            informed_at = int(self._informed_at[trial, j]) if informed else None
            outputs[node] = {
                "informed": informed,
                "informed_at_slot": informed_at,
                "phases_executed": int(self._phases_done[trial, j]),
                "message": self._message if informed else None,
            }
        return outputs


def _batched(seeds: Sequence[int], batch_size: int | None, num_nodes: int):
    seeds = list(seeds)
    if batch_size is None:
        batch_size = default_batch_size(num_nodes)
    if batch_size < 1:
        raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(seeds), batch_size):
        yield seeds[start : start + batch_size]


def run_aloha_batch(
    graph: Graph,
    source: Node,
    seeds: Sequence[int],
    *,
    p: float,
    slots: int,
    message: Any = "m",
    active_slots: int | None = None,
    batch_size: int | None = None,
) -> list[VectorRunResult]:
    """Run one seeded ALOHA broadcast trial per seed, batched.

    ``batch_size`` caps trials advanced simultaneously (default: 32k
    coin streams per batch, which peaked at ~200 MB RSS over 400 slots
    on a 16x16 grid); results are identical for every value.
    """
    results: list[VectorRunResult] = []
    for chunk in _batched(seeds, batch_size, graph.num_nodes()):
        results.extend(
            AlohaBatch(
                graph,
                chunk,
                source=source,
                p=p,
                slots=slots,
                message=message,
                active_slots=active_slots,
            ).run()
        )
    return results


def run_decay_broadcast_batch(
    graph: Graph,
    source: Node,
    seeds: Sequence[int],
    *,
    epsilon: float = 0.1,
    upper_bound_n: int | None = None,
    max_degree_bound: int | None = None,
    max_slots: int | None = None,
    message: Any = "m",
    p_continue: float = 0.5,
    align_phases: bool = True,
    phase_multiplier: float = 2.0,
    stop: str = "informed",
    batch_size: int | None = None,
) -> list[VectorRunResult]:
    """Run one seeded Broadcast_scheme trial per seed, batched.

    Seed-for-seed equivalent to calling
    :func:`~repro.protocols.decay_broadcast.run_decay_broadcast` per
    seed on the reference engine (the parity suite enforces it), an
    order of magnitude faster for campaign-sized seed lists.
    """
    results: list[VectorRunResult] = []
    for chunk in _batched(seeds, batch_size, graph.num_nodes()):
        results.extend(
            DecayBroadcastBatch(
                graph,
                chunk,
                source=source,
                epsilon=epsilon,
                upper_bound_n=upper_bound_n,
                max_degree_bound=max_degree_bound,
                max_slots=max_slots,
                message=message,
                p_continue=p_continue,
                align_phases=align_phases,
                phase_multiplier=phase_multiplier,
                stop=stop,
            ).run()
        )
    return results
