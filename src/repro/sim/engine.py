"""The synchronous slot engine.

The engine implements the execution rules of the paper's Definition 1:

1. Time advances in numbered slots (0, 1, 2, ...).
2. In each slot every processor transmits, receives, or is inactive
   (its :class:`~repro.sim.node.NodeProgram` decides via ``act``).
3. A receiver is delivered a message iff exactly one of its neighbours
   transmits that slot (delegated to the :class:`~repro.sim.medium.Medium`).
4. A program's actions may depend only on its context and its past
   observations (structurally enforced: programs only ever see their
   :class:`~repro.sim.node.Context` and their own observations).
5. No spontaneous transmissions: with ``enforce_no_spontaneous=True``
   (the default) a non-initiator that transmits before receiving any
   message trips a :class:`~repro.errors.ProtocolError`.  Experiments
   for Section 3.5 pass ``False``.
6. Broadcast completion is a property of the metrics
   (:meth:`~repro.sim.metrics.RunMetrics.completion_slot`), not of the
   engine: the engine runs until all programs report done, an optional
   ``stop_when`` predicate fires, or ``max_slots`` is exhausted.

:mod:`repro.sim.spec` states the same rules as a cache-free function of
one slot; the engine must agree with it slot for slot.

One slot loop
-------------
``Engine.__init__`` picks the slot method once, from its inputs.  A
fault-free run whose programs do not override
:meth:`~repro.sim.node.NodeProgram.wake` takes the **single pass**: it
polls ``is_done`` and calls ``act`` in one pass over the live programs,
dispatches intents on their exact type, and resolves a slot with one
transmitter (the only case in round-robin and DFS) as membership in
that transmitter's hearer set.  With several transmitters it counts
energy by scattering from the transmitters when they are no more than
the receivers, and intersects each receiver's neighbourhood with the
transmitters otherwise.  Once the intents are in, no callback can
change what anyone hears, so each receiver is told as soon as it is
resolved.

Every other run keeps a **wake schedule**: a run in which some program
overrides ``wake`` (round robin, DFS and Decay do), a faulted run, and
an *observed* run, one that records a trace or provenance or whose
medium is not exactly :class:`~repro.sim.medium.RadioMedium`.  An
observed run ignores ``wake``, so every live program is due every slot,
and it resolves each receiver from its list of audible transmitters, as
the spec does, in :meth:`Engine._fault_resolve`, which reads noise as
``COLLISION`` when the medium ``detects_collisions``.  A run that
records a trace or provenance logs one entry per resolved receiver
(audible transmitters, surviving signals, observation, fault detail)
in one :class:`~repro.sim.trace.SlotLog`, from which both are derived.
An unobserved run logs nothing and takes that resolver only in slots
with jam noise or link loss; there it stops drawing a receiver's
erasure coins at its second surviving signal.  See "Sleeping programs"
and "Faults" below.

Every slot relies on two contracts.  ``NodeProgram.is_done`` is monotone
("True once this node will never act again"), so done-ness is cached in
a persistent done-set and each live program is polled at most once per
slot (exactly once unless it sleeps).  Intents are immutable, so
programs may return the shared :data:`~repro.sim.node.RECEIVE` and
:data:`~repro.sim.node.IDLE`; the exact-type dispatch falls back to
``isinstance`` for subclasses.

Sleeping programs
-----------------
A program may override ``NodeProgram.wake(ctx)``: the next slot at
which it must act even if it hears nothing, or ``None`` for "only when
I hear a message".  The wake schedule asks it after the program's
``act`` returned ``Receive`` or ``Idle`` and after ``on_observe``
delivered it a message — never after a ``Transmit``, so a transmitter
is due next slot.  A program whose answer is a later slot, or ``None``,
sleeps until then: it is neither polled with ``is_done`` nor asked to
act, and its ``ctx.slot`` keeps the slot it last ran in.  A sleeping
receiver still listens — it is delivered every message, with
``ctx.slot`` set to that slot, and asked ``wake`` again — but it is
never called with ``SILENCE``, not even in the slot it fell asleep in.
An answer not after the current slot means the next one.

The programs due in a slot are polled and act in program order, as in
the single pass, and every receiver, awake or asleep, is resolved in
program order too, so ``RunMetrics``' per-node maps, rule-5 errors and
telemetry come out in the same order.  A run ends when every program is
done, at the same slot as the single pass: an override promises that
it would keep its intent and not become done in the slots it sleeps
through, and a program that becomes done in ``act`` asks for the next
slot.  The override is found on the instance (``getattr``), so a
program behind an attribute-forwarding proxy still sleeps.  Programs
that do not override ``wake`` stay awake; when none does and the run
has no faults and is not observed, the engine takes the single pass
above, at its cost.  Observed runs, the spec (:mod:`repro.sim.spec`)
and the vectorized backend ignore ``wake``.

Faults
------
:mod:`repro.sim.spec` states the fault model rule by rule, and the
engine must match it under any schedule, observed or not.  It reads one
compiled schedule: edge changes by slot, each node's crashes merged
into outages (a node is down at slot ``s`` iff some crash covers
``s``), jam windows, and loss windows with their seed-pure erasure
coins (``_losses_at``).  ``_apply_faults`` applies a slot's events to
the graph and to the crash and jam state, and :meth:`Engine._event_slot`
updates the wake schedule to match.  Edge faults mutate the graph, and
the hearer sets rebuild when ``graph.version`` moves.  A faulted run
always keeps the wake schedule: a slot in which no fault event fires
and no jam window is open runs the fault-free code after one event
check, and the fault-free code pays one check per slot for faults
(whether the run has loss windows).  A slot with an event runs in the
spec's order: every due program is polled, the run ends if none is
live and no recovery is pending, the slot's faults apply, and only then
do the due programs act.  So:

* a crash drops the node from the schedule and from the listeners; a
  program that is done when it crashes never comes back, so its
  recovery does not hold the run open;
* a recovering program is polled once in its recovery slot, by
  ``_apply_faults``; unless it is done, it acts in that slot and
  rejoins its program-order place, so per-node maps come out in the
  spec's order;
* a jammer is suspended: it is polled every slot of its window but
  neither acts nor hears, and its noise is a transmitter that never
  delivers (a lone jammer reads as ``SILENCE``, or ``COLLISION`` on a
  collision-detecting medium) and is metered apart;
* link loss filters each receiver's audible transmitters while a loss
  window is open, listeners included.

The engine never copies messages; protocols exchange immutable payloads
by convention (all protocols in this library send tuples/strings/ints).
"""

from __future__ import annotations

import functools
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro import rng as rng_mod
from repro.errors import ProtocolError, SimulationError
from repro.graphs.graph import DiGraph, Graph
from repro.sim.faults import CrashFault, FaultSchedule, LinkLossFault
from repro.sim.medium import COLLISION, JAMMING, SILENCE, Medium, RadioMedium
from repro.sim.metrics import RunMetrics
from repro.sim.node import Context, Idle, NodeProgram, Receive, Transmit
from repro.perf import core as _perf
from repro.sim.trace import ProvenanceRecorder, SlotLog, Trace
from repro.telemetry.core import Telemetry, get_active

__all__ = ["Engine", "RunResult"]

Node = Hashable
Entry = tuple[Node, NodeProgram, Context]


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    slots: int
    metrics: RunMetrics
    trace: Trace | None
    programs: dict[Node, NodeProgram]
    graph: Graph
    provenance: ProvenanceRecorder | None = None

    def node_results(self) -> dict[Node, Any]:
        """Per-node protocol outputs (``NodeProgram.result``)."""
        return {node: prog.result() for node, prog in self.programs.items()}

    def broadcast_completion_slot(self, *, source: Node | None = None) -> int | None:
        """Slot by which all nodes other than ``source`` received a message."""
        skip = frozenset() if source is None else frozenset({source})
        return self.metrics.completion_slot(self.graph.nodes, skip=skip)

    def broadcast_succeeded(self, *, source: Node | None = None) -> bool:
        return self.broadcast_completion_slot(source=source) is not None


def _audible(neighborhood: frozenset[Node], messages: dict[Node, Any]) -> list[Node]:
    """The transmitters in ``neighborhood``, intersecting from the smaller side."""
    if len(messages) < len(neighborhood):
        return [node for node in messages if node in neighborhood]
    return [node for node in neighborhood if node in messages]


def _outages(crashes: list[CrashFault]) -> list[tuple[Node, int, int | None]]:
    """Each node's crashes merged into outages ``(node, down, up)``: the
    node is down at slot ``s`` iff some crash covers ``s``, so it is down
    in ``[down, up)``, or from ``down`` on when ``up`` is None."""
    spans: dict[Node, list[tuple[int, float]]] = {}
    for crash in crashes:
        until = math.inf if crash.until is None else crash.until
        spans.setdefault(crash.node, []).append((crash.slot, until))
    outages: list[tuple[Node, int, float]] = []
    for node, node_spans in spans.items():
        node_spans.sort()
        down, up = node_spans[0]
        for start, until in node_spans[1:]:
            if start > up:
                outages.append((node, down, up))
                down = start
            up = max(up, until)
        outages.append((node, down, up))
    return [(node, down, None if up == math.inf else int(up)) for node, down, up in outages]


def _intent_type(node: Node, intent: Any) -> type:
    """The intent type ``intent`` is an instance of: the exact-type
    dispatch's fallback for subclasses."""
    for kind in (Receive, Transmit, Idle):
        if isinstance(intent, kind):
            return kind
    raise ProtocolError(
        f"node {node!r} returned {intent!r}; expected Transmit/Receive/Idle"
    )


class _EngineContext(Context):
    """A :class:`Context` whose coin stream is created on first read.

    ``rng`` is ``rng.spawn_for_node(seed, node)``, so every drawn bit is
    what an eagerly seeded context would give; a program that never
    reads it (round robin, DFS) never seeds a Mersenne Twister.
    ``spawn_for_node`` is looked up on the module at call time, so a
    patched one sees every stream that is created.  ``cached_property``
    is a non-data descriptor: after the first read the stream is a plain
    instance attribute, so copies and pickles carry it, and one taken
    before the first read creates the same stream anew.
    """

    def __init__(self, node: Node, neighbor_ids: frozenset[Node], seed: int) -> None:
        self.node = node
        self.neighbor_ids = neighbor_ids
        self.slot = 0
        self.extras = {}
        self._seed = seed

    @functools.cached_property
    def rng(self) -> random.Random:  # type: ignore[override]
        return rng_mod.spawn_for_node(self._seed, self.node)


class Engine:
    """Drives a set of node programs over a graph, slot by slot.

    The ``faults`` schedule is snapshotted at construction; mutating the
    :class:`FaultSchedule` object after the engine is built has no
    effect on the run.  Mid-run topology changes always go through the
    schedule (or mutate ``engine.graph``, whose version counter
    invalidates the cached audibility map).  See the module docstring
    for the slot loop and the contracts it relies on.
    """

    #: The context class built for each node at construction, with
    #: ``(node, neighbour set, seed)``.  A subclass may build its own,
    #: e.g. one that decides what a node's neighbour set reads as.
    _context_type: type[Context] = _EngineContext

    def __init__(
        self,
        graph: Graph,
        programs: Mapping[Node, NodeProgram],
        *,
        medium: Medium | None = None,
        seed: int = 0,
        initiators: frozenset[Node] | set[Node] = frozenset(),
        enforce_no_spontaneous: bool = True,
        faults: FaultSchedule | None = None,
        record_trace: bool = False,
        record_provenance: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        if set(programs) != set(graph.nodes):
            missing = set(graph.nodes) ^ set(programs)
            raise SimulationError(
                f"programs must cover exactly the graph's nodes; mismatch on {sorted(map(repr, missing))}"
            )
        self.graph = graph.copy()
        self.programs: dict[Node, NodeProgram] = dict(programs)
        self.medium = medium if medium is not None else RadioMedium()
        self.seed = seed
        self.initiators = frozenset(initiators)
        self.enforce_no_spontaneous = enforce_no_spontaneous
        self.faults = faults if faults is not None else FaultSchedule()
        # A fault naming a node the graph lacks is a configuration
        # error: fail at construction, not silently mid-run.
        self.faults.validate_for_graph(self.graph)
        self.metrics = RunMetrics()
        # Telemetry is snapshotted at construction, like the fault
        # schedule: None (the common case) keeps every hot-path check a
        # single attribute load.  Enabling telemetry never implies
        # tracing — the two are independent (and trace memory matters).
        self._telemetry: Telemetry | None = (
            telemetry if telemetry is not None else get_active()
        )
        # The slot log (see repro.sim.trace) behind the trace and the
        # provenance: provenance is opt-in per engine or ambiently via
        # REPRO_PROVENANCE=1 (checked once, at construction).  With
        # neither on (the default) no log is allocated.
        if not record_provenance:
            record_provenance = os.environ.get("REPRO_PROVENANCE", "") not in ("", "0")
        self._log: SlotLog | None = None
        if record_trace or record_provenance:
            self._log = SlotLog(self._telemetry if record_provenance else None)
        self.trace: Trace | None = Trace(self._log) if record_trace else None
        self._prov: ProvenanceRecorder | None = (
            ProvenanceRecorder(self._log) if record_provenance else None
        )
        self.slot = 0
        self._crashed: set[Node] = set()
        # Initiators plus every node delivered a message so far.
        self._has_received: set[Node] = set(self.initiators)
        neighbors = self.graph.neighbors
        context_type = self._context_type
        self._contexts: dict[Node, Context] = {
            node: context_type(node, neighbors(node), seed) for node in self.graph.nodes
        }
        self._started = False
        # Done-set: nodes whose is_done() has returned True; the live
        # programs stay pre-bound in the active list.
        self._done: set[Node] = set()
        self._active: list[Entry] = [
            (node, program, self._contexts[node])
            for node, program in self.programs.items()
        ]
        # The fault schedule is snapshotted at construction and compiled
        # into per-slot data.
        self._edge_faults_by_slot = self.faults.by_slot()
        self._have_faults = not self.faults.is_empty()
        # Crashes, merged into outages: (node, transient) by the slot it
        # goes down, and the node by the slot it comes back up.
        self._crashes_by_slot: dict[int, list[tuple[Node, bool]]] = {}
        self._recoveries_by_slot: dict[int, list[Node]] = {}
        for node, down, up in _outages(self.faults.crash_faults):
            self._crashes_by_slot.setdefault(down, []).append((node, up is not None))
            if up is not None:
                self._recoveries_by_slot.setdefault(up, []).append(node)
        # Live programs that crash are parked here so recovery can
        # restore them, program state intact.
        self._crashed_entries: dict[Node, Entry] = {}
        self._awaiting_recovery: set[Node] = set()
        # Window faults: jammers (per-slot noise set) and lossy links.
        self._jam_faults = tuple(self.faults.jam_faults)
        self._jammed_now: frozenset[Node] | set[Node] = frozenset()
        self._loss_faults = tuple(self.faults.link_loss_faults)
        # Slots at which a fault event fires: an edge change, a crash, a
        # recovery, or a jam window's start or end.
        events = {
            *self._edge_faults_by_slot, *self._crashes_by_slot, *self._recoveries_by_slot
        }
        for jam in self._jam_faults:
            events.update((jam.start, jam.end))
        self._event_slots = frozenset(events)
        # Adjacency maps: per node, the frozenset it can hear (audible)
        # and the frozenset that hears it (hearers).  Rebuilt lazily
        # whenever the graph's version moves (edge faults, or any
        # out-of-band mutation of ``self.graph``).
        self._audible: dict[Node, frozenset[Node]] = {}
        self._hearers: dict[Node, frozenset[Node]] = {}
        self._audible_version = -1
        self._audible_map()
        # An observed run records a trace or provenance, or runs on a
        # medium other than RadioMedium: it ignores ``wake`` and resolves
        # every receiver from its audible list.
        self._observed = type(self.medium) is not RadioMedium or self._log is not None
        wakes = {} if self._observed else self._wake_overrides()
        # Whether the run keeps a wake schedule rather than one pass.
        self._sleepy = bool(wakes) or self._have_faults or self._observed
        if self._sleepy:
            self._init_schedule(wakes)

    # -- public API -----------------------------------------------------

    @property
    def informed_count(self) -> int:
        """Nodes holding a message: the initiators plus every node
        delivered one so far (O(1); the engine keeps the set)."""
        return len(self._has_received)

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[["Engine"], bool] | None = None,
    ) -> RunResult:
        """Run until done / stop condition / ``max_slots``; return the result."""
        if max_slots < 0:
            raise SimulationError("max_slots must be non-negative")
        if not self._started:
            for node, program in self.programs.items():
                program.on_start(self._contexts[node])
            self._started = True
        tel = self._telemetry
        # Perf attribution (repro.perf): snapshot once per run — with no
        # session active the per-slot loop below pays nothing.  The run
        # is one "engine.run" span; each slot batch laps an inner
        # "engine.slot_batch" span so sampled time and traced memory
        # are attributed batch by batch.
        perf = _perf.get_active()
        if perf is not None:
            perf.span_push("engine.run")
            if tel is not None:
                perf.span_push("engine.slot_batch")
        if tel is not None:
            start_slot = batch_slot0 = self.slot
            next_batch = self.slot + tel.slot_batch
            run_t0 = batch_t0 = time.perf_counter()
            tel.begin_run(
                nodes=self.graph.num_nodes(),
                edges=self.graph.num_edges(),
                seed=self.seed,
                slot=self.slot,
                max_slots=max_slots,
                initiators=len(self.initiators),
                faults=self.faults.counts() if self._have_faults else {},
            )
        run_slot = self._slot_method()
        metrics = self.metrics
        try:
            while self.slot < max_slots:
                if stop_when is not None and stop_when(self):
                    break
                if not run_slot():
                    break
                self.slot += 1
                metrics.slots = self.slot
                if tel is not None and self.slot >= next_batch:
                    now = time.perf_counter()
                    dur = now - batch_t0
                    batch_slots = self.slot - batch_slot0
                    rate = batch_slots / dur if dur > 0 else 0.0
                    tel.emit(
                        "slot_batch",
                        slot=self.slot,
                        slots=batch_slots,
                        dur_s=dur,
                        slots_per_sec=round(rate, 1),
                    )
                    batch_t0, batch_slot0 = now, self.slot
                    next_batch = self.slot + tel.slot_batch
                    if perf is not None:
                        perf.span_pop()
                        perf.span_push("engine.slot_batch")
        except BaseException:
            # A run that raises writes no run_end (the monitor would
            # judge it a failed run); its scope must not tag the
            # records that follow.
            if tel is not None:
                tel.discard_run()
            raise
        finally:
            if perf is not None:
                if tel is not None:
                    perf.span_pop()  # engine.slot_batch
                perf.span_pop()  # engine.run
        if tel is not None:
            wall = time.perf_counter() - run_t0
            slots_run = self.slot - start_slot
            extra: dict[str, Any] = {}
            if metrics.first_reception:
                # The slot the last first-reception landed in — when all
                # nodes are informed this *is* the broadcast completion
                # slot Theorem 4 budgets (repro.monitor checks it live).
                extra["last_reception_slot"] = max(metrics.first_reception.values())
            tel.end_run(
                slots=self.slot,
                slots_run=slots_run,
                wall_s=wall,
                slots_per_sec=round(slots_run / wall, 1) if wall > 0 else 0.0,
                transmissions=metrics.transmissions,
                collisions=metrics.collisions,
                deliveries=metrics.deliveries,
                jam_transmissions=metrics.jam_transmissions,
                informed=len(self._has_received),
                **extra,
            )
        return RunResult(
            slots=self.slot,
            metrics=metrics,
            trace=self.trace,
            programs=self.programs,
            graph=self.graph,
            provenance=self._prov,
        )

    def step(self) -> None:
        """Execute exactly one time-slot, with its faults while the run
        is live.  Past the run's end nothing acts and no fault applies
        (the final graph :meth:`run` and the spec give), but the clock
        advances and a trace gets one empty record per slot."""
        if not self._slot_method()() and self._log is not None:
            # Past the end nothing acts, but a trace keeps one record per slot.
            self._log.end_slot(self.slot, {})
        self.slot += 1
        self.metrics.slots = self.slot

    # -- the slot loop ----------------------------------------------------

    def _slot_method(self) -> Callable[[], bool]:
        """The slot method for this engine.

        Looked up per call, never stored: a bound method kept on the
        engine would make it a reference cycle, freed only by the cyclic
        collector, and finished engines would pile up between collections.
        """
        if self._have_faults:
            return self._fault_slot
        return self._sleepy_slot if self._sleepy else self._lean_slot

    def _lean_slot(self) -> bool:
        """One fault-free slot, without advancing the clock.

        Returns False, having resolved nothing, iff every program is done.
        """
        slot = self.slot
        done = self._done
        live: list[Entry] = []
        messages: dict[Node, Any] = {}
        receivers: list[Entry] = []
        for entry in self._active:
            node, program, ctx = entry
            ctx.slot = slot
            if program.is_done(ctx):
                done.add(node)
                continue
            live.append(entry)
            intent = program.act(ctx)
            kind = type(intent)
            if kind is Receive:
                receivers.append(entry)
            elif kind is not Idle:
                self._admit(entry, intent, messages, receivers)
        self._active = live
        if not live:
            return False
        self._lean_resolve(messages, receivers, False)
        return True

    def _wake_overrides(self) -> dict[Node, Callable[[Context], int | None]]:
        """The programs that override ``wake``, by node.

        The override is looked up on the instance, so a program wrapped
        in an attribute-forwarding proxy still sleeps.
        """
        wakes: dict[Node, Callable[[Context], int | None]] = {}
        for node, program in self.programs.items():
            wake = getattr(program, "wake", None)
            if wake is not None and getattr(wake, "__func__", None) is not NodeProgram.wake:
                wakes[node] = wake
        return wakes

    def _init_schedule(self, wakes: dict[Node, Callable[[Context], int | None]]) -> None:
        """Set up the wake schedule; a program not in ``wakes`` is due
        every slot."""
        self._wakes = wakes
        # (program index, entry): a bucket sorts into program order on
        # its first field alone.
        self._keyed: dict[Node, tuple[int, Entry]] = {
            entry[0]: (index, entry) for index, entry in enumerate(self._active)
        }
        self._buckets: dict[int, list[tuple[int, Entry]]] = {
            self.slot: list(self._keyed.values())
        }
        self._due_at: dict[Node, int] = dict.fromkeys(self._keyed, self.slot)
        # Sleepers whose last act was Receive: they hear, unasked.
        self._listening: dict[Node, tuple[int, Entry]] = {}
        # Programs neither done nor crashed.
        self._live = len(self._keyed)

    def _sleepy_slot(self) -> bool:
        """:meth:`_lean_slot` on the wake schedule: only the programs due
        this slot are polled and act, in program order.  In an observed
        run every live program is due every slot."""
        slot = self.slot
        messages: dict[Node, Any] = {}
        receivers: list[Entry] = []
        due = self._buckets.pop(slot, None)
        if due:
            if len(due) > 1:
                due.sort()
            nxt = slot + 1
            due_at = self._due_at
            listening = self._listening
            wakes = self._wakes
            done = self._done
            enforce = self.enforce_no_spontaneous
            has_received = self._has_received
            awake = self._buckets.setdefault(nxt, [])
            for keyed in due:
                entry = keyed[1]
                node, program, ctx = entry
                if due_at.get(node) != slot:
                    continue  # rescheduled since it was filed here
                ctx.slot = slot
                listening.pop(node, None)
                if program.is_done(ctx):
                    done.add(node)
                    del due_at[node]
                    self._live -= 1
                    continue
                intent = program.act(ctx)
                kind = type(intent)
                if kind is not Transmit and kind is not Receive and kind is not Idle:
                    kind = _intent_type(node, intent)
                if kind is Transmit:  # a transmitter stays awake
                    if enforce and node not in has_received:
                        raise self._spontaneous(node)
                    messages[node] = intent.message
                    due_at[node] = nxt
                    awake.append(keyed)
                    continue
                wake = wakes.get(node)
                when = nxt if wake is None else wake(ctx)
                if when is not None and when <= nxt:
                    due_at[node] = nxt
                    awake.append(keyed)
                    if kind is Receive:
                        receivers.append(entry)
                else:
                    if kind is Receive:
                        listening[node] = keyed
                    self._schedule(node, when)
        if not self._live and not self._awaiting_recovery:
            return False
        if self._loss_faults or self._observed:
            self._fault_resolve(messages, receivers)
        else:
            self._lean_resolve(messages, receivers)
        return True

    def _fault_slot(self) -> bool:
        """A faulted run's slot: :meth:`_sleepy_slot`, unless a fault
        event fires in it or a jam window is open."""
        if self.slot in self._event_slots or self._jammed_now:
            return self._event_slot()
        return self._sleepy_slot()

    def _event_slot(self) -> bool:
        """A slot with fault events, in the spec's order: poll every due
        program, end the run if none is live and no recovery is pending,
        apply the faults, then act."""
        slot = self.slot
        nxt = slot + 1
        due_at = self._due_at
        listening = self._listening
        done = self._done
        keyed_of = self._keyed
        due: list[tuple[int, Entry]] = []
        for keyed in sorted(self._buckets.pop(slot, ())):
            node, program, ctx = keyed[1]
            if due_at.get(node) != slot:
                continue
            ctx.slot = slot
            listening.pop(node, None)
            if program.is_done(ctx):
                done.add(node)
                del due_at[node]
                self._live -= 1
            else:
                due.append(keyed)
        if not self._live and not self._awaiting_recovery:
            return False
        restored, parked = self._apply_faults()
        if restored:
            for node, _program, _ctx in restored:
                due_at[node] = slot
                due.append(keyed_of[node])
                self._live += 1
            due.sort()
        for node in parked:
            due_at.pop(node, None)
            listening.pop(node, None)
            self._live -= 1
        jammed = self._jammed_now
        for node in jammed:
            if node not in done:  # suspended: polled next slot, deaf now
                listening.pop(node, None)
                self._schedule(node, nxt)
        messages: dict[Node, Any] = {}
        receivers: list[Entry] = []
        awake = self._buckets.setdefault(nxt, [])
        for keyed in due:
            if due_at.get(keyed[1][0]) == slot:  # not crashed nor jamming
                self._act_due(keyed, nxt, messages, receivers, awake)
        for node in jammed:
            messages[node] = JAMMING
        self._fault_resolve(messages, receivers)
        return True

    def _act_due(
        self,
        keyed: tuple[int, Entry],
        nxt: int,
        messages: dict[Node, Any],
        receivers: list[Entry],
        awake: list[tuple[int, Entry]],
    ) -> None:
        """Ask one due program to act and file it by its intent and its
        ``wake``: one step of :meth:`_sleepy_slot`'s pass."""
        entry = keyed[1]
        node, program, ctx = entry
        intent = program.act(ctx)
        kind = type(intent)
        if kind is not Transmit and kind is not Receive and kind is not Idle:
            kind = _intent_type(node, intent)
        if kind is Transmit:
            if self.enforce_no_spontaneous and node not in self._has_received:
                raise self._spontaneous(node)
            messages[node] = intent.message
            when: int | None = nxt
        else:
            wake = self._wakes.get(node)
            when = nxt if wake is None else wake(ctx)
        if when is not None and when <= nxt:
            self._due_at[node] = nxt
            awake.append(keyed)
            if kind is Receive:
                receivers.append(entry)
        else:
            if kind is Receive:
                self._listening[node] = keyed
            self._schedule(node, when)

    def _schedule(self, node: Node, when: int | None) -> None:
        """File a sleeper under the slot its ``wake`` named."""
        if when is None:
            self._due_at.pop(node, None)
            return
        if when <= self.slot:
            when = self.slot + 1
        if self._due_at.get(node) != when:
            self._due_at[node] = when
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [self._keyed[node]]
            else:
                bucket.append(self._keyed[node])

    def _rewake(self, node: Node, ctx: Context) -> None:
        """After a delivery: a sleeper keeps listening and is asked anew.

        :meth:`_lean_resolve`'s one-transmitter branch inlines these
        steps (it carries every DFS token delivery); keep the two alike.
        """
        wake = self._wakes.get(node)
        if wake is not None:
            self._listening[node] = self._keyed[node]
            when = wake(ctx)
            if when is None:
                self._due_at.pop(node, None)
            else:
                self._schedule(node, when)

    def _with_listeners(self, receivers: list[Entry], audible: Any) -> list[Entry]:
        """``receivers`` plus the sleeping listeners in ``audible``, in
        program order."""
        listening = self._listening
        if len(listening) < len(audible):
            hits = [keyed for node, keyed in listening.items() if node in audible]
        else:
            hits = [keyed for keyed in map(listening.get, audible) if keyed is not None]
        if not hits:
            return receivers
        slot = self.slot
        for _index, (_node, _program, ctx) in hits:
            ctx.slot = slot
        if receivers:
            keyed = self._keyed
            hits += [keyed[entry[0]] for entry in receivers]
        if len(hits) > 1:
            hits.sort()
        return [entry for _index, entry in hits]

    def _lean_resolve(
        self, messages: dict[Node, Any], receivers: list[Entry], sleepy: bool = True
    ) -> None:
        """Resolve a lean-loop slot and tell each receiver what it heard.

        ``receivers`` are the awake programs that chose ``Receive``, in
        program order; with ``sleepy``, the sleeping listeners hear too,
        but only deliveries.
        """
        if not messages:
            for _node, program, ctx in receivers:
                program.on_observe(ctx, SILENCE)
            return
        self._count_transmissions(messages)
        listening = self._listening if sleepy else None
        if not receivers and not listening:
            return

        # Intents are in, and no callback can change a hearer set or a
        # message, so every observation is already fixed: each receiver
        # is told what it heard as soon as it is resolved.
        slot = self.slot
        metrics = self.metrics
        first_reception = metrics.first_reception
        has_received = self._has_received
        deliveries = 0
        if len(messages) == 1:
            [(sender, message)] = messages.items()
            if self._audible_version != self.graph.version:
                self._audible_map()
            hearers = self._hearers[sender]
            if sleepy:
                if listening:
                    receivers = self._with_listeners(receivers, hearers)
                # _rewake, inlined: every DFS token hearer comes this way.
                wakes_get = self._wakes.get
                keyed = self._keyed
                due_pop = self._due_at.pop
                schedule = self._schedule
            for receiver, program, ctx in receivers:
                if receiver in hearers:
                    deliveries += 1
                    if receiver not in first_reception:
                        first_reception[receiver] = slot
                        has_received.add(receiver)
                    program.on_observe(ctx, message)
                    if sleepy:
                        wake = wakes_get(receiver)
                        if wake is not None:
                            listening[receiver] = keyed[receiver]
                            when = wake(ctx)
                            if when is None:
                                due_pop(receiver, None)
                            else:
                                schedule(receiver, when)
                else:
                    program.on_observe(ctx, SILENCE)
            metrics.deliveries += deliveries
            return

        audible_map = self._audible_map()
        # Transmitter-side scatter beats per-receiver intersection when
        # contention is sparse: the energy counts come from one C-speed
        # Counter.update pass over Σ deg(transmitter) hearers, then each
        # receiver is O(1), and the sender is recovered by intersection
        # only on clean deliveries.  Sleeping listeners are found in the
        # counts, so a sleepy slot always scatters.
        scatter = sleepy or len(messages) <= len(receivers)
        if scatter:
            counts: Counter[Node] = Counter()
            hearers_map = self._hearers
            for transmitter in messages:
                counts.update(hearers_map[transmitter])
            counts_get = counts.get
            if listening:
                receivers = self._with_listeners(receivers, counts)
        col_per_node = metrics.collisions_per_node
        collisions = 0
        for receiver, program, ctx in receivers:
            if scatter:
                num_audible = counts_get(receiver, 0)
                audible = (
                    _audible(audible_map[receiver], messages) if num_audible == 1 else ()
                )
            else:
                audible = _audible(audible_map[receiver], messages)
                num_audible = len(audible)
            if num_audible == 1:
                deliveries += 1
                if receiver not in first_reception:
                    first_reception[receiver] = slot
                    has_received.add(receiver)
                program.on_observe(ctx, messages[audible[0]])
                if sleepy:
                    self._rewake(receiver, ctx)
            else:
                if num_audible:
                    collisions += 1
                    col_per_node[receiver] = col_per_node.get(receiver, 0) + 1
                if not (sleepy and receiver in listening):
                    program.on_observe(ctx, SILENCE)
        metrics.collisions += collisions
        metrics.deliveries += deliveries

    def _fault_resolve(self, messages: dict[Node, Any], receivers: list[Entry]) -> None:
        """Resolve each receiver from its audible transmitters, as the
        spec does: the resolver of every slot with jam noise or link loss
        and of every slot of an observed run; otherwise it is
        :meth:`_lean_resolve`.

        Receivers, awake or sleeping listeners, are resolved and told in
        program order.  An erased signal neither delivers nor collides,
        and a lone jammer is energy without content.  Two or more signals,
        or a lone jammer, read as ``COLLISION`` on a medium that detects
        collisions and as ``SILENCE`` otherwise.  Erasure coins are pure
        functions, so an unobserved receiver stops drawing them at its
        second surviving signal.
        """
        jammed = self._jammed_now  # jam noise is in messages
        losses = self._losses_at(self.slot) if messages and self._loss_faults else ()
        observed = self._observed
        if not losses and not jammed and not observed:
            self._lean_resolve(messages, receivers)
            return
        self._count_transmissions(messages)
        audible_map = self._audible_map()
        listening = self._listening
        if listening:
            hearers = self._hearers
            reached: set[Node] = set()
            for transmitter in messages:
                reached.update(hearers[transmitter])
            receivers = self._with_listeners(receivers, reached)
        slot = self.slot
        metrics = self.metrics
        first_reception = metrics.first_reception
        col_per_node = metrics.collisions_per_node
        has_received = self._has_received
        erased = self._erased
        noise = COLLISION if self.medium.detects_collisions else SILENCE
        log = self._log
        deliveries = collisions = 0
        for receiver, program, ctx in receivers:
            audible = signals = _audible(audible_map[receiver], messages)
            if losses and audible:
                signals = []
                for transmitter in audible:
                    if not erased(losses, transmitter, receiver):
                        signals.append(transmitter)
                        if len(signals) == 2 and not observed:
                            break
            count = len(signals)
            sender = signals[0] if count == 1 else None
            clean = sender is not None and sender not in jammed
            if clean:
                deliveries += 1
                if receiver not in first_reception:
                    first_reception[receiver] = slot
                    has_received.add(receiver)
                observation = messages[sender]
            else:
                if count >= 2:
                    collisions += 1
                    col_per_node[receiver] = col_per_node.get(receiver, 0) + 1
                observation = noise if count else SILENCE
            if log is not None:
                log.receive(slot, receiver, audible, signals, observation, clean)
            if clean:
                program.on_observe(ctx, observation)
                self._rewake(receiver, ctx)
            elif receiver not in listening:
                program.on_observe(ctx, observation)
        metrics.collisions += collisions
        metrics.deliveries += deliveries
        if log is not None:
            log.end_slot(slot, messages)

    def _apply_faults(self) -> tuple[list[Entry], list[Node]]:
        """Apply this slot's faults to the graph and the crash and jam
        state.

        Returns ``(restored, parked)``: the entries of the programs that
        recover this slot and are not done, and the live programs' nodes
        that crash in it, for :meth:`_event_slot` to add to and drop from
        the wake schedule, in that order.
        """
        slot = self.slot
        edge_faults = self._edge_faults_by_slot.get(slot, ())
        for fault in edge_faults:
            fault.apply(self.graph)
        crashed = self._crashed
        done = self._done
        parked_entries = self._crashed_entries
        restored: list[Entry] = []
        parked: list[Node] = []
        # A node's outages never touch, so no node both recovers and
        # crashes in one slot.
        recoveries = self._recoveries_by_slot.get(slot)
        if recoveries:
            for node in recoveries:
                self._awaiting_recovery.discard(node)
                crashed.discard(node)
                entry = parked_entries.pop(node, None)
                if entry is not None:
                    # This slot's done-pass has already run, so the
                    # recovering program is stamped and polled here.
                    ctx = entry[2]
                    ctx.slot = slot
                    if entry[1].is_done(ctx):
                        done.add(node)
                    else:
                        restored.append(entry)
        crashes = self._crashes_by_slot.get(slot)
        if crashes:
            log = self._log
            for node, transient in crashes:
                crashed.add(node)
                if transient and node not in done:  # a done program never returns
                    self._awaiting_recovery.add(node)
                if log is not None:
                    log.crash(slot, node)
                if node not in done:
                    parked_entries[node] = self._keyed[node][1]
                    parked.append(node)
        if self._jam_faults:
            self._jammed_now = {
                fault.node
                for fault in self._jam_faults
                if fault.active_at(slot) and fault.node not in crashed
            }
        tel = self._telemetry
        if tel is not None and (edge_faults or recoveries or crashes):
            # Discrete activations only; continuous jam pressure is
            # reported as the jammed-set size alongside them.
            tel.emit(
                "fault",
                slot=slot,
                edges_cut=len(edge_faults),
                crashes=len(crashes) if crashes else 0,
                recoveries=len(recoveries) if recoveries else 0,
                jamming=len(self._jammed_now),
            )
        return restored, parked

    # -- intents, metering and audibility ---------------------------------

    def _admit(
        self,
        entry: Entry,
        intent: Any,
        messages: dict[Node, Any],
        receivers: list[Entry],
    ) -> None:
        """File an intent the exact-type dispatch did not: a ``Transmit``
        (checked against rule 5) or a subclass of an intent type."""
        node = entry[0]
        kind = type(intent)
        if kind is not Transmit:
            kind = _intent_type(node, intent)
        if kind is Transmit:
            if self.enforce_no_spontaneous and node not in self._has_received:
                raise self._spontaneous(node)
            messages[node] = intent.message
        elif kind is Receive:
            receivers.append(entry)

    def _spontaneous(self, node: Node) -> ProtocolError:
        return ProtocolError(
            f"node {node!r} transmitted spontaneously at slot {self.slot} "
            "(Definition 1, rule 5; pass enforce_no_spontaneous=False to allow)"
        )

    def _count_transmissions(self, messages: dict[Node, Any]) -> None:
        """Meter one slot's transmitters; jamming noise is metered apart."""
        metrics = self.metrics
        jammed = self._jammed_now
        per_node = metrics.transmissions_per_node
        for node in messages:
            if node not in jammed:
                per_node[node] = per_node.get(node, 0) + 1
        # Every live jammer is a messages key (_event_slot injects them).
        metrics.jam_transmissions += len(jammed)
        metrics.transmissions += len(messages) - len(jammed)

    def _audible_map(self) -> dict[Node, frozenset[Node]]:
        """Per-node audibility sets, refreshed when the graph changes."""
        graph = self.graph
        if self._audible_version != graph.version:
            audible = graph.audible
            self._audible = {node: audible(node) for node in graph}
            if isinstance(graph, DiGraph):
                hearers = graph.hearers
                self._hearers = {node: hearers(node) for node in graph}
            else:
                self._hearers = self._audible  # symmetric links
            self._audible_version = graph.version
        return self._audible

    def _audible_transmitters(self, receiver: Node, messages: dict[Node, Any]) -> list[Node]:
        return _audible(self._audible_map()[receiver], messages)

    def _losses_at(self, slot: int) -> tuple[tuple[LinkLossFault, Callable[..., int]], ...]:
        """The loss windows active this slot, each with its coin deriver:
        ``(engine seed, "link-loss", fault index, slot)`` hashed once."""
        return tuple(
            (fault, rng_mod.seed_deriver(self.seed, "link-loss", index, slot))
            for index, fault in enumerate(self._loss_faults)
            if fault.active_at(slot)
        )

    @staticmethod
    def _erased(
        losses: tuple[tuple[LinkLossFault, Callable[..., int]], ...],
        transmitter: Node,
        receiver: Node,
    ) -> bool:
        """Whether this directed reception is erased by an active loss fault.

        The erasure coin is ``derive_seed(engine seed, "link-loss", fault
        index, slot, transmitter, receiver)``, a pure function of those,
        so loss patterns replay identically across runs, processes and
        iteration orders.
        """
        for fault, derive in losses:
            if fault.covers(transmitter, receiver):
                draw = derive(transmitter, receiver)
                if draw / 18446744073709551616.0 < fault.p:  # / 2**64 -> [0, 1)
                    return True
        return False
