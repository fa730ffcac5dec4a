"""Faulted runs: the wake schedule, untraced against traced.

A run with a fault schedule keeps the engine's wake schedule: a crash
drops the program from it, a recovery files it as due, a jammer is
suspended for its window, and link loss filters what each receiver,
asleep or awake, can hear.  A traced run is observed: it ignores
``wake``, calls every live program in every slot and resolves every
receiver from its audible list.  Both must give the same ``RunResult``:
slots, metrics, the per-node maps in the same order, node results and
the final graph.  :func:`repro.sim.spec.run`, driven as many slots as
the untraced run took, must give them too.  In test names and ids, the
"lean loop" is the untraced run and the "general loop" the traced one.

A recovered program rejoins at its program-order place.  A traced run
used to append it to the end of its pass instead, so a per-node map
could list it after nodes that come later in program order;
:func:`test_a_recovered_node_keeps_its_program_order_place` pins the
new order.
"""

import gc
import weakref
from typing import Any

import pytest

from repro.graphs import Graph, complete, grid, random_gnp, star
from repro.protocols.base import run_broadcast
from repro.protocols.decay_broadcast import make_broadcast_programs, run_decay_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs
from repro.rng import spawn
from repro.sim import (
    RECEIVE,
    Context,
    CrashFault,
    EdgeFault,
    Engine,
    FaultSchedule,
    JamFault,
    LinkLossFault,
    NodeProgram,
    Transmit,
    spec,
)

TOPOLOGIES = {
    "gnp-16": lambda: random_gnp(16, 0.25, spawn(7, "parity")),
    "grid-4x4": lambda: grid(4, 4),
    "complete-8": lambda: complete(8),
    "star-9": lambda: star(9),
}

# One schedule per fault family, plus all but edges combined; every
# schedule names only nodes 0..7.
SCHEDULES = {
    "crash": FaultSchedule(
        crash_faults=[
            CrashFault(slot=3, node=1),
            CrashFault(slot=2, node=2, until=6),
        ]
    ),
    "jam": FaultSchedule(jam_faults=[JamFault(node=1, start=2, end=7)]),
    "edge": FaultSchedule(
        edge_faults=[
            EdgeFault(slot=4, u=0, v=1),
            EdgeFault(slot=9, u=0, v=1, kind="add"),
        ]
    ),
    "loss": FaultSchedule(link_loss_faults=[LinkLossFault(p=0.3, start=1, end=30)]),
    "combined": FaultSchedule(
        crash_faults=[CrashFault(slot=5, node=2, until=9)],
        jam_faults=[JamFault(node=3, start=3, end=8)],
        link_loss_faults=[LinkLossFault(p=0.2, start=0)],
    ),
}

PROTOCOLS = ["decay", "decay-unaligned", "rr", "dfs"]


def _programs(protocol, graph):
    """The protocol's programs and its run seed, as :func:`_run` builds them."""
    if protocol.startswith("decay"):
        programs, _params = make_broadcast_programs(
            graph, {0: "m"}, align_phases=protocol == "decay"
        )
        return programs, 11
    if protocol == "dfs":
        return make_dfs_programs(graph, 0), 0
    n = graph.num_nodes()
    return make_round_robin_programs(graph, 0, frame_size=n + 1, max_frames=3), 0


def _run(protocol, graph, faults, stop, record_trace):
    n = graph.num_nodes()
    if protocol.startswith("decay"):
        return run_decay_broadcast(
            graph, 0, seed=11, align_phases=protocol == "decay", stop=stop,
            faults=faults, record_trace=record_trace,
        )
    programs, _seed = _programs(protocol, graph)
    cap = 4 * n + 4 if protocol == "dfs" else (n + 1) * 4
    return run_broadcast(
        graph, programs, initiators={0}, max_slots=cap, stop=stop, faults=faults,
        record_trace=record_trace,
    )


def _key(slots, m, node_results, graph):
    return (
        slots,
        m,
        list(m.first_reception.items()),
        list(m.transmissions_per_node.items()),
        list(m.collisions_per_node.items()),
        node_results,
        sorted(map(sorted, graph.edges)),
    )


def _fingerprint(result):
    return _key(result.slots, result.metrics, result.node_results(), result.graph)


def _spec_fingerprint(protocol, graph, faults, slots):
    """The spec's run of ``protocol`` for ``slots`` slots: the engine's
    stop policies are the harness's, so the spec stops where it did."""
    programs, seed = _programs(protocol, graph)
    metrics, _observed, final = spec.run(
        graph, programs, slots, seed=seed, initiators={0}, faults=faults
    )
    results = {node: p.result() for node, p in programs.items()}
    return _key(metrics.slots, metrics, results, final)


@pytest.mark.parametrize("stop", ["informed", "terminated"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_faulted_lean_loop_matches_general_loop(protocol, topology, schedule, stop):
    graph = TOPOLOGIES[topology]()
    faults = SCHEDULES[schedule]
    lean = _run(protocol, graph, faults, stop, record_trace=False)
    general = _run(protocol, graph, faults, stop, record_trace=True)
    assert lean.trace is None and general.trace is not None
    assert _fingerprint(lean) == _fingerprint(general)
    assert _fingerprint(lean) == _spec_fingerprint(protocol, graph, faults, lean.slots)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_faulted_runs_take_the_sleeping_lean_loop(schedule):
    graph = TOPOLOGIES["grid-4x4"]()
    programs, _params = make_broadcast_programs(graph, {0})
    engine = Engine(graph, programs, initiators={0}, faults=SCHEDULES[schedule])
    assert engine._sleepy and not engine._observed
    traced = Engine(graph, programs, initiators={0}, faults=SCHEDULES[schedule],
                    record_trace=True)
    assert traced._sleepy and traced._observed


class Counting(NodeProgram):
    """Wraps a program and counts its ``act`` calls; forwards ``wake``."""

    def __init__(self, program: NodeProgram) -> None:
        self.program = program
        self.acts = 0
        self.wake = program.wake

    def act(self, ctx: Context) -> Any:
        self.acts += 1
        return self.program.act(ctx)

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.program.on_observe(ctx, heard)

    def is_done(self, ctx: Context) -> bool:
        return self.program.is_done(ctx)

    def result(self) -> Any:
        return self.program.result()


def test_decay_sleeps_in_a_faulted_run():
    """A severed cut leaves half the nodes deaf: they, and every informed
    node whose coin has stopped, sleep instead of acting."""
    graph = TOPOLOGIES["gnp-16"]()
    cut = FaultSchedule(edge_faults=[EdgeFault(slot=0, u=u, v=v) for u, v in graph.edges
                                     if (u < 8) != (v < 8)])

    def acts(record_trace):
        programs, _params = make_broadcast_programs(graph, {0})
        wrapped = {node: Counting(p) for node, p in programs.items()}
        result = run_broadcast(graph, wrapped, initiators={0}, max_slots=400,
                               stop="terminated", faults=cut, record_trace=record_trace)
        return sum(p.acts for p in wrapped.values()), _fingerprint(result)

    lean_acts, lean = acts(False)
    general_acts, general = acts(True)
    assert lean == general
    assert 0 < 3 * lean_acts < general_acts


class LateBeacon(NodeProgram):
    """Listens until ``start``, then transmits every slot."""

    def __init__(self, start: int) -> None:
        self.start = start

    def act(self, ctx: Context) -> Any:
        return Transmit("b") if ctx.slot >= self.start else RECEIVE


class Hearer(NodeProgram):
    def __init__(self) -> None:
        self.heard: list[tuple[int, Any]] = []

    def act(self, ctx: Context) -> Any:
        return RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.heard.append((ctx.slot, heard))


@pytest.mark.parametrize("record_trace", [False, True], ids=["lean", "general"])
def test_a_recovered_node_keeps_its_program_order_place(record_trace):
    # Node 1 is down for slots [0, 2); both hearers first receive at
    # slot 3.  Appending the recovered program to the end of the pass,
    # as a traced run used to, listed node 2 first.
    graph = Graph(nodes=[0, 1, 2], edges=[(0, 1), (0, 2)])
    faults = FaultSchedule(crash_faults=[CrashFault(slot=0, node=1, until=2)])
    programs = {0: LateBeacon(3), 1: Hearer(), 2: Hearer()}
    engine = Engine(graph, programs, initiators={0}, faults=faults,
                    record_trace=record_trace)
    assert engine._observed is record_trace
    result = engine.run(5)
    assert list(result.metrics.first_reception.items()) == [(1, 3), (2, 3)]
    assert programs[1].heard[0][0] == 2  # it hears from its recovery slot on


class Clocked(NodeProgram):
    """Listens every slot and records the slots it acts in; done from
    ``done_at`` on."""

    def __init__(self, done_at: int) -> None:
        self.done_at = done_at
        self.acted: list[int] = []

    def act(self, ctx: Context) -> Any:
        self.acted.append(ctx.slot)
        return RECEIVE

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.done_at


def _acted(faults, done_at, record_trace):
    """Each node's act slots on two nodes, by the engine and by the spec."""
    graph = Graph(nodes=[0, 1], edges=[(0, 1)])
    programs = {node: Clocked(done_at[node]) for node in graph.nodes}
    engine = Engine(graph, programs, faults=faults, record_trace=record_trace)
    assert engine._observed is record_trace
    engine.run(10)
    oracle = {node: Clocked(done_at[node]) for node in graph.nodes}
    spec.run(graph, oracle, 10, faults=faults)
    acted = {node: p.acted for node, p in programs.items()}
    assert acted == {node: p.acted for node, p in oracle.items()}
    return acted


@pytest.mark.parametrize("record_trace", [False, True], ids=["lean", "general"])
def test_a_permanent_crash_inside_an_outage_outlasts_its_recovery(record_trace):
    # Node 1 is down for [2, 4), and for ever from slot 3: the outage's
    # recovery at 4 used to revive it.
    faults = FaultSchedule(crash_faults=[CrashFault(slot=2, node=1, until=4),
                                         CrashFault(slot=3, node=1)])
    acted = _acted(faults, {0: 8, 1: 20}, record_trace)
    assert acted == {0: list(range(8)), 1: [0, 1]}


@pytest.mark.parametrize("record_trace", [False, True], ids=["lean", "general"])
def test_a_recovering_program_is_polled_before_it_acts(record_trace):
    # Node 1 is done from slot 3 on and down for [1, 6): it used to be
    # asked to act in its recovery slot.
    faults = FaultSchedule(crash_faults=[CrashFault(slot=1, node=1, until=6)])
    acted = _acted(faults, {0: 8, 1: 3}, record_trace)
    assert acted == {0: list(range(8)), 1: [0]}


@pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
def test_a_done_program_that_crashes_does_not_hold_the_run_open(record_trace):
    # Node 1 is done from slot 2 on and down for [3, 40): its recovery
    # used to keep the run going until slot 41.
    graph = Graph(nodes=[0, 1], edges=[(0, 1)])
    faults = FaultSchedule(crash_faults=[CrashFault(slot=3, node=1, until=40)])
    engine = Engine(graph, {0: Clocked(4), 1: Clocked(2)}, faults=faults,
                    record_trace=record_trace)
    assert engine.run(100).slots == 4
    metrics, _observed, _graph = spec.run(graph, {0: Clocked(4), 1: Clocked(2)}, 100,
                                          faults=faults)
    assert metrics.slots == 4


def test_step_applies_faults_as_run_does():
    graph = TOPOLOGIES["grid-4x4"]()

    def stepped(record_trace):
        programs, _params = make_broadcast_programs(graph, {0})
        engine = Engine(graph, programs, seed=5, initiators={0},
                        faults=SCHEDULES["combined"], record_trace=record_trace)
        for _ in range(40):
            engine.step()
        return engine.metrics, {node: p.result() for node, p in programs.items()}

    programs, _params = make_broadcast_programs(graph, {0})
    engine = Engine(graph, programs, seed=5, initiators={0}, faults=SCHEDULES["combined"])
    run = engine.run(40)
    assert run.slots == 40
    assert stepped(False) == stepped(True) == (run.metrics, run.node_results())


@pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
def test_step_past_the_end_applies_no_faults(record_trace):
    # The run is over at slot 1, so the edge removal due at slot 2 never
    # fires, stepped or run: the final graph is the spec's.
    graph = Graph(nodes=[0, 1], edges=[(0, 1)])
    faults = FaultSchedule(edge_faults=[EdgeFault(slot=2, u=0, v=1)])
    engine = Engine(graph, {0: Clocked(1), 1: Clocked(1)}, faults=faults,
                    record_trace=record_trace)
    for _ in range(4):
        engine.step()
    assert engine.slot == 4
    assert engine.graph.has_edge(0, 1)
    run = Engine(graph, {0: Clocked(1), 1: Clocked(1)}, faults=faults,
                 record_trace=record_trace).run(10)
    assert run.slots == 1
    _metrics, _observed, final = spec.run(graph, {0: Clocked(1), 1: Clocked(1)}, 10,
                                          faults=faults)
    assert run.graph.has_edge(0, 1) and final.has_edge(0, 1)


@pytest.mark.parametrize("schedule", [None, "combined"])
@pytest.mark.parametrize("record_trace", [False, True], ids=["lean", "general"])
def test_a_finished_engine_is_freed_without_the_cyclic_collector(schedule, record_trace):
    # A bound method stored on the engine would make it a reference
    # cycle: every finished engine of a campaign would then stay in
    # memory until the cyclic collector ran.
    graph = TOPOLOGIES["grid-4x4"]()
    programs, _params = make_broadcast_programs(graph, {0})
    faults = SCHEDULES[schedule] if schedule else None
    gc.disable()
    try:
        engine = Engine(graph, programs, initiators={0}, faults=faults,
                        record_trace=record_trace)
        engine.run(30)
        engine.step()
        gone = weakref.ref(engine)
        del engine
        assert gone() is None
    finally:
        gc.enable()
