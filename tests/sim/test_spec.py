"""Differential tests: the engine, untraced and traced, against the spec.

:mod:`repro.sim.spec` resolves each slot straight from Definition 1.
Scripted programs replay random Transmit/Receive/Idle intents on small
graphs and digraphs; the spec, an untraced run and a traced run must
agree on every observation and on the ``RunMetrics``.  A traced run,
like any run on a collision-detecting medium, is *observed*: it ignores
``wake`` and resolves every receiver from its audible list, so the two
engine runs take different paths through the one slot loop.  Sleeping
programs, which override ``NodeProgram.wake`` with honest random
schedules, must leave the untraced run equal to both, on either medium,
and so must programs that pick their intents from ``ctx.rng`` coins.
Under random schedules of every fault family, overlapping crashes
included, both runs must match the spec's fault rules on either medium.
The traced run records provenance too, and its slot log must hold, per
receiver, the surviving signals and observation the spec resolved.
In test names, the "lean loop" is the untraced run and the "general
loop" the traced one.  A last property checks that trace, provenance
and telemetry never change a ``RunResult``.
"""

import random
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.graphs import DiGraph, Graph
from repro.protocols.decay_broadcast import make_broadcast_programs
from repro.sim import (
    COLLISION,
    IDLE,
    RECEIVE,
    SILENCE,
    CollisionDetectingMedium,
    Context,
    CrashFault,
    EdgeFault,
    Engine,
    FaultSchedule,
    Idle,
    JamFault,
    LinkLossFault,
    NodeProgram,
    RadioMedium,
    Receive,
    Transmit,
    spec,
)
from repro.telemetry.core import Telemetry

SLOTS = 8


class Scripted(NodeProgram):
    """Replays a fixed script of intent codes; done from ``done_at`` on.

    ``T`` transmits once the node holds a message (it is an initiator
    or has been delivered one) and listens before; ``S`` transmits
    regardless, which rule 5 may reject; ``R``/``I`` return the shared
    intents and ``r``/``i`` fresh instances, which take the engine's
    ``isinstance`` fallback.
    """

    def __init__(self, codes: str, done_at: int, informed: bool) -> None:
        self.codes = codes
        self.done_at = done_at
        self.informed = informed
        self.log: list[tuple[int, Any]] = []

    def act(self, ctx: Context) -> Any:
        code = self.codes[ctx.slot]
        if code == "S" or (code == "T" and self.informed):
            return Transmit(("m", ctx.node, ctx.slot))
        return {"T": RECEIVE, "R": RECEIVE, "I": IDLE, "r": Receive(), "i": Idle()}[code]

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.log.append((ctx.slot, heard))
        if heard is not SILENCE and heard is not COLLISION:
            self.informed = True

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.done_at


@st.composite
def cases(draw):
    n = draw(st.integers(1, 7))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = (DiGraph if directed else Graph)(nodes=range(n), edges=edges)
    weights = draw(st.sampled_from(["TTRRI", "TRRRRri", "TTTTRI", "TTRRS"]))
    codes = st.text(alphabet=weights, min_size=SLOTS, max_size=SLOTS)
    scripts = {node: draw(codes) for node in range(n)}
    done_at = {node: draw(st.integers(0, SLOTS + 1)) for node in range(n)}
    initiators = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    enforce = draw(st.booleans())
    collision_detection = draw(st.booleans())
    return graph, scripts, done_at, initiators, enforce, collision_detection


def _programs(graph, scripts, done_at, initiators):
    return {
        node: Scripted(scripts[node], done_at[node], node in initiators)
        for node in graph.nodes
    }


def _outcome(run):
    """A run's result, or the ProtocolError message it raised."""
    try:
        return run()
    except ProtocolError as exc:
        return str(exc)


@settings(max_examples=250, deadline=None)
@given(cases())
def test_engine_loops_agree_with_spec(case):
    graph, scripts, done_at, initiators, enforce, collision_detection = case

    def spec_run():
        programs = _programs(graph, scripts, done_at, initiators)
        metrics, observed, _graph = spec.run(
            graph,
            programs,
            SLOTS,
            initiators=initiators,
            enforce_no_spontaneous=enforce,
            detects_collisions=collision_detection,
        )
        return metrics, observed, {node: p.log for node, p in programs.items()}

    def engine_run(record_trace):
        programs = _programs(graph, scripts, done_at, initiators)
        medium = CollisionDetectingMedium() if collision_detection else RadioMedium()
        engine = Engine(
            graph,
            programs,
            medium=medium,
            initiators=initiators,
            enforce_no_spontaneous=enforce,
            record_trace=record_trace,
        )
        assert engine._observed is (record_trace or collision_detection)
        result = engine.run(SLOTS)
        observed = (
            [dict(record.heard) for record in result.trace] if record_trace else None
        )
        return result.metrics, observed, {node: p.log for node, p in programs.items()}

    expected = _outcome(spec_run)
    lean = _outcome(lambda: engine_run(False))
    general = _outcome(lambda: engine_run(True))
    if isinstance(expected, str):
        assert lean == general == expected
        return
    metrics, observed, logs = expected
    assert lean[0] == metrics and lean[2] == logs
    assert general[0] == metrics and general[2] == logs
    assert general[1] == observed


class Sleeper(Scripted):
    """A :class:`Scripted` program that sleeps.

    After ``act`` and after a delivery, ``wake`` names a random slot no
    later than the first at which the program could act differently
    than its last intent, given what it has heard: a transmission, a
    switch between listening and idling, or ``done_at``.  When nothing
    changes before the script ends, any answer is honest, ``None``
    included.
    """

    def __init__(self, codes: str, done_at: int, informed: bool, seed: int) -> None:
        super().__init__(codes, done_at, informed)
        self.rng = random.Random(seed)
        self.listening = True

    def act(self, ctx: Context) -> Any:
        intent = super().act(ctx)
        self.listening = isinstance(intent, Receive)
        return intent

    def _next_change(self, slot: int) -> int | None:
        for later in range(slot + 1, SLOTS):
            code = self.codes[later]
            if later >= self.done_at or code == "S" or (code == "T" and self.informed):
                return later
            if (code in "Ii") is self.listening:
                return later
        return None

    def wake(self, ctx: Context) -> int | None:
        bound = self._next_change(ctx.slot)
        if bound is None:
            return self.rng.choice([None, ctx.slot + self.rng.randint(-1, SLOTS)])
        if self.rng.random() < 0.5:
            return bound
        return self.rng.randint(ctx.slot - 1, bound)


@st.composite
def sleepy_cases(draw):
    graph, scripts, done_at, initiators, enforce, cd = draw(cases())
    sleepers = {node: draw(st.integers(0, 2**16)) for node in graph.nodes
                if draw(st.integers(0, 3))}
    return graph, scripts, done_at, initiators, enforce, sleepers, cd


def _heard(programs):
    """Each program's deliveries (sleepers are not told of silence)."""
    return {
        node: [(slot, heard) for slot, heard in p.log if heard is not SILENCE]
        for node, p in programs.items()
    }


def _ordered(metrics):
    """The metrics with their per-node maps in insertion order."""
    return metrics, [
        list(d.items())
        for d in (metrics.first_reception, metrics.transmissions_per_node,
                  metrics.collisions_per_node)
    ]


@settings(max_examples=250, deadline=None)
@given(sleepy_cases())
def test_sleeping_programs_keep_the_lean_loop_equal_to_spec(case):
    """On a collision-detecting medium the run is observed and ignores
    ``wake``, so no sleeper sleeps through a ``COLLISION``."""
    graph, scripts, done_at, initiators, enforce, sleepers, cd = case

    def programs():
        return {
            node: Sleeper(scripts[node], done_at[node], node in initiators, sleepers[node])
            if node in sleepers
            else Scripted(scripts[node], done_at[node], node in initiators)
            for node in graph.nodes
        }

    def spec_run():
        progs = programs()
        metrics, _observed, _graph = spec.run(
            graph, progs, SLOTS, initiators=initiators, enforce_no_spontaneous=enforce,
            detects_collisions=cd,
        )
        return _ordered(metrics), _heard(progs)

    def engine_run(record_trace):
        progs = programs()
        medium = CollisionDetectingMedium() if cd else RadioMedium()
        engine = Engine(graph, progs, medium=medium, initiators=initiators,
                        enforce_no_spontaneous=enforce, record_trace=record_trace)
        assert engine._observed is (record_trace or cd)
        assert engine._sleepy is (record_trace or cd or bool(sleepers))
        result = engine.run(SLOTS)
        return _ordered(result.metrics), _heard(progs)

    expected = _outcome(spec_run)
    assert _outcome(lambda: engine_run(False)) == expected
    assert _outcome(lambda: engine_run(True)) == expected


@st.composite
def fault_schedules(draw, graph):
    """A random schedule of every fault family on ``graph``'s nodes,
    overlapping crashes and windows included."""
    nodes = sorted(graph.nodes)
    node = st.sampled_from(nodes)
    slot = st.integers(0, SLOTS + 1)
    span = st.integers(1, SLOTS)
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    schedule = FaultSchedule()
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            kind = draw(st.sampled_from(["remove", "add"]))
            schedule.edge_faults.append(EdgeFault(slot=draw(slot), u=u, v=v, kind=kind))
    for _ in range(draw(st.integers(0, 3))):
        start, until = draw(slot), draw(st.one_of(st.none(), span))
        schedule.crash_faults.append(
            CrashFault(slot=start, node=draw(node), until=None if until is None else start + until)
        )
    for _ in range(draw(st.integers(0, 2))):
        start = draw(slot)
        schedule.jam_faults.append(JamFault(node=draw(node), start=start, end=start + draw(span)))
    for _ in range(draw(st.integers(0, 2))):
        start, length = draw(slot), draw(st.one_of(st.none(), span))
        edges = None
        if pairs and draw(st.booleans()):
            edges = draw(st.lists(st.sampled_from(pairs), min_size=1))
        schedule.link_loss_faults.append(LinkLossFault(
            p=draw(st.sampled_from([0.3, 0.7, 1.0])), start=start,
            end=None if length is None else start + length, edges=edges,
        ))
    return schedule


@st.composite
def faulted_cases(draw):
    graph, scripts, done_at, initiators, enforce, sleepers, cd = draw(sleepy_cases())
    return (graph, scripts, done_at, initiators, enforce, sleepers,
            draw(fault_schedules(graph)), draw(st.integers(0, 2**16)), cd)


@settings(max_examples=300, deadline=None)
@given(faulted_cases())
def test_faulted_lean_loop_equals_general_loop(case):
    """Under any fault schedule, on either medium, the untraced and the
    traced run give the spec's slots, metrics in dict order,
    observations and final graph; only an unobserved run (plain medium,
    no trace) lets its programs sleep.  The traced run records
    provenance too, and each receiver's logged surviving signals and
    observation are what ``spec.resolve_slot`` gave that slot."""
    graph, scripts, done_at, initiators, enforce, sleepers, faults, seed, cd = case

    def programs():
        return {
            node: Sleeper(scripts[node], done_at[node], node in initiators, sleepers[node])
            if node in sleepers
            else Scripted(scripts[node], done_at[node], node in initiators)
            for node in graph.nodes
        }

    def outcome(progs, metrics, final):
        logs = {node: p.log for node, p in progs.items() if node not in sleepers}
        return (metrics.slots, _ordered(metrics), _heard(progs), logs,
                sorted(map(sorted, final.edges)))

    def spec_run():
        progs = programs()
        resolved = {}
        resolve_slot = spec.resolve_slot

        def recorded(*args, **kwargs):
            slot_outcome = resolve_slot(*args, **kwargs)
            for node, (observation, heard) in slot_outcome.items():
                resolved[kwargs["slot"], node] = (sorted(heard), observation)
            return slot_outcome

        with mock.patch.object(spec, "resolve_slot", wraps=recorded):
            metrics, observed, final = spec.run(
                graph, progs, SLOTS, seed=seed, initiators=initiators, faults=faults,
                enforce_no_spontaneous=enforce, detects_collisions=cd,
            )
        return outcome(progs, metrics, final), observed, resolved

    def engine_run(record_trace):
        progs = programs()
        medium = CollisionDetectingMedium() if cd else RadioMedium()
        engine = Engine(graph, progs, medium=medium, seed=seed, initiators=initiators,
                        faults=faults, enforce_no_spontaneous=enforce,
                        record_trace=record_trace, record_provenance=record_trace)
        observed = record_trace or cd
        assert engine._observed is observed
        assert engine._sleepy is (observed or bool(sleepers) or not faults.is_empty())
        result = engine.run(SLOTS)
        assert result.slots == result.metrics.slots
        if not record_trace:
            return outcome(progs, result.metrics, result.graph), None, None
        resolved = {
            (entry.slot, entry.node): (sorted(entry.signals), entry.observation)
            for entry in result.provenance
            if entry.detail != "crashed"
        }
        observed = [dict(r.heard) for r in result.trace]
        return outcome(progs, result.metrics, result.graph), observed, resolved

    expected = _outcome(spec_run)
    lean = _outcome(lambda: engine_run(False))
    general = _outcome(lambda: engine_run(True))
    if isinstance(expected, str):
        assert lean == general == expected
        return
    assert lean[0] == expected[0]
    assert general == expected


class Gambler(NodeProgram):
    """Picks its intents from coins drawn out of ``ctx.rng``.

    In a slot where ``plan`` asks for ``k > 0`` coins and no earlier
    draw still holds, it draws ``k``: the last picks transmit (once
    informed; listen before), receive or idle, and the first how many
    slots that choice holds.  With no coins due it follows ``codes``.
    Draws happen only in ``act``, so the spec (eager streams) and both
    loops (streams created on first read) must draw the same coins.
    """

    def __init__(self, plan: list[int], codes: str, done_at: int, informed: bool) -> None:
        self.plan = plan
        self.codes = codes
        self.done_at = done_at
        self.informed = informed
        self.code = "R"
        self.until = 0  # the slot from which act chooses anew
        self.coins: list[tuple[int, list[float]]] = []
        self.log: list[tuple[int, Any]] = []

    def act(self, ctx: Context) -> Any:
        slot = ctx.slot
        if slot >= self.until:
            self.until = slot + 1
            coins = [ctx.rng.random() for _ in range(self.plan[slot])]
            if coins:
                self.coins.append((slot, coins))
                self.code = "TRI"[int(coins[-1] * 3)]
                self.until += int(coins[0] * 4)
            else:
                self.code = self.codes[slot]
        if self.code == "T" and self.informed:
            return Transmit(("m", ctx.node, slot))
        return IDLE if self.code == "I" else RECEIVE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.log.append((ctx.slot, heard))
        if heard is not SILENCE:
            self.informed = True

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.done_at


class SleepingGambler(Gambler):
    """A :class:`Gambler` whose ``wake`` names the slot its hold ends.

    That is honest: nothing it does changes before then, unless a
    delivery informs a would-be transmitter, and ``wake`` is asked
    again after every delivery.
    """

    def wake(self, ctx: Context) -> int | None:
        if self.code == "T" and self.informed:
            return ctx.slot + 1
        return min(self.until, self.done_at)


@st.composite
def gambling_cases(draw):
    graph, scripts, done_at, initiators, enforce, _cd = draw(cases())
    gamblers = draw(st.sets(st.sampled_from(sorted(graph.nodes))))
    plans = {
        node: draw(st.lists(st.integers(0, 3), min_size=SLOTS, max_size=SLOTS))
        if node in gamblers
        else [0] * SLOTS
        for node in graph.nodes
    }
    seed = draw(st.integers(-(2**40), 2**40))
    return graph, scripts, done_at, initiators, enforce, plans, seed


@pytest.mark.parametrize("sleepy", [False, True], ids=["awake", "sleeping"])
@settings(max_examples=150, deadline=None)
@given(case=gambling_cases())
def test_coin_drawing_programs_keep_both_loops_equal_to_spec(sleepy, case):
    graph, scripts, done_at, initiators, enforce, plans, seed = case

    def programs():
        kind = SleepingGambler if sleepy else Gambler
        return {
            node: kind(plans[node], scripts[node], done_at[node], node in initiators)
            for node in graph.nodes
        }

    def observed(progs):
        heard = _heard(progs) if sleepy else {n: p.log for n, p in progs.items()}
        return heard, {node: p.coins for node, p in progs.items()}

    def spec_run():
        progs = programs()
        metrics, _observed, _graph = spec.run(graph, progs, SLOTS, seed=seed,
                                      initiators=initiators, enforce_no_spontaneous=enforce)
        return _ordered(metrics), observed(progs)

    def engine_run(record_trace):
        progs = programs()
        engine = Engine(graph, progs, seed=seed, initiators=initiators,
                        enforce_no_spontaneous=enforce, record_trace=record_trace)
        assert engine._observed is record_trace
        assert engine._sleepy is (sleepy or record_trace)
        result = engine.run(SLOTS)
        return _ordered(result.metrics), observed(progs)

    expected = _outcome(spec_run)
    assert _outcome(lambda: engine_run(False)) == expected
    assert _outcome(lambda: engine_run(True)) == expected


@st.composite
def broadcast_cases(draw):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    spine = [(node - 1, node) for node in range(1, n)]  # keep it connected
    edges = spine + draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    graph = Graph(nodes=range(n), edges=edges)
    faults = FaultSchedule()
    if draw(st.booleans()):
        slot = st.integers(0, 30)
        node = st.integers(1, n - 1)
        faults = FaultSchedule(
            edge_faults=[EdgeFault(slot=draw(slot), u=0, v=1)],
            crash_faults=[CrashFault(node=draw(node), slot=draw(slot), until=40)],
            jam_faults=[JamFault(node=draw(node), start=draw(slot), end=35)],
            link_loss_faults=[LinkLossFault(p=0.3, start=0, end=50)],
        )
    return graph, faults, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(broadcast_cases())
def test_instrumentation_never_changes_results(case):
    graph, faults, seed = case

    def result(trace, provenance, telemetry):
        programs, _params = make_broadcast_programs(graph, {0})
        engine = Engine(
            graph,
            programs,
            seed=seed,
            initiators={0},
            faults=faults,
            record_trace=trace,
            record_provenance=provenance,
            telemetry=Telemetry() if telemetry else None,
        )
        run = engine.run(300)
        return run.slots, run.metrics, run.node_results(), run.graph

    plain = result(False, False, False)
    for flags in [(True, False, False), (False, True, False), (False, False, True),
                  (True, True, True)]:
        assert result(*flags) == plain, flags


def test_spec_rejects_bad_intents():
    graph = Graph(nodes=[0, 1], edges=[(0, 1)])
    with pytest.raises(ProtocolError, match="expected Transmit"):
        spec.resolve_slot(graph, {0: "bogus"}, informed=set())
    with pytest.raises(ProtocolError, match="rule 5"):
        spec.resolve_slot(graph, {1: Transmit("x")}, informed={0})
