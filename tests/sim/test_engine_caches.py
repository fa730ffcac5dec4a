"""Regression tests for the engine's hot-path caches.

The engine caches three things across slots: the audibility map (keyed
on the graph's version counter), the done-set (relying on monotone
``is_done``), and the indexed fault schedule.  Each cache has a way to
go stale; these tests pin the invalidation behaviour.  Cases that do
not need a fault schedule run twice: as written, untraced, and again
in a ``...GeneralLoop`` class that sets ``record_trace = True``, which
makes the run observed (every live program acts every slot, and every
receiver is resolved from its audible list).
"""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.errors import ProtocolError
from repro.graphs import line, star
from repro.sim import (
    SILENCE,
    Context,
    EdgeFault,
    Engine,
    FaultSchedule,
    Idle,
    NodeProgram,
    Receive,
    Transmit,
)


class Beacon(NodeProgram):
    def act(self, ctx: Context) -> Any:
        return Transmit("b")


class Listener(NodeProgram):
    def __init__(self) -> None:
        self.heard: list[Any] = []

    def act(self, ctx: Context) -> Any:
        return Receive()

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.heard.append(heard)


class DoneCounter(NodeProgram):
    """Never done; counts how often the engine polls ``is_done``."""

    def __init__(self) -> None:
        self.is_done_calls = 0

    def act(self, ctx: Context) -> Any:
        return Idle()

    def is_done(self, ctx: Context) -> bool:
        self.is_done_calls += 1
        return False


class DoneAfter(NodeProgram):
    """Done from a fixed slot on; counts polls after reporting done."""

    def __init__(self, at_slot: int) -> None:
        self.at_slot = at_slot
        self.polls_after_done = 0

    def act(self, ctx: Context) -> Any:
        return Idle()

    def is_done(self, ctx: Context) -> bool:
        done = ctx.slot >= self.at_slot
        if ctx.slot > self.at_slot:
            self.polls_after_done += 1
        return done


class TestAudibleCacheInvalidation:
    record_trace = False
    def test_edge_fault_changes_audible_transmitters(self):
        """The satellite regression guard: a mid-run edge removal must
        change what ``_audible_transmitters`` reports afterwards."""
        listeners = {1: Listener(), 2: Listener()}
        schedule = FaultSchedule(edge_faults=[EdgeFault(slot=2, u=0, v=1)])
        engine = Engine(
            line(3), {0: Beacon(), **listeners}, initiators={0}, faults=schedule
        )
        assert engine._audible_transmitters(1, {0: "m"}) == [0]
        for _ in range(4):
            engine.step()
        assert engine._audible_transmitters(1, {0: "m"}) == []
        # Node 1 heard the beacon only while the edge existed.
        assert listeners[1].heard == ["b", "b", SILENCE, SILENCE]

    def test_edge_fault_add_brings_transmitter_into_range(self):
        listener = Listener()
        schedule = FaultSchedule(edge_faults=[EdgeFault(slot=1, u=0, v=2, kind="add")])
        engine = Engine(
            line(3),
            {0: Beacon(), 1: Listener(), 2: listener},
            initiators={0},
            faults=schedule,
        )
        assert engine._audible_transmitters(2, {0: "m"}) == []
        engine.step()
        engine.step()
        assert engine._audible_transmitters(2, {0: "m"}) == [0]
        assert listener.heard == [SILENCE, "b"]

    def test_out_of_band_graph_mutation_is_picked_up(self):
        """Mutating ``engine.graph`` directly (no fault schedule) must
        invalidate the cached audibility map via the version counter."""
        listeners = {1: Listener(), 2: Listener()}
        engine = Engine(line(3), {0: Beacon(), **listeners},
                        initiators={0}, record_trace=self.record_trace)
        assert engine._observed is self.record_trace
        assert engine._audible_transmitters(1, {0: "m"}) == [0]
        engine.step()
        engine.graph.remove_edge(0, 1)
        assert engine._audible_transmitters(1, {0: "m"}) == []
        engine.graph.add_edge(0, 2)
        assert engine._audible_transmitters(2, {0: "m"}) == [0]
        engine.step()
        assert listeners[1].heard == ["b", SILENCE]
        assert listeners[2].heard == [SILENCE, "b"]

    def test_out_of_band_mutation_with_several_transmitters(self):
        """The same, on slots with two transmitters (scatter and
        intersection resolution)."""
        listeners = {node: Listener() for node in (2, 3, 4)}
        graph = line(5)  # 0-1-2-3-4; beacons at 0 and 1
        engine = Engine(graph, {0: Beacon(), 1: Beacon(), **listeners},
                        initiators={0, 1}, record_trace=self.record_trace)
        engine.step()
        engine.graph.add_edge(0, 2)
        engine.graph.add_edge(0, 3)
        engine.step()
        engine.graph.remove_edge(0, 2)
        engine.graph.remove_edge(1, 2)
        engine.step()
        assert listeners[2].heard == ["b", SILENCE, SILENCE]
        assert listeners[3].heard == [SILENCE, "b", "b"]
        assert engine.metrics.collisions == 1


class TestOutOfBandMutationGeneralLoop:
    record_trace = True
    test_out_of_band_graph_mutation_is_picked_up = (
        TestAudibleCacheInvalidation.test_out_of_band_graph_mutation_is_picked_up
    )
    test_out_of_band_mutation_with_several_transmitters = (
        TestAudibleCacheInvalidation.test_out_of_band_mutation_with_several_transmitters
    )


class TestDoneSetCaching:
    record_trace = False

    def test_is_done_polled_once_per_node_per_slot(self):
        """The done-set must collapse the run-loop check and the intent
        collection into one ``is_done`` call per live node per slot."""
        programs = {node: DoneCounter() for node in range(4)}
        engine = Engine(star(3), programs, initiators={0}, record_trace=self.record_trace)
        engine.run(5)
        assert [p.is_done_calls for p in programs.values()] == [5, 5, 5, 5]

    def test_done_nodes_never_polled_again(self):
        hub = DoneAfter(at_slot=2)
        leaves = {leaf: DoneCounter() for leaf in (1, 2, 3)}
        engine = Engine(star(3), {0: hub, **leaves}, initiators={0},
                        record_trace=self.record_trace)
        engine.run(6)
        assert hub.polls_after_done == 0
        assert all(p.is_done_calls == 6 for p in leaves.values())

    def test_run_stops_at_first_all_done_slot(self):
        programs = {node: DoneAfter(at_slot=3) for node in range(3)}
        engine = Engine(line(3), programs, initiators={0}, record_trace=self.record_trace)
        result = engine.run(100)
        assert result.slots == 3

    def test_step_past_all_done_advances_the_clock(self):
        programs = {node: DoneAfter(at_slot=1) for node in range(3)}
        engine = Engine(line(3), programs, initiators={0}, record_trace=self.record_trace)
        for _ in range(3):
            engine.step()
        assert engine.slot == engine.metrics.slots == 3
        assert all(p.polls_after_done == 0 for p in programs.values())
        if self.record_trace:  # one record per stepped slot, past the end too
            assert [record.slot for record in engine.trace] == [0, 1, 2]


class Scripted(NodeProgram):
    """Returns one fixed intent every slot; logs what it hears."""

    def __init__(self, intent: Any) -> None:
        self.intent = intent
        self.heard: list[Any] = []

    def act(self, ctx: Context) -> Any:
        return self.intent

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.heard.append(heard)


@dataclass(frozen=True)
class LoudTransmit(Transmit):
    pass


@dataclass(frozen=True)
class PoliteReceive(Receive):
    pass


@dataclass(frozen=True)
class LazyIdle(Idle):
    pass


class TestIntentValidation:
    """Both loops file intents through one validator, with one wording."""

    record_trace = False

    def test_spontaneous_transmission_rejected(self):
        engine = Engine(line(2), {0: Listener(), 1: Beacon()}, initiators={0},
                        record_trace=self.record_trace)
        with pytest.raises(ProtocolError) as info:
            engine.run(3)
        assert str(info.value) == (
            "node 1 transmitted spontaneously at slot 0 "
            "(Definition 1, rule 5; pass enforce_no_spontaneous=False to allow)"
        )

    def test_bad_intent_rejected(self):
        engine = Engine(line(2), {0: Scripted("bogus"), 1: Listener()},
                        initiators={0}, record_trace=self.record_trace)
        with pytest.raises(ProtocolError) as info:
            engine.run(3)
        assert str(info.value) == "node 0 returned 'bogus'; expected Transmit/Receive/Idle"

    def test_fresh_intents_and_subclasses_accepted(self):
        programs = {
            0: Scripted(LoudTransmit("x")),
            1: Scripted(Receive()),
            2: Scripted(PoliteReceive()),
            3: Scripted(Idle()),
            4: Scripted(LazyIdle()),
        }
        engine = Engine(star(4), programs, initiators={0}, record_trace=self.record_trace)
        result = engine.run(2)
        assert programs[1].heard == programs[2].heard == ["x", "x"]
        assert programs[3].heard == programs[4].heard == []
        assert result.metrics.transmissions == 2
        assert result.metrics.deliveries == 4


class TestDoneSetCachingGeneralLoop(TestDoneSetCaching):
    record_trace = True


class TestIntentValidationGeneralLoop(TestIntentValidation):
    record_trace = True
