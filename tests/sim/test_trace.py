"""Tests for trace recording."""

from typing import Any

from repro.graphs import line, star
from repro.sim import (
    SILENCE,
    Context,
    Engine,
    Idle,
    NodeProgram,
    Receive,
    SlotRecord,
    Trace,
    Transmit,
)
from repro.sim.faults import FaultSchedule, JamFault


class Beacon(NodeProgram):
    def __init__(self, message: Any = "b") -> None:
        self.message = message

    def act(self, ctx: Context) -> Any:
        return Transmit(self.message)


class Listener(NodeProgram):
    def act(self, ctx: Context) -> Any:
        return Receive()


def traced_run(graph, programs, initiators, slots):
    engine = Engine(
        graph, programs, initiators=initiators, record_trace=True
    )
    result = engine.run(slots)
    assert result.trace is not None
    return result


class TestTraceRecording:
    def test_no_trace_by_default(self):
        engine = Engine(line(2), {0: Beacon(), 1: Listener()}, initiators={0})
        assert engine.run(2).trace is None

    def test_record_one_slot(self):
        result = traced_run(line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1)
        rec = result.trace[0]
        assert rec.slot == 0
        assert rec.transmitters == {0: "m"}
        assert rec.receivers == frozenset({1})
        assert rec.heard == {1: "m"}
        assert rec.deliveries == {1: (0, "m")}
        assert rec.conflict_counts == {1: 1}

    def test_collision_recorded(self):
        result = traced_run(
            star(2), {0: Listener(), 1: Beacon("a"), 2: Beacon("b")}, {1, 2}, 1
        )
        rec = result.trace[0]
        assert rec.heard[0] is SILENCE
        assert rec.deliveries == {}
        assert rec.conflict_counts[0] == 2
        assert rec.collided_receivers == frozenset({0})

    def test_trace_length_matches_slots(self):
        result = traced_run(line(2), {0: Beacon(), 1: Listener()}, {0}, 7)
        assert len(result.trace) == 7
        assert [rec.slot for rec in result.trace] == list(range(7))


class TestTraceQueries:
    def setup_method(self):
        self.result = traced_run(
            line(2), {0: Beacon("m"), 1: Listener()}, {0}, 5
        )
        self.trace = self.result.trace

    def test_total_transmissions(self):
        assert self.trace.total_transmissions() == 5

    def test_transmissions_by(self):
        assert self.trace.transmissions_by(0) == 5
        assert self.trace.transmissions_by(1) == 0

    def test_first_delivery_slot(self):
        assert self.trace.first_delivery_slot(1) == 0
        assert self.trace.first_delivery_slot(0) is None

    def test_deliveries_to(self):
        deliveries = self.trace.deliveries_to(1)
        assert len(deliveries) == 5
        assert deliveries[0] == (0, 0, "m")

    def test_total_collisions_zero_here(self):
        assert self.trace.total_collisions() == 0

    def test_iteration(self):
        assert all(isinstance(rec, SlotRecord) for rec in self.trace)


def test_jam_noise_is_not_a_transmission():
    """A jammer's noise is metered apart from transmissions, in the
    trace as in ``RunMetrics``."""
    engine = Engine(
        star(2), {0: Listener(), 1: Beacon(), 2: Listener()}, initiators={1},
        faults=FaultSchedule(jam_faults=[JamFault(node=2, start=0, end=3)]),
        record_trace=True,
    )
    result = engine.run(3)
    assert result.metrics.transmissions == 3
    assert result.metrics.jam_transmissions == 3
    assert result.trace.total_transmissions() == 3
    assert result.trace.transmissions_by(1) == 3
    assert result.trace.transmissions_by(2) == 0


def test_empty_trace():
    trace = Trace()
    assert len(trace) == 0
    assert trace.total_transmissions() == 0
    assert trace.first_delivery_slot(0) is None
