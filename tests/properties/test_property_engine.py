"""Property-based tests of the engine's radio semantics.

The central invariant of the whole reproduction: whatever the programs
do, a node is delivered a message in a slot iff it was receiving and
exactly one of its neighbours transmitted — and no-CD observations never
distinguish collision from silence.
"""

import random
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.sim import (
    COLLISION,
    SILENCE,
    CollisionDetectingMedium,
    Context,
    Engine,
    Idle,
    NodeProgram,
    Receive,
    Transmit,
)
from repro.sim.faults import FaultSchedule, JamFault


class RandomActor(NodeProgram):
    """Acts randomly each slot using its private stream; logs everything."""

    def __init__(self, p_transmit: float) -> None:
        self.p_transmit = p_transmit
        self.actions: list[str] = []
        self.observations: list[Any] = []

    def act(self, ctx: Context):
        roll = ctx.rng.random()
        if roll < self.p_transmit:
            self.actions.append("T")
            return Transmit(("from", ctx.node))
        if roll < self.p_transmit + 0.4:
            self.actions.append("R")
            return Receive()
        self.actions.append("I")
        return Idle()

    def on_observe(self, ctx: Context, heard: Any) -> None:
        self.observations.append((ctx.slot, heard))


edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=25,
)


def run_random_system(edges, seed, slots, medium=None, faults=None):
    g = Graph(nodes=range(10), edges=edges)
    programs = {node: RandomActor(0.3) for node in g.nodes}
    engine = Engine(
        g,
        programs,
        seed=seed,
        medium=medium,
        initiators=set(g.nodes),
        record_trace=True,
        faults=faults,
    )
    result = engine.run(slots)
    return g, programs, result


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(0, 10**6), st.integers(1, 12))
def test_reception_rule_exact(edges, seed, slots):
    g, programs, result = run_random_system(edges, seed, slots)
    for rec in result.trace:
        for receiver in rec.receivers:
            transmitting_neighbors = [
                t for t in rec.transmitters if g.has_edge(t, receiver)
            ]
            if len(transmitting_neighbors) == 1:
                sender = transmitting_neighbors[0]
                assert rec.heard[receiver] == ("from", sender)
                assert rec.deliveries[receiver] == (sender, ("from", sender))
            else:
                assert rec.heard[receiver] is SILENCE
                assert receiver not in rec.deliveries
            assert rec.conflict_counts[receiver] == len(transmitting_neighbors)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(0, 10**6), st.integers(1, 12))
def test_no_cd_observations_never_leak_collision_info(edges, seed, slots):
    _g, programs, result = run_random_system(edges, seed, slots)
    for program in programs.values():
        for _slot, heard in program.observations:
            assert heard is not COLLISION


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(0, 10**6), st.integers(1, 12))
def test_cd_medium_reports_collisions_exactly(edges, seed, slots):
    g, _programs, result = run_random_system(
        edges, seed, slots, medium=CollisionDetectingMedium()
    )
    for rec in result.trace:
        for receiver in rec.receivers:
            count = rec.conflict_counts[receiver]
            if count == 0:
                assert rec.heard[receiver] is SILENCE
            elif count >= 2:
                assert rec.heard[receiver] is COLLISION


@settings(max_examples=40, deadline=None)
@given(edge_lists, st.integers(0, 10**6), st.integers(1, 10))
def test_runs_are_reproducible(edges, seed, slots):
    _, programs_a, result_a = run_random_system(edges, seed, slots)
    _, programs_b, result_b = run_random_system(edges, seed, slots)
    assert result_a.metrics.first_reception == result_b.metrics.first_reception
    assert result_a.metrics.transmissions == result_b.metrics.transmissions
    for node in programs_a:
        assert programs_a[node].actions == programs_b[node].actions


#: Jam windows ``(node, start, length)``: jam noise is metered apart
#: from transmissions, in the trace as in the metrics.
jam_windows = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 4)), max_size=3
)


@settings(max_examples=40, deadline=None)
@given(edge_lists, st.integers(0, 10**6), st.integers(1, 10), jam_windows)
def test_metrics_agree_with_trace(edges, seed, slots, jams):
    faults = FaultSchedule(jam_faults=[
        JamFault(node=node, start=start, end=start + length)
        for node, start, length in jams
    ])
    _g, _programs, result = run_random_system(edges, seed, slots, faults=faults)
    trace = result.trace
    assert result.metrics.transmissions == trace.total_transmissions()
    assert result.metrics.collisions == trace.total_collisions()
    delivered = sum(len(rec.deliveries) for rec in trace)
    assert result.metrics.deliveries == delivered
    for node, slot in result.metrics.first_reception.items():
        assert trace.first_delivery_slot(node) == slot
