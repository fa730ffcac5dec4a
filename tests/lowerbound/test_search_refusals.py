"""The C_n search refuses what it cannot settle.

Each toy protocol below is also run through the enumeration, which shows
the number the search would have got wrong had it returned one.
"""

import pytest

from repro.core.schedule import greedy_layer_schedule
from repro.errors import ExperimentError, ProtocolError
from repro.lowerbound.bruteforce import (
    adversarial_cn_worst_case,
    exhaustive_cn_worst_case,
)
from repro.protocols.dfs_broadcast import DFSBroadcastProgram, make_dfs_programs
from repro.protocols.round_robin import RoundRobinProgram, make_round_robin_programs
from repro.protocols.scheduled import make_scheduled_programs
from repro.sim.node import IDLE, RECEIVE, NodeProgram, Transmit

N = 6


class DelayingRoundRobin(RoundRobinProgram):
    """Round robin, except that node 1 reads its neighbour set at its
    first turn and, if the sink is there, waits one frame."""

    def __init__(self, *args, sink, **kwargs):
        super().__init__(*args, **kwargs)
        self.sink = sink
        self.looked = False

    def act(self, ctx):
        if self.slot_index == 1 and self.message is not None and not self.looked:
            self.looked = True
            if self.sink in ctx.neighbor_ids:
                return RECEIVE
        return super().act(ctx)


def make_delaying(g):
    sink = g.num_nodes() - 1
    return {
        node: DelayingRoundRobin(
            node, sink + 1, initial_message="m" if node == 0 else None, sink=sink
        )
        for node in g.nodes
    }


class PeekingSink(DFSBroadcastProgram):
    """DFS, but the program reads its neighbour set every slot."""

    def act(self, ctx):
        ctx.neighbor_ids
        return super().act(ctx)


def make_peeking_sink(g):
    sink = g.num_nodes() - 1
    programs = make_dfs_programs(g, 0)
    programs[sink] = PeekingSink()
    return programs


class EchoOnce(NodeProgram):
    """Once informed, transmit once, in the next slot."""

    def __init__(self):
        self.message = None
        self.echoed = False

    def act(self, ctx):
        if self.echoed:
            return IDLE
        if self.message is None:
            return RECEIVE
        self.echoed = True
        return Transmit(self.message)

    def on_observe(self, ctx, heard):
        if self.message is None and isinstance(heard, str):
            self.message = heard


def make_echo(g):
    programs = make_round_robin_programs(g, 0, frame_size=g.num_nodes())
    for node in range(1, g.num_nodes() - 1):
        programs[node] = EchoOnce()
    return programs


class Chatter(NodeProgram):
    """Transmits in slot 0, informed or not."""

    def act(self, ctx):
        return Transmit("x") if ctx.slot == 0 else RECEIVE


def make_chatter(g):
    programs = make_round_robin_programs(g, 0, frame_size=g.num_nodes())
    programs[1] = Chatter()
    return programs


def test_a_branch_that_does_not_settle_in_its_slot_is_refused():
    # Node 1 with the sink as a neighbour waits a frame: S = {1} completes
    # at slot N + 3, later than the line (χ_1 = 0, forced χ_N = 1) at N.
    oracle = exhaustive_cn_worst_case(make_delaying, N)
    assert oracle.worst_slots == N + 3 > N
    assert oracle.worst_set == frozenset({1})
    with pytest.raises(ExperimentError, match=r"node 1's χ = 1 branch .* slot 1"):
        adversarial_cn_worst_case(make_delaying, N)


def test_a_topology_aware_factory_is_refused():
    def make(g):
        return make_scheduled_programs(g, 0, greedy_layer_schedule(g, 0))

    # Built from each G_S, the schedule beats Theorem 12's n/8: it knows S.
    oracle = exhaustive_cn_worst_case(make, 8)
    assert oracle.worst_slots + 1 < 8 / 2
    with pytest.raises(ExperimentError, match="program factory read graph.neighbors"):
        adversarial_cn_worst_case(make, 8)


def test_a_spontaneous_transmitter_trips_the_engine():
    with pytest.raises(ProtocolError, match="spontaneously"):
        exhaustive_cn_worst_case(make_chatter, N)
    with pytest.raises(ProtocolError, match="node 1 transmitted spontaneously"):
        adversarial_cn_worst_case(make_chatter, N)


def test_a_sink_reading_its_neighbours_while_uninformed_is_refused():
    # Reading S does not change what this sink does, so the enumeration
    # still finds DFS's 2n - 1; the search cannot know that.
    assert exhaustive_cn_worst_case(make_peeking_sink, N).worst_slots == 2 * N - 1
    with pytest.raises(ExperimentError, match="the sink reads its neighbour set"):
        adversarial_cn_worst_case(make_peeking_sink, N)


def test_two_undetermined_transmitters_in_one_slot_are_refused():
    # Two members of S echoing together collide at the sink, and nobody
    # transmits again; the line alone (only χ_N = 1) completes at slot 1.
    oracle = exhaustive_cn_worst_case(make_echo, N)
    assert (oracle.worst_slots, oracle.all_completed) == (4 * (N + 2), False)
    with pytest.raises(ExperimentError, match="nodes 1 and 2 are both decided at slot 1"):
        adversarial_cn_worst_case(make_echo, N)


def test_a_program_reading_its_coins_is_refused():
    class Coin(RoundRobinProgram):
        def act(self, ctx):
            ctx.rng.random()
            return super().act(ctx)

    def make(g):
        return {node: Coin(node, g.num_nodes(), initial_message="m" if node == 0 else None)
                for node in g.nodes}

    with pytest.raises(ExperimentError, match="coin stream"):
        adversarial_cn_worst_case(make, N)


def test_a_program_that_gains_an_attribute_is_refused():
    # Copies take the attribute names of a class's first copied
    # instance; a program that grows one later might have been copied
    # without it.
    class Growing(RoundRobinProgram):
        def on_observe(self, ctx, heard):
            super().on_observe(ctx, heard)
            self.heard_at = ctx.slot

    def make(g):
        return {node: Growing(node, g.num_nodes(), initial_message="m" if node == 0 else None)
                for node in g.nodes}

    with pytest.raises(ExperimentError, match=r"gained attribute\(s\) \['heard_at'\]"):
        adversarial_cn_worst_case(make, N)


class Forwarding:
    """An attribute-forwarding proxy with ``__slots__``, like a profiler's."""

    __slots__ = ("_program", "_act", "calls")

    def __init__(self, program):
        self._program = program
        self._act = program.act
        self.calls = [0]

    def act(self, ctx):
        self.calls[0] += 1
        return self._act(ctx)

    def __getattr__(self, name):
        return getattr(self._program, name)


def test_programs_behind_a_forwarding_proxy_are_searched():
    def make(g):
        return {node: Forwarding(p) for node, p in make_dfs_programs(g, 0).items()}

    for n in (1, 5, 9):
        assert adversarial_cn_worst_case(make, n).worst_slots == 2 * n - 1
