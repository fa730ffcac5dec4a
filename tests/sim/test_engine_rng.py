"""The engine creates a node's coin stream the first time ``ctx.rng`` is read.

Streams are counted by patching ``repro.rng.spawn_for_node``, the module
attribute the engine looks up at call time (and the one perfbench's
tracer patches to count ``rng.spawns``).
"""

import copy
import pickle
import random
from collections import Counter

import pytest

from repro import rng as rng_mod
from repro.graphs.generators import c_n
from repro.protocols.base import run_broadcast
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs
from repro.sim import Context, Engine, NodeProgram, RECEIVE

N = 24
HIDDEN = frozenset({3, 7, 8, 20})
SINK = N + 1


class CountingRandom(random.Random):
    """A node stream that counts its ``random()`` draws."""

    draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()


@pytest.fixture
def spawned(monkeypatch):
    """Patch the module's ``spawn_for_node``; return node -> streams made."""
    streams: dict = {}

    def spy(run_seed, node):
        stream = CountingRandom(rng_mod.derive_seed(run_seed, "node", node))
        streams.setdefault(node, []).append(stream)
        return stream

    monkeypatch.setattr(rng_mod, "spawn_for_node", spy)
    return streams


@pytest.mark.parametrize("stop", ["informed", "terminated"])
@pytest.mark.parametrize("protocol", ["round-robin", "dfs"])
def test_deterministic_protocols_create_no_stream(spawned, protocol, stop):
    graph = c_n(N, HIDDEN)
    if protocol == "round-robin":
        programs = make_round_robin_programs(graph, 0, frame_size=N + 2, max_frames=2)
    else:
        programs = make_dfs_programs(graph, 0)
    result = run_broadcast(graph, programs, initiators={0}, max_slots=8 * (N + 2), stop=stop)
    assert result.broadcast_succeeded(source=0)
    assert spawned == {}


@pytest.mark.parametrize("align", [True, False], ids=["aligned", "unaligned"])
@pytest.mark.parametrize("seed", [0, 5, 86028121])
def test_decay_creates_one_stream_per_node_that_draws(spawned, seed, align):
    result = run_decay_broadcast(c_n(N, HIDDEN), 0, seed=seed, align_phases=align,
                                 stop="informed")
    assert result.broadcast_succeeded(source=0)
    drew = {node for node, streams in spawned.items() if streams[0].draws}
    assert drew == set(spawned)  # every stream created was drawn from
    assert Counter({node: len(s) for node, s in spawned.items()}) == dict.fromkeys(drew, 1)
    started = {
        node
        for node, program in result.programs.items()
        if program._decay is not None or program._phases_done
    }
    assert drew == started and 0 in drew
    # The run stops once the sink is informed, before it could draw.
    assert SINK not in spawned


class Flipper(NodeProgram):
    """Draws ``count`` coins in slot 0 and always listens."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.coins: list[float] = []

    def act(self, ctx):
        if ctx.slot == 0:
            self.coins = [ctx.rng.random() for _ in range(self.count)]
        return RECEIVE


def test_draws_equal_spawn_for_node():
    graph = c_n(4, {1, 2})
    programs = {node: Flipper(node + 1) for node in graph.nodes}
    Engine(graph, programs, seed=-77).run(1)
    for node, program in programs.items():
        stream = rng_mod.spawn_for_node(-77, node)
        assert program.coins == [stream.random() for _ in range(node + 1)]


def _engine_context():
    """Node 3's context in an engine with seed 1234, never read."""
    graph = c_n(4, {1, 2})
    engine = Engine(graph, {v: Flipper(0) for v in graph.nodes}, seed=1234)
    return engine._contexts[3]


def _clones(ctx):
    return {
        "copy": copy.copy(ctx),
        "deepcopy": copy.deepcopy(ctx),
        "pickle": pickle.loads(pickle.dumps(ctx)),
    }


@pytest.mark.parametrize("first_draws", [0, 1, 5])
def test_copies_continue_the_same_stream(spawned, first_draws):
    ctx = _engine_context()
    oracle = random.Random(rng_mod.derive_seed(1234, "node", 3))
    for _ in range(first_draws):
        assert ctx.rng.random() == oracle.random()
    state = oracle.getstate()
    for how, clone in _clones(ctx).items():
        assert (clone.node, clone.neighbor_ids, clone.slot) == (3, ctx.neighbor_ids, 0), how
        if how == "copy" and first_draws:
            continue  # a shallow copy shares the stream it copied
        oracle.setstate(state)
        assert [clone.rng.random() for _ in range(3)] == [oracle.random() for _ in range(3)], how
    # Only copies taken before the first read create streams of their own.
    assert len(spawned[3]) == (1 if first_draws else 3)


def test_shallow_copy_after_first_draw_shares_the_stream():
    ctx = _engine_context()
    ctx.rng.random()
    assert copy.copy(ctx).rng is ctx.rng
    assert copy.deepcopy(ctx).rng is not ctx.rng


def test_explicit_context_keeps_its_rng(spawned):
    stream = random.Random(5)
    ctx = Context(7, frozenset({1}), stream)
    assert ctx.rng is stream
    assert copy.copy(ctx).rng is stream
    assert spawned == {}
