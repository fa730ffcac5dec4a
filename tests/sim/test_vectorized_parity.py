"""Bit-for-bit parity of the vectorized backend with the reference engine.

The backend contract (see :mod:`repro.sim.vectorized`): for the same
(graph, seed, protocol parameters), the NumPy batch backend must
produce *identical* :class:`~repro.sim.metrics.RunMetrics`, node
results and completion slots to the reference engine — not
statistically similar, identical.  These tests sweep randomized
topologies × seeds × protocol modes, so any divergence in draw ordering
or slot-resolution rules fails loudly on a concrete seed.  The backend
runs fault-free trials only; faulted runs are checked against
:mod:`repro.sim.spec` instead.  A last property holds the batches to
the spec itself: on random small graphs and seeds, the spec driving the
ALOHA and Decay programs each batch emulates gives the batch's metrics
and node results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.graphs import Graph, complete, grid, random_gnp, star
from repro.protocols.aloha import make_aloha_programs
from repro.protocols.decay_broadcast import make_broadcast_programs, run_decay_broadcast
from repro.rng import seed_sequence, spawn
from repro.sim import Engine, spec
from repro.sim.metrics import RunMetrics
from repro.sim.vectorized import run_aloha_batch, run_decay_broadcast_batch

TOPOLOGIES = {
    "gnp-16": lambda: random_gnp(16, 0.25, spawn(7, "parity")),
    "grid-4x4": lambda: grid(4, 4),
    "complete-8": lambda: complete(8),
    "star-9": lambda: star(9),
}

# The backend runs no fault schedule; "none" keeps each test's id and
# seed tags.
FAULT_FREE = ["none"]


def _seeds(*tags, count=3):
    return list(seed_sequence(20260807, count, "vec-parity", *tags))


def assert_metrics_equal(ref: RunMetrics, vec: RunMetrics) -> None:
    assert vec.slots == ref.slots
    assert vec.transmissions == ref.transmissions
    assert vec.collisions == ref.collisions
    assert vec.deliveries == ref.deliveries
    assert vec.jam_transmissions == ref.jam_transmissions
    assert vec.first_reception == ref.first_reception
    assert vec.transmissions_per_node == ref.transmissions_per_node
    assert vec.collisions_per_node == ref.collisions_per_node


def _reference_aloha(graph, seed, *, slots, p, active_slots=None):
    programs = make_aloha_programs(graph, 0, p=p, active_slots=active_slots)
    engine = Engine(graph, programs, seed=seed, initiators={0})
    return engine.run(slots)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("schedule", FAULT_FREE)
def test_aloha_parity(topology, schedule):
    graph = TOPOLOGIES[topology]()
    seeds = _seeds("aloha", topology, schedule)
    batch = run_aloha_batch(graph, 0, seeds, p=0.3, slots=60)
    for seed, vec in zip(seeds, batch):
        ref = _reference_aloha(graph, seed, slots=60, p=0.3)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.slots == ref.slots
        assert vec.node_results() == ref.node_results()
        assert vec.broadcast_completion_slot(
            source=0
        ) == ref.broadcast_completion_slot(source=0)


@pytest.mark.parametrize("schedule", FAULT_FREE)
def test_aloha_parity_with_active_slots_bound(schedule):
    graph = TOPOLOGIES["gnp-16"]()
    seeds = _seeds("aloha-bound", schedule)
    batch = run_aloha_batch(graph, 0, seeds, p=0.3, slots=80, active_slots=20)
    for seed, vec in zip(seeds, batch):
        ref = _reference_aloha(graph, seed, slots=80, p=0.3, active_slots=20)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.node_results() == ref.node_results()


# Long enough that every stream of an informed node crosses the ends of
# its first and second 312-coin blocks, at slots that differ by node.
LONG_ALOHA = dict(p=0.3, slots=720)


@pytest.mark.parametrize("schedule", FAULT_FREE)
def test_aloha_parity_across_coin_blocks(schedule):
    graph = TOPOLOGIES["gnp-16"]()
    seeds = _seeds("aloha-long", schedule, count=4)
    batch = run_aloha_batch(graph, 0, seeds, **LONG_ALOHA)
    for seed, vec in zip(seeds, batch):
        ref = _reference_aloha(graph, seed, **LONG_ALOHA)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.node_results() == ref.node_results()


def test_decay_parity_on_a_grid_of_256_nodes():
    graph = grid(16, 16)
    seeds = _seeds("decay-grid-16", count=8)
    batch = run_decay_broadcast_batch(graph, 0, seeds)
    for seed, vec in zip(seeds, batch):
        ref = run_decay_broadcast(graph, 0, seed=seed)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.slots == ref.slots
        assert vec.node_results() == ref.node_results()


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("schedule", FAULT_FREE)
def test_decay_parity(topology, schedule):
    graph = TOPOLOGIES[topology]()
    seeds = _seeds("decay", topology, schedule)
    batch = run_decay_broadcast_batch(graph, 0, seeds)
    for seed, vec in zip(seeds, batch):
        ref = run_decay_broadcast(graph, 0, seed=seed)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.slots == ref.slots
        assert vec.node_results() == ref.node_results()
        assert vec.broadcast_completion_slot(
            source=0
        ) == ref.broadcast_completion_slot(source=0)
        assert vec.broadcast_succeeded(source=0) == ref.broadcast_succeeded(source=0)


@pytest.mark.parametrize("stop", ["informed", "terminated"])
@pytest.mark.parametrize("align_phases", [True, False])
def test_decay_parity_stop_and_alignment_modes(stop, align_phases):
    graph = TOPOLOGIES["gnp-16"]()
    seeds = _seeds("decay-modes", stop, align_phases)
    batch = run_decay_broadcast_batch(
        graph, 0, seeds, stop=stop, align_phases=align_phases
    )
    for seed, vec in zip(seeds, batch):
        ref = run_decay_broadcast(
            graph, 0, seed=seed, stop=stop, align_phases=align_phases
        )
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.node_results() == ref.node_results()


def test_decay_parity_with_degree_and_size_bounds():
    graph = TOPOLOGIES["grid-4x4"]()
    seeds = _seeds("decay-bounds")
    kwargs = dict(epsilon=0.2, upper_bound_n=32, max_degree_bound=8)
    batch = run_decay_broadcast_batch(graph, 0, seeds, **kwargs)
    for seed, vec in zip(seeds, batch):
        ref = run_decay_broadcast(graph, 0, seed=seed, **kwargs)
        assert_metrics_equal(ref.metrics, vec.metrics)
        assert vec.node_results() == ref.node_results()


def test_batch_size_never_changes_results():
    """Chunking is an execution detail: every batch_size gives one answer."""
    graph = TOPOLOGIES["gnp-16"]()
    seeds = _seeds("chunking", count=7)
    full = run_decay_broadcast_batch(graph, 0, seeds)
    for batch_size in (1, 2, 3, len(seeds)):
        chunked = run_decay_broadcast_batch(graph, 0, seeds, batch_size=batch_size)
        for a, b in zip(full, chunked):
            assert_metrics_equal(a.metrics, b.metrics)
            assert a.node_results() == b.node_results()
    full = run_aloha_batch(graph, 0, seeds, **LONG_ALOHA)
    for batch_size in (1, 2, 3, len(seeds)):
        chunked = run_aloha_batch(graph, 0, seeds, batch_size=batch_size, **LONG_ALOHA)
        for a, b in zip(full, chunked):
            assert_metrics_equal(a.metrics, b.metrics)
            assert a.node_results() == b.node_results()


def test_merged_campaign_metrics_match_reference():
    """RunMetrics.merge_all over a campaign is backend-independent."""
    graph = TOPOLOGIES["complete-8"]()
    seeds = _seeds("merge", count=5)
    vec = run_decay_broadcast_batch(graph, 0, seeds)
    ref = [run_decay_broadcast(graph, 0, seed=seed) for seed in seeds]
    merged_vec = RunMetrics.merge_all(r.metrics for r in vec)
    merged_ref = RunMetrics.merge_all(r.metrics for r in ref)
    assert_metrics_equal(merged_ref, merged_vec)


def test_vectorized_results_carry_no_trace_or_provenance():
    """The batch backend's documented non-goals stay None, not fakes."""
    graph = star(6)
    (result,) = run_aloha_batch(graph, 0, [11], p=0.5, slots=10)
    assert result.trace is None
    assert result.provenance is None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(nodes=range(n), edges=draw(st.lists(st.sampled_from(pairs), unique=True)))


@pytest.mark.parametrize("protocol", ["aloha", "decay"])
@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32), data=st.data())
def test_batched_backend_equals_spec(protocol, graph, seed, data):
    if protocol == "aloha":
        p = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
        slots = data.draw(st.integers(1, 40))
        active_slots = data.draw(st.one_of(st.none(), st.integers(1, 10)))
        (vec,) = run_aloha_batch(graph, 0, [seed], p=p, slots=slots,
                                 active_slots=active_slots)
        programs = make_aloha_programs(graph, 0, p, active_slots=active_slots)
    else:
        kwargs = dict(
            epsilon=data.draw(st.sampled_from([0.1, 0.3])),
            align_phases=data.draw(st.booleans()),
        )
        stop = data.draw(st.sampled_from(["informed", "terminated"]))
        (vec,) = run_decay_broadcast_batch(graph, 0, [seed], stop=stop, **kwargs)
        programs, _params = make_broadcast_programs(graph, {0: "m"}, **kwargs)
        # The stop policy is the harness's, not Definition 1's: the spec
        # runs as many slots as the batch did.
        slots = vec.slots
    metrics, _observed, _graph = spec.run(graph, programs, slots, seed=seed, initiators={0})
    assert_metrics_equal(metrics, vec.metrics)
    assert vec.node_results() == {node: prog.result() for node, prog in programs.items()}
