"""The NumPy coin bank against CPython's ``random.Random``.

Backend parity rests on :class:`repro.sim.mtstreams.MTStreams` serving,
stream by stream, exactly the doubles ``random.Random(seed).random()``
would.  These tests check that directly, for any interleaving of which
streams draw, including the draw depths where the bank changes how it
produces values: chunk boundaries of the first block, the end of the
block, and later generations on the whole-bank and the gather refill
paths.
"""

import random
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import derive_node_seeds, derive_seed
from repro.sim.mtstreams import BLOCK, CHUNK, MTStreams

# One-word keys (below 2**32) and two-word keys take different paths
# through init_by_array; draw from both, edges included.
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
)


class Oracle:
    """One ``random.Random`` per seed, drawn like the bank."""

    def __init__(self, seeds):
        self.rngs = [random.Random(seed) for seed in seeds]

    def draw(self, idx):
        return [self.rngs[i].random() for i in idx]


def check(bank, oracle, idx):
    idx = np.asarray(idx, dtype=np.int64)
    got = bank.draw(idx)
    assert got.dtype == np.float64
    assert got.shape == idx.shape
    assert got.tolist() == oracle.draw(idx.tolist())


def spy_refills(bank):
    """Record the number of streams each refill of ``bank`` covers."""
    sizes = []
    refill = bank._refill

    def recording(idx):
        sizes.append(int(idx.size))
        refill(idx)

    bank._refill = recording
    return sizes


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=6),
    steps=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), max_size=80),
)
def test_interleaved_draws_match_random(seeds, steps):
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    assert len(bank) == len(seeds)
    for mask in steps:
        check(bank, oracle, [i for i in range(len(seeds)) if mask[i]])


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(SEEDS, min_size=2, max_size=5),
    rates=st.lists(st.integers(1, 4), min_size=5, max_size=5),
    depth=st.integers(BLOCK - 2 * CHUNK, 2 * BLOCK + CHUNK),
)
def test_staggered_streams_cross_blocks_at_different_draws(seeds, rates, depth):
    # Stream i draws on every rates[i]-th step, so streams reach the end
    # of a block at different calls and refill one by one (gather path).
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    for step in range(depth):
        check(bank, oracle, [i for i in range(len(seeds)) if step % rates[i] == 0])


def test_empty_draw_returns_nothing_and_advances_nothing():
    seeds = [5, 2**40 + 7]
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    check(bank, oracle, [])
    check(bank, oracle, [1])
    check(bank, oracle, [])
    check(bank, oracle, [0, 1])


@pytest.mark.parametrize(
    "depth",
    sorted(
        {0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1}
        | {BLOCK - CHUNK, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + CHUNK}
    ),
)
def test_draws_stopping_inside_at_and_across_chunk_boundaries(depth):
    # Every stream draws `depth` values in lockstep, then the streams
    # continue at different depths: one alone, then a pair, then all.
    seeds = [3, 2**32 + 3, 17, 2**63 + 1]
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    for _ in range(depth):
        check(bank, oracle, [0, 1, 2, 3])
    for _ in range(CHUNK + 1):
        check(bank, oracle, [2])
    check(bank, oracle, [1, 2])
    for _ in range(2):
        check(bank, oracle, [0, 1, 2, 3])


def test_end_of_first_block_reached_by_one_stream():
    seeds = [11, 12, 2**50]
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    refills = spy_refills(bank)
    for _ in range(BLOCK):
        check(bank, oracle, [1])
    assert refills == []
    check(bank, oracle, [1])  # the first value of stream 1's second block
    assert refills == [1]
    check(bank, oracle, [0, 1, 2])


def test_three_generations_on_the_whole_bank_refill_path():
    seeds = [0, 1, 2**32, 2**64 - 1, 99]
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    refills = spy_refills(bank)
    everyone = list(range(len(seeds)))
    for _ in range(3 * BLOCK + 5):
        check(bank, oracle, everyone)
    assert refills == [len(seeds)] * 3


def test_three_generations_on_the_gather_refill_path():
    seeds = [0, 1, 2**32, 2**64 - 1, 99]
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    refills = spy_refills(bank)
    for step in range(3 * BLOCK + 5):
        # Streams 0 and 3 every step; stream 1 every fifth; 2 and 4 never.
        check(bank, oracle, [0, 1, 3] if step % 5 == 0 else [0, 3])
    assert refills == [2] * 3
    check(bank, oracle, [0, 1, 2, 3, 4])


@pytest.mark.parametrize("step", [1, 3, 5])
def test_steps_below_a_chunk_give_the_same_draws(monkeypatch, step):
    # Big banks twist and extract fewer than CHUNK doubles per vector
    # step; shrink the step budget so a small bank takes that path too,
    # with steps that do not divide CHUNK or BLOCK.
    from repro.sim import mtstreams

    seeds = [4, 2**33 + 1, 77, 2**64 - 2]
    monkeypatch.setattr(mtstreams, "_STEP_WORDS", 2 * step * len(seeds))
    bank, oracle = MTStreams(seeds), Oracle(seeds)
    refills = spy_refills(bank)
    for _ in range(2 * BLOCK + CHUNK + 1):
        check(bank, oracle, [0, 1, 2, 3])
    for draw in range(BLOCK + 1):
        check(bank, oracle, [0, 2] if draw % 2 else [0, 1, 2])
    assert refills == [4, 4, 2]


def test_bank_peak_allocation_per_stream_is_bounded():
    # The state (624 uint32 words) and one block of doubles (312 float64)
    # cost 4,992 bytes per stream, and a gather refill copies the state
    # of the streams it refills (at most 2,496 bytes more per stream).
    # Building, twisting and extracting must add no temporary on the
    # scale of the whole state on top of that.
    streams = 2048
    seeds = list(range(2**40, 2**40 + streams))
    everyone = np.arange(streams)
    tracemalloc.start()
    try:
        bank = MTStreams(seeds)
        for _ in range(BLOCK + 2 * CHUNK):
            bank.draw(everyone)  # the whole-bank refill path
        for _ in range(BLOCK):
            bank.draw(everyone[1:])  # the gather refill path, all but one
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / streams < 4992 + 2496 + 1536


@pytest.mark.parametrize("run_seed", [0, 7, -3, 2**70, -(2**40)])
def test_derive_node_seeds_equals_derive_seed_per_node(run_seed):
    nodes = [0, 1, 255, -1, "a", "node", "", (0, 1), (2, (3, "x")), ("node", 4)]
    assert derive_node_seeds(run_seed, nodes) == [
        derive_seed(run_seed, "node", node) for node in nodes
    ]
    assert derive_node_seeds(run_seed, []) == []
