"""Tests for the deterministic randomness plumbing (repro.rng)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert rng.derive_seed(42, "a", 1) == rng.derive_seed(42, "a", 1)

    def test_distinct_tags_distinct_seeds(self):
        assert rng.derive_seed(42, "a") != rng.derive_seed(42, "b")

    def test_distinct_masters_distinct_seeds(self):
        assert rng.derive_seed(1, "a") != rng.derive_seed(2, "a")

    def test_tag_path_not_concatenation_ambiguous(self):
        # ("ab",) and ("a", "b") must differ — the separator matters.
        assert rng.derive_seed(0, "ab") != rng.derive_seed(0, "a", "b")

    def test_negative_master_seed_allowed(self):
        assert isinstance(rng.derive_seed(-7, "x"), int)

    def test_seed_is_nonnegative_bounded(self):
        seed = rng.derive_seed(123, "y")
        assert 0 <= seed < 2**64

    def test_int_and_string_tags_distinct(self):
        assert rng.derive_seed(0, 1) != rng.derive_seed(0, "1")


class TestSpawn:
    def test_returns_random_instance(self):
        assert isinstance(rng.spawn(5, "t"), random.Random)

    def test_same_tags_same_stream(self):
        a = rng.spawn(5, "t")
        b = rng.spawn(5, "t")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_tags_different_stream(self):
        a = rng.spawn(5, "t1")
        b = rng.spawn(5, "t2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestSpawnForNode:
    def test_per_node_streams_independent(self):
        a = rng.spawn_for_node(1, 0)
        b = rng.spawn_for_node(1, 1)
        assert a.random() != b.random()

    def test_reproducible(self):
        assert rng.spawn_for_node(9, "x").random() == rng.spawn_for_node(9, "x").random()


class TestSeedSequence:
    def test_length(self):
        assert len(list(rng.seed_sequence(3, 10, "tag"))) == 10

    def test_all_distinct(self):
        seeds = list(rng.seed_sequence(3, 100, "tag"))
        assert len(set(seeds)) == 100

    def test_prefix_stable(self):
        # Taking more reps never changes the earlier seeds.
        short = list(rng.seed_sequence(3, 5, "tag"))
        long = list(rng.seed_sequence(3, 50, "tag"))
        assert long[:5] == short

    def test_zero_count(self):
        assert list(rng.seed_sequence(3, 0)) == []


@pytest.mark.parametrize("master", [0, 1, -1, 2**70])
def test_derive_seed_handles_extreme_masters(master):
    assert isinstance(rng.derive_seed(master, "t"), int)


_node_labels = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
)


@settings(max_examples=200, deadline=None)
@given(
    master=st.integers(-(2**70), 2**70),
    prefix=st.lists(st.one_of(st.integers(), st.text(max_size=4)), max_size=4),
    tail=st.lists(_node_labels, max_size=3),
)
def test_seed_deriver_equals_derive_seed(master, prefix, tail):
    derive = rng.seed_deriver(master, *prefix)
    assert derive(*tail) == rng.derive_seed(master, *prefix, *tail)
    assert derive(*tail) == derive(*tail)  # the shared prefix is not consumed


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    index=st.integers(0, 3),
    slot=st.integers(0, 10**6),
    transmitter=_node_labels,
    receiver=_node_labels,
)
def test_link_loss_coin_is_derive_seed(seed, index, slot, transmitter, receiver):
    derive = rng.seed_deriver(seed, "link-loss", index, slot)
    assert derive(transmitter, receiver) == rng.derive_seed(
        seed, "link-loss", index, slot, transmitter, receiver
    )
