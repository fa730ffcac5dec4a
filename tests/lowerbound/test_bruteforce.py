"""Theorem 12 on the real engine: the enumeration over every hidden set,
and the adversarial search held to it."""

import pytest

from repro.errors import ExperimentError
from repro.graphs import c_n
from repro.lowerbound.bruteforce import (
    adversarial_cn_worst_case,
    all_hidden_sets,
    exhaustive_cn_worst_case,
)
from repro.protocols.base import run_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs
from repro.protocols.scheduled import make_scheduled_programs


class TestAllHiddenSets:
    def test_count(self):
        assert sum(1 for _ in all_hidden_sets(5)) == 2**5 - 1

    def test_all_nonempty_and_in_range(self):
        for s in all_hidden_sets(4):
            assert s
            assert s <= frozenset({1, 2, 3, 4})

    def test_no_duplicates(self):
        sets = list(all_hidden_sets(6))
        assert len(sets) == len(set(sets))


class TestExhaustiveWorstCase:
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_dfs_obeys_theorem12_and_2n(self, n):
        wc = exhaustive_cn_worst_case(lambda g: make_dfs_programs(g, 0), n)
        assert wc.all_completed
        assert wc.instances == 2**n - 1
        assert wc.satisfies_theorem12()
        assert wc.worst_slots <= 2 * (n + 2)

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_round_robin_obeys_theorem12(self, n):
        wc = exhaustive_cn_worst_case(
            lambda g: make_round_robin_programs(g, 0, frame_size=n + 2), n
        )
        assert wc.all_completed
        assert wc.satisfies_theorem12()
        # TDMA's worst case is Theta(n): the frame must reach min(S).
        assert wc.worst_slots >= n - 1

    def test_worst_set_is_a_hard_instance(self):
        n = 8
        wc = exhaustive_cn_worst_case(lambda g: make_dfs_programs(g, 0), n)
        # Re-running just the worst set reproduces the worst time.
        g = c_n(n, wc.worst_set)
        result = run_broadcast(
            g, make_dfs_programs(g, 0), initiators={0},
            max_slots=4 * (n + 2), stop="informed",
        )
        assert result.broadcast_completion_slot(source=0) == wc.worst_slots

    def test_too_large_without_limit_rejected(self):
        with pytest.raises(ExperimentError):
            exhaustive_cn_worst_case(lambda g: make_dfs_programs(g, 0), 20)

    def test_even_topology_aware_schedules_cannot_beat_it(self):
        # A scheduled protocol computed FROM the topology (cheating: the
        # radio model forbids this knowledge) does beat n/8 — showing
        # the lower bound is about unknown topology, not about radio
        # physics.  This is the Section-4-adjacent sanity contrast.
        from repro.core.schedule import greedy_layer_schedule

        n = 8

        def make(g):
            schedule = greedy_layer_schedule(g, 0)
            return make_scheduled_programs(g, 0, schedule)

        wc = exhaustive_cn_worst_case(make, n)
        assert wc.all_completed
        assert wc.worst_slots + 1 < n / 2  # constant-ish: 3 layers


def _dfs(n):
    return lambda g: make_dfs_programs(g, 0)


def _round_robin(n):
    return lambda g: make_round_robin_programs(g, 0, frame_size=n + 2)


PROTOCOLS = {"dfs": _dfs, "round-robin": _round_robin}


class TestAdversarialSearch:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_the_enumeration(self, name, n):
        factory = PROTOCOLS[name](n)
        search = adversarial_cn_worst_case(factory, n)
        oracle = exhaustive_cn_worst_case(factory, n)
        assert (search.worst_slots, search.all_completed) == (
            oracle.worst_slots,
            oracle.all_completed,
        )
        assert search.instances == oracle.instances == 2**n - 1
        assert search.satisfies_theorem12()

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_witness_reproduces_the_worst_case(self, name, n):
        factory = PROTOCOLS[name](n)
        cap = 8 * (n + 2)
        wc = adversarial_cn_worst_case(factory, n, max_slots=cap)
        assert wc.worst_set == frozenset({n})
        g = c_n(n, wc.worst_set)
        result = run_broadcast(
            g, factory(g), initiators={0}, max_slots=cap, stop="informed"
        )
        assert result.broadcast_completion_slot(source=0) == wc.worst_slots

    @pytest.mark.parametrize("n", [64, 512])
    def test_exact_values_at_scale(self, n):
        dfs = adversarial_cn_worst_case(_dfs(n), n)
        rr = adversarial_cn_worst_case(_round_robin(n), n, max_slots=8 * (n + 2))
        assert (dfs.worst_slots, dfs.all_completed) == (2 * n - 1, True)
        assert (rr.worst_slots, rr.all_completed) == (n, True)

    def test_budget_too_small_counts_as_the_cap(self):
        n = 8
        search = adversarial_cn_worst_case(_dfs(n), n, max_slots=10)
        oracle = exhaustive_cn_worst_case(_dfs(n), n, max_slots=10)
        assert (search.worst_slots, search.all_completed) == (10, False)
        assert (oracle.worst_slots, oracle.all_completed) == (10, False)

    def test_observed_runs_search_the_same(self, monkeypatch):
        # Provenance makes every engine an observed one, which resolves
        # on a different path.
        monkeypatch.setenv("REPRO_PROVENANCE", "1")
        assert adversarial_cn_worst_case(_dfs(8), 8).worst_slots == 15
        assert adversarial_cn_worst_case(_round_robin(8), 8).worst_slots == 8

    def test_rejects_empty_layer(self):
        with pytest.raises(ExperimentError):
            adversarial_cn_worst_case(_dfs(0), 0)
