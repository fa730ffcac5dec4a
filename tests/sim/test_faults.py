"""Tests for fault schedules."""

import random

import pytest

from repro.errors import SimulationError
from repro.graphs import Graph, line, random_gnp
from repro.sim import CrashFault, EdgeFault, FaultSchedule, JamFault, LinkLossFault
from repro.sim.faults import random_edge_kill_schedule
from repro.experiments.exp_dynamic import spanning_tree
from repro.graphs.properties import is_connected


class TestEdgeFault:
    def test_remove(self):
        g = line(3)
        EdgeFault(slot=0, u=0, v=1).apply(g)
        assert not g.has_edge(0, 1)

    def test_remove_missing_edge_is_noop(self):
        g = line(2)
        EdgeFault(slot=0, u=0, v=5).apply(g)  # no error

    def test_add(self):
        g = Graph(nodes=[0, 1])
        EdgeFault(slot=0, u=0, v=1, kind="add").apply(g)
        assert g.has_edge(0, 1)


class TestCrashFaultValidation:
    def test_permanent_crash_needs_no_until(self):
        CrashFault(slot=3, node=1)  # no error

    def test_transient_crash_window(self):
        fault = CrashFault(slot=3, node=1, until=7)
        assert fault.until == 7

    def test_recovery_must_follow_crash(self):
        with pytest.raises(SimulationError, match="must follow"):
            CrashFault(slot=3, node=1, until=3)
        with pytest.raises(SimulationError, match="must follow"):
            CrashFault(slot=3, node=1, until=1)

    def test_crash_slot_must_be_non_negative(self):
        with pytest.raises(SimulationError, match=">= 0"):
            CrashFault(slot=-1, node=1, until=2)


class TestJamFaultValidation:
    def test_window_queries(self):
        fault = JamFault(node=2, start=3, end=6)
        assert not fault.active_at(2)
        assert fault.active_at(3)
        assert fault.active_at(5)
        assert not fault.active_at(6)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError, match="slot >= 0"):
            JamFault(node=2, start=-1, end=4)

    def test_empty_window_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            JamFault(node=2, start=4, end=4)


class TestLinkLossFaultValidation:
    def test_probability_range(self):
        LinkLossFault(p=0.0)
        LinkLossFault(p=1.0)
        with pytest.raises(SimulationError, match="\\[0, 1\\]"):
            LinkLossFault(p=1.5)
        with pytest.raises(SimulationError, match="\\[0, 1\\]"):
            LinkLossFault(p=-0.1)

    def test_empty_window_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            LinkLossFault(p=0.5, start=5, end=5)

    def test_open_ended_window(self):
        fault = LinkLossFault(p=0.5, start=3)
        assert not fault.active_at(2)
        assert fault.active_at(3)
        assert fault.active_at(10**9)

    def test_edges_normalised_to_unordered_pairs(self):
        fault = LinkLossFault(p=0.5, edges=frozenset({(0, 1), (2, 1)}))
        assert fault.covers(1, 0)
        assert fault.covers(0, 1)
        assert fault.covers(1, 2)
        assert not fault.covers(0, 2)

    def test_unrestricted_covers_everything(self):
        assert LinkLossFault(p=0.5).covers("a", "b")

    def test_degenerate_pair_rejected(self):
        with pytest.raises(SimulationError, match="pairs of distinct nodes"):
            LinkLossFault(p=0.5, edges=frozenset({(3, 3)}))


class TestFaultSchedule:
    def test_query_by_slot(self):
        schedule = FaultSchedule(
            edge_faults=[EdgeFault(slot=2, u=0, v=1), EdgeFault(slot=5, u=1, v=2)],
            crash_faults=[CrashFault(slot=2, node=3)],
        )
        assert len(schedule.edge_faults_at(2)) == 1
        assert schedule.edge_faults_at(3) == []

    def test_empty(self):
        schedule = FaultSchedule()
        assert schedule.is_empty()
        assert schedule.last_slot == -1

    def test_last_slot(self):
        schedule = FaultSchedule(
            edge_faults=[EdgeFault(slot=2, u=0, v=1)],
            crash_faults=[CrashFault(slot=9, node=3)],
        )
        assert schedule.last_slot == 9

    def test_window_faults_make_schedule_nonempty(self):
        assert not FaultSchedule(jam_faults=[JamFault(node=0, start=0, end=2)]).is_empty()
        assert not FaultSchedule(link_loss_faults=[LinkLossFault(p=0.5)]).is_empty()

    def test_last_slot_covers_windows(self):
        schedule = FaultSchedule(
            crash_faults=[CrashFault(slot=2, node=0, until=12)],
            jam_faults=[JamFault(node=1, start=0, end=8)],
        )
        assert schedule.last_slot == 11
        open_loss = FaultSchedule(link_loss_faults=[LinkLossFault(p=0.5, start=4)])
        assert open_loss.last_slot == 4
        bounded = FaultSchedule(link_loss_faults=[LinkLossFault(p=0.5, start=4, end=9)])
        assert bounded.last_slot == 8

    def test_counts(self):
        schedule = FaultSchedule(
            edge_faults=[EdgeFault(slot=0, u=0, v=1), EdgeFault(slot=1, u=1, v=2)],
            crash_faults=[CrashFault(slot=3, node=2)],
            link_loss_faults=[LinkLossFault(p=0.1)],
        )
        assert schedule.counts() == {"edge": 2, "crash": 1, "jam": 0, "link_loss": 1}

    def test_by_slot_preserves_same_slot_order(self):
        faults = [
            EdgeFault(slot=4, u=0, v=1),
            EdgeFault(slot=4, u=1, v=2),
            EdgeFault(slot=2, u=2, v=3),
        ]
        edge_index = FaultSchedule(edge_faults=faults).by_slot()
        assert edge_index[4] == faults[:2]
        assert edge_index[2] == [faults[2]]


class TestValidateForGraph:
    def test_valid_schedule_passes(self):
        g = line(4)
        schedule = FaultSchedule(
            edge_faults=[EdgeFault(slot=0, u=0, v=1)],
            crash_faults=[CrashFault(slot=1, node=2)],
            jam_faults=[JamFault(node=3, start=0, end=2)],
            link_loss_faults=[LinkLossFault(p=0.5, edges=frozenset({(1, 2)}))],
        )
        schedule.validate_for_graph(g)  # no error

    @pytest.mark.parametrize(
        "schedule",
        [
            FaultSchedule(edge_faults=[EdgeFault(slot=0, u=0, v=9)]),
            FaultSchedule(crash_faults=[CrashFault(slot=0, node=9)]),
            FaultSchedule(jam_faults=[JamFault(node=9, start=0, end=1)]),
            FaultSchedule(
                link_loss_faults=[LinkLossFault(p=0.5, edges=frozenset({(0, 9)}))]
            ),
        ],
    )
    def test_unknown_node_rejected(self, schedule):
        with pytest.raises(SimulationError, match="not in the graph"):
            schedule.validate_for_graph(line(3))


class TestRandomEdgeKillSchedule:
    def test_protected_tree_never_killed(self):
        rng = random.Random(0)
        g = random_gnp(30, 0.3, rng)
        tree = spanning_tree(g, 0)
        schedule = random_edge_kill_schedule(g, tree, 1.0, 100, rng)
        protected = {frozenset(e) for e in tree.edges}
        for fault in schedule.edge_faults:
            assert frozenset((fault.u, fault.v)) not in protected

    def test_kill_fraction_zero_empty(self):
        rng = random.Random(0)
        g = random_gnp(20, 0.3, rng)
        tree = spanning_tree(g, 0)
        schedule = random_edge_kill_schedule(g, tree, 0.0, 100, rng)
        assert schedule.is_empty()

    def test_kill_fraction_one_kills_all_nontree(self):
        rng = random.Random(1)
        g = random_gnp(20, 0.4, rng)
        tree = spanning_tree(g, 0)
        schedule = random_edge_kill_schedule(g, tree, 1.0, 50, rng)
        assert len(schedule.edge_faults) == g.num_edges() - tree.num_edges()

    def test_surviving_graph_stays_connected(self):
        rng = random.Random(2)
        g = random_gnp(25, 0.3, rng)
        tree = spanning_tree(g, 0)
        schedule = random_edge_kill_schedule(g, tree, 1.0, 50, rng)
        survivor = g.copy()
        for fault in schedule.edge_faults:
            fault.apply(survivor)
        assert is_connected(survivor)

    def test_invalid_fraction(self):
        rng = random.Random(0)
        g = line(5)
        with pytest.raises(SimulationError):
            random_edge_kill_schedule(g, g, 1.5, 10, rng)

    def test_invalid_max_slot(self):
        rng = random.Random(0)
        g = line(5)
        with pytest.raises(SimulationError, match="max_slot"):
            random_edge_kill_schedule(g, g, 0.5, 0, rng)
        with pytest.raises(SimulationError, match="max_slot"):
            random_edge_kill_schedule(g, g, 0.5, -3, rng)

    def test_slots_within_horizon(self):
        rng = random.Random(3)
        g = random_gnp(20, 0.5, rng)
        tree = spanning_tree(g, 0)
        schedule = random_edge_kill_schedule(g, tree, 1.0, 37, rng)
        assert all(0 <= f.slot < 37 for f in schedule.edge_faults)


def test_spanning_tree_is_spanning_tree():
    rng = random.Random(5)
    g = random_gnp(40, 0.2, rng)
    tree = spanning_tree(g, 0)
    assert tree.num_nodes() == g.num_nodes()
    assert tree.num_edges() == g.num_nodes() - 1
    assert is_connected(tree)
    for u, v in tree.edges:
        assert g.has_edge(u, v)
