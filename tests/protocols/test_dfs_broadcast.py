"""Tests for the deterministic DFS token broadcast (Section 3.4)."""

import pytest

from repro.graphs import Graph, c_n, complete, grid, line, random_gnp, ring, star
from repro.protocols import dfs_broadcast
from repro.protocols.base import run_broadcast
from repro.protocols.dfs_broadcast import DFSBroadcastProgram, make_dfs_programs
from repro.rng import spawn
from repro.sim import COLLISION, SILENCE, CrashFault, FaultSchedule, LinkLossFault


def run_dfs(g, source=0, max_slots=None):
    programs = make_dfs_programs(g, source)
    cap = max_slots if max_slots is not None else 4 * g.num_nodes() + 4
    return run_broadcast(g, programs, initiators={source}, max_slots=cap, stop="informed")


class TestCorrectness:
    @pytest.mark.parametrize(
        "g",
        [
            line(10),
            ring(9),
            grid(4, 4),
            star(8),
            complete(7),
            c_n(10, {4, 7}),
        ],
        ids=["line", "ring", "grid", "star", "clique", "c_n"],
    )
    def test_reaches_everyone(self, g):
        result = run_dfs(g)
        assert result.broadcast_succeeded(source=0)

    def test_random_graphs(self):
        for seed in range(5):
            g = random_gnp(40, 0.1, spawn(seed, "dfs-g"))
            assert run_dfs(g).broadcast_succeeded(source=0)

    def test_single_node(self):
        g = Graph(nodes=[0])
        result = run_dfs(g)
        assert result.broadcast_succeeded(source=0)

    def test_deterministic(self):
        g = random_gnp(30, 0.15, spawn(3, "dfs-g"))
        a = run_dfs(g)
        b = run_dfs(g)
        assert a.metrics.first_reception == b.metrics.first_reception


class TestTwoNBound:
    """Section 3.4: completion within 2n slots."""

    @pytest.mark.parametrize(
        "g",
        [line(15), grid(5, 5), complete(10), c_n(20, set(range(5, 15)))],
        ids=["line", "grid", "clique", "c_n"],
    )
    def test_within_2n(self, g):
        result = run_dfs(g)
        slot = result.broadcast_completion_slot(source=0)
        assert slot is not None
        assert slot <= 2 * g.num_nodes()

    def test_random_graphs_within_2n(self):
        for seed in range(5):
            g = random_gnp(50, 0.08, spawn(seed, "dfs-b"))
            slot = run_dfs(g).broadcast_completion_slot(source=0)
            assert slot is not None and slot <= 2 * g.num_nodes()


class TestNoCollisions:
    def test_exactly_one_transmitter_per_active_slot(self):
        g = random_gnp(25, 0.2, spawn(7, "dfs-c"))
        programs = make_dfs_programs(g, 0)
        from repro.sim import Engine

        engine = Engine(g, programs, initiators={0}, record_trace=True)
        result = engine.run(4 * g.num_nodes())
        for rec in result.trace:
            assert len(rec.transmitters) <= 1
        assert result.metrics.collisions == 0


class TestTokenSemantics:
    def test_line_token_order(self):
        # On a path the token marches down; node i first hears at slot i-1.
        g = line(6)
        result = run_dfs(g)
        for node in range(1, 6):
            assert result.metrics.first_reception[node] == node - 1

    def test_visited_counts_complete(self):
        g = grid(3, 3)
        programs = make_dfs_programs(g, 0)
        # Run to full termination (not just all-informed) so the token
        # finishes its traversal and returns to the source.
        result = run_broadcast(
            g, programs, initiators={0}, max_slots=4 * g.num_nodes() + 4,
            stop="terminated",
        )
        assert result.programs[0].result()["visited_count"] == g.num_nodes()

    def test_parent_pointers_form_tree(self):
        g = random_gnp(20, 0.25, spawn(9, "dfs-t"))
        result = run_dfs(g, max_slots=200)
        parents = {
            node: res["parent"] for node, res in result.node_results().items()
        }
        assert parents[0] is None
        # Following parents from any visited node reaches the source.
        for node in g.nodes:
            seen = set()
            current = node
            while current != 0 and parents.get(current) is not None:
                assert current not in seen
                seen.add(current)
                current = parents[current]


class CopyingDFS(DFSBroadcastProgram):
    """The former ``on_observe``, which copied ``visited`` on every token."""

    def on_observe(self, ctx, heard):
        if heard is SILENCE or heard is COLLISION:
            return
        if not (isinstance(heard, tuple) and heard and heard[0] == "dfs-token"):
            return
        _tag, target, visited, sender, _payload = heard
        self.visited = frozenset(self.visited | visited)
        if target == ctx.node:
            self.has_token = True
            self._done = False
            if self.parent is None and not self.is_source and ctx.node not in visited:
                self.parent = sender


def _faults(g, seed, kind):
    if kind == "none":
        return None
    rng = spawn(seed, "dfs-faults")
    nodes = sorted(g.nodes)[1:]
    if kind == "crash":
        crashes = [
            CrashFault(node=node, slot=rng.randint(0, 30), until=rng.choice([None, 50]))
            for node in rng.sample(nodes, 3)
        ]
        return FaultSchedule(crash_faults=crashes)
    return FaultSchedule(link_loss_faults=[LinkLossFault(p=0.25)])


class TestVisitedExactness:
    """``visited`` is exactly the union of every token set a node heard,
    plus itself once it has sent the token, with or without faults."""

    @pytest.mark.parametrize("kind", ["none", "crash", "loss"])
    @pytest.mark.parametrize("seed", range(4))
    def test_visited_is_union_of_observed_tokens(self, seed, kind):
        g = random_gnp(24, 0.2, spawn(seed, "dfs-x"))
        faults = _faults(g, seed, kind)
        cap = 4 * g.num_nodes() + 4
        result = run_broadcast(
            g, make_dfs_programs(g, 0), initiators={0}, max_slots=cap,
            stop="terminated", faults=faults, record_trace=True,
        )
        expected = {node: set() for node in g.nodes}
        for record in result.trace:
            for node, message in record.transmitters.items():
                expected[node].add(node)
            for node, heard in record.heard.items():
                if isinstance(heard, tuple) and heard[0] == "dfs-token":
                    expected[node] |= heard[2]
        for node, program in result.programs.items():
            assert program.visited == expected[node], node

        copying = {
            node: CopyingDFS(is_source=(node == 0)) for node in g.nodes
        }
        reference = run_broadcast(
            g, copying, initiators={0}, max_slots=cap,
            stop="terminated", faults=faults, record_trace=True,
        )
        assert result.node_results() == reference.node_results()
        assert result.metrics == reference.metrics

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_token_chains_match_copying_oracle(self, seed, record_trace, monkeypatch):
        """Two sources start two token chains, so hearers hold different
        ``visited`` sets (the memo misses) and some token sets lack
        nodes a hearer holds (the union branch)."""
        g = random_gnp(24, 0.2, spawn(seed, "dfs-x"))
        sources = {0, 2}
        cap = 4 * g.num_nodes() + 4
        unions = []
        union = dfs_broadcast._union

        def counting_union(mine, theirs):
            unions.append(not mine <= theirs)
            return union(mine, theirs)

        monkeypatch.setattr(dfs_broadcast, "_union", counting_union)

        def run(cls, trace):
            programs = {node: cls(is_source=node in sources) for node in g.nodes}
            return run_broadcast(
                g, programs, initiators=sources, max_slots=cap,
                stop="terminated", record_trace=trace,
            )

        result = run(DFSBroadcastProgram, record_trace)
        reference = run(CopyingDFS, True)
        assert any(unions)
        assert result.node_results() == reference.node_results()
        assert result.metrics == reference.metrics
        assert result.slots == reference.slots
