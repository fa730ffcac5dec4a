"""Extension benches: leader election, the [BGI89] emulation and
centralized-schedule quality — the features built on top of the paper's
core per DESIGN.md §4/§5.
"""

from conftest import bench_config, emit, run_once

from repro.analysis.tables import Table
from repro.core.schedule import greedy_layer_schedule, sequential_tree_schedule
from repro.graphs import grid, random_gnp
from repro.graphs.properties import diameter
from repro.protocols.leader_election import run_leader_election
from repro.rng import spawn


def _leader_election_table(config):
    table = Table(
        "EXT-a — Decay leader election ([BGI89] application)",
        ["n", "runs", "correct_rate", "mean_slots"],
    )
    sizes = (9, 16) if config.quick else (9, 16, 36, 64)
    for n in sizes:
        side = int(n**0.5)
        g = grid(side, side)
        correct = 0
        slots = []
        for seed in config.seeds("le", n):
            result = run_leader_election(g, seed=seed, epsilon=0.1)
            outputs = result.node_results()
            expected = max(g.nodes)
            if all(out["winner_id"] == expected for out in outputs.values()):
                correct += 1
            slots.append(result.slots)
        table.add_row(
            g.num_nodes(),
            config.reps,
            correct / config.reps,
            sum(slots) / len(slots),
        )
    return table


def test_ext_leader_election(benchmark):
    config = bench_config(reps=8)
    table = run_once(benchmark, _leader_election_table, config)
    emit("ext_leader_election", table)
    assert all(rate >= 0.7 for rate in table.column("correct_rate"))


def _schedule_quality_table(config):
    table = Table(
        "EXT-c — centralized schedule length: greedy ([CW87] flavour) vs sequential",
        ["n", "D", "greedy_len", "tree_len", "greedy_over_D"],
    )
    sizes = (40, 80) if config.quick else (40, 80, 160, 320)
    for n in sizes:
        g = random_gnp(n, min(1.0, 6.0 / n), spawn(config.master_seed, "schedq", n))
        d = diameter(g)
        greedy = greedy_layer_schedule(g, 0, rng=spawn(config.master_seed, "g", n))
        tree = sequential_tree_schedule(g, 0)
        table.add_row(n, d, len(greedy), len(tree), len(greedy) / max(1, d))
    return table


def _emulation_table(config):
    from repro.emulation import (
        ActiveCountProtocol,
        MaxFindingProtocol,
        run_emulated,
        run_single_hop,
    )
    from repro.graphs import ring

    table = Table(
        "EXT-d — [BGI89] emulation: single-hop CD protocols on multi-hop no-CD nets",
        ["protocol", "n", "rounds", "slots", "matches_direct", "all_agree"],
    )
    sizes = (6, 9) if config.quick else (6, 9, 16)
    for n in sizes:
        g = ring(n)
        bits = max(1, (n - 1).bit_length())
        active = {1, n - 1}
        direct = run_single_hop(
            {i: MaxFindingProtocol(i, bits, active=(i in active)) for i in g.nodes},
            bits + 2,
        )
        result = run_emulated(
            g,
            {i: MaxFindingProtocol(i, bits, active=(i in active)) for i in g.nodes},
            max_rounds=bits + 1,
            seed=config.master_seed,
            epsilon=0.1,
        )
        outs = result.node_results()
        table.add_row(
            "max-finding",
            n,
            bits + 1,
            result.slots,
            all(outs[v]["winner"] == direct[v]["winner"] for v in g.nodes),
            len({o["winner"] for o in outs.values()}) == 1,
        )
        direct_count = run_single_hop(
            {i: ActiveCountProtocol(i, (0, n), active=(i in active)) for i in g.nodes},
            20 * n,
        )
        result_count = run_emulated(
            g,
            {i: ActiveCountProtocol(i, (0, n), active=(i in active)) for i in g.nodes},
            max_rounds=6 * len(active) + 8,
            seed=config.master_seed + 1,
            epsilon=0.1,
        )
        outs_count = result_count.node_results()
        table.add_row(
            "active-count",
            n,
            "-",
            result_count.slots,
            all(outs_count[v] == direct_count[v] for v in g.nodes),
            len({tuple(o["roster"]) for o in outs_count.values()}) == 1,
        )
    return table


def test_ext_emulation(benchmark):
    config = bench_config(reps=5)
    table = run_once(benchmark, _emulation_table, config)
    emit("ext_emulation", table)
    assert all(table.column("matches_direct"))
    assert all(table.column("all_agree"))


def test_ext_schedule_quality(benchmark):
    config = bench_config(reps=5)
    table = run_once(benchmark, _schedule_quality_table, config)
    emit("ext_schedule_quality", table)
    for greedy_len, tree_len in zip(table.column("greedy_len"), table.column("tree_len")):
        assert greedy_len <= tree_len
