"""The paper's commands: ``broadcast``, ``bfs``, ``gap``, ``experiment``,
``game`` and ``report``."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.cli import add_backend, add_common, add_jobs, add_observability

def _make_topology(kind: str, n: int, seed: int):
    from repro.graphs import generators
    from repro.rng import spawn

    rng = spawn(seed, "cli-topology")
    if kind == "line":
        return generators.line(n)
    if kind == "ring":
        return generators.ring(max(3, n))
    if kind == "grid":
        side = max(1, int(n**0.5))
        return generators.grid(side, (n + side - 1) // side)
    if kind == "gnp":
        return generators.random_gnp(n, min(1.0, 8.0 / n), rng)
    if kind == "udg":
        import math

        radius = 1.7 * math.sqrt(math.log(max(2, n)) / n)
        return generators.unit_disk(n, radius, rng)
    if kind == "cn":
        return generators.c_n(n, {n})
    raise SystemExit(f"unknown topology {kind!r}")


def _experiment_config(args: argparse.Namespace):
    from repro.experiments.runner import ExperimentConfig

    return ExperimentConfig(
        reps=args.reps, master_seed=args.seed, quick=args.quick, jobs=args.jobs,
        task_timeout=args.task_timeout, backend=args.backend,
    )


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.protocols import run_decay_broadcast

    g = _make_topology(args.topology, args.n, args.seed)
    result = run_decay_broadcast(
        g,
        source=args.source,
        seed=args.seed,
        epsilon=args.epsilon,
        record_trace=args.timeline,
    )
    completion = result.broadcast_completion_slot(source=args.source)
    print(f"nodes={g.num_nodes()} slots_run={result.slots} "
          f"transmissions={result.metrics.transmissions}")
    if completion is None:
        print("broadcast FAILED (within the epsilon budget)")
        return 1
    print(f"broadcast complete at slot {completion}")
    if args.timeline and result.trace is not None:
        from repro import viz

        nodes = sorted(g.nodes, key=repr)[: args.timeline_nodes]
        k = next(iter(result.programs.values())).k
        print()
        print(viz.phase_ruler(min(result.slots, 120), k,
                              label_width=max(len(repr(v)) for v in nodes)))
        print(viz.timeline(result.trace, nodes, max_slots=120))
        print()
        print(viz.reception_wave(result.trace))
    return 0


def _cmd_bfs(args: argparse.Namespace) -> int:
    from repro.protocols import run_bfs

    g = _make_topology(args.topology, args.n, args.seed)
    result = run_bfs(g, args.source, seed=args.seed, epsilon=args.epsilon)
    labels = result.node_results()
    print(f"slots={result.slots}")
    for node in sorted(labels, key=repr):
        print(f"node {node}: distance {labels[node]}")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.experiments.exp_gap import gap_growth_fits, run_gap_table

    table = run_gap_table(_experiment_config(args))
    print(table.render())
    fits = gap_growth_fits(table)
    print()
    for curve, fit in fits.items():
        print(f"{curve}: slope={fit['slope']:.3f} R^2={fit['r_squared']:.3f}")
    return 0


_EXPERIMENTS: dict[str, tuple[str, list[str]]] = {
    "e1": ("repro.experiments.exp_decay", ["run_theorem1_table"]),
    "e2": ("repro.experiments.exp_broadcast",
           ["run_broadcast_time_table", "run_diameter_scaling_table",
            "run_upper_bound_sensitivity_table"]),
    "e3": ("repro.experiments.exp_broadcast", ["run_success_rate_table"]),
    "e4": ("repro.experiments.exp_hitting",
           ["run_adversary_table", "run_protocol_lower_bound_table",
            "run_upper_bound_table"]),
    "e4d": ("repro.experiments.exp_exhaustive", ["run_exhaustive_table"]),
    "e5": ("repro.experiments.exp_gap", ["run_gap_table"]),
    "e6": ("repro.experiments.exp_bfs", ["run_bfs_table"]),
    "e7": ("repro.experiments.exp_messages", ["run_message_complexity_table"]),
    "e8": ("repro.experiments.exp_coin_bias",
           ["run_coin_bias_table", "run_alignment_table"]),
    "e9": ("repro.experiments.exp_dynamic",
           ["run_dynamic_table", "run_mobility_table", "run_transient_fault_table"]),
    "e10": ("repro.experiments.exp_cd",
            ["run_cd_cn_table", "run_tree_splitting_table"]),
    "e11": ("repro.experiments.exp_dfs",
            ["run_dfs_table", "run_deterministic_comparison_table"]),
    "e12": ("repro.experiments.exp_spontaneous",
            ["run_three_round_table", "run_c_star_table"]),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    key = args.id.lower()
    if key not in _EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.id!r}; choose from {', '.join(_EXPERIMENTS)}"
        )
    module_name, functions = _EXPERIMENTS[key]
    module = importlib.import_module(module_name)
    config = _experiment_config(args)
    for name in functions:
        table = getattr(module, name)(config)
        print(table.render())
        print()
    return 0


def _cmd_game(args: argparse.Namespace) -> int:
    from repro.lowerbound.adversary import foil_strategy
    from repro.lowerbound.reduction import (
        BinarySplitAbstractProtocol,
        ProtocolStrategy,
        RoundRobinAbstractProtocol,
    )
    from repro.lowerbound.strategies import (
        BinarySplittingStrategy,
        DoublingStrategy,
        RandomStrategy,
        SingletonSweepStrategy,
    )

    strategies: dict[str, Callable] = {
        "sweep": SingletonSweepStrategy,
        "doubling": DoublingStrategy,
        "binary": BinarySplittingStrategy,
        "random": lambda: RandomStrategy(args.seed),
        "protocol-rr": lambda: ProtocolStrategy(RoundRobinAbstractProtocol),
        "protocol-split": lambda: ProtocolStrategy(BinarySplitAbstractProtocol),
    }
    if args.strategy not in strategies:
        raise SystemExit(
            f"unknown strategy {args.strategy!r}; choose from {', '.join(strategies)}"
        )
    result = foil_strategy(strategies[args.strategy](), args.n, args.n // 2)
    print(f"n={args.n} moves allowed={args.n // 2}")
    print(f"adversarial |S|={len(result.hidden_set)}")
    print(f"strategy survived {result.survived_moves} moves without a hit "
          f"(consistent replay: {result.consistent})")
    if args.show_set:
        print(f"S = {sorted(result.hidden_set)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    text = build_report(args.results_dir)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _add_graph_flags(p: argparse.ArgumentParser, topology: str, n: int) -> None:
    add_common(p)
    p.add_argument("--topology", default=topology,
                   choices=["line", "ring", "grid", "gnp", "udg", "cn"])
    p.add_argument("-n", type=int, default=n)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.05)


def add_broadcast(sub) -> None:
    p = sub.add_parser("broadcast", help="run one Decay broadcast")
    _add_graph_flags(p, "gnp", 64)
    p.add_argument("--timeline", action="store_true",
                   help="render an ASCII action timeline")
    p.add_argument("--timeline-nodes", type=int, default=16)
    p.set_defaults(func=_cmd_broadcast)


def add_bfs(sub) -> None:
    p = sub.add_parser("bfs", help="run the Decay BFS")
    _add_graph_flags(p, "grid", 25)
    p.set_defaults(func=_cmd_bfs)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--quick", action="store_true")
    add_jobs(p)
    add_backend(p)
    add_observability(p)


def add_gap(sub) -> None:
    p = sub.add_parser("gap", help="print the exponential-gap table (E5)")
    add_common(p)
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_gap)


def add_experiment(sub) -> None:
    p = sub.add_parser("experiment", help="run an experiment by id (e1..e12)")
    add_common(p)
    p.add_argument("id")
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_experiment)


def add_report(sub) -> None:
    p = sub.add_parser("report", help="assemble the reproduction report")
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_report)


def add_game(sub) -> None:
    p = sub.add_parser("game", help="foil a hitting-game strategy")
    add_common(p)
    p.add_argument("--strategy", default="sweep")
    p.add_argument("-n", type=int, default=64)
    p.add_argument("--show-set", action="store_true")
    p.set_defaults(func=_cmd_game)
