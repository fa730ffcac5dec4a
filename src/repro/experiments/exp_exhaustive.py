"""E4d — Theorem 12 verified exhaustively on the real engine.

Unlike E4 (which works in the abstract game model), this experiment
takes the library's deterministic protocols' exact worst case over
*every* hidden set ``S`` on the actual radio engine — no sampling, no
reduction — from one run per protocol along an adversary's line
(:func:`repro.lowerbound.bruteforce.adversarial_cn_worst_case`; the
tests hold it to the enumeration of all ``2^n − 1`` sets).  Theorem 12
predicts worst ≥ n/8 slots; the randomized column shows Decay's mean
over seeds on the deterministic protocols' worst instances.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.experiments.runner import ExperimentConfig
from repro.graphs.generators import c_n
from repro.lowerbound.bruteforce import adversarial_cn_worst_case
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs

__all__ = ["run_exhaustive_table"]


def run_exhaustive_table(
    config: ExperimentConfig | None = None,
    *,
    sizes: tuple[int, ...] = (6, 8, 10, 12),
    epsilon: float = 0.1,
) -> Table:
    """Exact worst cases over all ``2^n − 1`` hidden sets."""
    config = config or ExperimentConfig(reps=10)
    if config.quick:
        sizes = sizes[:2]
    table = Table(
        "E4d / Theorem 12, exhaustively — worst case over ALL hidden sets S",
        [
            "protocol",
            "n",
            "instances",
            "worst_slots",
            "worst_set_size",
            "n_over_8",
            "thm12_holds",
            "rand_mean_on_worst_set",
        ],
    )
    protocols = {
        "dfs": lambda g: make_dfs_programs(g, 0),
        "round-robin": lambda g, n=0: make_round_robin_programs(
            g, 0, frame_size=g.num_nodes()
        ),
    }
    for name, factory in protocols.items():
        for n in sizes:
            wc = adversarial_cn_worst_case(factory, n)
            g = c_n(n, wc.worst_set)
            rand = []
            for seed in config.seeds("exhaustive", name, n):
                result = run_decay_broadcast(g, source=0, seed=seed, epsilon=epsilon)
                slot = result.broadcast_completion_slot(source=0)
                if slot is not None:
                    rand.append(slot)
            table.add_row(
                name,
                n,
                wc.instances,
                wc.worst_slots,
                len(wc.worst_set),
                n / 8,
                wc.satisfies_theorem12(),
                mean(rand) if rand else float("nan"),
            )
    return table
