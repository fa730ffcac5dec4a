"""E5 — Corollary 13: the exponential gap, measured.

On the paper's lower-bound family ``C_n`` (diameter 3), we measure:

* the **randomized** Decay Broadcast_scheme's completion slots
  (mean / p90 over seeds and over random hidden sets ``S``) — the
  paper predicts ``O(log n · log(n/ε))`` = polylogarithmic;
* two **deterministic** protocols' worst-case completion slots over
  **every** hidden set ``S`` — round-robin TDMA and DFS token traversal
  — the paper proves *any* deterministic protocol needs ``≥ n/8`` and
  these take Θ(n).  Each is exact, from one engine run along an
  adversary's line (:func:`repro.lowerbound.bruteforce.adversarial_cn_worst_case`).

The table reports the raw numbers plus the gap ratio; the companion
fit summary classifies growth (randomized ≈ a + b·log²n, deterministic
≈ a + b·n).  The *shape* to look for: the deterministic curves grow
linearly while the randomized one barely moves — crossing somewhere
below n ≈ 32 and exceeding an order of magnitude by n ≈ 1024.
"""

from __future__ import annotations

import math

from repro.analysis.stats import mean, quantile
from repro.analysis.tables import Table
from repro.analysis.theory import fit_linear
from repro.experiments.runner import ExperimentConfig
from repro.graphs.generators import c_n
from repro.parallel import resilient_map
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs
from repro.rng import spawn
from repro.sim.backends import resolve_backend

__all__ = ["run_gap_table", "gap_growth_fits", "sample_hidden_sets"]

DEFAULT_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)
QUICK_SIZES = (8, 16, 32, 64)


def sample_hidden_sets(n: int, count: int, seed: int) -> list[frozenset[int]]:
    """Hidden sets for the randomized arm: adversarial-ish extremes (a
    far-away singleton, the second half, everything) plus random.  The
    deterministic worst cases are exact over every set and use none."""
    rng = spawn(seed, "gap-hidden", n)
    samples = [
        frozenset({n}),
        frozenset(range(n // 2 + 1, n + 1)),
        frozenset(range(1, n + 1)),
    ]
    while len(samples) < count:
        size = rng.randint(1, n)
        samples.append(frozenset(rng.sample(range(1, n + 1), size)))
    return samples[:count]


def _rand_run(task: tuple[int, frozenset[int], int, float]) -> int | None:
    """One randomized repetition (reference backend): completion slot."""
    n, hidden_set, seed, epsilon = task
    g = c_n(n, hidden_set)
    result = run_decay_broadcast(g, source=0, seed=seed, epsilon=epsilon)
    return result.broadcast_completion_slot(source=0)


def _rand_run_batch(
    tasks: list[tuple[int, frozenset[int], int, float]],
) -> list[int | None]:
    """A chunk of randomized repetitions on the vectorized backend.

    Seed-for-seed equivalent to mapping :func:`_rand_run` (the parity
    the backend suite guarantees); trials sharing a hidden set — and
    therefore a topology — advance together in one batch.
    """
    from repro.sim.vectorized import run_decay_broadcast_batch

    grouped: dict[tuple[int, frozenset[int], float], list[int]] = {}
    for position, (n, hidden_set, _seed, epsilon) in enumerate(tasks):
        grouped.setdefault((n, hidden_set, epsilon), []).append(position)
    slots: list[int | None] = [None] * len(tasks)
    for (n, hidden_set, epsilon), positions in grouped.items():
        g = c_n(n, hidden_set)
        results = run_decay_broadcast_batch(
            g, 0, [tasks[p][2] for p in positions], epsilon=epsilon
        )
        for position, result in zip(positions, results):
            slots[position] = result.broadcast_completion_slot(source=0)
    return slots


def run_gap_table(
    config: ExperimentConfig | None = None,
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    epsilon: float = 0.1,
    hidden_set_count: int = 8,
) -> Table:
    """The headline exponential-gap table on the ``C_n`` family."""
    # Imported here, not with the module: the search pulls in the whole
    # lowerbound package, and a gap table needs it only once it runs.
    from repro.lowerbound.bruteforce import adversarial_cn_worst_case

    config = config or ExperimentConfig(reps=15)
    if config.quick:
        sizes = QUICK_SIZES
    table = Table(
        f"E5 / Corollary 13 — randomized vs deterministic broadcast on C_n (epsilon={epsilon})",
        [
            "n",
            "nodes",
            "rand_mean",
            "rand_p90",
            "det_round_robin",
            "det_dfs",
            "gap_rr_over_rand",
            "gap_dfs_over_rand",
        ],
    )
    backend = resolve_backend(config.backend)
    for n in sizes:
        hidden_sets = sample_hidden_sets(n, hidden_set_count, config.master_seed)
        # Randomized: over seeds AND hidden sets (its behaviour is S-independent
        # by design — it never reads IDs — but we vary S anyway for fairness).
        tasks = [
            (n, hidden_sets[i % len(hidden_sets)], seed, epsilon)
            for i, seed in enumerate(config.seeds("gap-rand", n))
        ]
        slots = resilient_map(
            _rand_run,
            tasks,
            jobs=config.effective_jobs(),
            task_timeout=config.task_timeout,
            batch_fn=_rand_run_batch if backend == "numpy" else None,
        )
        rand_slots: list[float] = [slot for slot in slots if slot is not None]
        frame = n + 2  # IDs 0..n+1
        rr_worst = adversarial_cn_worst_case(
            lambda g: make_round_robin_programs(g, 0, frame_size=frame),
            n,
            max_slots=frame * 8,
        ).worst_slots
        dfs_worst = adversarial_cn_worst_case(
            lambda g: make_dfs_programs(g, 0), n, max_slots=4 * (n + 2)
        ).worst_slots
        rand_mean = mean(rand_slots) if rand_slots else float("nan")
        rand_p90 = quantile(rand_slots, 0.9) if rand_slots else float("nan")
        table.add_row(
            n,
            n + 2,
            rand_mean,
            rand_p90,
            rr_worst,
            dfs_worst,
            rr_worst / rand_mean if rand_slots else float("nan"),
            dfs_worst / rand_mean if rand_slots else float("nan"),
        )
    return table


def gap_growth_fits(table: Table) -> dict[str, dict[str, float]]:
    """Classify each curve's growth from a :func:`run_gap_table` result.

    Fits randomized means against ``log₂²(n)`` and the deterministic
    worst cases against ``n``; returns slopes and R² so callers (and
    EXPERIMENTS.md) can verify the polylog-vs-linear separation.
    """
    ns = [float(v) for v in table.column("n")]
    rand = [float(v) for v in table.column("rand_mean")]
    rr = [float(v) for v in table.column("det_round_robin")]
    dfs = [float(v) for v in table.column("det_dfs")]
    log2sq = [math.log2(x) ** 2 for x in ns]
    rand_fit = fit_linear(log2sq, rand)
    rand_linear_fit = fit_linear(ns, rand)
    rr_fit = fit_linear(ns, rr)
    dfs_fit = fit_linear(ns, dfs)
    return {
        "randomized_vs_log2sq": {
            "slope": rand_fit.slope,
            "r_squared": rand_fit.r_squared,
        },
        "randomized_vs_n": {
            "slope": rand_linear_fit.slope,
            "r_squared": rand_linear_fit.r_squared,
        },
        "round_robin_vs_n": {"slope": rr_fit.slope, "r_squared": rr_fit.r_squared},
        "dfs_vs_n": {"slope": dfs_fit.slope, "r_squared": dfs_fit.r_squared},
    }
