"""E1 — Theorem 1: the Decay reception probabilities.

Paper claims, for ``d ≥ 2`` contenders and the shared receiver:

(i)  ``lim_{k→∞} P(k, d) ≥ 2/3``;
(ii) ``P(k, d) > 1/2`` for ``k ≥ 2 log d`` (equality at d = 2).

Three independent estimates are compared per ``d``:

* the exact dynamic program :func:`repro.core.bounds.p_exact`;
* Monte-Carlo over the fast Markov simulation
  (:func:`repro.core.decay.simulate_decay_game`);
* Monte-Carlo over the *full engine*: ``d`` leaf transmitters of a
  star graph running real :class:`~repro.core.decay.DecayProcess`
  machines toward the hub — this validates that the engine's medium
  semantics and the analysis talk about the same protocol.

The limit claim (i) is checked against :func:`p_infinity`'s recurrence
and a long-horizon ``p_exact``.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.stats import wilson_interval
from repro.analysis.tables import Table
from repro.core.bounds import decay_phase_length, p_exact, p_infinity
from repro.core.decay import DecayProcess, simulate_decay_game
from repro.experiments.runner import ExperimentConfig
from repro.graphs.generators import star
from repro.parallel import resilient_map
from repro.rng import spawn
from repro.sim.engine import Engine
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["run_theorem1_table", "engine_decay_game", "DEFAULT_DS"]

DEFAULT_DS = (2, 3, 4, 6, 8, 16, 32, 64, 128, 256)
QUICK_DS = (2, 4, 8, 32)


class _DecayLeaf(NodeProgram):
    """A star leaf running one Decay(k) execution from slot 0."""

    def __init__(self, k: int, p_continue: float = 0.5) -> None:
        self.k = k
        self.p_continue = p_continue
        self._decay: DecayProcess | None = None

    def act(self, ctx: Context) -> Intent:
        if ctx.slot >= self.k:
            return IDLE
        if self._decay is None:
            self._decay = DecayProcess(self.k, "m", ctx.rng, p_continue=self.p_continue)
        return Transmit("m") if self._decay.wants_transmit() else IDLE

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.k


class _Hub(NodeProgram):
    """The star hub: listens for the whole window."""

    def __init__(self, k: int) -> None:
        self.k = k

    def act(self, ctx: Context) -> Intent:
        return RECEIVE if ctx.slot < self.k else IDLE

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= self.k


def _markov_decay_hit(d: int, k: int, seed: int) -> bool:
    """One fast-Markov Theorem-1 game; True iff some slot had a sole
    transmitter.  Module-level (picklable) so repetitions can fan out
    to the process pool."""
    rng = spawn(seed, "decay-game")
    return simulate_decay_game(d, k, rng) is not None


def engine_decay_game(d: int, k: int, seed: int, *, p_continue: float = 0.5) -> bool:
    """One full-engine Theorem-1 game; True iff the hub received."""
    g = star(d)
    programs: dict = {0: _Hub(k)}
    for leaf in range(1, d + 1):
        programs[leaf] = _DecayLeaf(k, p_continue)
    engine = Engine(
        g,
        programs,
        seed=seed,
        initiators=frozenset(range(1, d + 1)),  # contenders already hold a message
    )
    result = engine.run(k)
    return 0 in result.metrics.first_reception


def run_theorem1_table(config: ExperimentConfig | None = None) -> Table:
    """Reproduce Theorem 1 as a table over ``d``."""
    config = config or ExperimentConfig(reps=400)
    ds = QUICK_DS if config.quick else DEFAULT_DS
    table = Table(
        "E1 / Theorem 1 — P(k, d) at k = 2*ceil(log d)",
        [
            "d",
            "k",
            "P_exact",
            "mc_markov",
            "mc_engine",
            "mc_lo",
            "mc_hi",
            "P_inf_exact",
            "claim_ii_holds",
            "claim_i_holds",
        ],
    )
    jobs = config.effective_jobs()
    timeout = config.task_timeout
    for d in ds:
        k = decay_phase_length(d)
        exact = p_exact(k, d)
        markov_hits = sum(
            resilient_map(
                partial(_markov_decay_hit, d, k),
                config.seeds("markov", d),
                jobs=jobs,
                task_timeout=timeout,
            )
        )
        engine_reps = max(60, config.reps // 2)  # engine runs are pricier but need signal
        engine_seeds = config.seeds("engine", d)[:engine_reps]
        engine_hits = sum(
            resilient_map(
                partial(engine_decay_game, d, k),
                engine_seeds,
                jobs=jobs,
                task_timeout=timeout,
            )
        )
        lo, hi = wilson_interval(markov_hits, config.reps)
        p_inf = p_infinity(d)
        table.add_row(
            d,
            k,
            exact,
            markov_hits / config.reps,
            engine_hits / len(engine_seeds),
            lo,
            hi,
            p_inf,
            exact >= 0.5 - 1e-12,
            p_inf >= 2 / 3 - 1e-12,
        )
    return table
