"""E12 — Section 3.5: spontaneous transmissions and ``C*_n``.

Two sides of the paper's extension:

1. **The 3-round trick on C_n.**  If spontaneous transmissions are
   allowed, ``C_n`` is easy deterministically: round 0 the source
   transmits; round 1 the sink spontaneously transmits the smallest ID
   among its neighbours; round 2 that processor transmits and the sink
   receives.  We implement and verify it (3 slots, every ``S``).

2. **``C*_n`` restores the lower bound.**  On ``G_{S,R}`` the sinks'
   identities are themselves unknown, so the trick dies: the E12 table
   shows the deterministic baselines are back to Θ(n) on ``C*_n``
   (worst case over sampled ``S, R``) while randomized Decay broadcast
   stays polylogarithmic — the gap is robust to the spontaneity
   relaxation exactly as Section 3.5 argues.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.experiments.runner import ExperimentConfig
from repro.graphs.generators import c_n, c_star_n
from repro.protocols.base import run_broadcast
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.protocols.round_robin import make_round_robin_programs
from repro.rng import spawn
from repro.sim.engine import Engine
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["ThreeRoundCnProgram", "run_three_round_table", "run_c_star_table"]

Node = Hashable


class ThreeRoundCnProgram(NodeProgram):
    """The Section 3.5 three-round protocol on ``C_n`` (needs spontaneity).

    Roles as in :mod:`repro.protocols.cd_protocols`; slot 1's sink
    transmission is *spontaneous* (the sink has received nothing yet),
    which is exactly what rule 5 forbids — the point of the paper's
    extension.
    """

    def __init__(self, role: str, *, message: Any = "m") -> None:
        self.role = role
        self.message: Any = message if role == "source" else None
        self._designated: Node | None = None

    def act(self, ctx: Context) -> Intent:
        slot = ctx.slot
        if self.role == "source":
            return Transmit(self.message) if slot == 0 else IDLE
        if self.role == "sink":
            if slot == 1:
                return Transmit(("designate", min(ctx.neighbor_ids)))
            return RECEIVE if slot in (0, 2) else IDLE
        # second layer
        if slot == 0:
            return RECEIVE
        if slot == 1:
            return RECEIVE
        if slot == 2 and self._designated == ctx.node and self.message is not None:
            return Transmit(self.message)
        return IDLE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if isinstance(heard, tuple) and heard and heard[0] == "designate":
            self._designated = heard[1]
            return
        if self.message is None:
            self.message = heard

    def is_done(self, ctx: Context) -> bool:
        return ctx.slot >= 3

    def result(self) -> dict[str, Any]:
        return {"informed": self.message is not None}


def run_three_round_table(
    config: ExperimentConfig | None = None,
    *,
    sizes: tuple[int, ...] = (4, 16, 64, 256),
) -> Table:
    """Verify the 3-slot spontaneous protocol on ``C_n`` for sampled S."""
    config = config or ExperimentConfig()
    if config.quick:
        sizes = sizes[:2]
    table = Table(
        "E12a / Section 3.5 — 3-slot spontaneous broadcast on C_n",
        ["n", "hidden_sets", "worst_slots", "always_informed"],
    )
    for n in sizes:
        rng = spawn(config.master_seed, "threeround", n)
        hidden_sets = [frozenset({1}), frozenset(range(1, n + 1))]
        for _ in range(6):
            size = rng.randint(1, n)
            hidden_sets.append(frozenset(rng.sample(range(1, n + 1), size)))
        worst = 0
        always = True
        for s in hidden_sets:
            g = c_n(n, s)
            sink = n + 1
            programs: dict[Node, ThreeRoundCnProgram] = {}
            for node in g.nodes:
                role = "source" if node == 0 else "sink" if node == sink else "layer"
                programs[node] = ThreeRoundCnProgram(role)
            engine = Engine(
                g,
                programs,
                initiators={0, sink},
                enforce_no_spontaneous=False,
            )
            result = engine.run(6)
            informed = result.programs[sink].message is not None
            always = always and informed
            completion = result.broadcast_completion_slot(source=0)
            worst = max(worst, (completion + 1) if completion is not None else 6)
        table.add_row(n, len(hidden_sets), worst, always)
    return table


def _reachable_targets(g) -> list:
    """The broadcast targets of a ``C*_n`` instance: every non-source
    node with at least one link.  Sinks outside ``R`` are isolated by
    construction (the paper only requires reaching the *connected*
    sinks — "broadcast is completed once a message is received through
    any of the links in E2"; we measure the stricter all-connected-
    sinks time)."""
    return [v for v in g.nodes if v != 0 and g.degree(v) > 0]


def _c_star_completion(result, g) -> int | None:
    """Completion slot over the reachable targets only."""
    times = []
    for node in _reachable_targets(g):
        if node not in result.metrics.first_reception:
            return None
        times.append(result.metrics.first_reception[node])
    return max(times) if times else 0


def _sinks_reached(engine, g) -> bool:
    return all(
        node in engine.metrics.first_reception for node in _reachable_targets(g)
    )


def run_c_star_table(
    config: ExperimentConfig | None = None,
    *,
    sizes: tuple[int, ...] = (8, 16, 32, 64),
    epsilon: float = 0.1,
) -> Table:
    """On ``C*_n`` the deterministic cost is linear again; Decay is not."""
    config = config or ExperimentConfig(reps=10)
    if config.quick:
        sizes = sizes[:2]
    table = Table(
        f"E12b / Section 3.5 — C*_n: TDMA worst case vs Decay (epsilon={epsilon})",
        ["n", "nodes", "det_round_robin_worst", "rand_mean", "gap"],
    )
    for n in sizes:
        rng = spawn(config.master_seed, "cstar", n)
        # The worst case lives at late-slot singletons (the TDMA frame
        # must sweep all the way to min(S)); sample those plus random.
        instances = [
            (frozenset({n}), frozenset({2 * n})),
            (frozenset({n}), frozenset(range(n + 1, 2 * n + 1))),
        ]
        for _ in range(4):
            s = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            r = frozenset(rng.sample(range(n + 1, 2 * n + 1), rng.randint(1, n)))
            instances.append((s, r))
        frame = 2 * n + 1
        det_worst = 0
        for s, r in instances:
            g = c_star_n(n, s, r)
            programs = make_round_robin_programs(g, 0, frame_size=frame)
            result = run_broadcast(
                g,
                programs,
                initiators={0},
                max_slots=frame * 8,
                extra_stop=lambda engine, g=g: _sinks_reached(engine, g),
                stop="informed",
            )
            slot = _c_star_completion(result, g)
            det_worst = max(det_worst, slot if slot is not None else frame * 8)
        rand_slots = []
        for i, seed in enumerate(config.seeds("cstar-rand", n)):
            s, r = instances[i % len(instances)]
            g = c_star_n(n, s, r)
            result = run_decay_broadcast(g, source=0, seed=seed, epsilon=epsilon)
            slot = _c_star_completion(result, g)
            if slot is not None:
                rand_slots.append(slot)
        rand_mean = mean(rand_slots) if rand_slots else float("nan")
        table.add_row(
            n,
            2 * n + 1,
            det_worst,
            rand_mean,
            det_worst / rand_mean if rand_slots else float("nan"),
        )
    return table
