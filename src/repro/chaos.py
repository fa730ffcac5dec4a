"""Adversarial fault-injection campaigns (chaos testing the paper's claims).

The paper's property 3 says Broadcast tolerates *arbitrary* edge
changes "provided that the network of unchanged edges remains
connected".  The E9 experiment probes that with one fault family; this
module stress-tests it with randomized *campaigns* mixing every fault
the simulator can express — edge kills, transient crash–recover
outages, lossy links and adversarial jammers (see
:mod:`repro.sim.faults`) — and checks machine-readable invariants:

* **safety** (must hold in every run, however hostile):
  - *integrity*: a node that claims to be informed holds exactly the
    broadcast payload (jam noise must never be delivered as data);
  - *no phantom completion*: no node runs its Decay phases — i.e. acts
    as an informed forwarder — without holding the message;
  - *accounting*: every recorded reception belongs to an informed node.
* **liveness** (holds only under the proviso): across the campaign's
  ``proviso`` arm the broadcast success rate stays at least
  ``1 − ε − mc_slack``.
* **the proviso is load-bearing**: the ``control`` arm severs one
  spanning-tree cut (a *minimal* proviso violation — only edges
  crossing a single cut are touched), and its success rate must
  collapse to :attr:`ChaosConfig.control_success_max`.

Campaigns are data all the way down: every trial derives from the
campaign's master seed, the per-trial fault schedule is regenerated
from the trial seed, and execution goes through
:func:`repro.parallel.resilient_map` — so a campaign can be journaled,
killed, resumed and replayed with byte-identical results
(``python -m repro chaos --journal c.jsonl``, later ``--resume``).
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

from repro.analysis.tables import Table
from repro.core.bounds import decay_phase_length, theorem4_slot_bound
from repro.errors import ExperimentError, SimulationError
from repro.experiments.exp_dynamic import spanning_tree
from repro.graphs.generators import random_gnp
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected, max_degree
from repro.parallel import resilient_map
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.rng import seed_sequence, spawn
from repro.sim.engine import RunResult
from repro.sim.faults import (
    CrashFault,
    EdgeFault,
    FaultSchedule,
    JamFault,
    LinkLossFault,
    random_edge_kill_schedule,
)
from repro.telemetry.core import event as _telemetry_event

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "run_chaos_campaign",
    "chaos_tasks",
    "build_proviso_schedule",
    "build_control_schedule",
    "check_invariants",
    "PROTOCOLS",
]

logger = logging.getLogger("repro.chaos")

ARMS = ("proviso", "control")

#: The broadcast payload every campaign uses (integrity is checked
#: against it).
MESSAGE = "m"

_SOURCE = 0


def _run_decay(g: Graph, seed: int, epsilon: float, faults: FaultSchedule) -> RunResult:
    return run_decay_broadcast(
        g, source=_SOURCE, seed=seed, epsilon=epsilon, faults=faults
    )


def _run_decay_unaligned(
    g: Graph, seed: int, epsilon: float, faults: FaultSchedule
) -> RunResult:
    return run_decay_broadcast(
        g, source=_SOURCE, seed=seed, epsilon=epsilon, faults=faults, align_phases=False
    )


#: Protocol registry: name -> runner(graph, seed, epsilon, faults).
#: Any protocol exposing the broadcast RunResult surface can be chaos-
#: tested by registering it here (runners must be module-level so
#: campaigns stay picklable for the process pool).
PROTOCOLS: dict[str, Callable[[Graph, int, float, FaultSchedule], RunResult]] = {
    "decay": _run_decay,
    "decay-unaligned": _run_decay_unaligned,
}


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign, fully specified (and fully replayable).

    The fault knobs set the *intensity* of the proviso arm: fractions
    of killable edges / crashable nodes, the per-reception loss
    probability, and jammer count.  ``mc_slack`` is the Monte-Carlo
    allowance added to ε when judging the liveness invariant, and
    ``control_success_max`` the ceiling the control arm must stay
    under (0.0: severing a cut must always break broadcast).
    Trials run on the reference engine, the one faulted simulator.
    """

    n: int = 48
    reps: int = 40
    epsilon: float = 0.1
    master_seed: int = 20260806
    protocol: str = "decay"
    edge_kill_fraction: float = 0.5
    crash_fraction: float = 0.1
    crash_outage_phases: float = 1.0
    loss_p: float = 0.03
    jammers: int = 1
    jam_phases: float = 1.0
    mc_slack: float = 0.1
    control_success_max: float = 0.0
    jobs: int | None = None
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ExperimentError("chaos campaigns need n >= 2")
        if self.reps < 1:
            raise ExperimentError("reps must be >= 1")
        if self.protocol not in PROTOCOLS:
            raise ExperimentError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {', '.join(sorted(PROTOCOLS))}"
            )


def _trial_graph(seed: int, n: int) -> Graph:
    """A connected G(n, p) topology derived from the trial seed."""
    for attempt in range(64):
        g = random_gnp(n, min(1.0, 12.0 / n), spawn(seed, "chaos-graph", attempt))
        if is_connected(g):
            return g
    raise SimulationError(  # pragma: no cover - p = 12/n is connected whp
        f"could not draw a connected G({n}, 12/n) graph for seed {seed}"
    )


def build_proviso_schedule(
    g: Graph,
    tree: Graph,
    seed: int,
    config: ChaosConfig,
    *,
    horizon: int,
    phase_length: int,
) -> FaultSchedule:
    """A randomized schedule that respects the connectivity proviso.

    Non-tree edges die at random slots; a random sample of non-source
    nodes suffers transient crash–recover outages (they come back, so
    the protocol's redundancy can still reach them); every link is
    lossy with a small probability; and jammer windows blanket a few
    neighbourhoods.  The protected spanning tree itself is never cut,
    realising "the network of unchanged edges remains connected".
    """
    rng = spawn(seed, "chaos-faults")
    schedule = random_edge_kill_schedule(
        g, tree, config.edge_kill_fraction, max(1, horizon), rng
    )
    candidates = sorted(node for node in g.nodes if node != _SOURCE)
    outage = max(1, round(config.crash_outage_phases * phase_length))
    crash_deadline = max(2, horizon // 2)
    for node in rng.sample(candidates, round(config.crash_fraction * len(candidates))):
        start = rng.randrange(1, crash_deadline)
        schedule.crash_faults.append(
            CrashFault(slot=start, node=node, until=start + outage)
        )
    if config.loss_p > 0:
        schedule.link_loss_faults.append(LinkLossFault(p=config.loss_p))
    jam_length = max(1, round(config.jam_phases * phase_length))
    for node in rng.sample(candidates, min(config.jammers, len(candidates))):
        start = rng.randrange(0, crash_deadline)
        schedule.jam_faults.append(JamFault(node=node, start=start, end=start + jam_length))
    return schedule


def build_control_schedule(g: Graph, tree: Graph, seed: int) -> FaultSchedule:
    """A *minimal* proviso violation: sever one spanning-tree cut.

    Removing a single tree edge splits the tree into two components;
    killing every graph edge that crosses that partition (at slot 0)
    disconnects the network before the first transmission, so the
    broadcast must fail — demonstrating that the proviso in property 3
    is load-bearing, not decorative.
    """
    rng = spawn(seed, "chaos-control")
    cut_u, cut_v = rng.choice(sorted(tree.edges))
    # Nodes on cut_u's side of the tree once (cut_u, cut_v) is removed.
    side = {cut_u}
    frontier = [cut_u]
    while frontier:
        node = frontier.pop()
        for neighbor in tree.neighbors(node):
            if neighbor not in side and frozenset((node, neighbor)) != frozenset(
                (cut_u, cut_v)
            ):
                side.add(neighbor)
                frontier.append(neighbor)
    cut_edges = [
        EdgeFault(slot=0, u=u, v=v) for u, v in g.edges if (u in side) != (v in side)
    ]
    return FaultSchedule(edge_faults=cut_edges)


def check_invariants(
    result: RunResult, *, source=_SOURCE, message: Any = MESSAGE
) -> list[str]:
    """Machine-checkable safety invariants; returns violation strings.

    These must hold in *every* run, proviso or not: adversity may delay
    or prevent the broadcast, but it must never corrupt it.
    """
    violations: list[str] = []
    outputs = result.node_results()
    informed: set[Any] = set()
    for node, output in outputs.items():
        if not isinstance(output, dict) or "informed" not in output:
            continue  # protocol without the broadcast result surface
        if output["informed"]:
            informed.add(node)
            if output["message"] != message:
                violations.append(
                    f"integrity: node {node!r} holds {output['message']!r} "
                    f"instead of {message!r}"
                )
        elif output.get("phases_executed", 0) > 0:
            violations.append(
                f"phantom-done: node {node!r} ran {output['phases_executed']} "
                "Decay phase(s) without ever holding the message"
            )
    if outputs and source not in informed:
        violations.append(f"source-lost: source {source!r} lost its own message")
    for node in result.metrics.first_reception:
        if node != source and informed and node not in informed:
            violations.append(
                f"accounting: node {node!r} has a recorded reception but no message"
            )
    return violations


def _run_chaos_trial(task: tuple[str, int, ChaosConfig]) -> dict[str, Any]:
    """One seeded trial (module-level so campaigns cross process pools)."""
    arm, seed, config = task
    g = _trial_graph(seed, config.n)
    tree = spanning_tree(g, _SOURCE)
    delta = max(1, max_degree(g))
    phase_length = decay_phase_length(delta)
    horizon = theorem4_slot_bound(
        config.n, _tree_depth(tree, _SOURCE), delta, config.epsilon
    )
    if arm == "proviso":
        schedule = build_proviso_schedule(
            g, tree, seed, config, horizon=horizon, phase_length=phase_length
        )
    elif arm == "control":
        schedule = build_control_schedule(g, tree, seed)
    else:  # pragma: no cover - arms are fixed by run_chaos_campaign
        raise ExperimentError(f"unknown chaos arm {arm!r}")
    result = PROTOCOLS[config.protocol](g, seed, config.epsilon, schedule)
    success = result.broadcast_succeeded(source=_SOURCE)
    violations = check_invariants(result)
    # One structured record per trial, carrying the invariant thresholds
    # so the live conformance monitor (repro.monitor) can judge the
    # campaign as it streams — no-op without an ambient recorder, and
    # shipped back from pool workers like every other event.
    _telemetry_event(
        "chaos_trial",
        arm=arm,
        seed=seed,
        success=success,
        violations=len(violations),
        slots=result.slots,
        nodes=config.n,
        epsilon=config.epsilon,
        mc_slack=config.mc_slack,
        control_success_max=config.control_success_max,
        horizon=horizon,
    )
    return {
        "arm": arm,
        "seed": seed,
        "success": success,
        "slots": result.slots,
        "violations": violations,
        "faults": schedule.counts(),
    }


def _tree_depth(tree: Graph, root) -> int:
    from repro.graphs.properties import bfs_layers

    return max(1, len(bfs_layers(tree, root)) - 1)


@dataclass
class ChaosReport:
    """Aggregated campaign outcome, machine-readable and renderable."""

    config: ChaosConfig
    outcomes: list[dict[str, Any]]

    def arm(self, arm: str) -> list[dict[str, Any]]:
        return [outcome for outcome in self.outcomes if outcome["arm"] == arm]

    def success_rate(self, arm: str) -> float:
        trials = self.arm(arm)
        return sum(1 for t in trials if t["success"]) / len(trials) if trials else 0.0

    @property
    def safety_violations(self) -> list[str]:
        return [v for outcome in self.outcomes for v in outcome["violations"]]

    @property
    def liveness_threshold(self) -> float:
        return 1.0 - self.config.epsilon - self.config.mc_slack

    @property
    def liveness_ok(self) -> bool:
        return self.success_rate("proviso") >= self.liveness_threshold

    @property
    def control_broken(self) -> bool:
        return self.success_rate("control") <= self.config.control_success_max

    @property
    def passed(self) -> bool:
        return self.liveness_ok and self.control_broken and not self.safety_violations

    def table(self) -> Table:
        table = Table(
            f"Chaos campaign — {self.config.protocol} broadcast under adversarial "
            f"faults (n={self.config.n}, eps={self.config.epsilon}, "
            f"seed={self.config.master_seed})",
            ["arm", "runs", "success_rate", "threshold", "claim_holds", "safety_violations"],
        )
        proviso_rate = self.success_rate("proviso")
        control_rate = self.success_rate("control")
        table.add_row(
            "proviso (protected tree)",
            len(self.arm("proviso")),
            proviso_rate,
            f">= {self.liveness_threshold:.2f}",
            self.liveness_ok,
            sum(len(t["violations"]) for t in self.arm("proviso")),
        )
        table.add_row(
            "control (severed cut)",
            len(self.arm("control")),
            control_rate,
            f"<= {self.config.control_success_max:.2f}",
            self.control_broken,
            sum(len(t["violations"]) for t in self.arm("control")),
        )
        return table

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": asdict(self.config),
                "passed": self.passed,
                "liveness": {
                    "success_rate": self.success_rate("proviso"),
                    "threshold": self.liveness_threshold,
                    "ok": self.liveness_ok,
                },
                "control": {
                    "success_rate": self.success_rate("control"),
                    "max_allowed": self.config.control_success_max,
                    "broken_as_expected": self.control_broken,
                },
                "safety_violations": self.safety_violations,
                "trials": self.outcomes,
            },
            indent=2,
            sort_keys=True,
        )


def chaos_tasks(config: ChaosConfig) -> list[tuple[str, int, ChaosConfig]]:
    """The campaign's full, ordered task list (both arms, all seeds).

    Execution knobs (jobs, task_timeout) do not define the campaign:
    they are stripped from the task payloads so the journal fingerprint
    — and thus ``--resume``, and the fabric's lease-store campaign
    identity — is stable across worker counts.  Shared by
    :func:`run_chaos_campaign` and the distributed fabric's ``chaos``
    spec (:mod:`repro.fabric.specs`).
    """
    trial_config = replace(config, jobs=None, task_timeout=None)
    tasks: list[tuple[str, int, ChaosConfig]] = []
    for arm in ARMS:
        for seed in seed_sequence(config.master_seed, config.reps, "chaos", arm):
            tasks.append((arm, seed, trial_config))
    return tasks


def run_chaos_campaign(
    config: ChaosConfig | None = None,
    *,
    journal: str | None = None,
    resume: bool = False,
) -> ChaosReport:
    """Run the two-arm campaign and aggregate its invariant verdicts.

    Trials fan out through :func:`repro.parallel.resilient_map`
    (``config.jobs`` workers, ``config.task_timeout`` per-trial
    timeout, worker-death retry), and with ``journal`` every completed
    chunk is checkpointed so a killed campaign resumes byte-identically
    with ``resume=True``.
    """
    config = config or ChaosConfig()
    tasks = chaos_tasks(config)
    logger.info(
        "chaos campaign: protocol=%s n=%d reps=%d/arm (%d trials), seed=%d",
        config.protocol,
        config.n,
        config.reps,
        len(tasks),
        config.master_seed,
    )
    outcomes = resilient_map(
        _run_chaos_trial,
        tasks,
        jobs=config.jobs,
        task_timeout=config.task_timeout,
        journal=journal,
        resume=resume,
    )
    report = ChaosReport(config=config, outcomes=outcomes)
    logger.info(
        "chaos campaign %s: liveness=%s control_broken=%s safety_violations=%d",
        "passed" if report.passed else "FAILED",
        report.liveness_ok,
        report.control_broken,
        len(report.safety_violations),
    )
    return report
