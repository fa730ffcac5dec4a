"""The four campaign workloads, the host-speed probe, and the output checks.

Each workload is a closed loop with one client: a *campaign* is a list of
*slices* (calls into the program), run back to back; the next campaign
starts only after the previous one returned and was checked.  Inputs
come from the workload's seed alone (``campaign_seed``); the program only
ever sees the generated inputs.

Timings are divided by the **host-speed probe**, a fixed pure-Python loop
(:func:`probe_slice`) timed between slices in the same process: on a
shared host the machine's speed drifts between processes by more than
the changes the benchmark must resolve, and the probe drifts with it.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import random
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

EPSILON = 0.1

#: Iterations of the probe loop: ~20 ms per slice on a 2020s x86 core.
PROBE_ITERS = 120_000

#: Probe seconds per second of work: after each slice, probe slices run
#: until they add up to this share of its wall time (at least one), so
#: the probes sample the host evenly over time, long slices included.
PROBE_SHARE = 0.05

#: Workload sizes.  ``tiny`` exists for the benchmark's own tests.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "gap_sizes": (8, 16, 32, 64, 128, 256, 512),
        "gap_reps": 4,
        "gap_hidden_sets": 3,
        "decay_nodes": 256,
        "decay_seeds": 32,
        "chaos_n": 48,
        "chaos_reps": 24,
    },
    "tiny": {
        "gap_sizes": (8, 16, 32),
        "gap_reps": 2,
        "gap_hidden_sets": 3,
        "decay_nodes": 36,
        "decay_seeds": 8,
        "chaos_n": 16,
        "chaos_reps": 3,
    },
}


def probe_slice() -> float:
    """Run the fixed host-speed probe once; return its wall seconds."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return time.perf_counter() - t0


def probe_after(seconds: float, probes: list[float]) -> None:
    """Probe for ``PROBE_SHARE`` of ``seconds`` (at least one slice)."""
    spent = 0.0
    while not spent or spent < PROBE_SHARE * seconds:
        probes.append(probe_slice())
        spent += probes[-1]


def campaign_seed(workload: str, seed: int, index: int) -> int:
    """The master seed of campaign ``index`` of a run (benchmark-owned)."""
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(31)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reap_children(timeout: float = 10.0) -> None:
    """Wait until pool workers have exited, so their CPU is accounted."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.002)


@dataclass
class Verdict:
    """Checked outputs of one campaign: how many, and which failed why."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class Campaign:
    """One campaign's generated inputs and the slices that run it."""

    seed: int
    slices: list[Callable[[], Any]]
    inputs: dict[str, Any] = field(default_factory=dict)
    cleanup: Callable[[], None] | None = None


class Workload:
    """A workload: imports its layers, builds campaigns, checks outputs."""

    name = "?"
    #: Where trials run outside this process: ``"pool"`` (forked pool
    #: workers ship records back), ``"fabric"`` (worker subprocesses).
    transport: str | None = None

    def __init__(self, scale: dict[str, Any], workdir: Path) -> None:
        self.scale = scale
        self.workdir = workdir
        self.load()

    def load(self) -> None:
        """Import the program modules this workload calls into."""

    def campaign(self, seed: int) -> Campaign:
        raise NotImplementedError

    def check(self, campaign: Campaign, outputs: list[Any]) -> Verdict:
        raise NotImplementedError


# -- gap-ref -------------------------------------------------------------


class GapRef(Workload):
    """E5 / Corollary 13 on ``C_n``: the reference engine, serial."""

    name = "gap-ref"

    def load(self) -> None:
        from repro.experiments import exp_gap
        from repro.experiments.runner import ExperimentConfig

        self.exp_gap = exp_gap
        self.config_cls = ExperimentConfig
        self._bounds: dict[tuple[int, frozenset[int]], int] = {}

    def campaign(self, seed: int) -> Campaign:
        config = self.config_cls(
            reps=self.scale["gap_reps"], master_seed=seed, jobs=1, backend="reference"
        )
        hidden = self.scale["gap_hidden_sets"]

        def row(n: int) -> Callable[[], Any]:
            # Looked up at call time, so the traced run sees the wrapper.
            return lambda: self.exp_gap.run_gap_table(
                config, sizes=(n,), epsilon=EPSILON, hidden_set_count=hidden
            )

        return Campaign(
            seed,
            [row(n) for n in self.scale["gap_sizes"]],
            {"config": config, "hidden": hidden},
        )

    def slot_bound(self, n: int, hidden: frozenset[int]) -> int:
        """Theorem 4's slot bound on ``C_n`` with hidden set ``hidden``."""
        key = (n, hidden)
        if key not in self._bounds:
            from repro.core.bounds import theorem4_slot_bound
            from repro.graphs.generators import c_n
            from repro.graphs.properties import diameter, max_degree

            g = c_n(n, hidden)
            self._bounds[key] = theorem4_slot_bound(
                g.num_nodes(), diameter(g), max(1, max_degree(g)), EPSILON
            )
        return self._bounds[key]

    def check(self, campaign: Campaign, outputs: list[Any]) -> Verdict:
        from repro.analysis.tables import Table

        verdict = Verdict()
        table = Table(outputs[0].title, outputs[0].columns)
        for part in outputs:
            for values in part.rows:
                table.add_row(*values)
        for values in table.rows:
            row = dict(zip(table.columns, values))
            n = int(row["n"])
            verdict.expect(
                row["det_round_robin"] == n,
                f"n={n}: round-robin worst case {row['det_round_robin']} != n",
            )
            verdict.expect(
                row["det_dfs"] == 2 * n - 1,
                f"n={n}: DFS worst case {row['det_dfs']} != 2n-1",
            )
            hidden_sets = self.exp_gap.sample_hidden_sets(
                n, campaign.inputs["hidden"], campaign.seed
            )
            bound = max(self.slot_bound(n, s) for s in hidden_sets)
            verdict.expect(
                row["rand_p90"] <= bound,
                f"n={n}: randomized p90 {row['rand_p90']} > Theorem 4 bound {bound}",
            )
        fits = self.exp_gap.gap_growth_fits(table)
        for curve in ("round_robin_vs_n", "dfs_vs_n"):
            verdict.expect(
                fits[curve]["r_squared"] >= 0.99,
                f"{curve}: R^2 {fits[curve]['r_squared']:.4f} < 0.99",
            )
        return verdict


# -- decay-numpy ---------------------------------------------------------


class DecayNumpy(Workload):
    """Theorem 4's Decay broadcast on the NumPy backend, batched."""

    name = "decay-numpy"

    def load(self) -> None:
        from repro.graphs import generators
        from repro.protocols.decay_broadcast import run_decay_broadcast
        from repro.sim import vectorized

        self.vectorized = vectorized
        self.reference = run_decay_broadcast
        self.graphs = self.topologies(generators)

    def topologies(self, gen: Any) -> dict[str, Any]:
        """``C_n``, a sparse G(n, p) and a grid of about the same size:
        maximum degree n-2, ~20 and 4, so Decay's phase length varies.

        The graphs are the same in every campaign and run; only the trial
        seeds come from the workload seed, so the work per campaign
        varies little and the timings show the host and the program.
        """
        nodes = self.scale["decay_nodes"]
        layer = nodes - 2
        side = math.isqrt(nodes)
        return {
            "cn": gen.c_n(layer, range(layer // 2 + 1, layer + 1)),
            "gnp": gen.random_gnp(nodes, 10.0 / nodes, random.Random("decay-gnp")),
            "grid": gen.grid(side, side),
        }

    def campaign(self, seed: int) -> Campaign:
        graphs = self.graphs
        rng = random.Random(seed)
        count = self.scale["decay_seeds"]
        seeds = {name: [rng.getrandbits(31) for _ in range(count)] for name in graphs}
        samples = {name: rng.choice(seeds[name]) for name in graphs}

        def batch(name: str) -> Callable[[], Any]:
            graph, trial_seeds = graphs[name], seeds[name]
            return lambda: self.vectorized.run_decay_broadcast_batch(
                graph, 0, trial_seeds, epsilon=EPSILON
            )

        return Campaign(
            seed,
            [batch(name) for name in graphs],
            {"graphs": graphs, "seeds": seeds, "samples": samples},
        )

    def check(self, campaign: Campaign, outputs: list[Any]) -> Verdict:
        verdict = Verdict()
        graphs = campaign.inputs["graphs"]
        for name, results in zip(graphs, outputs):
            graph = graphs[name]
            seeds = campaign.inputs["seeds"][name]
            verdict.expect(
                len(results) == len(seeds),
                f"{name}: {len(results)} results for {len(seeds)} seeds",
            )
            rate = sum(r.broadcast_succeeded(source=0) for r in results) / len(seeds)
            verdict.expect(
                rate >= 1 - 2 * EPSILON,
                f"{name}: success rate {rate:.3f} < 1-2eps",
            )
            sample = campaign.inputs["samples"][name]
            vec = results[seeds.index(sample)]
            ref = self.reference(graph, 0, seed=sample, epsilon=EPSILON)
            verdict.expect(
                vec.slots == ref.slots
                and vec.metrics == ref.metrics
                and vec.node_results() == ref.node_results(),
                f"{name}: seed {sample} differs from the reference engine",
            )
        return verdict


# -- chaos-pool / chaos-fabric --------------------------------------------


class ChaosPool(Workload):
    """Property 3's chaos campaign through ``resilient_map`` (jobs=2)."""

    name = "chaos-pool"
    transport = "pool"

    def load(self) -> None:
        from repro import chaos

        self.chaos = chaos

    def config(self, seed: int, jobs: int | None = None) -> Any:
        return self.chaos.ChaosConfig(
            n=self.scale["chaos_n"],
            reps=self.scale["chaos_reps"],
            master_seed=seed,
            jobs=jobs,
        )

    def campaign(self, seed: int) -> Campaign:
        config = self.config(seed, jobs=2)
        return Campaign(seed, [lambda: self.chaos.run_chaos_campaign(config)])

    def check(self, campaign: Campaign, outputs: list[Any]) -> Verdict:
        return self.check_report(outputs[0])

    def check_report(self, report: Any) -> Verdict:
        verdict = Verdict()
        verdict.expect(
            len(report.outcomes) == 2 * report.config.reps,
            f"{len(report.outcomes)} outcomes for {2 * report.config.reps} trials",
        )
        for outcome in report.outcomes:
            verdict.expect(
                not outcome["violations"],
                f"trial {outcome['arm']}/{outcome['seed']}: {outcome['violations']}",
            )
        verdict.expect(report.passed, "ChaosReport.passed is false")
        return verdict


class ChaosFabric(ChaosPool):
    """The same campaign through the lease-store fabric (2 workers)."""

    name = "chaos-fabric"
    transport = "fabric"

    def load(self) -> None:
        super().load()
        from repro.fabric import coordinator

        self.coordinator = coordinator

    def campaign(self, seed: int) -> Campaign:
        store_dir = self.workdir / f"fabric-{seed}"
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
        fabric_config = self.coordinator.FabricConfig(
            spec="chaos",
            params={
                "n": self.scale["chaos_n"],
                "reps": self.scale["chaos_reps"],
                "master_seed": seed,
            },
            store=store_dir / "campaign.db",
            workers=2,
            worker_telemetry=True,
            install_signal_handler=False,
            timeout=150.0,
        )
        inputs: dict[str, Any] = {"store_dir": store_dir}

        def run() -> Any:
            inputs["called_ts"] = time.time()  # the store stamps events with time.time()
            return self.coordinator.run_fabric(fabric_config)

        return Campaign(
            seed,
            [run],
            inputs,
            cleanup=lambda: shutil.rmtree(store_dir, ignore_errors=True),
        )

    def check(self, campaign: Campaign, outputs: list[Any]) -> Verdict:
        result = outputs[0]
        report = self.chaos.ChaosReport(config=self.config(campaign.seed), outcomes=result.results)
        verdict = self.check_report(report)
        verdict.expect(result.takeovers == 0, f"{result.takeovers} takeovers")
        verdict.expect(result.fence_rejects == 0, f"{result.fence_rejects} fence rejects")
        verdict.expect(
            sorted(result.worker_exits) == ["w0", "w1"]
            and all(
                code == 0 or worker in late_sigterms(result)
                for worker, code in result.worker_exits.items()
            ),
            f"worker exits {result.worker_exits}",
        )
        return verdict


def late_sigterms(result: Any) -> set[str]:
    """Workers that logged a clean ``worker_exit`` and then died of SIGTERM.

    Once every chunk is committed the coordinator SIGTERMs the workers
    still alive.  A worker already past ``worker_exit`` may be in
    interpreter shutdown, where Python has put SIGTERM back to its
    default action, so it dies with -15 after finishing cleanly.  That
    is counted (``fabric.late_sigterms``), not treated as a crash.
    """
    done = {
        event["worker"]
        for event in result.events
        if event["kind"] == "worker_exit" and str(event["detail"]).startswith("done")
    }
    return {
        worker
        for worker, code in result.worker_exits.items()
        if code == -signal.SIGTERM and worker in done
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GapRef, DecayNumpy, ChaosPool, ChaosFabric)
}


# -- the timed loop -----------------------------------------------------


@dataclass
class Sample:
    """What one campaign cost and whether its outputs checked out."""

    wall_s: float
    cpu_s: float
    probes: list[float]
    verdict: Verdict


def timed_loop(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    first_index: int = 0,
    paused: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
    on_campaign: Callable[[Campaign, list[Any]], None] | None = None,
) -> list[Sample]:
    """Run campaigns until ``seconds`` have passed (at least one).

    A probe slice runs before a campaign's first slice, and after each
    slice probes run for ``PROBE_SHARE`` of its time.  A campaign's wall
    time sums each call into the program up to its result, probes
    excluded; its CPU time is this process's and its reaped children's.  Checks and ``on_campaign`` run inside
    ``paused()``, which the traced run uses to keep them out of its spans.
    """
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while not samples or time.perf_counter() < deadline:
        campaign = workload.campaign(campaign_seed(workload.name, seed, index))
        probes: list[float] = []
        outputs: list[Any] = []
        wall = cpu = 0.0
        try:
            probes.append(probe_slice())
            for run_slice in campaign.slices:
                c0 = cpu_seconds()
                t0 = time.perf_counter()
                outputs.append(run_slice())
                took = time.perf_counter() - t0
                wall += took
                reap_children()
                cpu += cpu_seconds() - c0
                probe_after(took, probes)
            with paused():
                verdict = workload.check(campaign, outputs)
                if on_campaign is not None:
                    on_campaign(campaign, outputs)
        finally:
            if campaign.cleanup is not None:
                campaign.cleanup()
        samples.append(Sample(wall, cpu, probes, verdict))
        index += 1
    return samples


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def summarize(samples: list[Sample]) -> dict[str, float]:
    """Per-campaign wall and CPU time of a phase, raw and normalized.

    The phase's total is divided by its campaign count, then by the
    probe slice's trimmed mean.  The host switches between speed states
    within a run; the mean follows the share of time spent in each, as
    the workload's total does, and trimming drops one-off stalls.
    """
    probes = [p for s in samples for p in s.probes]
    probe = trimmed_mean(probes)
    wall = statistics.fmean(s.wall_s for s in samples)
    cpu = statistics.fmean(s.cpu_s for s in samples)
    if len(probes) >= 4:
        q1, _, q3 = statistics.quantiles(probes, n=4)
    else:
        q1 = q3 = probe
    return {
        "wall_norm": wall / probe,
        "cpu_norm": cpu / probe,
        "probe_s": probe,
        "probe_iqr_pct": 100.0 * (q3 - q1) / probe,
        "wall_s": wall,
        "cpu_s": cpu,
    }
