#!/usr/bin/env python3
"""The repository's benchmark: four campaign workloads, run closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gap-ref --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each invocation runs one discarded warm-up process, two set-up-only
processes and four measuring processes (``setup_s`` is the median over
the last six), all with BLAS/OpenMP pinned to one thread and a fixed
hash seed.  ``--trace 1`` runs one measuring process instead, whose
first half is untraced and second half traced.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced run with ``--trace 1``.
Times are in units of the host-speed probe (see ``workloads.py``); the
raw seconds are the per-layer ``host.*`` metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Environment of every workload process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Measuring processes per run, each timing an equal share of
#: ``--seconds``.  Memory layout and core placement differ per process
#: and move a workload's speed relative to the probe by 5-10% for the
#: whole life of a process, so a run averages over several.
PROCESSES = 4

#: Set-up-only processes per run; ``setup_s`` is the median over these
#: and the measuring processes.
SETUP_SAMPLES = 2

#: Campaign indices reserved per measuring process, so parts never
#: repeat a campaign.
CAMPAIGNS_PER_PART = 10_000

END_TO_END = {
    "wall_norm": "probe",
    "cpu_norm": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "host.probe_s": "s",
    "host.probe_iqr_pct": "%",
    "host.wall_s": "s",
    "host.cpu_s": "s",
    "graphs.build_s": "s",
    "graphs.builds": "count",
    "rng.spawn_s": "s",
    "rng.spawns": "count",
    "protocols.make_s": "s",
    "protocols.callback_s": "s",
    "protocols.callbacks": "count",
    "engine.init_s": "s",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.runs": "count",
    "engine.slots": "count",
    "engine.slots_per_s": "1/s",
    "vectorized.init_s": "s",
    "vectorized.run_s": "s",
    "vectorized.trials": "count",
    "vectorized.slots": "count",
    "mtstreams.init_s": "s",
    "experiments.self_s": "s",
    "chaos.check_s": "s",
    "parallel.map_s": "s",
    "parallel.chunk_busy_s": "s",
    "parallel.idle_s": "s",
    "parallel.chunks": "count",
    "parallel.retries": "count",
    "fabric.run_s": "s",
    "fabric.spawn_s": "s",
    "fabric.chunk_busy_s": "s",
    "fabric.idle_s": "s",
    "fabric.chunks": "count",
    "fabric.takeovers": "count",
    "fabric.fence_rejects": "count",
    "fabric.late_sigterms": "count",
    "telemetry.records": "count",
    "telemetry.bytes": "count",
    "trace.overhead_pct": "%",
    "trace.remainder_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- launcher ------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    args: argparse.Namespace, mode: str, timeout: float, *, part: int = 0, seconds: float = 0.0
) -> dict[str, Any]:
    """Run one workload process; return its JSON line plus ``setup_s``."""
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(seconds or args.seconds),
        "--trace",
        str(args.trace),
        "--scale",
        args.scale,
        "--part",
        str(part),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} process exceeded {timeout:.0f}s") from None
    finally:
        # The session holds the workload's own children (pool, fabric
        # workers); none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def measure(args: argparse.Namespace) -> dict[str, Any]:
    """Warm up, sample set-up, run the measuring process; build the result."""
    run_child(args, "setup", timeout=120)  # warm-up: fills .pyc and the page cache
    setups = [run_child(args, "setup", timeout=120)["setup_s"] for _ in range(SETUP_SAMPLES)]
    if args.trace == 0:
        share = args.seconds / PROCESSES
        parts = [
            run_child(args, "run", share * 4 + 120, part=part, seconds=share)
            for part in range(PROCESSES)
        ]
        setups += [part["setup_s"] for part in parts]
        metrics = {
            "wall_norm": statistics.fmean(p["metrics"]["wall_norm"] for p in parts),
            "cpu_norm": statistics.fmean(p["metrics"]["cpu_norm"] for p in parts),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["metrics"]["peak_rss_mb"] for p in parts),
        }
        result = {
            "attempted": sum(p["attempted"] for p in parts),
            "failures": [f for p in parts for f in p["failures"]],
            "host": parts[0]["host"],
        }
        metrics["ok_frac"] = 1 - len(result["failures"]) / result["attempted"]
        units = END_TO_END
    else:
        result = run_child(args, "run", timeout=args.seconds * 4 + 120)
        metrics = result["metrics"]
        units = PER_LAYER
    host = result["host"]
    print(
        f"# {args.workload} seed={args.seed}: nproc={host['nproc']} "
        f"python={host['python']} numpy={host['numpy']} "
        + " ".join(f"{k}={v}" for k, v in sorted(PINNED_ENV.items()))
    )
    for failure in result["failures"][:20]:
        print(f"# check failed: {failure}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def launch(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(measure(args)))
        return 0
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        result = measure(argparse.Namespace(**{**vars(args), "workload": name}))
        for metric, value in result["metrics"].items():
            print(f"{name:<14} {metric:<24} {value['value']:>14.6g} {value['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(combined))
    return 0


# -- workload process ------------------------------------------------------


def host_info() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child(args: argparse.Namespace) -> None:
    workload = wl.WORKLOADS[args.workload](wl.SCALES[args.scale], WORKDIR)
    first_index = args.part * CAMPAIGNS_PER_PART
    first = workload.campaign(wl.campaign_seed(workload.name, args.seed, first_index))
    if first.cleanup is not None:
        first.cleanup()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready_monotonic": ready}))
        return
    # Warm-up: one small campaign, discarded, so lazy caches are filled.
    warm = wl.WORKLOADS[args.workload](wl.SCALES["tiny"], WORKDIR)
    wl.timed_loop(warm, -1, 0.0)

    if args.trace == 0:
        samples = wl.timed_loop(workload, args.seed, args.seconds, first_index=first_index)
        summary = wl.summarize(samples)
        metrics = {
            "wall_norm": summary["wall_norm"],
            "cpu_norm": summary["cpu_norm"],
            "peak_rss_mb": wl.peak_rss_mb(),
        }
    else:
        samples, metrics = traced(workload, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "ready_monotonic": ready,
                "metrics": metrics,
                "attempted": sum(s.verdict.attempted for s in samples),
                "failures": [f for s in samples for f in s.verdict.failures],
                "host": host_info(),
            }
        )
    )


def traced(workload: Any, seed: int, seconds: float) -> tuple[list[Any], dict[str, float]]:
    """Untraced then traced halves of the run; the per-layer metrics."""
    untraced = wl.timed_loop(workload, seed, seconds / 2)
    tracer = Tracer()
    layers = LayerRecords()
    samples = trace_loop(workload, tracer, layers, seed, seconds / 2, len(untraced))
    tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.json")
    metrics = layer_metrics(
        tracer, layers, wl.summarize(untraced), wl.summarize(samples), samples
    )
    return untraced + samples, metrics


def trace_loop(
    workload: Any,
    tracer: Any,
    layers: "LayerRecords",
    seed: int,
    seconds: float,
    first_index: int = 0,
) -> list[Any]:
    """Run campaigns with ``tracer`` installed; checks run untraced.

    Pool trials run in forked workers: a buffered telemetry recorder
    collects what their chunks ship back.  Fabric campaigns are read
    from their result and worker logs.
    """
    from repro.telemetry.core import Telemetry, activate

    recorder = Telemetry.buffered() if workload.transport == "pool" else None

    @contextlib.contextmanager
    def paused() -> Any:
        tracer.restore()
        try:
            yield
        finally:
            tracer.install()

    def on_campaign(campaign: Any, outputs: list[Any]) -> None:
        if recorder is not None:
            layers.add_records(recorder.drain())
        if workload.transport == "fabric":
            layers.add_fabric(campaign, outputs[0])

    tracer.install()
    try:
        with activate(recorder) if recorder is not None else contextlib.nullcontext():
            return wl.timed_loop(
                workload,
                seed,
                seconds,
                first_index=first_index,
                paused=paused,
                on_campaign=on_campaign,
            )
    finally:
        tracer.restore()


class LayerRecords:
    """Sums, by per-layer metric name, of what the program itself reports
    from worker processes."""

    def __init__(self) -> None:
        self.sums: defaultdict[str, float] = defaultdict(float)

    def add_records(self, records: list[dict[str, Any]]) -> None:
        """Records shipped back by pool chunks (and the parent's own)."""
        sums = self.sums
        jobs = 1
        busy = 0.0
        for record in records:
            kind = record.get("kind")
            if kind == "run_end":
                sums["engine.runs"] += 1
                sums["engine.slots"] += record.get("slots_run", 0)
                sums["engine.run_s"] += record.get("wall_s", 0.0)
            elif kind == "perfbench_span" and record.get("name") == "chaos.check":
                sums["chaos.check_s"] += record["dur_s"]
            elif kind == "chunk":
                sums["parallel.chunks"] += 1
                sums["parallel.retries"] += record.get("retries", 0)
                busy += record.get("wall_s", 0.0)
            elif kind == "campaign_begin":
                jobs = record.get("jobs", 1)
            elif kind == "campaign_end":
                sums["parallel.idle_s"] += max(0.0, jobs * record["wall_s"] - busy)
                sums["parallel.chunk_busy_s"] += busy
                busy = 0.0

    def add_fabric(self, campaign: Any, result: Any) -> None:
        """Claim/commit/worker_start events and the workers' telemetry logs."""
        sums = self.sums
        starts: dict[str, float] = {}
        claims: dict[tuple[int, int], float] = {}
        busy = 0.0
        for event in result.events:
            kind = event["kind"]
            if kind == "worker_start":
                starts.setdefault(event["worker"], event["ts"])
            elif kind == "claim":
                claims[(event["idx"], event["fence"])] = event["ts"]
            elif kind == "commit" and (event["idx"], event["fence"]) in claims:
                busy += event["ts"] - claims[(event["idx"], event["fence"])]
        called = campaign.inputs["called_ts"]
        if starts:
            sums["fabric.spawn_s"] += statistics.mean(t - called for t in starts.values())
        sums["fabric.chunks"] += result.chunks
        sums["fabric.chunk_busy_s"] += busy
        sums["fabric.idle_s"] += max(0.0, len(result.workers) * result.wall_s - busy)
        sums["fabric.takeovers"] += result.takeovers
        sums["fabric.fence_rejects"] += result.fence_rejects
        sums["fabric.late_sigterms"] += len(wl.late_sigterms(result))
        for log in result.worker_logs.values():
            data = Path(log).read_bytes()
            sums["telemetry.bytes"] += len(data)
            for line in data.splitlines():
                sums["telemetry.records"] += 1
                record = json.loads(line)
                if record.get("kind") == "run_end":
                    sums["engine.runs"] += 1
                    sums["engine.slots"] += record.get("slots_run", 0)
                    sums["engine.run_s"] += record.get("wall_s", 0.0)


def layer_metrics(
    tracer: Any,
    layers: LayerRecords,
    base: dict[str, float],
    traced_summary: dict[str, float],
    samples: list[Any],
) -> dict[str, float]:
    """Per-layer metrics, per traced campaign."""
    k = len(samples)
    total, own, calls, counts = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    hot = tracer.hot
    per: defaultdict[str, float] = defaultdict(float, layers.sums)
    for name, value in {
        "graphs.build_s": total["graphs.build"],
        "graphs.builds": calls["graphs.build"],
        "rng.spawn_s": hot["rng.spawn"][0],
        "rng.spawns": hot["rng.spawn"][1],
        "protocols.make_s": total["protocols.make"],
        "protocols.callback_s": hot["protocols.callback"][0],
        "protocols.callbacks": hot["protocols.callback"][1],
        "engine.init_s": total["engine.init"],
        "engine.run_s": total["engine.run"],
        "engine.self_s": own["engine.init"] + own["engine.run"],
        "engine.runs": calls["engine.run"],
        "engine.slots": counts["engine.slots"],
        "vectorized.init_s": total["vectorized.init"],
        "vectorized.run_s": total["vectorized.run"],
        "vectorized.trials": counts["vectorized.trials"],
        "vectorized.slots": counts["vectorized.slots"],
        "mtstreams.init_s": total["mtstreams.init"],
        "experiments.self_s": own["experiments.gap_table"],
        "chaos.check_s": total["chaos.check"],
        "parallel.map_s": own["parallel.map"],
        "fabric.run_s": own["fabric.run"],
        "trace.remainder_s": sum(s.wall_s for s in samples) - tracer.top_s,
    }.items():
        per[name] += value
    metrics = {name: per[name] / k for name in PER_LAYER}
    run_s = per["engine.run_s"]
    metrics["engine.slots_per_s"] = per["engine.slots"] / run_s if run_s else 0.0
    metrics["host.probe_s"] = base["probe_s"]
    metrics["host.probe_iqr_pct"] = base["probe_iqr_pct"]
    metrics["host.wall_s"] = base["wall_s"]
    metrics["host.cpu_s"] = base["cpu_s"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_summary["wall_norm"] / base["wall_norm"] - 1)
    return metrics


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: the benchmark's tests"
    )
    parser.add_argument("--child", dest="mode", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.mode is not None:
        child(args)
        return 0
    if args.workload not in wl.WORKLOADS and args.workload != "all":
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        return launch(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
