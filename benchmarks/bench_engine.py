"""Engine micro-benchmarks: simulator throughput (slots/sec scale).

Not a paper result — these keep the substrate's performance honest so
the full-scale experiment sweeps stay laptop-sized.  Besides the
pytest-benchmark timings, :func:`write_bench_json` records slots/sec
per reference topology in ``BENCH_engine.json`` at the repo root, so
successive PRs have a machine-readable perf trajectory to regress
against::

    PYTHONPATH=src python benchmarks/bench_engine.py            # quick
    REPRO_BENCH_SCALE=full PYTHONPATH=src python benchmarks/bench_engine.py

``--check`` compares a fresh measurement against the committed
``BENCH_engine.json`` and fails (exit 1) if combined throughput fell
below ``1 - REPRO_BENCH_TOLERANCE`` of the baseline.  The default
tolerance is deliberately wide (0.35) because the baseline may have
been recorded on different hardware; the check is a floor against
gross regressions — e.g. telemetry instrumentation leaking into the
disabled hot path — not a tight perf gate.

``--perf-overhead`` is the :mod:`repro.perf` variant: the engine with
no ambient session must match the bare hot path (that leg *is* the
bare hot path — one global load plus a ``None`` check), and an active
sampler-only session at the default 97 Hz must cost at most
``REPRO_PERF_TOLERANCE`` percent (default 5).  The tracemalloc leg is
reported but not asserted.  ``--check --flame PATH`` adds perf
forensics to the regression gate: on failure the measurement is
re-taken under the sampling profiler and a flamegraph naming the
hottest frame lands at PATH.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.graphs import complete, grid, random_gnp
from repro.protocols.aloha import make_aloha_programs
from repro.rng import spawn
from repro.sim import Engine

#: Reference topologies: low-degree lattice, sparse random, dense clique.
TOPOLOGIES = [
    ("grid-16x16", lambda: grid(16, 16)),
    ("gnp-256", lambda: random_gnp(256, 0.05, spawn(0, "bench"))),
    ("clique-64", lambda: complete(64)),
]

DEFAULT_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


#: Trials advanced simultaneously by the ``batched`` bench backend.
DEFAULT_BATCH = 64

#: Bench backends: the reference engine, the vectorized engine run one
#: trial at a time (apples-to-apples per-run cost), and the vectorized
#: engine in its batched campaign mode (its actual operating point).
BENCH_BACKENDS = ("reference", "numpy", "batched")


def _run(graph, slots: int) -> float:
    """One timed engine run over ``slots`` slots; returns seconds."""
    programs = make_aloha_programs(graph, 0, p=0.2)
    engine = Engine(graph, programs, seed=1, initiators={0})
    start = time.perf_counter()
    result = engine.run(slots)
    elapsed = time.perf_counter() - start
    assert result.slots == slots
    return elapsed


def _run_vectorized(graph, slots: int, batch: int) -> float:
    """One timed vectorized run of ``batch`` trials; returns seconds.

    Timing covers ``run()`` only — stream seeding happens at
    construction, mirroring :func:`_run`, which also excludes program
    and engine construction.  Trial seeds start at the reference run's
    seed 1, so ``batch=1`` times the exact same run the reference
    backend does.
    """
    from repro.sim.vectorized import AlohaBatch

    runner = AlohaBatch(graph, range(1, batch + 1), source=0, p=0.2, slots=slots)
    start = time.perf_counter()
    results = runner.run()
    elapsed = time.perf_counter() - start
    assert all(result.slots == slots for result in results)
    return elapsed


def measure_slots_per_sec(
    *,
    slots: int | None = None,
    rounds: int | None = None,
    backend: str = "reference",
    batch: int = DEFAULT_BATCH,
) -> dict:
    """Best-of-``rounds`` slots/sec per reference topology.

    ``backend`` is one of :data:`BENCH_BACKENDS`; the ``batched``
    backend advances ``batch`` trials simultaneously and counts
    ``slots * batch`` simulated slots per run (combined campaign
    throughput — the quantity campaigns actually experience).
    """
    if backend not in BENCH_BACKENDS:
        raise ValueError(
            f"unknown bench backend {backend!r}; choose from {BENCH_BACKENDS}"
        )
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if slots is None:
        slots = 500 if scale == "full" else 200
    if rounds is None:
        rounds = 5 if scale == "full" else 3
    trials = batch if backend == "batched" else 1
    topologies = {}
    total_time = 0.0
    for name, factory in TOPOLOGIES:
        graph = factory()
        if backend == "reference":
            best = min(_run(graph, slots) for _ in range(rounds))
        else:
            best = min(_run_vectorized(graph, slots, trials) for _ in range(rounds))
        total_time += best
        topologies[name] = {
            "nodes": graph.num_nodes(),
            "edges": graph.num_edges(),
            "slots_per_sec": round(slots * trials / best, 1),
            "ms_per_run": round(best * 1e3, 2),
        }
    from repro.telemetry.core import git_sha

    payload = {
        "schema": "repro-bench-engine/1",
        "scale": scale,
        "slots_per_run": slots,
        "rounds": rounds,
        "topologies": topologies,
        "combined_slots_per_sec": round(
            slots * trials * len(topologies) / total_time, 1
        ),
        "recorded": round(time.time(), 2),
        "git_sha": git_sha(),
    }
    if backend != "reference":
        payload["backend"] = backend
        if backend == "batched":
            payload["batch"] = batch
    return payload


def measure_backend_matrix(
    *,
    slots: int | None = None,
    rounds: int | None = None,
    batch: int = DEFAULT_BATCH,
    backends: tuple[str, ...] = BENCH_BACKENDS,
) -> dict[str, dict]:
    """One measurement per backend (same topologies, same slot budget)."""
    return {
        name: measure_slots_per_sec(
            slots=slots, rounds=rounds, backend=name, batch=batch
        )
        for name in backends
    }


def render_backend_matrix(matrix: dict[str, dict]) -> str:
    """The backend comparison as one aligned slots/sec table."""
    names = [name for name, _ in TOPOLOGIES] + ["combined"]
    lines = [" ".join([f"{'topology':<12}"] + [f"{b:>12}" for b in matrix])]
    reference = matrix.get("reference")
    for row in names:
        cells = [f"{row:<12}"]
        for measurement in matrix.values():
            value = (
                measurement["combined_slots_per_sec"]
                if row == "combined"
                else measurement["topologies"][row]["slots_per_sec"]
            )
            cells.append(f"{value:>12.1f}")
        lines.append(" ".join(cells))
    if reference is not None and len(matrix) > 1:
        cells = [f"{'speedup':<12}"]
        for measurement in matrix.values():
            ratio = (
                measurement["combined_slots_per_sec"]
                / reference["combined_slots_per_sec"]
            )
            cells.append(f"{ratio:>11.1f}x")
        lines.append(" ".join(cells))
    return "\n".join(lines)


#: Append-only slots/sec trajectory (one measurement per line); the obs
#: run store ingests it for `python -m repro obs trend --source bench`.
DEFAULT_HISTORY_PATH = (
    pathlib.Path(__file__).resolve().parent / "results" / "bench_history.jsonl"
)


def append_bench_history(
    payload: dict, path: str | os.PathLike | None = None
) -> pathlib.Path:
    """Append one measurement to the bench trajectory file."""
    if path is None:
        path = os.environ.get("REPRO_BENCH_HISTORY", DEFAULT_HISTORY_PATH)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as stream:
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    return target


def write_bench_json(
    path: str | os.PathLike | None = None, *, history: bool = True, **measure_kwargs
) -> dict:
    """Measure and persist the slots/sec record (``BENCH_engine.json``).

    Besides rewriting the committed snapshot, the measurement is
    appended to the trajectory file (``history=False`` or
    ``REPRO_BENCH_HISTORY=""`` to skip), so successive recordings
    accumulate instead of overwriting each other.
    """
    if path is None:
        path = os.environ.get("REPRO_BENCH_JSON", DEFAULT_JSON_PATH)
    payload = measure_slots_per_sec(**measure_kwargs)
    # Record the vectorized backends alongside the reference numbers
    # when NumPy is importable; the top-level keys stay the reference
    # measurement so existing trend tooling keeps reading one series.
    from repro.sim.backends import numpy_available

    if numpy_available():
        batch = measure_kwargs.get("batch", DEFAULT_BATCH)
        payload["backends"] = {
            name: measure_slots_per_sec(**{**measure_kwargs, "backend": name})
            for name in BENCH_BACKENDS
            if name != "reference"
        }
        payload["speedup_batched_vs_reference"] = round(
            payload["backends"]["batched"]["combined_slots_per_sec"]
            / payload["combined_slots_per_sec"],
            2,
        )
        payload["batch"] = batch
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if history and os.environ.get("REPRO_BENCH_HISTORY", "unset") != "":
        append_bench_history(payload)
    return payload


#: Allowed fractional drop of combined slots/sec vs the committed baseline.
DEFAULT_TOLERANCE = 0.35


def check_against_baseline(
    path: str | os.PathLike | None = None,
    *,
    tolerance: float | None = None,
    backend: str = "reference",
) -> tuple[bool, str]:
    """Measure now and compare against the committed baseline.

    Returns ``(ok, message)``; ``ok`` is False when combined slots/sec
    dropped more than ``tolerance`` (fraction, default
    ``REPRO_BENCH_TOLERANCE`` or 0.35) below the baseline.  Each backend
    checks against its *own* baseline series: ``reference`` against the
    top-level keys, the vectorized backends against their entry under
    ``baseline["backends"]`` — comparing a batched measurement against
    the reference baseline would declare a bogus 15x "improvement".
    """
    if path is None:
        path = os.environ.get("REPRO_BENCH_JSON", DEFAULT_JSON_PATH)
    baseline_path = pathlib.Path(path)
    if not baseline_path.exists():
        return False, f"no baseline at {baseline_path}; run without --check first"
    if tolerance is None:
        tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE))
    # A stale or hand-edited baseline should fail with a diagnosis, not
    # a KeyError traceback: parse and cross-check before measuring.
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return False, (
            f"baseline {baseline_path} is unreadable ({exc}); "
            f"re-record it by running without --check"
        )
    if backend != "reference":
        backends = baseline.get("backends") if isinstance(baseline, dict) else None
        baseline = backends.get(backend) if isinstance(backends, dict) else None
        if baseline is None:
            return False, (
                f"baseline {baseline_path} has no '{backend}' entry under "
                f"'backends' (recorded without NumPy?); re-record it by "
                f"running without --check with the fast extra installed"
            )
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("combined_slots_per_sec"), (int, float)
    ):
        schema = baseline.get("schema") if isinstance(baseline, dict) else None
        return False, (
            f"baseline {baseline_path} has no numeric 'combined_slots_per_sec' "
            f"(schema {schema!r}); re-record it by running without --check"
        )
    current_names = {name for name, _ in TOPOLOGIES}
    baseline_topologies = baseline.get("topologies")
    if isinstance(baseline_topologies, dict):
        stale = sorted(set(baseline_topologies) - current_names)
        if stale:
            return False, (
                f"baseline {baseline_path} lists topologies the bench set no "
                f"longer produces: {', '.join(stale)} (current set: "
                f"{', '.join(sorted(current_names))}); re-record the baseline "
                f"by running without --check"
            )
    base = baseline["combined_slots_per_sec"]
    current = measure_slots_per_sec(backend=backend)
    now = current["combined_slots_per_sec"]
    floor = base * (1.0 - tolerance)
    ok = now >= floor
    message = (
        f"combined slots/sec [{backend}]: current={now:.1f} baseline={base:.1f} "
        f"floor={floor:.1f} (tolerance {tolerance:.0%}) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )
    return ok, message


#: Allowed sampling-profiler overhead, percent (``--perf-overhead``).
DEFAULT_PERF_TOLERANCE_PCT = 5.0


def measure_perf_overhead(
    *, slots: int | None = None, rounds: int | None = None, hz: float | None = None
) -> dict:
    """Marginal cost of an active :mod:`repro.perf` sampling session.

    Three legs on the grid topology, best-of-``rounds`` each:

    * ``disabled`` — no session (the default engine hot path: one
      module-global load plus a ``None`` check per run);
    * ``sampled`` — an ambient :class:`~repro.perf.PerfSession` at
      ``hz``, sampler only (the ``REPRO_PERF`` worker configuration);
    * ``traced`` — the same session with :mod:`tracemalloc` accounting
      (the ``--perf`` CLI default).

    The CI gate holds ``sampler_overhead_pct`` under
    ``REPRO_PERF_TOLERANCE`` (default 5%): the sampler runs on its own
    thread, so the sampled leg's only hot-path cost is the ambient
    check the disabled leg pays too.  The traced leg is *reported*, not
    asserted — tracemalloc hooks every allocation and its cost scales
    with allocation rate, which is exactly what it exists to expose.
    """
    from repro.perf import DEFAULT_HZ, PerfSession
    from repro.perf import core as perf_core

    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if slots is None:
        slots = 500 if scale == "full" else 200
    if rounds is None:
        rounds = 5 if scale == "full" else 3
    if hz is None:
        hz = DEFAULT_HZ
    graph = grid(16, 16)
    _run(graph, slots)  # warm-up: imports and allocator steady-state

    def leg(memory: bool | None) -> float:
        if memory is None:
            return min(_run(graph, slots) for _ in range(rounds))
        best = float("inf")
        for _ in range(rounds):
            session = PerfSession(hz, memory=memory)
            previous = perf_core.set_active(session)
            session.start()
            try:
                best = min(best, _run(graph, slots))
            finally:
                session.stop()
                perf_core.set_active(previous)
        return best

    disabled = leg(None)
    sampled = leg(False)
    traced = leg(True)
    return {
        "slots_per_run": slots,
        "rounds": rounds,
        "hz": hz,
        "disabled_slots_per_sec": round(slots / disabled, 1),
        "sampled_slots_per_sec": round(slots / sampled, 1),
        "traced_slots_per_sec": round(slots / traced, 1),
        "sampler_overhead_pct": round((sampled - disabled) / disabled * 100.0, 2),
        "tracemalloc_overhead_pct": round((traced - disabled) / disabled * 100.0, 2),
    }


def profile_regression(
    flame_path: str | os.PathLike,
    *,
    backend: str = "reference",
    hz: float | None = None,
    message: str = "",
) -> str | None:
    """Re-measure under the sampling profiler and write a flamegraph.

    The ``--check`` gate calls this after a regression verdict: the
    profiled re-measurement shows where the wall time went, and the
    returned culprit — the hottest self-time frame — names the prime
    suspect in both the gate output and the flamegraph subtitle.
    """
    from repro.perf import DEFAULT_HZ, PerfSession, render_flamegraph, top_frames
    from repro.perf import core as perf_core

    session = PerfSession(hz if hz is not None else 2 * DEFAULT_HZ, memory=False)
    previous = perf_core.set_active(session)
    session.start()
    try:
        measure_slots_per_sec(backend=backend)
    finally:
        session.stop()
        perf_core.set_active(previous)
    frames = top_frames(session.counts, top=1)
    culprit = frames[0]["frame"] if frames else None
    subtitle = message or "bench --check regression profile"
    if culprit:
        subtitle += f" — hottest frame: {culprit}"
    pathlib.Path(flame_path).write_text(
        render_flamegraph(
            session.counts,
            title=f"bench perf gate — {backend} regression",
            subtitle=subtitle,
        ),
        encoding="utf-8",
    )
    return culprit


def test_engine_slot_throughput(benchmark, engine_topology):
    name, factory = engine_topology
    g = factory()

    def run_200_slots():
        programs = make_aloha_programs(g, 0, p=0.2)
        engine = Engine(g, programs, seed=1, initiators={0})
        return engine.run(200)

    result = benchmark(run_200_slots)
    assert result.slots == 200


def test_engine_bench_json():
    """Emit the perf-trajectory record as part of the bench harness."""
    payload = write_bench_json()
    assert payload["combined_slots_per_sec"] > 0
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))


def pytest_generate_tests(metafunc):
    if "engine_topology" in metafunc.fixturenames:
        metafunc.parametrize(
            "engine_topology", TOPOLOGIES, ids=[name for name, _ in TOPOLOGIES]
        )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="output path (default: repo root)")
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh measurement against the committed baseline "
             "instead of rewriting it; exit 1 on regression beyond "
             "$REPRO_BENCH_TOLERANCE (default 0.35)",
    )
    parser.add_argument(
        "--perf-overhead", action="store_true",
        help="measure the marginal cost of an active sampling-profiler "
             "session (repro.perf) and exit 1 if the sampler-only leg "
             "costs more than $REPRO_PERF_TOLERANCE percent (default 5); "
             "the tracemalloc leg is reported, not asserted; the "
             "measurement is appended to the bench history with "
             "variant=perf-overhead",
    )
    parser.add_argument(
        "--flame", default=None, metavar="HTML",
        help="with --check: on regression, re-measure under the sampling "
             "profiler and write a flamegraph here naming the hottest "
             "frame (the gate's prime suspect)",
    )
    parser.add_argument(
        "--backend", default="reference",
        choices=[*BENCH_BACKENDS, "all"],
        help="engine backend to measure: 'reference' (default), 'numpy' "
             "(vectorized, batch of 1), 'batched' (vectorized, --batch "
             "trials at once), or 'all' to print a per-topology "
             "comparison matrix; with --check, the named backend is "
             "compared against its own entry in the baseline",
    )
    parser.add_argument(
        "--batch", type=int, default=DEFAULT_BATCH,
        help=f"trials per batch for the 'batched' backend "
             f"(default {DEFAULT_BATCH})",
    )
    args = parser.parse_args()
    if args.check:
        if args.backend == "all":
            parser.error("--check needs a single backend, not 'all'")
        ok, message = check_against_baseline(args.json, backend=args.backend)
        print(message)
        if not ok and args.flame:
            culprit = profile_regression(
                args.flame, backend=args.backend, message=message
            )
            print(f"perf gate: wrote {args.flame}"
                  + (f" (hottest frame: {culprit})" if culprit else ""))
        raise SystemExit(0 if ok else 1)
    if args.perf_overhead:
        overhead = measure_perf_overhead()
        print(json.dumps(overhead, indent=2, sort_keys=True))
        tolerance_pct = float(
            os.environ.get("REPRO_PERF_TOLERANCE", DEFAULT_PERF_TOLERANCE_PCT)
        )
        ok = overhead["sampler_overhead_pct"] <= tolerance_pct
        print(f"sampler overhead: {overhead['sampler_overhead_pct']:+.2f}% "
              f"(tolerance {tolerance_pct:.0f}%) -> "
              f"{'OK' if ok else 'REGRESSION'}")
        if os.environ.get("REPRO_BENCH_HISTORY", "unset") != "":
            record = {"variant": "perf-overhead", **overhead,
                      "recorded": round(time.time(), 2)}
            append_bench_history(record)
        raise SystemExit(0 if ok else 1)
    if args.backend != "reference":
        from repro.sim.backends import numpy_available

        if not numpy_available():
            print(
                f"backend '{args.backend}' needs NumPy (pip install "
                f"'.[fast]'); only 'reference' runs without it"
            )
            raise SystemExit(2)
    if args.backend == "all":
        matrix = measure_backend_matrix(batch=args.batch)
        print(render_backend_matrix(matrix))
        raise SystemExit(0)
    if args.backend != "reference":
        payload = measure_slots_per_sec(backend=args.backend, batch=args.batch)
        print(json.dumps(payload, indent=2, sort_keys=True))
        raise SystemExit(0)
    report = write_bench_json(args.json)
    print(json.dumps(report, indent=2, sort_keys=True))
