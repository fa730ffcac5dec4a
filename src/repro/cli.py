"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``broadcast`` — run one Decay broadcast on a chosen topology and
  print the outcome (optionally with a timeline visualisation).
* ``bfs`` — run the Decay BFS and print the distance labels.
* ``gap`` — print the exponential-gap table (experiment E5).
* ``experiment`` — run any experiment module by ID (e1..e12) and print
  its table(s).
* ``chaos`` — run a randomized adversarial fault campaign
  (:mod:`repro.chaos`) and check its safety/liveness invariants; the
  exit code reports the verdict, ``--journal``/``--resume`` checkpoint
  and restart long campaigns.
* ``game`` — play the hitting game: foil a named strategy with the
  ``find_set`` adversary.
* ``telemetry`` — summarize (or validate) a JSON-lines event log
  produced by ``--telemetry``.
* ``monitor`` — stream a telemetry log through the live conformance
  checkers (:mod:`repro.monitor`): the paper's bounds as runtime SLOs,
  a live status board, ``--follow`` for campaigns still running, and
  ``--gate`` to exit nonzero when any alert fires (CI).  Given a fabric
  lease store, it follows the store's newest campaign plus its worker
  logs and adds per-worker health lanes to the board; ``--chrome-trace``
  then merges the store's events and the worker logs into one
  Chrome/Perfetto trace with a process lane per worker.
* ``obs`` — cross-run observability (:mod:`repro.obs`): ``ingest``
  telemetry logs / bench records into a SQLite run store, ``compare``
  two runs, ``trend`` a metric with a CI regression gate (``--check``),
  ``report`` terminal tables or an HTML dashboard, ``explain``
  causal slot provenance ("why didn't node v receive in slot t?") or
  a run's perf plane (``--perf``), and ``export`` a log as a
  Chrome/Perfetto trace (``--chrome-trace``).
* ``fabric`` — the crash-safe distributed campaign fabric
  (:mod:`repro.fabric`): ``run`` a registered campaign spec across N
  worker subprocesses coordinating through a shared SQLite lease
  store (optionally under a ``--fault-plan``), ``worker`` is the
  subprocess entry point, ``chaos`` runs the self-verification
  harness — a seeded fault plan kills/stalls real workers and the
  spliced results are asserted byte-identical to a serial run with
  zero fencing violations — and ``autopsy`` reconstructs a finished
  (or crashed) campaign's lease/fence/takeover timeline from the
  store's audit log and verifies the fencing contract post hoc.
* ``perf`` — the performance plane (:mod:`repro.perf`): ``record``
  runs any repro command under the wall-clock sampling profiler and
  writes folded stacks plus a self-contained flamegraph HTML,
  ``flame`` renders a ``.folded`` file or a telemetry log's
  ``perf_profile`` records, and ``diff`` reports per-frame share
  drift between two profiles.

Every command takes ``--seed`` and is fully reproducible.  The
experiment-style commands additionally take ``--jobs N`` (or honour
``REPRO_JOBS``) to fan Monte-Carlo repetitions out to a process pool —
without changing any result, since repetition seeds are derived
order-independently (see :mod:`repro.parallel`) — and
``--task-timeout`` to bound how long any pooled repetition may run
before its worker is presumed hung and retried.

Observability (see :mod:`repro.telemetry`):

* ``--telemetry PATH`` (gap/experiment/chaos) streams structured
  events — engine run spans, protocol phase markers, campaign chunk
  records, progress heartbeats — to ``PATH`` as JSON lines, plus a
  run manifest sidecar at ``PATH.manifest.json``;
* ``--log-level LEVEL`` (global, before the subcommand) turns on the
  library's ``logging`` output, e.g. campaign progress heartbeats from
  ``repro.parallel`` and verdict lines from ``repro.chaos``;
* ``--provenance`` (with ``--telemetry``) records causal slot
  provenance as ``prov`` events, and ``--obs-db DB`` auto-ingests the
  finished log into the run store (see :mod:`repro.obs`);
* ``--perf`` (same commands) attaches the sampling profiler
  (:mod:`repro.perf`): folded wall-clock stacks plus traced memory
  per span land in the telemetry log as ``perf_profile`` /
  ``perf_span`` events (pool and fabric workers sample themselves via
  the inherited ``REPRO_PERF`` gate), the span costs and hottest
  frames print when the command finishes, ``--perf-hz`` tunes the rate
  and ``--perf-out BASE`` writes ``BASE.folded`` + a flamegraph
  ``BASE.html``.  An ingested run's perf plane is read back with
  ``obs explain --perf`` and gated with ``obs trend --metric perf.*
  --check``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.experiments.runner import ExperimentConfig

__all__ = ["main", "build_parser"]

# repro.perf's ENV_VAR, inlined so the no---perf path never imports it.
_PERF_ENV = "REPRO_PERF"


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

    config = ExperimentConfig(
        reps=args.reps, master_seed=args.seed, quick=args.quick, jobs=args.jobs,
        task_timeout=args.task_timeout, backend=args.backend,
    )
    table = run_gap_table(config)
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
    config = ExperimentConfig(
        reps=args.reps, master_seed=args.seed, quick=args.quick, jobs=args.jobs,
        task_timeout=args.task_timeout, backend=args.backend,
    )
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosConfig, run_chaos_campaign

    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal pointing at the campaign journal")
    config = ChaosConfig(
        n=16 if args.quick else args.n,
        reps=8 if args.quick else args.reps,
        epsilon=args.epsilon,
        master_seed=args.seed,
        protocol=args.protocol,
        jobs=args.jobs,
        task_timeout=args.task_timeout,
    )
    report = run_chaos_campaign(config, journal=args.journal, resume=args.resume)
    if args.json:
        print(report.to_json())
    else:
        print(report.table().render())
        print()
        if report.safety_violations:
            print(f"SAFETY VIOLATIONS ({len(report.safety_violations)}):")
            for violation in report.safety_violations[:20]:
                print(f"  - {violation}")
        verdict = "PASSED" if report.passed else "FAILED"
        print(f"campaign {verdict} "
              f"(liveness={'ok' if report.liveness_ok else 'BROKEN'}, "
              f"control_breaks={'yes' if report.control_broken else 'NO'}, "
              f"safety_violations={len(report.safety_violations)})")
        if args.journal:
            print(f"journal: {args.journal} (replay with --resume, or rerun "
                  f"with --seed {args.seed} for a fresh but identical campaign)")
    return 0 if report.passed else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry.summary import (
        read_records,
        render_summary,
        summarize,
        summary_json,
        validate_log,
    )

    if args.validate:
        errors = validate_log(args.log)
        if errors:
            for error in errors[:50]:
                print(error)
            if len(errors) > 50:
                print(f"... and {len(errors) - 50} more")
            print(f"{args.log}: INVALID ({len(errors)} errors)")
            return 1
        print(f"{args.log}: OK")
        return 0
    summary = summarize(read_records(args.log))
    if args.json:
        print(summary_json(summary))
    else:
        print(render_summary(summary))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ExperimentError
    from repro.monitor import (
        BoardRenderer,
        MonitorConfig,
        monitor_log,
        read_log_records,
    )
    from repro.monitor.live import fleet_records, is_sqlite_file

    config = MonitorConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        min_runs=args.min_runs,
        diameter=args.diameter,
        max_degree=args.max_degree,
        deterministic_floor=args.assume_deterministic,
    )
    renderer_factory = None
    if not args.json:
        renderer_factory = lambda board: BoardRenderer(  # noqa: E731
            board, interval=args.interval, plain=True if args.plain else None
        )
    try:
        report = monitor_log(
            args.log,
            config=config,
            follow=args.follow,
            idle_timeout=args.idle_timeout,
            renderer_factory=renderer_factory,
            write_alerts=not args.no_write_alerts,
        )
    except ExperimentError as exc:
        raise SystemExit(f"monitor: {exc}")
    if args.chrome_trace:
        read = fleet_records if is_sqlite_file(args.log) else read_log_records
        trace = _write_trace("monitor", read(args.log), args.chrome_trace)
        if not args.json:
            print(f"wrote {args.chrome_trace} "
                  f"({len(trace['traceEvents'])} trace events)")
    # A gate over zero records checked nothing: exit 2 (no data), not 0.
    unchecked = args.gate and report.records == 0
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True, default=repr))
    else:
        _print_monitor_verdict(report, gate=args.gate and not unchecked)
    if unchecked:
        print(f"monitor: --gate checked nothing: no records in {args.log}",
              file=sys.stderr)
        return 2
    return 1 if (args.gate and report.gate_failed) else 0


def _print_monitor_verdict(report, gate: bool) -> None:
    """Human-readable close-out after the status board's final paint."""
    print()
    for line in report.fleet_lines:
        print(line)
    if report.alerts:
        print(f"{len(report.alerts)} conformance alert(s) fired:")
        for alert in report.alerts:
            print(f"  ! {alert.describe()}")
        if gate:
            print("gate: FAILED")
    else:
        print(f"no conformance alerts over {report.records} records")
        if gate:
            print("gate: PASSED")


def _cmd_obs(args: argparse.Namespace) -> int:
    """Dispatch ``obs ingest|compare|trend|report|explain|export``."""
    import json

    from repro.errors import ExperimentError
    from repro.obs import (
        RunStore,
        compare_runs,
        detect_regression,
        explain_from_store,
        ingest_path,
        render_run_html,
        render_trend_html,
        run_tables,
        trend_points,
        trend_table,
    )
    from repro.analysis.tables import Table

    if args.obs_command == "export":
        # Pure log -> trace translation; no run store involved.
        from repro.monitor import read_log_records

        try:
            records = read_log_records(args.log)
        except ExperimentError as exc:
            raise SystemExit(f"obs export: {exc}")
        trace = _write_trace("obs export", records, args.chrome_trace)
        print(f"wrote {args.chrome_trace} ({len(trace['traceEvents'])} trace "
              f"events from {len(records)} records)")
        return 0

    try:
        with RunStore(args.db) as store:
            if args.obs_command == "ingest":
                code = 0
                for path in args.paths:
                    try:
                        result = ingest_path(store, path)
                    except ExperimentError as exc:
                        print(f"{path}: INGEST FAILED — {exc}")
                        code = 1
                        continue
                    print(result.describe())
                return code

            if args.obs_command == "compare":
                result = compare_runs(store, args.a, args.b)
                if args.json:
                    print(json.dumps(result, indent=2, sort_keys=True, default=repr))
                    return 0
                a, b = result["a"], result["b"]
                table = Table(
                    f"Run {a['id']} ({str(a['fingerprint'])[:8]}) vs "
                    f"run {b['id']} ({str(b['fingerprint'])[:8]})",
                    ["metric", "a", "b", "delta", "pct"],
                )
                for row in result["diff"]:
                    table.add_row(
                        row["metric"],
                        "-" if row["a"] is None else row["a"],
                        "-" if row["b"] is None else row["b"],
                        "-" if row["delta"] is None else row["delta"],
                        "-" if row["pct"] is None else f"{row['pct']:+.1f}%",
                    )
                print(table.render())
                return 0

            if args.obs_command == "trend":
                from repro.obs import DEFAULT_BASELINE_K, DEFAULT_THRESHOLD

                points = trend_points(store, args.metric, source=args.source)
                verdict = detect_regression(
                    [p.value for p in points],
                    threshold=(args.threshold if args.threshold is not None
                               else DEFAULT_THRESHOLD),
                    baseline_k=(args.baseline_k if args.baseline_k is not None
                                else DEFAULT_BASELINE_K),
                    direction=args.direction,
                    metric=args.metric,
                )
                if args.html:
                    import pathlib

                    pathlib.Path(args.html).write_text(
                        render_trend_html(args.metric, points, verdict,
                                          source=args.source),
                        encoding="utf-8",
                    )
                    print(f"wrote {args.html}")
                checkable = len(points) >= 2
                if args.json:
                    # Pure JSON on stdout, even with --check: scripts parse
                    # this; the gate verdict rides in the payload + exit code.
                    payload = {
                        "points": [vars(p) for p in points],
                        "verdict": verdict,
                    }
                    if args.check:
                        payload["check"] = {
                            "checked": checkable,
                            "regressed": bool(verdict["regressed"]) if checkable
                                         else False,
                        }
                    print(json.dumps(payload, indent=2, sort_keys=True,
                                     default=repr))
                else:
                    print(trend_table(args.metric, points, verdict).render())
                if args.check:
                    if not checkable:
                        if not args.json:
                            print(f"trend check: only {len(points)} point(s); "
                                  f"nothing to compare against (pass)")
                        return 0
                    if not args.json:
                        change = verdict["change"]
                        print(
                            f"trend check [{args.source}/{args.metric}]: "
                            f"latest={verdict['latest']:.4g} "
                            f"baseline={verdict['baseline']:.4g} "
                            f"change={change:+.1%} "
                            f"threshold={verdict['threshold']:.0%} "
                            f"({verdict['direction']}) -> "
                            f"{'REGRESSION' if verdict['regressed'] else 'OK'}"
                        )
                    return 1 if verdict["regressed"] else 0
                return 0

            if args.obs_command == "report":
                run = store.resolve_run(args.run)
                if args.html:
                    import pathlib

                    pathlib.Path(args.html).write_text(
                        render_run_html(store, run), encoding="utf-8"
                    )
                    print(f"wrote {args.html}")
                if args.json:
                    print(json.dumps(
                        {"run": run, "metrics": store.metrics_for(run["id"])},
                        indent=2, sort_keys=True, default=repr,
                    ))
                elif not args.html:
                    print("\n\n".join(t.render() for t in run_tables(store, run)))
                return 0

            if args.obs_command == "explain":
                if args.perf_aggregates:
                    from repro.obs import perf_overview

                    overview = perf_overview(store, args.run)
                    if args.json:
                        print(json.dumps(overview, indent=2, sort_keys=True,
                                         default=repr))
                        return 0
                    run = overview["run"]
                    table = Table(
                        f"Perf aggregates — run {run['id']} "
                        f"({str(run['fingerprint'])[:8]})",
                        ["metric", "value"],
                    )
                    for name, value in sorted(overview["metrics"].items()):
                        table.add_row(name, value)
                    print(table.render())
                    if overview["spans"]:
                        table = Table(
                            "Span costs (sampled time + traced memory)",
                            ["span", "secs", "samples", "peak KiB"],
                        )
                        for row in overview["spans"]:
                            table.add_row(
                                row["label"],
                                f"{row.get('secs', 0.0):.3f}",
                                f"{row.get('samples', 0):g}",
                                f"{row.get('mem_peak_kb', 0.0):.1f}",
                            )
                        print()
                        print(table.render())
                    return 0
                if args.fabric:
                    run = store.resolve_run(args.run)
                    metrics = store.metrics_for(run["id"])
                    fabric_metrics = {
                        name: value for name, value in sorted(metrics.items())
                        if name.startswith(("fabric.", "fleet."))
                        or name in ("alerts", "chaos_trials")
                    }
                    if args.json:
                        print(json.dumps(
                            {"run": run, "fabric": fabric_metrics},
                            indent=2, sort_keys=True, default=repr,
                        ))
                        return 0 if fabric_metrics else 1
                    if not fabric_metrics:
                        print(f"run {run['id']}: no fabric/fleet aggregates "
                              "(not a fabric campaign log?)")
                        return 1
                    table = Table(
                        f"Fabric aggregates — run {run['id']} "
                        f"({str(run['fingerprint'])[:8]})",
                        ["metric", "value"],
                    )
                    for name, value in fabric_metrics.items():
                        table.add_row(name, value)
                    print(table.render())
                    return 0
                if args.node is None or args.slot is None:
                    raise SystemExit(
                        "obs explain: --node and --slot are required "
                        "(or use --fabric for fabric campaign aggregates)"
                    )
                result = explain_from_store(
                    store, args.run, args.node, args.slot,
                    engine_run=args.engine_run,
                )
                if args.json:
                    print(json.dumps(result, indent=2, sort_keys=True,
                                     default=repr))
                    return 0 if result["found"] else 1
                print(result["answer"])
                if result.get("others"):
                    print(f"(+{result['others']} more engine runs in this log "
                          f"recorded this (node, slot); narrow with "
                          f"--engine-run)")
                if not result["found"] and result.get("nearby"):
                    print("nearest recorded slots for this node:")
                    for entry in result["nearby"]:
                        print(f"  slot {entry['slot']}: {entry['outcome']}"
                              + (f" ({entry['detail']})" if entry["detail"] else ""))
                return 0 if result["found"] else 1
    except ExperimentError as exc:
        if args.obs_command == "trend" or getattr(args, "perf_aggregates",
                                                  False):
            # The --check exit-code contract: 0 = checked and clean,
            # 1 = regression detected, 2 = bad invocation (unknown
            # metric/source, invalid threshold, missing store, a run
            # with no perf metrics) — so a CI gate can never mistake a
            # typo for a verdict.
            print(f"obs {args.obs_command}: {exc}", file=sys.stderr)
            return 2
        raise SystemExit(f"obs {args.obs_command}: {exc}")
    raise SystemExit(f"unknown obs subcommand {args.obs_command!r}")


def _cmd_perf(args: argparse.Namespace) -> int:
    """Dispatch ``perf record|flame|diff``."""
    import json
    import pathlib

    from repro.analysis.tables import Table
    from repro.perf import (
        DEFAULT_HZ,
        PerfSession,
        diff_folded,
        load_stacks,
        render_flamegraph,
    )
    from repro.perf import activate as perf_activate

    if args.perf_command == "record":
        cmd = list(args.cmd)
        if cmd and cmd[0] == "--":
            cmd = cmd[1:]
        if not cmd:
            raise SystemExit(
                "perf record: give the repro command to profile, e.g. "
                "'repro perf record gap --quick'"
            )
        if cmd[0] == "perf":
            raise SystemExit("perf record: cannot record 'perf' itself")
        hz = args.hz if args.hz is not None else DEFAULT_HZ
        session = PerfSession(hz, memory=not args.no_memory)
        with perf_activate(session):
            try:
                code = main(cmd)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        _report_perf(session, title=f"repro {' '.join(cmd)}", base=args.out)
        return code

    if args.perf_command == "flame":
        stacks = load_stacks(args.input)
        if not stacks:
            raise SystemExit(f"perf flame: no folded stacks or perf_profile "
                             f"records in {args.input}")
        title = args.title or f"repro perf — {args.input}"
        pathlib.Path(args.out).write_text(
            render_flamegraph(stacks, title=title), encoding="utf-8"
        )
        print(f"wrote {args.out} ({sum(stacks.values())} samples, "
              f"{len(stacks)} distinct stacks)")
        return 0

    if args.perf_command == "diff":
        before = load_stacks(args.before)
        after = load_stacks(args.after)
        rows = diff_folded(before, after, top=args.top)
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        table = Table(
            f"Frame share drift — {args.before} vs {args.after} "
            f"(+ = costlier after)",
            ["frame", "before", "after", "delta"],
        )
        for row in rows:
            table.add_row(
                row["frame"],
                f"{row['before_share']:.1%}",
                f"{row['after_share']:.1%}",
                f"{row['delta_share']:+.1%}",
            )
        print(table.render())
        return 0

    raise SystemExit(f"unknown perf subcommand {args.perf_command!r}")


def _parse_params(pairs: list[str]) -> dict:
    """``--param key=value`` pairs; values parse as JSON, else strings."""
    import json

    params: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _fabric_fault_plan(args: argparse.Namespace, worker_ids: list[str]):
    """The plan from --fault-plan, else a seeded random one (chaos)."""
    from repro.fabric.faultplan import FaultPlan

    if getattr(args, "fault_plan", None):
        return FaultPlan.parse(args.fault_plan)
    if getattr(args, "random_faults", False):
        return FaultPlan.random(
            args.seed,
            worker_ids,
            kills=args.kills,
            stalls=args.stalls,
            stales=args.stales,
            partitions=args.partitions,
            max_ordinal=args.max_ordinal,
            stall_duration=2.5 * args.lease_ttl,
            partition_duration=2.5 * args.lease_ttl,
        )
    return FaultPlan()


def _write_trace(command: str, records: list, path) -> dict:
    """Write ``records`` as a validated Chrome trace at ``path``."""
    from repro.monitor.chrome_trace import validate_chrome_trace, write_chrome_trace

    trace = write_chrome_trace(records, path)
    errors = validate_chrome_trace(trace)
    if errors:
        raise SystemExit(f"{command}: exported trace failed validation: {errors[0]}")
    return trace


def _cmd_fabric(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ExperimentError

    try:
        if args.fabric_command == "autopsy":
            from pathlib import Path

            from repro.fabric.autopsy import (
                autopsy,
                land_autopsy,
                render_autopsy_html,
            )

            report = autopsy(
                args.store,
                args.campaign,
                journal=args.journal,
                telemetry_log=args.telemetry_log,
            )
            if args.html:
                Path(args.html).write_text(
                    render_autopsy_html(report), encoding="utf-8"
                )
            if args.autopsy_obs_db:
                from repro.obs import RunStore

                with RunStore(args.autopsy_obs_db) as obs_store:
                    run_id = land_autopsy(report, obs_store)
            if args.json:
                print(json.dumps(report.to_json(), indent=2, sort_keys=True,
                                 default=repr))
            else:
                print(report.render())
                if args.html:
                    print(f"html timeline: {args.html}")
                if args.autopsy_obs_db:
                    print(f"obs store: landed as run {run_id} in "
                          f"{args.autopsy_obs_db}")
            return 0 if report.passed else 1

        if args.fabric_command == "worker":
            from repro.fabric.faultplan import FaultPlan
            from repro.fabric.worker import WorkerConfig, run_worker

            if args.fault_plan_json:
                plan = FaultPlan.from_json(args.fault_plan_json)
            elif args.fault_plan:
                plan = FaultPlan.parse(args.fault_plan)
            else:
                plan = FaultPlan()
            return run_worker(WorkerConfig(
                store=args.store,
                campaign=args.campaign,
                worker_id=args.worker_id,
                lease_ttl=args.lease_ttl,
                poll_interval=args.poll_interval,
                stale_timeout=args.stale_timeout,
                fault_plan=plan,
            ))

        from repro.fabric.coordinator import FabricConfig

        worker_ids = [f"w{index}" for index in range(args.workers)]
        params = _parse_params(args.param)
        config = FabricConfig(
            spec=args.spec,
            params=params,
            store=args.store,
            workers=args.workers,
            chunksize=args.chunksize,
            lease_ttl=args.lease_ttl,
            stale_timeout=args.stale_timeout,
            fault_plan=_fabric_fault_plan(args, worker_ids),
            journal=getattr(args, "journal", None),
            timeout=args.timeout,
        )

        if args.fabric_command == "chaos":
            from repro.fabric.verify import verify_fabric

            report = verify_fabric(config)
            if args.json:
                print(json.dumps(
                    {
                        "passed": report.passed,
                        "byte_identical": report.byte_identical,
                        "fencing_errors": report.fencing_errors,
                        "visibility_errors": report.visibility_errors,
                        "fault_plan": config.fault_plan.spec(),
                        "takeovers": report.result.takeovers,
                        "fence_rejects": report.result.fence_rejects,
                        "chunks": report.result.chunks,
                        "wall_s": report.result.wall_s,
                        "worker_exits": report.result.worker_exits,
                    },
                    indent=2, sort_keys=True, default=repr,
                ))
            else:
                print(report.render())
            return 0 if report.passed else 1

        # fabric run
        from repro.fabric.coordinator import run_fabric
        from repro.fabric.specs import resolve_spec

        chrome_trace = getattr(args, "chrome_trace", None)
        telemetry_path = getattr(args, "telemetry", None)
        # Per-worker telemetry logs feed the merged trace; on
        # automatically whenever telemetry or a trace is requested.
        config.worker_telemetry = bool(
            getattr(args, "worker_telemetry", False)
            or telemetry_path
            or chrome_trace
        )

        result = run_fabric(config)
        print(result.summary())
        spec = resolve_spec(config.spec, config.params)
        code = 0
        if spec.summarize is not None:
            text, ok = spec.summarize(result.results)
            print()
            print(text)
            code = 0 if ok else 1
        if result.journal is not None:
            print(f"journal: {result.journal} (resumable by resilient_map)")
        if result.trace_id is not None and (telemetry_path or chrome_trace):
            print(f"trace: {result.trace_id}")
        if chrome_trace:
            from repro.monitor.live import fleet_records

            records = fleet_records(config.store, result.fingerprint)
            trace = _write_trace("fabric run", records, chrome_trace)
            print(f"chrome trace: {chrome_trace} "
                  f"({len(trace['traceEvents'])} trace events)")
        return code
    except ExperimentError as exc:
        raise SystemExit(f"fabric {args.fabric_command}: {exc}")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BGI'87 radio-broadcast reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="enable library logging at this level (progress heartbeats, "
             "retry/fallback warnings, campaign verdicts); give it before "
             "the subcommand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)

    def add_observability(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="stream structured JSON-lines events (run spans, phase "
                 "markers, chunk records, progress) to PATH; a manifest "
                 "sidecar lands at PATH.manifest.json",
        )
        p.add_argument(
            "--provenance", action="store_true",
            help="record causal slot provenance (who transmitted into each "
                 "listening node, and why it did/didn't receive); streamed "
                 "as 'prov' events when --telemetry is on and queryable "
                 "later with 'obs explain'",
        )
        p.add_argument(
            "--obs-db", default=None, metavar="DB",
            help="auto-ingest the --telemetry log into this run-store "
                 "database when the command finishes (see 'obs ingest')",
        )
        p.add_argument(
            "--monitor", action="store_true",
            help="attach the live conformance monitor to the telemetry "
                 "stream (requires --telemetry): the paper's bounds are "
                 "checked as the campaign runs and violations land in the "
                 "log as 'alert' events (see 'monitor' for the "
                 "out-of-process version)",
        )
        p.add_argument(
            "--perf", action="store_true",
            help="run under the sampling profiler (repro.perf): wall-clock "
                 "stacks plus traced memory per span land in the telemetry "
                 "log as 'perf_profile'/'perf_span' events; pool and fabric "
                 "workers inherit the session via $REPRO_PERF",
        )
        p.add_argument(
            "--perf-hz", type=float, default=None, metavar="HZ",
            help="sampling rate for --perf (default: $REPRO_PERF or 97)",
        )
        p.add_argument(
            "--perf-out", default=None, metavar="BASE",
            help="with --perf: also write BASE.folded (collapsed stacks) "
                 "and BASE.html (flamegraph) when the command finishes",
        )

    p_bcast = sub.add_parser("broadcast", help="run one Decay broadcast")
    add_common(p_bcast)
    p_bcast.add_argument("--topology", default="gnp",
                         choices=["line", "ring", "grid", "gnp", "udg", "cn"])
    p_bcast.add_argument("-n", type=int, default=64)
    p_bcast.add_argument("--source", type=int, default=0)
    p_bcast.add_argument("--epsilon", type=float, default=0.05)
    p_bcast.add_argument("--timeline", action="store_true",
                         help="render an ASCII action timeline")
    p_bcast.add_argument("--timeline-nodes", type=int, default=16)
    p_bcast.set_defaults(func=_cmd_broadcast)

    p_bfs = sub.add_parser("bfs", help="run the Decay BFS")
    add_common(p_bfs)
    p_bfs.add_argument("--topology", default="grid",
                       choices=["line", "ring", "grid", "gnp", "udg", "cn"])
    p_bfs.add_argument("-n", type=int, default=25)
    p_bfs.add_argument("--source", type=int, default=0)
    p_bfs.add_argument("--epsilon", type=float, default=0.05)
    p_bfs.set_defaults(func=_cmd_bfs)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes for Monte-Carlo repetitions "
                 "(default: $REPRO_JOBS or 1; 0 = all CPUs); results are "
                 "identical to serial runs",
        )
        p.add_argument(
            "--task-timeout", type=float, default=None, metavar="SECONDS",
            help="per-repetition wall-clock budget on the pool; a chunk "
                 "exceeding it is presumed hung, its workers are terminated "
                 "and it is retried (default: unbounded)",
        )

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", default=None, choices=["reference", "numpy", "auto"],
            help="engine backend for seeded runs (default: $REPRO_BACKEND "
                 "or reference); numpy batches Monte-Carlo trials through "
                 "the vectorized engine — seed-for-seed identical results, "
                 "needs the 'fast' extra; auto uses numpy when available",
        )

    p_gap = sub.add_parser("gap", help="print the exponential-gap table (E5)")
    add_common(p_gap)
    p_gap.add_argument("--reps", type=int, default=10)
    p_gap.add_argument("--quick", action="store_true")
    add_jobs(p_gap)
    add_backend(p_gap)
    add_observability(p_gap)
    p_gap.set_defaults(func=_cmd_gap)

    p_exp = sub.add_parser("experiment", help="run an experiment by id (e1..e12)")
    add_common(p_exp)
    p_exp.add_argument("id")
    p_exp.add_argument("--reps", type=int, default=10)
    p_exp.add_argument("--quick", action="store_true")
    add_jobs(p_exp)
    add_backend(p_exp)
    add_observability(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_chaos = sub.add_parser(
        "chaos",
        help="run an adversarial fault-injection campaign and check invariants",
    )
    add_common(p_chaos)
    p_chaos.add_argument("-n", type=int, default=48)
    p_chaos.add_argument("--reps", type=int, default=40,
                         help="trials per arm (proviso + control)")
    p_chaos.add_argument("--epsilon", type=float, default=0.1)
    p_chaos.add_argument("--protocol", default="decay",
                         help="registered protocol to stress (see repro.chaos.PROTOCOLS)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="tiny campaign for CI smoke runs")
    p_chaos.add_argument("--journal", default=None, metavar="PATH",
                         help="checkpoint completed chunks to this JSON-lines file")
    p_chaos.add_argument("--resume", action="store_true",
                         help="resume a killed campaign from --journal "
                              "(byte-identical final results)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the machine-readable report instead of the table")
    add_jobs(p_chaos)
    add_observability(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_report = sub.add_parser("report", help="assemble the reproduction report")
    p_report.add_argument("--results-dir", default="benchmarks/results")
    p_report.add_argument("--output", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_tel = sub.add_parser(
        "telemetry", help="summarize or validate a --telemetry event log"
    )
    p_tel.add_argument("log", help="JSON-lines event log written by --telemetry")
    p_tel.add_argument("--validate", action="store_true",
                       help="check every line against the event schema and exit")
    p_tel.add_argument("--json", action="store_true",
                       help="emit the machine-readable summary instead of tables")
    p_tel.set_defaults(func=_cmd_telemetry)

    p_mon = sub.add_parser(
        "monitor",
        help="stream a telemetry log through the live conformance checkers "
             "(theorem-bound SLOs, status board, alert gate)",
    )
    p_mon.add_argument("log",
                       help="JSON-lines event log written by --telemetry, "
                            "or a fabric lease store (its newest campaign "
                            "and <store>.<worker>.telemetry.jsonl logs)")
    p_mon.add_argument("--follow", action="store_true",
                       help="keep tailing the log as the campaign appends to "
                            "it (torn trailing lines are buffered, not "
                            "errors); a store is tailed until every chunk "
                            "is committed")
    p_mon.add_argument("--gate", action="store_true",
                       help="exit 1 if any conformance alert fires, 2 if "
                            "there were no records to check (CI gate)")
    p_mon.add_argument("--epsilon", type=float, default=None,
                       help="failure budget the SLOs assume (default: the "
                            "log manifest's epsilon, else 0.1)")
    p_mon.add_argument("--alpha", type=float, default=1e-4,
                       help="statistical false-alarm bound per SLO: alerts "
                            "fire only when the Hoeffding tail drops below "
                            "this (default 1e-4)")
    p_mon.add_argument("--min-runs", type=int, default=8,
                       help="runs observed before the statistical SLOs may "
                            "fire (default 8)")
    p_mon.add_argument("--diameter", type=int, default=None,
                       help="graph diameter for the Theorem 4 budget "
                            "(default: worst case n-1)")
    p_mon.add_argument("--max-degree", type=int, default=None,
                       help="max degree for the Theorem 4 budget "
                            "(default: worst case n-1)")
    p_mon.add_argument("--assume-deterministic", action="store_true",
                       help="arm the Omega(n) lower-bound floor checker "
                            "(only sound for deterministic protocols)")
    p_mon.add_argument("--interval", type=float, default=0.5,
                       help="status-board refresh interval in seconds")
    p_mon.add_argument("--idle-timeout", type=float, default=None,
                       help="with --follow: stop after this many seconds "
                            "without new records (default: follow until ^C)")
    p_mon.add_argument("--no-write-alerts", action="store_true",
                       help="do not append fired alerts to the log as "
                            "'alert' records")
    p_mon.add_argument("--plain", action="store_true",
                       help="plain status lines instead of the in-place TTY "
                            "board (automatic when stdout is not a TTY)")
    p_mon.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="also export the log as a Chrome/Perfetto "
                            "trace-event file after the pass (a lease "
                            "store: its events merged with the worker "
                            "logs, one process lane per worker)")
    p_mon.add_argument("--json", action="store_true",
                       help="emit the machine-readable monitor report "
                            "instead of the board")
    p_mon.set_defaults(func=_cmd_monitor)

    p_obs = sub.add_parser(
        "obs",
        help="cross-run observability: ingest telemetry logs into a run "
             "store, compare runs, track trends, render dashboards, and "
             "explain per-slot outcomes",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_ingest = obs_sub.add_parser(
        "ingest", help="load telemetry logs / BENCH_*.json into the run store"
    )
    p_ingest.add_argument("db", help="run-store SQLite database (created if missing)")
    p_ingest.add_argument("paths", nargs="+",
                          help="telemetry JSON-lines logs or bench records "
                               "(auto-detected; idempotent re-ingest)")

    p_cmp = obs_sub.add_parser("compare", help="A/B diff two ingested runs")
    p_cmp.add_argument("db")
    p_cmp.add_argument("a", help="run id, fingerprint prefix, 'latest' or 'prev'")
    p_cmp.add_argument("b", help="run id, fingerprint prefix, 'latest' or 'prev'")
    p_cmp.add_argument("--json", action="store_true")

    p_trend = obs_sub.add_parser(
        "trend", help="a metric over ordered runs, with regression detection"
    )
    p_trend.add_argument("db")
    p_trend.add_argument("--metric", default="slots_per_sec",
                         help="aggregate metric name (default: slots_per_sec; "
                              "with --source bench: combined_slots_per_sec)")
    p_trend.add_argument("--source", default="runs", choices=["runs", "bench"],
                         help="trend over ingested runs or the bench trajectory")
    p_trend.add_argument("--check", action="store_true",
                         help="exit 1 when the latest point regressed beyond "
                              "--threshold vs the median of the last "
                              "--baseline-k points (CI gate; exit codes: "
                              "0 = checked and clean, 1 = regression, "
                              "2 = bad invocation such as an unknown "
                              "metric/source or invalid threshold)")
    p_trend.add_argument("--threshold", type=float, default=None,
                         help="relative regression threshold (default 0.2 = 20%%)")
    p_trend.add_argument("--baseline-k", type=int, default=None,
                         help="baseline = median of this many prior points "
                              "(default 3)")
    p_trend.add_argument("--direction", default=None, choices=["up", "down"],
                         help="which way is good (default: per-metric)")
    p_trend.add_argument("--json", action="store_true")
    p_trend.add_argument("--html", default=None, metavar="PATH",
                         help="also write a self-contained HTML trend dashboard")

    p_obs_report = obs_sub.add_parser(
        "report", help="per-run report (terminal tables or HTML dashboard)"
    )
    p_obs_report.add_argument("db")
    p_obs_report.add_argument("--run", default="latest",
                              help="run id, fingerprint prefix, 'latest' or 'prev'")
    p_obs_report.add_argument("--json", action="store_true")
    p_obs_report.add_argument("--html", default=None, metavar="PATH",
                              help="write a self-contained HTML dashboard")

    p_explain = obs_sub.add_parser(
        "explain",
        help="why did/didn't a node receive in a slot (causal provenance)",
    )
    p_explain.add_argument("db")
    p_explain.add_argument("--run", default="latest",
                           help="run id, fingerprint prefix, 'latest' or 'prev'")
    p_explain.add_argument("--node", default=None,
                           help="node label as printed (e.g. 5, or '(1, 2)')")
    p_explain.add_argument("--slot", default=None, type=int)
    p_explain.add_argument("--fabric", action="store_true",
                           help="print the run's fabric/fleet aggregates "
                                "(lease audit counts) instead of slot "
                                "provenance")
    # dest avoids main()'s --perf session wiring: this flag selects what
    # to print, it does not ask to profile the explain command itself.
    p_explain.add_argument("--perf", dest="perf_aggregates",
                           action="store_true",
                           help="print the run's perf-plane aggregates "
                                "(perf.* metrics and sampled span costs) "
                                "instead of slot provenance; exit 2 when "
                                "the run has no perf metrics")
    p_explain.add_argument("--engine-run", default=None, metavar="TAG",
                           help="engine-run tag within the log (e.g. r3) when "
                                "a campaign recorded this (node, slot) more "
                                "than once")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the full explanation object as JSON")

    p_export = obs_sub.add_parser(
        "export",
        help="export a telemetry log as a Chrome trace-event file "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )
    p_export.add_argument("log", help="JSON-lines event log written by --telemetry")
    p_export.add_argument("--chrome-trace", required=True, metavar="PATH",
                          help="where to write the trace JSON")

    p_obs.set_defaults(func=_cmd_obs)

    p_perf = sub.add_parser(
        "perf",
        help="performance plane: record any command under the sampling "
             "profiler, render folded stacks as a flamegraph, diff two "
             "profiles",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_perf_rec = perf_sub.add_parser(
        "record",
        help="run any repro command under the sampling profiler and "
             "write BASE.folded + BASE.html",
    )
    p_perf_rec.add_argument("--hz", type=float, default=None,
                            help="sampling rate (default 97)")
    p_perf_rec.add_argument("--out", default="perf", metavar="BASE",
                            help="artifact basename: BASE.folded collapsed "
                                 "stacks and BASE.html flamegraph "
                                 "(default: perf)")
    p_perf_rec.add_argument("--no-memory", action="store_true",
                            help="skip tracemalloc accounting (lower overhead)")
    p_perf_rec.add_argument("cmd", nargs=argparse.REMAINDER,
                            help="the repro command to profile, e.g. "
                                 "'gap --quick --jobs 2'")
    p_perf_rec.set_defaults(func=_cmd_perf)

    p_perf_flame = perf_sub.add_parser(
        "flame",
        help="render a .folded file or a telemetry log's perf_profile "
             "records as a self-contained flamegraph HTML",
    )
    p_perf_flame.add_argument("input",
                              help=".folded stacks or a --telemetry JSONL log "
                                   "(perf_profile records are merged)")
    p_perf_flame.add_argument("--out", required=True, metavar="HTML",
                              help="where to write the flamegraph")
    p_perf_flame.add_argument("--title", default=None)
    p_perf_flame.set_defaults(func=_cmd_perf)

    p_perf_diff = perf_sub.add_parser(
        "diff",
        help="per-frame share drift between two profiles (each side a "
             ".folded file or telemetry log)",
    )
    p_perf_diff.add_argument("before")
    p_perf_diff.add_argument("after")
    p_perf_diff.add_argument("--top", type=int, default=20,
                             help="rows to show, biggest growth first")
    p_perf_diff.add_argument("--json", action="store_true")
    p_perf_diff.set_defaults(func=_cmd_perf)

    p_fab = sub.add_parser(
        "fabric",
        help="crash-safe distributed campaign fabric: lease-fenced worker "
             "subprocesses over a shared SQLite store",
    )
    fab_sub = p_fab.add_subparsers(dest="fabric_command", required=True)

    def add_fabric_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default="fabric.db", metavar="DB",
                       help="shared SQLite lease store (created if missing); "
                            "per-worker logs land next to it")
        p.add_argument("--lease-ttl", type=float, default=2.0,
                       help="seconds a chunk lease survives without a "
                            "heartbeat before any worker may take it over")
        p.add_argument("--stale-timeout", type=float, default=30.0,
                       help="how long a 'stale' fault waits to be superseded "
                            "before giving up on demonstrating the rejection")

    def add_fabric_campaign(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default="slow-squares",
                       help="registered campaign spec "
                            "(squares, slow-squares, chaos, ...)")
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="spec parameter (repeatable); values parse as "
                            "JSON, e.g. --param n=24 --param delay=0.05")
        p.add_argument("--workers", type=int, default=3,
                       help="worker subprocesses (0 = coordinator only)")
        p.add_argument("--chunksize", type=int, default=None,
                       help="items per chunk lease (default: derived from "
                            "item count and worker count)")
        p.add_argument("--timeout", type=float, default=300.0,
                       help="overall campaign deadline in seconds")
        p.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="harness faults to inject, e.g. "
                            "'kill@w1#0,stall@w0#1=3.0,stale@w2#0' "
                            "(see repro.fabric.faultplan)")

    p_fab_run = fab_sub.add_parser(
        "run", help="run a campaign spec across worker subprocesses"
    )
    add_common(p_fab_run)
    add_fabric_common(p_fab_run)
    add_fabric_campaign(p_fab_run)
    p_fab_run.add_argument("--journal", default=None, metavar="PATH",
                           help="also write the spliced results as a "
                                "resilient_map campaign journal "
                                "(byte-identical, resumable)")
    p_fab_run.add_argument("--chrome-trace", default=None, metavar="PATH",
                           help="merge the lease store's events and the "
                                "per-worker telemetry logs into one "
                                "Chrome/Perfetto trace with a process lane "
                                "per worker (implies --worker-telemetry)")
    p_fab_run.add_argument("--worker-telemetry", action="store_true",
                           help="give each worker its own telemetry log at "
                                "<store>.<worker>.telemetry.jsonl, stamped "
                                "with the campaign trace (automatic with "
                                "--telemetry or --chrome-trace)")
    add_observability(p_fab_run)
    p_fab_run.set_defaults(func=_cmd_fabric)

    p_fab_worker = fab_sub.add_parser(
        "worker", help="one fabric worker process (spawned by 'fabric run')"
    )
    p_fab_worker.add_argument("--store", required=True)
    p_fab_worker.add_argument("--campaign", required=True,
                              help="campaign fingerprint in the lease store")
    p_fab_worker.add_argument("--worker-id", required=True)
    p_fab_worker.add_argument("--lease-ttl", type=float, default=2.0)
    p_fab_worker.add_argument("--poll-interval", type=float, default=0.1)
    p_fab_worker.add_argument("--stale-timeout", type=float, default=30.0)
    p_fab_worker.add_argument("--fault-plan", default=None)
    p_fab_worker.add_argument("--fault-plan-json", default=None,
                              help="serialized per-worker fault sub-plan "
                                   "(coordinator internal)")
    p_fab_worker.add_argument("--telemetry", default=None, metavar="PATH",
                              help="stream this worker's events to PATH; the "
                                   "coordinator's trace context (inherited "
                                   "via the environment) stamps every record")
    p_fab_worker.set_defaults(func=_cmd_fabric)

    p_fab_chaos = fab_sub.add_parser(
        "chaos",
        help="self-verification: run the campaign under a seeded fault plan "
             "and assert byte-identical results with sound fencing",
    )
    add_common(p_fab_chaos)
    add_fabric_common(p_fab_chaos)
    add_fabric_campaign(p_fab_chaos)
    p_fab_chaos.add_argument("--kills", type=int, default=1,
                             help="workers to kill -9 mid-chunk (seeded plan)")
    p_fab_chaos.add_argument("--stalls", type=int, default=1,
                             help="workers to stall past their lease")
    p_fab_chaos.add_argument("--stales", type=int, default=1,
                             help="stale-commit attempts to force")
    p_fab_chaos.add_argument("--partitions", type=int, default=0,
                             help="store-partition windows to inject")
    p_fab_chaos.add_argument("--max-ordinal", type=int, default=1,
                             help="latest per-worker chunk ordinal a random "
                                  "fault may target")
    p_fab_chaos.add_argument("--json", action="store_true",
                             help="emit the machine-readable verdict")
    add_observability(p_fab_chaos)
    p_fab_chaos.set_defaults(func=_cmd_fabric, random_faults=True)

    p_fab_autopsy = fab_sub.add_parser(
        "autopsy",
        help="reconstruct a finished (or crashed) campaign's lease/fence/"
             "takeover timeline from the store's audit log, verify the "
             "fencing contract, and cross-check the journal splice",
    )
    p_fab_autopsy.add_argument("--store", default="fabric.db", metavar="DB",
                               help="the campaign's SQLite lease store")
    p_fab_autopsy.add_argument("--campaign", default=None, metavar="PREFIX",
                               help="campaign fingerprint prefix (default: "
                                    "the store's only campaign)")
    p_fab_autopsy.add_argument("--journal", default=None, metavar="PATH",
                               help="cross-check the splice against this "
                                    "campaign journal byte-for-byte")
    p_fab_autopsy.add_argument("--telemetry-log", default=None, metavar="PATH",
                               help="cross-check the store's audit trail "
                                    "against this telemetry log's lease "
                                    "records (same takeovers, rejections, "
                                    "holders and commit fences)")
    p_fab_autopsy.add_argument("--html", default=None, metavar="PATH",
                               help="write a self-contained HTML timeline "
                                    "dashboard (one lane per chunk)")
    # dest avoids the global --obs-db/--telemetry pairing in main():
    # autopsy lands store rows itself rather than re-ingesting a log.
    p_fab_autopsy.add_argument("--obs-db", dest="autopsy_obs_db", default=None,
                               metavar="DB",
                               help="land the autopsy as obs-store rows "
                                    "(idempotent per campaign)")
    p_fab_autopsy.add_argument("--json", action="store_true",
                               help="emit the machine-readable report")
    p_fab_autopsy.set_defaults(func=_cmd_fabric)

    p_game = sub.add_parser("game", help="foil a hitting-game strategy")
    add_common(p_game)
    p_game.add_argument("--strategy", default="sweep")
    p_game.add_argument("-n", type=int, default=64)
    p_game.add_argument("--show-set", action="store_true")
    p_game.set_defaults(func=_cmd_game)

    return parser


def _manifest_config(args: argparse.Namespace) -> dict:
    """The command's effective configuration, for the run manifest."""
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "telemetry", "log_level", "obs_db",
                       "monitor", "perf", "perf_hz", "perf_out")
        and not callable(value)
    }
    return config


def _report_perf(session, *, title: str, base: str | None) -> None:
    """Print a finished session's span costs and hottest frames, and
    write ``BASE.folded`` + the ``BASE.html`` flamegraph when ``base``
    is given (``perf record`` and ``--perf`` share this view)."""
    import pathlib

    from repro.analysis.tables import Table
    from repro.perf import render_flamegraph, top_frames

    sampled = (f"{session.sampler.samples} samples @ {session.hz:g} Hz "
               f"over {session.sampler.wall_s:.2f}s")
    print(f"\n[perf] {sampled} ({len(session.counts)} distinct stacks)")
    if base:
        pathlib.Path(f"{base}.folded").write_text(
            session.folded_text(), encoding="utf-8"
        )
        pathlib.Path(f"{base}.html").write_text(
            render_flamegraph(session.counts, title=title, subtitle=sampled),
            encoding="utf-8",
        )
        print(f"[perf] wrote {base}.folded and {base}.html")
    spans = session.span_table()
    if spans:
        table = Table(
            "Span costs (sampled time + traced memory)",
            ["span", "count", "secs", "samples", "peak KiB"],
        )
        for row in spans:
            table.add_row(row["label"], row["count"], f"{row['secs']:.3f}",
                          row["samples"], f"{row['mem_peak_kb']:.1f}")
        print()
        print(table.render())
    frames = top_frames(session.counts, top=10)
    if frames:
        table = Table("Hottest frames", ["frame", "self", "total", "share"])
        for row in frames:
            table.add_row(row["frame"], row["self"], row["total"],
                          f"{row['share']:.1%}")
        print()
        print(table.render())


def _finish_perf(args, session, recorder, previous_ambient) -> None:
    """Stop a ``--perf`` session: clear the ambient registry, emit the
    ``perf_*`` records into the telemetry stream (when there is one),
    and report it (``--perf-out`` artifacts included)."""
    from repro.perf import core as _perf_core

    session.stop()
    _perf_core.set_active(previous_ambient)
    if recorder is not None:
        session.emit(recorder)
    _report_perf(session, title=f"repro {args.command}", base=args.perf_out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.log_level:
        import logging

        logging.basicConfig(
            level=getattr(logging, args.log_level),
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    telemetry_path = getattr(args, "telemetry", None)
    obs_db = getattr(args, "obs_db", None)
    if obs_db and not telemetry_path:
        raise SystemExit("--obs-db requires --telemetry (the log is what is ingested)")
    wants_monitor = getattr(args, "monitor", False)
    if wants_monitor and not telemetry_path:
        raise SystemExit(
            "--monitor requires --telemetry (the monitor subscribes to the "
            "event stream; use 'repro monitor <log> --follow' to watch an "
            "existing log instead)"
        )
    # --provenance rides on the ambient REPRO_PROVENANCE gate so every
    # engine the command constructs (including in pool workers, which
    # inherit the environment) records causal slot provenance.
    wants_provenance = getattr(args, "provenance", False)
    previous_provenance = os.environ.get("REPRO_PROVENANCE")
    if wants_provenance:
        os.environ["REPRO_PROVENANCE"] = "1"
    # --perf similarly rides on REPRO_PERF so pool/fabric workers sample
    # themselves; the parent session is made ambient around dispatch and
    # its records land in the telemetry stream before the log closes.
    wants_perf = getattr(args, "perf", False)
    previous_perf = os.environ.get(_PERF_ENV) if wants_perf else None
    perf_session = None
    perf_previous_ambient = None
    if wants_perf:
        from repro.perf import DEFAULT_HZ, PerfSession, hz_from_env
        from repro.perf import core as _perf_core

        perf_hz = getattr(args, "perf_hz", None)
        if perf_hz is None:
            perf_hz = hz_from_env() or DEFAULT_HZ
        perf_session = PerfSession(perf_hz)
        perf_session.to_env(os.environ)
        perf_previous_ambient = _perf_core.set_active(perf_session)
        perf_session.start()
    try:
        if telemetry_path:
            from repro.telemetry import Telemetry, activate

            recorder = Telemetry.to_path(telemetry_path)
            detach_monitor = None
            if wants_monitor:
                from repro.monitor import attach_monitor

                # Attach before the manifest lands so the checkers see it
                # (it selects the checker family and pins epsilon).
                _live, detach_monitor = attach_monitor(recorder)
            recorder.write_manifest(
                command=args.command,
                seed=getattr(args, "seed", None),
                config=_manifest_config(args),
            )
            with recorder, activate(recorder):
                code = args.func(args)
                if detach_monitor is not None:
                    monitor_report = detach_monitor()
                if perf_session is not None:
                    _finish_perf(args, perf_session, recorder,
                                 perf_previous_ambient)
                    perf_session = None
            if detach_monitor is not None:
                if monitor_report.alerts:
                    print(f"\n[monitor] {len(monitor_report.alerts)} "
                          f"conformance alert(s) fired:")
                    for alert in monitor_report.alerts:
                        print(f"[monitor]   ! {alert.describe()}")
                else:
                    print(f"\n[monitor] no conformance alerts over "
                          f"{monitor_report.records} records")
            if obs_db:
                from repro.obs import RunStore, ingest_log

                with RunStore(obs_db) as store:
                    result = ingest_log(store, telemetry_path)
                print(f"[obs] {result.describe()}")
            return code
        code = args.func(args)
        if perf_session is not None:
            _finish_perf(args, perf_session, None, perf_previous_ambient)
            perf_session = None
        return code
    finally:
        if perf_session is not None:
            # An exception path: stop the sampler and clear the registry
            # without emitting (there may be nowhere to emit to).
            from repro.perf import core as _perf_core

            perf_session.stop()
            _perf_core.set_active(perf_previous_ambient)
        if wants_perf:
            if previous_perf is None:
                os.environ.pop(_PERF_ENV, None)
            else:
                os.environ[_PERF_ENV] = previous_perf
        if wants_provenance:
            if previous_provenance is None:
                os.environ.pop("REPRO_PROVENANCE", None)
            else:
                os.environ["REPRO_PROVENANCE"] = previous_provenance


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
