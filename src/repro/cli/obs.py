"""``obs ingest|compare|trend|report|explain|export``: the run store."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.cli import write_trace

_RUN_HELP = "run id, fingerprint prefix, 'latest' or 'prev'"


def _on_store(handler: Callable, gated: Callable = lambda args: False,
              create: bool = False) -> Callable:
    """``handler(args, store)`` run on the store at ``args.db``, which
    must exist unless ``create``.  When ``gated(args)``, a store or query
    error prints ``obs <command>: <error>`` to stderr and returns 2;
    otherwise ``main`` exits with that line."""

    def run(args: argparse.Namespace) -> int:
        from repro.errors import ExperimentError
        from repro.obs import RunStore

        try:
            if not create and not Path(args.db).exists():
                raise ExperimentError(f"no run store at {args.db}")
            with RunStore(args.db) as store:
                return handler(args, store)
        except ExperimentError as exc:
            if not gated(args):
                raise
            # The --check exit-code contract: 0 = checked and clean,
            # 1 = regression detected, 2 = bad invocation (unknown
            # metric/source, invalid threshold, missing store, a run
            # with no perf metrics) — so a CI gate can never mistake a
            # typo for a verdict.
            print(f"obs {args.obs_command}: {exc}", file=sys.stderr)
            return 2

    return run


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=repr)


def _cmd_ingest(args: argparse.Namespace, store) -> int:
    from repro.errors import ExperimentError
    from repro.obs import ingest_path

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


def _cmd_compare(args: argparse.Namespace, store) -> int:
    from repro.analysis.tables import Table
    from repro.obs import compare_runs

    result = compare_runs(store, args.a, args.b)
    if args.json:
        print(_dumps(result))
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


def _cmd_trend(args: argparse.Namespace, store) -> int:
    from repro.obs import (
        DEFAULT_BASELINE_K,
        DEFAULT_THRESHOLD,
        detect_regression,
        render_trend_html,
        trend_points,
        trend_table,
    )

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
            render_trend_html(args.metric, points, verdict, source=args.source),
            encoding="utf-8",
        )
        print(f"wrote {args.html}")
    checkable = len(points) >= 2
    if args.json:
        # Pure JSON on stdout, even with --check: scripts parse this; the
        # gate verdict rides in the payload + exit code.
        payload = {"points": [vars(p) for p in points], "verdict": verdict}
        if args.check:
            payload["check"] = {
                "checked": checkable,
                "regressed": bool(verdict["regressed"]) if checkable else False,
            }
        print(_dumps(payload))
    else:
        print(trend_table(args.metric, points, verdict).render())
    if not args.check:
        return 0
    if not checkable:
        if not args.json:
            print(f"trend check: only {len(points)} point(s); "
                  f"nothing to compare against (pass)")
        return 0
    if not args.json:
        print(
            f"trend check [{args.source}/{args.metric}]: "
            f"latest={verdict['latest']:.4g} "
            f"baseline={verdict['baseline']:.4g} "
            f"change={verdict['change']:+.1%} "
            f"threshold={verdict['threshold']:.0%} "
            f"({verdict['direction']}) -> "
            f"{'REGRESSION' if verdict['regressed'] else 'OK'}"
        )
    return 1 if verdict["regressed"] else 0


def _cmd_report(args: argparse.Namespace, store) -> int:
    from repro.obs import render_run_html, run_tables

    run = store.resolve_run(args.run)
    if args.html:
        import pathlib

        pathlib.Path(args.html).write_text(
            render_run_html(store, run), encoding="utf-8"
        )
        print(f"wrote {args.html}")
    if args.json:
        print(_dumps({"run": run, "metrics": store.metrics_for(run["id"])}))
    elif not args.html:
        print("\n\n".join(t.render() for t in run_tables(store, run)))
    return 0


def _aggregates_table(kind: str, run: dict, metrics):
    from repro.analysis.tables import Table

    table = Table(
        f"{kind} aggregates — run {run['id']} ({str(run['fingerprint'])[:8]})",
        ["metric", "value"],
    )
    for name, value in metrics:
        table.add_row(name, value)
    return table


def _explain_perf(args: argparse.Namespace, store) -> int:
    from repro.analysis.tables import Table
    from repro.obs import perf_overview

    overview = perf_overview(store, args.run)
    if args.json:
        print(_dumps(overview))
        return 0
    print(_aggregates_table("Perf", overview["run"],
                            sorted(overview["metrics"].items())).render())
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


def _explain_fabric(args: argparse.Namespace, store) -> int:
    run = store.resolve_run(args.run)
    fabric_metrics = {
        name: value for name, value in sorted(store.metrics_for(run["id"]).items())
        if name.startswith(("fabric.", "fleet.")) or name in ("alerts", "chaos_trials")
    }
    if args.json:
        print(_dumps({"run": run, "fabric": fabric_metrics}))
        return 0 if fabric_metrics else 1
    if not fabric_metrics:
        print(f"run {run['id']}: no fabric/fleet aggregates "
              "(not a fabric campaign log?)")
        return 1
    print(_aggregates_table("Fabric", run, fabric_metrics.items()).render())
    return 0


def _cmd_explain(args: argparse.Namespace, store) -> int:
    from repro.obs import explain_from_store

    if args.perf_aggregates:
        return _explain_perf(args, store)
    if args.fabric:
        return _explain_fabric(args, store)
    if args.node is None or args.slot is None:
        raise SystemExit(
            "obs explain: --node and --slot are required "
            "(or use --fabric for fabric campaign aggregates)"
        )
    result = explain_from_store(
        store, args.run, args.node, args.slot, engine_run=args.engine_run,
    )
    if args.json:
        print(_dumps(result))
        return 0 if result["found"] else 1
    print(result["answer"])
    if result.get("others"):
        print(f"(+{result['others']} more engine runs in this log "
              f"recorded this (node, slot); narrow with --engine-run)")
    if not result["found"] and result.get("nearby"):
        print("nearest recorded slots for this node:")
        for entry in result["nearby"]:
            print(f"  slot {entry['slot']}: {entry['outcome']}"
                  + (f" ({entry['detail']})" if entry["detail"] else ""))
    return 0 if result["found"] else 1


def _cmd_export(args: argparse.Namespace) -> int:
    # Pure log -> trace translation; no run store involved.
    from repro.monitor import read_log_records

    records = read_log_records(args.log)
    trace = write_trace("obs export", records, args.chrome_trace)
    print(f"wrote {args.chrome_trace} ({len(trace['traceEvents'])} trace "
          f"events from {len(records)} records)")
    return 0


def register(sub) -> None:
    p_obs = sub.add_parser("obs",
                           help="cross-run observability: ingest telemetry logs "
                                "into a run store, compare runs, track trends, "
                                "render dashboards, and explain per-slot outcomes")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser("ingest",
                           help="load telemetry logs / BENCH_*.json into the run store")
    p.add_argument("db", help="run-store SQLite database (created if missing)")
    p.add_argument("paths", nargs="+",
                   help="telemetry JSON-lines logs or bench records "
                        "(auto-detected; idempotent re-ingest)")
    p.set_defaults(func=_on_store(_cmd_ingest, create=True))

    p = obs_sub.add_parser("compare", help="A/B diff two ingested runs")
    p.add_argument("db")
    p.add_argument("a", help=_RUN_HELP)
    p.add_argument("b", help=_RUN_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_on_store(_cmd_compare))

    p = obs_sub.add_parser("trend",
                           help="a metric over ordered runs, with regression detection")
    p.add_argument("db")
    p.add_argument("--metric", default="slots_per_sec",
                   help="aggregate metric name (default: slots_per_sec; "
                        "with --source bench: combined_slots_per_sec)")
    p.add_argument("--source", default="runs", choices=["runs", "bench"],
                   help="trend over ingested runs or the bench trajectory")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when the latest point regressed beyond "
                        "--threshold vs the median of the last --baseline-k "
                        "points (CI gate; exit codes: 0 = checked and "
                        "clean, 1 = regression, 2 = bad invocation such as "
                        "an unknown metric/source or invalid threshold)")
    p.add_argument("--threshold", type=float, default=None,
                   help="relative regression threshold (default 0.2 = 20%%)")
    p.add_argument("--baseline-k", type=int, default=None,
                   help="baseline = median of this many prior points (default 3)")
    p.add_argument("--direction", default=None, choices=["up", "down"],
                   help="which way is good (default: per-metric)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="also write a self-contained HTML trend dashboard")
    p.set_defaults(func=_on_store(_cmd_trend, gated=lambda args: True))

    p = obs_sub.add_parser("report",
                           help="per-run report (terminal tables or HTML dashboard)")
    p.add_argument("db")
    p.add_argument("--run", default="latest", help=_RUN_HELP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="write a self-contained HTML dashboard")
    p.set_defaults(func=_on_store(_cmd_report))

    p = obs_sub.add_parser("explain",
                           help="why did/didn't a node receive "
                                "in a slot (causal provenance)")
    p.add_argument("db")
    p.add_argument("--run", default="latest", help=_RUN_HELP)
    p.add_argument("--node", default=None,
                   help="node label as printed (e.g. 5, or '(1, 2)')")
    p.add_argument("--slot", default=None, type=int)
    p.add_argument("--fabric", action="store_true",
                   help="print the run's fabric/fleet aggregates (lease "
                        "audit counts) instead of slot provenance")
    # dest avoids main()'s --perf session wiring: this flag selects what
    # to print, it does not ask to profile the explain command itself.
    p.add_argument("--perf", dest="perf_aggregates", action="store_true",
                   help="print the run's perf-plane aggregates (perf.* "
                        "metrics and sampled span costs) instead of slot "
                        "provenance; exit 2 when the run has no perf metrics")
    p.add_argument("--engine-run", default=None, metavar="TAG",
                   help="engine-run tag within the log (e.g. r3) when a "
                        "campaign recorded this (node, slot) more than once")
    p.add_argument("--json", action="store_true",
                   help="emit the full explanation object as JSON")
    p.set_defaults(func=_on_store(_cmd_explain,
                                  gated=lambda args: args.perf_aggregates))

    p = obs_sub.add_parser("export",
                           help="export a telemetry log as a Chrome trace-event "
                                "file (open in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("log", help="JSON-lines event log written by --telemetry")
    p.add_argument("--chrome-trace", required=True, metavar="PATH",
                   help="where to write the trace JSON")
    p.set_defaults(func=_cmd_export)
