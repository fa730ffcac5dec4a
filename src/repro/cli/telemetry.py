"""``telemetry`` (summarize or validate a log) and ``monitor`` (the live
conformance view of a log or a fabric lease store)."""

from __future__ import annotations

import argparse
import sys

from repro.cli import write_trace


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
    report = monitor_log(
        args.log,
        config=config,
        follow=args.follow,
        idle_timeout=args.idle_timeout,
        renderer_factory=renderer_factory,
        write_alerts=not args.no_write_alerts,
    )
    if args.chrome_trace:
        read = fleet_records if is_sqlite_file(args.log) else read_log_records
        trace = write_trace("monitor", read(args.log), args.chrome_trace)
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


def add_telemetry(sub) -> None:
    p = sub.add_parser("telemetry",
                       help="summarize or validate a --telemetry event log")
    p.add_argument("log", help="JSON-lines event log written by --telemetry")
    p.add_argument("--validate", action="store_true",
                   help="check every line against the event schema and exit")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable summary instead of tables")
    p.set_defaults(func=_cmd_telemetry)


def add_monitor(sub) -> None:
    p = sub.add_parser("monitor",
                       help="stream a telemetry log through the live conformance "
                            "checkers (theorem-bound SLOs, status board, alert gate)")
    p.add_argument("log",
                   help="JSON-lines event log written by --telemetry, "
                        "or a fabric lease store (its newest campaign "
                        "and <store>.<worker>.telemetry.jsonl logs)")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing the log as the campaign appends to it "
                        "(torn trailing lines are buffered, not errors); a "
                        "store is tailed until every chunk is committed")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 if any conformance alert fires, 2 if "
                        "there were no records to check (CI gate)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="failure budget the SLOs assume (default: "
                        "the log manifest's epsilon, else 0.1)")
    p.add_argument("--alpha", type=float, default=1e-4,
                   help="statistical false-alarm bound per SLO: alerts fire only "
                        "when the Hoeffding tail drops below this (default 1e-4)")
    p.add_argument("--min-runs", type=int, default=8,
                   help="runs observed before the statistical "
                        "SLOs may fire (default 8)")
    p.add_argument("--diameter", type=int, default=None,
                   help="graph diameter for the Theorem 4 "
                        "budget (default: worst case n-1)")
    p.add_argument("--max-degree", type=int, default=None,
                   help="max degree for the Theorem 4 budget (default: worst case n-1)")
    p.add_argument("--assume-deterministic", action="store_true",
                   help="arm the Omega(n) lower-bound floor checker "
                        "(only sound for deterministic protocols)")
    p.add_argument("--interval", type=float, default=0.5,
                   help="status-board refresh interval in seconds")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="with --follow: stop after this many seconds "
                        "without new records (default: follow until ^C)")
    p.add_argument("--no-write-alerts", action="store_true",
                   help="do not append fired alerts to the log as 'alert' records")
    p.add_argument("--plain", action="store_true",
                   help="plain status lines instead of the in-place TTY "
                        "board (automatic when stdout is not a TTY)")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="also export the log as a Chrome/Perfetto trace-event "
                        "file after the pass (a lease store: its events merged "
                        "with the worker logs, one process lane per worker)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable monitor report instead of the board")
    p.set_defaults(func=_cmd_monitor)
