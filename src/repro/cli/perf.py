"""``perf record|flame|diff``: the sampling profiler's commands, and the
span/frame report that ``perf record`` and ``--perf`` share."""

from __future__ import annotations

import argparse
import pathlib
import sys


def report_perf(session, *, title: str, base: str | None) -> None:
    """Print a finished session's span costs and hottest frames, and
    write ``BASE.folded`` + the ``BASE.html`` flamegraph when ``base``
    is given (``perf record`` and ``--perf`` share this view)."""
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


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.cli import main
    from repro.perf import DEFAULT_HZ, PerfSession
    from repro.perf import activate as perf_activate

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
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
            code = exc.code if isinstance(exc.code, int) else 1
    report_perf(session, title=f"repro {' '.join(cmd)}", base=args.out)
    return code


def _cmd_flame(args: argparse.Namespace) -> int:
    from repro.perf import load_stacks, render_flamegraph

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


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.tables import Table
    from repro.perf import diff_folded, load_stacks

    rows = diff_folded(load_stacks(args.before), load_stacks(args.after), top=args.top)
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


def register(sub) -> None:
    p_perf = sub.add_parser("perf",
                            help="performance plane: record any command "
                                 "under the sampling profiler, render folded "
                                 "stacks as a flamegraph, diff two profiles")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p = perf_sub.add_parser("record",
                            help="run any repro command under the sampling "
                                 "profiler and write BASE.folded + BASE.html")
    p.add_argument("--hz", type=float, default=None, help="sampling rate (default 97)")
    p.add_argument("--out", default="perf", metavar="BASE",
                   help="artifact basename: BASE.folded collapsed stacks "
                        "and BASE.html flamegraph (default: perf)")
    p.add_argument("--no-memory", action="store_true",
                   help="skip tracemalloc accounting (lower overhead)")
    p.add_argument("cmd", nargs=argparse.REMAINDER,
                   help="the repro command to profile, e.g. 'gap --quick --jobs 2'")
    p.set_defaults(func=_cmd_record)

    p = perf_sub.add_parser("flame",
                            help="render a .folded file or a telemetry "
                                 "log's perf_profile records as a "
                                 "self-contained flamegraph HTML")
    p.add_argument("input",
                   help=".folded stacks or a --telemetry JSONL "
                        "log (perf_profile records are merged)")
    p.add_argument("--out", required=True, metavar="HTML",
                   help="where to write the flamegraph")
    p.add_argument("--title", default=None)
    p.set_defaults(func=_cmd_flame)

    p = perf_sub.add_parser("diff",
                            help="per-frame share drift between two profiles "
                                 "(each side a .folded file or telemetry log)")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--top", type=int, default=20,
                   help="rows to show, biggest growth first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diff)
