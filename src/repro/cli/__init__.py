"""Command-line interface: ``python -m repro <command>``.

README walks through the commands, and ``--help`` lists each one's
flags.  This module holds ``main`` with its session wiring (logging,
telemetry, ``--monitor``, ``--provenance``, ``--perf``, ``--obs-db``)
and its one error exit, the top-level parser and the flag groups commands share.  Each command
family has a module here with its parsers and one handler per command.
At module level those import only argparse, the standard library and
this module; a handler imports its package when it runs, so a
``fabric worker`` process does not load the observability stack.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Callable

__all__ = ["main", "build_parser"]

# repro.perf's ENV_VAR, inlined so the no---perf path never imports it.
_PERF_ENV = "REPRO_PERF"


def add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)


def add_observability(p: argparse.ArgumentParser) -> None:
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="stream structured JSON-lines events (run spans, "
                        "phase markers, chunk records, progress) to PATH; "
                        "a manifest sidecar lands at PATH.manifest.json")
    p.add_argument("--provenance", action="store_true",
                   help="record causal slot provenance (who transmitted into "
                        "each listening node, and why it did/didn't receive); "
                        "streamed as 'prov' events when --telemetry is on and "
                        "queryable later with 'obs explain'")
    p.add_argument("--obs-db", default=None, metavar="DB",
                   help="auto-ingest the --telemetry log into this run-store "
                        "database when the command finishes (see 'obs ingest')")
    p.add_argument("--monitor", action="store_true",
                   help="attach the live conformance monitor to the telemetry stream "
                        "(requires --telemetry): the paper's bounds are checked as "
                        "the campaign runs and violations land in the log as 'alert' "
                        "events (see 'monitor' for the out-of-process version)")
    p.add_argument("--perf", action="store_true",
                   help="run under the sampling profiler (repro.perf): wall-clock "
                        "stacks plus traced memory per span land in the telemetry "
                        "log as 'perf_profile'/'perf_span' events; pool and "
                        "fabric workers inherit the session via $REPRO_PERF")
    p.add_argument("--perf-hz", type=float, default=None, metavar="HZ",
                   help="sampling rate for --perf (default: $REPRO_PERF or 97)")
    p.add_argument("--perf-out", default=None, metavar="BASE",
                   help="with --perf: also write BASE.folded (collapsed stacks) "
                        "and BASE.html (flamegraph) when the command finishes")


def add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for Monte-Carlo repetitions "
                        "(default: $REPRO_JOBS or 1; 0 = all CPUs); "
                        "results are identical to serial runs")
    p.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                   help="per-repetition wall-clock budget on the pool; a "
                        "chunk exceeding it is presumed hung, its workers are "
                        "terminated and it is retried (default: unbounded)")


def add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default=None, choices=["reference", "numpy", "auto"],
                   help="engine backend for seeded runs (default: $REPRO_BACKEND "
                        "or reference); numpy batches Monte-Carlo trials through "
                        "the vectorized engine — seed-for-seed identical results, "
                        "needs the 'fast' extra; auto uses numpy when available")


def write_trace(command: str, records: list, path) -> dict:
    """Write ``records`` as a validated Chrome trace at ``path``."""
    from repro.monitor.chrome_trace import validate_chrome_trace, write_chrome_trace

    trace = write_chrome_trace(records, path)
    errors = validate_chrome_trace(trace)
    if errors:
        raise SystemExit(f"{command}: exported trace failed validation: {errors[0]}")
    return trace


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process: it holds no parse
    state, and a forked fabric worker reuses its coordinator's."""
    from repro.cli import chaos, fabric, obs, paper, perf, telemetry

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BGI'87 radio-broadcast reproduction toolkit",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
                        help="enable library logging at this level (progress "
                             "heartbeats, retry/fallback warnings, campaign "
                             "verdicts); give it before the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)
    # The order here is the order ``repro --help`` lists the commands in.
    for add_command in (
        paper.add_broadcast, paper.add_bfs, paper.add_gap, paper.add_experiment,
        chaos.register, paper.add_report, telemetry.add_telemetry,
        telemetry.add_monitor, obs.register, perf.register, fabric.register,
        paper.add_game,
    ):
        add_command(sub)
    return parser


def _manifest_config(args: argparse.Namespace) -> dict:
    """The command's effective configuration, for the run manifest."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "telemetry", "log_level", "obs_db",
                       "monitor", "perf", "perf_hz", "perf_out")
        and not callable(value)
    }


def _command_name(args: argparse.Namespace) -> str:
    """The command as typed: ``gap``, or ``fabric worker`` for a
    command family's subcommand."""
    sub = getattr(args, f"{args.command}_command", None)
    return f"{args.command} {sub}" if sub else args.command


def _restore_env_on_close(stack: contextlib.ExitStack, name: str) -> None:
    previous = os.environ.get(name)

    def restore() -> None:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous

    stack.callback(restore)


def _start_perf(args: argparse.Namespace, stack: contextlib.ExitStack) -> Callable:
    """Start the ``--perf`` session and return the function that finishes it.

    The session rides on $REPRO_PERF so pool and fabric workers sample
    themselves, and is ambient until finished.  Finishing stops it,
    clears the ambient registry, emits the ``perf_*`` records into the
    telemetry stream (when there is one) and reports the session; if
    the command raises, closing ``stack`` only stops it.
    """
    from repro.cli.perf import report_perf
    from repro.perf import DEFAULT_HZ, PerfSession, hz_from_env
    from repro.perf import core as perf_core

    _restore_env_on_close(stack, _PERF_ENV)
    session = PerfSession(args.perf_hz if args.perf_hz is not None
                          else hz_from_env() or DEFAULT_HZ)
    session.to_env(os.environ)
    previous_ambient = perf_core.set_active(session)
    session.start()

    def stop() -> None:
        session.stop()
        perf_core.set_active(previous_ambient)

    stack.callback(stop)

    def finish(recorder) -> None:
        stop()
        if recorder is not None:
            session.emit(recorder)
        report_perf(session, title=f"repro {args.command}", base=args.perf_out)

    return finish


def _run_logged(args: argparse.Namespace, path: str,
                finish_perf: Callable | None) -> int:
    """Run the command with its ``--telemetry`` log open, then report the
    ``--monitor`` verdict and ingest the log into ``--obs-db``."""
    from repro.telemetry import Telemetry, activate

    recorder = Telemetry.to_path(path)
    detach_monitor = None
    if getattr(args, "monitor", False):
        from repro.monitor import attach_monitor

        # Attach before the manifest lands so the checkers see it
        # (it selects the checker family and pins epsilon).
        _live, detach_monitor = attach_monitor(recorder)
    recorder.write_manifest(command=_command_name(args),
                            seed=getattr(args, "seed", None),
                            config=_manifest_config(args))
    with recorder, activate(recorder):
        code = args.func(args)
        monitor_report = detach_monitor() if detach_monitor is not None else None
        if finish_perf is not None:
            finish_perf(recorder)
    if monitor_report is not None:
        if monitor_report.alerts:
            print(f"\n[monitor] {len(monitor_report.alerts)} "
                  f"conformance alert(s) fired:")
            for alert in monitor_report.alerts:
                print(f"[monitor]   ! {alert.describe()}")
        else:
            print(f"\n[monitor] no conformance alerts over "
                  f"{monitor_report.records} records")
    obs_db = getattr(args, "obs_db", None)
    if obs_db:
        from repro.obs import RunStore, ingest_log

        with RunStore(obs_db) as store:
            result = ingest_log(store, path)
        print(f"[obs] {result.describe()}")
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    if args.log_level:
        import logging

        logging.basicConfig(level=getattr(logging, args.log_level),
                            format="%(asctime)s %(name)s %(levelname)s %(message)s")
    # Only some commands take the session flags.
    telemetry_path = getattr(args, "telemetry", None)
    if getattr(args, "obs_db", None) and not telemetry_path:
        raise SystemExit("--obs-db requires --telemetry (the log is what is ingested)")
    if getattr(args, "monitor", False) and not telemetry_path:
        raise SystemExit(
            "--monitor requires --telemetry (the monitor subscribes to the "
            "event stream; use 'repro monitor <log> --follow' to watch an "
            "existing log instead)"
        )
    from repro.errors import ExperimentError

    try:
        with contextlib.ExitStack() as stack:
            # --provenance rides on the ambient REPRO_PROVENANCE gate so
            # every engine the command constructs (including in pool
            # workers, which inherit the environment) records causal slot
            # provenance.
            if getattr(args, "provenance", False):
                _restore_env_on_close(stack, "REPRO_PROVENANCE")
                os.environ["REPRO_PROVENANCE"] = "1"
            finish_perf = (_start_perf(args, stack)
                           if getattr(args, "perf", False) else None)
            if telemetry_path:
                return _run_logged(args, telemetry_path, finish_perf)
            code = args.func(args)
            if finish_perf is not None:
                finish_perf(None)
            return code
    except ExperimentError as exc:
        # The one error exit: bad input or configuration, not a bug.
        raise SystemExit(f"{_command_name(args)}: {exc}")
