"""``fabric run|worker|chaos|autopsy``: the crash-safe multi-worker
campaign fabric.  Every worker runs the ``fabric worker`` command:
``fabric run`` forks its workers and runs it in-process, and a worker
started on its own runs ``python -m repro fabric worker``.  Handlers
load :mod:`repro.fabric` only when they run."""

from __future__ import annotations

import argparse
import json

from repro.cli import add_common, add_observability, write_trace


def _parse_params(pairs: list[str]) -> dict:
    """``--param key=value`` pairs; values parse as JSON, else strings."""
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


def _fabric_config(args: argparse.Namespace, *, random_plan: bool, **extra):
    """The campaign flags as a ``FabricConfig``.  Without --fault-plan,
    ``random_plan`` draws a seeded plan (``fabric chaos``); otherwise
    no fault is injected."""
    from repro.fabric.coordinator import FabricConfig
    from repro.fabric.faultplan import FaultPlan

    params = _parse_params(args.param)
    if args.fault_plan:
        plan = FaultPlan.parse(args.fault_plan)
    elif random_plan:
        plan = FaultPlan.random(
            args.seed, [f"w{index}" for index in range(args.workers)],
            kills=args.kills, stalls=args.stalls, stales=args.stales,
            partitions=args.partitions, max_ordinal=args.max_ordinal,
            stall_duration=2.5 * args.lease_ttl,
            partition_duration=2.5 * args.lease_ttl,
        )
    else:
        plan = FaultPlan()
    return FabricConfig(
        spec=args.spec, params=params, store=args.store, workers=args.workers,
        chunksize=args.chunksize, lease_ttl=args.lease_ttl,
        stale_timeout=args.stale_timeout, fault_plan=plan, timeout=args.timeout,
        **extra,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.fabric.coordinator import run_fabric
    from repro.fabric.specs import resolve_spec

    # Per-worker telemetry logs feed the merged trace; on automatically
    # whenever telemetry or a trace is requested.
    worker_telemetry = bool(args.worker_telemetry or args.telemetry
                            or args.chrome_trace)
    config = _fabric_config(args, random_plan=False, journal=args.journal,
                            worker_telemetry=worker_telemetry)
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
    if args.chrome_trace:
        from repro.monitor.live import fleet_records

        records = fleet_records(config.store, result.fingerprint)
        trace = write_trace("fabric run", records, args.chrome_trace)
        print(f"chrome trace: {args.chrome_trace} "
              f"({len(trace['traceEvents'])} trace events)")
    return code


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fabric.faultplan import FaultPlan
    from repro.fabric.worker import WorkerConfig, run_worker

    if args.fault_plan_json:
        plan = FaultPlan.from_json(args.fault_plan_json)
    elif args.fault_plan:
        plan = FaultPlan.parse(args.fault_plan)
    else:
        plan = FaultPlan()
    return run_worker(WorkerConfig(
        store=args.store, campaign=args.campaign, worker_id=args.worker_id,
        lease_ttl=args.lease_ttl, poll_interval=args.poll_interval,
        stale_timeout=args.stale_timeout, fault_plan=plan,
    ))


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.fabric.verify import verify_fabric

    config = _fabric_config(args, random_plan=True)
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


def _cmd_autopsy(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fabric.autopsy import autopsy, land_autopsy, render_autopsy_html

    report = autopsy(
        args.store,
        args.campaign,
        journal=args.journal,
        telemetry_log=args.telemetry_log,
    )
    if args.html:
        Path(args.html).write_text(render_autopsy_html(report), encoding="utf-8")
    if args.autopsy_obs_db:
        from repro.obs import RunStore

        with RunStore(args.autopsy_obs_db) as obs_store:
            run_id = land_autopsy(report, obs_store)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True, default=repr))
    else:
        print(report.render())
        if args.html:
            print(f"html timeline: {args.html}")
        if args.autopsy_obs_db:
            print(f"obs store: landed as run {run_id} in {args.autopsy_obs_db}")
    return 0 if report.passed else 1


def _add_store_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", default="fabric.db", metavar="DB",
                   help="shared SQLite lease store (created if "
                        "missing); per-worker logs land next to it")
    p.add_argument("--lease-ttl", type=float, default=2.0,
                   help="seconds a chunk lease survives without a "
                        "heartbeat before any worker may take it over")
    p.add_argument("--stale-timeout", type=float, default=30.0,
                   help="how long a 'stale' fault waits to be superseded "
                        "before giving up on demonstrating the rejection")


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default="slow-squares",
                   help="registered campaign spec (squares, slow-squares, chaos, ...)")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="spec parameter (repeatable); values parse as "
                        "JSON, e.g. --param n=24 --param delay=0.05")
    p.add_argument("--workers", type=int, default=3,
                   help="worker subprocesses (0 = coordinator only)")
    p.add_argument("--chunksize", type=int, default=None,
                   help="items per chunk lease (default: derived "
                        "from item count and worker count)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="overall campaign deadline in seconds")
    p.add_argument("--fault-plan", default=None, metavar="PLAN",
                   help="harness faults to inject, e.g. "
                        "'kill@w1#0,stall@w0#1=3.0,stale@w2#0' "
                        "(see repro.fabric.faultplan)")


def register(sub) -> None:
    p_fab = sub.add_parser("fabric",
                           help="crash-safe distributed campaign fabric: lease-fenced "
                                "worker subprocesses over a shared SQLite store")
    fab_sub = p_fab.add_subparsers(dest="fabric_command", required=True)

    p = fab_sub.add_parser("run", help="run a campaign spec across worker subprocesses")
    add_common(p)
    _add_store_flags(p)
    _add_campaign_flags(p)
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="also write the spliced results as a resilient_map "
                        "campaign journal (byte-identical, resumable)")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="merge the lease store's events and the per-worker "
                        "telemetry logs into one Chrome/Perfetto trace with a "
                        "process lane per worker (implies --worker-telemetry)")
    p.add_argument("--worker-telemetry", action="store_true",
                   help="give each worker its own telemetry log at "
                        "<store>.<worker>.telemetry.jsonl (automatic with "
                        "--telemetry or --chrome-trace)")
    add_observability(p)
    p.set_defaults(func=_cmd_run)

    p = fab_sub.add_parser("worker",
                           help="one fabric worker process (spawned by 'fabric run')")
    p.add_argument("--store", required=True)
    p.add_argument("--campaign", required=True,
                   help="campaign fingerprint in the lease store")
    p.add_argument("--worker-id", required=True)
    p.add_argument("--lease-ttl", type=float, default=2.0)
    p.add_argument("--poll-interval", type=float, default=0.1)
    p.add_argument("--stale-timeout", type=float, default=30.0)
    p.add_argument("--fault-plan", default=None)
    p.add_argument("--fault-plan-json", default=None,
                   help="serialized per-worker fault sub-plan (coordinator internal)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="stream this worker's events to PATH")
    p.set_defaults(func=_cmd_worker)

    p = fab_sub.add_parser("chaos",
                           help="self-verification: run the campaign under "
                                "a seeded fault plan and assert "
                                "byte-identical results with sound fencing")
    add_common(p)
    _add_store_flags(p)
    _add_campaign_flags(p)
    p.add_argument("--kills", type=int, default=1,
                   help="workers to kill -9 mid-chunk (seeded plan)")
    p.add_argument("--stalls", type=int, default=1,
                   help="workers to stall past their lease")
    p.add_argument("--stales", type=int, default=1,
                   help="stale-commit attempts to force")
    p.add_argument("--partitions", type=int, default=0,
                   help="store-partition windows to inject")
    p.add_argument("--max-ordinal", type=int, default=1,
                   help="latest per-worker chunk ordinal a random fault may target")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable verdict")
    add_observability(p)
    # random_faults is read by nothing; it stays because the run
    # manifest's config, and so its fingerprint, records it.
    p.set_defaults(func=_cmd_chaos, random_faults=True)

    p = fab_sub.add_parser("autopsy",
                           help="reconstruct a finished (or crashed) "
                                "campaign's lease/fence/takeover timeline from "
                                "the store's audit log, verify the fencing "
                                "contract, and cross-check the journal splice")
    p.add_argument("--store", default="fabric.db", metavar="DB",
                   help="the campaign's SQLite lease store")
    p.add_argument("--campaign", default=None, metavar="PREFIX",
                   help="campaign fingerprint prefix "
                        "(default: the store's only campaign)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="cross-check the splice against this "
                        "campaign journal byte-for-byte")
    p.add_argument("--telemetry-log", default=None, metavar="PATH",
                   help="cross-check the store's audit trail against this "
                        "telemetry log's lease records (same takeovers, "
                        "rejections, holders and commit fences)")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="write a self-contained HTML timeline "
                        "dashboard (one lane per chunk)")
    # dest avoids the global --obs-db/--telemetry pairing in main():
    # autopsy lands store rows itself rather than re-ingesting a log.
    p.add_argument("--obs-db", dest="autopsy_obs_db", default=None, metavar="DB",
                   help="land the autopsy as obs-store rows (idempotent per campaign)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.set_defaults(func=_cmd_autopsy)
