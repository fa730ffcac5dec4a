"""``chaos``: an adversarial fault campaign checked against its invariants."""

from __future__ import annotations

import argparse

from repro.cli import add_common, add_jobs, add_observability


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


def register(sub) -> None:
    p = sub.add_parser("chaos",
                       help="run an adversarial fault-injection "
                            "campaign and check invariants")
    add_common(p)
    p.add_argument("-n", type=int, default=48)
    p.add_argument("--reps", type=int, default=40,
                   help="trials per arm (proviso + control)")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--protocol", default="decay",
                   help="registered protocol to stress (see repro.chaos.PROTOCOLS)")
    p.add_argument("--quick", action="store_true",
                   help="tiny campaign for CI smoke runs")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="checkpoint completed chunks to this JSON-lines file")
    p.add_argument("--resume", action="store_true",
                   help="resume a killed campaign from --journal "
                        "(byte-identical final results)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report instead of the table")
    add_jobs(p)
    add_observability(p)
    p.set_defaults(func=_cmd_chaos)
