"""Live TTY status board for a running campaign.

:class:`StatusBoard` renders a :class:`~repro.telemetry.summary.LogSummary`
fed one record at a time (runs completed, slots/sec, collision rate,
campaign progress) plus the open alerts; :class:`BoardRenderer` paints
it.  On a real terminal the board redraws in place with ANSI cursor
movement; when stdout is a pipe (CI, ``| tee``) it degrades to plain
status lines emitted at most once per refresh interval, so logs stay
readable and diffable.

A fabric campaign's stream also carries ``lease``/``worker``/``fabric_*``
records (the coordinator log, or a lease store followed by
:func:`repro.monitor.live.follow_fleet`).  The first such record turns on
the board's **fleet** block: one lane per worker, the worker's
:class:`~repro.fabric.store.WorkerLedger` from the summary's
:class:`~repro.fabric.store.LeaseReplay`, plus campaign-wide chunk,
takeover and fence-reject totals.  A stream without them renders
exactly as it would without the block.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict
from typing import Any, TextIO

from repro.fabric.store import WorkerLedger
from repro.monitor.conformance import Alert
from repro.telemetry.summary import LogSummary

__all__ = ["StatusBoard", "BoardRenderer"]


def _describe_lane(worker: str, ledger: WorkerLedger) -> str:
    parts = [
        f"{worker:<12.12}",
        f"{ledger.state:<7}",
        f"claims {ledger.claims}",
        f"commits {ledger.commits}",
    ]
    if ledger.takeovers:
        parts.append(f"takeovers {ledger.takeovers}")
    if ledger.fence_rejects:
        parts.append(f"REJECTS {ledger.fence_rejects}")
    if ledger.holding is not None:
        parts.append(f"chunk {ledger.holding}")
    if ledger.last_fault:
        parts.append(f"fault: {ledger.last_fault}")
    return "  ".join(parts)


class StatusBoard:
    """The open alerts, and a render of the stream's :class:`LogSummary`
    (fed by whoever owns the board: the live monitor's checkers)."""

    def __init__(self) -> None:
        self.summary = LogSummary()
        self.alerts: list[Alert] = []
        #: ``(chunks_total, done)`` as :meth:`note_campaign` pinned them.
        self._campaign: tuple[int, bool] | None = None

    def note_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def note_campaign(self, chunks_total: int, done: bool) -> None:
        """Pin the campaign's size and completion (read from its lease
        store, which carries no ``fabric_begin``/``fabric_end``)."""
        self._campaign = (chunks_total, done)

    @property
    def lanes(self) -> dict[str, WorkerLedger]:
        """Each worker's ledger, by worker id."""
        return self.summary.lease.workers

    @property
    def fleet(self) -> bool:
        return self.summary.fleet or self._campaign is not None

    @property
    def chunks_total(self) -> int | None:
        if self._campaign is not None:
            return self._campaign[0]
        return self.summary.chunks_total

    @property
    def fabric_done(self) -> bool:
        if self._campaign is not None:
            return self._campaign[1]
        return self.summary.count("fabric_end") > 0

    @property
    def slots_per_sec(self) -> float:
        runs = self.summary.runs
        return runs["slots"] / runs["wall_s"] if runs["wall_s"] > 0 else 0.0

    @property
    def collision_rate(self) -> float:
        runs = self.summary.runs
        return runs["collisions"] / runs["transmissions"] if runs["transmissions"] else 0.0

    @property
    def success_rate(self) -> float | None:
        ended = self.summary.count("run_end")
        return self.summary.runs_succeeded / ended if ended else None

    def snapshot(self) -> dict[str, Any]:
        """Machine-readable board state (the ``--json`` report embeds it)."""
        s = self.summary
        out: dict[str, Any] = {
            "records": s.records,
            "command": s.command,
            "runs": {
                "begun": s.count("run_begin"),
                "ended": s.count("run_end"),
                "succeeded": s.runs_succeeded,
            },
            "slots": s.runs["slots"],
            "slots_per_sec": self.slots_per_sec,
            "collision_rate": self.collision_rate,
            "deliveries": s.runs["deliveries"],
            "faults": s.count("fault"),
            "chaos_trials": s.count("chaos_trial"),
            "progress": {
                "done": s.progress_done,
                "total": s.progress_total,
            },
            "alerts": [alert.record_fields() for alert in self.alerts],
        }
        if self.fleet:
            out["fleet"] = {
                "workers": {
                    worker: {"worker": worker, **asdict(ledger)}
                    for worker, ledger in sorted(self.lanes.items())
                },
                "chunks_total": self.chunks_total,
                "chunks_committed": s.lease.committed(),
                "takeovers": s.lease.takeovers,
                "fence_rejects": s.lease.fence_rejects,
                "fabric_done": self.fabric_done,
            }
        return out

    # -- text rendering ---------------------------------------------------

    def lines(self) -> list[str]:
        """The board as fixed-order text lines (both render modes use it)."""
        s = self.summary
        header = "repro monitor"
        if s.command:
            header += f" — {s.command}"
        parts = [f"runs {s.count('run_end')}/{s.count('run_begin')}"]
        rate = self.success_rate
        if rate is not None:
            parts.append(f"success {rate:.0%}")
        if s.progress_total:
            done = s.progress_done or 0
            parts.append(f"progress {done}/{s.progress_total}")
        if s.count("chaos_trial"):
            parts.append(f"chaos trials {s.count('chaos_trial')}")
        run_line = "  ".join(parts)
        engine_line = (
            f"slots {s.runs['slots']}  "
            f"slots/sec {self.slots_per_sec:,.0f}  "
            f"collision rate {self.collision_rate:.1%}  "
            f"faults {s.count('fault')}"
        )
        if self.alerts:
            alert_line = f"ALERTS OPEN: {len(self.alerts)}"
        else:
            alert_line = "alerts: none"
        lines = [header, run_line, engine_line, alert_line]
        for alert in self.alerts[-3:]:
            lines.append(f"  ! {alert.describe()}")
        return lines + self.fleet_lines()

    def fleet_lines(self) -> list[str]:
        """The fleet block: campaign totals, then one line per worker."""
        if not self.fleet:
            return []
        lease = self.summary.lease
        lines = [
            f"fleet: chunks {lease.committed()}/{self._total()}  "
            f"takeovers {lease.takeovers}  "
            f"fence rejects {lease.fence_rejects}"
            + ("  [done]" if self.fabric_done else "")
        ]
        for worker, ledger in sorted(self.lanes.items()):
            lines.append("  " + _describe_lane(worker, ledger))
        return lines

    def _total(self) -> int | str:
        return self.chunks_total if self.chunks_total is not None else "?"

    def status_line(self) -> str:
        """One-line form for the plain (non-TTY) renderer."""
        s = self.summary
        parts = [f"records {s.records}", f"runs {s.count('run_end')}"]
        rate = self.success_rate
        if rate is not None:
            parts.append(f"success {rate:.0%}")
        parts.append(f"slots/sec {self.slots_per_sec:,.0f}")
        parts.append(f"collisions {self.collision_rate:.1%}")
        if s.count("chaos_trial"):
            parts.append(f"chaos {s.count('chaos_trial')}")
        parts.append(f"alerts {len(self.alerts)}")
        if self.fleet:
            live = sum(
                1 for lane in self.lanes.values() if lane.state in ("live", "unknown")
            )
            parts.append(f"workers {live}/{len(self.lanes)}")
            parts.append(f"chunks {s.lease.committed()}/{self._total()}")
            if s.lease.fence_rejects:
                parts.append(f"rejects {s.lease.fence_rejects}")
        return "monitor: " + "  ".join(parts)


class BoardRenderer:
    """Paint a :class:`StatusBoard`, in place on a TTY, line-wise otherwise."""

    def __init__(
        self,
        board: StatusBoard,
        *,
        stream: TextIO | None = None,
        interval: float = 0.5,
        plain: bool | None = None,
    ) -> None:
        self.board = board
        self.stream = stream if stream is not None else sys.stdout
        self.interval = interval
        if plain is None:
            plain = not self.stream.isatty()
        self.plain = plain
        self._painted_lines = 0
        self._last_refresh = 0.0
        self._last_plain = ""

    def refresh(self, *, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_refresh < self.interval:
            return
        self._last_refresh = now
        if self.plain:
            line = self.board.status_line()
            if force or line != self._last_plain:
                self._last_plain = line
                print(line, file=self.stream, flush=True)
            return
        lines = self.board.lines()
        out = self.stream
        if self._painted_lines:
            out.write(f"\x1b[{self._painted_lines}F")  # cursor back to top
        for line in lines:
            out.write("\x1b[2K" + line + "\n")  # clear stale tail, repaint
        if self._painted_lines > len(lines):
            for _ in range(self._painted_lines - len(lines)):
                out.write("\x1b[2K\n")
            out.write(f"\x1b[{self._painted_lines - len(lines)}F")
        self._painted_lines = len(lines)
        out.flush()

    def close(self) -> None:
        """Final repaint so the last state stays on screen."""
        self.refresh(force=True)
