"""Live TTY status board for a running campaign.

:class:`StatusBoard` folds the telemetry stream into a small rolling
snapshot (runs completed, slots/sec, collision rate, campaign progress,
open alerts); :class:`BoardRenderer` paints it.  On a real terminal the
board redraws in place with ANSI cursor movement; when stdout is a pipe
(CI, ``| tee``) it degrades to plain status lines emitted at most once
per refresh interval, so logs stay readable and diffable.

A fabric campaign's stream also carries ``lease``/``worker``/``fabric_*``
records (the coordinator log, or a lease store followed by
:func:`repro.monitor.live.follow_fleet`).  The first such record turns on
the board's **fleet** block: one :class:`WorkerLane` of health counters
per worker plus campaign-wide chunk, takeover and fence-reject totals.
The lease side of both is a :class:`~repro.fabric.store.LeaseReplay`
fed one record at a time.  A stream without them renders exactly as it
would without the block.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, TextIO

from repro.fabric.store import LeaseReplay, WorkerLedger
from repro.monitor.conformance import Alert

__all__ = ["StatusBoard", "BoardRenderer", "WorkerLane"]

#: Record kinds that describe a fabric campaign (they switch the fleet
#: block on).
FLEET_KINDS = frozenset({"lease", "worker", "fabric_begin", "fabric_end"})


@dataclass
class WorkerLane:
    """Rolling health of one fabric worker: its life from ``worker``
    records, its leases (claims, commits, held chunk) from the board's
    replay."""

    worker: str
    ledger: WorkerLedger = field(default_factory=WorkerLedger)
    state: str = "unknown"  # unknown -> live -> exited (or killed)
    faults: int = 0
    last_fault: str | None = None
    exit_detail: str | None = None

    @property
    def holding(self) -> int | None:
        """The chunk this worker currently holds a lease on, if any."""
        return self.ledger.holding

    def snapshot(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(out.pop("ledger"))
        return out

    def describe(self) -> str:
        ledger = self.ledger
        parts = [
            f"{self.worker:<12.12}",
            f"{self.state:<7}",
            f"claims {ledger.claims}",
            f"commits {ledger.commits}",
        ]
        if ledger.takeovers:
            parts.append(f"takeovers {ledger.takeovers}")
        if ledger.fence_rejects:
            parts.append(f"REJECTS {ledger.fence_rejects}")
        if self.holding is not None:
            parts.append(f"chunk {self.holding}")
        if self.last_fault:
            parts.append(f"fault: {self.last_fault}")
        return "  ".join(parts)


class StatusBoard:
    """Rolling aggregate of the stream, cheap enough to update per record."""

    def __init__(self) -> None:
        self.records = 0
        self.runs_begun = 0
        self.runs_ended = 0
        self.runs_succeeded = 0
        self.slots = 0
        self.transmissions = 0
        self.collisions = 0
        self.deliveries = 0
        self.wall_s = 0.0
        self.faults = 0
        self.chaos_trials = 0
        self.alerts: list[Alert] = []
        self.command: str | None = None
        self.progress_done: int | None = None
        self.progress_total: int | None = None
        self.last_run: str | None = None
        self._nodes: dict[tuple[Any, Any], float] = {}
        # The fleet block: off until the stream shows a fabric campaign.
        self.fleet = False
        self.lanes: dict[str, WorkerLane] = {}
        self.lease = LeaseReplay()
        self.chunks_total: int | None = None
        self.fabric_done = False

    def update(self, record: dict[str, Any]) -> None:
        self.records += 1
        kind = record.get("kind")
        if kind in FLEET_KINDS:
            self.fleet = True
        if kind == "lease":
            self._update_lease(record)
        elif kind == "worker":
            self._update_worker(record)
        elif kind == "fabric_begin":
            chunks = record.get("chunks")
            if isinstance(chunks, int) and not isinstance(chunks, bool):
                self.chunks_total = chunks
        elif kind == "fabric_end":
            self.fabric_done = True
        elif kind == "manifest":
            command = record.get("command")
            if isinstance(command, str):
                self.command = command
        elif kind == "run_begin":
            self.runs_begun += 1
            nodes = record.get("nodes")
            if isinstance(nodes, (int, float)) and not isinstance(nodes, bool):
                self._nodes[(record.get("chunk"), record.get("run"))] = nodes
        elif kind == "run_end":
            self.runs_ended += 1
            run = record.get("run")
            if isinstance(run, str):
                self.last_run = run
            for field_name, attr in (
                ("slots", "slots"),
                ("transmissions", "transmissions"),
                ("collisions", "collisions"),
                ("deliveries", "deliveries"),
                ("wall_s", "wall_s"),
            ):
                value = record.get(field_name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    setattr(self, attr, getattr(self, attr) + value)
            nodes = self._nodes.get((record.get("chunk"), record.get("run")))
            informed = record.get("informed")
            if (
                nodes is not None
                and isinstance(informed, (int, float))
                and not isinstance(informed, bool)
                and informed >= nodes
            ):
                self.runs_succeeded += 1
        elif kind == "fault":
            self.faults += 1
        elif kind == "chaos_trial":
            self.chaos_trials += 1
        elif kind == "progress":
            done = record.get("done")
            total = record.get("total")
            if isinstance(done, (int, float)) and not isinstance(done, bool):
                self.progress_done = int(done)
            if isinstance(total, (int, float)) and not isinstance(total, bool):
                self.progress_total = int(total)

    def note_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def note_campaign(self, chunks_total: int, done: bool) -> None:
        """Pin the campaign's size and completion (read from its lease
        store, which carries no ``fabric_begin``/``fabric_end``)."""
        self.fleet = True
        self.chunks_total = chunks_total
        self.fabric_done = done

    def _lane(self, worker: Any) -> WorkerLane | None:
        if not isinstance(worker, str) or not worker:
            return None
        lane = self.lanes.get(worker)
        if lane is None:
            lane = self.lanes[worker] = WorkerLane(worker)
        return lane

    def _update_lease(self, record: dict[str, Any]) -> None:
        self.lease.feed(record)
        lane = self._lane(record.get("worker"))
        if lane is None:
            return
        lane.ledger = self.lease.workers.get(lane.worker, lane.ledger)
        if lane.state == "unknown":
            lane.state = "live"

    def _update_worker(self, record: dict[str, Any]) -> None:
        lane = self._lane(record.get("worker"))
        if lane is None:
            return
        event = record.get("event")
        detail = record.get("detail")
        if event == "worker_start":
            lane.state = "live"
        elif event == "worker_exit":
            lane.state = "exited"
            lane.exit_detail = detail if isinstance(detail, str) else None
        elif event == "fault":
            lane.faults += 1
            lane.last_fault = detail if isinstance(detail, str) else str(event)
            if isinstance(detail, str) and detail.startswith("kill"):
                lane.state = "killed"

    @property
    def slots_per_sec(self) -> float:
        return self.slots / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.transmissions if self.transmissions else 0.0

    @property
    def success_rate(self) -> float | None:
        if not self.runs_ended:
            return None
        return self.runs_succeeded / self.runs_ended

    def snapshot(self) -> dict[str, Any]:
        """Machine-readable board state (the ``--json`` report embeds it)."""
        out: dict[str, Any] = {
            "records": self.records,
            "command": self.command,
            "runs": {
                "begun": self.runs_begun,
                "ended": self.runs_ended,
                "succeeded": self.runs_succeeded,
            },
            "slots": self.slots,
            "slots_per_sec": self.slots_per_sec,
            "collision_rate": self.collision_rate,
            "deliveries": self.deliveries,
            "faults": self.faults,
            "chaos_trials": self.chaos_trials,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
            "alerts": [alert.record_fields() for alert in self.alerts],
        }
        if self.fleet:
            out["fleet"] = {
                "workers": {
                    worker: lane.snapshot()
                    for worker, lane in sorted(self.lanes.items())
                },
                "chunks_total": self.chunks_total,
                "chunks_committed": self.lease.committed(),
                "takeovers": self.lease.takeovers,
                "fence_rejects": self.lease.fence_rejects,
                "fabric_done": self.fabric_done,
            }
        return out

    # -- text rendering ---------------------------------------------------

    def lines(self) -> list[str]:
        """The board as fixed-order text lines (both render modes use it)."""
        header = "repro monitor"
        if self.command:
            header += f" — {self.command}"
        parts = [f"runs {self.runs_ended}/{self.runs_begun}"]
        rate = self.success_rate
        if rate is not None:
            parts.append(f"success {rate:.0%}")
        if self.progress_total:
            done = self.progress_done or 0
            parts.append(f"progress {done}/{self.progress_total}")
        if self.chaos_trials:
            parts.append(f"chaos trials {self.chaos_trials}")
        run_line = "  ".join(parts)
        engine_line = (
            f"slots {self.slots}  "
            f"slots/sec {self.slots_per_sec:,.0f}  "
            f"collision rate {self.collision_rate:.1%}  "
            f"faults {self.faults}"
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
        lines = [
            f"fleet: chunks {self.lease.committed()}/{self._total()}  "
            f"takeovers {self.lease.takeovers}  "
            f"fence rejects {self.lease.fence_rejects}"
            + ("  [done]" if self.fabric_done else "")
        ]
        for worker in sorted(self.lanes):
            lines.append("  " + self.lanes[worker].describe())
        return lines

    def _total(self) -> int | str:
        return self.chunks_total if self.chunks_total is not None else "?"

    def status_line(self) -> str:
        """One-line form for the plain (non-TTY) renderer."""
        parts = [f"records {self.records}", f"runs {self.runs_ended}"]
        rate = self.success_rate
        if rate is not None:
            parts.append(f"success {rate:.0%}")
        parts.append(f"slots/sec {self.slots_per_sec:,.0f}")
        parts.append(f"collisions {self.collision_rate:.1%}")
        if self.chaos_trials:
            parts.append(f"chaos {self.chaos_trials}")
        parts.append(f"alerts {len(self.alerts)}")
        if self.fleet:
            live = sum(
                1 for lane in self.lanes.values() if lane.state in ("live", "unknown")
            )
            parts.append(f"workers {live}/{len(self.lanes)}")
            parts.append(f"chunks {self.lease.committed()}/{self._total()}")
            if self.lease.fence_rejects:
                parts.append(f"rejects {self.lease.fence_rejects}")
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
