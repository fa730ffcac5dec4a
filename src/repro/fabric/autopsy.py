"""Campaign autopsy: reconstruct what a fabric run actually did.

After (or mid-way through) a fabric campaign, the lease store's audit
log is the ground truth: every claim, takeover, fenced commit and
rejection is a row.  :func:`autopsy` replays that log through
:class:`repro.fabric.store.LeaseReplay` into a per-chunk, per-worker
timeline and checks the fencing contract from the *evidence* rather
than trusting the implementation:

* every committed chunk is attributable to **exactly one** fenced
  holder — the worker whose grant held the current fencing token at
  commit time;
* fences are monotonic by exactly one per grant; nothing commits
  twice; nothing legitimate is rejected;
* optionally, the journal splice cross-checks byte-for-byte against
  the store's committed payloads (the journal is what downstream
  consumers resume from — it must not diverge from the audit trail);
* optionally, a telemetry log's ``lease`` records are replayed the
  same way and must tell the store's story: the same takeovers and
  fence rejections, and each chunk's holder and commit fence.

The report renders as byte-stable text and JSON (timestamps are
relative to the campaign's first audit event, so two invocations over
the same store produce identical bytes), as an HTML timeline
dashboard (:func:`render_autopsy_html`), and as obs-store rows
(:func:`land_autopsy`) so ``obs trend`` sees fabric health across
campaigns.  ``python -m repro fabric autopsy`` is the front end.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ExperimentError
from repro.fabric.store import (
    ChunkLedger,
    LeaseReplay,
    LeaseStore,
    WorkerLedger,
    store_event_record,
)
from repro.monitor.tail import TailReader

__all__ = [
    "ChunkAutopsy",
    "AutopsyReport",
    "autopsy",
    "land_autopsy",
    "render_autopsy_html",
]


def _entry(record: dict[str, Any], base: float) -> dict[str, Any]:
    """A translated audit row as a timeline entry (``ts`` from ``base``)."""
    return {
        "ts": round(float(record["ts"]) - base, 3),
        "kind": record["event"],
        "worker": record.get("worker"),
        "index": record.get("index"),
        "fence": record.get("fence"),
        "detail": record.get("detail"),
    }


@dataclass
class ChunkAutopsy:
    """Everything the audit log says happened to one chunk."""

    index: int
    grants: list[dict[str, Any]] = field(default_factory=list)
    commit: dict[str, Any] | None = None
    rejects: list[dict[str, Any]] = field(default_factory=list)
    #: What the chunks table itself records (cross-checked vs events).
    committed_by: str | None = None
    committed_fence: int | None = None
    attempts: int = 0

    @property
    def holder(self) -> str | None:
        """The one fenced holder this chunk's data is attributed to."""
        if self.commit is not None:
            return str(self.commit.get("worker"))
        return None

    def to_json(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "grants": self.grants,
            "commit": self.commit,
            "rejects": self.rejects,
            "committed_by": self.committed_by,
            "committed_fence": self.committed_fence,
            "attempts": self.attempts,
            "holder": self.holder,
        }


@dataclass
class AutopsyReport:
    """The reconstructed timeline and its contract verdicts."""

    store: str
    fingerprint: str
    spec: str | None
    items: int
    chunksize: int
    chunks: int
    base_ts: float  # first audit event (absolute); render uses deltas
    chunk_detail: list[ChunkAutopsy]
    workers: dict[str, dict[str, Any]]
    timeline: list[dict[str, Any]]  # all events, ts relative to base
    takeovers: int = 0
    fence_rejects: int = 0
    violations: list[str] = field(default_factory=list)
    journal_check: dict[str, Any] | None = None
    telemetry_check: dict[str, Any] | None = None

    @property
    def passed(self) -> bool:
        if self.violations:
            return False
        if self.journal_check is not None and not self.journal_check["matched"]:
            return False
        return True

    def attribution(self) -> dict[int, tuple[str, int]]:
        """``chunk index -> (worker, fence)`` for every committed chunk."""
        out: dict[int, tuple[str, int]] = {}
        for chunk in self.chunk_detail:
            if chunk.commit is not None:
                out[chunk.index] = (
                    str(chunk.commit.get("worker")),
                    int(chunk.commit.get("fence") or 0),
                )
        return out

    def obs_metrics(self) -> dict[str, float]:
        """Scalar rollup for the obs store (``fabric.*`` namespace)."""
        attempts = sum(c.attempts for c in self.chunk_detail)
        committed = sum(1 for c in self.chunk_detail if c.commit is not None)
        metrics = {
            "fabric.chunks": float(self.chunks),
            "fabric.chunks_committed": float(committed),
            "fabric.attempts": float(attempts),
            "fabric.takeovers": float(self.takeovers),
            "fabric.fence_rejects": float(self.fence_rejects),
            "fabric.workers": float(len(self.workers)),
            "fabric.violations": float(len(self.violations)),
        }
        if self.journal_check is not None:
            metrics["fabric.journal_matched"] = float(
                bool(self.journal_check["matched"])
            )
        return metrics

    def to_json(self) -> dict[str, Any]:
        return {
            "store": self.store,
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "items": self.items,
            "chunksize": self.chunksize,
            "chunks": self.chunks,
            "takeovers": self.takeovers,
            "fence_rejects": self.fence_rejects,
            "workers": self.workers,
            "chunk_detail": [c.to_json() for c in self.chunk_detail],
            "timeline": self.timeline,
            "violations": self.violations,
            "journal_check": self.journal_check,
            "telemetry_check": self.telemetry_check,
            "attribution": {
                str(k): list(v) for k, v in sorted(self.attribution().items())
            },
            "passed": self.passed,
        }

    def render(self) -> str:
        """Byte-stable text rendering (same store ⇒ identical bytes)."""
        lines = [
            f"fabric autopsy — campaign {self.fingerprint[:12]}",
            f"store: {self.store}",
            f"geometry: {self.items} item(s) in {self.chunks} chunk(s) "
            f"of {self.chunksize} (spec: {self.spec or '<unknown>'})",
            f"events: {len(self.timeline)}  takeovers: {self.takeovers}  "
            f"fence rejects: {self.fence_rejects}",
            "",
            "workers:",
        ]
        for worker in sorted(self.workers):
            stats = self.workers[worker]
            line = (
                f"  {worker:<12} claims {stats['claims']}  "
                f"takeovers {stats['takeovers']}  commits {stats['commits']}  "
                f"rejects {stats['fence_rejects']}  faults {stats['faults']}"
            )
            if stats.get("exit_detail"):
                line += f"  exit: {stats['exit_detail']}"
            lines.append(line)
        lines.append("")
        lines.append("chunk attribution (index -> fenced holder):")
        for chunk in self.chunk_detail:
            if chunk.commit is not None:
                commit = chunk.commit
                lines.append(
                    f"  chunk {chunk.index}: committed by "
                    f"{commit.get('worker')} under fence {commit.get('fence')} "
                    f"at t+{commit.get('ts'):.3f}s "
                    f"({chunk.attempts} grant(s), {len(chunk.rejects)} reject(s))"
                )
            else:
                lines.append(
                    f"  chunk {chunk.index}: NEVER COMMITTED "
                    f"({chunk.attempts} grant(s))"
                )
        lines.append("")
        lines.append("timeline:")
        for event in self.timeline:
            where = f"chunk {event['index']}" if event.get("index") is not None else "-"
            detail = f"  ({event['detail']})" if event.get("detail") else ""
            fence = f" fence={event['fence']}" if event.get("fence") is not None else ""
            lines.append(
                f"  t+{event['ts']:8.3f}s  {event['kind']:<13} "
                f"{str(event.get('worker') or '-'):<12} {where}{fence}{detail}"
            )
        lines.append("")
        if self.journal_check is not None:
            check = self.journal_check
            verdict = "byte-identical" if check["matched"] else "MISMATCH"
            lines.append(
                f"journal splice vs store payloads: {verdict} "
                f"({check['path']}, {check['chunks']} chunk(s))"
            )
            for problem in check.get("problems", []):
                lines.append(f"  ! {problem}")
        if self.telemetry_check is not None:
            check = self.telemetry_check
            lines.append(
                f"telemetry coverage: {check['lease_records']} lease record(s) "
                f"in {check['log']} vs {check['store_events']} store event(s)"
            )
            for problem in check.get("problems", []):
                lines.append(f"  ! {problem}")
        for violation in self.violations:
            lines.append(f"FENCING VIOLATION: {violation}")
        lines.append("autopsy " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _table_violations(chunk_detail: dict[int, ChunkAutopsy]) -> list[str]:
    """Where the ``chunks`` table disagrees with the replayed events.

    Mid-campaign autopsies are legitimate: an uncommitted chunk is
    reported in the rendering, not here, unless the table claims it is
    done.
    """
    errors: list[str] = []
    for index, chunk in chunk_detail.items():
        if chunk.commit is None:
            if chunk.committed_by is not None:
                errors.append(
                    f"chunk {index}: table says committed by "
                    f"{chunk.committed_by} but no commit event exists"
                )
            continue
        worker = str(chunk.commit.get("worker"))
        fence = int(chunk.commit.get("fence") or 0)
        if chunk.committed_by is not None and chunk.committed_by != worker:
            errors.append(
                f"chunk {index}: events attribute the commit to {worker} but "
                f"the chunks table records {chunk.committed_by}"
            )
        if chunk.committed_fence is not None and chunk.committed_fence != fence:
            errors.append(
                f"chunk {index}: committed fence disagrees (events {fence}, "
                f"table {chunk.committed_fence})"
            )
    return errors


def _check_journal(
    journal_path: Path, fingerprint: str, payloads: dict[int, str]
) -> dict[str, Any]:
    """Byte-compare the journal's chunk payloads with the store's."""
    problems: list[str] = []
    journal_payloads: dict[int, str] = {}
    header: dict[str, Any] | None = None
    if not journal_path.exists():
        return {
            "path": str(journal_path),
            "matched": False,
            "chunks": 0,
            "problems": [f"no journal at {journal_path}"],
        }
    # A torn (unterminated) tail is pending, not a problem: the journal
    # loader tolerates it too.  A complete line that is not a JSON
    # object is corruption the loader would refuse to resume from.
    reader = TailReader(journal_path)
    for record in reader.poll():
        if record.get("kind") == "header":
            header = record
        elif record.get("kind") == "chunk":
            journal_payloads[int(record["index"])] = str(record["payload"])
    if reader.invalid:
        problems.append(
            f"journal has {reader.invalid} line(s) that are not JSON objects"
        )
    if header is None:
        problems.append("journal has no header record")
    elif header.get("fingerprint") != fingerprint:
        problems.append(
            f"journal belongs to campaign "
            f"{str(header.get('fingerprint'))[:12]}, not {fingerprint[:12]}"
        )
    for index in sorted(set(payloads) | set(journal_payloads)):
        ours = payloads.get(index)
        theirs = journal_payloads.get(index)
        if ours is None:
            problems.append(f"journal chunk {index} is not committed in the store")
        elif theirs is None:
            problems.append(f"store chunk {index} is missing from the journal")
        elif ours != theirs:
            problems.append(f"chunk {index}: journal payload differs from store")
    return {
        "path": str(journal_path),
        "matched": not problems,
        "chunks": len(journal_payloads),
        "problems": problems,
    }


def _check_telemetry(log_path: Path, store: LeaseReplay) -> dict[str, Any]:
    """Replay the log's ``lease`` records and compare with the store's
    replay: takeovers, fence rejections, and each chunk's holder and
    commit fence.  Every difference is a problem."""
    from repro.telemetry.summary import read_records

    log = LeaseReplay()
    for record in read_records(log_path):
        log.feed(record)
    problems = [
        f"the log replays {getattr(log, name)} {name} but the store "
        f"records {getattr(store, name)}"
        for name in ("takeovers", "fence_rejects")
        if getattr(log, name) != getattr(store, name)
    ]

    def state(chunk: ChunkLedger | None) -> tuple[Any, Any]:
        commit = chunk.commit if chunk is not None else None
        return (chunk and chunk.holder, commit and commit.get("fence"))

    for index in sorted(set(store.chunks) | set(log.chunks)):
        seen, expected = state(log.chunks.get(index)), state(store.chunks.get(index))
        if seen != expected:
            problems.append(
                f"chunk {index}: the log replays holder {seen[0]} and commit "
                f"fence {seen[1]}, the store {expected[0]} and {expected[1]}"
            )
    return {
        "log": str(log_path),
        "lease_records": sum(log.events.values()),
        "store_events": sum(store.events.values()),
        "problems": problems,
    }


def autopsy(
    store: str | os.PathLike[str],
    campaign: str | None = None,
    *,
    journal: str | os.PathLike[str] | None = None,
    telemetry_log: str | os.PathLike[str] | None = None,
) -> AutopsyReport:
    """Reconstruct and audit one campaign from its lease store.

    ``campaign`` is a fingerprint (prefix); when omitted the store must
    hold exactly one campaign.  ``journal``/``telemetry_log`` add the
    splice and telemetry cross-checks.
    """
    store_path = Path(store)
    if not store_path.exists():
        raise ExperimentError(f"no lease store at {store_path}")
    lease_store = LeaseStore(store_path)
    try:
        rows = lease_store.conn.execute(
            "SELECT * FROM campaigns ORDER BY id"
        ).fetchall()
        if not rows:
            raise ExperimentError(f"{store_path}: the lease store is empty")
        if campaign is None:
            if len(rows) > 1:
                options = ", ".join(str(r["fingerprint"])[:12] for r in rows)
                raise ExperimentError(
                    f"{store_path} holds {len(rows)} campaigns ({options}); "
                    "pass --campaign to pick one"
                )
            row = rows[0]
        else:
            matches = [
                r for r in rows if str(r["fingerprint"]).startswith(campaign)
            ]
            if not matches:
                raise ExperimentError(
                    f"{store_path}: no campaign fingerprint starts "
                    f"with {campaign!r}"
                )
            if len(matches) > 1:
                raise ExperimentError(
                    f"{store_path}: campaign prefix {campaign!r} is ambiguous"
                )
            row = matches[0]
        campaign_id = int(row["id"])
        fingerprint = str(row["fingerprint"])

        events = lease_store.events(campaign_id)
        base_ts = min(
            (float(e["ts"]) for e in events if e.get("ts") is not None),
            default=float(row.get("created") or 0.0),
        )
        records = [store_event_record(event) for event in events]
        replay = LeaseReplay()
        lives: dict[str, dict[str, Any]] = {}
        for record in records:
            replay.feed(record)
            worker = record.get("worker")
            if not isinstance(worker, str) or not worker:
                continue
            life = lives.setdefault(worker, {"faults": 0, "exit_detail": None})
            if record["event"] == "fault":
                life["faults"] += 1
            elif record["event"] == "worker_exit":
                life["exit_detail"] = record.get("detail")
        workers = {
            worker: {
                name: getattr(replay.workers.get(worker, WorkerLedger()), name)
                for name in ("claims", "takeovers", "commits", "fence_rejects")
            }
            | life
            for worker, life in lives.items()
        }

        chunk_rows = lease_store.conn.execute(
            "SELECT * FROM chunks WHERE campaign_id = ? ORDER BY idx",
            (campaign_id,),
        ).fetchall()
        chunk_detail: dict[int, ChunkAutopsy] = {}
        for r in chunk_rows:
            index = int(r["idx"])
            ledger = replay.chunks.get(index, ChunkLedger(index))
            chunk_detail[index] = ChunkAutopsy(
                index=index,
                grants=[_entry(g, base_ts) for g in ledger.grants],
                commit=_entry(ledger.commit, base_ts) if ledger.commit else None,
                rejects=[_entry(j, base_ts) for j in ledger.rejects],
                committed_by=r["committed_by"],
                committed_fence=(
                    int(r["committed_fence"])
                    if r["committed_fence"] is not None
                    else None
                ),
                attempts=int(r["attempts"] or 0),
            )
        violations = replay.violations + _table_violations(chunk_detail)

        journal_check = None
        if journal is not None:
            payloads = lease_store.completed_payloads(campaign_id)
            journal_check = _check_journal(Path(journal), fingerprint, payloads)
        telemetry_check = None
        if telemetry_log is not None:
            telemetry_check = _check_telemetry(Path(telemetry_log), replay)

        return AutopsyReport(
            store=str(store_path),
            fingerprint=fingerprint,
            spec=row.get("spec"),
            items=int(row["items"]),
            chunksize=int(row["chunksize"]),
            chunks=int(row["chunks"]),
            base_ts=base_ts,
            chunk_detail=[chunk_detail[i] for i in sorted(chunk_detail)],
            workers=workers,
            timeline=[_entry(record, base_ts) for record in records],
            takeovers=replay.takeovers,
            fence_rejects=replay.fence_rejects,
            violations=violations,
            journal_check=journal_check,
            telemetry_check=telemetry_check,
        )
    finally:
        lease_store.close()


def land_autopsy(report: AutopsyReport, store: Any) -> int:
    """Land the autopsy as obs-store rows (idempotent per campaign).

    The run row is keyed on the campaign fingerprint, so re-running the
    autopsy refreshes the same row instead of duplicating it.  Returns
    the run id.
    """
    run_id, _replaced = store.upsert_run(
        report.fingerprint[:16],
        {
            "command": "fabric autopsy",
            "source_path": report.store,
            "records": len(report.timeline),
            "config_json": json.dumps(
                {
                    "spec": report.spec,
                    "items": report.items,
                    "chunksize": report.chunksize,
                },
                sort_keys=True,
            ),
        },
    )
    store.add_metrics(run_id, report.obs_metrics())
    return run_id


_HTML_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f",
)


_HTML_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; padding-right: 1em; white-space: nowrap; }
td.lane { position: relative; height: 22px; background: #f4f4f4;
          border: 1px solid #ddd; min-width: 480px; }
.bar { position: absolute; top: 3px; height: 14px; opacity: .85;
       border-radius: 2px; }
.bar.takeover { outline: 2px dashed #e15759; }
.mark { position: absolute; top: 0; font-weight: bold; }
.mark.reject { color: #e15759; }
.mark.commit { color: #2a7d2a; }
.key i { display: inline-block; width: 10px; height: 10px;
         margin-right: 4px; }
.key { margin-right: 1em; }
.verdict-PASSED { color: #2a7d2a; } .verdict-FAILED { color: #e15759; }
"""


def render_autopsy_html(report: AutopsyReport) -> str:
    """A self-contained HTML timeline dashboard of the autopsy.

    One horizontal lane per chunk; each grant renders as a bar from its
    grant time to the commit/rejection that resolved it, coloured by
    worker; fence rejections and takeovers are flagged markers.  Pure
    deterministic HTML+CSS — no scripts, no external assets — so the
    bytes are stable and the file archives well as a CI artifact.
    """
    from repro.obs.report import page

    span = max((e["ts"] for e in report.timeline), default=0.0) or 1.0
    colors = {
        worker: _HTML_PALETTE[i % len(_HTML_PALETTE)]
        for i, worker in enumerate(sorted(report.workers))
    }

    def pct(ts: float) -> float:
        return round(100.0 * ts / span, 2)

    rows: list[str] = []
    for chunk in report.chunk_detail:
        bars: list[str] = []
        resolved: list[dict[str, Any]] = []
        if chunk.commit is not None:
            resolved.append(chunk.commit)
        resolved.extend(chunk.rejects)
        for grant in chunk.grants:
            worker = str(grant.get("worker"))
            end = next(
                (
                    r["ts"]
                    for r in resolved
                    if r.get("worker") == grant.get("worker")
                    and r.get("fence") == grant.get("fence")
                ),
                span,
            )
            left = pct(grant["ts"])
            width = max(0.5, pct(end) - left)
            kind = "takeover" if grant["kind"] == "takeover" else "claim"
            bars.append(
                f'<div class="bar {kind}" style="left:{left}%;'
                f'width:{width}%;background:{colors.get(worker, "#888")}"'
                f' title="{html.escape(worker)} fence {grant.get("fence")}'
                f' ({kind})"></div>'
            )
        for reject in chunk.rejects:
            bars.append(
                f'<div class="mark reject" style="left:{pct(reject["ts"])}%"'
                f' title="fence_reject by {html.escape(str(reject.get("worker")))}'
                f' (fence {reject.get("fence")})">&#10007;</div>'
            )
        if chunk.commit is not None:
            bars.append(
                f'<div class="mark commit" style="left:{pct(chunk.commit["ts"])}%"'
                f' title="commit by {html.escape(str(chunk.commit.get("worker")))}'
                f' (fence {chunk.commit.get("fence")})">&#10003;</div>'
            )
        holder = html.escape(chunk.holder or "—")
        rows.append(
            f'<tr><th>chunk {chunk.index}</th>'
            f'<td class="lane">{"".join(bars)}</td>'
            f"<td>{holder}</td></tr>"
        )

    legend = " ".join(
        f'<span class="key"><i style="background:{colors[w]}"></i>'
        f"{html.escape(w)}</span>"
        for w in sorted(report.workers)
    )
    verdict = "PASSED" if report.passed else "FAILED"
    violations = "".join(
        f"<li>{html.escape(v)}</li>" for v in report.violations
    )
    body = f"""
<p>{report.items} item(s) in {report.chunks} chunk(s) of
{report.chunksize}; {len(report.workers)} worker(s);
takeovers {report.takeovers}; fence rejects {report.fence_rejects}.
Verdict: <strong class="verdict-{verdict}">{verdict}</strong></p>
<p>{legend}</p>
<table><tbody>
{"".join(rows)}
</tbody></table>
<ul>{violations}</ul>
<p>Time axis spans t+0.000s to t+{span:.3f}s from the first audit
event. Dashed outline = takeover grant; &#10003; commit;
&#10007; fence rejection.</p>
"""
    return page(
        f"fabric autopsy — campaign {report.fingerprint[:12]}", body, css=_HTML_CSS
    )
