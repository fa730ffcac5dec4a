"""The ``/dashboard`` page: a byte-stable fleet overview over the obs store.

One self-contained HTML page (inline CSS, no scripts, no external
assets — the same conventions as :mod:`repro.obs.report`, whose page
chrome it reuses): the run history table, metric tiles for the latest
run, and sparkline trends for the headline series.  Deliberately a
pure function of the store's contents — no clocks, no live hub
counters (those belong on ``/metrics``) — so two fetches against an
unchanged store return **identical bytes** and CI can assert the page
with ``cmp``.
"""

from __future__ import annotations

import html as html_mod
import time
from typing import Any

from repro.obs.report import fmt, page, sparkline, tile
from repro.obs.store import RunStore

__all__ = ["render_dashboard"]

#: Headline metrics given trend sparklines when present across runs.
TREND_METRICS = ("slots_per_sec", "collisions", "deliveries", "wall_s")

#: Metric tiles shown for the latest run (first matches win).
TILE_METRICS = (
    "engine_runs", "slots", "slots_per_sec", "transmissions", "collisions",
    "deliveries", "wall_s", "alerts", "fabric.takeovers",
)


def _created_text(created: Any) -> str:
    if not isinstance(created, (int, float)):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(created)) + "Z"


def render_dashboard(store: RunStore | None, *, title: str = "repro tower") -> str:
    """The tower overview page (empty-state page when no store)."""
    if store is None:
        return page(
            title,
            "<p class='meta'>no obs store attached — start the tower with "
            "--obs-db to serve run history here</p>",
        )
    runs = store.runs()
    body: list[str] = []
    if not runs:
        body.append("<p class='meta'>the obs store holds no runs yet</p>")
        return page(title, "".join(body))

    latest = runs[-1]
    metrics = store.metrics_for(latest["id"])
    body.append(
        "<p class='meta'>"
        + html_mod.escape(
            f"{len(runs)} run(s) · latest: run {latest['id']} "
            f"({str(latest.get('fingerprint'))[:8]}) · "
            f"{latest.get('command') or 'unknown command'} · "
            f"created {_created_text(latest.get('created'))}"
        )
        + "</p>"
    )

    tiles = [
        tile(name, metrics[name]) for name in TILE_METRICS if name in metrics
    ]
    if tiles:
        body.append("<div class='tiles'>" + "".join(tiles) + "</div>")

    rows = []
    for run in runs[-20:][::-1]:  # newest first, bounded
        rows.append(
            "<tr>"
            f"<td>{run['id']}</td>"
            f"<td>{html_mod.escape(str(run.get('fingerprint'))[:12])}</td>"
            f"<td>{html_mod.escape(str(run.get('command') or '-'))}</td>"
            f"<td>{html_mod.escape(fmt(run.get('seed')))}</td>"
            f"<td>{html_mod.escape(_created_text(run.get('created')))}</td>"
            "</tr>"
        )
    body.append(
        "<h2>Runs</h2><table><tr><th>id</th><th>fingerprint</th>"
        "<th>command</th><th>seed</th><th>created (UTC)</th></tr>"
        + "".join(rows)
        + "</table>"
    )

    trend_rows = []
    for metric in TREND_METRICS:
        series = [
            float(row["value"])
            for row in store.metric_trend(metric)
            if row.get("value") is not None
        ]
        if len(series) < 2:
            continue
        trend_rows.append(
            "<tr>"
            f"<td>{html_mod.escape(metric)}</td>"
            f"<td><code>{html_mod.escape(sparkline(series, width=40))}</code></td>"
            f"<td>{html_mod.escape(fmt(series[-1]))}</td>"
            f"<td>{len(series)}</td>"
            "</tr>"
        )
    if trend_rows:
        body.append(
            "<h2>Trends</h2><table><tr><th>metric</th><th>trend</th>"
            "<th>latest</th><th>points</th></tr>"
            + "".join(trend_rows)
            + "</table>"
        )
    body.append(
        "<p class='meta'>served by python -m repro tower · JSON at /runs, "
        "/trend?metric=… · live events at /stream · Prometheus at /metrics</p>"
    )
    return page(title, "".join(body))
